//! `perfbench-allocs --input F`: heap allocations per record of the
//! event fold (`infer.streaming`) and of the value-tree parse
//! (`json.parse`), printed as one JSON object.
//!
//! This binary registers the counting allocator the `typefuse` CLI
//! ships with; `perfbench-harness` does not, so the traced run's
//! timings and these counts come from separate processes and the
//! counting never distorts a timing.

use std::process::ExitCode;

use perfbench_harness::{read_records, Metrics};
use typefuse_bench::alloc::{snapshot, CountingAllocator};
use typefuse_infer::streaming;
use typefuse_json::{Parser, ParserOptions};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let Some(input) = args
        .iter()
        .position(|a| a == "--input")
        .and_then(|i| args.get(i + 1))
    else {
        eprintln!("perfbench-allocs: missing --input");
        return ExitCode::FAILURE;
    };
    let records = match read_records(std::path::Path::new(input)) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("perfbench-allocs: {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let n = records.len().max(1) as f64;
    let options = ParserOptions::default();

    let before = snapshot();
    for r in &records {
        let ty = streaming::infer_with_options(r.text.as_bytes(), options.clone());
        std::hint::black_box(ty.is_ok());
    }
    let streaming_allocs = snapshot().since(before).allocations;

    let before = snapshot();
    for r in &records {
        let value = Parser::with_options(r.text.as_bytes(), options.clone()).parse_complete();
        std::hint::black_box(value.is_ok());
    }
    let parse_allocs = snapshot().since(before).allocations;

    let mut m = Metrics::default();
    m.set(
        "infer.streaming.allocs_per_record",
        streaming_allocs as f64 / n,
    );
    m.set("json.parse.allocs_per_record", parse_allocs as f64 / n);
    println!("{}", m.to_json());
    ExitCode::SUCCESS
}
