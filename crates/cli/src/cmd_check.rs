//! `typefuse check` — validate NDJSON records against a schema.
//!
//! The use case from the paper's introduction: once a schema has been
//! inferred, downstream producers can be checked against it, catching
//! structural drift (new fields, type changes) before it breaks queries.
//!
//! Records take the same bounded-memory fold as `infer`: each worker
//! parses its records and tallies which ones the schema admits, so lines
//! are judged exactly as `infer` judges them and the report is the same
//! for any worker count.

use std::collections::BTreeSet;

use crate::args::ArgStream;
use crate::{CliError, CliResult};
use typefuse::fold::Accumulator;
use typefuse_json::{Parser, ParserOptions};
use typefuse_obs::Recorder;
use typefuse_types::{parse_type, Type};

pub(crate) fn run(args: &mut ArgStream) -> CliResult {
    let input = args.next_positional();
    let schema_path = args
        .option("--schema")?
        .ok_or_else(|| CliError::usage("check requires --schema FILE"))?;
    let max_failures: usize = args.parsed_option("--max-failures")?.unwrap_or(10);
    let metrics_json = args.option("--metrics-json")?;
    let flags = crate::job_args::JobFlags::parse_ingest(args)?;
    args.finish()?;

    let recorder = if metrics_json.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };

    let schema_text = std::fs::read_to_string(&schema_path)
        .map_err(|e| CliError::runtime(format!("cannot read {schema_path}: {e}")))?;
    let schema = parse_type(schema_text.trim())
        .map_err(|e| CliError::runtime(format!("invalid schema: {e}")))?;

    let job = flags.config(recorder.clone()).build();
    let folded = {
        let _span = recorder.span("check.read");
        let mut reader = crate::cmd_infer::open_input(input.as_deref())?;
        typefuse::fold::run(&job, &mut reader, || {
            Conformance::new(&schema, &job.parser_options, max_failures)
        })
        .map_err(crate::ingest_error)?
    };
    crate::cmd_infer::report_skipped(&folded.errors, &flags.policy);
    let (records, tally) = (folded.records, folded.acc);
    for line in &tally.first {
        eprintln!("line {line}: not admitted by the schema");
    }
    let failures = tally.failures;
    if failures > max_failures as u64 {
        eprintln!("… and {} more", failures - max_failures as u64);
    }
    println!("{} of {records} records conform", records - failures);

    if let Some(path) = metrics_json {
        recorder.add("records", records);
        recorder.add("check.failures", failures);
        recorder.add("check.conforming", records - failures);
        crate::job_args::write_envelope(&path, "metrics", &recorder.snapshot().to_json())?;
    }

    if failures > 0 {
        return Err(CliError::runtime(format!(
            "{failures} records do not conform"
        )));
    }
    Ok(())
}

/// One worker's conformance tally: the exact failure count and the
/// `cap` smallest failing input lines.
struct Conformance<'a> {
    schema: &'a Type,
    parser: &'a ParserOptions,
    cap: usize,
    failures: u64,
    first: BTreeSet<u64>,
}

impl<'a> Conformance<'a> {
    fn new(schema: &'a Type, parser: &'a ParserOptions, cap: usize) -> Self {
        Conformance {
            schema,
            parser,
            cap,
            failures: 0,
            first: BTreeSet::new(),
        }
    }

    fn note(&mut self, line: u64) {
        self.first.insert(line);
        if self.first.len() > self.cap {
            self.first.pop_last();
        }
    }
}

impl Accumulator for Conformance<'_> {
    fn absorb(&mut self, line: u64, text: &str) -> typefuse_json::Result<()> {
        let value = Parser::with_options(text.as_bytes(), self.parser.clone()).parse_complete()?;
        if !self.schema.admits(&value) {
            self.failures += 1;
            self.note(line);
        }
        Ok(())
    }

    fn merge(&mut self, other: Self) {
        self.failures += other.failures;
        for line in other.first {
            self.note(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typefuse::{ErrorPolicy, JobConfig};

    /// Conforming and failing records between a blank, a malformed, a
    /// U+00A0-padded, a non-UTF-8, an oversized and a CRLF line.
    const LINES: [&[u8]; 11] = [
        b"{\"a\":1}",
        b"{\"a\":\"x\"}",
        b"  ",
        b"{bad",
        b"{\"a\":2}",
        b"{\"b\":true}",
        b"\xc2\xa0{\"a\":3}\xc2\xa0",
        b"{\"bin\":\"\xff\"}",
        b"{\"long\":\"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\"}",
        b"{\"a\":[1]}\r",
        b"{\"a\":4}",
    ];

    #[test]
    fn check_is_invariant_to_worker_count() {
        let input: Vec<u8> = LINES
            .iter()
            .flat_map(|l| l.iter().chain(b"\n"))
            .copied()
            .collect();
        let schema = parse_type("{a: Num}").unwrap();
        let dir = std::env::temp_dir().join("typefuse-check-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let sink = dir.join(format!("quarantine-{}.ndjson", std::process::id()));
        let mut sidecar = None;
        for cap in [2, 10] {
            for slab_bytes in 1..=input.len() + 1 {
                for workers in [1, 2, 4] {
                    let label = format!("cap {cap}, {slab_bytes} B, {workers}w");
                    let job = JobConfig::new()
                        .workers(workers)
                        .on_error(ErrorPolicy::quarantine(&sink))
                        .max_line_bytes(40)
                        .build();
                    let folded = typefuse::fold::run_in_slabs(
                        &job,
                        &mut input.as_slice(),
                        slab_bytes,
                        || Conformance::new(&schema, &job.parser_options, cap),
                    )
                    .unwrap();
                    assert_eq!(folded.records, 7, "{label}");
                    assert_eq!(folded.acc.failures, 3, "{label}");
                    let first: Vec<u64> = folded.acc.first.into_iter().collect();
                    assert_eq!(first, [2, 6, 10][..cap.min(3)], "{label}");
                    let bad: Vec<u64> = folded.errors.records().iter().map(|r| r.at).collect();
                    assert_eq!(bad, [4, 8, 9], "{label}");
                    let bytes = std::fs::read(&sink).unwrap();
                    assert_eq!(
                        sidecar.get_or_insert_with(|| bytes.clone()),
                        &bytes,
                        "{label}"
                    );
                }
            }
        }
        std::fs::remove_file(&sink).ok();
    }
}
