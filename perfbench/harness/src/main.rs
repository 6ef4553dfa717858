//! `perfbench-harness`: the benchmark's reference folds and traced run.
//!
//! ```text
//! perfbench-harness reference --input F --out S [--text-out T]
//! perfbench-harness profile-reference --input F --out P
//! perfbench-harness trace --input F --workers W --route infer|profile|serve
//! ```
//!
//! `reference` writes the spec-fold schema of the whole file as
//! `typefuse infer` prints it to `--out`, and as the daemon's `schema`
//! op reports it to `--text-out`. `profile-reference` writes the
//! single-threaded profile envelope `infer --profile-json` must match
//! byte for byte. `trace` prints the per-layer metrics as
//! one JSON object.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench_harness::{read_records, spec_profile, spec_schema, trace, Route};

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench-harness: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Value of `--name` in `args`, if given.
fn option(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn required(args: &[String], name: &str) -> Result<String, String> {
    option(args, name).ok_or_else(|| format!("missing {name}"))
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match option(args, name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name}: not a number: {text}")),
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let command = args.first().ok_or("missing command")?.as_str();
    let input = PathBuf::from(required(&args, "--input")?);
    let read = || read_records(&input).map_err(|e| format!("{}: {e}", input.display()));
    match command {
        "reference" => {
            let out = required(&args, "--out")?;
            let schema = spec_schema(&read()?)?;
            let pretty = format!("{}\n", typefuse_types::print::pretty(&schema));
            std::fs::write(&out, pretty).map_err(|e| format!("{out}: {e}"))?;
            if let Some(text_out) = option(&args, "--text-out") {
                std::fs::write(&text_out, schema.to_string())
                    .map_err(|e| format!("{text_out}: {e}"))?;
            }
            Ok(())
        }
        "profile-reference" => {
            let out = required(&args, "--out")?;
            let report = spec_profile(&read()?)?;
            std::fs::write(&out, report).map_err(|e| format!("{out}: {e}"))
        }
        "trace" => {
            let workers = parsed(&args, "--workers", 1usize)?.max(1);
            let route_name = required(&args, "--route")?;
            let route = Route::from_name(&route_name)
                .ok_or_else(|| format!("unknown route {route_name}"))?;
            let metrics =
                trace(&input, workers, route).map_err(|e| format!("{}: {e}", input.display()))?;
            println!("{}", metrics.to_json());
            Ok(())
        }
        other => Err(format!("unknown command {other}")),
    }
}
