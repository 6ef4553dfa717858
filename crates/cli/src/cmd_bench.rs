//! `typefuse bench` — the perf-trajectory harness: run the standard
//! workload matrix, write `BENCH_<gitsha>.json`, and gate regressions
//! with `bench compare`.

use crate::args::ArgStream;
use crate::{CliError, CliResult};
use typefuse::pipeline::MapPath;
use typefuse::JobConfig;
use typefuse_bench::{compare, trajectory, BenchReport, BenchRun, ScaleConfig};
use typefuse_datagen::Profile;

pub(crate) fn run(args: &mut ArgStream) -> CliResult {
    match args.next_positional().as_deref() {
        None => run_matrix(args),
        Some("compare") => run_compare(args),
        Some(other) => Err(CliError::usage(format!(
            "unknown bench action `{other}` (expected `compare` or no action)"
        ))),
    }
}

/// Run the workload matrix and write the trajectory file.
fn run_matrix(args: &mut ArgStream) -> CliResult {
    let profiles = match args.option("--profiles")? {
        None => Profile::ALL.to_vec(),
        Some(csv) => csv
            .split(',')
            .map(|name| {
                Profile::from_name(name.trim()).ok_or_else(|| {
                    CliError::usage(format!(
                        "unknown profile `{name}` (expected github, twitter, wikidata or nytimes)"
                    ))
                })
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    let records: u64 = args.parsed_option("--records")?.unwrap_or(100_000);
    let workers: Vec<usize> = match args.option("--workers")? {
        None => {
            let all = typefuse_engine::runtime::available_workers();
            if all > 1 {
                vec![1, all]
            } else {
                vec![1]
            }
        }
        Some(csv) => parse_csv(&csv, "--workers")?,
    };
    let map_paths: Vec<MapPath> = match args.option("--map-paths")? {
        None => vec![MapPath::Values],
        Some(csv) => csv
            .split(',')
            .map(|name| crate::job_args::parse_map_path(name.trim()))
            .collect::<Result<Vec<_>, _>>()?,
    };
    let dedup_modes: Vec<bool> = match args.option("--dedup")? {
        None => vec![false, true],
        Some(csv) => csv
            .split(',')
            .map(|name| match name.trim() {
                "off" => Ok(false),
                "on" => Ok(true),
                other => Err(CliError::usage(format!(
                    "unknown dedup mode `{other}` (expected off or on)"
                ))),
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    let partitions: Option<usize> = args.parsed_option("--partitions")?;
    let measure_bytes = !args.flag("--no-bytes");
    let out = args.option("--out")?;
    args.finish()?;

    let sha = git_sha();
    let out = out.unwrap_or_else(|| format!("BENCH_{sha}.json"));
    let mut report = BenchReport::new(&sha, unix_timestamp());

    let cells = profiles.len() * workers.len() * map_paths.len() * dedup_modes.len();
    eprintln!(
        "bench: {cells} runs ({} profiles x {} worker counts x {} map paths x {} dedup modes), {records} records each",
        profiles.len(),
        workers.len(),
        map_paths.len(),
        dedup_modes.len()
    );
    for &profile in &profiles {
        for &w in &workers {
            for &map_path in &map_paths {
                for &dedup in &dedup_modes {
                    // Each matrix cell is described by the same shared
                    // JobConfig the pipeline and daemon consume.
                    let job = JobConfig::new()
                        .workers(w)
                        .partitions(partitions.unwrap_or((w * 4).max(1)))
                        .map_path(map_path);
                    let mut config = ScaleConfig::new(profile, records).with_job_config(&job);
                    config.dedup = dedup;
                    if measure_bytes {
                        config = config.measure_bytes();
                    }
                    let before = typefuse_bench::alloc::snapshot();
                    let result = typefuse_bench::run_scale(&config);
                    let delta = typefuse_bench::alloc::snapshot().since(before);
                    let run = BenchRun::from_scale(&config, &result, delta);
                    print_live(&run);
                    report.runs.push(run);
                }
            }
        }
    }

    std::fs::write(&out, report.to_json())
        .map_err(|e| CliError::with_code(format!("cannot write {out}: {e}"), 4))?;
    eprintln!("wrote {} runs to {out}", report.runs.len());
    Ok(())
}

/// One line per completed run — the live worker-utilization report.
fn print_live(run: &BenchRun) {
    let u = &run.utilization;
    let mut line = format!("  {:<44} {:>10.0} rec/s", run.key(), run.records_per_sec);
    if run.mb_per_sec > 0.0 {
        line.push_str(&format!("  {:>6.1} MB/s", run.mb_per_sec));
    }
    line.push_str(&format!(
        "  util {:>3.0}% ({}/{} busy)",
        u.utilization() * 100.0,
        u.busy_workers(),
        u.workers.len()
    ));
    if run.alloc_count > 0 {
        line.push_str(&format!("  {} allocs", run.alloc_count));
    }
    eprintln!("{line}");
}

/// Diff a current trajectory against a baseline; exit 6 on regression.
fn run_compare(args: &mut ArgStream) -> CliResult {
    let baseline_path = args
        .option("--baseline")?
        .ok_or_else(|| CliError::usage("bench compare needs `--baseline FILE`"))?;
    let current_path = args
        .option("--current")?
        .ok_or_else(|| CliError::usage("bench compare needs `--current FILE`"))?;
    let tolerance: f64 = args.parsed_option("--tolerance")?.unwrap_or(10.0);
    args.finish()?;

    let baseline = read_report(&baseline_path)?;
    let current = read_report(&current_path)?;
    let diff = compare(&current, &baseline, tolerance);
    print!("{}", diff.to_text());
    println!(
        "baseline {} ({}) vs current {} ({})",
        baseline.git_sha, baseline_path, current.git_sha, current_path
    );
    if diff.has_regressions() {
        Err(CliError::with_code(
            format!(
                "{} run(s) regressed more than {tolerance}% below the baseline",
                diff.regressions().count()
            ),
            6,
        ))
    } else {
        Ok(())
    }
}

fn read_report(path: &str) -> Result<BenchReport, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::with_code(format!("cannot read {path}: {e}"), 4))?;
    trajectory::BenchReport::from_json(&text).map_err(|e| CliError::runtime(format!("{path}: {e}")))
}

fn parse_csv(csv: &str, option: &str) -> Result<Vec<usize>, CliError> {
    csv.split(',')
        .map(|part| {
            part.trim()
                .parse::<usize>()
                .map_err(|e| CliError::usage(format!("invalid value {part:?} in `{option}`: {e}")))
        })
        .collect()
}

/// Short git revision of the working tree, or `unknown` outside a
/// checkout (or without git on PATH).
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Seconds since the Unix epoch, as a string (no date dependency).
fn unix_timestamp() -> String {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs().to_string())
        .unwrap_or_default()
}
