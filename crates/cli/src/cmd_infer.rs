//! `typefuse infer` — the full pipeline over an NDJSON input.
//!
//! File and stdin input, plain and profiled runs all take the library's
//! one bounded-memory fold, so every flag composes with every other.
//! The other NDJSON commands open their input with [`open_input`] and
//! take the same fold.

use crate::args::ArgStream;
use crate::job_args::JobFlags;
use crate::{CliError, CliResult};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read};
use typefuse::pipeline::{Source, TypeStats};
use typefuse::{ErrorPolicy, ErrorReport, IoSite, JobConfig};
use typefuse_infer::{ArrayFusion, FuseConfig};
use typefuse_obs::Recorder;
use typefuse_types::export::to_json_schema_document;
use typefuse_types::Type;

pub(crate) fn run(args: &mut ArgStream) -> CliResult {
    let input = args.next_positional();
    let format = args
        .option("--format")?
        .unwrap_or_else(|| "pretty".to_string());
    let stats = args.flag("--stats");
    let positional_arrays = args.flag("--positional-arrays");
    let maplike = args.flag("--maplike");
    let profile_json = args.option("--profile-json")?;
    let metrics_json = args.option("--metrics-json")?;
    let trace_json = args.option("--trace-json")?;
    let progress = args.flag("--progress");
    let flags = JobFlags::parse(args)?;
    args.finish()?;

    let observing = metrics_json.is_some() || trace_json.is_some() || progress;
    let recorder = if observing {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let heartbeat = progress.then(|| Heartbeat::start(recorder.clone()));

    let mut config = flags.config(recorder.clone());
    if positional_arrays {
        config = config.fuse_config(FuseConfig {
            array_fusion: ArrayFusion::PositionalWhenAligned,
        });
    }
    if !stats {
        config = config.without_type_stats();
    }
    let job = config.build();

    // The profiled run folds the same records into a per-path profile
    // (provenance lines, kind/length/numeric statistics) instead of a
    // bare schema; output is byte-identical for any worker count and
    // either --map-path (CI diffs it).
    let source = Source::ndjson(open_input(input.as_deref())?);
    let outcome = match &profile_json {
        Some(_) => job.run_profiled(source).map(|p| {
            let timing = format!("total {:.3}s", p.wall.as_secs_f64());
            let report = p.run_report(&recorder);
            let profile = p.profile.to_json();
            let summary = Summary {
                records: p.records,
                partitions: p.partitions,
                type_stats: p.type_stats,
                timing,
            };
            (p.profile.schema, p.errors, summary, report, Some(profile))
        }),
        None => job.run(source).map(|r| {
            let timing = format!(
                "map {:.3}s  reduce {:.3}s  total {:.3}s",
                r.map_time.as_secs_f64(),
                r.reduce_time.as_secs_f64(),
                r.wall.as_secs_f64()
            );
            let report = r.run_report(&recorder);
            let summary = Summary {
                records: r.records,
                partitions: r.partitions,
                type_stats: r.type_stats,
                timing,
            };
            (r.schema, r.errors, summary, report, None)
        }),
    };
    if let Some(hb) = heartbeat {
        hb.finish();
    }
    let (schema, errors, summary, report, profile) = outcome.map_err(crate::ingest_error)?;

    if maplike {
        println!(
            "{}",
            typefuse_infer::maplike::summarize(&schema, typefuse_infer::MapLikeConfig::default())
        );
    } else {
        print_schema(&schema, &format)?;
    }
    report_skipped(&errors, &flags.policy);
    if stats {
        summary.print(&schema);
    }
    if let (Some(path), Some(profile)) = (&profile_json, profile) {
        crate::job_args::write_envelope(path, "profile", &profile)?;
    }
    write_observability(&report, &recorder, &metrics_json, &trace_json)
}

/// The `--stats` lines (the Tables 2–5 columns and the run's timings).
struct Summary {
    records: u64,
    partitions: usize,
    type_stats: TypeStats,
    timing: String,
}

impl Summary {
    fn print(&self, schema: &Type) {
        let s = &self.type_stats;
        let fused = schema.size();
        let ratio = if s.avg_size == 0.0 {
            0.0
        } else {
            fused as f64 / s.avg_size
        };
        eprintln!();
        eprintln!("records           {}", self.records);
        eprintln!("partitions        {}", self.partitions);
        eprintln!("distinct types    {}", s.distinct);
        eprintln!(
            "type size         min {}  max {}  avg {:.1}",
            s.min_size, s.max_size, s.avg_size
        );
        eprintln!("fused type size   {fused}");
        eprintln!("compaction ratio  {ratio:.2}");
        eprintln!("{}", self.timing);
    }
}

/// Tell the operator on stderr what the error policy dropped.
pub(crate) fn report_skipped(report: &ErrorReport, policy: &ErrorPolicy) {
    if report.is_empty() {
        return;
    }
    match policy {
        ErrorPolicy::Quarantine { sink, .. } => eprintln!(
            "skipped {} bad record(s); quarantined to {}",
            report.skipped(),
            sink.display()
        ),
        _ => eprintln!("skipped {} bad record(s)", report.skipped()),
    }
}

/// Write the structured report and/or Chrome trace, if requested. The
/// report rides the shared response envelope (kind `metrics`); the
/// trace keeps the Chrome trace-event layout Perfetto expects.
fn write_observability(
    report: &typefuse_obs::RunReport,
    recorder: &Recorder,
    metrics_json: &Option<String>,
    trace_json: &Option<String>,
) -> CliResult {
    if let Some(path) = metrics_json {
        crate::job_args::write_envelope(path, "metrics", &report.to_json())?;
    }
    if let Some(path) = trace_json {
        std::fs::write(path, recorder.chrome_trace_json())
            .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))?;
    }
    Ok(())
}

/// The `--progress` heartbeat: a background thread that prints
/// records/s and bytes/s to stderr once a second, computed from the
/// shared recorder's `json.records` / `json.bytes` counters.
struct Heartbeat {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl Heartbeat {
    fn start(recorder: Recorder) -> Self {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::spawn(move || {
            let started = Instant::now();
            let mut last_tick = Instant::now();
            let (mut last_records, mut last_bytes) = (0u64, 0u64);
            while !stop2.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(100));
                if last_tick.elapsed() < Duration::from_secs(1) {
                    continue;
                }
                let dt = last_tick.elapsed().as_secs_f64();
                last_tick = Instant::now();
                let records = recorder.counter_value("json.records");
                let bytes = recorder.counter_value("json.bytes");
                eprintln!(
                    "progress: {records} records ({:.0}/s), {:.1} MB ({:.1} MB/s), {:.0}s elapsed",
                    (records - last_records) as f64 / dt,
                    bytes as f64 / 1e6,
                    (bytes - last_bytes) as f64 / dt / 1e6,
                    started.elapsed().as_secs_f64(),
                );
                (last_records, last_bytes) = (records, bytes);
            }
        });
        Heartbeat { stop, handle }
    }

    fn finish(self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = self.handle.join();
    }
}

fn print_schema(schema: &typefuse_types::Type, format: &str) -> CliResult {
    match format {
        "text" => println!("{schema}"),
        "pretty" => println!("{}", typefuse_types::print::pretty(schema)),
        "json-schema" => println!(
            "{}",
            typefuse_json::to_string_pretty(&to_json_schema_document(schema))
        ),
        other => {
            return Err(CliError::usage(format!(
                "unknown format `{other}` (expected text, pretty or json-schema)"
            )))
        }
    }
    Ok(())
}

/// Open NDJSON input (file path, `-`, or absent = stdin) as a buffered
/// reader for [`Source::ndjson`]. A file that cannot be opened is an
/// input I/O error (exit 4), like a read that fails later.
pub(crate) fn open_input(input: Option<&str>) -> Result<Box<dyn BufRead>, CliError> {
    let reader: Box<dyn Read> = match input {
        None | Some("-") => Box::new(io::stdin()),
        Some(path) => Box::new(File::open(path).map_err(|e| {
            let mapped = crate::ingest_error(typefuse::Error::io_at(e, IoSite::default()));
            CliError::with_code(
                format!("cannot open {path}: {}", mapped.message),
                mapped.code,
            )
        })?),
    };
    Ok(Box::new(BufReader::new(reader)))
}

/// Infer the schema of NDJSON input ([`open_input`]) through the same
/// bounded-memory fold as `infer`. Bad input fails with `infer`'s exit
/// codes: 3 when malformed, 4 when unreadable.
pub(crate) fn infer_schema(input: Option<&str>) -> Result<Type, CliError> {
    let result = JobConfig::new()
        .without_type_stats()
        .build()
        .run(Source::ndjson(open_input(input)?))
        .map_err(|e| {
            let mapped = crate::ingest_error(e);
            let name = input.unwrap_or("-");
            CliError::with_code(format!("{name}: {}", mapped.message), mapped.code)
        })?;
    Ok(result.schema)
}
