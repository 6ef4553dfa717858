//! `typefuse stats` — Table-1-style dataset statistics.
//!
//! Records take the same bounded-memory fold as `infer`; every statistic
//! merges across workers, so memory stays bounded by the distinct
//! shapes and the output is the same for any worker count.

use std::collections::HashSet;

use crate::args::ArgStream;
use crate::job_args::JobFlags;
use crate::CliResult;
use typefuse::fold::Accumulator;
use typefuse_datagen::stats::DatasetStats;
use typefuse_json::{Parser, ParserOptions};
use typefuse_obs::Recorder;
use typefuse_types::Type;

pub(crate) fn run(args: &mut ArgStream) -> CliResult {
    let input = args.next_positional();
    let dedup = args.flag("--dedup");
    let metrics_json = args.option("--metrics-json")?;
    let flags = JobFlags::parse_ingest(args)?;
    args.finish()?;

    let recorder = if metrics_json.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let job = flags.config(recorder.clone()).build();
    let folded = {
        let _span = recorder.span("stats.read");
        let mut reader = crate::cmd_infer::open_input(input.as_deref())?;
        typefuse::fold::run(&job, &mut reader, || Measure {
            parser: &job.parser_options,
            stats: DatasetStats::default(),
            shapes: dedup.then(Default::default),
        })
        .map_err(crate::ingest_error)?
    };
    crate::cmd_infer::report_skipped(&folded.errors, &flags.policy);
    let Measure { stats, shapes, .. } = folded.acc;

    println!("records     {}", stats.records);
    println!("bytes       {} ({})", stats.bytes, stats.human_bytes());
    println!("max depth   {}", stats.max_depth);
    println!("avg depth   {:.2}", stats.avg_depth());
    println!("avg nodes   {:.1}", stats.avg_nodes());

    let (distinct_shapes, raw_signatures) = match shapes {
        Some((types, signatures)) => (Some(types.len() as u64), Some(signatures.len() as u64)),
        None => (None, None),
    };
    if let Some(distinct) = distinct_shapes {
        println!("shapes      {distinct}");
        if distinct > 0 {
            println!(
                "redundancy  {:.1} records/shape",
                stats.records as f64 / distinct as f64
            );
        }
    }
    if let Some(distinct) = raw_signatures {
        println!("signatures  {distinct}");
        if distinct > 0 && stats.records > 0 {
            println!(
                "shape-cache {:.1}% hit rate at steady state",
                (stats.records.saturating_sub(distinct)) as f64 / stats.records as f64 * 100.0
            );
        }
    }

    if let Some(path) = metrics_json {
        recorder.add("records", stats.records);
        recorder.gauge_max("stats.max_depth", stats.max_depth as u64);
        if let Some(distinct) = distinct_shapes {
            recorder.add("infer.distinct_shapes", distinct);
        }
        if let Some(distinct) = raw_signatures {
            recorder.add("infer.distinct_signatures", distinct);
        }
        crate::job_args::write_envelope(&path, "metrics", &recorder.snapshot().to_json())?;
    }
    Ok(())
}

/// One worker's share of the statistics.
struct Measure<'a> {
    parser: &'a ParserOptions,
    stats: DatasetStats,
    /// With `--dedup`: the distinct Figure 4 types, which measure shape
    /// redundancy (a high records/shape ratio is what makes the
    /// shape-dedup reduce of `infer --dedup` pay off), and the distinct
    /// raw-shape signatures, which predict the `--map-path shape` cache:
    /// every record after the first with a given signature is a hit.
    /// Signatures are taken over the canonical serialization, so
    /// whitespace-only variation in the raw input collapses: this is the
    /// hit rate the shape route converges to, not necessarily its
    /// first-pass one.
    shapes: Option<(HashSet<Type>, HashSet<u64>)>,
}

impl Accumulator for Measure<'_> {
    fn absorb(&mut self, _line: u64, text: &str) -> typefuse_json::Result<()> {
        let value = Parser::with_options(text.as_bytes(), self.parser.clone()).parse_complete()?;
        self.stats.add(&value);
        if let Some((types, signatures)) = &mut self.shapes {
            types.insert(typefuse_infer::infer_type(&value));
            let line = typefuse_json::to_string(&value);
            if let Some(signature) = typefuse_infer::shape_signature(line.as_bytes()) {
                signatures.insert(signature);
            }
        }
        Ok(())
    }

    fn merge(&mut self, other: Self) {
        self.stats.merge(&other.stats);
        if let (Some((types, signatures)), Some((other_types, other_signatures))) =
            (&mut self.shapes, other.shapes)
        {
            types.extend(other_types);
            signatures.extend(other_signatures);
        }
    }
}
