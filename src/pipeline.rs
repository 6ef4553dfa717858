//! The end-to-end schema-inference pipeline: the paper's two phases wired
//! onto the execution engine, plus the measurements its evaluation
//! reports.
//!
//! Every ingestion route goes through one entry point,
//! [`SchemaJob::run`], fed by a [`Source`]:
//!
//! ```
//! use typefuse::pipeline::{SchemaJob, Source};
//!
//! let data = "{\"a\":1}\n{\"a\":\"x\",\"b\":null}\n";
//! let result = SchemaJob::new().run(Source::ndjson(data.as_bytes())).unwrap();
//! assert_eq!(result.schema.to_string(), "{a: Num + Str, b: Null?}");
//! assert_eq!(result.records, 2);
//! ```
//!
//! For text sources the Map phase defaults to the **event fast path**
//! ([`MapPath::Events`]): each line folds straight from the token stream
//! into its Figure 4 type via
//! [`streaming::infer_type_from_str`](typefuse_infer::streaming), never
//! allocating the intermediate [`Value`] tree. The classic tree route
//! stays available as [`MapPath::Values`] for differential testing —
//! both produce byte-identical schemas (property-tested).
//!
//! Every text source, plain or profiled, takes the one bounded-memory
//! fold (`src/fold.rs`): a reader cuts the stream into slabs, worker
//! threads fold each record into their accumulators, and the
//! accumulators merge once. In-memory sources ([`Source::Values`],
//! [`Source::Dataset`]) keep the partitioned Map and Reduce of the
//! engine.
//!
//! The legacy entry points ([`SchemaJob::run_values`],
//! [`SchemaJob::run_dataset`], [`SchemaJob::run_ndjson`]) remain as thin
//! wrappers over `run`.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::io::BufRead;
use std::time::{Duration, Instant};

use crate::error::Error;
use crate::faults::{ErrorPolicy, ErrorReport};
use crate::fold::{self, ProfiledAcc, SchemaAcc, Tally};
use typefuse_engine::{Dataset, ReducePlan, Runtime, StageMetrics, WorkerPanic};
use typefuse_infer::{
    infer_type_recorded, FuseConfig, ProfileAcc, ProfileReport, Profiling, RecordedFuser,
};
use typefuse_json::{ParserOptions, RetryPolicy, Value};
use typefuse_obs::{Recorder, RunReport};
use typefuse_types::Type;

/// An input for [`SchemaJob::run`]: where the records come from.
///
/// The variants differ in what the Map phase can see. Text sources
/// ([`Source::Ndjson`]) support both Map routes; value sources are
/// already trees, so they always use tree inference.
pub enum Source<'a> {
    /// In-memory values, partitioned by the job's `partitions` setting.
    Values(Vec<Value>),
    /// An already partitioned dataset (borrowed; partitioning is kept).
    Dataset(&'a Dataset<Value>),
    /// An NDJSON byte stream: one record per non-blank line.
    Ndjson(Box<dyn BufRead + 'a>),
}

impl<'a> Source<'a> {
    /// An NDJSON stream source.
    pub fn ndjson<R: BufRead + 'a>(reader: R) -> Self {
        Source::Ndjson(Box::new(reader))
    }

    /// An in-memory value source.
    pub fn values(values: Vec<Value>) -> Self {
        Source::Values(values)
    }

    /// A borrowed, already partitioned dataset source.
    pub fn dataset(dataset: &'a Dataset<Value>) -> Self {
        Source::Dataset(dataset)
    }
}

impl std::fmt::Debug for Source<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Source::Values(v) => f.debug_tuple("Values").field(&v.len()).finish(),
            Source::Dataset(d) => f.debug_tuple("Dataset").field(&d.count()).finish(),
            Source::Ndjson(_) => f.write_str("Ndjson(..)"),
        }
    }
}

/// Which Map-phase route text sources take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MapPath {
    /// Fold parser events straight into types — no `Value` trees. The
    /// default.
    #[default]
    Events,
    /// Parse each line into a [`Value`], then infer (the paper's literal
    /// two-step reading). Kept for differential testing.
    Values,
    /// Raw-shape fast path: hash each record's structural skeleton off
    /// the stage-1 SWAR scan and serve repeats from a per-partition
    /// signature → type cache ([`typefuse_infer::ShapeCache`]); misses
    /// replay the event fold, so output is byte-identical to
    /// [`MapPath::Events`].
    Shape,
}

/// Whether the first 512 of `types` look shape-redundant: at least 64
/// sampled, and at most half of them distinct. No route depends on it
/// any more (every schema fold saturates, DESIGN.md §10); benchmarks
/// report it as a redundancy measure. Only a hash of each sampled type
/// is kept.
pub fn dedup_auto_sample<'a>(types: impl IntoIterator<Item = &'a Type>) -> bool {
    const SAMPLE: usize = 512;
    const MIN_SAMPLE: usize = 64;
    let mut distinct = HashSet::new();
    let mut seen = 0;
    for ty in types.into_iter().take(SAMPLE) {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        ty.hash(&mut hasher);
        distinct.insert(hasher.finish());
        seen += 1;
    }
    seen >= MIN_SAMPLE && distinct.len() * 2 <= seen
}

/// Configuration of a schema-inference run.
#[derive(Debug, Clone)]
pub struct SchemaJob {
    /// Worker threads (default: all available).
    pub runtime: Runtime,
    /// Number of dataset partitions for in-memory sources (default:
    /// 4 × workers). Text sources are cut into slabs instead.
    pub partitions: usize,
    /// How the per-partition schemas of in-memory sources are combined.
    pub reduce_plan: ReducePlan,
    /// Fusion configuration (array strategy).
    pub fuse_config: FuseConfig,
    /// Map-phase route for text sources (default: [`MapPath::Events`]).
    pub map_path: MapPath,
    /// Whether to collect per-record type statistics (distinct types,
    /// min/max/avg sizes — the Tables 2–5 columns). Costs one hash-set
    /// insert per record.
    pub collect_type_stats: bool,
    /// Observability recorder shared by every phase of the run (disabled
    /// by default, which costs nothing). See [`SchemaResult::run_report`]
    /// for turning it into a structured report after the run.
    pub recorder: Recorder,
    /// How records that fail to parse are treated (default:
    /// [`ErrorPolicy::FailFast`], byte-identical to the pre-policy
    /// behaviour). Skipped or quarantined records surface in
    /// [`SchemaResult::errors`]; counters `ingest.skipped` and
    /// `ingest.quarantined` track them.
    pub error_policy: ErrorPolicy,
    /// Retry policy for transient I/O errors while reading text sources
    /// (default: [`RetryPolicy::none`]). Retries count `ingest.retries`.
    pub retry: RetryPolicy,
    /// Parser options for text sources: recursion limit
    /// (`max_depth`, default 512) and duplicate-key handling.
    pub parser_options: ParserOptions,
    /// Per-line size guard for text sources: a line longer than this
    /// degrades into a `RecordTooLarge` parse error handled per
    /// `error_policy` instead of ballooning memory (default: no cap).
    pub max_line_bytes: Option<usize>,
    /// Fault-injection hook: panic inside the Map closure when it
    /// reaches this 1-based input line. Exercises worker panic
    /// isolation ([`Error::Worker`]) end to end; `None` in production.
    pub chaos_panic_at: Option<u32>,
}

impl Default for SchemaJob {
    fn default() -> Self {
        Self::new()
    }
}

impl SchemaJob {
    /// A job with default settings.
    pub fn new() -> Self {
        let runtime = Runtime::default();
        let partitions = runtime.workers() * 4;
        SchemaJob {
            runtime,
            partitions,
            reduce_plan: ReducePlan::default(),
            fuse_config: FuseConfig::default(),
            map_path: MapPath::default(),
            collect_type_stats: true,
            recorder: Recorder::disabled(),
            error_policy: ErrorPolicy::default(),
            retry: RetryPolicy::none(),
            parser_options: ParserOptions::default(),
            max_line_bytes: None,
            chaos_panic_at: None,
        }
    }

    /// Run the pipeline over any [`Source`].
    ///
    /// In-memory sources cannot fail on input; NDJSON sources fail on an
    /// unreadable chunk ([`Error::Io`], with the line it stopped at)
    /// and handle malformed records per the configured
    /// [`ErrorPolicy`]: fail fast at the earliest bad line
    /// ([`Error::Parse`], anchored at its 1-based line number), skip, or
    /// quarantine — skipped records are reported in
    /// [`SchemaResult::errors`]. A panicking worker surfaces as
    /// [`Error::Worker`] on every route.
    pub fn run(&self, source: Source<'_>) -> Result<SchemaResult, Error> {
        match source {
            Source::Values(values) => {
                self.run_value_dataset(&Dataset::from_vec(values, self.partitions))
            }
            Source::Dataset(dataset) => self.run_value_dataset(dataset),
            Source::Ndjson(mut reader) => {
                let wall_start = Instant::now();
                let folded = fold::run(self, &mut reader, || SchemaAcc::new(self))?;
                let (schema, type_stats) = folded.acc.finish();
                self.recorder.add("records", folded.records);
                Ok(SchemaResult {
                    fused_size: schema.size(),
                    schema,
                    records: folded.records,
                    partitions: folded.slabs,
                    type_stats,
                    errors: folded.errors,
                    map_time: folded.fold_metrics.wall,
                    reduce_time: folded.merge_metrics.wall,
                    wall: wall_start.elapsed(),
                    map_metrics: folded.fold_metrics,
                    reduce_metrics: folded.merge_metrics,
                })
            }
        }
    }

    /// Run over an in-memory value collection.
    pub fn run_values(&self, values: Vec<Value>) -> SchemaResult {
        self.run(Source::Values(values))
            .expect("in-memory sources cannot fail")
    }

    /// Run over an already partitioned dataset.
    pub fn run_dataset(&self, dataset: &Dataset<Value>) -> SchemaResult {
        self.run(Source::Dataset(dataset))
            .expect("in-memory sources cannot fail")
    }

    /// Run over an NDJSON stream, failing on the first malformed record.
    /// With an enabled recorder, reading counts `json.bytes` /
    /// `json.lines` / `json.records` under a `pipeline.read` span.
    pub fn run_ndjson<R: BufRead>(&self, reader: R) -> Result<SchemaResult, Error> {
        self.run(Source::ndjson(reader))
    }

    /// Run the **profiled** pipeline over any [`Source`]: one fused
    /// Map+Reduce pass with the [`Profiling`] strategy, producing a
    /// [`ProfileReport`] — the fused schema plus per-path presence
    /// counts, kind/length/numeric statistics and provenance lines.
    ///
    /// Records are numbered by their 1-based input line (NDJSON) or
    /// ordinal (in-memory sources), and those numbers survive the
    /// parallel reduce unchanged: every provenance aggregate is a
    /// minimum, so the profile — and its serialized report — is
    /// byte-identical for any worker count, partitioning, reduce plan
    /// and Map route (`job.map_path` picks the event fold or the tree
    /// walk for text sources; both observe identically).
    ///
    /// Text sources take the same fold as [`SchemaJob::run`], so the
    /// error policy, parser options and line-size guard apply alike:
    /// fail fast at the earliest bad line, or skip and quarantine into
    /// [`ProfiledResult::errors`].
    pub fn run_profiled(&self, source: Source<'_>) -> Result<ProfiledResult, Error> {
        let wall_start = Instant::now();
        let rec = &self.recorder;
        let fuser = Profiling {
            config: self.fuse_config,
        };
        match source {
            Source::Values(values) => {
                let numbered: Vec<(u64, Value)> = values
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| (i as u64 + 1, v))
                    .collect();
                let dataset = Dataset::from_vec(numbered, self.partitions);
                let (acc, fold_metrics) = {
                    let _span = rec.span("pipeline.profile");
                    dataset.reduce_items(
                        &self.runtime,
                        self.reduce_plan,
                        &fuser,
                        rec,
                        |_, acc, (line, v): &(u64, Value)| acc.absorb_value_at(*line, v),
                    )
                };
                self.finish_profiled(acc, dataset.num_partitions(), fold_metrics, wall_start)
            }
            Source::Dataset(dataset) => {
                // Keep the caller's partitioning; number records by their
                // global iteration order so 1 partition and N agree.
                let mut ordinal = 0u64;
                let parts: Vec<Vec<(u64, &Value)>> = dataset
                    .partitions()
                    .iter()
                    .map(|part| {
                        part.iter()
                            .map(|v| {
                                ordinal += 1;
                                (ordinal, v)
                            })
                            .collect()
                    })
                    .collect();
                let numbered = Dataset::from_partitions(parts);
                let (acc, fold_metrics) = {
                    let _span = rec.span("pipeline.profile");
                    numbered.reduce_items(
                        &self.runtime,
                        self.reduce_plan,
                        &fuser,
                        rec,
                        |_, acc, (line, v): &(u64, &Value)| acc.absorb_value_at(*line, v),
                    )
                };
                self.finish_profiled(acc, numbered.num_partitions(), fold_metrics, wall_start)
            }
            Source::Ndjson(mut reader) => {
                let folded = {
                    let _span = rec.span("pipeline.profile");
                    fold::run(self, &mut reader, || ProfiledAcc::new(self))?
                };
                let (acc, type_stats) = folded.acc.finish();
                let profile = acc.finish();
                let records = profile.records;
                rec.add("records", records);
                Ok(ProfiledResult {
                    profile,
                    records,
                    partitions: folded.slabs,
                    errors: folded.errors,
                    type_stats,
                    wall: wall_start.elapsed(),
                    fold_metrics: folded.fold_metrics,
                })
            }
        }
    }

    /// Shared tail of the in-memory profiled routes: surface the
    /// earliest error or finish the profile.
    fn finish_profiled(
        &self,
        acc: Option<ProfileAcc>,
        partitions: usize,
        fold_metrics: StageMetrics,
        wall_start: Instant,
    ) -> Result<ProfiledResult, Error> {
        let rec = &self.recorder;
        let acc = acc.unwrap_or_else(|| ProfileAcc::with_config(self.fuse_config));
        if let Some((line, e)) = acc.first_error() {
            rec.add("json.parse_errors", 1);
            let mut pos = e.span().start;
            pos.line = line as u32;
            return Err(Error::Parse(typefuse_json::Error::at(
                e.kind().clone(),
                pos,
            )));
        }
        let profile = acc.finish();
        let records = profile.records;
        rec.add("records", records);
        Ok(ProfiledResult {
            profile,
            records,
            partitions,
            errors: ErrorReport::new(),
            type_stats: TypeStats::default(),
            wall: wall_start.elapsed(),
            fold_metrics,
        })
    }

    /// The tree Map phase: infer one type per materialised value
    /// (Figure 4), then hand off to the shared Reduce tail.
    fn run_value_dataset(&self, dataset: &Dataset<Value>) -> Result<SchemaResult, Error> {
        let wall_start = Instant::now();
        let rec = &self.recorder;
        let map_start = Instant::now();
        let (types, map_metrics) = {
            let _span = rec.span("pipeline.map");
            dataset.try_map_metered(&self.runtime, |v| infer_type_recorded(v, rec))
        };
        let types = self.surface_worker(types)?;
        self.finish(
            types,
            dataset.count() as u64,
            ErrorReport::new(),
            wall_start,
            map_start.elapsed(),
            map_metrics,
        )
    }

    /// Count and convert an isolated worker panic.
    fn surface_worker<T>(&self, result: Result<T, WorkerPanic>) -> Result<T, Error> {
        result.map_err(|p| {
            self.recorder.add("ingest.worker_panics", p.panics as u64);
            Error::Worker(p)
        })
    }

    /// The tail of the in-memory routes: type statistics, the
    /// trait-driven Reduce (Figure 6 on the engine's `reduce_fused`, via
    /// [`RecordedFuser`] and so the cap-2 rule), and result assembly.
    fn finish(
        &self,
        types: Dataset<Type>,
        records: u64,
        errors: ErrorReport,
        wall_start: Instant,
        map_time: Duration,
        map_metrics: StageMetrics,
    ) -> Result<SchemaResult, Error> {
        let rec = &self.recorder;

        // ---- Type statistics (the Tables 2–5 columns). ----------------
        let type_stats = {
            let _span = rec.span("pipeline.stats");
            if self.collect_type_stats {
                TypeStats::measure(types.iter())
            } else {
                TypeStats::default()
            }
        };

        // ---- Reduce phase: fuse (Figure 6). ----------------------------
        let reduce_start = Instant::now();
        let (fused, reduce_metrics) = {
            let _span = rec.span("pipeline.reduce");
            let fuser = RecordedFuser::new(self.fuse_config, rec.clone());
            types.try_reduce_fused(&self.runtime, self.reduce_plan, &fuser, rec)
        };
        let fused = self.surface_worker(fused)?;
        let reduce_time = reduce_start.elapsed();

        rec.add("records", records);
        let schema = fused.unwrap_or(Type::Bottom);
        Ok(SchemaResult {
            fused_size: schema.size(),
            schema,
            records,
            partitions: types.num_partitions(),
            type_stats,
            errors,
            map_time,
            reduce_time,
            wall: wall_start.elapsed(),
            map_metrics,
            reduce_metrics,
        })
    }
}

/// Distinct-type statistics — the "Inferred types size" columns of
/// Tables 2–5.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TypeStats {
    /// Number of distinct inferred types.
    pub distinct: usize,
    /// Smallest inferred type size.
    pub min_size: usize,
    /// Largest inferred type size.
    pub max_size: usize,
    /// Mean inferred type size over *all* records (not just distinct).
    pub avg_size: f64,
}

impl TypeStats {
    fn measure<'a>(types: impl IntoIterator<Item = &'a Type>) -> TypeStats {
        let mut tally = Tally::default();
        for ty in types {
            tally.observe(ty);
        }
        tally.finish()
    }
}

/// The outcome of a schema-inference run.
#[derive(Debug, Clone)]
pub struct SchemaResult {
    /// The fused schema.
    pub schema: Type,
    /// Size of the fused schema (AST nodes) — the "Fused types size"
    /// column.
    pub fused_size: usize,
    /// Number of input records.
    pub records: u64,
    /// Partitions processed (slabs, for text sources).
    pub partitions: usize,
    /// Distinct / min / max / avg inferred-type statistics.
    pub type_stats: TypeStats,
    /// Records skipped or quarantined under the job's [`ErrorPolicy`]
    /// (always empty for `FailFast` — the run errors instead).
    pub errors: ErrorReport,
    /// Wall time of the Map (inference) phase.
    pub map_time: Duration,
    /// Wall time of the Reduce (fusion) phase.
    pub reduce_time: Duration,
    /// Total wall time including statistics collection.
    pub wall: Duration,
    /// Per-partition metrics of the Map phase.
    pub map_metrics: StageMetrics,
    /// Per-partition metrics of the partition-local fold.
    pub reduce_metrics: StageMetrics,
}

impl SchemaResult {
    /// The succinctness ratio the paper discusses: fused size over the
    /// average inferred size (≤ 1.4 for GitHub, ≤ 4 for Twitter, larger
    /// for Wikidata).
    pub fn compaction_ratio(&self) -> f64 {
        if self.type_stats.avg_size == 0.0 {
            0.0
        } else {
            self.fused_size as f64 / self.type_stats.avg_size
        }
    }

    /// Assemble the full structured run report: the recorder's counters,
    /// gauges, histograms, spans and trace, plus this result's
    /// per-stage task timings (`map` and `reduce.local_fold`, each with
    /// per-task queue-wait vs execute split) and headline values.
    ///
    /// Pass the same recorder the job ran with; a disabled recorder
    /// still yields the stage timings and headline values.
    pub fn run_report(&self, recorder: &Recorder) -> RunReport {
        let mut report = recorder.snapshot();
        report.counters.insert("records".to_string(), self.records);
        report.stages.push(self.map_metrics.stage_report("map"));
        report
            .stages
            .push(self.reduce_metrics.stage_report("reduce.local_fold"));
        report
            .values
            .insert("wall_seconds".to_string(), self.wall.as_secs_f64());
        report
            .values
            .insert("map_seconds".to_string(), self.map_time.as_secs_f64());
        report
            .values
            .insert("reduce_seconds".to_string(), self.reduce_time.as_secs_f64());
        report
            .values
            .insert("fused_size".to_string(), self.fused_size as f64);
        report
            .values
            .insert("compaction_ratio".to_string(), self.compaction_ratio());
        report
            .meta
            .insert("partitions".to_string(), self.partitions.to_string());
        report
            .meta
            .insert("schema".to_string(), self.schema.to_string());
        report
    }
}

/// The outcome of a profiled run ([`SchemaJob::run_profiled`]).
#[derive(Debug, Clone)]
pub struct ProfiledResult {
    /// The per-path profile, including the fused schema.
    pub profile: ProfileReport,
    /// Number of input records.
    pub records: u64,
    /// Partitions processed (slabs, for text sources).
    pub partitions: usize,
    /// Records skipped or quarantined under the job's [`ErrorPolicy`].
    pub errors: ErrorReport,
    /// Distinct / min / max / avg inferred-type statistics, collected
    /// by text sources when the job asks for them.
    pub type_stats: TypeStats,
    /// Total wall time.
    pub wall: Duration,
    /// Per-partition metrics of the profiled fold (per worker, for text
    /// sources).
    pub fold_metrics: StageMetrics,
}

impl ProfiledResult {
    /// Assemble a structured run report for this profiled run, mirroring
    /// [`SchemaResult::run_report`]: recorder state plus the fold's
    /// per-task timings and headline values.
    pub fn run_report(&self, recorder: &Recorder) -> RunReport {
        let mut report = recorder.snapshot();
        report.counters.insert("records".to_string(), self.records);
        report
            .stages
            .push(self.fold_metrics.stage_report("profile.local_fold"));
        report
            .values
            .insert("wall_seconds".to_string(), self.wall.as_secs_f64());
        report.values.insert(
            "profiled_paths".to_string(),
            self.profile.paths.len() as f64,
        );
        report
            .meta
            .insert("partitions".to_string(), self.partitions.to_string());
        report
            .meta
            .insert("schema".to_string(), self.profile.schema.to_string());
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JobConfig;
    use typefuse_json::json;

    fn values() -> Vec<Value> {
        vec![
            json!({"a": 1, "b": "x"}),
            json!({"a": 2, "b": "y"}),
            json!({"a": null, "c": [1, 2]}),
            json!({"a": 1, "b": "x"}),
        ]
    }

    fn as_ndjson(values: &[Value]) -> String {
        let mut buf = Vec::new();
        typefuse_json::ndjson::write_ndjson(&mut buf, values).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn end_to_end_schema() {
        let r = JobConfig::new().partitions(2).build().run_values(values());
        assert_eq!(
            r.schema.to_string(),
            "{a: Null + Num, b: Str?, c: [Num, Num]?}"
        );
        assert_eq!(r.records, 4);
        assert_eq!(r.partitions, 2);
        for v in values() {
            assert!(r.schema.admits(&v));
        }
    }

    #[test]
    fn type_stats_columns() {
        let r = SchemaJob::new().run_values(values());
        // 2 distinct types: three of the four records infer {a: Num, b: Str}.
        assert_eq!(r.type_stats.distinct, 2);
        assert!(r.type_stats.min_size <= r.type_stats.max_size);
        assert!(r.type_stats.avg_size >= r.type_stats.min_size as f64);
        assert!(r.type_stats.avg_size <= r.type_stats.max_size as f64);
        assert_eq!(r.fused_size, r.schema.size());
        assert!(r.compaction_ratio() > 0.0);
    }

    #[test]
    fn partitioning_does_not_change_the_schema() {
        let base = JobConfig::new()
            .partitions(1)
            .build()
            .run_values(values())
            .schema;
        for parts in [2, 3, 7, 64] {
            let r = JobConfig::new()
                .partitions(parts)
                .build()
                .run_values(values());
            assert_eq!(r.schema, base, "partitions = {parts}");
        }
    }

    #[test]
    fn reduce_plans_agree() {
        let seq = JobConfig::new()
            .reduce_plan(ReducePlan::Sequential)
            .build()
            .run_values(values())
            .schema;
        let tree = JobConfig::new()
            .reduce_plan(ReducePlan::Tree { arity: 2 })
            .build()
            .run_values(values())
            .schema;
        assert_eq!(seq, tree);
    }

    #[test]
    fn empty_input() {
        let r = SchemaJob::new().run_values(vec![]);
        assert_eq!(r.schema, Type::Bottom);
        assert_eq!(r.records, 0);
        assert_eq!(r.type_stats, TypeStats::default());
        assert_eq!(r.compaction_ratio(), 0.0);
    }

    #[test]
    fn ndjson_entry_point() {
        let data = "{\"a\":1}\n{\"a\":\"x\"}\n";
        let r = SchemaJob::new().run_ndjson(data.as_bytes()).unwrap();
        assert_eq!(r.schema.to_string(), "{a: Num + Str}");

        let bad = "{\"a\":1}\nnot json\n";
        assert!(JobConfig::new().build().run_ndjson(bad.as_bytes()).is_err());
    }

    #[test]
    fn map_paths_agree_on_every_source_shape() {
        let data = as_ndjson(&values());
        let via_events = JobConfig::new()
            .map_path(MapPath::Events)
            .build()
            .run_ndjson(data.as_bytes())
            .unwrap();
        let via_values = JobConfig::new()
            .map_path(MapPath::Values)
            .build()
            .run_ndjson(data.as_bytes())
            .unwrap();
        let in_memory = SchemaJob::new().run_values(values());
        assert_eq!(via_events.schema, via_values.schema);
        assert_eq!(via_events.schema, in_memory.schema);
        assert_eq!(via_events.records, 4);
        assert_eq!(via_events.type_stats, via_values.type_stats);
    }

    #[test]
    fn events_path_errors_carry_line_numbers() {
        let bad = "{\"a\":1}\n\n{broken\n";
        let err = SchemaJob::new().run_ndjson(bad.as_bytes()).unwrap_err();
        match err {
            Error::Parse(e) => assert_eq!(e.span().start.line, 3),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn events_path_reports_earliest_bad_line() {
        let bad = "{\"ok\":1}\n{bad1\n{\"ok\":2}\n{bad2\n";
        let err = JobConfig::new()
            .partitions(4)
            .build()
            .run_ndjson(bad.as_bytes())
            .unwrap_err();
        assert_eq!(err.span().unwrap().start.line, 2);
    }

    #[test]
    fn recorded_run_produces_a_full_report() {
        let rec = Recorder::enabled();
        let r = JobConfig::new()
            .partitions(2)
            .recorder(rec.clone())
            .build()
            .run_values(values());
        let report = r.run_report(&rec);

        assert_eq!(report.counters["records"], 4);
        assert_eq!(report.counters["infer.types"], 4);
        // 4 records in 2 partitions: 2 fuses in the local folds, then 1
        // combining the two partials.
        assert_eq!(report.counters["fuse.calls"], 3);
        assert_eq!(report.histograms["fuse.union_width"].count, 3);
        assert_eq!(report.histograms["infer.record_width"].count, 4);
        assert!(report.gauges["infer.max_depth"] >= 2);
        assert!(report.spans.contains_key("pipeline.map"));
        assert!(report.spans.contains_key("pipeline.reduce"));
        assert!(report.spans.contains_key("reduce.level.0"));

        let names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["map", "reduce.local_fold"]);
        for stage in &report.stages {
            assert_eq!(stage.tasks.len(), 2, "one task per partition");
        }
        assert!(report.values.contains_key("wall_seconds"));

        // The report serializes, and the trace is non-empty Chrome JSON.
        let json = report.to_json();
        assert!(json.contains("\"fuse.calls\""));
        assert!(rec.chrome_trace_json().contains("\"traceEvents\""));
    }

    #[test]
    fn recorded_events_run_mirrors_the_value_report() {
        let data = as_ndjson(&values());
        let rec = Recorder::enabled();
        let r = JobConfig::new()
            .partitions(2)
            .recorder(rec.clone())
            .build()
            .run_ndjson(data.as_bytes())
            .unwrap();
        let report = r.run_report(&rec);
        // Same Map/Reduce metric names as the tree route...
        assert_eq!(report.counters["records"], 4);
        assert_eq!(report.counters["infer.types"], 4);
        // ...but one worker folds all four records (one slab), so the
        // third `{a: Num, b: Str}` is counted, not fused (cap-2 rule).
        assert_eq!(report.counters["fuse.calls"], 2);
        assert_eq!(report.counters["fuse.saturated"], 1);
        assert_eq!(report.histograms["infer.record_width"].count, 4);
        // ...plus the event-fold extras.
        assert!(report.counters["infer.events"] > 0);
        assert_eq!(report.histograms["infer.frames"].count, 4);
        assert!(report.spans.contains_key("pipeline.read"));
        let names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["map", "reduce.local_fold"]);
    }

    #[test]
    fn disabled_recorder_report_still_has_stages_and_records() {
        let r = JobConfig::new().partitions(2).build().run_values(values());
        let report = r.run_report(&Recorder::disabled());
        assert_eq!(report.counters["records"], 4);
        assert_eq!(report.stages.len(), 2);
        assert!(report.histograms.is_empty());
    }

    #[test]
    fn recorded_ndjson_counts_io() {
        let data = "{\"a\":1}\n{\"a\":\"x\"}\n";
        for path in [MapPath::Events, MapPath::Values] {
            let rec = Recorder::enabled();
            let r = JobConfig::new()
                .map_path(path)
                .recorder(rec.clone())
                .build()
                .run_ndjson(data.as_bytes())
                .unwrap();
            let report = r.run_report(&rec);
            assert_eq!(report.counters["json.bytes"], data.len() as u64, "{path:?}");
            assert_eq!(report.counters["json.lines"], 2, "{path:?}");
            assert_eq!(report.counters["json.records"], 2, "{path:?}");
            assert!(report.spans.contains_key("pipeline.read"), "{path:?}");
        }
    }

    #[test]
    fn profiled_run_matches_plain_schema_and_counts() {
        let data = as_ndjson(&values());
        let plain = SchemaJob::new().run_ndjson(data.as_bytes()).unwrap();
        let profiled = SchemaJob::new()
            .run_profiled(Source::ndjson(data.as_bytes()))
            .unwrap();
        assert_eq!(profiled.profile.schema, plain.schema);
        assert_eq!(profiled.records, 4);
        let a = profiled.profile.get("$.a").unwrap();
        assert_eq!(a.count, 4);
        // b is present at lines 1, 2 and 4; line 3 demoted it.
        let b = profiled.profile.get("$.b").unwrap();
        assert_eq!(b.count, 3);
        assert_eq!(b.first_absent_line, Some(3));
        // c's Array branch was introduced at line 3.
        let c = profiled.profile.get("$.c").unwrap();
        assert_eq!(c.first_line(), Some(3));
    }

    #[test]
    fn profiled_run_is_invariant_across_workers_partitions_and_routes() {
        let data = as_ndjson(&values());
        let baseline = JobConfig::new()
            .workers(1)
            .partitions(1)
            .build()
            .run_profiled(Source::ndjson(data.as_bytes()))
            .unwrap()
            .profile;
        let baseline_json = baseline.to_json();
        for workers in [1, 4] {
            for parts in [1, 3, 7] {
                for path in [MapPath::Events, MapPath::Values] {
                    for plan in [ReducePlan::Sequential, ReducePlan::Tree { arity: 2 }] {
                        let p = JobConfig::new()
                            .workers(workers)
                            .partitions(parts)
                            .map_path(path)
                            .reduce_plan(plan)
                            .build()
                            .run_profiled(Source::ndjson(data.as_bytes()))
                            .unwrap()
                            .profile;
                        assert_eq!(p, baseline, "{workers}w {parts}p {path:?} {plan:?}");
                        assert_eq!(p.to_json(), baseline_json);
                    }
                }
            }
        }
        // In-memory sources number records by ordinal, matching the
        // NDJSON line numbers of the same records.
        let via_values = JobConfig::new()
            .build()
            .run_profiled(Source::values(values()))
            .unwrap()
            .profile;
        assert_eq!(via_values.to_json(), baseline_json);
        let dataset = Dataset::from_vec(values(), 3);
        let via_dataset = JobConfig::new()
            .build()
            .run_profiled(Source::dataset(&dataset))
            .unwrap()
            .profile;
        assert_eq!(via_dataset.to_json(), baseline_json);
    }

    #[test]
    fn profiled_run_reports_earliest_bad_line() {
        let bad = "{\"ok\":1}\n{bad1\n{\"ok\":2}\n{bad2\n";
        for path in [MapPath::Events, MapPath::Values] {
            let err = JobConfig::new()
                .partitions(4)
                .map_path(path)
                .build()
                .run_profiled(Source::ndjson(bad.as_bytes()))
                .unwrap_err();
            assert_eq!(err.span().unwrap().start.line, 2, "{path:?}");
        }
    }

    #[test]
    fn profiled_run_report_has_fold_stage() {
        let rec = Recorder::enabled();
        let r = JobConfig::new()
            .partitions(2)
            .recorder(rec.clone())
            .build()
            .run_profiled(Source::values(values()))
            .unwrap();
        let report = r.run_report(&rec);
        assert_eq!(report.counters["records"], 4);
        let names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["profile.local_fold"]);
        assert!(report.spans.contains_key("pipeline.profile"));
        assert_eq!(
            report.values["profiled_paths"], 5.0,
            "$, $.a, $.b, $.c, $.c[]"
        );
    }

    #[test]
    fn saturated_fold_agrees_byte_for_byte() {
        // Enough repetition that the cap-2 rule skips most records, with
        // an array-bearing record so positional-array collapse is
        // exercised.
        let vals: Vec<Value> = values().into_iter().cycle().take(200).collect();
        let data = as_ndjson(&vals);
        let types: Vec<Type> = vals.iter().map(typefuse_infer::infer_type).collect();
        let spec = typefuse_infer::fuse_all(&types).to_string();
        for path in [MapPath::Events, MapPath::Values, MapPath::Shape] {
            for workers in [1, 4] {
                let r = JobConfig::new()
                    .map_path(path)
                    .workers(workers)
                    .build()
                    .run_ndjson(data.as_bytes())
                    .unwrap();
                assert_eq!(r.schema.to_string(), spec, "{path:?} {workers}w");
                assert_eq!(r.records, 200);
            }
        }
        for parts in [1, 3] {
            let r = JobConfig::new()
                .partitions(parts)
                .build()
                .run_values(vals.clone());
            assert_eq!(r.schema.to_string(), spec, "{parts} partitions");
        }
    }

    #[test]
    fn auto_picks_dedup_on_redundant_streams_only() {
        // 200 records, 2 distinct shapes → redundant.
        let redundant: Vec<Type> = values()
            .iter()
            .cycle()
            .take(200)
            .map(typefuse_infer::infer_type)
            .collect();
        assert!(dedup_auto_sample(
            redundant.iter().take(2).chain(&redundant)
        ));
        // Tiny inputs never count as redundant.
        assert!(!dedup_auto_sample(redundant.iter().take(10)));
        // Every shape unique → not redundant.
        let unique: Vec<Type> = (0..100)
            .map(|i| {
                let v = typefuse_json::parse_value(&format!("{{\"k{i}\": {i}}}")).unwrap();
                typefuse_infer::infer_type(&v)
            })
            .collect();
        assert!(!dedup_auto_sample(unique.iter()));
    }

    #[test]
    fn saturated_run_reports_fuse_and_saturation_counters() {
        let vals: Vec<Value> = values().into_iter().cycle().take(200).collect();
        let rec = Recorder::enabled();
        let r = JobConfig::new()
            .partitions(2)
            .recorder(rec.clone())
            .build()
            .run_values(vals);
        let report = r.run_report(&rec);
        assert_eq!(report.counters["records"], 200);
        // Each partition moves its first type into ε and then either
        // fuses or skips every record; one merge joins the partials.
        let (calls, saturated) = (
            report.counters["fuse.calls"],
            report.counters["fuse.saturated"],
        );
        assert_eq!(calls + saturated, 199);
        // Two distinct types, fused at most twice per partition.
        assert!(calls <= 2 * 2 * 2 + 1, "{calls} fusions");
        for gone in ["infer.dedup", "infer.distinct_shapes", "fuse.cache_hits"] {
            assert!(!report.counters.contains_key(gone), "{gone}");
        }
        assert!(report.spans.contains_key("pipeline.reduce"));
    }

    #[test]
    fn without_stats_still_fuses() {
        let r = JobConfig::new()
            .without_type_stats()
            .build()
            .run_values(values());
        assert_eq!(r.type_stats.distinct, 0);
        assert_eq!(
            r.schema.to_string(),
            "{a: Null + Num, b: Str?, c: [Num, Num]?}"
        );
    }
}
