//! The streaming experiment runner: generate → infer → fuse, partition by
//! partition, at paper scale.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use typefuse::pipeline::MapPath;
use typefuse_datagen::{DatasetProfile, Profile};
use typefuse_engine::{ReducePlan, Runtime};
use typefuse_infer::{
    fuse_into, fuse_with, infer_type, streaming, DedupAcc, FuseConfig, ShapeCache,
};
use typefuse_json::ParserOptions;
use typefuse_obs::Recorder;
use typefuse_types::Type;

/// Configuration of one scale run.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Dataset profile to generate.
    pub profile: Profile,
    /// Generator seed.
    pub seed: u64,
    /// Number of records.
    pub records: u64,
    /// Number of partitions (each processed as one streamed task).
    pub partitions: usize,
    /// Worker threads.
    pub workers: usize,
    /// Fusion configuration.
    pub fuse_config: FuseConfig,
    /// Map route. The runner generates value trees natively, so
    /// [`MapPath::Values`] (the default here) infers them directly;
    /// [`MapPath::Events`] serializes each record and folds the token
    /// stream instead, timing the full text-to-type route — this is
    /// what the `value_vs_events` bench compares.
    pub map_path: MapPath,
    /// Also serialize every record to count dataset bytes (Table 1).
    /// Costs roughly as much as parsing; off for the type-statistics
    /// tables.
    pub measure_bytes: bool,
    /// Reduce over distinct shapes only (hash-consed interning plus
    /// memoized fusion) instead of fusing every record's type. The
    /// schema is byte-identical either way; the fuse-time columns show
    /// the dedup speedup.
    pub dedup: bool,
}

impl ScaleConfig {
    /// Defaults for a profile at a record count.
    pub fn new(profile: Profile, records: u64) -> Self {
        let workers = typefuse_engine::runtime::available_workers();
        ScaleConfig {
            profile,
            seed: 20170321,
            records,
            partitions: (workers * 4).max(1),
            workers,
            fuse_config: FuseConfig::default(),
            map_path: MapPath::Values,
            measure_bytes: false,
            dedup: false,
        }
    }

    /// Builder: set the Map route (see [`ScaleConfig::map_path`]).
    pub fn map_path(mut self, path: MapPath) -> Self {
        self.map_path = path;
        self
    }

    /// Builder: set the worker count (and leave partitions to the caller).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Builder: set the partition count.
    pub fn partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions.max(1);
        self
    }

    /// Builder: measure serialized bytes too.
    pub fn measure_bytes(mut self) -> Self {
        self.measure_bytes = true;
        self
    }

    /// Builder: reduce over distinct shapes (see [`ScaleConfig::dedup`]).
    pub fn dedup(mut self) -> Self {
        self.dedup = true;
        self
    }

    /// Builder: adopt the shared [`typefuse::JobConfig`] knobs — one
    /// configuration surface for the pipeline, the daemon and the
    /// bench matrix. `None` workers/partitions keep this config's
    /// derived defaults; [`ScaleConfig::dedup`] is the matrix's own
    /// axis and stays as it is.
    pub fn with_job_config(mut self, job: &typefuse::JobConfig) -> Self {
        if let Some(w) = job.workers {
            self.workers = w.max(1);
        }
        if let Some(p) = job.partitions {
            self.partitions = p.max(1);
        }
        self.map_path = job.map_path;
        self.fuse_config = job.fuse_config;
        self
    }
}

/// Per-partition accumulator: everything Tables 2–8 need, O(1) memory in
/// the partition length (plus the distinct-hash set).
#[derive(Debug, Clone)]
struct PartitionAcc {
    records: u64,
    bytes: u64,
    distinct_hashes: HashSet<u64>,
    min_size: usize,
    max_size: usize,
    size_sum: u64,
    schema: SchemaAcc,
    infer_time: Duration,
    fuse_time: Duration,
}

impl PartitionAcc {
    fn empty(dedup: bool) -> Self {
        PartitionAcc {
            records: 0,
            bytes: 0,
            distinct_hashes: HashSet::new(),
            min_size: usize::MAX,
            max_size: 0,
            size_sum: 0,
            schema: if dedup {
                SchemaAcc::Dedup(Box::new(DedupAcc::new()))
            } else {
                SchemaAcc::Plain(Type::Bottom)
            },
            infer_time: Duration::ZERO,
            fuse_time: Duration::ZERO,
        }
    }
}

/// The per-partition reduce state: the plain running fold, or the
/// shape-dedup accumulator (interner + per-shape counts + memo cache).
#[derive(Debug, Clone)]
enum SchemaAcc {
    Plain(Type),
    Dedup(Box<DedupAcc>),
}

impl SchemaAcc {
    fn absorb(&mut self, cfg: FuseConfig, ty: &Type) {
        match self {
            SchemaAcc::Plain(schema) => fuse_into(cfg, schema, ty),
            SchemaAcc::Dedup(acc) => acc.absorb_type(cfg, ty),
        }
    }

    fn merge(&mut self, cfg: FuseConfig, other: &SchemaAcc) {
        match (self, other) {
            (SchemaAcc::Plain(mine), SchemaAcc::Plain(theirs)) => {
                *mine = fuse_with(cfg, mine, theirs);
            }
            (SchemaAcc::Dedup(mine), SchemaAcc::Dedup(theirs)) => mine.merge(cfg, theirs),
            _ => unreachable!("every partition uses the run's reduce strategy"),
        }
    }

    fn schema(&self) -> Type {
        match self {
            SchemaAcc::Plain(schema) => schema.clone(),
            SchemaAcc::Dedup(acc) => acc.schema(),
        }
    }
}

/// The outcome of a scale run — one row of Tables 2–5 plus the timing
/// columns of Table 6 and the byte column of Table 1.
#[derive(Debug, Clone)]
pub struct ScaleResult {
    /// Worker threads the run was configured with.
    pub workers: usize,
    /// Records processed.
    pub records: u64,
    /// Serialized dataset size in bytes (0 unless `measure_bytes`).
    pub bytes: u64,
    /// Number of distinct inferred types (hash-based, collision odds
    /// ≈ n²/2⁶⁴ — irrelevant at 10⁶ records).
    pub distinct_types: usize,
    /// Minimum inferred type size.
    pub min_size: usize,
    /// Maximum inferred type size.
    pub max_size: usize,
    /// Mean inferred type size.
    pub avg_size: f64,
    /// Size of the fused type.
    pub fused_size: usize,
    /// The fused schema itself.
    pub schema: Type,
    /// CPU time spent generating + inferring (summed over partitions).
    pub infer_cpu: Duration,
    /// CPU time spent fusing (summed over partitions).
    pub fuse_cpu: Duration,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Per-partition `(records, distinct, wall)` — the Table 8 rows.
    pub partition_rows: Vec<(u64, usize, Duration)>,
    /// Per-partition `(infer, fuse)` CPU time, index-aligned with
    /// `partition_rows` — the per-stage rollup inputs.
    pub partition_cpu: Vec<(Duration, Duration)>,
    /// The real task timings from the thread pool: per-task queue wait,
    /// execute time and worker id, measured by the [`Runtime`].
    pub stage: typefuse_obs::StageReport,
}

impl ScaleResult {
    /// Fused size over average inferred size — the paper's succinctness
    /// ratio.
    pub fn compaction_ratio(&self) -> f64 {
        if self.avg_size == 0.0 {
            0.0
        } else {
            self.fused_size as f64 / self.avg_size
        }
    }

    /// Per-worker utilization of the partition stage, reconstructed
    /// from the pool's real task timings (queue wait doubles as the
    /// start offset, so busy intervals need no extra plumbing).
    pub fn utilization(&self) -> typefuse_obs::UtilizationReport {
        typefuse_obs::UtilizationReport::from_stage(&self.stage, self.workers)
    }

    /// Per-partition duration rollups as log₂ histograms, keyed by
    /// stage name: `partition.execute_ns` / `partition.queue_wait_ns`
    /// from the pool's task timings, `partition.infer_ns` /
    /// `partition.fuse_ns` from the runner's own CPU clocks. Quantiles
    /// (p50/p90/p99) come out of the histogram report.
    pub fn stage_histograms(
        &self,
    ) -> std::collections::BTreeMap<String, typefuse_obs::HistogramReport> {
        use typefuse_obs::LogHistogram;
        let mut execute = LogHistogram::new();
        let mut wait = LogHistogram::new();
        for task in &self.stage.tasks {
            execute.record(task.execute_ns);
            wait.record(task.queue_wait_ns);
        }
        let mut infer = LogHistogram::new();
        let mut fuse = LogHistogram::new();
        for (i, f) in &self.partition_cpu {
            infer.record(i.as_nanos() as u64);
            fuse.record(f.as_nanos() as u64);
        }
        let mut out = std::collections::BTreeMap::new();
        out.insert("partition.execute_ns".to_string(), execute.report());
        out.insert("partition.queue_wait_ns".to_string(), wait.report());
        out.insert("partition.infer_ns".to_string(), infer.report());
        out.insert("partition.fuse_ns".to_string(), fuse.report());
        out
    }

    /// Convert to the same [`typefuse_obs::RunReport`] struct the CLI's
    /// `--metrics-json` emits, so bench output and pipeline output can
    /// be diffed or post-processed with the same tooling. The
    /// `partitions` stage carries the pool's real task timings (queue
    /// wait, execute, worker id), and the per-partition duration
    /// histograms ride along for quantile rollups.
    pub fn run_report(&self) -> typefuse_obs::RunReport {
        let mut report = typefuse_obs::RunReport::default();
        report.counters.insert("records".to_string(), self.records);
        if self.bytes > 0 {
            report.counters.insert("json.bytes".to_string(), self.bytes);
        }
        report.stages.push(self.stage.clone());
        report.histograms = self.stage_histograms();
        let values = [
            ("distinct_types", self.distinct_types as f64),
            ("min_size", self.min_size as f64),
            ("max_size", self.max_size as f64),
            ("avg_size", self.avg_size),
            ("fused_size", self.fused_size as f64),
            ("compaction_ratio", self.compaction_ratio()),
            ("infer_cpu_seconds", self.infer_cpu.as_secs_f64()),
            ("fuse_cpu_seconds", self.fuse_cpu.as_secs_f64()),
            ("wall_seconds", self.wall.as_secs_f64()),
        ];
        for (k, v) in values {
            report.values.insert(k.to_string(), v);
        }
        report
            .meta
            .insert("schema".to_string(), self.schema.to_string());
        report
    }
}

fn type_hash(t: &Type) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// Run one experiment: stream `records` records of `profile` through
/// inference and fusion across `partitions` parallel partitions.
pub fn run_scale(config: &ScaleConfig) -> ScaleResult {
    let runtime = Runtime::new(config.workers);
    let wall_start = Instant::now();

    // Partition index ranges (contiguous, like HDFS splits).
    let per_part = config.records / config.partitions as u64;
    let remainder = config.records % config.partitions as u64;
    let ranges: Vec<(u64, u64)> = (0..config.partitions as u64)
        .map(|p| {
            let extra = p.min(remainder);
            let start = p * per_part + extra;
            let len = per_part + u64::from(p < remainder);
            (start, start + len)
        })
        .collect();

    let cfg = config.fuse_config;
    let (accs, metrics) = runtime.run_indexed(&ranges, |_, &(start, end)| {
        let mut acc = PartitionAcc::empty(config.dedup);
        // Partition-local signature cache for the shape route, warm for
        // the whole range — the deployment shape of `MapPath::Shape`.
        let mut shape_cache = ShapeCache::new();
        let shape_opts = ParserOptions::default();
        let shape_rec = Recorder::disabled();
        for index in start..end {
            let value = config.profile.record(config.seed, index);
            let owned;
            let ty: &Type = match config.map_path {
                MapPath::Values => {
                    if config.measure_bytes {
                        acc.bytes += typefuse_json::to_string(&value).len() as u64 + 1;
                    }
                    let t0 = Instant::now();
                    owned = infer_type(&value);
                    acc.infer_time += t0.elapsed();
                    &owned
                }
                MapPath::Events => {
                    // Serialization is setup, not measurement: the timed
                    // section is the text-to-type fold (tokenize + infer),
                    // the work an NDJSON ingest would do per line.
                    let line = typefuse_json::to_string(&value);
                    if config.measure_bytes {
                        acc.bytes += line.len() as u64 + 1;
                    }
                    let t0 = Instant::now();
                    owned = streaming::infer_type_from_str(&line)
                        .expect("generated records serialize to valid JSON");
                    acc.infer_time += t0.elapsed();
                    &owned
                }
                MapPath::Shape => {
                    // Same text input as the events route; the timed
                    // section is signature + cache lookup, with misses
                    // replaying the event fold. A hit hands out the
                    // cached type by reference — everything downstream
                    // (stats, fusion) absorbs by reference, so a hit
                    // materializes nothing.
                    let line = typefuse_json::to_string(&value);
                    if config.measure_bytes {
                        acc.bytes += line.len() as u64 + 1;
                    }
                    let t0 = Instant::now();
                    let ty = shape_cache
                        .infer_line_ref(line.as_bytes(), &shape_opts, &shape_rec)
                        .expect("generated records serialize to valid JSON");
                    acc.infer_time += t0.elapsed();
                    ty
                }
            };

            let size = ty.size();
            acc.min_size = acc.min_size.min(size);
            acc.max_size = acc.max_size.max(size);
            acc.size_sum += size as u64;
            acc.distinct_hashes.insert(type_hash(ty));
            acc.records += 1;

            let t1 = Instant::now();
            acc.schema.absorb(cfg, ty);
            acc.fuse_time += t1.elapsed();
        }
        acc
    });

    // Per-partition rows before merging (Table 8).
    let partition_rows: Vec<(u64, usize, Duration)> = accs
        .iter()
        .map(|a| {
            (
                a.records,
                a.distinct_hashes.len(),
                a.infer_time + a.fuse_time,
            )
        })
        .collect();
    let partition_cpu: Vec<(Duration, Duration)> =
        accs.iter().map(|a| (a.infer_time, a.fuse_time)).collect();
    let stage = metrics.stage_report("partitions");

    // Merge: distinct sets union, min/max/sum fold, schemas fuse (the
    // cheap final step the paper highlights).
    let mut merged = PartitionAcc::empty(config.dedup);
    for acc in accs {
        merged.records += acc.records;
        merged.bytes += acc.bytes;
        merged.min_size = merged.min_size.min(acc.min_size);
        merged.max_size = merged.max_size.max(acc.max_size);
        merged.size_sum += acc.size_sum;
        merged.distinct_hashes.extend(&acc.distinct_hashes);
        merged.infer_time += acc.infer_time;
        merged.fuse_time += acc.fuse_time;
        let t = Instant::now();
        merged.schema.merge(cfg, &acc.schema);
        merged.fuse_time += t.elapsed();
    }
    let _ = ReducePlan::default(); // topology ablations live in the benches

    let schema = merged.schema.schema();
    ScaleResult {
        workers: config.workers.max(1),
        records: merged.records,
        bytes: merged.bytes,
        distinct_types: merged.distinct_hashes.len(),
        min_size: if merged.records == 0 {
            0
        } else {
            merged.min_size
        },
        max_size: merged.max_size,
        avg_size: if merged.records == 0 {
            0.0
        } else {
            merged.size_sum as f64 / merged.records as f64
        },
        fused_size: schema.size(),
        schema,
        infer_cpu: merged.infer_time,
        fuse_cpu: merged.fuse_time,
        wall: wall_start.elapsed(),
        partition_rows,
        partition_cpu,
        stage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_matches_materialised_pipeline() {
        let n = 300u64;
        let streamed = run_scale(&ScaleConfig::new(Profile::Twitter, n).partitions(4));
        let values: Vec<_> = Profile::Twitter.generate(20170321, n as usize).collect();
        let materialised = typefuse::pipeline::SchemaJob::new().run_values(values);
        assert_eq!(streamed.schema, materialised.schema);
        assert_eq!(streamed.records, n);
        assert_eq!(streamed.distinct_types, materialised.type_stats.distinct);
        assert_eq!(streamed.min_size, materialised.type_stats.min_size);
        assert_eq!(streamed.max_size, materialised.type_stats.max_size);
        assert!((streamed.avg_size - materialised.type_stats.avg_size).abs() < 1e-9);
    }

    #[test]
    fn event_route_matches_value_route() {
        for profile in [Profile::GitHub, Profile::NYTimes] {
            let via_values = run_scale(&ScaleConfig::new(profile, 150).partitions(5));
            let via_events = run_scale(
                &ScaleConfig::new(profile, 150)
                    .partitions(5)
                    .map_path(MapPath::Events),
            );
            assert_eq!(via_events.schema, via_values.schema, "{profile}");
            assert_eq!(via_events.distinct_types, via_values.distinct_types);
            assert_eq!(via_events.records, via_values.records);
        }
    }

    #[test]
    fn dedup_reduce_matches_plain_reduce() {
        for profile in Profile::ALL {
            let plain = run_scale(&ScaleConfig::new(profile, 200).partitions(5));
            let dedup = run_scale(&ScaleConfig::new(profile, 200).partitions(5).dedup());
            assert_eq!(dedup.schema, plain.schema, "{profile}");
            assert_eq!(dedup.records, plain.records);
            assert_eq!(dedup.distinct_types, plain.distinct_types);
            assert_eq!(dedup.fused_size, plain.fused_size);
        }
    }

    #[test]
    fn partition_rows_sum_to_total() {
        let r = run_scale(&ScaleConfig::new(Profile::GitHub, 100).partitions(7));
        assert_eq!(r.partition_rows.len(), 7);
        let total: u64 = r.partition_rows.iter().map(|(n, _, _)| n).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn bytes_only_when_requested() {
        let without = run_scale(&ScaleConfig::new(Profile::GitHub, 20));
        assert_eq!(without.bytes, 0);
        let with = run_scale(&ScaleConfig::new(Profile::GitHub, 20).measure_bytes());
        assert!(with.bytes > 10_000, "bytes = {}", with.bytes);
    }

    #[test]
    fn zero_records() {
        let r = run_scale(&ScaleConfig::new(Profile::NYTimes, 0));
        assert_eq!(r.records, 0);
        assert_eq!(r.fused_size, 1, "ε has size 1");
        assert_eq!(r.distinct_types, 0);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let a = run_scale(
            &ScaleConfig::new(Profile::Wikidata, 120)
                .workers(1)
                .partitions(6),
        );
        let b = run_scale(
            &ScaleConfig::new(Profile::Wikidata, 120)
                .workers(4)
                .partitions(6),
        );
        assert_eq!(a.schema, b.schema);
        assert_eq!(a.distinct_types, b.distinct_types);
    }

    #[test]
    fn run_report_mirrors_the_result() {
        let r = run_scale(
            &ScaleConfig::new(Profile::GitHub, 50)
                .partitions(4)
                .measure_bytes(),
        );
        let report = r.run_report();
        assert_eq!(report.counters["records"], 50);
        assert_eq!(report.counters["json.bytes"], r.bytes);
        assert_eq!(report.stages.len(), 1);
        assert_eq!(report.stages[0].name, "partitions");
        assert_eq!(report.stages[0].tasks.len(), 4);
        assert_eq!(report.histograms["partition.execute_ns"].count, 4);
        assert_eq!(report.histograms["partition.infer_ns"].count, 4);
        assert_eq!(report.values["fused_size"], r.fused_size as f64);
        assert_eq!(report.meta["schema"], r.schema.to_string());
        // Same shape as the pipeline's report: serializes with the
        // standard top-level keys.
        let json = report.to_json();
        for key in ["\"counters\"", "\"stages\"", "\"values\"", "\"meta\""] {
            assert!(json.contains(key), "missing {key}");
        }
    }

    #[test]
    fn stage_metrics_cover_every_partition_worker() {
        let r = run_scale(
            &ScaleConfig::new(Profile::Twitter, 200)
                .workers(3)
                .partitions(8),
        );
        assert_eq!(r.workers, 3);
        assert_eq!(r.stage.tasks.len(), 8);
        for task in &r.stage.tasks {
            assert!(task.worker < 3, "worker {} out of pool", task.worker);
            assert!(task.execute_ns > 0);
        }
        let u = r.utilization();
        assert_eq!(u.workers.len(), 3);
        assert_eq!(u.workers.iter().map(|w| w.tasks).sum::<u64>(), 8);
        // Each worker's busy intervals are disjoint, so its busy time
        // is bounded by the stage wall (the makespan consistency the
        // BENCH trajectory property-tests at scale).
        for w in &u.workers {
            assert!(
                w.busy_ns <= u.wall_ns,
                "worker {} busy {} > wall {}",
                w.worker,
                w.busy_ns,
                u.wall_ns
            );
        }
    }

    #[test]
    fn uneven_partitioning_covers_every_record() {
        // 10 records over 3 partitions: 4+3+3.
        let r = run_scale(&ScaleConfig::new(Profile::GitHub, 10).partitions(3));
        let sizes: Vec<u64> = r.partition_rows.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }
}
