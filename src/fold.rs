//! The one bounded-memory fold behind every text-input run.
//!
//! Fusion is commutative and associative (Theorems 5.4/5.5), so the
//! schema does not depend on which worker folds which record. Every
//! NDJSON run of [`SchemaJob::run`] and [`SchemaJob::run_profiled`] —
//! file or stdin, plain or profiled, any error policy — is therefore
//! one streaming pass:
//!
//! * **Reader.** The calling thread cuts the stream into newline-aligned
//!   *slabs* of about [`SLAB_BYTES`], each tagged with its first line
//!   number. It applies the retry policy and the line-size guard and
//!   counts `json.bytes` / `json.lines`.
//! * **Workers.** `workers` threads take slabs from a bounded queue and
//!   route every record through the job's [`MapPath`] into one
//!   accumulator: the schema fuser (plain or dedup) or a [`ProfileAcc`],
//!   plus an [`ErrorReport`] and the `--stats` tally.
//! * **Merge.** The workers' accumulators merge once at the end, and the
//!   error policy judges the merged report.
//!
//! Memory is bounded by (workers + queue depth + 1) slabs plus the
//! per-distinct-type state of the accumulators, whatever the input size.
//! Bad records are anchored at their 1-based input line, so output and
//! errors are byte-identical for every worker count.
//!
//! Every line goes through one public [`step`]: UTF-8 and line-guard
//! classification, trimming, the record fold, and the bad record. The
//! batch workers call it per slab line; `typefuse serve` calls it per
//! tailed line into one [`ProfileAcc`] per source ([`profile_acc`],
//! [`absorb_profile`]), so a daemon's fold is the batch fold applied
//! one append at a time.
//!
//! [`SchemaJob::run`]: crate::pipeline::SchemaJob::run
//! [`SchemaJob::run_profiled`]: crate::pipeline::SchemaJob::run_profiled

use std::collections::HashSet;
use std::io::BufRead;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::error::{Error, IoSite};
use crate::faults::{BadRecord, ErrorReport};
use crate::pipeline::{DedupMode, DedupSampler, MapPath, SchemaJob, TypeStats};
use typefuse_engine::{panic_message, StageMetrics, TaskMetrics, WorkerPanic};
use typefuse_infer::{
    infer_type_recorded, streaming, DedupAcc, Fuser, ProfileAcc, RecordedFuser, ShapeCache,
};
use typefuse_json::ndjson::read_line_bounded;
use typefuse_json::{ErrorKind, Parser, Position};
use typefuse_types::Type;

/// Slab size: the reader hands a slab to the workers once its line
/// contents and line index reach this many bytes (a longer line makes
/// one larger slab).
const SLAB_BYTES: usize = 1 << 20;

/// Queued slabs per worker: enough to keep workers busy while the
/// reader fills the next one.
const QUEUE_PER_WORKER: usize = 2;

/// What a text run folds its records into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Target {
    /// The fused schema ([`SchemaJob::run`]).
    Schema,
    /// The per-path profile ([`SchemaJob::run_profiled`]).
    Profile,
}

/// The merged outcome of a fold, before the error policy runs.
pub(crate) struct Folded {
    /// The merged accumulator.
    pub(crate) acc: Acc,
    /// Every bad record, merged.
    pub(crate) errors: ErrorReport,
    /// The `--stats` columns (default when the job does not collect them).
    pub(crate) type_stats: TypeStats,
    /// Records folded.
    pub(crate) records: u64,
    /// Slabs the reader cut.
    pub(crate) slabs: usize,
    /// One task per worker: its busy time and start offset.
    pub(crate) fold_metrics: StageMetrics,
    /// The final merge, as one task.
    pub(crate) merge_metrics: StageMetrics,
}

/// A worker's accumulator.
pub(crate) enum Acc {
    /// Figure 6 fusion into a bare type.
    Plain(Type),
    /// The shape-dedup route (hash-consed, memoized fusion).
    Dedup(DedupAcc),
    /// The profiled route.
    Profile(ProfileAcc),
}

/// A run of consecutive input lines.
struct Slab {
    /// Position in the input, counting from 0.
    index: usize,
    /// 1-based number of the first line.
    first_line: u64,
    /// The lines' contents, back to back, without their newlines.
    text: Vec<u8>,
    /// Per line: where its content ends in `text`, and whether the
    /// line-size guard cut it short.
    lines: Vec<(usize, bool)>,
}

impl Slab {
    /// An empty slab with room for `bytes` of line contents.
    fn new(index: usize, first_line: u64, bytes: usize) -> Slab {
        Slab {
            index,
            first_line,
            text: Vec::with_capacity(bytes),
            lines: Vec::new(),
        }
    }

    fn bytes(&self) -> usize {
        self.text.len() + self.lines.len() * std::mem::size_of::<(usize, bool)>()
    }
}

/// What [`step`] made of one input line.
#[derive(Debug)]
pub enum Step {
    /// Whitespace only: not a record.
    Blank,
    /// A record, folded into the accumulator.
    Folded,
    /// A bad record, anchored at its input line.
    Bad(BadRecord),
}

/// The per-line step every fold runs, batch workers and serve sources
/// alike, so both judge a line the same way.
///
/// `raw` is the line's content without its newline and `truncated`
/// says whether the job's line-size guard cut it. An oversized or
/// non-UTF-8 line is a bad record, not a dead stream; a blank one is
/// skipped. Any other line is trimmed and handed to `absorb`, whose
/// failure is re-anchored at input line `line`. A bad record keeps its
/// text when the job's error policy does.
#[inline]
pub fn step(
    job: &SchemaJob,
    line: u64,
    raw: &[u8],
    truncated: bool,
    absorb: impl FnOnce(&str) -> typefuse_json::Result<()>,
) -> Step {
    let text = match std::str::from_utf8(raw) {
        Ok(text) if !truncated => match text.trim() {
            "" => return Step::Blank,
            text => Some(text),
        },
        _ => None,
    };
    if job.chaos_panic_at.map(u64::from) == Some(line) {
        panic!("injected chaos panic at line {line}");
    }
    let error = match text {
        Some(text) => match absorb(text) {
            Ok(()) => return Step::Folded,
            Err(e) => {
                let mut pos = e.span().start;
                pos.line = line as u32;
                typefuse_json::Error::at(e.kind().clone(), pos)
            }
        },
        None => {
            let kind = if truncated {
                ErrorKind::RecordTooLarge(job.max_line_bytes.unwrap_or(usize::MAX))
            } else {
                ErrorKind::InvalidUtf8
            };
            let pos = Position {
                offset: 0,
                line: line as u32,
                column: 1,
            };
            typefuse_json::Error::at(kind, pos)
        }
    };
    Step::Bad(BadRecord {
        at: line,
        error,
        text: job.error_policy.keeps_text().then(|| match text {
            Some(text) => text.to_string(),
            None => String::from_utf8_lossy(raw).into_owned(),
        }),
    })
}

/// An empty profile accumulator under the job's fuse config and parser
/// options.
pub fn profile_acc(job: &SchemaJob) -> ProfileAcc {
    ProfileAcc::with_config(job.fuse_config).with_parser_options(job.parser_options.clone())
}

/// Fold one record's text, read at input line `line`, into a profile
/// through the job's map path; returns the record's type. Profiling
/// observes every value, so the shape route cannot shortcut it: it
/// folds events like the default route.
pub fn absorb_profile(
    job: &SchemaJob,
    acc: &mut ProfileAcc,
    line: u64,
    text: &str,
) -> typefuse_json::Result<Type> {
    match job.map_path {
        MapPath::Values => acc.try_absorb_line_as_value(line, text),
        MapPath::Events | MapPath::Shape => acc.try_absorb_line(line, text),
    }
}

/// Fold `reader` into `target` under `job`.
pub(crate) fn fold(
    job: &SchemaJob,
    reader: &mut dyn BufRead,
    target: Target,
) -> Result<Folded, Error> {
    fold_with(job, reader, target, SLAB_BYTES)
}

fn fold_with(
    job: &SchemaJob,
    reader: &mut dyn BufRead,
    target: Target,
    slab_bytes: usize,
) -> Result<Folded, Error> {
    let rec = &job.recorder;
    let workers = job.runtime.workers().max(1);
    let shared = Shared {
        job,
        target,
        fuser: RecordedFuser::new(job.fuse_config, rec.clone()),
        auto: (target == Target::Schema && job.dedup == DedupMode::Auto).then(AutoDedup::default),
    };
    let (tx, rx) = sync_channel::<Slab>(workers * QUEUE_PER_WORKER);
    let rx = Mutex::new(rx);
    let start = Instant::now();
    let (read, outs) = {
        let _span = rec.span("pipeline.map");
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (shared, rx) = (&shared, &rx);
                    scope.spawn(move || work(shared, rx, start))
                })
                .collect();
            let read = {
                let _span = rec.span("pipeline.read");
                read_slabs(job, reader, slab_bytes, tx)
            };
            let outs: Vec<WorkerOut> = handles
                .into_iter()
                .map(|h| h.join().expect("fold workers catch their own panics"))
                .collect();
            (read, outs)
        })
    };
    let fold_wall = start.elapsed();
    let slabs = read?;

    // The earliest panicking slab wins, like the engine's lowest
    // partition, so the report does not depend on scheduling.
    let panics: usize = outs.iter().map(|o| o.panics).sum();
    if let Some((slab, message)) = outs.iter().filter_map(|o| o.panic.clone()).min() {
        rec.add("ingest.worker_panics", panics as u64);
        return Err(Error::Worker(WorkerPanic {
            partition: slab,
            message,
            panics,
        }));
    }

    let tasks = outs
        .iter()
        .enumerate()
        .map(|(worker, o)| TaskMetrics {
            partition: worker,
            worker,
            duration: o.busy,
            queue_wait: o.started,
        })
        .collect();
    let merge_start = Instant::now();
    let merged = {
        let _span = rec.span("pipeline.reduce");
        let mut total = Fold::new(&shared);
        for out in outs {
            total.merge(&shared, out.fold);
        }
        total
    };
    let merge_time = merge_start.elapsed();
    Ok(Folded {
        acc: merged.acc,
        errors: merged.errors,
        type_stats: merged.stats.map(Tally::finish).unwrap_or_default(),
        records: merged.records,
        slabs,
        fold_metrics: StageMetrics::new(tasks, fold_wall),
        merge_metrics: StageMetrics::new(
            vec![TaskMetrics {
                partition: 0,
                worker: 0,
                duration: merge_time,
                queue_wait: Duration::ZERO,
            }],
            merge_time,
        ),
    })
}

/// Cut `reader` into slabs and queue them; returns the slab count. An
/// unrecoverable read error stops the run with the line it happened
/// at. Dropping `tx` on return tells the workers the input is done.
fn read_slabs(
    job: &SchemaJob,
    reader: &mut dyn BufRead,
    slab_bytes: usize,
    tx: SyncSender<Slab>,
) -> Result<usize, Error> {
    let rec = &job.recorder;
    let mut line_no = 0u64;
    let mut bytes = 0u64;
    let mut slab = Slab::new(0, 1, slab_bytes);
    let send = |slab: Slab, bytes: &mut u64| {
        rec.add("json.bytes", std::mem::take(bytes));
        rec.add("json.lines", slab.lines.len() as u64);
        // Workers only hang up after the reader does.
        tx.send(slab).expect("fold workers outlive the reader");
    };
    loop {
        // The guard caps this line's content, which starts at the
        // slab's current end.
        let start = slab.text.len();
        let cap = job.max_line_bytes.map(|c| start.saturating_add(c));
        let raw = read_line_bounded(reader, &mut slab.text, cap, job.retry, rec)
            .map_err(|e| Error::io_at(e, IoSite::line(line_no as u32 + 1)))?;
        if raw.consumed == 0 {
            break;
        }
        line_no += 1;
        bytes += raw.consumed as u64;
        slab.lines.push((slab.text.len(), raw.truncated));
        if slab.bytes() >= slab_bytes {
            let next = Slab::new(slab.index + 1, line_no + 1, slab_bytes);
            send(std::mem::replace(&mut slab, next), &mut bytes);
        }
    }
    if slab.lines.is_empty() {
        return Ok(slab.index);
    }
    let slabs = slab.index + 1;
    send(slab, &mut bytes);
    Ok(slabs)
}

/// Read-only state every worker shares.
struct Shared<'j> {
    job: &'j SchemaJob,
    target: Target,
    fuser: RecordedFuser,
    auto: Option<AutoDedup>,
}

/// The `--dedup auto` decision, shared by the workers: they feed the
/// first records' types to one [`DedupSampler`], and once it rules for
/// dedup every worker switches at its next record.
#[derive(Default)]
struct AutoDedup {
    sampler: Mutex<DedupSampler>,
    verdict: AtomicU8,
}

impl AutoDedup {
    const OPEN: u8 = 0;
    const PLAIN: u8 = 1;
    const DEDUP: u8 = 2;

    /// Observe one type; whether the run should now be on dedup.
    fn observe(&self, ty: &Type) -> bool {
        match self.verdict.load(Ordering::Relaxed) {
            Self::PLAIN => false,
            Self::DEDUP => true,
            _ => {
                let mut sampler = self.sampler.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(dedup) = sampler.observe(ty) {
                    let verdict = if dedup { Self::DEDUP } else { Self::PLAIN };
                    let _ = self.verdict.compare_exchange(
                        Self::OPEN,
                        verdict,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    );
                }
                self.verdict.load(Ordering::Relaxed) == Self::DEDUP
            }
        }
    }
}

/// What one worker hands back.
struct WorkerOut {
    fold: Fold,
    /// Busy time folding slabs.
    busy: Duration,
    /// When the worker took its first slab, from the stage start.
    started: Duration,
    /// The earliest slab that panicked, with the panic message.
    panic: Option<(usize, String)>,
    panics: usize,
}

/// One worker: fold slabs until the reader hangs up, then return the
/// accumulators. A panic while folding a slab is caught and reported;
/// the worker keeps draining the queue so the reader never blocks.
fn work(shared: &Shared<'_>, rx: &Mutex<Receiver<Slab>>, stage_start: Instant) -> WorkerOut {
    let mut out = WorkerOut {
        fold: Fold::new(shared),
        busy: Duration::ZERO,
        started: Duration::ZERO,
        panic: None,
        panics: 0,
    };
    let mut first = true;
    loop {
        let next = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
        let Ok(slab) = next else { break };
        let t0 = Instant::now();
        if std::mem::take(&mut first) {
            out.started = t0.saturating_duration_since(stage_start);
        }
        // After a panic the accumulators are suspect: drain only.
        if out.panic.is_none() {
            let fold = &mut out.fold;
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| fold.slab(shared, &slab))) {
                out.panic = Some((slab.index, panic_message(payload)));
                out.panics += 1;
            }
        }
        out.busy += t0.elapsed();
    }
    if let Some(cache) = &mut out.fold.cache {
        cache.flush_counters(&shared.job.recorder);
    }
    out
}

/// One worker's accumulators.
struct Fold {
    acc: Acc,
    cache: Option<ShapeCache>,
    errors: ErrorReport,
    stats: Option<Tally>,
    records: u64,
    /// Fusions done on the plain route before `--dedup auto` moved this
    /// worker to dedup; they count as memo misses.
    plain_fusions: u64,
}

impl Fold {
    fn new(shared: &Shared<'_>) -> Fold {
        let job = shared.job;
        let acc = match shared.target {
            Target::Profile => Acc::Profile(profile_acc(job)),
            Target::Schema if job.dedup == DedupMode::On => Acc::Dedup(DedupAcc::new()),
            Target::Schema => Acc::Plain(Type::Bottom),
        };
        let shape = shared.target == Target::Schema && job.map_path == MapPath::Shape;
        Fold {
            acc,
            cache: shape.then(ShapeCache::new),
            errors: ErrorReport::new(),
            stats: job.collect_type_stats.then(Tally::default),
            records: 0,
            plain_fusions: 0,
        }
    }

    /// Fold every record of one slab.
    fn slab(&mut self, shared: &Shared<'_>, slab: &Slab) {
        let job = shared.job;
        let (mut good, mut bad) = (0u64, 0u64);
        let mut start = 0;
        for (i, &(end, truncated)) in slab.lines.iter().enumerate() {
            let line = slab.first_line + i as u64;
            let raw = &slab.text[start..end];
            start = end;
            match step(job, line, raw, truncated, |text| {
                self.record(shared, line, text)
            }) {
                Step::Blank => {}
                Step::Folded => good += 1,
                Step::Bad(record) => {
                    bad += 1;
                    self.errors.note(record);
                }
            }
        }
        job.recorder.add("json.records", good);
        job.recorder.add("json.parse_errors", bad);
    }

    /// Infer one record and fold it in.
    fn record(&mut self, shared: &Shared<'_>, line: u64, text: &str) -> typefuse_json::Result<()> {
        let job = shared.job;
        let (rec, options) = (&job.recorder, &job.parser_options);
        let Fold {
            acc, cache, stats, ..
        } = self;
        let owned;
        let ty: &Type = match (acc, job.map_path) {
            (Acc::Profile(profile), _) => {
                owned = absorb_profile(job, profile, line, text)?;
                &owned
            }
            (_, MapPath::Shape) => cache
                .as_mut()
                .expect("the shape route keeps a cache")
                .infer_line_ref(text.as_bytes(), options, rec)?,
            (_, MapPath::Events) => {
                owned =
                    streaming::infer_with_options_recorded(text.as_bytes(), options.clone(), rec)?;
                &owned
            }
            (_, MapPath::Values) => {
                owned = Parser::with_options(text.as_bytes(), options.clone())
                    .parse_complete()
                    .map(|v| infer_type_recorded(&v, rec))?;
                &owned
            }
        };
        if let Some(stats) = stats {
            stats.observe(ty);
        }
        self.records += 1;
        match &mut self.acc {
            Acc::Profile(_) => {}
            Acc::Dedup(dedup) => dedup.absorb_type(job.fuse_config, ty),
            Acc::Plain(schema) => {
                if !matches!(schema, Type::Bottom) {
                    self.plain_fusions += 1;
                }
                shared.fuser.absorb_type(schema, ty);
                if shared.auto.as_ref().is_some_and(|auto| auto.observe(ty)) {
                    rec.add("fuse.cache_misses", self.plain_fusions);
                    self.acc = Acc::Dedup(DedupAcc::resume(schema, self.records));
                }
            }
        }
        Ok(())
    }

    /// Merge another worker's accumulators into this one.
    fn merge(&mut self, shared: &Shared<'_>, other: Fold) {
        let cfg = shared.job.fuse_config;
        let acc = std::mem::replace(&mut self.acc, Acc::Plain(Type::Bottom));
        self.acc = match (acc, other.acc) {
            (Acc::Plain(mut a), Acc::Plain(b)) => {
                if matches!(a, Type::Bottom) {
                    a = b;
                } else if !matches!(b, Type::Bottom) {
                    shared.fuser.merge(&mut a, &b);
                }
                Acc::Plain(a)
            }
            (Acc::Dedup(mut a), Acc::Dedup(b)) => {
                a.merge(cfg, &b);
                Acc::Dedup(a)
            }
            // `--dedup auto` switched one side only: the plain partial
            // joins the dedup one as a resumed accumulator.
            (Acc::Dedup(mut d), Acc::Plain(p)) => {
                if !matches!(p, Type::Bottom) {
                    d.merge(cfg, &DedupAcc::resume(&p, other.records));
                }
                Acc::Dedup(d)
            }
            (Acc::Plain(p), Acc::Dedup(mut d)) => {
                if !matches!(p, Type::Bottom) {
                    d.merge(cfg, &DedupAcc::resume(&p, self.records));
                }
                Acc::Dedup(d)
            }
            (Acc::Profile(mut a), Acc::Profile(b)) => {
                a.merge(&b);
                Acc::Profile(a)
            }
            _ => unreachable!("one run folds one target"),
        };
        self.errors.merge(&other.errors);
        if let (Some(stats), Some(other)) = (&mut self.stats, other.stats) {
            stats.merge(other);
        }
        self.records += other.records;
    }
}

/// The `--stats` columns as a mergeable tally: distinct types (exact,
/// so this is per-distinct-type state) and size extremes and sum.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    distinct: HashSet<Type>,
    min: Option<usize>,
    max: usize,
    sum: u64,
    count: u64,
}

impl Tally {
    pub(crate) fn observe(&mut self, ty: &Type) {
        let size = ty.size();
        self.min = Some(self.min.map_or(size, |m| m.min(size)));
        self.max = self.max.max(size);
        self.sum += size as u64;
        self.count += 1;
        if !self.distinct.contains(ty) {
            self.distinct.insert(ty.clone());
        }
    }

    fn merge(&mut self, other: Tally) {
        self.distinct.extend(other.distinct);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.count += other.count;
    }

    pub(crate) fn finish(self) -> TypeStats {
        match self.min {
            None => TypeStats::default(),
            Some(min_size) => TypeStats {
                distinct: self.distinct.len(),
                min_size,
                max_size: self.max,
                avg_size: self.sum as f64 / self.count as f64,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JobConfig;
    use crate::faults::ErrorPolicy;
    use std::io::BufReader;
    use typefuse_json::ParserOptions;

    /// Fold `text` with `slab_bytes`-sized slabs.
    fn fold_text(job: &SchemaJob, text: &str, slab_bytes: usize) -> Result<Folded, Error> {
        fold_with(job, &mut text.as_bytes(), Target::Schema, slab_bytes)
    }

    fn schema_of(folded: &Folded) -> String {
        match &folded.acc {
            Acc::Plain(ty) => ty.to_string(),
            Acc::Dedup(acc) => acc.schema().to_string(),
            Acc::Profile(acc) => acc.schema().to_string(),
        }
    }

    /// Clean, blank, malformed, oversized and non-UTF-8 lines of very
    /// different lengths, so slab boundaries fall everywhere.
    const MIXED: &str = "{\"a\":1}\n\n{\"long\":\"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\",\"a\":[1,2]}\n{}\n  \n{bad\n{\"a\":\"s\",\"t\":true}\n\u{a0}{\"b\":null}\u{a0}\n{\"a\":1}";

    #[test]
    fn every_line_is_owned_by_exactly_one_slab() {
        let contents: String = (0..50)
            .map(|i| format!("{{\"n{}\":{i}}}\n", i % 7))
            .collect();
        let job = JobConfig::new().workers(1).build();
        let whole = fold_text(&job, &contents, SLAB_BYTES).unwrap();
        assert_eq!(whole.records, 50);
        assert_eq!(whole.slabs, 1);
        for slab_bytes in [1, 17, 64, 200, 999] {
            for workers in [1, 2, 4] {
                let job = JobConfig::new().workers(workers).build();
                let folded = fold_text(&job, &contents, slab_bytes).unwrap();
                assert_eq!(folded.records, 50, "{slab_bytes} B, {workers}w");
                assert_eq!(schema_of(&folded), schema_of(&whole));
                assert!(folded.slabs > 1, "{slab_bytes} B cut one slab");
            }
        }
    }

    #[test]
    fn slab_boundaries_mid_line_are_handled() {
        // Every slab size from one byte up: schema, records, and every
        // bad record (line, error, text) match the single-slab fold.
        let policy = ErrorPolicy::quarantine("unused.ndjson");
        let config = |workers| {
            JobConfig::new()
                .workers(workers)
                .on_error(policy.clone())
                .max_line_bytes(40)
        };
        // Plus a non-UTF-8 line, which only raw bytes can carry.
        let mut text = MIXED.as_bytes().to_vec();
        text.extend_from_slice(b"\n{\"bin\":\"\xff\"}\n{\"a\":2}\n");
        let whole = fold_with(
            &config(1).build(),
            &mut text.as_slice(),
            Target::Schema,
            SLAB_BYTES,
        )
        .unwrap();
        assert_eq!(whole.records, 6);
        let bad: Vec<u64> = whole.errors.records().iter().map(|r| r.at).collect();
        assert_eq!(bad, [3, 6, 10], "oversized, malformed, non-UTF-8");
        for slab_bytes in 1..=text.len() + 1 {
            for workers in [1, 2, 4] {
                for target in [Target::Schema, Target::Profile] {
                    let folded = fold_with(
                        &config(workers).build(),
                        &mut text.as_slice(),
                        target,
                        slab_bytes,
                    )
                    .unwrap();
                    let label = format!("{slab_bytes} B, {workers}w, {target:?}");
                    assert_eq!(schema_of(&folded), schema_of(&whole), "{label}");
                    assert_eq!(folded.records, whole.records, "{label}");
                    assert_eq!(folded.errors, whole.errors, "{label}");
                }
            }
        }
    }

    #[test]
    fn file_schema_matches_in_memory_pipeline() {
        let values: Vec<typefuse_json::Value> =
            crate::datagen::DatasetProfile::generate(&crate::datagen::Profile::Twitter, 3, 200)
                .collect();
        let dir = std::env::temp_dir().join("typefuse-fold-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("twitter-{}.ndjson", std::process::id()));
        let mut file = std::fs::File::create(&path).unwrap();
        typefuse_json::ndjson::write_ndjson(&mut file, &values).unwrap();
        drop(file);

        let job = JobConfig::new().workers(4).without_type_stats().build();
        let mut reader = BufReader::new(std::fs::File::open(&path).unwrap());
        let from_file = fold_with(&job, &mut reader, Target::Schema, 4096).unwrap();
        let in_memory = job.run_values(values);
        std::fs::remove_file(&path).ok();
        assert_eq!(schema_of(&from_file), in_memory.schema.to_string());
        assert_eq!(from_file.records, in_memory.records);
        assert!(from_file.slabs > 1);
        assert!(from_file.errors.is_empty());
    }

    #[test]
    fn recorded_fold_counts_slabs_and_records() {
        let contents: String = (0..40).map(|i| format!("{{\"n\":{i}}}\n")).collect();
        let rec = typefuse_obs::Recorder::enabled();
        let job = JobConfig::new().workers(2).recorder(rec.clone()).build();
        let folded = fold_text(&job, &contents, 100).unwrap();
        let report = rec.snapshot();
        assert_eq!(report.counters["json.records"], 40);
        assert_eq!(report.counters["json.lines"], 40);
        assert_eq!(report.counters["json.bytes"], contents.len() as u64);
        assert_eq!(folded.records, 40);
        assert!(folded.slabs > 1);
        assert_eq!(folded.fold_metrics.tasks.len(), 2, "one task per worker");
        for span in ["pipeline.read", "pipeline.map", "pipeline.reduce"] {
            assert!(report.spans.contains_key(span), "{span}");
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let contents = "{\"ok\":1}\n\n{broken\n";
        for slab_bytes in [1, 8, SLAB_BYTES] {
            let job = JobConfig::new().workers(2).build();
            let folded = fold_text(&job, contents, slab_bytes).unwrap();
            let bad = folded.errors.first().expect("one bad record");
            assert_eq!(bad.at, 3);
            assert_eq!(bad.error.span().start.line, 3);
            assert_eq!(bad.error.span().start.column, 2, "column within the line");
        }
    }

    #[test]
    fn empty_and_blank_files() {
        for contents in ["", "\n\n  \n"] {
            let job = JobConfig::new().workers(2).build();
            let folded = fold_text(&job, contents, 1).unwrap();
            assert_eq!(folded.records, 0);
            assert_eq!(schema_of(&folded), Type::Bottom.to_string());
        }
    }

    #[test]
    fn skip_policy_matches_the_clean_subset_for_any_worker_count() {
        let mut contents = String::new();
        let mut clean = String::new();
        for i in 0..60 {
            if i % 7 == 3 {
                contents.push_str("{broken!!\n");
                clean.push('\n');
            } else {
                let line = format!("{{\"n\":{i},\"s\":\"x\"}}\n");
                contents.push_str(&line);
                clean.push_str(&line);
            }
        }
        let expect = fold_text(&JobConfig::new().build(), &clean, SLAB_BYTES).unwrap();
        let mut reports = Vec::new();
        for workers in [1, 2, 3, 8] {
            let job = JobConfig::new()
                .workers(workers)
                .on_error(ErrorPolicy::skip())
                .build();
            let folded = fold_text(&job, &contents, 50).unwrap();
            assert_eq!(schema_of(&folded), schema_of(&expect), "{workers}w");
            assert_eq!(folded.records, expect.records, "{workers}w");
            assert_eq!(folded.errors.skipped(), 9, "{workers}w");
            reports.push(folded.errors);
        }
        assert!(reports.windows(2).all(|w| w[0] == w[1]));
        // `at` is the 1-based line of each bad record.
        let lines: Vec<u64> = reports[0].records().iter().map(|r| r.at).collect();
        let expected: Vec<u64> = (0..60).filter(|i| i % 7 == 3).map(|i| i + 1).collect();
        assert_eq!(lines, expected);
    }

    #[test]
    fn quarantined_slabs_write_the_sidecar() {
        let contents = "{\"a\":1}\n{oops\n{\"a\":2}\n";
        let dir = std::env::temp_dir().join("typefuse-fold-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let sink = dir.join(format!("quarantine-{}.ndjson", std::process::id()));
        let rec = typefuse_obs::Recorder::enabled();
        let result = JobConfig::new()
            .workers(2)
            .recorder(rec.clone())
            .on_error(ErrorPolicy::quarantine(&sink))
            .build()
            .run_profiled(crate::pipeline::Source::ndjson(contents.as_bytes()))
            .unwrap();
        assert_eq!(result.records, 2);
        assert_eq!(result.errors.skipped(), 1);
        assert_eq!(rec.snapshot().counters["ingest.quarantined"], 1);
        let entries = crate::faults::read_quarantine(&sink).unwrap();
        std::fs::remove_file(&sink).ok();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, 2, "the line of the bad record");
        assert_eq!(entries[0].2.as_deref(), Some("{oops"));
    }

    #[test]
    fn parser_options_flow_into_the_fold() {
        // A depth-3 record under max_depth 2: the plain and the profiled
        // run reject it with the same error at the same line.
        let contents = "{\"a\":1}\n{\"a\":{\"b\":{\"c\":1}}}\n";
        let job = JobConfig::new()
            .parser_options(ParserOptions {
                max_depth: 2,
                ..ParserOptions::default()
            })
            .build();
        let source = || crate::pipeline::Source::ndjson(contents.as_bytes());
        let plain = job.run(source()).unwrap_err();
        let profiled = job.run_profiled(source()).unwrap_err();
        assert!(plain.to_string().contains("recursion limit"), "{plain}");
        assert_eq!(plain.span().unwrap().start.line, 2);
        assert_eq!(profiled.to_string(), plain.to_string());
        assert_eq!(profiled.span(), plain.span());
    }

    #[test]
    fn budget_is_enforced_after_merging() {
        let contents: String = (0..20)
            .map(|i| match i % 5 {
                0 => "nope\n".to_string(),
                _ => format!("{{\"n\":{i}}}\n"),
            })
            .collect();
        // 4 bad lines: a budget of 4 passes, 3 fails — for any workers.
        for workers in [1, 4] {
            let budget = |max| {
                JobConfig::new()
                    .workers(workers)
                    .on_error(ErrorPolicy::Skip {
                        max_errors: Some(max),
                    })
                    .build()
                    .run(crate::pipeline::Source::ndjson(contents.as_bytes()))
            };
            assert!(budget(4).is_ok());
            assert!(budget(3).unwrap_err().is_budget(), "{workers}w");
        }
    }
}
