//! The one bounded-memory fold behind every NDJSON command.
//!
//! Fusion is commutative and associative (Theorems 5.4/5.5), so the
//! schema does not depend on which worker folds which record, and the
//! same holds for any per-dataset statistic that merges as a monoid.
//! Every NDJSON run — `infer` (file or stdin, plain or profiled, any
//! error policy), `explain`, `diff`, `registry publish`, `check`,
//! `stats` and `query` — is therefore one streaming pass through [`run`]:
//!
//! * **Reader.** The calling thread cuts the stream into newline-aligned
//!   *slabs* of about 1 MiB, each tagged with its first line number. It
//!   applies the retry policy and the line-size guard and counts
//!   `json.bytes` / `json.lines`.
//! * **Workers.** `workers` threads take slabs from a bounded queue and
//!   fold every record into their own [`Accumulator`], plus an
//!   [`ErrorReport`].
//! * **Merge.** The workers' accumulators merge once at the end, and the
//!   error policy judges the merged report.
//!
//! The fold owns everything a line goes through before it is a record;
//! an [`Accumulator`] owns only what a record is folded into. The schema
//! fold of [`SchemaJob::run`] (plain, dedup or `--dedup auto`, the shape
//! cache and the `--stats` tally) and the profiled fold of
//! [`SchemaJob::run_profiled`] are two accumulators; `check`, `stats` and
//! `query` bring their own.
//!
//! Memory is bounded by (workers + queue depth + 1) slabs plus the
//! accumulators, whatever the input size. Bad records are anchored at
//! their 1-based input line, so output and errors are byte-identical for
//! every worker count.
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

/// What a fold folds its records into. Every worker folds into its own
/// accumulator and the fold merges them once at the end, so `merge`
/// must be associative and commutative in everything the caller
/// reports.
pub trait Accumulator: Send {
    /// Fold one record: its trimmed text, read at 1-based input line
    /// `line`. An error makes the line a bad record under the job's
    /// error policy, anchored at `line`.
    fn absorb(&mut self, line: u64, text: &str) -> typefuse_json::Result<()>;

    /// Merge another worker's accumulator into this one.
    fn merge(&mut self, other: Self);
}

/// The merged outcome of [`run`], after the error policy has run.
#[derive(Debug)]
pub struct Folded<A> {
    /// The workers' accumulators, merged.
    pub acc: A,
    /// Records folded: the lines that were neither blank nor bad.
    pub records: u64,
    /// Slabs the reader cut.
    pub slabs: usize,
    /// Every bad record the error policy let through.
    pub errors: ErrorReport,
    /// One task per worker: its busy time and start offset.
    pub fold_metrics: StageMetrics,
    /// The final merge, as one task.
    pub merge_metrics: StageMetrics,
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

/// Fold `reader` under `job`: every worker folds its records into an
/// accumulator made by `new`, the accumulators merge once, and the job's
/// error policy judges the merged report.
///
/// Fails with the earliest bad record under fail-fast, on an exhausted
/// error budget, on an unreadable input (with the line it stopped at),
/// or on a worker panic (the earliest panicking slab).
pub fn run<A: Accumulator>(
    job: &SchemaJob,
    reader: &mut dyn BufRead,
    new: impl Fn() -> A + Sync,
) -> Result<Folded<A>, Error> {
    run_in_slabs(job, reader, SLAB_BYTES, new)
}

/// [`run`] with slabs of about `slab_bytes` instead of 1 MiB. Small
/// slabs spread a small input over every worker, which tests use to
/// move slab boundaries across records.
pub fn run_in_slabs<A: Accumulator>(
    job: &SchemaJob,
    reader: &mut dyn BufRead,
    slab_bytes: usize,
    new: impl Fn() -> A + Sync,
) -> Result<Folded<A>, Error> {
    let folded = fold_with(job, reader, slab_bytes, new)?;
    job.error_policy.enforce(&folded.errors, &job.recorder)?;
    Ok(folded)
}

/// The fold without the error policy.
fn fold_with<A: Accumulator>(
    job: &SchemaJob,
    reader: &mut dyn BufRead,
    slab_bytes: usize,
    new: impl Fn() -> A + Sync,
) -> Result<Folded<A>, Error> {
    let rec = &job.recorder;
    let workers = job.runtime.workers().max(1);
    let (tx, rx) = sync_channel::<Slab>(workers * QUEUE_PER_WORKER);
    let rx = Mutex::new(rx);
    let start = Instant::now();
    let (read, outs) = {
        let _span = rec.span("pipeline.map");
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (new, rx) = (&new, &rx);
                    scope.spawn(move || work(job, new(), rx, start))
                })
                .collect();
            let read = {
                let _span = rec.span("pipeline.read");
                read_slabs(job, reader, slab_bytes, tx)
            };
            let outs: Vec<WorkerOut<A>> = handles
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
    let (mut acc, mut errors, mut records) = (new(), ErrorReport::new(), 0);
    {
        let _span = rec.span("pipeline.reduce");
        for out in outs {
            acc.merge(out.acc);
            errors.merge(&out.errors);
            records += out.records;
        }
    }
    let merge_time = merge_start.elapsed();
    Ok(Folded {
        acc,
        records,
        slabs,
        errors,
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

/// One worker's accumulators, and what it hands back.
struct WorkerOut<A> {
    acc: A,
    errors: ErrorReport,
    records: u64,
    /// Busy time folding slabs.
    busy: Duration,
    /// When the worker took its first slab, from the stage start.
    started: Duration,
    /// The earliest slab that panicked, with the panic message.
    panic: Option<(usize, String)>,
    panics: usize,
}

/// One worker: fold slabs into `acc` until the reader hangs up. A panic
/// while folding a slab is caught and reported; the worker keeps
/// draining the queue so the reader never blocks.
fn work<A: Accumulator>(
    job: &SchemaJob,
    acc: A,
    rx: &Mutex<Receiver<Slab>>,
    stage_start: Instant,
) -> WorkerOut<A> {
    let mut out = WorkerOut {
        acc,
        errors: ErrorReport::new(),
        records: 0,
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
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| out.slab(job, &slab))) {
                out.panic = Some((slab.index, panic_message(payload)));
                out.panics += 1;
            }
        }
        out.busy += t0.elapsed();
    }
    out
}

impl<A: Accumulator> WorkerOut<A> {
    /// Fold every line of one slab.
    fn slab(&mut self, job: &SchemaJob, slab: &Slab) {
        let (mut good, mut bad) = (0u64, 0u64);
        let mut start = 0;
        for (i, &(end, truncated)) in slab.lines.iter().enumerate() {
            let line = slab.first_line + i as u64;
            let raw = &slab.text[start..end];
            start = end;
            match step(job, line, raw, truncated, |text| {
                self.acc.absorb(line, text)
            }) {
                Step::Blank => {}
                Step::Folded => good += 1,
                Step::Bad(record) => {
                    bad += 1;
                    self.errors.note(record);
                }
            }
        }
        self.records += good;
        job.recorder.add("json.records", good);
        job.recorder.add("json.parse_errors", bad);
    }
}

/// What every worker's [`SchemaAcc`] shares: the recorded fuser and the
/// `--dedup auto` decision.
pub(crate) struct SchemaShared<'j> {
    job: &'j SchemaJob,
    fuser: RecordedFuser,
    auto: Option<AutoDedup>,
}

impl<'j> SchemaShared<'j> {
    pub(crate) fn new(job: &'j SchemaJob) -> Self {
        SchemaShared {
            job,
            fuser: RecordedFuser::new(job.fuse_config, job.recorder.clone()),
            auto: (job.dedup == DedupMode::Auto).then(AutoDedup::default),
        }
    }

    /// An empty accumulator for one worker.
    pub(crate) fn acc(&self) -> SchemaAcc<'_> {
        let job = self.job;
        SchemaAcc {
            shared: self,
            fused: match job.dedup {
                DedupMode::On => Fused::Dedup(DedupAcc::new()),
                DedupMode::Auto | DedupMode::Off => Fused::Plain(Type::Bottom),
            },
            cache: (job.map_path == MapPath::Shape).then(ShapeCache::new),
            stats: job.collect_type_stats.then(Tally::default),
            records: 0,
            plain_fusions: 0,
        }
    }
}

/// The schema fold: every record's type, inferred through the job's map
/// path, fused on the plain or the dedup route.
pub(crate) struct SchemaAcc<'a> {
    shared: &'a SchemaShared<'a>,
    fused: Fused,
    cache: Option<ShapeCache>,
    stats: Option<Tally>,
    records: u64,
    /// Fusions done on the plain route before `--dedup auto` moved this
    /// worker to dedup; they count as memo misses.
    plain_fusions: u64,
}

/// The schema so far, on one of the two Reduce routes.
enum Fused {
    /// Figure 6 fusion into a bare type.
    Plain(Type),
    /// The shape-dedup route (hash-consed, memoized fusion).
    Dedup(DedupAcc),
}

impl SchemaAcc<'_> {
    /// The fused schema and the `--stats` columns. The dedup route also
    /// reports its counters.
    pub(crate) fn finish(self) -> (Type, TypeStats) {
        let rec = &self.shared.job.recorder;
        let schema = match self.fused {
            Fused::Plain(schema) => schema,
            Fused::Dedup(acc) => {
                rec.add("infer.dedup", 1);
                acc.flush_counters(rec);
                acc.schema()
            }
        };
        (schema, self.stats.map(Tally::finish).unwrap_or_default())
    }
}

impl Accumulator for SchemaAcc<'_> {
    fn absorb(&mut self, _line: u64, text: &str) -> typefuse_json::Result<()> {
        let shared = self.shared;
        let job = shared.job;
        let (rec, options) = (&job.recorder, &job.parser_options);
        let owned;
        let ty: &Type = match job.map_path {
            MapPath::Shape => self
                .cache
                .as_mut()
                .expect("the shape route keeps a cache")
                .infer_line_ref(text.as_bytes(), options, rec)?,
            MapPath::Events => {
                owned =
                    streaming::infer_with_options_recorded(text.as_bytes(), options.clone(), rec)?;
                &owned
            }
            MapPath::Values => {
                owned = Parser::with_options(text.as_bytes(), options.clone())
                    .parse_complete()
                    .map(|v| infer_type_recorded(&v, rec))?;
                &owned
            }
        };
        if let Some(stats) = &mut self.stats {
            stats.observe(ty);
        }
        self.records += 1;
        match &mut self.fused {
            Fused::Dedup(dedup) => dedup.absorb_type(job.fuse_config, ty),
            Fused::Plain(schema) => {
                if !matches!(schema, Type::Bottom) {
                    self.plain_fusions += 1;
                }
                shared.fuser.absorb_type(schema, ty);
                if shared.auto.as_ref().is_some_and(|auto| auto.observe(ty)) {
                    rec.add("fuse.cache_misses", self.plain_fusions);
                    self.fused = Fused::Dedup(DedupAcc::resume(schema, self.records));
                }
            }
        }
        Ok(())
    }

    fn merge(&mut self, other: Self) {
        let shared = self.shared;
        let cfg = shared.job.fuse_config;
        if let Some(mut cache) = other.cache {
            cache.flush_counters(&shared.job.recorder);
        }
        let mine = std::mem::replace(&mut self.fused, Fused::Plain(Type::Bottom));
        self.fused = match (mine, other.fused) {
            (Fused::Plain(mut a), Fused::Plain(b)) => {
                if matches!(a, Type::Bottom) {
                    a = b;
                } else if !matches!(b, Type::Bottom) {
                    shared.fuser.merge(&mut a, &b);
                }
                Fused::Plain(a)
            }
            (Fused::Dedup(mut a), Fused::Dedup(b)) => {
                a.merge(cfg, &b);
                Fused::Dedup(a)
            }
            // `--dedup auto` switched one side only: the plain partial
            // joins the dedup one as a resumed accumulator.
            (Fused::Dedup(mut d), Fused::Plain(p)) => {
                if !matches!(p, Type::Bottom) {
                    d.merge(cfg, &DedupAcc::resume(&p, other.records));
                }
                Fused::Dedup(d)
            }
            (Fused::Plain(p), Fused::Dedup(mut d)) => {
                if !matches!(p, Type::Bottom) {
                    d.merge(cfg, &DedupAcc::resume(&p, self.records));
                }
                Fused::Dedup(d)
            }
        };
        if let (Some(stats), Some(other)) = (&mut self.stats, other.stats) {
            stats.merge(other);
        }
        self.records += other.records;
    }
}

/// The profiled fold: a [`ProfileAcc`] fed through the job's map path,
/// plus the `--stats` tally.
pub(crate) struct ProfiledAcc<'j> {
    job: &'j SchemaJob,
    profile: ProfileAcc,
    stats: Option<Tally>,
}

impl<'j> ProfiledAcc<'j> {
    pub(crate) fn new(job: &'j SchemaJob) -> Self {
        ProfiledAcc {
            job,
            profile: profile_acc(job),
            stats: job.collect_type_stats.then(Tally::default),
        }
    }

    /// The profile and the `--stats` columns.
    pub(crate) fn finish(self) -> (ProfileAcc, TypeStats) {
        (
            self.profile,
            self.stats.map(Tally::finish).unwrap_or_default(),
        )
    }
}

impl Accumulator for ProfiledAcc<'_> {
    fn absorb(&mut self, line: u64, text: &str) -> typefuse_json::Result<()> {
        let ty = absorb_profile(self.job, &mut self.profile, line, text)?;
        if let Some(stats) = &mut self.stats {
            stats.observe(&ty);
        }
        Ok(())
    }

    fn merge(&mut self, other: Self) {
        self.profile.merge(&other.profile);
        if let (Some(stats), Some(other)) = (&mut self.stats, other.stats) {
            stats.merge(other);
        }
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

    /// `folded` with its accumulator replaced by the printed schema.
    fn printed<A>(folded: Folded<A>, schema: impl FnOnce(A) -> Type) -> Folded<String> {
        Folded {
            acc: schema(folded.acc).to_string(),
            records: folded.records,
            slabs: folded.slabs,
            errors: folded.errors,
            fold_metrics: folded.fold_metrics,
            merge_metrics: folded.merge_metrics,
        }
    }

    /// The schema fold of `input` with `slab_bytes`-sized slabs, before
    /// the error policy runs.
    fn fold_schema(
        job: &SchemaJob,
        input: &mut dyn BufRead,
        slab_bytes: usize,
    ) -> Result<Folded<String>, Error> {
        let shared = SchemaShared::new(job);
        let folded = fold_with(job, input, slab_bytes, || shared.acc())?;
        Ok(printed(folded, |acc| acc.finish().0))
    }

    /// The profiled fold of `input`, like [`fold_schema`].
    fn fold_profile(
        job: &SchemaJob,
        input: &mut dyn BufRead,
        slab_bytes: usize,
    ) -> Result<Folded<String>, Error> {
        let folded = fold_with(job, input, slab_bytes, || ProfiledAcc::new(job))?;
        Ok(printed(folded, |acc| acc.finish().0.schema().clone()))
    }

    /// A fold under either accumulator, printed.
    type Fold = fn(&SchemaJob, &mut dyn BufRead, usize) -> Result<Folded<String>, Error>;

    fn fold_text(job: &SchemaJob, text: &str, slab_bytes: usize) -> Result<Folded<String>, Error> {
        fold_schema(job, &mut text.as_bytes(), slab_bytes)
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
                assert_eq!(folded.acc, whole.acc);
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
        let whole = fold_schema(&config(1).build(), &mut text.as_slice(), SLAB_BYTES).unwrap();
        assert_eq!(whole.records, 6);
        let bad: Vec<u64> = whole.errors.records().iter().map(|r| r.at).collect();
        assert_eq!(bad, [3, 6, 10], "oversized, malformed, non-UTF-8");
        for slab_bytes in 1..=text.len() + 1 {
            for workers in [1, 2, 4] {
                for (target, fold) in [("schema", fold_schema as Fold), ("profile", fold_profile)] {
                    let folded =
                        fold(&config(workers).build(), &mut text.as_slice(), slab_bytes).unwrap();
                    let label = format!("{slab_bytes} B, {workers}w, {target}");
                    assert_eq!(folded.acc, whole.acc, "{label}");
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
        let from_file = fold_schema(&job, &mut reader, 4096).unwrap();
        let in_memory = job.run_values(values);
        std::fs::remove_file(&path).ok();
        assert_eq!(from_file.acc, in_memory.schema.to_string());
        assert_eq!(from_file.records, in_memory.records);
        assert!(from_file.slabs > 1);
        assert!(from_file.errors.is_empty());
    }

    #[test]
    fn recorded_fold_counts_slabs_and_records() {
        // A blank and a bad line count as lines, not records.
        let contents: String = (0..40).map(|i| format!("{{\"n\":{i}}}\n")).collect();
        let contents = format!("{contents}\n{{\"bad\n");
        let rec = typefuse_obs::Recorder::enabled();
        let job = JobConfig::new().workers(2).recorder(rec.clone()).build();
        let folded = fold_text(&job, &contents, 100).unwrap();
        let report = rec.snapshot();
        assert_eq!(report.counters["json.records"], 40);
        assert_eq!(report.counters["json.parse_errors"], 1);
        assert_eq!(report.counters["json.lines"], 42);
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
            assert_eq!(folded.acc, Type::Bottom.to_string());
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
            assert_eq!(folded.acc, expect.acc, "{workers}w");
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
