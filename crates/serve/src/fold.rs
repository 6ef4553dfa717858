//! Per-source folding state: the warm accumulator a poller feeds and
//! the protocol reads.
//!
//! Exactness rests on the fusion laws (Section 5 of the paper): fusion
//! is associative and commutative, so absorbing appended records one
//! batch at a time produces byte-identically the schema and profile a
//! batch run over the whole file would. Serve ≡ batch holds by
//! construction: every tailed line goes through the batch fold's own
//! per-line [`step`] into one [`ProfileAcc`] per source, built from the
//! same [`SchemaJob`]. What stays here is what only a daemon has: the
//! line counter, the per-record error policy, and the event log.

use std::path::Path;
use typefuse::fold::{absorb_profile, profile_acc, step, Step};
use typefuse::pipeline::SchemaJob;
use typefuse::{BadRecord, ErrorPolicy, ErrorReport};
use typefuse_infer::ProfileAcc;
use typefuse_json::{Map, TailLine, Value};
use typefuse_obs::{EventLog, Level};
use typefuse_registry::{CompatMode, RegistryStore};
use typefuse_types::diff::SchemaChange;
use typefuse_types::Type;

/// The checkpoint payload version [`SourceState::checkpoint_value`]
/// writes. Version 1 also carried the schema and record count beside
/// the profile, which holds both.
const CHECKPOINT_VERSION: i64 = 2;

/// A source's health, as reported by the protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceStatus {
    /// Folding normally.
    Active,
    /// The input reported a permanent close (TCP sources only report
    /// per-connection closes; a file source never closes).
    Closed,
    /// The source stopped folding: fail-fast hit a bad record, the
    /// error budget ran out, or input I/O failed permanently.
    Failed(String),
}

/// Everything the daemon knows about one source. The poller thread
/// mutates it behind a mutex; protocol sessions read it.
pub(crate) struct SourceState {
    pub(crate) name: String,
    /// The ingest configuration: error policy, parser options, fuse
    /// config, line guard and recorder, exactly as a batch run uses it.
    job: SchemaJob,
    /// The schema, record count and per-path profile.
    profile: ProfileAcc,
    pub(crate) report: ErrorReport,
    /// 1-based input line counter (bad lines included, like batch).
    lines: u64,
    /// Latest registry version holding this source's schema.
    pub(crate) version: Option<u64>,
    /// Drift alerts, oldest first: one rendered line per structural
    /// change between consecutive published versions.
    pub(crate) drift: Vec<String>,
    pub(crate) status: SourceStatus,
    /// Records written to the quarantine sidecar for this source.
    pub(crate) quarantined: u64,
    /// Unix-millisecond timestamp of the last batch that brought any
    /// line (folded or bad); `None` until the source first produces.
    pub(crate) last_activity_ms: Option<u64>,
    /// Tail-resume info, mirrored from the poller's reader under this
    /// state's mutex right after every fold, so a checkpoint written
    /// from another thread always pairs the folded schema with the
    /// exact byte position it covers.
    pub(crate) tail_offset: u64,
    pub(crate) tail_pending: Vec<u8>,
    pub(crate) tail_pending_overflow: bool,
    /// Bumped on every change worth persisting; the checkpointer skips
    /// sources whose revision it has already written.
    pub(crate) ckpt_rev: u64,
    events: EventLog,
    /// `ingest.records.<name>`, named once rather than per batch.
    records_counter: String,
}

impl SourceState {
    pub(crate) fn new(name: &str, job: &SchemaJob, events: EventLog) -> Self {
        SourceState {
            name: name.to_string(),
            job: job.clone(),
            profile: profile_acc(job),
            report: ErrorReport::new(),
            lines: 0,
            version: None,
            drift: Vec::new(),
            status: SourceStatus::Active,
            quarantined: 0,
            last_activity_ms: None,
            tail_offset: 0,
            tail_pending: Vec::new(),
            tail_pending_overflow: false,
            ckpt_rev: 0,
            events,
            records_counter: format!("ingest.records.{name}"),
        }
    }

    /// The current fused schema.
    pub(crate) fn schema(&self) -> &Type {
        self.profile.schema()
    }

    /// Records successfully folded so far.
    pub(crate) fn records(&self) -> u64 {
        self.profile.records()
    }

    /// A point-in-time profile report (presence, kinds, provenance).
    pub(crate) fn profile_report(&self) -> typefuse_infer::ProfileReport {
        self.profile.clone().finish()
    }

    pub(crate) fn is_active(&self) -> bool {
        matches!(self.status, SourceStatus::Active)
    }

    /// 1-based count of input lines consumed so far (bad lines
    /// included) — the line counter a resumed tail reader continues.
    pub(crate) fn lines(&self) -> u64 {
        self.lines
    }

    /// Mirror the poller's tail position into the state (see the field
    /// docs) and mark the state dirty if anything moved.
    pub(crate) fn sync_tail(&mut self, offset: u64, pending: &[u8], overflow: bool) {
        if self.tail_offset == offset
            && self.tail_pending == pending
            && self.tail_pending_overflow == overflow
        {
            return;
        }
        self.tail_offset = offset;
        self.tail_pending = pending.to_vec();
        self.tail_pending_overflow = overflow;
        self.ckpt_rev += 1;
    }

    /// Mark the state dirty without a tail position (TCP sources, whose
    /// producers cannot be resumed by offset).
    pub(crate) fn mark_dirty(&mut self) {
        self.ckpt_rev += 1;
    }

    /// Serialize everything a restart needs to resume this source
    /// exactly: the profile (which carries the schema and record
    /// count), error report, line/tail position, and publish
    /// bookkeeping. All `u64`s travel as decimal strings (see
    /// `typefuse_json::codec`) so values above 2^53 survive the JSON
    /// round trip.
    pub(crate) fn checkpoint_value(&self) -> Value {
        use typefuse_json::codec::u64_to_value;
        let mut m = Map::new();
        m.insert("v", Value::from(CHECKPOINT_VERSION));
        m.insert("name", Value::from(self.name.clone()));
        m.insert("lines", u64_to_value(self.lines));
        m.insert("tail_offset", u64_to_value(self.tail_offset));
        m.insert("tail_pending", Value::from(to_hex(&self.tail_pending)));
        m.insert(
            "tail_pending_overflow",
            Value::Bool(self.tail_pending_overflow),
        );
        m.insert("profile", self.profile.checkpoint_value());
        m.insert("report", self.report.checkpoint_value());
        if let Some(version) = self.version {
            m.insert("version", u64_to_value(version));
        }
        m.insert("quarantined", u64_to_value(self.quarantined));
        m.insert(
            "drift",
            Value::Array(self.drift.iter().map(|d| Value::from(d.clone())).collect()),
        );
        let (status, reason) = match &self.status {
            SourceStatus::Active => ("active", None),
            SourceStatus::Closed => ("closed", None),
            SourceStatus::Failed(reason) => ("failed", Some(reason.clone())),
        };
        m.insert("status", Value::from(status));
        if let Some(reason) = reason {
            m.insert("status_reason", Value::from(reason));
        }
        if let Some(at) = self.last_activity_ms {
            m.insert("last_activity_ms", u64_to_value(at));
        }
        Value::Object(m)
    }

    /// Rebuild a source from a checkpoint payload. Takes the same job as
    /// [`SourceState::new`] — the fuse config, parser options and error
    /// policy are *not* persisted; a resumed daemon must run the same
    /// job configuration as the one that wrote the checkpoint, or the
    /// incremental ≡ batch law breaks.
    ///
    /// A version-1 payload restores only when its profile holds every
    /// record its schema does; one whose profile was left empty (the
    /// removed shape route) is unusable, and the daemon starts cold.
    pub(crate) fn restore(
        name: &str,
        job: &SchemaJob,
        events: EventLog,
        payload: &Value,
    ) -> Result<Self, String> {
        use typefuse_json::codec::{opt_u64_from_value, u64_from_value};
        let version_tag = payload
            .get("v")
            .and_then(Value::as_i64)
            .ok_or("missing checkpoint version")?;
        if !(1..=CHECKPOINT_VERSION).contains(&version_tag) {
            return Err(format!("unsupported checkpoint version {version_tag}"));
        }
        let stored_name = payload
            .get("name")
            .and_then(Value::as_str)
            .ok_or("missing name")?;
        if stored_name != name {
            return Err(format!(
                "checkpoint belongs to source `{stored_name}`, not `{name}`"
            ));
        }
        let lines = u64_from_value(payload.get("lines").ok_or("missing lines")?)?;
        let tail_offset = u64_from_value(payload.get("tail_offset").ok_or("missing tail_offset")?)?;
        let tail_pending = from_hex(
            payload
                .get("tail_pending")
                .and_then(Value::as_str)
                .ok_or("missing tail_pending")?,
        )?;
        let tail_pending_overflow = payload
            .get("tail_pending_overflow")
            .and_then(Value::as_bool)
            .ok_or("missing tail_pending_overflow")?;
        let profile = ProfileAcc::from_checkpoint_value(
            payload.get("profile").ok_or("missing profile")?,
            job.fuse_config,
        )?
        .with_parser_options(job.parser_options.clone());
        if version_tag == 1 {
            let records = u64_from_value(payload.get("records").ok_or("missing records")?)?;
            if profile.records() != records {
                return Err(format!(
                    "version 1 profile holds {} of {records} records",
                    profile.records()
                ));
            }
        }
        let report =
            ErrorReport::from_checkpoint_value(payload.get("report").ok_or("missing report")?)?;
        let version = opt_u64_from_value(payload.get("version"))?;
        let quarantined = u64_from_value(payload.get("quarantined").ok_or("missing quarantined")?)?;
        let drift = payload
            .get("drift")
            .and_then(Value::as_array)
            .ok_or("missing drift")?
            .iter()
            .map(|d| {
                d.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "non-string drift alert".to_string())
            })
            .collect::<Result<Vec<String>, String>>()?;
        let status = match payload.get("status").and_then(Value::as_str) {
            Some("active") => SourceStatus::Active,
            Some("closed") => SourceStatus::Closed,
            Some("failed") => SourceStatus::Failed(
                payload
                    .get("status_reason")
                    .and_then(Value::as_str)
                    .unwrap_or("unknown failure")
                    .to_string(),
            ),
            other => return Err(format!("bad status {other:?}")),
        };
        let last_activity_ms = opt_u64_from_value(payload.get("last_activity_ms"))?;
        Ok(SourceState {
            profile,
            report,
            lines,
            version,
            drift,
            status,
            quarantined,
            last_activity_ms,
            tail_offset,
            tail_pending,
            tail_pending_overflow,
            ..SourceState::new(name, job, events)
        })
    }

    /// Fold one batch of tailed lines. Returns how many records were
    /// absorbed; `false` activity means nothing changed. A policy
    /// violation (fail-fast bad record, exhausted budget) flips the
    /// source to [`SourceStatus::Failed`] and stops folding — a daemon
    /// must keep serving its other sources.
    pub(crate) fn fold_batch(&mut self, lines: &[TailLine]) -> u64 {
        let mut absorbed = 0u64;
        if !lines.is_empty() {
            self.last_activity_ms = Some(unix_ms());
        }
        for tailed in lines {
            if !self.is_active() {
                break;
            }
            self.lines += 1;
            let (job, profile, line) = (&self.job, &mut self.profile, self.lines);
            let absorb = |text: &str| absorb_profile(job, profile, line, text).map(drop);
            match step(job, line, &tailed.content, tailed.truncated, absorb) {
                Step::Blank => {}
                Step::Folded => absorbed += 1,
                Step::Bad(bad) => self.note_bad(bad),
            }
        }
        if absorbed > 0 {
            let recorder = &self.job.recorder;
            recorder.add("ingest.records", absorbed);
            recorder.add(&self.records_counter, absorbed);
        }
        absorbed
    }

    /// Apply the error policy to one bad record. Mirrors the batch
    /// semantics (`ErrorPolicy::enforce`) but per record, because a
    /// daemon has no "end of run": fail-fast marks the source failed,
    /// skip drops, quarantine appends the record to the sidecar, and an
    /// exhausted `max_errors` budget fails the source.
    fn note_bad(&mut self, bad: BadRecord) {
        let recorder = self.job.recorder.clone();
        recorder.add("ingest.parse_errors", 1);
        if self.job.error_policy.is_fail_fast() {
            self.fail(format!("parse error: {}", bad.error));
            return;
        }
        if let ErrorPolicy::Quarantine { sink, .. } = &self.job.error_policy {
            if let Err(e) = append_quarantine(sink, &bad) {
                let reason = format!("cannot quarantine to {sink:?}: {e}");
                self.fail(reason);
                return;
            }
            recorder.add("ingest.quarantined", 1);
            self.quarantined += 1;
        }
        recorder.add("ingest.skipped", 1);
        self.events.log(
            Level::Warn,
            &self.name,
            "ingest",
            format!("bad record at line {}: {}", bad.at, bad.error),
        );
        self.report.note(bad);
        if let Some(limit) = self.job.error_policy.max_errors() {
            if self.report.skipped() > limit {
                self.fail(format!(
                    "error budget exhausted: {} bad records (limit {limit})",
                    self.report.skipped()
                ));
            }
        }
    }

    /// Flip the source to [`SourceStatus::Failed`] with an error event.
    pub(crate) fn fail(&mut self, reason: String) {
        self.events
            .log(Level::Error, &self.name, "ingest", reason.clone());
        self.status = SourceStatus::Failed(reason);
    }

    /// Publish the current schema as a new registry snapshot and record
    /// drift. Idempotent: an unchanged schema publishes as the existing
    /// version with no new entry and no alert. A compatibility
    /// rejection becomes a drift alert (the feed *did* drift — in a way
    /// the gate forbids) but keeps the source folding.
    pub(crate) fn publish(&mut self, registry: &mut dyn RegistryStore, compat: CompatMode) {
        if *self.schema() == Type::Bottom {
            return;
        }
        let previous = self.version;
        match registry.publish_schema(&self.name, self.profile.schema(), compat) {
            Ok(outcome) => {
                self.version = Some(outcome.version);
                if outcome.unchanged {
                    return;
                }
                self.job.recorder.add("serve.publishes", 1);
                self.events.log(
                    Level::Info,
                    &self.name,
                    "publish",
                    format!("published version {}", outcome.version),
                );
                if let Some(prev) = previous {
                    if let Ok(changes) = registry.changes(&self.name, prev, outcome.version) {
                        self.record_drift(prev, outcome.version, &changes);
                    }
                }
            }
            Err(e) => {
                self.job.recorder.add("serve.publish_rejected", 1);
                let alert = format!("publish rejected ({compat:?}): {e}");
                self.events
                    .log(Level::Warn, &self.name, "publish", alert.clone());
                self.drift.push(alert);
            }
        }
    }

    fn record_drift(&mut self, from: u64, to: u64, changes: &[SchemaChange]) {
        self.job.recorder.add("serve.drift", changes.len() as u64);
        for change in changes {
            let alert = format!("v{from}→v{to}: {change}");
            self.events
                .log(Level::Warn, &self.name, "drift", alert.clone());
            self.drift.push(alert);
        }
    }
}

/// Hex-encode arbitrary bytes (the carried partial line may be invalid
/// UTF-8, so it cannot ride in a JSON string as-is).
pub(crate) fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

pub(crate) fn from_hex(text: &str) -> Result<Vec<u8>, String> {
    if !text.len().is_multiple_of(2) {
        return Err("odd-length hex string".to_string());
    }
    (0..text.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(text.get(i..i + 2).ok_or("non-ascii hex")?, 16)
                .map_err(|e| format!("bad hex byte at {i}: {e}"))
        })
        .collect()
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Append one bad record to the quarantine sidecar as the batch writer
/// would write it, so `typefuse::faults::read_quarantine` replays daemon
/// sidecars too. Appending (instead of the batch writer's truncate) is
/// what a long-running fold needs: each batch must extend, not replace.
fn append_quarantine(sink: &Path, bad: &BadRecord) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(sink)?;
    file.write_all(typefuse::faults::quarantine_line(bad).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use typefuse::pipeline::{MapPath, Source};
    use typefuse::JobConfig;
    use typefuse_json::TailReader;
    use typefuse_obs::Recorder;
    use typefuse_registry::CompatMode;

    /// The line guard the odd-line corpus is folded under.
    const MAX_LINE: usize = 40;

    /// One line of every kind a tail meets, between clean records:
    /// U+00A0 padding (Unicode whitespace the fold trims), non-UTF-8,
    /// oversized (plain and CRLF), malformed (plain, CRLF and padded),
    /// blank and CRLF.
    const ODD_LINES: [&[u8]; 13] = [
        b"{\"a\":1}",
        b"\xc2\xa0{\"b\":null}\xc2\xa0",
        b"{\"bin\":\"\xff\"}",
        b"{\"long\":\"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\"}",
        b"{bad",
        b"",
        b"  \t",
        b"{\"a\":\"s\",\"c\":[1,2]}\r",
        b"\r",
        b"{\"crlf\":\"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\"}\r",
        b"{nope}\r",
        b"\xc2\xa0{oops",
        b"{\"a\":2,\"c\":[]}",
    ];

    /// `lines` as NDJSON bytes, newline after each.
    fn ndjson(lines: &[&[u8]]) -> Vec<u8> {
        lines
            .iter()
            .flat_map(|l| l.iter().chain(b"\n"))
            .copied()
            .collect()
    }

    /// The lines a daemon's tail reader cuts `bytes` into, under the
    /// corpus's line guard.
    fn tail(bytes: &[u8]) -> Vec<TailLine> {
        let mut reader = TailReader::new(bytes).with_max_line_bytes(MAX_LINE);
        let mut out = Vec::new();
        reader.poll(&mut out).unwrap();
        out.extend(reader.take_pending());
        out
    }

    fn lines(texts: &[&str]) -> Vec<TailLine> {
        texts
            .iter()
            .map(|t| TailLine {
                content: t.as_bytes().to_vec(),
                truncated: false,
            })
            .collect()
    }

    fn config(policy: ErrorPolicy) -> JobConfig {
        JobConfig::new()
            .on_error(policy)
            .max_line_bytes(MAX_LINE)
            .recorder(Recorder::enabled())
    }

    fn state_of(job: &SchemaJob) -> SourceState {
        SourceState::new("s", job, EventLog::new(64, Level::Debug))
    }

    fn state(policy: ErrorPolicy) -> SourceState {
        state_of(&config(policy).build())
    }

    fn restore(job: &SchemaJob, payload: &Value) -> Result<SourceState, String> {
        restore_named("s", job, payload)
    }

    fn restore_named(name: &str, job: &SchemaJob, payload: &Value) -> Result<SourceState, String> {
        SourceState::restore(name, job, EventLog::new(64, Level::Debug), payload)
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("typefuse-serve-fold-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.ndjson", std::process::id()))
    }

    /// Fold `input` in every number of polls from one to one per line,
    /// under skip and quarantine, and compare schema, profile, error
    /// report and quarantine sidecar with a profiled batch run over the
    /// same bytes.
    fn assert_serve_matches_batch(map_path: MapPath, input: &[u8]) {
        // One pair of sidecars per map path: tests run in parallel.
        let batch_sink = temp_path(&format!("batch-{map_path:?}"));
        let serve_sink = temp_path(&format!("serve-{map_path:?}"));
        let tailed = tail(input);
        for quarantine in [false, true] {
            let policy = |sink: &Path| match quarantine {
                true => ErrorPolicy::quarantine(sink),
                false => ErrorPolicy::skip(),
            };
            let batch = config(policy(&batch_sink))
                .map_path(map_path)
                .workers(2)
                .build()
                .run_profiled(Source::ndjson(input))
                .unwrap();
            // The daemon creates its sidecar at the first bad record.
            let batch_sidecar = std::fs::read(&batch_sink).unwrap_or_default();
            let job = config(policy(&serve_sink)).map_path(map_path).build();
            for polls in 1..=tailed.len().max(1) {
                let _ = std::fs::remove_file(&serve_sink);
                let mut s = state_of(&job);
                let per_poll = tailed.len().div_ceil(polls).max(1);
                let absorbed: u64 = tailed.chunks(per_poll).map(|c| s.fold_batch(c)).sum();
                let ctx = format!("{map_path:?}, quarantine={quarantine}, {polls} polls");
                assert!(s.is_active(), "{ctx}");
                assert_eq!(s.schema(), &batch.profile.schema, "{ctx}");
                assert_eq!(
                    (s.records(), absorbed),
                    (batch.records, batch.records),
                    "{ctx}"
                );
                assert_eq!(
                    s.profile_report().to_json(),
                    batch.profile.to_json(),
                    "{ctx}"
                );
                assert_eq!(s.report, batch.errors, "{ctx}");
                if quarantine {
                    let sidecar = std::fs::read(&serve_sink).unwrap_or_default();
                    assert_eq!(sidecar, batch_sidecar, "{ctx}");
                }
            }
        }
        let _ = std::fs::remove_file(&batch_sink);
        let _ = std::fs::remove_file(&serve_sink);
    }

    #[test]
    fn incremental_fold_matches_batch_schema() {
        let texts = [r#"{"a": 1}"#, r#"{"a": "x", "b": true}"#, r#"{"b": false}"#];
        let mut s = state(ErrorPolicy::FailFast);
        // Two batches, like two polls of a growing file.
        assert_eq!(s.fold_batch(&lines(&texts[..1])), 1);
        assert_eq!(s.fold_batch(&lines(&texts[1..])), 2);
        let batch = typefuse::JobConfig::new()
            .build()
            .run_ndjson(texts.join("\n").as_bytes())
            .unwrap();
        assert_eq!(s.schema(), &batch.schema);
        assert_eq!(s.records(), 3);

        let clean: Vec<&[u8]> = texts.iter().map(|t| t.as_bytes()).collect();
        assert_serve_matches_batch(MapPath::Events, &ndjson(&clean));
        assert_serve_matches_batch(MapPath::Events, &ndjson(&ODD_LINES));
    }

    #[test]
    fn other_map_paths_fold_matches_batch_schema() {
        // The map path reaches serve through the job: the shape route
        // profiles events like the default, the value route parses trees.
        for map_path in [MapPath::Shape, MapPath::Values] {
            assert_serve_matches_batch(map_path, &ndjson(&ODD_LINES[..1]));
            assert_serve_matches_batch(map_path, &ndjson(&ODD_LINES));
        }
    }

    #[test]
    fn fail_fast_marks_the_source_failed_but_keeps_prior_schema() {
        let mut s = state(ErrorPolicy::FailFast);
        s.fold_batch(&lines(&[r#"{"a": 1}"#, "not json", r#"{"b": 2}"#]));
        assert!(matches!(s.status, SourceStatus::Failed(_)));
        assert_eq!(
            s.schema().to_string(),
            "{a: Num}",
            "folding stopped at the bad line"
        );
    }

    #[test]
    fn skip_policy_drops_bad_records_and_enforces_the_budget() {
        let mut s = state(ErrorPolicy::Skip {
            max_errors: Some(1),
        });
        s.fold_batch(&lines(&[r#"{"a": 1}"#, "bad", r#"{"a": 2}"#]));
        assert!(s.is_active());
        assert_eq!(s.records(), 2);
        assert_eq!(s.report.skipped(), 1);
        s.fold_batch(&lines(&["worse", ""]));
        let counters = s.job.recorder.snapshot().counters;
        assert_eq!(counters["ingest.records"], 2);
        assert_eq!(counters["ingest.records.s"], 2);
        assert_eq!(counters["ingest.skipped"], 2);
        assert!(
            matches!(s.status, SourceStatus::Failed(_)),
            "budget of 1 exhausted"
        );
    }

    #[test]
    fn quarantine_appends_across_batches() {
        let sink = temp_path("quarantine");
        let _ = std::fs::remove_file(&sink);
        let mut s = state(ErrorPolicy::quarantine(&sink));
        s.fold_batch(&lines(&["bad one"]));
        s.fold_batch(&lines(&["bad two"]));
        let replayed = typefuse::faults::read_quarantine(&sink).unwrap();
        std::fs::remove_file(&sink).ok();
        assert_eq!(replayed.len(), 2, "second batch appended, not replaced");
    }

    #[test]
    fn publish_assigns_versions_and_reports_drift() {
        let mut registry = typefuse_registry::MemoryRegistry::new();
        let mut s = state(ErrorPolicy::FailFast);
        s.fold_batch(&lines(&[r#"{"id": 1}"#]));
        s.publish(&mut registry, CompatMode::None);
        assert_eq!(s.version, Some(1));
        assert!(s.drift.is_empty());
        // Same schema again: no new version, no drift.
        s.fold_batch(&lines(&[r#"{"id": 2}"#]));
        s.publish(&mut registry, CompatMode::None);
        assert_eq!(s.version, Some(1));
        assert!(s.drift.is_empty());
        // A new field drifts the schema to v2.
        s.fold_batch(&lines(&[r#"{"id": 3, "tag": "x"}"#]));
        s.publish(&mut registry, CompatMode::None);
        assert_eq!(s.version, Some(2));
        assert!(!s.drift.is_empty());
        assert!(s.drift[0].contains("v1→v2"), "{:?}", s.drift);
    }

    #[test]
    fn folding_emits_structured_events() {
        let mut registry = typefuse_registry::MemoryRegistry::new();
        let mut s = state(ErrorPolicy::Skip {
            max_errors: Some(10),
        });
        s.fold_batch(&lines(&[r#"{"id": 1}"#, "not json"]));
        assert!(s.last_activity_ms.is_some(), "batch stamps activity");
        s.publish(&mut registry, CompatMode::None);
        s.fold_batch(&lines(&[r#"{"id": 2, "tag": "x"}"#]));
        s.publish(&mut registry, CompatMode::None);
        let events = s.events.recent(16);
        assert!(
            events
                .iter()
                .any(|e| e.level == Level::Warn && e.span == "ingest"),
            "bad record warns: {events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| e.level == Level::Info && e.span == "publish"),
            "publish informs: {events:?}"
        );
        assert!(
            events.iter().any(|e| e.level == Level::Warn
                && e.span == "drift"
                && e.message.contains("v1→v2")),
            "drift warns: {events:?}"
        );
    }

    /// Fold `head`, checkpoint, restore, fold `rest`: the resumed state
    /// must equal `full` in schema, records, report and profile.
    fn assert_resume_matches(
        job: &SchemaJob,
        full: &SourceState,
        head: &[TailLine],
        rest: &[TailLine],
    ) -> Result<(), String> {
        let mut before = state_of(job);
        before.fold_batch(head);
        before.sync_tail(17, b"{\"part", false);
        let mut resumed = restore(job, &before.checkpoint_value())?;
        let check = |ok: bool, what: &str| ok.then_some(()).ok_or(what.to_string());
        check(resumed.tail_offset == 17, "tail offset")?;
        check(resumed.tail_pending == b"{\"part", "tail pending")?;
        check(resumed.lines() == before.lines(), "lines")?;
        resumed.fold_batch(rest);
        check(resumed.schema() == full.schema(), "schema")?;
        check(resumed.records() == full.records(), "records")?;
        check(resumed.report == full.report, "report")?;
        check(
            resumed.profile_report().to_json() == full.profile_report().to_json(),
            "profile",
        )
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_for_every_cut() {
        let job = config(ErrorPolicy::Skip {
            max_errors: Some(100),
        })
        .build();
        let tailed = tail(&ndjson(&ODD_LINES));
        let mut full = state_of(&job);
        full.fold_batch(&tailed);
        for cut in 0..=tailed.len() {
            let (head, rest) = tailed.split_at(cut);
            if let Err(what) = assert_resume_matches(&job, &full, head, rest) {
                panic!("{what} differs after a cut at line {cut}");
            }
        }
    }

    // The deterministic every-cut test above pins one corpus; this
    // drives the same byte-identity law over *arbitrary* record streams
    // (valid, malformed and odd lines interleaved) and an arbitrary
    // crash point. This is the exactness guarantee the crash-safe
    // daemon rests on: fusion is a monoid fold, so checkpoint-then-
    // resume is indistinguishable from never having crashed.
    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_line() -> impl Strategy<Value = Vec<u8>> {
            let odd: Vec<Vec<u8>> = ODD_LINES
                .iter()
                .map(|l| l.to_vec())
                .chain(["not json", "[1, 2", "nulll", "\u{1}binary-ish\u{2}"].map(Vec::from))
                .collect();
            prop_oneof![
                // Mostly records; depth/width bounded so 64 cases stay fast.
                3 => typefuse_json::testkit::arb_value_sized(3, 3)
                    .prop_map(|v| typefuse_json::to_string(&v).into_bytes()),
                // A sprinkling of the odd lines a real tail sees.
                1 => prop::sample::select(odd),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn checkpoint_resume_is_byte_identical_at_any_crash_point(
                texts in prop::collection::vec(arb_line(), 0..12),
                cut in any::<prop::sample::Index>(),
            ) {
                let job = config(ErrorPolicy::Skip {
                    max_errors: Some(100),
                })
                .build();
                let refs: Vec<&[u8]> = texts.iter().map(Vec::as_slice).collect();
                let tailed = tail(&ndjson(&refs));
                let (head, rest) = tailed.split_at(cut.index(tailed.len() + 1));
                let mut full = state_of(&job);
                full.fold_batch(&tailed);
                prop_assert_eq!(assert_resume_matches(&job, &full, head, rest), Ok(()));
            }
        }
    }

    #[test]
    fn checkpoint_restore_rejects_foreign_and_malformed_payloads() {
        let job = config(ErrorPolicy::FailFast).build();
        let mut s = state_of(&job);
        s.fold_batch(&lines(&[r#"{"a": 1}"#]));
        let payload = s.checkpoint_value();
        match restore_named("other", &job, &payload) {
            Err(message) => assert!(message.contains("belongs to source"), "{message}"),
            Ok(_) => panic!("foreign checkpoint accepted"),
        }
        assert!(restore(&job, &Value::Object(Map::new())).is_err());
        assert!(restore(&job, &payload).is_ok());
        let mut future = payload.clone();
        if let Value::Object(m) = &mut future {
            m.insert("v", Value::from(3i64));
        }
        assert!(restore(&job, &future).is_err());
    }

    /// The fixture's records, as folded by the daemon that wrote it.
    const V1_LINES: [&str; 4] = [
        r#"{"id": 1, "tags": ["a"]}"#,
        "not json",
        r#"{"id": 2, "name": "x", "tags": ["b", 3]}"#,
        r#"{"id": 3.5, "nested": {"k": null}}"#,
    ];

    fn v1_payload(fixture: &str) -> Value {
        typefuse_json::parse_value(fixture.trim()).unwrap()
    }

    #[test]
    fn version_1_checkpoint_restores_byte_identically() {
        // Written by a daemon that kept the schema and record count
        // beside the profile (the default events route, dedup on).
        let payload = v1_payload(include_str!("../tests/fixtures/checkpoint_v1_events.json"));
        let job = config(ErrorPolicy::Skip {
            max_errors: Some(10),
        })
        .build();
        let mut resumed = restore_named("events", &job, &payload).unwrap();
        let mut fresh = SourceState::new("events", &job, EventLog::new(64, Level::Debug));
        fresh.fold_batch(&lines(&V1_LINES));
        fresh.sync_tail(140, b"{\"id\": 4", false);
        fresh.last_activity_ms = resumed.last_activity_ms;
        assert_eq!(
            typefuse_json::to_string(&resumed.checkpoint_value()),
            typefuse_json::to_string(&fresh.checkpoint_value()),
            "the v1 state re-checkpoints as the v2 state of the same fold"
        );
        let more = lines(&[r#"{"id": 4, "tags": []}"#, r#"{"name": null}"#]);
        resumed.fold_batch(&more);
        fresh.fold_batch(&more);
        assert_eq!(resumed.schema(), fresh.schema());
        assert_eq!(
            resumed.profile_report().to_json(),
            fresh.profile_report().to_json()
        );
        assert_eq!(resumed.report, fresh.report);
    }

    #[test]
    fn version_1_shape_route_checkpoint_is_unusable() {
        // The removed shape route left the profile empty beside a schema
        // of 3 records: restoring it would serve a wrong profile.
        let payload = v1_payload(include_str!("../tests/fixtures/checkpoint_v1_shape.json"));
        let job = config(ErrorPolicy::skip()).build();
        let error = restore_named("events", &job, &payload)
            .err()
            .expect("unusable");
        assert!(error.contains("0 of 3 records"), "{error}");
    }

    #[test]
    fn hex_round_trips_arbitrary_bytes() {
        let bytes: Vec<u8> = (0..=255u8).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }

    #[test]
    fn failed_status_survives_the_checkpoint_round_trip() {
        let job = config(ErrorPolicy::FailFast).build();
        let mut s = state_of(&job);
        s.fold_batch(&lines(&[r#"{"a": 1}"#, "boom"]));
        assert!(matches!(s.status, SourceStatus::Failed(_)));
        let resumed = restore(&job, &s.checkpoint_value()).unwrap();
        assert_eq!(resumed.status, s.status, "a parked source stays parked");
        assert_eq!(resumed.schema().to_string(), "{a: Num}");
    }

    #[test]
    fn compat_rejection_becomes_a_drift_alert_and_folding_continues() {
        let mut registry = typefuse_registry::MemoryRegistry::new();
        let mut s = state(ErrorPolicy::FailFast);
        s.fold_batch(&lines(&[r#"{"id": 1, "name": "a"}"#]));
        s.publish(&mut registry, CompatMode::Backward);
        assert_eq!(s.version, Some(1));
        // Numbers joining a string field breaks backward compatibility
        // for readers of v1? No — widening admits more. Force a reject
        // by switching the whole record shape through Forward mode:
        // new <: old must fail once a mandatory field appears.
        s.fold_batch(&lines(&[r#"{"id": 2, "name": "b", "extra": true}"#]));
        s.publish(&mut registry, CompatMode::Forward);
        assert_eq!(s.version, Some(1), "rejected publish keeps the old version");
        assert!(s.drift.iter().any(|d| d.contains("publish rejected")));
        assert!(s.is_active());
    }
}
