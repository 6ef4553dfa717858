//! Fault-tolerant ingestion: error policies, the mergeable
//! [`ErrorReport`] monoid, and quarantine sidecars.
//!
//! The paper's premise is *massive* real-world JSON (Section 6), and at
//! that scale dirty data is the norm. Because the paper's fusion is
//! commutative and associative (Theorem 5.5), skipping or quarantining
//! one record is a purely *local* decision: removing a record from any
//! partition yields exactly the schema of the clean subset, regardless
//! of how the input was partitioned. The [`ErrorPolicy`] on
//! `SchemaJob` exploits this, and the [`ErrorReport`] collected along
//! the way is itself a commutative monoid — like the fused types — so
//! the reported errors are byte-identical across worker counts, map
//! paths, and dedup settings.
//!
//! * [`ErrorPolicy::FailFast`] — stop at the earliest bad record
//!   (default; byte-identical to the pre-policy behaviour).
//! * [`ErrorPolicy::Skip`] — drop bad records, subject to a
//!   deterministic error budget evaluated *after* merging (so a budget
//!   decision never depends on partitioning).
//! * [`ErrorPolicy::Quarantine`] — like `Skip`, but every bad line is
//!   written with its position and error to a sidecar NDJSON file for
//!   later repair; [`read_quarantine`] replays the sidecar.

use std::cmp::Ordering;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};

use typefuse_json::{Map, Value};

pub use typefuse_json::RetryPolicy;

/// How the ingestion pipeline treats records that fail to parse.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ErrorPolicy {
    /// Abort the run at the earliest bad record (in input order).
    #[default]
    FailFast,
    /// Drop bad records and keep going. With `max_errors: Some(k)`,
    /// more than `k` bad records fail the run with
    /// [`Error::Budget`](crate::Error::Budget); the budget is checked
    /// after merging all partitions, so the outcome is independent of
    /// worker count and partitioning.
    Skip {
        /// Maximum tolerated bad records (`None` = unlimited).
        max_errors: Option<u64>,
    },
    /// Like `Skip`, but write each bad record's text, position and
    /// error to a sidecar NDJSON file.
    Quarantine {
        /// Path of the sidecar NDJSON file (overwritten per run).
        sink: PathBuf,
        /// Maximum tolerated bad records (`None` = unlimited).
        max_errors: Option<u64>,
    },
}

impl ErrorPolicy {
    /// `Skip` with an unlimited budget.
    pub fn skip() -> Self {
        ErrorPolicy::Skip { max_errors: None }
    }

    /// `Quarantine` into `sink` with an unlimited budget.
    pub fn quarantine(sink: impl Into<PathBuf>) -> Self {
        ErrorPolicy::Quarantine {
            sink: sink.into(),
            max_errors: None,
        }
    }

    /// Whether this is the fail-fast policy.
    pub fn is_fail_fast(&self) -> bool {
        matches!(self, ErrorPolicy::FailFast)
    }

    /// The configured error budget, if any.
    pub fn max_errors(&self) -> Option<u64> {
        match self {
            ErrorPolicy::FailFast => None,
            ErrorPolicy::Skip { max_errors } => *max_errors,
            ErrorPolicy::Quarantine { max_errors, .. } => *max_errors,
        }
    }

    /// Whether bad-record text must be retained (quarantine writes it
    /// to the sidecar; skip and fail-fast don't need it).
    pub fn keeps_text(&self) -> bool {
        matches!(self, ErrorPolicy::Quarantine { .. })
    }

    /// Apply this policy to a fully merged report: fail fast on the
    /// earliest bad record, or count skips (`ingest.skipped`), write the
    /// quarantine sidecar (`ingest.quarantined`) and enforce the error
    /// budget. Called once per run *after* all partitions merged, so the
    /// outcome never depends on partitioning.
    pub fn enforce(
        &self,
        report: &ErrorReport,
        rec: &typefuse_obs::Recorder,
    ) -> Result<(), crate::Error> {
        match self {
            ErrorPolicy::FailFast => match report.first() {
                None => Ok(()),
                Some(bad) => Err(crate::Error::Parse(bad.error.clone())),
            },
            ErrorPolicy::Skip { max_errors } => {
                rec.add("ingest.skipped", report.skipped());
                check_budget(report, *max_errors)
            }
            ErrorPolicy::Quarantine { sink, max_errors } => {
                let written = write_quarantine(sink, report)?;
                rec.add("ingest.quarantined", written);
                rec.add("ingest.skipped", report.skipped());
                check_budget(report, *max_errors)
            }
        }
    }
}

fn check_budget(report: &ErrorReport, limit: Option<u64>) -> Result<(), crate::Error> {
    match limit {
        Some(limit) if report.skipped() > limit => Err(crate::Error::Budget {
            errors: report.skipped(),
            limit,
            first: Box::new(
                report
                    .first()
                    .expect("over-budget report is non-empty")
                    .error
                    .clone(),
            ),
        }),
        _ => Ok(()),
    }
}

/// One record that failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRecord {
    /// Input-order coordinate: the 1-based line number for NDJSON
    /// streams, the absolute byte offset for split file reads. Total
    /// input order is what makes merged reports deterministic.
    pub at: u64,
    /// What went wrong.
    pub error: typefuse_json::Error,
    /// The offending line's text, when the policy keeps it (lossy
    /// UTF-8; capped by the line-size guard).
    pub text: Option<String>,
}

/// How many bad records a report retains verbatim; beyond this only the
/// `skipped` tally grows. 100k errors at ~100 bytes each bounds report
/// memory at ~10 MB however dirty a 22 GB input turns out to be.
pub const MAX_KEPT: usize = 100_000;

/// A mergeable, commutative summary of every record a run skipped or
/// quarantined.
///
/// `ErrorReport` is a monoid under [`merge`](ErrorReport::merge) with
/// [`ErrorReport::default`] as identity: records are kept sorted by
/// input position (ties broken by error text), deduplicated, and
/// truncated to the [`MAX_KEPT`] *smallest* positions. Keeping the
/// smallest makes truncation associative — any merge order converges on
/// the same earliest-K records — so reports are byte-identical across
/// worker counts and partitionings, exactly like the fused schema
/// itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ErrorReport {
    records: Vec<BadRecord>,
    skipped: u64,
}

impl ErrorReport {
    /// An empty report (the monoid identity).
    pub fn new() -> Self {
        ErrorReport::default()
    }

    /// Record one bad record. The report stays normalized without a
    /// re-sort: one binary search finds where the record lands, so notes
    /// arriving in input order (every fold's case) cost O(log n) each.
    pub fn note(&mut self, record: BadRecord) {
        self.skipped += 1;
        // Past every kept record with an equal or smaller key, as a
        // stable sort would place it.
        let at = self
            .records
            .partition_point(|kept| order(kept, &record) != Ordering::Greater);
        let duplicate = at > 0 && {
            let prev = &self.records[at - 1];
            order(prev, &record) == Ordering::Equal && same(prev, &record)
        };
        if duplicate || at >= MAX_KEPT {
            return;
        }
        self.records.insert(at, record);
        self.records.truncate(MAX_KEPT);
    }

    /// Merge another report into this one. Commutative and associative:
    /// both operand orders and any grouping yield the same report.
    pub fn merge(&mut self, other: &ErrorReport) {
        self.skipped += other.skipped;
        self.records.extend(other.records.iter().cloned());
        self.normalize();
    }

    fn normalize(&mut self) {
        self.records.sort_by(order);
        self.records.dedup_by(|a, b| same(a, b));
        self.records.truncate(MAX_KEPT);
    }

    /// Reconstruct a report from checkpointed parts. The records are
    /// re-normalized, so a round trip through
    /// [`checkpoint_value`](ErrorReport::checkpoint_value) is exact.
    pub fn from_parts(records: Vec<BadRecord>, skipped: u64) -> Self {
        let mut report = ErrorReport { records, skipped };
        report.normalize();
        report
    }

    /// Serialize for a crash-recovery checkpoint: every retained record
    /// with its exact error (kind + span, via
    /// [`typefuse_json::codec`]) plus the skip tally. Unlike the
    /// quarantine sidecar this round-trips losslessly —
    /// [`from_checkpoint_value`](ErrorReport::from_checkpoint_value)
    /// restores a `==`-identical report.
    pub fn checkpoint_value(&self) -> Value {
        use typefuse_json::codec::{error_to_value, u64_to_value};
        let mut obj = Map::new();
        obj.insert("skipped", u64_to_value(self.skipped));
        let records: Vec<Value> = self
            .records
            .iter()
            .map(|bad| {
                let mut entry = Map::new();
                entry.insert("at", u64_to_value(bad.at));
                entry.insert("error", error_to_value(&bad.error));
                if let Some(text) = &bad.text {
                    entry.insert("text", Value::from(text.clone()));
                }
                Value::Object(entry)
            })
            .collect();
        obj.insert("records", Value::Array(records));
        Value::Object(obj)
    }

    /// Restore a report serialized by
    /// [`checkpoint_value`](ErrorReport::checkpoint_value).
    pub fn from_checkpoint_value(v: &Value) -> Result<Self, String> {
        use typefuse_json::codec::{error_from_value, u64_from_value};
        let skipped = v
            .get("skipped")
            .ok_or_else(|| "report missing `skipped`".to_string())
            .and_then(u64_from_value)?;
        let entries = v
            .get("records")
            .and_then(Value::as_array)
            .ok_or_else(|| "report missing `records`".to_string())?;
        let mut records = Vec::with_capacity(entries.len());
        for entry in entries {
            let at = entry
                .get("at")
                .ok_or_else(|| "bad record missing `at`".to_string())
                .and_then(u64_from_value)?;
            let error = entry
                .get("error")
                .ok_or_else(|| "bad record missing `error`".to_string())
                .and_then(error_from_value)?;
            let text = entry.get("text").and_then(Value::as_str).map(String::from);
            records.push(BadRecord { at, error, text });
        }
        Ok(ErrorReport::from_parts(records, skipped))
    }

    /// The earliest bad record, if any.
    pub fn first(&self) -> Option<&BadRecord> {
        self.records.first()
    }

    /// Total number of records skipped (may exceed `records().len()`
    /// once [`MAX_KEPT`] is reached).
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// The retained bad records, sorted by input position.
    pub fn records(&self) -> &[BadRecord] {
        &self.records
    }

    /// Whether no record was skipped.
    pub fn is_empty(&self) -> bool {
        self.skipped == 0
    }
}

/// The report order: input position, then error text, then line text.
/// The error is rendered only to break a tie on position, which only
/// merging two reports of the same input produces.
fn order(a: &BadRecord, b: &BadRecord) -> Ordering {
    a.at.cmp(&b.at)
        .then_with(|| a.error.to_string().cmp(&b.error.to_string()))
        .then_with(|| a.text.cmp(&b.text))
}

fn same(a: &BadRecord, b: &BadRecord) -> bool {
    a.at == b.at && a.error == b.error && a.text == b.text
}

/// One quarantine sidecar line: an NDJSON object with `at`, `error`,
/// and (when retained) `text` fields, newline included.
pub fn quarantine_line(bad: &BadRecord) -> String {
    let mut obj = Map::new();
    obj.insert("at", Value::from(bad.at as i64));
    obj.insert("error", Value::from(bad.error.to_string()));
    if let Some(text) = &bad.text {
        obj.insert("text", Value::from(text.clone()));
    }
    let mut line = typefuse_json::to_string(&Value::Object(obj));
    line.push('\n');
    line
}

/// Write a report's bad records as a quarantine sidecar, one
/// [`quarantine_line`] per record. Returns the number of records
/// written.
pub fn write_quarantine(path: &Path, report: &ErrorReport) -> std::io::Result<u64> {
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    let mut written = 0u64;
    for bad in report.records() {
        out.write_all(quarantine_line(bad).as_bytes())?;
        written += 1;
    }
    out.flush()?;
    Ok(written)
}

/// Replay a quarantine sidecar written by [`write_quarantine`]: parse
/// each entry back into a [`BadRecord`] stub (`error` is re-parsed as
/// an opaque I/O-kind error carrying the original message, since error
/// kinds don't round-trip through text).
pub fn read_quarantine(path: &Path) -> std::io::Result<Vec<(u64, String, Option<String>)>> {
    let file = std::fs::File::open(path)?;
    let reader = std::io::BufReader::new(file);
    let mut entries = Vec::new();
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let v = typefuse_json::parse_value(&line)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let at = match v.get("at") {
            Some(Value::Number(n)) => n.as_f64() as u64,
            _ => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "quarantine entry missing numeric `at`",
                ))
            }
        };
        let error = match v.get("error") {
            Some(Value::String(s)) => s.clone(),
            _ => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "quarantine entry missing `error`",
                ))
            }
        };
        let text = match v.get("text") {
            Some(Value::String(s)) => Some(s.clone()),
            _ => None,
        };
        entries.push((at, error, text));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use typefuse_json::parse_value;

    fn bad(at: u64, input: &str) -> BadRecord {
        BadRecord {
            at,
            error: parse_value(input).unwrap_err(),
            text: Some(input.to_string()),
        }
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = ErrorReport::new();
        a.note(bad(5, "{x"));
        a.note(bad(2, "[1,"));
        let mut b = ErrorReport::new();
        b.note(bad(9, "nul"));
        b.note(bad(1, "}"));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.skipped(), 4);
        assert_eq!(
            ab.records().iter().map(|r| r.at).collect::<Vec<_>>(),
            vec![1, 2, 5, 9]
        );
    }

    #[test]
    fn merge_is_associative_with_identity() {
        let mut a = ErrorReport::new();
        a.note(bad(3, "{x"));
        let mut b = ErrorReport::new();
        b.note(bad(1, "}"));
        let mut c = ErrorReport::new();
        c.note(bad(7, "tru"));

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);

        let mut with_identity = a.clone();
        with_identity.merge(&ErrorReport::new());
        assert_eq!(with_identity, a);
    }

    #[test]
    fn duplicate_notes_dedup_but_count() {
        let mut a = ErrorReport::new();
        a.note(bad(4, "{x"));
        let mut b = a.clone();
        b.merge(&a);
        // The same (position, error, text) triple is one retained
        // record, but both sightings count towards the tally.
        assert_eq!(b.records().len(), 1);
        assert_eq!(b.skipped(), 2);
    }

    #[test]
    fn first_is_the_earliest_position() {
        let mut r = ErrorReport::new();
        r.note(bad(100, "{x"));
        r.note(bad(7, "}"));
        assert_eq!(r.first().unwrap().at, 7);
        assert!(!r.is_empty());
        assert!(ErrorReport::new().is_empty());
    }

    #[test]
    fn checkpoint_value_round_trips_identically() {
        let mut r = ErrorReport::new();
        r.note(bad(3, "{\"a\": nul}"));
        r.note(bad(12, "[1, 2,"));
        r.note(BadRecord {
            at: 40,
            error: parse_value("}").unwrap_err(),
            text: None,
        });
        // Skip tally beyond the retained records (as after MAX_KEPT).
        let r = ErrorReport::from_parts(r.records().to_vec(), 17);
        let value = r.checkpoint_value();
        let reparsed = parse_value(&value.to_string()).unwrap();
        let back = ErrorReport::from_checkpoint_value(&reparsed).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.skipped(), 17);
        assert!(ErrorReport::from_checkpoint_value(&parse_value("{}").unwrap()).is_err());
    }

    #[test]
    fn quarantine_round_trip() {
        let dir = std::env::temp_dir().join("typefuse-faults-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quarantine-round-trip.ndjson");
        let mut r = ErrorReport::new();
        r.note(bad(3, "{\"a\": nul}"));
        r.note(bad(12, "[1, 2,"));
        let written = write_quarantine(&path, &r).unwrap();
        assert_eq!(written, 2);
        let back = read_quarantine(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, 3);
        assert_eq!(back[1].0, 12);
        assert_eq!(back[1].2.as_deref(), Some("[1, 2,"));
        assert!(back[0].1.contains("invalid literal"), "{}", back[0].1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn notes_past_max_kept_keep_the_earliest_positions() {
        // Pairs arrive swapped (1, 0, 3, 2, ...) and every tenth record
        // is noted twice, so both the insert and the dedup path run.
        let total = MAX_KEPT as u64 + 2_000;
        let error = parse_value("{x").unwrap_err();
        let note = |r: &mut ErrorReport, at: u64| {
            r.note(BadRecord {
                at,
                error: error.clone(),
                text: None,
            })
        };
        let mut report = ErrorReport::new();
        let mut notes = 0u64;
        for i in 0..total {
            note(&mut report, i ^ 1);
            notes += 1;
            if i % 10 == 0 {
                note(&mut report, i ^ 1);
                notes += 1;
            }
        }
        assert_eq!(report.skipped(), notes);
        let kept: Vec<u64> = report.records().iter().map(|r| r.at).collect();
        assert_eq!(kept, (0..MAX_KEPT as u64).collect::<Vec<_>>());
        // A merge normalizes to the same kept set.
        let mut merged = ErrorReport::new();
        merged.merge(&report);
        assert_eq!(merged, report);
    }

    #[test]
    fn policy_accessors() {
        assert!(ErrorPolicy::default().is_fail_fast());
        assert_eq!(ErrorPolicy::skip().max_errors(), None);
        assert!(!ErrorPolicy::skip().keeps_text());
        let q = ErrorPolicy::Quarantine {
            sink: PathBuf::from("q.ndjson"),
            max_errors: Some(5),
        };
        assert!(q.keeps_text());
        assert_eq!(q.max_errors(), Some(5));
    }
}
