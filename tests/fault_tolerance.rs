//! Fault-tolerant ingestion, end to end: error policies, quarantine,
//! retries, panic isolation — driven by the `typefuse-json` testkit's
//! fault-injection harness.
//!
//! The load-bearing property throughout: because fusion is commutative
//! and associative (Theorem 5.5), dropping a bad record is a local
//! decision — a corpus with k bad lines under `Skip`/`Quarantine`
//! yields *exactly* the schema of the clean subset alone, for every
//! worker count and map path.

use std::io::BufReader;

use proptest::prelude::*;
use typefuse::faults::read_quarantine;
use typefuse::json::testkit::{Fault, FaultyReader};
use typefuse::prelude::*;
use typefuse::{BadRecord, Error, IoSite};
use typefuse_json::{ErrorKind, Position};

/// A dirty corpus and its clean subset.
fn dirty_corpus(records: usize, bad_every: usize) -> (String, String, u64) {
    let mut dirty = String::new();
    let mut clean = String::new();
    let mut bad = 0;
    for i in 0..records {
        if i % bad_every == bad_every - 1 {
            dirty.push_str("{definitely not json\n");
            bad += 1;
        } else {
            let line = format!(
                "{{\"id\":{i},\"name\":\"u{i}\",\"tags\":[{}],\"active\":{}}}\n",
                i % 3,
                i % 2 == 0
            );
            dirty.push_str(&line);
            clean.push_str(&line);
        }
    }
    (dirty, clean, bad)
}

fn job(workers: usize, map_path: MapPath) -> JobConfig {
    JobConfig::new()
        .workers(workers)
        .map_path(map_path)
        .without_type_stats()
}

#[test]
fn skip_matches_the_clean_subset_across_the_whole_matrix() {
    let (dirty, clean, bad) = dirty_corpus(120, 7);
    let mut reference = None;
    for workers in [1, 2, 4] {
        for map_path in [MapPath::Events, MapPath::Values, MapPath::Shape] {
            let label = format!("workers={workers} map_path={map_path:?}");
            let expect = job(workers, map_path)
                .build()
                .run(Source::ndjson(clean.as_bytes()))
                .unwrap_or_else(|e| panic!("{label}: clean run failed: {e}"));
            let got = job(workers, map_path)
                .on_error(ErrorPolicy::skip())
                .build()
                .run(Source::ndjson(dirty.as_bytes()))
                .unwrap_or_else(|e| panic!("{label}: dirty run failed: {e}"));
            assert_eq!(got.schema, expect.schema, "{label}");
            assert_eq!(got.records, expect.records, "{label}");
            assert_eq!(got.errors.skipped(), bad, "{label}");
            // The error report itself is a monoid: byte-identical
            // across every configuration.
            match &reference {
                None => reference = Some(got.errors.clone()),
                Some(r) => assert_eq!(&got.errors, r, "{label}"),
            }
        }
    }
}

#[test]
fn fail_fast_is_the_default_and_stops_at_the_earliest_line() {
    let (dirty, _, _) = dirty_corpus(40, 5);
    for workers in [1, 4] {
        let err = JobConfig::new()
            .workers(workers)
            .build()
            .run(Source::ndjson(dirty.as_bytes()))
            .unwrap_err();
        match err {
            Error::Parse(e) => assert_eq!(e.span().start.line, 5, "earliest bad line wins"),
            other => panic!("expected a parse error, got {other}"),
        }
    }
}

#[test]
fn budget_boundary_is_exact_and_partition_independent() {
    let (dirty, _, bad) = dirty_corpus(90, 9);
    for workers in [1, 3, 8] {
        let under = JobConfig::new()
            .workers(workers)
            .on_error(ErrorPolicy::Skip {
                max_errors: Some(bad),
            })
            .build()
            .run(Source::ndjson(dirty.as_bytes()));
        assert!(under.is_ok(), "budget == errors passes (workers={workers})");

        let over = JobConfig::new()
            .workers(workers)
            .on_error(ErrorPolicy::Skip {
                max_errors: Some(bad - 1),
            })
            .build()
            .run(Source::ndjson(dirty.as_bytes()))
            .unwrap_err();
        match over {
            Error::Budget { errors, limit, .. } => {
                assert_eq!(errors, bad);
                assert_eq!(limit, bad - 1);
            }
            other => panic!("expected a budget error, got {other}"),
        }
    }
}

#[test]
fn quarantine_sidecar_is_identical_across_worker_counts_and_replays() {
    let (dirty, _, bad) = dirty_corpus(80, 8);
    let dir = std::env::temp_dir().join("typefuse-fault-tolerance");
    std::fs::create_dir_all(&dir).unwrap();
    let mut sidecars = Vec::new();
    for workers in [1, 4] {
        let sink = dir.join(format!("quarantine-w{workers}.ndjson"));
        let rec = Recorder::enabled();
        let result = JobConfig::new()
            .workers(workers)
            .recorder(rec.clone())
            .on_error(ErrorPolicy::quarantine(&sink))
            .build()
            .run(Source::ndjson(dirty.as_bytes()))
            .unwrap();
        assert_eq!(result.errors.skipped(), bad);
        let report = rec.snapshot();
        assert_eq!(report.counters["ingest.skipped"], bad);
        assert_eq!(report.counters["ingest.quarantined"], bad);
        // Replaying the sidecar recovers exactly the skipped records.
        let entries = read_quarantine(&sink).unwrap();
        assert_eq!(entries.len() as u64, bad);
        for (_, error, text) in &entries {
            assert!(!error.is_empty());
            assert_eq!(text.as_deref(), Some("{definitely not json"));
        }
        sidecars.push(std::fs::read(&sink).unwrap());
        std::fs::remove_file(&sink).ok();
    }
    assert_eq!(sidecars[0], sidecars[1], "sidecar bytes are deterministic");
}

#[test]
fn truncated_final_line_with_and_without_newline() {
    // A final line that is valid JSON parses whether or not the stream
    // ends in a newline; a *cut-off* final record is an error —
    // fail-fast aborts, skip drops exactly that record.
    for map_path in [MapPath::Events, MapPath::Values] {
        for tail_newline in [true, false] {
            let mut good = String::from("{\"a\":1}\n{\"a\":2,\"b\":\"x\"}");
            if tail_newline {
                good.push('\n');
            }
            let result = job(2, map_path)
                .build()
                .run(Source::ndjson(good.as_bytes()))
                .unwrap();
            assert_eq!(result.records, 2, "{map_path:?} newline={tail_newline}");

            let mut cut = String::from("{\"a\":1}\n{\"a\":2,\"b\":");
            if tail_newline {
                cut.push('\n');
            }
            let err = job(2, map_path)
                .build()
                .run(Source::ndjson(cut.as_bytes()))
                .unwrap_err();
            assert!(
                matches!(err, Error::Parse(_)),
                "{map_path:?} newline={tail_newline}: {err}"
            );

            let skipped = job(2, map_path)
                .on_error(ErrorPolicy::skip())
                .build()
                .run(Source::ndjson(cut.as_bytes()))
                .unwrap();
            assert_eq!(skipped.records, 1);
            assert_eq!(skipped.errors.skipped(), 1);
            assert_eq!(skipped.errors.first().unwrap().at, 2);
        }
    }
}

#[test]
fn injected_worker_panic_surfaces_as_an_error_not_an_abort() {
    let (dirty, _, _) = dirty_corpus(64, 1000); // all clean
    for map_path in [MapPath::Events, MapPath::Values] {
        let rec = Recorder::enabled();
        let err = JobConfig::new()
            .workers(4)
            .map_path(map_path)
            .recorder(rec.clone())
            .chaos_panic_at(17)
            .build()
            .run(Source::ndjson(dirty.as_bytes()))
            .unwrap_err();
        match &err {
            Error::Worker(p) => {
                assert!(p.message.contains("injected chaos panic at line 17"), "{p}");
            }
            other => panic!("{map_path:?}: expected Error::Worker, got {other}"),
        }
        assert!(err.is_worker());
        assert!(rec.snapshot().counters["ingest.worker_panics"] >= 1);
    }
}

#[test]
fn transient_read_faults_are_retried_to_success() {
    let data = "{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n";
    let rec = Recorder::enabled();
    let reader = FaultyReader::new(
        data.as_bytes(),
        vec![
            Fault::TransientAt {
                offset: 8,
                kind: std::io::ErrorKind::Interrupted,
                times: 2,
            },
            Fault::TransientAt {
                offset: 16,
                kind: std::io::ErrorKind::WouldBlock,
                times: 1,
            },
        ],
    );
    let result = JobConfig::new()
        .recorder(rec.clone())
        .retry(RetryPolicy::default())
        .build()
        .run(Source::ndjson(BufReader::new(reader)))
        .unwrap();
    assert_eq!(result.records, 3);
    assert_eq!(rec.snapshot().counters["ingest.retries"], 3);
}

#[test]
fn exhausted_retries_surface_as_io_with_the_line() {
    let data = "{\"a\":1}\n{\"a\":2}\n";
    let reader = FaultyReader::new(
        data.as_bytes(),
        vec![Fault::TransientAt {
            offset: 8,
            kind: std::io::ErrorKind::Interrupted,
            times: 100,
        }],
    );
    let err = JobConfig::new()
        .retry(RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        })
        .build()
        .run(Source::ndjson(BufReader::new(reader)))
        .unwrap_err();
    assert!(err.is_io(), "{err}");
    assert!(err.to_string().contains("line 2"), "{err}");
}

#[test]
fn permanent_read_faults_are_io_errors_under_every_policy() {
    let data = "{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n";
    for policy in [ErrorPolicy::FailFast, ErrorPolicy::skip()] {
        let reader = FaultyReader::new(
            data.as_bytes(),
            vec![Fault::FailAt {
                offset: 12,
                kind: std::io::ErrorKind::ConnectionReset,
            }],
        );
        let err = JobConfig::new()
            .on_error(policy.clone())
            .build()
            .run(Source::ndjson(BufReader::new(reader)))
            .unwrap_err();
        assert!(err.is_io(), "{policy:?}: {err}");
    }
}

#[test]
fn corrupt_bytes_and_truncation_degrade_per_policy() {
    let data = "{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n";
    // Corrupt one byte inside record 2: `{"a"X2}` is a parse error.
    let corrupted = || {
        FaultyReader::new(
            data.as_bytes(),
            vec![Fault::CorruptByte {
                offset: 12,
                byte: b'X',
            }],
        )
    };
    let err = SchemaJob::new()
        .run(Source::ndjson(BufReader::new(corrupted())))
        .unwrap_err();
    assert!(matches!(err, Error::Parse(_)), "{err}");

    let result = JobConfig::new()
        .on_error(ErrorPolicy::skip())
        .build()
        .run(Source::ndjson(BufReader::new(corrupted())))
        .unwrap();
    assert_eq!(result.records, 2);
    assert_eq!(result.errors.first().unwrap().at, 2);

    // Truncate the stream mid-record: the torn tail is one bad record.
    let truncated = FaultyReader::new(data.as_bytes(), vec![Fault::TruncateAt { offset: 12 }]);
    let result = JobConfig::new()
        .on_error(ErrorPolicy::skip())
        .build()
        .run(Source::ndjson(BufReader::new(truncated)))
        .unwrap();
    assert_eq!(result.records, 1);
    assert_eq!(result.errors.skipped(), 1);
}

#[test]
fn short_reads_change_nothing() {
    let (dirty, clean, _) = dirty_corpus(50, 6);
    let expect = SchemaJob::new()
        .run(Source::ndjson(clean.as_bytes()))
        .unwrap();
    let reader = FaultyReader::new(dirty.as_bytes(), vec![Fault::ShortReads { max: 3 }]);
    let got = JobConfig::new()
        .on_error(ErrorPolicy::skip())
        .build()
        .run(Source::ndjson(BufReader::new(reader)))
        .unwrap();
    assert_eq!(got.schema, expect.schema);
}

#[test]
fn oversized_lines_follow_the_policy() {
    let data = "{\"a\":1}\n{\"pad\":\"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\"}\n{\"a\":2}\n";
    let err = JobConfig::new()
        .max_line_bytes(32)
        .build()
        .run(Source::ndjson(data.as_bytes()))
        .unwrap_err();
    assert!(err.to_string().contains("line-size guard"), "{err}");

    let result = JobConfig::new()
        .max_line_bytes(32)
        .on_error(ErrorPolicy::skip())
        .build()
        .run(Source::ndjson(data.as_bytes()))
        .unwrap();
    assert_eq!(result.records, 2);
    assert_eq!(result.errors.skipped(), 1);
    assert_eq!(result.errors.first().unwrap().at, 2);
}

#[test]
fn io_site_formats_all_coordinates() {
    let err = Error::io_at(
        std::io::Error::other("boom"),
        IoSite::offset(123).in_split(4),
    );
    let msg = err.to_string();
    assert!(msg.contains("byte 123") && msg.contains("split 4"), "{msg}");
}

/// A corpus with every kind of bad record the ingest guards produce —
/// malformed (every 9th line), deeper than 3 levels (every 11th) and
/// longer than 120 bytes (every 13th) — plus the same corpus with the
/// bad lines blanked, which keeps every good record on its line.
fn guarded_corpus() -> (String, String, u64) {
    let mut dirty = String::new();
    let mut blanked = String::new();
    let mut bad = 0;
    for i in 1..=150u64 {
        let line = if i % 9 == 0 {
            "{\"id\": nope".to_string()
        } else if i % 11 == 0 {
            format!("{{\"id\":{i},\"deep\":{{\"a\":{{\"b\":{{\"c\":1}}}}}}}}")
        } else if i % 13 == 0 {
            format!("{{\"id\":{i},\"pad\":\"{}\"}}", "x".repeat(150))
        } else {
            format!(
                "{{\"id\":{i},\"tags\":[{}],\"m\":{{\"k\":{}}}}}",
                i % 4,
                if i % 3 == 0 { "null" } else { "\"v\"" }
            )
        };
        let is_bad = i % 9 == 0 || i % 11 == 0 || i % 13 == 0;
        dirty.push_str(&line);
        dirty.push('\n');
        if is_bad {
            bad += 1;
        } else {
            blanked.push_str(&line);
        }
        blanked.push('\n');
    }
    (dirty, blanked, bad)
}

#[test]
fn profiled_runs_honour_every_policy_and_guard() {
    // The combinations that used to be usage errors: profiled runs
    // under skip/quarantine with the depth and line-size guards. The
    // profile of the dirty corpus must equal the blanked corpus's, and
    // reports must depend on neither workers nor map path.
    let (dirty, blanked, bad) = guarded_corpus();
    let guarded = |workers: usize, map_path: MapPath| {
        JobConfig::new()
            .workers(workers)
            .map_path(map_path)
            .max_line_bytes(120)
            .parser_options(typefuse_json::ParserOptions {
                max_depth: 3,
                ..Default::default()
            })
    };
    let expect = guarded(1, MapPath::Events)
        .build()
        .run_profiled(Source::ndjson(blanked.as_bytes()))
        .unwrap();
    let dir = std::env::temp_dir().join("typefuse-fault-tolerance");
    std::fs::create_dir_all(&dir).unwrap();
    let sink = dir.join(format!("profiled-{}.ndjson", std::process::id()));
    let mut reports = Vec::new();
    let mut sidecars = Vec::new();
    for workers in [1, 2, 4] {
        for map_path in [MapPath::Events, MapPath::Values, MapPath::Shape] {
            for policy in [ErrorPolicy::skip(), ErrorPolicy::quarantine(&sink)] {
                let label = format!("{workers}w {map_path:?} {policy:?}");
                let job = guarded(workers, map_path).on_error(policy.clone()).build();
                let got = job
                    .run_profiled(Source::ndjson(dirty.as_bytes()))
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(got.profile.to_json(), expect.profile.to_json(), "{label}");
                assert_eq!(got.errors.skipped(), bad, "{label}");
                let plain = job.run(Source::ndjson(dirty.as_bytes())).unwrap();
                assert_eq!(plain.schema, got.profile.schema, "{label}");
                assert_eq!(plain.errors, got.errors, "{label}");
                reports.push((policy.keeps_text(), got.errors));
                if policy.keeps_text() {
                    sidecars.push(std::fs::read(&sink).unwrap());
                }
            }
        }
    }
    std::fs::remove_file(&sink).ok();
    for (keeps_text, report) in &reports {
        let first = &reports.iter().find(|(k, _)| k == keeps_text).unwrap().1;
        assert_eq!(
            report, first,
            "reports differ across workers or map paths (text kept: {keeps_text})"
        );
    }
    assert!(
        sidecars.windows(2).all(|w| w[0] == w[1]),
        "sidecars differ across workers or map paths"
    );

    // Fail-fast stops at the earliest bad line, profiled or not.
    let job = guarded(4, MapPath::Events).build();
    let profiled = job
        .run_profiled(Source::ndjson(dirty.as_bytes()))
        .unwrap_err();
    let plain = job.run(Source::ndjson(dirty.as_bytes())).unwrap_err();
    assert_eq!(profiled.span().unwrap().start.line, 9);
    assert_eq!(profiled.to_string(), plain.to_string());
}

// ---- Property tests ---------------------------------------------------

fn bad_record(at: u64, tag: u8) -> BadRecord {
    BadRecord {
        at,
        error: typefuse_json::Error::at(
            ErrorKind::RecordTooLarge(tag as usize),
            Position {
                offset: at as usize,
                line: at as u32,
                column: 1,
            },
        ),
        text: Some(format!("line-{at}-{tag}")),
    }
}

proptest! {
    /// Merging per-partition reports in any grouping and order yields
    /// the same report — the property that makes skip deterministic.
    #[test]
    fn error_report_merge_is_partition_invariant(
        entries in prop::collection::vec((0u64..500, 0u8..4), 0..60),
        split in 1usize..6,
    ) {
        // One report built sequentially…
        let mut sequential = ErrorReport::new();
        for &(at, tag) in &entries {
            sequential.note(bad_record(at, tag));
        }
        // …versus the same entries split into `split` chunks, each
        // merged right-to-left.
        let chunk = entries.len().div_ceil(split).max(1);
        let mut partials: Vec<ErrorReport> = entries
            .chunks(chunk)
            .map(|part| {
                let mut r = ErrorReport::new();
                for &(at, tag) in part {
                    r.note(bad_record(at, tag));
                }
                r
            })
            .collect();
        partials.reverse();
        let mut merged = ErrorReport::new();
        for p in &partials {
            merged.merge(p);
        }
        prop_assert_eq!(&merged, &sequential);
        prop_assert_eq!(merged.skipped(), entries.len() as u64);
    }

    /// The tentpole acceptance property: a corpus with bad lines under
    /// Skip yields exactly the clean subset's schema for any worker
    /// count and map path.
    #[test]
    fn skip_equals_clean_subset_for_random_corpora(
        lines in prop::collection::vec(0usize..6, 1..40),
        workers in 1usize..5,
        events in any::<bool>(),
    ) {
        const POOL: [&str; 6] = [
            "{\"a\":1}",
            "{\"a\":\"x\",\"b\":[1,2]}",
            "{\"b\":[],\"c\":{\"d\":true}}",
            "{oops",          // bad
            "[1,,2]",         // bad
            "nul",            // bad
        ];
        let map_path = if events { MapPath::Events } else { MapPath::Values };
        let mut dirty = String::new();
        let mut clean = String::new();
        for &i in &lines {
            dirty.push_str(POOL[i]);
            dirty.push('\n');
            if i < 3 {
                clean.push_str(POOL[i]);
                clean.push('\n');
            }
        }
        let expect = job(workers, map_path)
            .build()
            .run(Source::ndjson(clean.as_bytes()))
            .unwrap();
        let got = job(workers, map_path)
            .on_error(ErrorPolicy::skip())
            .build()
            .run(Source::ndjson(dirty.as_bytes()))
            .unwrap();
        prop_assert_eq!(got.schema, expect.schema);
        prop_assert_eq!(got.records, expect.records);
        let bad = lines.iter().filter(|&&i| i >= 3).count() as u64;
        prop_assert_eq!(got.errors.skipped(), bad);
    }
}
