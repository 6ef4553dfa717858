//! Route-differential suite for the raw-shape signature cache
//! (`MapPath::Shape`): over every synthetic profile, the shape route
//! must be byte-identical to the events and tree routes for any worker
//! count, partitioning, dedup mode, and error policy — including the
//! exact bad-record reports — plus property tests pinning the SWAR
//! structural scan and signature soundness on adversarial escape,
//! unicode, and block-boundary inputs.

use proptest::prelude::*;
use typefuse::faults::ErrorPolicy;
use typefuse::pipeline::{DedupMode, MapPath, Source};
use typefuse::JobConfig;
use typefuse_datagen::{DatasetProfile, Profile};
use typefuse_json::scan::{scan, scan_scalar};
use typefuse_json::{ParserOptions, Value};
use typefuse_obs::Recorder;

const RECORDS: usize = 1000;
const SEED: u64 = 20170321;

fn dataset(profile: Profile) -> String {
    let values: Vec<Value> = profile.generate(SEED, RECORDS).collect();
    let mut buf = Vec::new();
    typefuse_json::ndjson::write_ndjson(&mut buf, &values).unwrap();
    String::from_utf8(buf).unwrap()
}

/// Corrupt every 37th line so the error policies have work to do. The
/// corruptions hit different parser stages: truncation, a bare token,
/// and a broken escape.
fn corrupt(text: &str) -> String {
    let mut out = String::new();
    for (i, line) in text.lines().enumerate() {
        if i % 37 == 7 {
            match i % 3 {
                0 => out.push_str(&line[..line.len() / 2]),
                1 => out.push_str("nul"),
                _ => out.push_str("{\"k\": \"\\q\"}"),
            }
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[test]
fn shape_route_is_byte_identical_across_the_matrix() {
    for profile in Profile::ALL {
        let text = dataset(profile);
        let baseline = JobConfig::new()
            .map_path(MapPath::Events)
            .build()
            .run(Source::ndjson(text.as_bytes()))
            .unwrap();
        for workers in [1, 4] {
            for partitions in [1, 5] {
                for dedup in [DedupMode::Off, DedupMode::On] {
                    for path in [MapPath::Shape, MapPath::Values] {
                        let run = JobConfig::new()
                            .map_path(path)
                            .workers(workers)
                            .partitions(partitions)
                            .dedup(dedup)
                            .build()
                            .run(Source::ndjson(text.as_bytes()))
                            .unwrap();
                        let tag = format!("{profile} {path:?} w{workers} p{partitions} {dedup:?}");
                        assert_eq!(
                            run.schema.to_string(),
                            baseline.schema.to_string(),
                            "{tag}: schema text diverged"
                        );
                        assert_eq!(run.schema, baseline.schema, "{tag}");
                        assert_eq!(run.records, baseline.records, "{tag}");
                    }
                }
            }
        }
    }
}

#[test]
fn shape_route_reports_the_same_errors_under_every_policy() {
    let dir = std::env::temp_dir().join("typefuse-shape-path");
    std::fs::create_dir_all(&dir).unwrap();
    for profile in Profile::ALL {
        let text = corrupt(&dataset(profile));
        for (name, policy) in [
            ("skip", ErrorPolicy::skip()),
            (
                "quarantine",
                ErrorPolicy::quarantine(dir.join(format!("{profile}.ndjson"))),
            ),
        ] {
            let mut runs = Vec::new();
            for path in [MapPath::Events, MapPath::Shape, MapPath::Values] {
                let run = JobConfig::new()
                    .map_path(path)
                    .workers(4)
                    .partitions(3)
                    .on_error(policy.clone())
                    .build()
                    .run(Source::ndjson(text.as_bytes()))
                    .unwrap();
                runs.push((path, run));
            }
            let (_, baseline) = &runs[0];
            assert!(
                !baseline.errors.is_empty(),
                "{profile}: corruption produced no bad records"
            );
            for (path, run) in &runs[1..] {
                let tag = format!("{profile} {name} {path:?}");
                assert_eq!(run.schema, baseline.schema, "{tag}");
                assert_eq!(run.records, baseline.records, "{tag}");
                assert_eq!(
                    run.errors.skipped(),
                    baseline.errors.skipped(),
                    "{tag}: skipped count diverged"
                );
                let sig = |r: &typefuse::faults::ErrorReport| {
                    r.records()
                        .iter()
                        .map(|b| (b.at, b.error.to_string(), b.text.clone()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    sig(&run.errors),
                    sig(&baseline.errors),
                    "{tag}: bad-record report diverged"
                );
            }
        }
    }
}

#[test]
fn shape_route_matches_events_from_a_file_under_the_guards() {
    // Corrupted input plus a too-deep and an oversized record, read from
    // a file across several slabs: the shape route reports the same
    // schema and bad records as the events route for any worker count.
    let dir = std::env::temp_dir().join("typefuse-shape-path");
    std::fs::create_dir_all(&dir).unwrap();
    for profile in [Profile::GitHub, Profile::Twitter] {
        let mut text = corrupt(&dataset(profile));
        text.push_str(&"[".repeat(40));
        text.push_str(&"]".repeat(40));
        text.push('\n');
        text.push_str(&format!("{{\"pad\":\"{}\"}}\n", "x".repeat(20_000)));
        let path = dir.join(format!("{profile}-guards-{}.ndjson", std::process::id()));
        std::fs::write(&path, &text).unwrap();
        let run = |map_path: MapPath, workers: usize| {
            let file = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
            JobConfig::new()
                .map_path(map_path)
                .workers(workers)
                .on_error(ErrorPolicy::skip())
                .max_line_bytes(16_384)
                .parser_options(ParserOptions {
                    max_depth: 32,
                    ..ParserOptions::default()
                })
                .build()
                .run(Source::ndjson(file))
                .unwrap()
        };
        let baseline = run(MapPath::Events, 1);
        for workers in [1, 2, 4] {
            let shape = run(MapPath::Shape, workers);
            let tag = format!("{profile} {workers}w");
            assert_eq!(shape.schema, baseline.schema, "{tag}");
            assert_eq!(shape.records, baseline.records, "{tag}");
            assert_eq!(shape.errors, baseline.errors, "{tag}");
        }
        let kinds: Vec<String> = baseline
            .errors
            .records()
            .iter()
            .rev()
            .take(2)
            .map(|b| b.error.to_string())
            .collect();
        assert!(kinds[0].contains("line-size guard"), "{kinds:?}");
        assert!(kinds[1].contains("recursion limit"), "{kinds:?}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn shape_route_fails_fast_at_the_same_record() {
    let text = corrupt(&dataset(Profile::Twitter));
    let mut firsts = Vec::new();
    for path in [MapPath::Events, MapPath::Shape, MapPath::Values] {
        let err = JobConfig::new()
            .map_path(path)
            .workers(4)
            .partitions(3)
            .build()
            .run(Source::ndjson(text.as_bytes()))
            .unwrap_err();
        firsts.push((path, err.to_string()));
    }
    assert_eq!(firsts[0].1, firsts[1].1, "shape fail-fast diverged");
    assert_eq!(firsts[0].1, firsts[2].1, "values fail-fast diverged");
}

#[test]
fn shape_counters_account_for_every_record() {
    // GitHub is the shape-redundant profile: the cache must hit, and
    // hits + misses must cover the whole dataset exactly.
    let text = dataset(Profile::GitHub);
    let rec = Recorder::enabled();
    let run = JobConfig::new()
        .map_path(MapPath::Shape)
        .recorder(rec.clone())
        .partitions(2)
        .build()
        .run(Source::ndjson(text.as_bytes()))
        .unwrap();
    let report = run.run_report(&rec);
    let hits = report.counters["infer.shape_hits"];
    let misses = report.counters["infer.shape_misses"];
    assert_eq!(hits + misses, RECORDS as u64);
    assert!(
        hits > misses,
        "github should be cache-friendly (hits {hits}, misses {misses})"
    );
    // Hit-path records still count toward the fold's own bookkeeping.
    assert_eq!(report.counters["json.records"], RECORDS as u64);
}

proptest! {
    /// The SWAR scan agrees with the byte-at-a-time reference on
    /// arbitrary bytes — structural positions, quote positions,
    /// newlines, and the unterminated flag.
    #[test]
    fn swar_scan_matches_the_scalar_reference(input in proptest::collection::vec(any::<u8>(), 0..400)) {
        let fast = scan(&input);
        let slow = scan_scalar(&input);
        prop_assert_eq!(fast.structurals, slow.structurals);
        prop_assert_eq!(fast.quotes, slow.quotes);
        prop_assert_eq!(fast.newlines, slow.newlines);
        prop_assert_eq!(fast.unterminated, slow.unterminated);
    }

    /// Backslash runs ending in a quote, slid across every alignment of
    /// the 8-byte word and 64-byte block boundaries. Odd runs escape
    /// the quote (string stays open); even runs leave it meaningful.
    #[test]
    fn escape_runs_survive_any_block_alignment(pad in 0usize..130, run in 0usize..10) {
        let mut input = Vec::new();
        input.push(b'"');
        input.resize(1 + pad, b'x');
        input.resize(1 + pad + run, b'\\');
        input.push(b'"');
        input.extend_from_slice(b" {\"k\": [1, true]}");
        let fast = scan(&input);
        let slow = scan_scalar(&input);
        prop_assert_eq!(&fast.structurals, &slow.structurals);
        prop_assert_eq!(&fast.quotes, &slow.quotes);
        prop_assert_eq!(fast.unterminated, slow.unterminated);
        // Odd-length runs escape the closing quote: the string swallows
        // the rest of the input and never terminates.
        prop_assert_eq!(fast.unterminated, run % 2 == 1);
    }

    /// Signature soundness on adversarial records: equal signatures
    /// must never merge records the parser treats differently, so the
    /// cached fold stays byte-identical to the direct fold — including
    /// on records far longer than one 64-byte scan block, keys with
    /// unicode escapes, and deep nesting.
    #[test]
    fn cache_matches_the_direct_fold_on_generated_records(
        seed in any::<u64>(),
        n in 1usize..40,
        profile_idx in 0usize..4,
        filler in 0usize..300,
    ) {
        let profile = Profile::ALL[profile_idx];
        let mut lines: Vec<String> = profile
            .generate(seed, n)
            .map(|v| typefuse_json::to_string(&v))
            .collect();
        // One record longer than any scan block, with escapes near the
        // tail so the escape carry crosses block boundaries.
        lines.push(format!(
            "{{\"long\": \"{}\\\\\\\"tail\", \"\\u00e9\": [0.5, null, {{}}]}}",
            "x".repeat(filler)
        ));
        let opts = ParserOptions::default();
        let rec = Recorder::disabled();
        let mut cache = typefuse_infer::ShapeCache::new();
        for line in &lines {
            // Twice per line: the second pass exercises the hit path.
            let direct = typefuse_infer::streaming::infer_type_from_str(line).unwrap();
            let cached = cache.infer_line(line.as_bytes(), &opts, &rec).unwrap();
            let hit = cache.infer_line(line.as_bytes(), &opts, &rec).unwrap();
            prop_assert_eq!(&cached, &direct, "miss path diverged on {}", line);
            prop_assert_eq!(&hit, &direct, "hit path diverged on {}", line);
        }
        prop_assert!(cache.hits() >= lines.len() as u64);
    }
}
