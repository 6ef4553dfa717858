//! Saturation differential. Every schema fold dedups the record types
//! it fuses: the cap-2 rule (DESIGN.md §10) fuses each distinct type at
//! most twice per accumulator and only counts the later sightings, and
//! an accumulator whose sightings fill the node budget fuses unseen
//! types every time. Over every synthetic profile the result must equal
//! the spec fold — Figure 6 fusion of `infer_type(parse_value(line))`
//! over every line — byte for byte, for any Map route, worker count,
//! slab boundary, source and array strategy. Wikidata's distinct types
//! overflow the budget, so both branches of the rule run here.

use typefuse::pipeline::{MapPath, Source};
use typefuse::JobConfig;
use typefuse_datagen::{DatasetProfile, Profile};
use typefuse_infer::{fuse_with, infer_type, ArrayFusion, FuseConfig, NODE_BUDGET};
use typefuse_json::Value;
use typefuse_obs::Recorder;
use typefuse_types::Type;

const RECORDS: usize = 1000;
const SEED: u64 = 20170321;

fn dataset(profile: Profile) -> (Vec<Value>, String) {
    let values: Vec<Value> = profile.generate(SEED, RECORDS).collect();
    let mut buf = Vec::new();
    typefuse_json::ndjson::write_ndjson(&mut buf, &values).unwrap();
    (values, String::from_utf8(buf).unwrap())
}

/// The record types of `text`, through the tree parser and Figure 4.
fn spec_types(text: &str) -> Vec<Type> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| infer_type(&typefuse_json::parse_value(line).unwrap()))
        .collect()
}

/// The spec fold: every record's type fused. Fusion is associative and
/// commutative, so the types are fused pairwise in a balanced tree: a
/// left fold would copy the growing Wikidata schema once per record.
fn spec_schema(text: &str, cfg: FuseConfig) -> String {
    let mut level = spec_types(text);
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| match pair {
                [a, b] => fuse_with(cfg, a, b),
                [a] => a.clone(),
                _ => unreachable!("chunks(2) yields one or two types"),
            })
            .collect();
    }
    level.pop().unwrap_or(Type::Bottom).to_string()
}

fn fuse_config(positional: bool) -> FuseConfig {
    FuseConfig {
        array_fusion: if positional {
            ArrayFusion::PositionalWhenAligned
        } else {
            ArrayFusion::Collapse
        },
    }
}

#[test]
fn dedup_event_and_value_routes_are_byte_identical() {
    for profile in Profile::ALL {
        let (values, text) = dataset(profile);
        let spec = spec_schema(&text, FuseConfig::default());
        for path in [MapPath::Events, MapPath::Values, MapPath::Shape] {
            for workers in [1, 2, 4] {
                let run = JobConfig::new()
                    .map_path(path)
                    .workers(workers)
                    .build()
                    .run(Source::ndjson(text.as_bytes()))
                    .unwrap();
                assert_eq!(
                    run.schema.to_string(),
                    spec,
                    "{profile} {path:?} {workers}w"
                );
                assert_eq!(run.records, RECORDS as u64, "{profile}");
            }
        }
        // The in-memory routes reduce through the same rule.
        for partitions in [1, 3, 8] {
            let run = JobConfig::new()
                .partitions(partitions)
                .build()
                .run(Source::values(values.clone()))
                .unwrap();
            assert_eq!(run.schema.to_string(), spec, "{profile} {partitions}p");
        }
    }
}

#[test]
fn profiled_counts_match_the_dedup_route() {
    // The profiled fold saturates its schema too: it must agree with
    // the schema fold and the spec on schema and record total, and its
    // counts must not depend on workers.
    for profile in Profile::ALL {
        let (_, text) = dataset(profile);
        let spec = spec_schema(&text, FuseConfig::default());
        let schema = JobConfig::new()
            .build()
            .run(Source::ndjson(text.as_bytes()))
            .unwrap();
        assert_eq!(schema.schema.to_string(), spec, "{profile}");
        let mut reports = Vec::new();
        for workers in [1, 2, 4] {
            let profiled = JobConfig::new()
                .workers(workers)
                .build()
                .run_profiled(Source::ndjson(text.as_bytes()))
                .unwrap();
            assert_eq!(profiled.profile.schema.to_string(), spec, "{profile}");
            assert_eq!(profiled.records, schema.records, "{profile}");
            assert_eq!(profiled.profile.get("$").unwrap().count, schema.records);
            reports.push(profiled.profile.to_json());
        }
        assert!(reports.windows(2).all(|w| w[0] == w[1]), "{profile}");
    }
}

#[test]
fn dedup_route_surfaces_its_counters() {
    // GitHub is the high-redundancy profile: far fewer distinct types
    // than records, so at one worker the rule fuses each type at most
    // twice and skips the rest.
    let (_, text) = dataset(Profile::GitHub);
    let rec = Recorder::enabled();
    let run = JobConfig::new()
        .workers(1)
        .recorder(rec.clone())
        .build()
        .run(Source::ndjson(text.as_bytes()))
        .unwrap();
    let report = run.run_report(&rec);
    assert_eq!(report.counters["records"], RECORDS as u64);
    let distinct = run.type_stats.distinct as u64;
    assert!(distinct < RECORDS as u64 / 2, "{distinct} distinct types");
    let (calls, saturated) = (
        report.counters["fuse.calls"],
        report.counters["fuse.saturated"],
    );
    assert!(calls <= 2 * distinct, "{calls} fusions of {distinct} types");
    assert!(saturated > 0);
    // The first record moves into ε; every other one is fused or skipped.
    assert_eq!(calls + saturated, RECORDS as u64 - 1);
    for gone in [
        "infer.dedup",
        "infer.distinct_shapes",
        "fuse.cache_hits",
        "fuse.cache_misses",
    ] {
        assert!(!report.counters.contains_key(gone), "{gone}");
    }
}

#[test]
fn file_sources_match_the_spec_fold_across_workers_slabs_and_arrays() {
    // A 1000-record file spans several 1 MiB slabs of the fold on every
    // profile but NYTimes; a leading whitespace-only line (not a record)
    // moves every slab boundary.
    let dir = std::env::temp_dir().join("typefuse-dedup-differential");
    std::fs::create_dir_all(&dir).unwrap();
    for profile in Profile::ALL {
        let (_, text) = dataset(profile);
        if profile == Profile::Wikidata {
            // One worker's sightings overflow the node budget.
            let mut distinct = spec_types(&text);
            distinct.sort();
            distinct.dedup();
            let nodes: usize = distinct.iter().map(Type::size).sum();
            assert!(nodes > 2 * NODE_BUDGET, "{nodes} distinct type nodes");
        }
        let specs = [false, true].map(|positional| spec_schema(&text, fuse_config(positional)));
        for pad in [0, 300_001] {
            let padded = format!("{}\n{text}", " ".repeat(pad));
            let path = dir.join(format!("{profile}-{pad}-{}.ndjson", std::process::id()));
            std::fs::write(&path, &padded).unwrap();
            for (positional, spec) in [false, true].into_iter().zip(&specs) {
                for workers in [1, 2, 4] {
                    let file = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
                    let run = JobConfig::new()
                        .fuse_config(fuse_config(positional))
                        .workers(workers)
                        .build()
                        .run(Source::ndjson(file))
                        .unwrap();
                    let tag = format!("{profile} pad={pad} positional={positional} {workers}w");
                    assert_eq!(&run.schema.to_string(), spec, "{tag}");
                    assert_eq!(run.records, RECORDS as u64, "{tag}");
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }
}
