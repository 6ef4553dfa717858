//! Route-differential test for the shape-dedup reduce: over every
//! synthetic profile, the dedup route must be byte-identical to the
//! plain reduce on both Map paths, and the profiled fold must agree
//! with it on schema and record totals.

use typefuse::pipeline::{DedupMode, MapPath, Source};
use typefuse::JobConfig;
use typefuse_datagen::{DatasetProfile, Profile};
use typefuse_json::Value;
use typefuse_obs::Recorder;

const RECORDS: usize = 1000;
const SEED: u64 = 20170321;

fn dataset(profile: Profile) -> (Vec<Value>, String) {
    let values: Vec<Value> = profile.generate(SEED, RECORDS).collect();
    let mut buf = Vec::new();
    typefuse_json::ndjson::write_ndjson(&mut buf, &values).unwrap();
    (values, String::from_utf8(buf).unwrap())
}

#[test]
fn dedup_event_and_value_routes_are_byte_identical() {
    for profile in Profile::ALL {
        let (_, text) = dataset(profile);
        let baseline = JobConfig::new()
            .dedup(DedupMode::Off)
            .map_path(MapPath::Values)
            .build()
            .run(Source::ndjson(text.as_bytes()))
            .unwrap();
        for mode in [DedupMode::On, DedupMode::Auto] {
            for path in [MapPath::Events, MapPath::Values] {
                let run = JobConfig::new()
                    .dedup(mode)
                    .map_path(path)
                    .partitions(3)
                    .build()
                    .run(Source::ndjson(text.as_bytes()))
                    .unwrap();
                assert_eq!(
                    run.schema.to_string(),
                    baseline.schema.to_string(),
                    "{profile} {mode:?} {path:?}: schema text diverged"
                );
                assert_eq!(run.schema, baseline.schema, "{profile} {mode:?} {path:?}");
                assert_eq!(run.records, baseline.records, "{profile}");
            }
        }
    }
}

#[test]
fn profiled_counts_match_the_dedup_route() {
    // The profile's per-path counts replaced the dedup counting
    // strategy: the profiled fold must agree with the dedup route on
    // schema and record total, and its counts must not depend on
    // workers.
    for profile in Profile::ALL {
        let (_, text) = dataset(profile);
        let dedup = JobConfig::new()
            .dedup(DedupMode::On)
            .build()
            .run(Source::ndjson(text.as_bytes()))
            .unwrap();
        let mut reports = Vec::new();
        for workers in [1, 2, 4] {
            let profiled = JobConfig::new()
                .workers(workers)
                .build()
                .run_profiled(Source::ndjson(text.as_bytes()))
                .unwrap();
            assert_eq!(
                profiled.profile.schema.to_string(),
                dedup.schema.to_string(),
                "{profile}"
            );
            assert_eq!(profiled.records, dedup.records, "{profile}");
            assert_eq!(profiled.profile.get("$").unwrap().count, dedup.records);
            reports.push(profiled.profile.to_json());
        }
        assert!(reports.windows(2).all(|w| w[0] == w[1]), "{profile}");
    }
}

#[test]
fn dedup_route_surfaces_its_counters() {
    // GitHub is the high-redundancy profile: far fewer shapes than
    // records, so Auto must pick the dedup route and the cache must hit.
    let (_, text) = dataset(Profile::GitHub);
    let rec = Recorder::enabled();
    let run = JobConfig::new()
        .dedup(DedupMode::Auto)
        .recorder(rec.clone())
        .build()
        .run(Source::ndjson(text.as_bytes()))
        .unwrap();
    let report = run.run_report(&rec);
    assert_eq!(report.counters["records"], RECORDS as u64);
    assert_eq!(report.counters["infer.dedup"], 1, "auto must pick dedup");
    let distinct = report.counters["infer.distinct_shapes"];
    assert!(
        distinct > 0 && distinct < RECORDS as u64 / 2,
        "github shapes should repeat (distinct = {distinct})"
    );
    assert!(report.counters["fuse.cache_hits"] > 0);
    assert_eq!(
        report.counters["fuse.calls"],
        report.counters["fuse.cache_misses"]
    );
}

#[test]
fn file_sources_match_byte_sources_for_every_dedup_mode() {
    // A 1000-record file spans several slabs of the fold on every
    // profile but NYTimes, so slab boundaries fall inside this matrix.
    use typefuse_infer::{ArrayFusion, FuseConfig};
    let dir = std::env::temp_dir().join("typefuse-dedup-differential");
    std::fs::create_dir_all(&dir).unwrap();
    for profile in Profile::ALL {
        let (_, text) = dataset(profile);
        let path = dir.join(format!("{profile}-{}.ndjson", std::process::id()));
        std::fs::write(&path, &text).unwrap();
        for positional in [false, true] {
            let config = || {
                let mut config = JobConfig::new();
                if positional {
                    config = config.fuse_config(FuseConfig {
                        array_fusion: ArrayFusion::PositionalWhenAligned,
                    });
                }
                config
            };
            let baseline = config()
                .dedup(DedupMode::Off)
                .workers(1)
                .build()
                .run(Source::ndjson(text.as_bytes()))
                .unwrap();
            for dedup in [DedupMode::On, DedupMode::Auto, DedupMode::Off] {
                for workers in [1, 2, 4] {
                    let file = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
                    let run = config()
                        .dedup(dedup)
                        .workers(workers)
                        .build()
                        .run(Source::ndjson(file))
                        .unwrap();
                    let tag = format!("{profile} positional={positional} {dedup:?} {workers}w");
                    assert_eq!(run.schema.to_string(), baseline.schema.to_string(), "{tag}");
                    assert_eq!(run.records, baseline.records, "{tag}");
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
