//! JSON substrate benchmarks: the parser and serializer that feed the
//! pipeline (the paper's type inference runs over Json4s output; ours
//! runs over this parser's output, so its throughput bounds end-to-end
//! times).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use typefuse_datagen::{DatasetProfile, Profile};
use typefuse_infer::infer_type;
use typefuse_json::{parse_value, to_string, Value};

fn corpus(profile: Profile, n: usize) -> (String, Vec<Value>) {
    let values: Vec<Value> = profile.generate(1, n).collect();
    let mut text = Vec::new();
    typefuse_json::ndjson::write_ndjson(&mut text, &values).unwrap();
    (String::from_utf8(text).unwrap(), values)
}

fn bench_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("parse_ndjson");
    for profile in Profile::ALL {
        let (text, _) = corpus(profile, 200);
        group.throughput(Throughput::Bytes(text.len() as u64));
        group.bench_function(BenchmarkId::from_parameter(profile), |b| {
            b.iter(|| {
                black_box(text.as_str())
                    .lines()
                    .map(parse_value)
                    .collect::<Result<Vec<Value>, _>>()
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_serialize(c: &mut Criterion) {
    let mut group = c.benchmark_group("serialize");
    for profile in [Profile::GitHub, Profile::NYTimes] {
        let (_, values) = corpus(profile, 200);
        group.bench_function(BenchmarkId::from_parameter(profile), |b| {
            b.iter(|| {
                values
                    .iter()
                    .map(|v| to_string(black_box(v)).len())
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

fn bench_infer_only(c: &mut Criterion) {
    // Isolate the Map phase: type inference over pre-parsed values.
    let mut group = c.benchmark_group("infer_only");
    for profile in Profile::ALL {
        let (_, values) = corpus(profile, 200);
        group.throughput(Throughput::Elements(values.len() as u64));
        group.bench_function(BenchmarkId::from_parameter(profile), |b| {
            b.iter(|| {
                values
                    .iter()
                    .map(|v| infer_type(black_box(v)).size())
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

fn bench_direct_vs_tree_inference(c: &mut Criterion) {
    // The streaming path skips the Value tree entirely; measure both
    // text-to-type routes per profile.
    let mut group = c.benchmark_group("text_to_type");
    for profile in [Profile::Twitter, Profile::NYTimes] {
        let (text, _) = corpus(profile, 200);
        let lines: Vec<&str> = text.lines().collect();
        group.bench_function(format!("{profile}/tree"), |b| {
            b.iter(|| {
                lines
                    .iter()
                    .map(|l| infer_type(&parse_value(black_box(l)).unwrap()).size())
                    .sum::<usize>()
            })
        });
        group.bench_function(format!("{profile}/streaming"), |b| {
            b.iter(|| {
                lines
                    .iter()
                    .map(|l| {
                        typefuse_infer::streaming::infer_type_from_str(black_box(l))
                            .unwrap()
                            .size()
                    })
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

fn bench_structural_scan(c: &mut Criterion) {
    // Stage-1 structural indexing: the SWAR word-classified sweep vs
    // the byte-at-a-time reference oracle, in MB/s over whole corpora.
    let mut group = c.benchmark_group("structural_scan");
    for profile in [Profile::GitHub, Profile::NYTimes] {
        let (text, _) = corpus(profile, 200);
        group.throughput(Throughput::Bytes(text.len() as u64));
        group.bench_function(format!("{profile}/swar"), |b| {
            b.iter(|| {
                typefuse_json::scan(black_box(text.as_bytes()))
                    .structurals
                    .len()
            })
        });
        group.bench_function(format!("{profile}/scalar"), |b| {
            b.iter(|| {
                typefuse_json::scan::scan_scalar(black_box(text.as_bytes()))
                    .structurals
                    .len()
            })
        });
    }
    group.finish();
}

fn bench_shape_cache(c: &mut Criterion) {
    // The shape route's two regimes, in ns/record. GitHub events are
    // shape-redundant (steady state is almost all hits); Wikidata's
    // open-content records keep the cache missing.
    let mut group = c.benchmark_group("shape_cache");
    let opts = typefuse_json::ParserOptions::default();
    let rec = typefuse_obs::Recorder::disabled();
    for profile in [Profile::GitHub, Profile::Wikidata] {
        let (text, _) = corpus(profile, 200);
        let lines: Vec<&str> = text.lines().collect();
        group.throughput(Throughput::Elements(lines.len() as u64));
        group.bench_function(format!("{profile}/warm"), |b| {
            // Warm the cache once, then measure the hit path.
            let mut cache = typefuse_infer::ShapeCache::new();
            for line in &lines {
                cache.infer_line(line.as_bytes(), &opts, &rec).unwrap();
            }
            b.iter(|| {
                lines
                    .iter()
                    .map(|l| {
                        cache
                            .infer_line(black_box(l.as_bytes()), &opts, &rec)
                            .unwrap()
                            .size()
                    })
                    .sum::<usize>()
            })
        });
        group.bench_function(format!("{profile}/cold"), |b| {
            // Fresh cache per pass: every distinct signature replays
            // the event fold.
            b.iter(|| {
                let mut cache = typefuse_infer::ShapeCache::new();
                lines
                    .iter()
                    .map(|l| {
                        cache
                            .infer_line(black_box(l.as_bytes()), &opts, &rec)
                            .unwrap()
                            .size()
                    })
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

fn bench_string_escapes(c: &mut Criterion) {
    // Hot path detail: escaped vs plain strings.
    let plain = format!("\"{}\"", "a".repeat(1000));
    let escaped = format!("\"{}\"", "a\\n\\t\\u00e9".repeat(100));
    let mut group = c.benchmark_group("parse_strings");
    group.bench_function("plain_1k", |b| {
        b.iter(|| parse_value(black_box(&plain)).unwrap())
    });
    group.bench_function("escaped_100_units", |b| {
        b.iter(|| parse_value(black_box(&escaped)).unwrap())
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_parse, bench_serialize, bench_infer_only, bench_direct_vs_tree_inference, bench_structural_scan, bench_shape_cache, bench_string_escapes
}
criterion_main!(benches);
