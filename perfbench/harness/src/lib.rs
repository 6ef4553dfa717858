//! The benchmark harness: reference folds and per-layer passes.
//!
//! Everything here calls the public functions of the typefuse crates
//! from outside the program, so the traced run needs no tracing inside
//! them. Each layer pass takes its input from the pass before it (the
//! records read by `json.ndjson`, the values parsed by `json.parse`,
//! the types inferred by `infer.streaming`), so a pass times one layer
//! and nothing upstream of it.

use std::fs::File;
use std::io::{self, BufReader};
use std::path::Path;
use std::time::{Duration, Instant};

use typefuse::pipeline::dedup_auto_sample;
use typefuse_engine::{Dataset, ReducePlan, Runtime, StageMetrics};
use typefuse_infer::{
    fuse, infer_type, streaming, DedupAcc, DedupFuser, FuseConfig, Fuser, ProfileAcc,
    RecordedFuser, ShapeCache,
};
use typefuse_json::ndjson::read_line_bounded;
use typefuse_json::scan::scan_into;
use typefuse_json::{parse_value, Parser, ParserOptions, RetryPolicy, ScanIndex, Value};
use typefuse_obs::{JsonWriter, Recorder};
use typefuse_types::{print, Type, TypeInterner};

/// One NDJSON record: its 1-based input line and its trimmed text.
pub struct Record {
    pub line: u32,
    pub text: String,
}

/// Read a file the way the default `infer` route reads it: one
/// `read_line_bounded` call per line through a `BufReader`, blank lines
/// dropped, each record trimmed and owned.
pub fn read_records(path: &Path) -> io::Result<Vec<Record>> {
    let mut reader = BufReader::new(File::open(path)?);
    let rec = Recorder::disabled();
    let mut buf = Vec::new();
    let mut out = Vec::new();
    let mut line = 0u32;
    loop {
        buf.clear();
        let raw = read_line_bounded(&mut reader, &mut buf, None, RetryPolicy::default(), &rec)?;
        if raw.consumed == 0 {
            return Ok(out);
        }
        line += 1;
        let text = std::str::from_utf8(&buf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("line {line}: {e}")))?
            .trim();
        if !text.is_empty() {
            out.push(Record {
                line,
                text: text.to_string(),
            });
        }
    }
}

/// The spec fold the benchmark trusts as its oracle: `fuse` over
/// `infer_type(parse_value(line))`, on one thread.
///
/// Fusion is associative and commutative, so the types are fused
/// pairwise in a balanced tree rather than left to right: the result
/// is the same, but the spec `fuse` clones its operands, and a left
/// fold over wide records (every Wikidata record adds keys) would copy
/// the growing schema once per record.
pub fn spec_schema(records: &[Record]) -> Result<Type, String> {
    let mut level = records
        .iter()
        .map(|r| {
            parse_value(&r.text)
                .map(|value| infer_type(&value))
                .map_err(|e| format!("line {}: {e}", r.line))
        })
        .collect::<Result<Vec<Type>, String>>()?;
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| match pair {
                [a, b] => fuse(a, b),
                [a] => a.clone(),
                _ => unreachable!("chunks(2) yields one or two types"),
            })
            .collect();
    }
    Ok(level.pop().unwrap_or(Type::Bottom))
}

/// The profile report a single-threaded `ProfileAcc` produces, wrapped
/// in the same envelope `infer --profile-json` writes.
pub fn spec_profile(records: &[Record]) -> Result<String, String> {
    let mut acc = ProfileAcc::with_config(FuseConfig::default());
    for r in records {
        acc.absorb_line(u64::from(r.line), &r.text);
    }
    if let Some((line, e)) = acc.first_error() {
        return Err(format!("line {line}: {e}"));
    }
    Ok(typefuse_obs::envelope("profile", &acc.finish().to_json()))
}

/// Which shipped command's path the traced run accounts for in
/// `on_path_s`: the default `infer` route, the profiled route, or the
/// daemon's per-record fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Infer,
    Profile,
    Serve,
}

impl Route {
    pub fn from_name(name: &str) -> Option<Route> {
        match name {
            "infer" => Some(Route::Infer),
            "profile" => Some(Route::Profile),
            "serve" => Some(Route::Serve),
            _ => None,
        }
    }
}

/// Time one call of `f`. The result is returned, and dropped by the
/// caller outside the timing, so no pass pays for freeing its output.
fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (start.elapsed(), out)
}

/// Metrics of one traced pass, in the order they are written.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.entries.push((name.to_string(), value));
    }

    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        for (name, value) in &self.entries {
            w.key(name);
            w.float(*value);
        }
        w.end_object();
        w.finish()
    }
}

/// Partitions the command makes per worker, so at `--workers 1`.
const SINGLE_WORKER_PARTITIONS: usize = 4;

/// Split `items` into `n` contiguous partitions the way
/// `Dataset::from_vec` does: the first `len % n` get one item more.
fn partitions<T>(items: &[T], n: usize) -> Vec<&[T]> {
    let (base, rem) = (items.len() / n, items.len() % n);
    let mut out = Vec::with_capacity(n);
    let mut rest = items;
    for p in 0..n {
        let (part, tail) = rest.split_at(base + usize::from(p < rem));
        out.push(part);
        rest = tail;
    }
    out
}

fn mb_per_s(bytes: u64, t: Duration) -> f64 {
    bytes as f64 / 1e6 / t.as_secs_f64()
}

/// Wall time of a map stage plus the reduce after it, and the task
/// time the workers spent busy in both.
struct EngineRun {
    map: StageMetrics,
    reduce: StageMetrics,
}

impl EngineRun {
    fn wall(&self) -> f64 {
        (self.map.wall + self.reduce.wall).as_secs_f64()
    }
}

/// The default route's Map and Reduce on the engine, at `workers`
/// threads and the CLI's partition count (4 per worker). Reduce takes
/// the same fuser `--dedup auto` would pick.
fn engine_run(records: &[Record], workers: usize, dedup: bool) -> EngineRun {
    let runtime = Runtime::new(workers);
    let n_parts = workers * SINGLE_WORKER_PARTITIONS;
    let rec = Recorder::disabled();
    let texts: Vec<&str> = records.iter().map(|r| r.text.as_str()).collect();
    let dataset = Dataset::from_vec(texts, n_parts);
    let options = ParserOptions::default();
    let (typed, map) = dataset.try_map_metered(&runtime, |text: &&str| {
        streaming::infer_with_options(text.as_bytes(), options.clone())
    });
    let types: Vec<Type> = typed
        .expect("no worker panics")
        .collect()
        .into_iter()
        .map(|t| t.expect("the workload parses"))
        .collect();
    let types = Dataset::from_vec(types, n_parts);
    let (fused, reduce) = if dedup {
        let fuser = DedupFuser::new(FuseConfig::default(), rec.clone());
        types.try_reduce_fused(&runtime, ReducePlan::default(), &fuser, &rec)
    } else {
        let fuser = RecordedFuser::new(FuseConfig::default(), rec.clone());
        types.try_reduce_fused(&runtime, ReducePlan::default(), &fuser, &rec)
    };
    std::hint::black_box(fused.expect("no worker panics"));
    EngineRun { map, reduce }
}

/// Run every layer pass over the file at `path` and return the
/// per-layer metrics, plus `on_path_s`: the summed self time of the
/// layers `route` passes through at one worker.
pub fn trace(path: &Path, workers: usize, route: Route) -> io::Result<Metrics> {
    let mut m = Metrics::default();
    let bytes_len = std::fs::metadata(path)?.len();
    let options = ParserOptions::default();
    let cfg = FuseConfig::default();

    // json.ndjson: read/split, and the whole-file read that bounds it.
    let (t_read, records) = timed(|| read_records(path));
    let records = records?;
    let n = records.len() as f64;
    let (t_sol, raw) = timed(|| std::fs::read(path));
    let raw = raw?;
    m.set("json.ndjson.self_s", t_read.as_secs_f64());
    m.set("json.ndjson.mb_per_s", mb_per_s(bytes_len, t_read));
    m.set("json.ndjson.sol_mb_per_s", mb_per_s(bytes_len, t_sol));

    // json.scan: the SWAR structural scan over the whole file.
    let mut index = ScanIndex::default();
    let (t_scan, ()) = timed(|| scan_into(&raw, &mut index));
    m.set("json.scan.mb_per_s", mb_per_s(bytes_len, t_scan));
    drop(raw);

    // infer.shape: the raw-shape signature cache, off the default path.
    let off = Recorder::disabled();
    let (t_shape, cache) = timed(|| {
        let mut cache = ShapeCache::new();
        for r in &records {
            std::hint::black_box(
                cache
                    .infer_line_ref(r.text.as_bytes(), &options, &off)
                    .expect("the workload parses"),
            );
        }
        cache
    });
    let looked_up = (cache.hits() + cache.misses()).max(1) as f64;
    m.set("infer.shape.self_s", t_shape.as_secs_f64());
    m.set("infer.shape.hit_ratio", cache.hits() as f64 / looked_up);
    m.set("infer.shape.distinct", cache.distinct() as f64);
    drop(cache);

    // infer.streaming: the default Map route, one event fold per record.
    let (t_stream, types) = timed(|| {
        records
            .iter()
            .map(|r| {
                streaming::infer_with_options(r.text.as_bytes(), options.clone())
                    .expect("the workload parses")
            })
            .collect::<Vec<Type>>()
    });
    m.set("infer.streaming.self_s", t_stream.as_secs_f64());
    m.set("infer.streaming.mb_per_s", mb_per_s(bytes_len, t_stream));

    // json.parse + infer.infer: serve's value tree, then its type.
    let (t_parse, values) = timed(|| {
        records
            .iter()
            .map(|r| {
                Parser::with_options(r.text.as_bytes(), options.clone())
                    .parse_complete()
                    .expect("the workload parses")
            })
            .collect::<Vec<Value>>()
    });
    m.set("json.parse.self_s", t_parse.as_secs_f64());
    m.set("json.parse.mb_per_s", mb_per_s(bytes_len, t_parse));
    let (t_infer, _) = timed(|| values.iter().map(infer_type).collect::<Vec<Type>>());
    m.set("infer.infer.self_s", t_infer.as_secs_f64());

    // The reduce passes fold the partitions the single-worker command
    // makes, then merge the partials, so merge work is timed too.
    let parts = partitions(&types, SINGLE_WORKER_PARTITIONS);

    // types.intern + infer.dedup: the shape-dedup reduce. Dedup interns
    // every type itself, so its self time excludes the intern pass.
    let (t_intern, interners) = timed(|| {
        parts
            .iter()
            .map(|part| {
                let mut interner = TypeInterner::new();
                for t in *part {
                    std::hint::black_box(interner.intern(t));
                }
                interner
            })
            .collect::<Vec<TypeInterner>>()
    });
    m.set("types.intern.self_s", t_intern.as_secs_f64());
    let mut interner = TypeInterner::new();
    for part in &interners {
        interner.absorb(part);
    }
    m.set("types.intern.distinct_types", interner.len() as f64);
    drop((interner, interners));
    let (t_dedup, accs) = timed(|| {
        let mut accs: Vec<DedupAcc> = parts
            .iter()
            .map(|part| {
                let mut acc = DedupAcc::new();
                for t in *part {
                    acc.absorb_type(cfg, t);
                }
                acc
            })
            .collect();
        let (first, rest) = accs.split_first_mut().expect("at least one partition");
        for other in rest.iter() {
            first.merge(cfg, other);
        }
        accs
    });
    let dedup_self = t_dedup.saturating_sub(t_intern);
    let (hits, misses) = accs.iter().fold((0, 0), |(h, m), acc| {
        (h + acc.cache().hits(), m + acc.cache().misses())
    });
    let auto_on = dedup_auto_sample(types.iter());
    m.set("infer.dedup.self_s", dedup_self.as_secs_f64());
    m.set(
        "infer.dedup.memo_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.set("infer.dedup.fuse_calls", misses as f64);
    m.set("infer.dedup.auto_on", if auto_on { 1.0 } else { 0.0 });
    drop(accs);

    // infer.fuse: Figure-6 fusion of every per-record type into its
    // partition's schema (`fuse_into`), then of the partials into one
    // (`fuse_with`), as the plain reduce does.
    let (t_fuse, schema) = timed(|| {
        let partials: Vec<Type> = parts
            .iter()
            .map(|part| {
                let mut schema = cfg.empty();
                for t in *part {
                    cfg.absorb_type(&mut schema, t);
                }
                schema
            })
            .collect();
        let mut schema = cfg.empty();
        for partial in &partials {
            cfg.merge(&mut schema, partial);
        }
        schema
    });
    let calls = n + parts.len() as f64;
    m.set("infer.fuse.self_s", t_fuse.as_secs_f64());
    m.set("infer.fuse.calls", calls);
    m.set("infer.fuse.ns_per_call", t_fuse.as_secs_f64() * 1e9 / calls);
    drop(types);

    // engine: Map + Reduce at the workload's workers and at one.
    let run = engine_run(&records, workers, auto_on);
    let base = engine_run(&records, 1, auto_on);
    let busy = (run.map.total_task_time() + run.reduce.total_task_time()).as_secs_f64();
    let mean_task = run.map.total_task_time().as_secs_f64() / run.map.tasks.len().max(1) as f64;
    m.set("engine.map_s", run.map.wall.as_secs_f64());
    m.set("engine.reduce_s", run.reduce.wall.as_secs_f64());
    m.set(
        "engine.worker_busy_ratio",
        busy / (run.wall() * workers as f64),
    );
    m.set(
        "engine.partition_skew",
        run.map.max_task_time().as_secs_f64() / mean_task,
    );
    m.set("engine.parallel_speedup", base.wall() / run.wall());

    // infer.profile: the profiled route folds lines (absorb_line) per
    // partition and merges; serve profiles each value tree into its one
    // accumulator.
    let n_parts = match route {
        Route::Serve => 1,
        Route::Infer | Route::Profile => SINGLE_WORKER_PARTITIONS,
    };
    let (t_absorb, accs) = timed(|| {
        partitions(&records, n_parts)
            .into_iter()
            .zip(partitions(&values, n_parts))
            .map(|(part, part_values)| {
                let mut acc = ProfileAcc::with_config(cfg);
                for (r, v) in part.iter().zip(part_values) {
                    match route {
                        Route::Serve => acc.absorb_value_at(u64::from(r.line), v),
                        Route::Infer | Route::Profile => {
                            acc.absorb_line(u64::from(r.line), &r.text)
                        }
                    }
                }
                acc
            })
            .collect::<Vec<ProfileAcc>>()
    });
    let (t_merge, merged) = timed(|| {
        let mut parts = accs.into_iter();
        let mut acc = parts.next().unwrap_or_else(|| ProfileAcc::with_config(cfg));
        for part in parts {
            acc.merge(&part);
        }
        acc
    });
    let (t_finish, _) = timed(|| merged.finish().to_json());
    let t_profile = t_absorb + t_merge + t_finish;
    m.set("infer.profile.self_s", t_profile.as_secs_f64());
    m.set("infer.profile.mb_per_s", mb_per_s(bytes_len, t_profile));
    m.set("infer.profile.merge_s", t_merge.as_secs_f64());
    drop(values);

    // obs: the recorder as serve's fold calls it, twice per record.
    let (t_rec, _) = timed(|| {
        let rec = Recorder::enabled();
        for _ in &records {
            rec.add("ingest.records", 1);
            rec.add(&format!("ingest.records.{}", "s"), 1);
        }
        rec
    });
    m.set("obs.recorder.self_s", t_rec.as_secs_f64());

    // types.print: the pretty printer over the final schema.
    let (t_print, _) = timed(|| print::pretty(&schema));
    m.set("types.print.self_s", t_print.as_secs_f64());

    let on_path = match route {
        Route::Infer => {
            let reduce = if auto_on {
                t_intern + dedup_self
            } else {
                t_fuse
            };
            t_read + t_stream + reduce + t_print
        }
        Route::Profile => t_read + t_profile + t_print,
        Route::Serve => t_read + t_parse + t_infer + t_intern + dedup_self + t_absorb + t_rec,
    };
    m.set("on_path_s", on_path.as_secs_f64());
    Ok(m)
}
