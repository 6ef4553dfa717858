//! Bounded memory, end to end: at least 1 GB of generated NDJSON streams
//! through `SchemaJob::run` and `SchemaJob::run_profiled` from an
//! in-process reader — no file, no buffering of the input — and the
//! process's peak RSS must stay under a fixed ceiling. A second stream,
//! in which almost every record has a raw shape and a type of its own,
//! goes through `run` on every Map route: per-record memos (the shape
//! cache, the fold's type sightings) must stop growing at their budget.
//!
//! The tests are ignored by default because they move gigabytes; run
//! them in release mode:
//!
//! ```sh
//! cargo test --release --test bounded_memory -- --ignored
//! ```

use std::io::{BufReader, Read};
use std::sync::Mutex;

use typefuse::pipeline::{MapPath, Source};
use typefuse::JobConfig;

/// Bytes streamed per run.
const INPUT_BYTES: u64 = 1 << 30;
/// Bytes of the varied stream per Map route: about two million records,
/// each of which a memo without a bound would keep.
const VARIED_BYTES: u64 = 1 << 28;
/// Peak RSS allowed for the whole process. The fold holds a few slabs
/// of 1 MiB per worker plus per-distinct-type state; a route that
/// buffered its input would need many gigabytes here.
const RSS_CEILING_MB: u64 = 64;

/// Tests share the process's peak RSS, so they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// An endless NDJSON stream of the lines `make` writes for records
/// 0, 1, 2, …, cut after `limit` bytes (on a line boundary).
struct Generated {
    limit: u64,
    produced: u64,
    record: u64,
    line: Vec<u8>,
    pos: usize,
    make: fn(u64) -> String,
}

impl Generated {
    fn new(limit: u64, make: fn(u64) -> String) -> Self {
        Generated {
            limit,
            produced: 0,
            record: 0,
            line: Vec::new(),
            pos: 0,
            make,
        }
    }

    fn next_line(&mut self) {
        let n = self.record;
        self.record += 1;
        self.line.clear();
        self.line.extend_from_slice((self.make)(n).as_bytes());
        self.pos = 0;
    }
}

/// A few record shapes, in turn.
fn few_shapes(n: u64) -> String {
    match n % 4 {
        0 => format!(
            "{{\"id\":{n},\"user\":{{\"name\":\"u{}\",\"tags\":[\"a\",\"b\"]}},\"score\":{}.5,\"ok\":true}}\n",
            n % 1000,
            n % 97
        ),
        1 => format!("{{\"id\":\"{n}\",\"user\":null,\"text\":\"{}\"}}\n", "x".repeat((n % 200) as usize)),
        2 => format!("{{\"id\":{n},\"geo\":{{\"coordinates\":[{}.1,{}.2]}},\"ok\":false}}\n", n % 90, n % 180),
        _ => format!("{{\"delete\":{{\"status\":{{\"id\":{n}}}}}}}\n"),
    }
}

/// A record with a raw shape and a type of its own, almost always: a
/// scrambled subset of 20 keys, written in a rotated order, plus an
/// array of 0 to 12 numbers. The fused schema stays one record of 21
/// optional fields.
fn unique_shapes(n: u64) -> String {
    let bits = (n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) & 0xF_FFFF;
    let keys: Vec<u64> = (0..20).filter(|k| bits >> k & 1 == 1).collect();
    let mut fields: Vec<String> = keys.iter().map(|k| format!("\"k{k}\":{n}")).collect();
    if !fields.is_empty() {
        let turn = (n as usize) % fields.len();
        fields.rotate_left(turn);
    }
    let elems = vec!["7"; (n % 13) as usize].join(",");
    fields.push(format!("\"arr\":[{elems}]"));
    format!("{{{}}}\n", fields.join(","))
}

impl Read for Generated {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.line.len() {
            if self.produced >= self.limit {
                return Ok(0);
            }
            self.next_line();
        }
        let n = buf.len().min(self.line.len() - self.pos);
        buf[..n].copy_from_slice(&self.line[self.pos..self.pos + n]);
        self.pos += n;
        self.produced += n as u64;
        Ok(n)
    }
}

fn peak_rss_mb() -> u64 {
    typefuse::obs::rss::peak_rss_bytes().expect("peak RSS is readable on this platform") >> 20
}

#[test]
#[ignore = "streams 1 GB per run; run in release with --ignored"]
fn a_gigabyte_streams_through_run_and_run_profiled_in_bounded_memory() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let job = JobConfig::new().build();
    let plain = job
        .run(Source::ndjson(BufReader::new(Generated::new(
            INPUT_BYTES,
            few_shapes,
        ))))
        .unwrap();
    assert!(plain.records > 4_000_000, "{} records", plain.records);
    let after_plain = peak_rss_mb();
    assert!(
        after_plain < RSS_CEILING_MB,
        "run: peak RSS {after_plain} MB over the {RSS_CEILING_MB} MB ceiling"
    );

    let profiled = job
        .run_profiled(Source::ndjson(BufReader::new(Generated::new(
            INPUT_BYTES,
            few_shapes,
        ))))
        .unwrap();
    assert_eq!(profiled.records, plain.records);
    assert_eq!(profiled.profile.schema, plain.schema);
    let after_profiled = peak_rss_mb();
    assert!(
        after_profiled < RSS_CEILING_MB,
        "run_profiled: peak RSS {after_profiled} MB over the {RSS_CEILING_MB} MB ceiling"
    );
    eprintln!(
        "{} records per run; peak RSS {after_plain} MB after run, {after_profiled} MB after run_profiled",
        plain.records
    );
}

#[test]
#[ignore = "streams 256 MB per Map route; run in release with --ignored"]
fn records_of_unique_shapes_stream_in_bounded_memory_on_every_map_path() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut schemas = Vec::new();
    for path in [MapPath::Events, MapPath::Shape, MapPath::Values] {
        // As `infer` without `--stats`: the stats tally keeps every
        // distinct type by design.
        let result = JobConfig::new()
            .map_path(path)
            .without_type_stats()
            .build()
            .run(Source::ndjson(BufReader::new(Generated::new(
                VARIED_BYTES,
                unique_shapes,
            ))))
            .unwrap();
        assert!(result.records > 1_000_000, "{} records", result.records);
        let peak = peak_rss_mb();
        assert!(
            peak < RSS_CEILING_MB,
            "{path:?}: peak RSS {peak} MB over the {RSS_CEILING_MB} MB ceiling"
        );
        eprintln!("{path:?}: {} records, peak RSS {peak} MB", result.records);
        schemas.push(result.schema);
    }
    assert!(schemas.windows(2).all(|w| w[0] == w[1]));
    assert!(schemas[0].size() < 100, "{}", schemas[0]);
}
