//! Bounded memory, end to end: at least 1 GB of generated NDJSON streams
//! through `SchemaJob::run` and `SchemaJob::run_profiled` from an
//! in-process reader — no file, no buffering of the input — and the
//! process's peak RSS must stay under a fixed ceiling.
//!
//! The test is ignored by default because it moves a gigabyte; run it
//! in release mode:
//!
//! ```sh
//! cargo test --release --test bounded_memory -- --ignored
//! ```

use std::io::{BufReader, Read};

use typefuse::pipeline::Source;
use typefuse::JobConfig;

/// Bytes streamed per run.
const INPUT_BYTES: u64 = 1 << 30;
/// Peak RSS allowed for the whole process. The fold holds a few slabs
/// of 1 MiB per worker plus per-distinct-type state; a route that
/// buffered its input would need many gigabytes here.
const RSS_CEILING_MB: u64 = 64;

/// An endless NDJSON stream of a few record shapes, cut after `limit`
/// bytes (on a line boundary).
struct Generated {
    limit: u64,
    produced: u64,
    record: u64,
    line: Vec<u8>,
    pos: usize,
}

impl Generated {
    fn new(limit: u64) -> Self {
        Generated {
            limit,
            produced: 0,
            record: 0,
            line: Vec::new(),
            pos: 0,
        }
    }

    fn next_line(&mut self) {
        let n = self.record;
        self.record += 1;
        self.line.clear();
        let line = match n % 4 {
            0 => format!(
                "{{\"id\":{n},\"user\":{{\"name\":\"u{}\",\"tags\":[\"a\",\"b\"]}},\"score\":{}.5,\"ok\":true}}\n",
                n % 1000,
                n % 97
            ),
            1 => format!("{{\"id\":\"{n}\",\"user\":null,\"text\":\"{}\"}}\n", "x".repeat((n % 200) as usize)),
            2 => format!("{{\"id\":{n},\"geo\":{{\"coordinates\":[{}.1,{}.2]}},\"ok\":false}}\n", n % 90, n % 180),
            _ => format!("{{\"delete\":{{\"status\":{{\"id\":{n}}}}}}}\n"),
        };
        self.line.extend_from_slice(line.as_bytes());
        self.pos = 0;
    }
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
    let job = JobConfig::new().build();
    let plain = job
        .run(Source::ndjson(BufReader::new(Generated::new(INPUT_BYTES))))
        .unwrap();
    assert!(plain.records > 4_000_000, "{} records", plain.records);
    let after_plain = peak_rss_mb();
    assert!(
        after_plain < RSS_CEILING_MB,
        "run: peak RSS {after_plain} MB over the {RSS_CEILING_MB} MB ceiling"
    );

    let profiled = job
        .run_profiled(Source::ndjson(BufReader::new(Generated::new(INPUT_BYTES))))
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
