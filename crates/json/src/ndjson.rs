//! Newline-delimited JSON (NDJSON) streaming.
//!
//! All four datasets in the paper's evaluation (GitHub, Twitter, Wikidata,
//! NYTimes) are stored as one JSON object per line. This module holds the
//! line-level pieces every NDJSON reader shares: the bounded line reader
//! that the fold in the `typefuse` crate cuts its slabs with, and the
//! NDJSON writer.
//!
//! Because the paper's inputs are remote multi-gigabyte dumps, the line
//! reader is also where ingestion fault tolerance starts:
//!
//! * [`RetryPolicy`] — bounded retry with exponential backoff for
//!   *transient* I/O errors ([`std::io::ErrorKind::Interrupted`] /
//!   [`std::io::ErrorKind::WouldBlock`]), counted as `ingest.retries`;
//! * [`read_line_bounded`] — a `fill_buf`-level line reader with an
//!   optional `max_line_bytes` guard, so one pathological line degrades
//!   into a [`RecordTooLarge`](crate::ErrorKind::RecordTooLarge) record instead of ballooning
//!   memory.

use crate::value::Value;
use std::io::BufRead;
use std::time::Duration;
use typefuse_obs::Recorder;

/// Bounded retry with exponential backoff for transient I/O errors.
///
/// Only [`std::io::ErrorKind::Interrupted`] and
/// [`std::io::ErrorKind::WouldBlock`] are considered transient; every
/// other error kind fails immediately. Retrying a buffered line read is
/// safe because partial data already appended to the line buffer is kept
/// — the next attempt continues exactly where the stream stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of retries per failing read (0 disables retrying).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt (capped at
    /// 100 ms).
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    /// Four retries starting at 2 ms — enough to ride out signal
    /// interruptions and momentary `WouldBlock`s without stalling a
    /// genuinely dead source for long.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// Never retry: every I/O error is surfaced immediately.
    pub const fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
        }
    }

    /// Whether an error kind is worth retrying.
    pub fn is_transient(kind: std::io::ErrorKind) -> bool {
        matches!(
            kind,
            std::io::ErrorKind::Interrupted | std::io::ErrorKind::WouldBlock
        )
    }

    /// Backoff before retry number `attempt` (0-based): exponential from
    /// `base_backoff`, capped at 100 ms.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let cap = Duration::from_millis(100);
        self.base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(cap)
    }
}

/// Outcome of [`read_line_bounded`]: how many raw bytes the line consumed
/// from the stream (including its newline) and whether the content was cut
/// off by the `max_line_bytes` guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawLine {
    /// Raw bytes consumed, including the trailing newline if present.
    /// Zero means end of input (no line).
    pub consumed: usize,
    /// The line exceeded `max_line_bytes`; `buf` holds only the first
    /// `max_line_bytes` bytes of its content.
    pub truncated: bool,
}

/// Read one line's *content* (no trailing newline) into `buf`, retrying
/// transient I/O errors per `policy` (each retry counts `ingest.retries`
/// on `rec`) and capping the buffered content at `max_line_bytes`.
///
/// Oversized lines are still consumed from the stream to the next
/// newline — only the buffer is bounded — so the reader stays positioned
/// on record boundaries and can keep going under a skip/quarantine
/// policy.
pub fn read_line_bounded<R: BufRead + ?Sized>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    max_line_bytes: Option<usize>,
    policy: RetryPolicy,
    rec: &Recorder,
) -> std::io::Result<RawLine> {
    let mut consumed = 0usize;
    let mut truncated = false;
    let mut attempts = 0u32;
    loop {
        let (take, done) = {
            let chunk = match reader.fill_buf() {
                Ok(chunk) => {
                    attempts = 0;
                    chunk
                }
                Err(e) if RetryPolicy::is_transient(e.kind()) && attempts < policy.max_retries => {
                    rec.add("ingest.retries", 1);
                    std::thread::sleep(policy.backoff(attempts));
                    attempts += 1;
                    continue;
                }
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                return Ok(RawLine {
                    consumed,
                    truncated,
                });
            }
            let (take, done) = match chunk.iter().position(|&b| b == b'\n') {
                Some(i) => (i + 1, true),
                None => (chunk.len(), false),
            };
            let content = if done { take - 1 } else { take };
            match max_line_bytes {
                Some(cap) => {
                    let room = cap.saturating_sub(buf.len());
                    if content > room {
                        truncated = true;
                    }
                    buf.extend_from_slice(&chunk[..content.min(room)]);
                }
                None => buf.extend_from_slice(&chunk[..content]),
            }
            (take, done)
        };
        reader.consume(take);
        consumed += take;
        if done {
            return Ok(RawLine {
                consumed,
                truncated,
            });
        }
    }
}

/// Serialize an iterator of values as NDJSON into a writer.
pub fn write_ndjson<'a, W, I>(mut writer: W, values: I) -> std::io::Result<u64>
where
    W: std::io::Write,
    I: IntoIterator<Item = &'a Value>,
{
    let mut bytes = 0u64;
    for v in values {
        let line = crate::ser::to_string(v);
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        bytes += line.len() as u64 + 1;
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn write_then_read_round_trip() {
        let values = vec![json!({"k": [1, 2.5, "s"]}), json!(null), json!([{}])];
        let mut buf = Vec::new();
        let bytes = write_ndjson(&mut buf, &values).unwrap();
        assert_eq!(bytes, buf.len() as u64);
        let mut reader = &buf[..];
        let mut back = Vec::new();
        loop {
            let mut line = Vec::new();
            let raw = read_line_bounded(
                &mut reader,
                &mut line,
                None,
                RetryPolicy::none(),
                &Recorder::disabled(),
            )
            .unwrap();
            if raw.consumed == 0 {
                break;
            }
            back.push(crate::parse::Parser::new(&line).parse_complete().unwrap());
        }
        assert_eq!(back, values);
    }

    #[test]
    fn bounded_reader_handles_missing_final_newline() {
        let mut buf = Vec::new();
        let mut reader: &[u8] = b"{\"a\":1}";
        let raw = read_line_bounded(
            &mut reader,
            &mut buf,
            None,
            RetryPolicy::none(),
            &Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(raw.consumed, 7);
        assert!(!raw.truncated);
        assert_eq!(buf, b"{\"a\":1}");
    }

    #[test]
    fn bounded_reader_caps_the_line_and_consumes_the_rest() {
        let mut reader: &[u8] = b"{\"large\":\"xxxxxxxxxxxxxxxxxxxx\"}\n{}\n";
        let mut buf = Vec::new();
        let rec = Recorder::disabled();
        let raw =
            read_line_bounded(&mut reader, &mut buf, Some(16), RetryPolicy::none(), &rec).unwrap();
        assert!(raw.truncated);
        assert_eq!(raw.consumed, 33);
        assert_eq!(buf, b"{\"large\":\"xxxxxx");
        buf.clear();
        let raw =
            read_line_bounded(&mut reader, &mut buf, Some(16), RetryPolicy::none(), &rec).unwrap();
        assert!(!raw.truncated);
        assert_eq!(buf, b"{}");
    }
}
