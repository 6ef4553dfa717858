//! Shared job flags: every subcommand that ingests NDJSON parses the
//! same options into the same [`JobConfig`] builder, so `infer`,
//! `stats`, `check`, `bench` and `serve` cannot drift apart in how they
//! spell or resolve a knob.

use crate::args::ArgStream;
use crate::{CliError, CliResult};
use typefuse::pipeline::MapPath;
use typefuse::JobConfig;
use typefuse::{ErrorPolicy, RetryPolicy};
use typefuse_json::ParserOptions;
use typefuse_obs::Recorder;

/// The parsed job flags. [`JobFlags::parse`] consumes the full set
/// (execution + ingest); [`JobFlags::parse_ingest`] only the ingest
/// subset (`--on-error`, `--quarantine`, `--max-errors`, `--max-depth`,
/// `--max-line-bytes`) for subcommands without an execution matrix.
pub(crate) struct JobFlags {
    pub(crate) workers: Option<usize>,
    pub(crate) map_path: Option<MapPath>,
    pub(crate) policy: ErrorPolicy,
    pub(crate) max_depth: Option<usize>,
    pub(crate) max_line_bytes: Option<usize>,
}

impl JobFlags {
    /// Parse the full flag set: `--workers`, `--map-path`, plus
    /// everything in [`JobFlags::parse_ingest`].
    pub(crate) fn parse(args: &mut ArgStream) -> Result<JobFlags, CliError> {
        let workers = args.parsed_option("--workers")?;
        let map_path = args
            .option("--map-path")?
            .as_deref()
            .map(parse_map_path)
            .transpose()?;
        let mut flags = JobFlags::parse_ingest(args)?;
        flags.workers = workers;
        flags.map_path = map_path;
        Ok(flags)
    }

    /// Parse only the ingest flags (error policy and parser limits).
    pub(crate) fn parse_ingest(args: &mut ArgStream) -> Result<JobFlags, CliError> {
        let on_error = args.option("--on-error")?;
        let quarantine = args.option("--quarantine")?;
        let max_errors: Option<u64> = args.parsed_option("--max-errors")?;
        let max_depth: Option<usize> = args.parsed_option("--max-depth")?;
        let max_line_bytes: Option<usize> = args.parsed_option("--max-line-bytes")?;
        let policy = resolve_policy(on_error.as_deref(), quarantine.as_deref(), max_errors)?;
        Ok(JobFlags {
            workers: None,
            map_path: None,
            policy,
            max_depth,
            max_line_bytes,
        })
    }

    /// The parser options these flags imply.
    pub(crate) fn parser_options(&self) -> ParserOptions {
        let mut options = ParserOptions::default();
        if let Some(depth) = self.max_depth {
            options.max_depth = depth;
        }
        options
    }

    /// Assemble the [`JobConfig`] every route builds on.
    pub(crate) fn config(&self, recorder: Recorder) -> JobConfig {
        let mut config = JobConfig::new()
            .recorder(recorder)
            .on_error(self.policy.clone())
            .retry(RetryPolicy::default())
            .parser_options(self.parser_options());
        if let Some(cap) = self.max_line_bytes {
            config = config.max_line_bytes(cap);
        }
        if let Some(w) = self.workers {
            config = config.workers(w);
        }
        if let Some(path) = self.map_path {
            config = config.map_path(path);
        }
        config
    }
}

/// Parse one `--map-path` value — shared by every subcommand that
/// selects a Map route, so the accepted spellings cannot drift.
pub(crate) fn parse_map_path(value: &str) -> Result<MapPath, CliError> {
    match value {
        "events" => Ok(MapPath::Events),
        "value" | "values" => Ok(MapPath::Values),
        "shape" => Ok(MapPath::Shape),
        other => Err(CliError::usage(format!(
            "unknown map path `{other}` (expected events, value or shape)"
        ))),
    }
}

/// Resolve `--on-error`/`--quarantine`/`--max-errors` into an
/// [`ErrorPolicy`], rejecting contradictory combinations.
fn resolve_policy(
    on_error: Option<&str>,
    quarantine: Option<&str>,
    max_errors: Option<u64>,
) -> Result<ErrorPolicy, CliError> {
    let policy = match (on_error, quarantine) {
        (None | Some("quarantine"), Some(sink)) => ErrorPolicy::Quarantine {
            sink: sink.into(),
            max_errors,
        },
        (Some("quarantine"), None) => {
            return Err(CliError::usage(
                "--on-error quarantine requires --quarantine FILE",
            ))
        }
        (Some("skip"), None) => ErrorPolicy::Skip { max_errors },
        (Some("skip"), Some(_)) => {
            return Err(CliError::usage(
                "--quarantine implies --on-error quarantine; drop --on-error skip",
            ))
        }
        (None | Some("fail"), None) => {
            if max_errors.is_some() {
                return Err(CliError::usage(
                    "--max-errors needs --on-error skip or quarantine",
                ));
            }
            ErrorPolicy::FailFast
        }
        (Some("fail"), Some(_)) => {
            return Err(CliError::usage(
                "--quarantine implies --on-error quarantine; drop --on-error fail",
            ))
        }
        (Some(other), _) => {
            return Err(CliError::usage(format!(
                "unknown error policy `{other}` (expected fail, skip or quarantine)"
            )))
        }
    };
    Ok(policy)
}

/// Write `payload` to `path` wrapped in the workspace response envelope
/// (`{"schema_version", "kind", "payload"}`) — the one shape every
/// JSON-emitting subcommand and the serve protocol share.
pub(crate) fn write_envelope(path: &str, kind: &str, payload: &str) -> CliResult {
    std::fs::write(path, typefuse_obs::envelope(kind, payload))
        .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_parse_covers_the_execution_matrix() {
        let mut args = ArgStream::from_vec(&[
            "--workers",
            "3",
            "--map-path",
            "events",
            "--on-error",
            "skip",
            "--max-errors",
            "2",
            "--max-depth",
            "64",
            "--max-line-bytes",
            "4096",
        ]);
        let flags = JobFlags::parse(&mut args).unwrap();
        args.finish().unwrap();
        assert_eq!(flags.workers, Some(3));
        assert_eq!(flags.map_path, Some(MapPath::Events));
        assert!(matches!(
            flags.policy,
            ErrorPolicy::Skip {
                max_errors: Some(2)
            }
        ));
        assert_eq!(flags.parser_options().max_depth, 64);
        let config = flags.config(Recorder::disabled());
        assert_eq!(config.workers, Some(3));
        assert_eq!(config.max_line_bytes, Some(4096));
    }

    #[test]
    fn ingest_parse_rejects_contradictions() {
        let mut args = ArgStream::from_vec(&["--max-errors", "3"]);
        assert!(JobFlags::parse_ingest(&mut args).is_err());
        let mut args = ArgStream::from_vec(&["--on-error", "quarantine"]);
        assert!(JobFlags::parse_ingest(&mut args).is_err());
        let mut args = ArgStream::from_vec(&["--on-error", "nonsense"]);
        assert!(JobFlags::parse_ingest(&mut args).is_err());
    }
}
