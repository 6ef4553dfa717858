//! `typefuse query` — run a schema-checked pipeline over NDJSON data.
//!
//! Records take the same fold as `infer` (fail-fast, so malformed input
//! exits 3 and unreadable input 4). Evaluation needs every row, so the
//! rows stay in memory, in input order; each record's type is fused in
//! the same pass and checks the script when no `--schema` is given.

use crate::args::ArgStream;
use crate::{CliError, CliResult};
use typefuse::fold::Accumulator;
use typefuse::JobConfig;
use typefuse_infer::{infer_type, FuseConfig, Fuser};
use typefuse_json::{Parser, Value};
use typefuse_query::Pipeline;
use typefuse_types::{parse_type, Type};

pub(crate) fn run(args: &mut ArgStream) -> CliResult {
    let input = args.next_positional();
    let script_path = args
        .option("--script")?
        .ok_or_else(|| CliError::usage("query requires --script FILE"))?;
    let schema_path = args.option("--schema")?;
    let check_only = args.flag("--check-only");
    args.finish()?;

    let script = std::fs::read_to_string(&script_path)
        .map_err(|e| CliError::runtime(format!("cannot read {script_path}: {e}")))?;
    let pipeline =
        Pipeline::parse(&script).map_err(|e| CliError::runtime(format!("{script_path}: {e}")))?;

    // With --check-only and an explicit schema no data is needed at all —
    // do not touch the input (reading stdin would block).
    let rows = if check_only && schema_path.is_some() {
        Rows::default()
    } else {
        let job = JobConfig::new().build();
        let mut reader = crate::cmd_infer::open_input(input.as_deref())?;
        let mut rows = typefuse::fold::run(&job, &mut reader, Rows::default)
            .map_err(crate::ingest_error)?
            .acc;
        rows.rows.sort_unstable_by_key(|&(line, _)| line);
        rows
    };

    // Schema: explicit file, or inferred from the data itself.
    let schema = match &schema_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
            parse_type(text.trim())
                .map_err(|e| CliError::runtime(format!("invalid schema: {e}")))?
        }
        None => rows.schema,
    };

    let out_schema = pipeline
        .check(&schema)
        .map_err(|e| CliError::runtime(format!("type error: {e}")))?;
    eprintln!("output schema: {out_schema}");
    if check_only {
        return Ok(());
    }

    let values: Vec<Value> = rows.rows.into_iter().map(|(_, value)| value).collect();
    let out = pipeline
        .eval(&values)
        .map_err(|e| CliError::runtime(format!("evaluation failed: {e}")))?;
    for row in &out {
        println!("{row}");
    }
    eprintln!("{} row(s)", out.len());
    Ok(())
}

/// One worker's rows with their input lines, and the schema their
/// types fuse to.
struct Rows {
    rows: Vec<(u64, Value)>,
    schema: Type,
}

impl Default for Rows {
    fn default() -> Self {
        Rows {
            rows: Vec::new(),
            schema: Type::Bottom,
        }
    }
}

impl Accumulator for Rows {
    fn absorb(&mut self, line: u64, text: &str) -> typefuse_json::Result<()> {
        let value = Parser::new(text.as_bytes()).parse_complete()?;
        FuseConfig::default().absorb_type(&mut self.schema, &infer_type(&value));
        self.rows.push((line, value));
        Ok(())
    }

    fn merge(&mut self, other: Self) {
        self.rows.extend(other.rows);
        Fuser::merge(&FuseConfig::default(), &mut self.schema, &other.schema);
    }
}
