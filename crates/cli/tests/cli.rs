//! Integration tests driving the real `typefuse` binary.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn typefuse(args: &[&str], stdin: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_typefuse"));
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    cmd.stdin(if stdin.is_some() {
        Stdio::piped()
    } else {
        Stdio::null()
    });
    let mut child = cmd.spawn().expect("binary spawns");
    if let Some(input) = stdin {
        // The binary may exit (e.g. on a usage error) before reading all
        // of stdin; a broken pipe here is expected, not a test failure.
        let _ = child
            .stdin
            .as_mut()
            .expect("stdin piped")
            .write_all(input.as_bytes());
    }
    child.wait_with_output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_prints_usage() {
    let out = typefuse(&["help"], None);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
}

#[test]
fn no_args_is_a_usage_error() {
    let out = typefuse(&[], None);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("USAGE"));
}

#[test]
fn unknown_command_is_a_usage_error() {
    let out = typefuse(&["frobnicate"], None);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn infer_from_stdin_text_format() {
    let out = typefuse(
        &["infer", "-", "--format", "text"],
        Some("{\"a\":1}\n{\"a\":\"x\",\"b\":true}\n"),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out).trim(), "{a: Num + Str, b: Bool?}");
}

#[test]
fn infer_stats_go_to_stderr() {
    let out = typefuse(
        &["infer", "-", "--format", "text", "--stats"],
        Some("{\"a\":1}\n{\"a\":2}\n"),
    );
    assert!(out.status.success());
    let err = stderr(&out);
    assert!(err.contains("records           2"), "stderr: {err}");
    assert!(err.contains("distinct types    1"));
}

#[test]
fn infer_json_schema_format() {
    let out = typefuse(
        &["infer", "-", "--format", "json-schema"],
        Some("{\"a\":1}\n"),
    );
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("\"$schema\""));
    assert!(text.contains("\"properties\""));
}

#[test]
fn infer_rejects_bad_json() {
    let out = typefuse(&["infer", "-"], Some("{oops\n"));
    assert_eq!(out.status.code(), Some(3), "parse errors exit 3");
    assert!(stderr(&out).contains("parse error"));
}

#[test]
fn infer_rejects_unknown_format() {
    let out = typefuse(&["infer", "-", "--format", "yaml"], Some("{}\n"));
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn generate_then_infer_pipe() {
    let gen = typefuse(
        &[
            "generate",
            "--profile",
            "github",
            "--records",
            "50",
            "--seed",
            "3",
        ],
        None,
    );
    assert!(gen.status.success());
    let ndjson = stdout(&gen);
    assert_eq!(ndjson.lines().count(), 50);

    let inf = typefuse(&["infer", "-", "--format", "text"], Some(&ndjson));
    assert!(inf.status.success());
    let schema = stdout(&inf);
    assert!(schema.contains("merged_at"), "schema: {schema}");
}

#[test]
fn generate_is_deterministic() {
    let a = typefuse(
        &["generate", "--profile", "twitter", "--records", "5"],
        None,
    );
    let b = typefuse(
        &["generate", "--profile", "twitter", "--records", "5"],
        None,
    );
    assert_eq!(stdout(&a), stdout(&b));
}

#[test]
fn generate_requires_profile() {
    let out = typefuse(&["generate"], None);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--profile"));
}

#[test]
fn generate_rejects_unknown_profile() {
    let out = typefuse(&["generate", "--profile", "hackernews"], None);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn stats_reports_counts() {
    let out = typefuse(&["stats", "-"], Some("{\"a\":1}\n{\"a\":{\"b\":2}}\n"));
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("records     2"));
    assert!(text.contains("max depth   3"));
}

#[test]
fn check_accepts_conforming_data() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-ok");
    std::fs::create_dir_all(&dir).unwrap();
    let schema_path = dir.join("schema.txt");
    std::fs::write(&schema_path, "{a: Num, b: Str?}\n").unwrap();

    let out = typefuse(
        &["check", "-", "--schema", schema_path.to_str().unwrap()],
        Some("{\"a\":1}\n{\"a\":2,\"b\":\"x\"}\n"),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("2 of 2 records conform"));
}

#[test]
fn check_rejects_nonconforming_data() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-bad");
    std::fs::create_dir_all(&dir).unwrap();
    let schema_path = dir.join("schema.txt");
    std::fs::write(&schema_path, "{a: Num}\n").unwrap();

    let out = typefuse(
        &["check", "-", "--schema", schema_path.to_str().unwrap()],
        Some("{\"a\":1}\n{\"a\":\"nope\"}\n"),
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("line 2: not admitted"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn sim_single_placement_idles_nodes() {
    let out = typefuse(&["sim", "--placement", "single", "--blocks", "24"], None);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("busy nodes   2 of 6"), "output: {text}");
}

#[test]
fn sim_spread_placement_uses_all_nodes() {
    let out = typefuse(&["sim", "--placement", "spread", "--blocks", "24"], None);
    assert!(out.status.success());
    assert!(stdout(&out).contains("busy nodes   6 of 6"));
}

#[test]
fn sim_rejects_unknown_placement() {
    let out = typefuse(&["sim", "--placement", "everywhere"], None);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unexpected_argument_is_reported() {
    let out = typefuse(&["stats", "-", "--bogus"], None);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--bogus"));
}

#[test]
fn diff_reports_drift_between_datasets() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-diff");
    std::fs::create_dir_all(&dir).unwrap();
    let old = dir.join("old.ndjson");
    let new = dir.join("new.ndjson");
    std::fs::write(&old, "{\"id\":1,\"name\":\"a\"}\n").unwrap();
    std::fs::write(&new, "{\"id\":\"x\",\"name\":\"a\",\"tags\":[1]}\n").unwrap();
    let out = typefuse(
        &["diff", old.to_str().unwrap(), new.to_str().unwrap()],
        None,
    );
    assert_eq!(out.status.code(), Some(1), "drift exits non-zero");
    let text = stdout(&out);
    assert!(text.contains("+ $.tags (new)"), "output: {text}");
    assert!(text.contains("~ $.id: Num"), "output: {text}");
}

#[test]
fn diff_of_identical_data_is_clean() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-diff2");
    std::fs::create_dir_all(&dir).unwrap();
    let f = dir.join("same.ndjson");
    std::fs::write(&f, "{\"a\":1}\n").unwrap();
    let out = typefuse(&["diff", f.to_str().unwrap(), f.to_str().unwrap()], None);
    assert!(out.status.success());
    assert!(stdout(&out).contains("no structural changes"));
}

#[test]
fn diff_schemas_mode() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-diff3");
    std::fs::create_dir_all(&dir).unwrap();
    let old = dir.join("old.schema");
    let new = dir.join("new.schema");
    std::fs::write(&old, "{a: Num}\n").unwrap();
    std::fs::write(&new, "{a: Num?}\n").unwrap();
    let out = typefuse(
        &[
            "diff",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--schemas",
        ],
        None,
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("mandatory → optional"));
}

#[test]
fn stdin_infer_matches_file_infer() {
    let data = "{\"a\":1}\n{\"a\":\"x\",\"b\":[1,2]}\n{\"b\":[]}\n";
    let dir = std::env::temp_dir().join("typefuse-cli-test-stdin");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("data-{}.ndjson", std::process::id()));
    std::fs::write(&path, data).unwrap();
    let from_file = typefuse(&["infer", path.to_str().unwrap(), "--format", "text"], None);
    let from_stdin = typefuse(&["infer", "-", "--format", "text"], Some(data));
    let _ = std::fs::remove_file(&path);
    assert!(from_file.status.success() && from_stdin.status.success());
    assert_eq!(stdout(&from_file), stdout(&from_stdin));
}
#[test]
fn removed_flags_are_usage_errors() {
    for flag in ["--streaming", "--counting", "--sequential-reduce"] {
        let out = typefuse(&["infer", "-", flag], Some("{}\n"));
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(stderr(&out).contains(flag), "{flag}: {}", stderr(&out));
    }
    // Every schema fold saturates (each distinct type fused at most
    // twice): there is no Reduce route left to pick.
    let out = typefuse(&["infer", "-", "--dedup", "on"], Some("{}\n"));
    assert_eq!(out.status.code(), Some(2), "infer --dedup");
    assert!(stderr(&out).contains("--dedup"), "{}", stderr(&out));
    // Text input is cut into slabs, not partitions.
    for args in [
        vec!["infer", "-", "--partitions", "3"],
        vec!["explain", ".a", "--partitions", "3"],
    ] {
        let out = typefuse(&args, Some("{\"a\":1}\n"));
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr(&out).contains("--partitions"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    // Serve folds one profile per source, whatever the job's Reduce
    // and Map routes: it takes neither flag.
    for (flag, value) in [("--dedup", "on"), ("--map-path", "shape")] {
        let out = typefuse(&["serve", flag, value], None);
        assert_eq!(out.status.code(), Some(2), "serve {flag}");
        assert!(stderr(&out).contains(flag), "{flag}: {}", stderr(&out));
    }
}
#[test]
fn stdin_errors_report_line_numbers() {
    let out = typefuse(&["infer", "-"], Some("{}\n{bad\n"));
    assert_eq!(out.status.code(), Some(3), "parse errors exit 3");
    assert!(stderr(&out).contains("line 2"), "stderr: {}", stderr(&out));
}
#[test]
fn query_runs_checked_pipelines() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-query");
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("q.tfq");
    std::fs::write(&script, "filter $.n > 1\nproject $.n\n").unwrap();
    let out = typefuse(
        &["query", "-", "--script", script.to_str().unwrap()],
        Some("{\"n\":1}\n{\"n\":2}\n{\"n\":3}\n"),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out), "{\"n\":2}\n{\"n\":3}\n");
    assert!(stderr(&out).contains("output schema: {n: Num}"));
}

#[test]
fn query_rejects_bad_paths_statically() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-query2");
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("q.tfq");
    std::fs::write(&script, "project $.typo\n").unwrap();
    let out = typefuse(
        &[
            "query",
            "-",
            "--script",
            script.to_str().unwrap(),
            "--check-only",
        ],
        Some("{\"n\":1}\n"),
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("type error"));
}

#[test]
fn query_against_explicit_schema() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-query3");
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("q.tfq");
    let schema = dir.join("s.schema");
    std::fs::write(&script, "filter exists $.extra\n").unwrap();
    std::fs::write(&schema, "{n: Num}\n").unwrap();
    let out = typefuse(
        &[
            "query",
            "-",
            "--script",
            script.to_str().unwrap(),
            "--schema",
            schema.to_str().unwrap(),
            "--check-only",
        ],
        Some("{\"n\":1}\n"),
    );
    // $.extra is unknown in the declared schema even though checking data
    // alone would also reject it here; the point is the schema wins.
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn file_and_stdin_agree_across_workers_and_routes() {
    // About 2.5 MB, so the input spans several slabs of the fold.
    let dir = std::env::temp_dir().join("typefuse-cli-test-slabs");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("data-{}.ndjson", std::process::id()));
    let contents: String = (0..24_000)
        .map(|i| match i % 3 {
            0 => format!("{{\"n\":{i},\"s\":\"{}\"}}\n", "x".repeat(i % 80)),
            1 => format!("{{\"n\":\"{i}\",\"a\":[{i},true]}}\n"),
            _ => format!("{{\"m\":{{\"k\":null}},\"a\":[{i}]}}\n"),
        })
        .collect();
    std::fs::write(&path, &contents).unwrap();
    let file = path.to_str().unwrap();

    let baseline = typefuse(&["infer", file, "--format", "text", "--workers", "1"], None);
    assert!(baseline.status.success(), "stderr: {}", stderr(&baseline));
    for workers in ["1", "2", "4"] {
        for route in [
            vec![],
            vec!["--map-path", "shape"],
            vec!["--map-path", "value"],
        ] {
            let mut args = vec!["--format", "text", "--workers", workers];
            args.extend(&route);
            let from_file = typefuse(&[&["infer", file], &args[..]].concat(), None);
            let from_stdin = typefuse(&[&["infer", "-"], &args[..]].concat(), Some(&contents));
            assert_eq!(stdout(&from_file), stdout(&baseline), "{workers} {route:?}");
            assert_eq!(
                stdout(&from_stdin),
                stdout(&baseline),
                "{workers} {route:?}"
            );
        }
        // The positional-array ablation composes with stdin too.
        let args = [
            "--format",
            "text",
            "--workers",
            workers,
            "--positional-arrays",
        ];
        let from_file = typefuse(&[&["infer", file], &args[..]].concat(), None);
        let from_stdin = typefuse(&[&["infer", "-"], &args[..]].concat(), Some(&contents));
        assert!(from_file.status.success(), "stderr: {}", stderr(&from_file));
        assert_eq!(stdout(&from_file), stdout(&from_stdin), "{workers}");
    }
    let _ = std::fs::remove_file(&path);
}
#[test]
fn registry_publish_and_gate() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-registry");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("reg.ndjson");
    let _ = std::fs::remove_file(&log);
    let log = log.to_str().unwrap();

    // v1 inferred from data.
    let out = typefuse(
        &["registry", "publish", "events", "-", "--log", log],
        Some("{\"id\":1,\"name\":\"a\"}\n"),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("published version 1"));

    // Widened v2 passes the backward gate.
    let out = typefuse(
        &["registry", "publish", "events", "-", "--log", log],
        Some("{\"id\":1,\"name\":\"a\",\"tags\":[\"x\"]}\n{\"id\":2,\"name\":\"b\"}\n"),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("published version 2"));

    // Narrowing is rejected with the changes listed.
    let out = typefuse(
        &["registry", "publish", "events", "-", "--log", log],
        Some("{\"id\":1}\n"),
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("not backward-compatible"));
    assert!(stderr(&out).contains("$.name"), "stderr: {}", stderr(&out));

    // History and diff work.
    let out = typefuse(&["registry", "history", "events", "--log", log], None);
    assert!(out.status.success());
    assert_eq!(stdout(&out).lines().count(), 2);

    let out = typefuse(
        &["registry", "diff", "events", "1", "2", "--log", log],
        None,
    );
    assert!(out.status.success());
    assert!(stdout(&out).contains("+ $.tags (new)"));

    let out = typefuse(&["registry", "names", "--log", log], None);
    assert_eq!(stdout(&out).trim(), "events");

    let out = typefuse(&["registry", "latest", "events", "--log", log], None);
    assert!(stdout(&out).contains("tags"));
}

#[test]
fn registry_usage_errors() {
    let out = typefuse(&["registry"], None);
    assert_eq!(out.status.code(), Some(2));
    let out = typefuse(&["registry", "frobnicate"], None);
    assert_eq!(out.status.code(), Some(2));
    let out = typefuse(&["registry", "publish"], None);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn infer_metrics_json_emits_a_structured_report() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.ndjson");
    let contents: String = (0..50)
        .map(|i| format!("{{\"n\":{i},\"tags\":[\"a\",\"b\"]}}\n"))
        .collect();
    std::fs::write(&data, &contents).unwrap();
    let metrics = dir.join("metrics.json");
    let trace = dir.join("trace.json");

    let out = typefuse(
        &[
            "infer",
            data.to_str().unwrap(),
            "--format",
            "text",
            "--metrics-json",
            metrics.to_str().unwrap(),
            "--trace-json",
            trace.to_str().unwrap(),
        ],
        None,
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // The report is a versioned envelope with the promised keys and
    // real counts under /payload.
    let text = std::fs::read_to_string(&metrics).unwrap();
    let envelope =
        typefuse_json::Envelope::expect_kind(&text, "metrics").expect("metrics envelope parses");
    assert_eq!(envelope.schema_version, 1);
    let report = typefuse_json::parse_value(&text).expect("metrics report is valid JSON");
    assert_eq!(
        report
            .pointer("/payload/counters/records")
            .unwrap()
            .as_i64(),
        Some(50)
    );
    assert_eq!(
        report
            .pointer("/payload/counters/json.records")
            .unwrap()
            .as_i64(),
        Some(50)
    );
    assert_eq!(
        report
            .pointer("/payload/counters/json.bytes")
            .unwrap()
            .as_i64(),
        Some(contents.len() as i64)
    );
    assert!(
        report
            .pointer("/payload/counters/fuse.calls")
            .unwrap()
            .as_i64()
            .unwrap()
            > 0
    );
    assert!(report
        .pointer("/payload/histograms/fuse.union_width/count")
        .is_some());
    assert!(report
        .pointer("/payload/histograms/infer.record_width/count")
        .is_some());
    assert!(report
        .pointer("/payload/spans/pipeline.map/total_ns")
        .is_some());
    let stages = report
        .pointer("/payload/stages")
        .unwrap()
        .as_array()
        .unwrap();
    let names: Vec<&str> = stages
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(names, ["map", "reduce.local_fold"]);
    let task = stages[0].get("tasks").unwrap().as_array().unwrap()[0].clone();
    assert!(task.get("queue_wait_ns").is_some());
    assert!(task.get("execute_ns").is_some());

    // The trace is valid Chrome trace-event JSON with complete events.
    let trace = typefuse_json::parse_value(&std::fs::read_to_string(&trace).unwrap())
        .expect("trace is valid JSON");
    let events = trace.pointer("/traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty());
    for e in events {
        assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
        assert!(e.get("ts").is_some() && e.get("dur").is_some());
    }
    assert!(events
        .iter()
        .any(|e| e.get("name").unwrap().as_str() == Some("pipeline.reduce")));
}

#[test]
fn infer_metrics_count_records_and_io() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-metrics-io");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.ndjson");
    let contents: String = (0..80).map(|i| format!("{{\"n\":{i}}}\n")).collect();
    std::fs::write(&data, &contents).unwrap();
    let metrics = dir.join("metrics.json");

    let out = typefuse(
        &[
            "infer",
            data.to_str().unwrap(),
            "--format",
            "text",
            "--metrics-json",
            metrics.to_str().unwrap(),
        ],
        None,
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let report = typefuse_json::parse_value(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let counter = |name: &str| {
        report
            .pointer(&format!("/payload/counters/{name}"))
            .and_then(|v| v.as_i64())
    };
    assert_eq!(counter("records"), Some(80));
    assert_eq!(counter("json.records"), Some(80));
    assert_eq!(counter("json.lines"), Some(80));
    assert_eq!(counter("json.bytes"), Some(contents.len() as i64));
}
#[test]
fn progress_flag_is_accepted() {
    let out = typefuse(
        &["infer", "-", "--progress", "--format", "text"],
        Some("{\"a\":1}\n"),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("{a: Num}"));
}

// ---- profiling & explain (data-plane observability) ---------------------

/// Synthetic dataset with one missing key and one mixed-type field at
/// exactly known lines: `b` is absent starting at line 2, and `a`'s
/// `Str` branch is introduced at line 4.
const PROVENANCE_DATA: &str = "\
{\"a\":1,\"b\":true}\n\
{\"a\":2}\n\
{\"a\":3,\"b\":false}\n\
{\"a\":\"x\",\"b\":true}\n";

#[test]
fn explain_reports_exact_provenance_lines() {
    let mut expected = None;
    for workers in ["1", "4"] {
        let out = typefuse(
            &["explain", ".a", "--workers", workers],
            Some(PROVENANCE_DATA),
        );
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("$.a: Num + Str"), "stdout: {text}");
        assert!(
            text.contains("present in 4/4 records (100.0%), first seen at line 1"),
            "stdout: {text}"
        );
        assert!(text.contains("required:"), "stdout: {text}");
        assert!(
            text.contains("branch Num: introduced at line 1 (3 occurrences)"),
            "stdout: {text}"
        );
        assert!(
            text.contains("branch Str: introduced at line 4 (1 occurrence)"),
            "stdout: {text}"
        );
        // Thread count cannot change the output.
        match &expected {
            None => expected = Some(text),
            Some(prev) => assert_eq!(&text, prev, "workers={workers} differs"),
        }
    }
}

#[test]
fn explain_reports_the_demoting_line() {
    for workers in ["1", "4"] {
        let out = typefuse(
            &["explain", "$.b", "--workers", workers],
            Some(PROVENANCE_DATA),
        );
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("$.b: Bool"), "stdout: {text}");
        assert!(
            text.contains("optional: missing at line 2"),
            "workers={workers}, stdout: {text}"
        );
        assert!(text.contains("(optional)"), "stdout: {text}");
    }
}

#[test]
fn explain_rejects_bad_and_missing_paths() {
    let out = typefuse(&["explain", "$..broken"], Some(PROVENANCE_DATA));
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("malformed path"));

    let out = typefuse(&["explain", ".nope"], Some(PROVENANCE_DATA));
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("does not occur"));
}

#[test]
fn explain_requires_a_path() {
    let out = typefuse(&["explain"], Some("{}\n"));
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("requires a path"));
}

#[test]
fn profile_json_is_identical_across_workers_and_map_paths() {
    let dir = std::env::temp_dir();
    let mut reports = Vec::new();
    for (i, (workers, map_path)) in [
        ("1", "events"),
        ("4", "events"),
        ("1", "value"),
        ("4", "value"),
    ]
    .iter()
    .enumerate()
    {
        let path = dir.join(format!(
            "typefuse-test-profile-{}-{i}.json",
            std::process::id()
        ));
        let path_str = path.to_str().unwrap();
        let out = typefuse(
            &[
                "infer",
                "-",
                "--format",
                "text",
                "--workers",
                workers,
                "--map-path",
                map_path,
                "--profile-json",
                path_str,
            ],
            Some(PROVENANCE_DATA),
        );
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        assert_eq!(stdout(&out).trim(), "{a: Num + Str, b: Bool?}");
        reports.push(std::fs::read_to_string(&path).expect("profile written"));
        let _ = std::fs::remove_file(&path);
    }
    for report in &reports[1..] {
        assert_eq!(report, &reports[0], "profile JSON must be byte-identical");
    }
    let envelope =
        typefuse_json::Envelope::expect_kind(&reports[0], "profile").expect("profile envelope");
    assert_eq!(envelope.schema_version, 1);
    assert!(
        reports[0].contains("\"first_absent_line\":2"),
        "{}",
        reports[0]
    );
    assert!(reports[0].contains("\"records\":4"));
}

#[test]
fn profile_json_composes_with_stats_and_ingest_flags() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let profile = dir.join(format!("typefuse-test-profile-compose-{pid}.json"));
    let profile = profile.to_str().unwrap();
    let dirty = "{\"a\":1}\n{oops\n{\"a\":{\"b\":{\"c\":1}}}\n{\"pad\":\"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\"}\n{\"a\":2}\n";
    let out = typefuse(
        &[
            "infer",
            "-",
            "--format",
            "text",
            "--profile-json",
            profile,
            "--stats",
            "--on-error",
            "skip",
            "--max-depth",
            "2",
            "--max-line-bytes",
            "40",
        ],
        Some(dirty),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    // The bad line, the too-deep record and the oversized line are
    // skipped; the profile and the stats see the two clean records.
    assert_eq!(stdout(&out).trim(), "{a: Num}");
    let err = stderr(&out);
    assert!(err.contains("skipped 3 bad record(s)"), "stderr: {err}");
    assert!(err.contains("records           2"), "stderr: {err}");
    let report = std::fs::read_to_string(profile).expect("profile written");
    let _ = std::fs::remove_file(profile);
    assert!(report.contains("\"records\":2"), "{report}");

    // Fail-fast (the default) reports the earliest bad line, as `infer`
    // without a profile does.
    let out = typefuse(&["infer", "-", "--profile-json", profile], Some(dirty));
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("line 2"), "stderr: {}", stderr(&out));
    let _ = std::fs::remove_file(profile);
}
#[test]
fn stats_and_check_write_metrics_json() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();

    let stats_path = dir.join(format!("typefuse-test-stats-{pid}.json"));
    let out = typefuse(
        &["stats", "-", "--metrics-json", stats_path.to_str().unwrap()],
        Some("{\"a\":1}\n{\"a\":2}\n"),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let metrics = std::fs::read_to_string(&stats_path).expect("metrics written");
    let _ = std::fs::remove_file(&stats_path);
    typefuse_json::Envelope::expect_kind(&metrics, "metrics").expect("stats metrics envelope");
    assert!(metrics.contains("\"records\":2"), "{metrics}");
    assert!(metrics.contains("stats.read"), "{metrics}");

    let schema_path = dir.join(format!("typefuse-test-schema-{pid}.txt"));
    std::fs::write(&schema_path, "{a: Num}").unwrap();
    let check_path = dir.join(format!("typefuse-test-check-{pid}.json"));
    let out = typefuse(
        &[
            "check",
            "-",
            "--schema",
            schema_path.to_str().unwrap(),
            "--metrics-json",
            check_path.to_str().unwrap(),
        ],
        Some("{\"a\":1}\n{\"a\":2}\n"),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let metrics = std::fs::read_to_string(&check_path).expect("metrics written");
    let _ = std::fs::remove_file(&schema_path);
    let _ = std::fs::remove_file(&check_path);
    typefuse_json::Envelope::expect_kind(&metrics, "metrics").expect("check metrics envelope");
    assert!(metrics.contains("\"check.conforming\":2"), "{metrics}");
    assert!(metrics.contains("\"check.failures\":0"), "{metrics}");
}

// ---- Fault-tolerant ingestion (--on-error and friends) ----------------

const DIRTY: &str = "{\"a\":1}\n{oops\n{\"a\":2,\"b\":\"x\"}\nnot json\n{\"b\":\"y\"}\n";

#[test]
fn skip_policy_infers_the_clean_subset() {
    let skipped = typefuse(
        &["infer", "-", "--format", "text", "--on-error", "skip"],
        Some(DIRTY),
    );
    assert!(skipped.status.success(), "stderr: {}", stderr(&skipped));
    let clean = typefuse(
        &["infer", "-", "--format", "text"],
        Some("{\"a\":1}\n{\"a\":2,\"b\":\"x\"}\n{\"b\":\"y\"}\n"),
    );
    assert_eq!(stdout(&skipped), stdout(&clean));
    assert!(
        stderr(&skipped).contains("skipped 2 bad record(s)"),
        "stderr: {}",
        stderr(&skipped)
    );
}

#[test]
fn skip_policy_agrees_across_routes() {
    for route in [
        vec!["--map-path", "events"],
        vec!["--map-path", "value"],
        vec!["--map-path", "shape"],
        vec!["--profile-json", "/dev/null"],
    ] {
        let mut args = vec!["infer", "-", "--format", "text", "--on-error", "skip"];
        args.extend(&route);
        let out = typefuse(&args, Some(DIRTY));
        assert!(out.status.success(), "{route:?}: {}", stderr(&out));
        let baseline = typefuse(
            &["infer", "-", "--format", "text", "--on-error", "skip"],
            Some(DIRTY),
        );
        assert_eq!(stdout(&out), stdout(&baseline), "route {route:?}");
    }
}

#[test]
fn max_errors_budget_exits_5() {
    let out = typefuse(
        &["infer", "-", "--on-error", "skip", "--max-errors", "1"],
        Some(DIRTY),
    );
    assert_eq!(out.status.code(), Some(5), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("error budget exceeded"));

    let out = typefuse(
        &["infer", "-", "--on-error", "skip", "--max-errors", "2"],
        Some(DIRTY),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
}

#[test]
fn quarantine_writes_the_sidecar() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-quarantine");
    std::fs::create_dir_all(&dir).unwrap();
    let sink = dir.join(format!("bad-{}.ndjson", std::process::id()));
    let out = typefuse(
        &["infer", "-", "--quarantine", sink.to_str().unwrap()],
        Some(DIRTY),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("quarantined to"), "{}", stderr(&out));
    let sidecar = std::fs::read_to_string(&sink).expect("sidecar written");
    let _ = std::fs::remove_file(&sink);
    let lines: Vec<&str> = sidecar.lines().collect();
    assert_eq!(lines.len(), 2, "{sidecar}");
    assert!(lines[0].contains("{oops"), "{sidecar}");
    assert!(lines[1].contains("not json"), "{sidecar}");
}

#[test]
fn contradictory_error_flags_are_usage_errors() {
    for args in [
        vec!["infer", "-", "--max-errors", "3"],
        vec!["infer", "-", "--on-error", "quarantine"],
        vec![
            "infer",
            "-",
            "--on-error",
            "skip",
            "--quarantine",
            "q.ndjson",
        ],
        vec!["infer", "-", "--on-error", "nonsense"],
    ] {
        let out = typefuse(&args, Some("{}\n"));
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn max_depth_guards_recursion() {
    let deep = "{\"a\":{\"b\":{\"c\":{\"d\":1}}}}\n";
    let out = typefuse(&["infer", "-", "--max-depth", "2"], Some(deep));
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("recursion limit"), "{}", stderr(&out));

    let out = typefuse(&["infer", "-", "--max-depth", "16"], Some(deep));
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // stats/check accept the same guard.
    let out = typefuse(&["stats", "-", "--max-depth", "2"], Some(deep));
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
}

#[test]
fn max_line_bytes_degrades_per_policy() {
    let data = "{\"a\":1}\n{\"padding\":\"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\"}\n{\"a\":2}\n";
    let out = typefuse(&["infer", "-", "--max-line-bytes", "32"], Some(data));
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("line-size guard"), "{}", stderr(&out));

    let out = typefuse(
        &[
            "infer",
            "-",
            "--format",
            "text",
            "--max-line-bytes",
            "32",
            "--on-error",
            "skip",
        ],
        Some(data),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let clean = typefuse(
        &["infer", "-", "--format", "text"],
        Some("{\"a\":1}\n{\"a\":2}\n"),
    );
    assert_eq!(stdout(&out), stdout(&clean));
}

#[test]
fn io_errors_exit_4() {
    let out = typefuse(&["infer", "/nonexistent/typefuse-input.ndjson"], None);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("cannot open"), "{}", stderr(&out));
    let out = typefuse(
        &[
            "infer",
            "/nonexistent/typefuse-input.ndjson",
            "--profile-json",
            "/dev/null",
        ],
        None,
    );
    assert_eq!(out.status.code(), Some(4), "stderr: {}", stderr(&out));
}

#[test]
fn diff_input_errors_use_ingest_exit_codes() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-diff-errors");
    std::fs::create_dir_all(&dir).unwrap();
    let good = dir.join("good.ndjson");
    let bad = dir.join("bad.ndjson");
    std::fs::write(&good, "{\"a\":1}\n").unwrap();
    std::fs::write(&bad, "{\"a\":1}\n{oops\n").unwrap();
    let (good, bad) = (good.to_str().unwrap(), bad.to_str().unwrap());

    let out = typefuse(&["diff", good, bad], None);
    assert_eq!(out.status.code(), Some(3), "malformed: {}", stderr(&out));
    assert!(stderr(&out).contains("line 2"), "{}", stderr(&out));
    let out = typefuse(&["diff", "/nonexistent/typefuse-old.ndjson", good], None);
    assert_eq!(out.status.code(), Some(4), "unreadable: {}", stderr(&out));
    let out = typefuse(&["diff", good, good], None);
    assert_eq!(out.status.code(), Some(0), "no drift: {}", stderr(&out));
}

#[test]
fn explain_and_query_input_errors_use_ingest_exit_codes() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-explain-query-errors");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.ndjson");
    let script = dir.join("q.tfq");
    std::fs::write(&bad, "{\"a\":1}\n{oops\n").unwrap();
    std::fs::write(&script, "project $.a\n").unwrap();
    let (bad, script) = (bad.to_str().unwrap(), script.to_str().unwrap());
    let missing = "/nonexistent/typefuse-input.ndjson";

    for (input, code) in [(bad, 3), (missing, 4)] {
        let out = typefuse(&["explain", ".a", "--dataset", input], None);
        assert_eq!(out.status.code(), Some(code), "explain: {}", stderr(&out));
        let out = typefuse(&["query", input, "--script", script], None);
        assert_eq!(out.status.code(), Some(code), "query: {}", stderr(&out));
        if code == 3 {
            assert!(stderr(&out).contains("line 2"), "{}", stderr(&out));
        }
    }
}

/// One line of every kind the fold judges, between clean records (the
/// corpus of the library and serve fold tests): U+00A0 padding,
/// non-UTF-8, oversized (plain and CRLF), malformed (plain, CRLF and
/// padded), blank and CRLF. Folded under `--max-line-bytes 40`.
const ODD_LINES: [&[u8]; 13] = [
    b"{\"a\":1}",
    b"\xc2\xa0{\"b\":null}\xc2\xa0",
    b"{\"bin\":\"\xff\"}",
    b"{\"long\":\"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\"}",
    b"{bad",
    b"",
    b"  \t",
    b"{\"a\":\"s\",\"c\":[1,2]}\r",
    b"\r",
    b"{\"crlf\":\"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\"}\r",
    b"{nope}\r",
    b"\xc2\xa0{oops",
    b"{\"a\":2,\"c\":[]}",
];

#[test]
fn odd_lines_are_judged_alike_by_every_command() {
    let dir = std::env::temp_dir().join(format!(
        "typefuse-cli-test-odd-lines-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str, lines: &[&[u8]]| {
        let path = dir.join(name);
        let bytes: Vec<u8> = lines
            .iter()
            .flat_map(|l| l.iter().chain(b"\n"))
            .copied()
            .collect();
        std::fs::write(&path, bytes).unwrap();
        path.to_str().unwrap().to_string()
    };
    let script = file("q.tfq", &[b"project $.a"]);
    let schema = file("any.schema", &[b"{a: Num}"]);
    let guard = ["--max-line-bytes", "40"];

    // Fail-fast: every command stops at the bad line with the same
    // `line L, column C`. `query` and `explain` take no line guard, so
    // they only meet the lines that are bad without one.
    for bad in [2, 3, 4, 9, 10, 11] {
        let input = file(
            "fail.ndjson",
            &[ODD_LINES[0], ODD_LINES[bad], ODD_LINES[12]],
        );
        let infer = typefuse(&[&["infer", &input][..], &guard].concat(), None);
        assert_eq!(infer.status.code(), Some(3), "{}", stderr(&infer));
        let err = stderr(&infer);
        let site = &err[err.find("line 2, column ").expect("infer names the line")..];
        let site = site.lines().next().unwrap();
        let mut commands = vec![
            [&["check", &input, "--schema", &schema][..], &guard].concat(),
            [&["stats", &input][..], &guard].concat(),
        ];
        if ODD_LINES[bad].len() <= 40 {
            commands.push(vec!["query", &input, "--script", &script]);
            commands.push(vec!["explain", ".a", "--dataset", &input]);
        }
        for args in commands {
            let out = typefuse(&args, None);
            assert_eq!(out.status.code(), Some(3), "{args:?}: {}", stderr(&out));
            assert!(
                stderr(&out).contains(site),
                "{args:?}: {} vs {site}",
                stderr(&out)
            );
        }
    }

    // Skip and quarantine: `check` admits every record `infer` folded
    // under the schema it inferred, `stats` counts them, and both
    // quarantine the same bad lines byte for byte.
    let input = file("odd.ndjson", &ODD_LINES);
    let skip = ["--on-error", "skip"];
    let infer = typefuse(
        &[
            &["infer", &input, "--format", "text", "--stats"][..],
            &guard,
            &skip,
        ]
        .concat(),
        None,
    );
    assert!(infer.status.success(), "{}", stderr(&infer));
    assert!(
        stderr(&infer).contains("records           4"),
        "{}",
        stderr(&infer)
    );
    let inferred = dir.join("inferred.schema");
    std::fs::write(&inferred, stdout(&infer)).unwrap();
    let inferred = inferred.to_str().unwrap();
    let check = typefuse(
        &[&["check", &input, "--schema", inferred][..], &guard, &skip].concat(),
        None,
    );
    assert!(check.status.success(), "{}", stderr(&check));
    assert_eq!(stdout(&check), "4 of 4 records conform\n");
    let stats = typefuse(&[&["stats", &input][..], &guard, &skip].concat(), None);
    assert!(stats.status.success(), "{}", stderr(&stats));
    assert!(
        stdout(&stats).starts_with("records     4\n"),
        "{}",
        stdout(&stats)
    );

    let sidecar = |args: &[&str]| {
        let sink = dir.join("sidecar.ndjson");
        let _ = std::fs::remove_file(&sink);
        let quarantine = ["--quarantine", sink.to_str().unwrap()];
        let out = typefuse(&[args, &guard, &quarantine].concat(), None);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        std::fs::read(&sink).expect("sidecar written")
    };
    let expected = sidecar(&["infer", &input]);
    assert_eq!(String::from_utf8_lossy(&expected).lines().count(), 6);
    assert_eq!(sidecar(&["check", &input, "--schema", inferred]), expected);
    assert_eq!(sidecar(&["stats", &input]), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registry_publish_input_errors_use_ingest_exit_codes() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-publish-errors");
    std::fs::create_dir_all(&dir).unwrap();
    let pid = std::process::id();
    let log = dir.join(format!("reg-{pid}.ndjson"));
    let bad = dir.join("bad.ndjson");
    std::fs::write(&bad, "{\"a\":1}\n{oops\n").unwrap();
    let log_arg = log.to_str().unwrap();
    let publish = |input: &str, stdin: Option<&str>| {
        typefuse(
            &["registry", "publish", "s", input, "--log", log_arg],
            stdin,
        )
    };

    let out = publish(bad.to_str().unwrap(), None);
    assert_eq!(out.status.code(), Some(3), "malformed: {}", stderr(&out));
    assert!(stderr(&out).contains("line 2"), "{}", stderr(&out));
    let out = publish("-", Some("{\"a\":1}\n{oops\n"));
    assert_eq!(
        out.status.code(),
        Some(3),
        "malformed stdin: {}",
        stderr(&out)
    );
    let out = publish("/nonexistent/typefuse-publish.ndjson", None);
    assert_eq!(out.status.code(), Some(4), "unreadable: {}", stderr(&out));
    assert!(!log.exists(), "a failed publish writes nothing");
    let out = publish("-", Some("{\"a\":1}\n"));
    assert!(out.status.success(), "clean input: {}", stderr(&out));
    std::fs::remove_file(&log).ok();
}

// ---- serve: resident daemon end-to-end --------------------------------

#[test]
fn serve_folds_appends_and_answers_the_protocol() {
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    let dir = std::env::temp_dir().join("typefuse-cli-test-serve");
    std::fs::create_dir_all(&dir).unwrap();
    let pid = std::process::id();
    let data = dir.join(format!("events-{pid}.ndjson"));
    let metrics = dir.join(format!("metrics-{pid}.json"));
    std::fs::write(&data, "{\"id\":1,\"tags\":[\"a\"]}\n").unwrap();

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_typefuse"))
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--watch",
            &format!("events={}", data.display()),
            "--poll-ms",
            "5",
            "--metrics-json",
            metrics.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");

    // The first stdout line is the `listening` envelope with the bound
    // address (essential with port 0).
    let mut daemon_out = BufReader::new(daemon.stdout.take().unwrap());
    let mut line = String::new();
    daemon_out.read_line(&mut line).unwrap();
    let listening =
        typefuse_json::Envelope::expect_kind(&line, "listening").expect("listening envelope");
    let addr = typefuse_json::parse_value(&line)
        .unwrap()
        .pointer("/payload/addr")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert_eq!(listening.schema_version, 1);

    let request = |payload: &str| -> String {
        let mut conn = TcpStream::connect(&addr).expect("connect");
        conn.write_all(payload.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
        let mut reply = String::new();
        BufReader::new(conn).read_line(&mut reply).unwrap();
        reply
    };

    let wait_for_records = |n: i64| -> typefuse_json::Envelope {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let reply = request("{\"op\":\"schema\",\"source\":\"events\"}");
            let envelope = typefuse_json::Envelope::expect_kind(&reply, "schema").expect("schema");
            if envelope.payload.pointer("/records").unwrap().as_i64() == Some(n) {
                return envelope;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "fold timed out at {n}"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    };

    // Wait for the pre-existing record to fold (and publish v1) before
    // appending, so the append lands in its own snapshot (v2).
    wait_for_records(1);

    // Append a drifting record and wait for the daemon to fold it.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&data)
            .unwrap();
        f.write_all(b"{\"id\":2,\"name\":\"x\",\"tags\":[\"b\"]}\n")
            .unwrap();
    }
    let envelope = wait_for_records(2);
    // The served schema matches a batch run over the same file.
    let batch = typefuse(&["infer", data.to_str().unwrap(), "--format", "text"], None);
    let served = envelope
        .payload
        .pointer("/schema")
        .unwrap()
        .as_str()
        .unwrap();
    assert_eq!(served, stdout(&batch).trim(), "daemon == batch");

    // Drift between the two published snapshots mentions the new field.
    let reply = request("{\"op\":\"diff\",\"source\":\"events\",\"from\":1,\"to\":2}");
    let diff = typefuse_json::Envelope::expect_kind(&reply, "diff").expect("diff");
    assert!(reply.contains("name"), "{reply}");
    assert_eq!(diff.schema_version, 1);

    // A clean `shutdown` op stops the process with exit code 0 and the
    // run report lands as a metrics envelope.
    let reply = request("{\"op\":\"shutdown\"}");
    typefuse_json::Envelope::expect_kind(&reply, "ok").expect("shutdown ack");
    let status = daemon.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit: {status:?}");
    let report = std::fs::read_to_string(&metrics).expect("metrics written");
    typefuse_json::Envelope::expect_kind(&report, "metrics").expect("metrics envelope");
    assert!(report.contains("ingest.records"), "{report}");

    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_file(&metrics);
}

/// The crash-safety contract, end to end through the release binary:
/// SIGKILL the daemon mid-run, restart it on the same checkpoint
/// directory, and the served schema is byte-identical to a batch
/// `typefuse infer` over the whole file — with the checkpointed prefix
/// never re-read (the per-source records counter starts at zero each
/// process, so it counts only post-restart folds).
#[test]
fn serve_checkpoint_survives_sigkill_and_resumes_without_rereading() {
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;
    use std::process::Child;

    fn spawn_daemon(data: &std::path::Path, ckpt: &std::path::Path) -> (Child, String) {
        let mut daemon = Command::new(env!("CARGO_BIN_EXE_typefuse"))
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--watch",
                &format!("events={}", data.display()),
                "--poll-ms",
                "5",
                "--checkpoint-dir",
                ckpt.to_str().unwrap(),
                "--checkpoint-interval-ms",
                "25",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns");
        let mut daemon_out = BufReader::new(daemon.stdout.take().unwrap());
        let mut line = String::new();
        daemon_out.read_line(&mut line).unwrap();
        typefuse_json::Envelope::expect_kind(&line, "listening").expect("listening envelope");
        let addr = typefuse_json::parse_value(&line)
            .unwrap()
            .pointer("/payload/addr")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        (daemon, addr)
    }

    fn request(addr: &str, payload: &str) -> String {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(payload.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
        let mut reply = String::new();
        BufReader::new(conn).read_line(&mut reply).unwrap();
        reply
    }

    /// One series from a `metrics` snapshot, whichever section holds it.
    fn series(addr: &str, key: &str) -> Option<i64> {
        let reply = request(addr, "{\"op\":\"metrics\"}");
        let env = typefuse_json::Envelope::expect_kind(&reply, "telemetry").ok()?;
        for section in ["counters", "gauges"] {
            if let Some(v) = env.payload.get(section).and_then(|s| s.get(key)) {
                return v.as_i64();
            }
        }
        None
    }

    fn wait_series(addr: &str, key: &str, want: i64) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            if series(addr, key) == Some(want) {
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for {key} == {want}"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    let dir = std::env::temp_dir().join("typefuse-cli-test-ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let pid = std::process::id();
    let data = dir.join(format!("events-kill-{pid}.ndjson"));
    let ckpt = dir.join(format!("ckpt-{pid}"));
    let _ = std::fs::remove_dir_all(&ckpt);
    std::fs::write(
        &data,
        "{\"id\":1}\n{\"id\":2,\"tags\":[\"a\"]}\n{\"id\":3,\"name\":\"x\"}\n",
    )
    .unwrap();

    let records = "typefuse_source_records{source=\"events\"}";
    let ckpt_lines = "typefuse_source_checkpoint_lines{source=\"events\"}";

    // First life: fold all three records and wait until a durable
    // checkpoint covers them, then SIGKILL — no shutdown hook runs.
    let (mut daemon, addr) = spawn_daemon(&data, &ckpt);
    wait_series(&addr, records, 3);
    wait_series(&addr, ckpt_lines, 3);
    daemon.kill().expect("SIGKILL");
    daemon.wait().expect("killed daemon reaped");

    // The file keeps growing while the daemon is down.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&data)
            .unwrap();
        f.write_all(b"{\"id\":4,\"name\":\"y\",\"extra\":true}\n{\"id\":5}\n")
            .unwrap();
    }

    // Second life: resume from the checkpoint. Only the two new
    // records are read — the counter is per-process, so 2 (not 5)
    // proves the checkpointed prefix was never re-ingested.
    let (mut daemon, addr) = spawn_daemon(&data, &ckpt);
    wait_series(&addr, records, 2);

    let reply = request(&addr, "{\"op\":\"schema\",\"source\":\"events\"}");
    let envelope = typefuse_json::Envelope::expect_kind(&reply, "schema").expect("schema");
    assert_eq!(
        envelope
            .payload
            .pointer("/records")
            .and_then(|v| v.as_i64()),
        Some(5),
        "restored 3 + appended 2: {reply}"
    );
    let served = envelope
        .payload
        .pointer("/schema")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let batch = typefuse(&["infer", data.to_str().unwrap(), "--format", "text"], None);
    assert_eq!(
        served,
        stdout(&batch).trim(),
        "post-crash schema == uninterrupted batch run"
    );

    let reply = request(&addr, "{\"op\":\"shutdown\"}");
    typefuse_json::Envelope::expect_kind(&reply, "ok").expect("shutdown ack");
    assert!(daemon.wait().expect("daemon exits").success());

    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_dir_all(&ckpt);
}
