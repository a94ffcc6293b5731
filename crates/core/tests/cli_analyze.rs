//! End-to-end `swdual analyze` smoke: a real search journal audits
//! cleanly (the 2λ guarantee is reported and holds), and incompatible
//! journals are rejected with a clear error.

use std::path::PathBuf;
use std::process::Command;

fn swdual() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swdual"))
}

fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swdual_cli_analyze_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate_db(db: &PathBuf) {
    let out = swdual()
        .args([
            "generate",
            "--sequences",
            "24",
            "--mean-len",
            "80",
            "--seed",
            "3",
        ])
        .arg("--output")
        .arg(db)
        .output()
        .expect("run swdual generate");
    assert!(out.status.success(), "generate failed: {out:?}");
}

#[test]
fn analyze_reports_the_two_lambda_bound_from_a_search_journal() {
    let dir = work_dir("bound");
    let db = dir.join("db.fasta");
    let journal = dir.join("events.jsonl");
    generate_db(&db);

    let search = swdual()
        .arg("search")
        .arg("--db")
        .arg(&db)
        .arg("--queries")
        .arg(&db)
        .args(["--cpus", "1", "--gpus", "1", "--top", "3"])
        .arg("--journal-out")
        .arg(&journal)
        .output()
        .expect("run swdual search");
    assert!(search.status.success(), "search failed: {search:?}");

    // JSON output: machine-checkable bound fields.
    let analyze = swdual()
        .arg("analyze")
        .arg(&journal)
        .arg("--json")
        .output()
        .expect("run swdual analyze");
    assert!(analyze.status.success(), "analyze failed: {analyze:?}");
    let stdout = String::from_utf8(analyze.stdout).unwrap();
    let report: serde_json::Value =
        serde_json::from_str(&stdout).expect("analyze --json emits valid JSON");
    assert_eq!(
        report.get("schema").and_then(|v| v.as_str()),
        Some("swdual-journal/2")
    );
    let lambda = report.get("lambda").and_then(|v| v.as_f64()).unwrap();
    let bound = report
        .get("two_lambda_bound")
        .and_then(|v| v.as_f64())
        .expect("two_lambda_bound field");
    assert!(lambda > 0.0);
    assert!((bound - 2.0 * lambda).abs() < 1e-9);
    assert_eq!(
        report.get("has_bound").and_then(|v| v.as_bool()),
        Some(true)
    );
    assert_eq!(
        report.get("bound_holds").and_then(|v| v.as_bool()),
        Some(true),
        "2λ guarantee must hold on a healthy run"
    );
    let makespan = report
        .get("modelled_makespan")
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!(makespan > 0.0 && makespan <= bound * (1.0 + 1e-9));

    // Default text output mentions the guarantee, for humans.
    let text = swdual()
        .arg("analyze")
        .arg(&journal)
        .output()
        .expect("run swdual analyze (text)");
    assert!(text.status.success());
    let text = String::from_utf8(text.stdout).unwrap();
    assert!(text.contains("2λ guarantee"), "{text}");
    assert!(text.contains("HOLDS"), "{text}");
}

#[test]
fn analyze_dash_o_writes_the_report_to_a_file() {
    let dir = work_dir("outfile");
    let db = dir.join("db.fasta");
    let journal = dir.join("events.jsonl");
    let out_path = dir.join("report.json");
    generate_db(&db);
    let search = swdual()
        .arg("search")
        .arg("--db")
        .arg(&db)
        .arg("--queries")
        .arg(&db)
        .args(["--cpus", "1", "--gpus", "1", "--top", "3"])
        .arg("--journal-out")
        .arg(&journal)
        .output()
        .expect("run swdual search");
    assert!(search.status.success(), "search failed: {search:?}");

    let out = swdual()
        .arg("analyze")
        .arg(&journal)
        .arg("--json")
        .arg("-o")
        .arg(&out_path)
        .output()
        .expect("run swdual analyze -o");
    assert!(out.status.success(), "analyze failed: {out:?}");
    assert!(
        out.stdout.is_empty(),
        "-o must redirect the report off stdout"
    );
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap())
            .expect("written report parses");
    assert_eq!(
        report.get("schema").and_then(|v| v.as_str()),
        Some("swdual-journal/2")
    );
}

#[test]
fn journal_readers_accept_stdin_via_dash() {
    use std::io::Write;
    use std::process::Stdio;

    let dir = work_dir("stdin");
    let db = dir.join("db.fasta");
    let journal = dir.join("events.jsonl");
    generate_db(&db);
    let search = swdual()
        .arg("search")
        .arg("--db")
        .arg(&db)
        .arg("--queries")
        .arg(&db)
        .args(["--cpus", "1", "--gpus", "1", "--top", "3"])
        .arg("--journal-out")
        .arg(&journal)
        .output()
        .expect("run swdual search");
    assert!(search.status.success(), "search failed: {search:?}");
    let contents = std::fs::read_to_string(&journal).unwrap();

    // Each journal command takes `-` and produces the same report as
    // the file path would.
    let pipe = |args: &[&str]| {
        let mut child = swdual()
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn swdual");
        child
            .stdin
            .take()
            .unwrap()
            .write_all(contents.as_bytes())
            .unwrap();
        let out = child.wait_with_output().expect("wait swdual");
        assert!(out.status.success(), "{args:?} failed: {out:?}");
        String::from_utf8(out.stdout).unwrap()
    };

    let piped = pipe(&["analyze", "-", "--json"]);
    let report: serde_json::Value = serde_json::from_str(&piped).expect("analyze - emits JSON");
    assert_eq!(
        report.get("schema").and_then(|v| v.as_str()),
        Some("swdual-journal/2")
    );
    let from_file = swdual()
        .arg("analyze")
        .arg(&journal)
        .arg("--json")
        .output()
        .expect("run swdual analyze");
    assert_eq!(piped, String::from_utf8(from_file.stdout).unwrap());

    let explained = pipe(&["explain", "-"]);
    assert!(explained.contains("2λ bound"), "{explained}");

    let roofline = pipe(&["profile", "-", "--roofline"]);
    assert!(roofline.contains("roofline report"), "{roofline}");

    let journal_path = journal.to_str().unwrap();
    let diffed = pipe(&["diff", journal_path, "-", "--json"]);
    let diff: serde_json::Value = serde_json::from_str(&diffed).expect("diff - emits JSON");
    assert_eq!(
        diff.get("regressed").and_then(|v| v.as_u64()),
        Some(0),
        "a journal diffed against itself regresses nothing: {diffed}"
    );

    let tailed = pipe(&["tail", "-"]);
    assert!(
        tailed.lines().count() > 4,
        "tail - should echo the run's events: {tailed}"
    );
    assert!(tailed.contains("master"), "{tailed}");
}

#[test]
fn analyze_rejects_incompatible_journals() {
    let dir = work_dir("reject");

    // No schema header at all.
    let headerless = dir.join("headerless.jsonl");
    std::fs::write(
        &headerless,
        "{\"track\":\"master\",\"name\":\"x\",\"kind\":\"instant\",\"wall_start\":0.0}\n",
    )
    .unwrap();
    let out = swdual()
        .arg("analyze")
        .arg(&headerless)
        .output()
        .expect("run swdual analyze");
    assert!(!out.status.success(), "headerless journal must be rejected");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("header"), "unhelpful error: {err}");

    // Wrong schema version.
    let wrong = dir.join("wrong.jsonl");
    std::fs::write(&wrong, "{\"schema\":\"swdual-journal/99\",\"events\":0}\n").unwrap();
    let out = swdual()
        .arg("analyze")
        .arg(&wrong)
        .output()
        .expect("run swdual analyze");
    assert!(!out.status.success(), "wrong schema must be rejected");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("swdual-journal/99"), "unhelpful error: {err}");
}
