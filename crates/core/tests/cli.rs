//! End-to-end tests of the `swdual` CLI binary: generate → convert →
//! info → search, driving the compiled executable like a user would.

use std::process::Command;

fn swdual() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swdual"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("swdual_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn full_cli_workflow() {
    let fasta = tmp("cli_db.fasta");
    let sqb = tmp("cli_db.sqb");

    // generate
    let out = swdual()
        .args(["generate", "--sequences", "120", "--mean-len", "150"])
        .args(["--output", fasta.to_str().unwrap(), "--seed", "9"])
        .output()
        .expect("run swdual generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("generated 120 sequences"));

    // convert
    let out = swdual()
        .args(["convert", "--input", fasta.to_str().unwrap()])
        .args(["--output", sqb.to_str().unwrap()])
        .output()
        .expect("run swdual convert");
    assert!(out.status.success());

    // info agrees between the two formats
    let info_fasta = swdual()
        .args(["info", "--db", fasta.to_str().unwrap()])
        .output()
        .unwrap();
    let info_sqb = swdual()
        .args(["info", "--db", sqb.to_str().unwrap()])
        .output()
        .unwrap();
    let fa = String::from_utf8_lossy(&info_fasta.stdout).replace(fasta.to_str().unwrap(), "");
    let sq = String::from_utf8_lossy(&info_sqb.stdout).replace(sqb.to_str().unwrap(), "");
    assert_eq!(
        fa.lines().skip(1).collect::<Vec<_>>(),
        sq.lines().skip(1).collect::<Vec<_>>()
    );
    assert!(fa.contains("sequences: 120"));

    // search the database against three of its own sequences
    let queries = tmp("cli_q.fasta");
    let db_text = std::fs::read_to_string(&fasta).unwrap();
    let records: Vec<&str> = db_text.split('>').filter(|r| !r.is_empty()).collect();
    let mut q_text = String::new();
    for r in records.iter().take(3) {
        q_text.push('>');
        q_text.push_str(r);
    }
    std::fs::write(&queries, q_text).unwrap();

    let out = swdual()
        .args(["search", "--db", sqb.to_str().unwrap()])
        .args(["--queries", queries.to_str().unwrap()])
        .args(["--cpus", "1", "--gpus", "1", "--top", "2", "--evalues"])
        .output()
        .expect("run swdual search");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Each query is a database member: its top hit is itself.
    for qid in ["synth_0", "synth_1", "synth_2"] {
        let block = stdout
            .split("Query ")
            .find(|b| b.starts_with(&format!("{qid}:")))
            .unwrap_or_else(|| panic!("no block for {qid} in:\n{stdout}"));
        let first_hit = block.lines().nth(1).expect("at least one hit");
        assert!(
            first_hit.contains(qid),
            "{qid} not its own top hit: {first_hit}"
        );
        assert!(first_hit.contains('E'), "E-value missing: {first_hit}");
    }

    for f in [&fasta, &sqb, &queries] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = swdual().arg("search").output().unwrap(); // missing --db
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--db"));

    let out = swdual().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());

    let out = swdual().output().unwrap(); // no command -> usage
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn unknown_flags_are_usage_errors_naming_the_flag() {
    let db = tmp("flags_db.fasta");
    let out = swdual()
        .args(["generate", "--sequences", "4", "--mean-len", "30"])
        .args(["--output", db.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let db = db.to_str().unwrap();
    // (misspelled flag, command line containing it)
    for (flag, args) in [
        (
            "--gpu",
            vec!["search", "--db", db, "--queries", db, "--gpu", "3"],
        ),
        (
            "--lenght",
            vec!["generate", "--sequences", "4", "--lenght", "30"],
        ),
        ("--jsn", vec!["analyze", "events.jsonl", "--jsn"]),
        ("-f", vec!["tail", "events.jsonl", "-f"]),
        (
            "--treshold",
            vec!["diff", "a.jsonl", "b.jsonl", "--treshold", "5"],
        ),
    ] {
        let out = swdual().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("{flag:?}")), "{args:?}: {err}");
    }
    // Mutually exclusive renderings stay rejected.
    for cmd in ["analyze", "explain", "diff"] {
        let out = swdual()
            .args([cmd, "a.jsonl", "--json", "--text"])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{cmd}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("mutually exclusive"), "{cmd}: {err}");
    }
}

#[test]
fn help_succeeds() {
    let out = swdual().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("swdual"));
}
