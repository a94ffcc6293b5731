//! Byte-for-byte pins on every journal fold.
//!
//! `fixtures/crash_watchdog.jsonl` is a recorded run of the CI smoke
//! inputs (`swdual generate --sequences 24 --mean-len 80 --seed 9`,
//! searched against itself) with `--cpus 2 --gpus 1 --top 3 --profile
//! --fault-plan '1:crash@2' --watchdog`: it carries profile detail
//! spans, device spans, a crash with re-dispatch and a watchdog alert.
//! The sibling files hold what each fold rendered from it when they
//! were recorded; any change to how the folds decode events shows up
//! here as a diff.

use swdual_obs::profile::{Profile, ProfileClock};
use swdual_obs::watch::{alerts_from_events, WatchConfig, Watchdog};

const DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/");

fn fixture(name: &str) -> String {
    std::fs::read_to_string(format!("{DIR}{name}")).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn assert_golden(name: &str, got: &str) {
    let want = fixture(name);
    assert!(
        got == want,
        "{name} drifted from its golden copy:\n--- want\n{want}\n--- got\n{got}"
    );
}

fn journal() -> String {
    fixture("crash_watchdog.jsonl")
}

#[test]
fn analyze_matches_golden() {
    let report = swdual_obs::analysis::analyze_journal(&journal()).expect("journal parses");
    assert_golden("crash_watchdog.analyze.json", &report.to_json());
    assert_golden("crash_watchdog.analyze.txt", &report.to_text());
}

#[test]
fn explain_matches_golden() {
    let report = swdual_obs::explain::explain_journal(&journal()).expect("journal parses");
    assert_golden("crash_watchdog.explain.json", &report.to_json());
}

#[test]
fn profile_matches_golden() {
    let events = swdual_obs::journal::parse_journal(&journal()).expect("journal parses");
    let profile = Profile::from_events(&events);
    assert_golden(
        "crash_watchdog.roofline.json",
        &profile.roofline().to_json(),
    );
    assert_golden(
        "crash_watchdog.folded",
        &swdual_obs::export::flamegraph_folded(&profile, ProfileClock::Modelled),
    );
}

#[test]
fn watchdog_matches_golden() {
    let events = swdual_obs::journal::parse_journal(&journal()).expect("journal parses");
    let mut dog = Watchdog::new(WatchConfig::default());
    for event in &events {
        dog.observe(event);
    }
    assert_golden(
        "crash_watchdog.watch.txt",
        &format!("{:#?}\n{:#?}\n", dog.status(), alerts_from_events(&events)),
    );
}
