//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro all                 run everything, print text reports
//! repro table1|table2|table3|table4|table5|conclusion
//! repro fig7|fig8|fig9      figure data blocks (gnuplot format)
//! repro execute             reduced-scale real execution (wall clock)
//!       [--trace-out TRACE.json] [--metrics-out METRICS.prom]
//!       [--journal-out EVENTS.jsonl]   export one observed hybrid run
//!       [--fault-seed N]    also run the fault-injection demo: inject
//!                           the seed-derived fault plan and verify the
//!                           hits stay bit-identical
//! repro ablation-policy|ablation-knapsack|ablation-binsearch|ablation-robustness
//! repro write-experiments [PATH]   write EXPERIMENTS.md (default ./EXPERIMENTS.md)
//! repro write-json [PATH]          machine-readable results (default ./results.json)
//! ```

use swdual_bench::execute::{execute_reduced, ExecuteConfig};
use swdual_bench::{ablation, tables};

fn experiments_markdown() -> String {
    let mut out = String::new();
    out.push_str("# EXPERIMENTS — paper vs reproduction\n\n");
    out.push_str(
        "Regenerated with `cargo run --release -p swdual-bench --bin repro -- write-experiments`.\n\n\
         Simulated numbers come from the calibrated virtual-time platform model\n\
         (`swdual-platform`): per-engine rates fitted to the paper's own Table II\n\
         single-worker cells, Amdahl serial components fitted to its multi-worker\n\
         cells, and a 1.8 s per-task dispatch overhead fitted to Table IV's\n\
         database-size dependence. Schedules are computed by the actual SWDUAL\n\
         scheduler, so imbalance and idle time are emergent, not painted on.\n\n\
         `ratio` = reproduced seconds / paper seconds (1.00× = exact match).\n\n",
    );
    out.push_str("## Table I — applications\n\n```text\n");
    out.push_str(&tables::table1());
    out.push_str("```\n\n");
    out.push_str(&tables::table2().to_markdown());
    out.push_str("## Table III — databases\n\n```text\n");
    out.push_str(&tables::table3());
    out.push_str("```\n\n");
    out.push_str(&tables::table4().to_markdown());
    out.push_str(&tables::table5().to_markdown());
    out.push_str(&tables::conclusion().to_markdown());
    out.push_str(&ablation::ablation_policy().to_markdown());
    out.push_str(&ablation::ablation_knapsack().to_markdown());
    out.push_str(&ablation::ablation_binsearch().to_markdown());
    out.push_str(&ablation::ablation_robustness().to_markdown());

    let exec = execute_reduced(ExecuteConfig::default());
    out.push_str(&exec.report.to_markdown());
    out.push_str(&format!(
        "Reduced-scale execution: {} database sequences, {} cells per search; \
         oracle and worker-mix score agreement: **{}**.\n\n",
        exec.db_sequences,
        exec.cells,
        if exec.scores_agree { "yes" } else { "NO" }
    ));

    out.push_str("## Shape criteria (see DESIGN.md §5)\n\n");
    out.push_str(
        "* Ordering at equal workers: SWDUAL < CUDASW++ < SWIPE < STRIPED < SWPS3 — holds.\n\
         * SWDUAL scaling monotone 2→8 workers — holds.\n\
         * Small databases GCUPS-capped by per-task overhead (Table IV) — holds.\n\
         * Heterogeneous ≈ 3.6× homogeneous total time, same scaling — holds.\n\
         * Known deviation: the paper's STRIPED scales *superlinearly*\n\
           (7190→1027 s on 1→4 workers); no work-conserving model reproduces\n\
           that, so our STRIPED scales linearly and its 3–4-worker cells are\n\
           ~1.8× the paper's.\n\
         * Known deviation: our SWDUAL mid-range points (3–5 workers) are\n\
           faster than the paper's measurements because the simulated\n\
           dual-approximation schedule is near-optimally balanced, while the\n\
           real system pays master-side contention the model does not include.\n",
    );
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    match cmd {
        "table1" => print!("{}", tables::table1()),
        "table2" => print!("{}", tables::table2().to_text()),
        "table3" => print!("{}", tables::table3()),
        "table4" => print!("{}", tables::table4().to_text()),
        "table5" => print!("{}", tables::table5().to_text()),
        "conclusion" => print!("{}", tables::conclusion().to_text()),
        "fig7" => print!("{}", tables::figure7_data()),
        "fig8" => print!("{}", tables::figure8_data()),
        "fig9" => print!("{}", tables::figure9_data()),
        "execute" => {
            let out = execute_reduced(ExecuteConfig::default());
            print!("{}", out.report.to_text());
            println!(
                "scores agree with the scalar oracle and across worker mixes: {}",
                out.scores_agree
            );
            // Optional observability exports from one observed run.
            let flag = |name: &str| {
                args.iter()
                    .position(|a| a == name)
                    .and_then(|i| args.get(i + 1))
                    .cloned()
            };
            let trace_out = flag("--trace-out");
            let metrics_out = flag("--metrics-out");
            let journal_out = flag("--journal-out");
            if trace_out.is_some() || metrics_out.is_some() || journal_out.is_some() {
                let report = swdual_bench::execute::execute_traced(ExecuteConfig::default());
                if let Some(path) = trace_out {
                    std::fs::write(&path, report.timeline()).expect("write trace");
                    println!("wrote {path}");
                }
                if let Some(path) = metrics_out {
                    std::fs::write(&path, report.metrics()).expect("write metrics");
                    println!("wrote {path}");
                }
                if let Some(path) = journal_out {
                    std::fs::write(&path, report.journal()).expect("write journal");
                    println!("wrote {path}");
                }
            }
            if let Some(seed) = flag("--fault-seed") {
                let seed: u64 = seed.parse().expect("--fault-seed must be a number");
                let demo =
                    swdual_bench::execute::execute_fault_demo(ExecuteConfig::default(), seed);
                println!(
                    "fault demo (seed {seed}, plan `{}`): hits identical: {}; \
                     healthy {:.2} s, faulted {:.2} s",
                    demo.plan, demo.hits_identical, demo.healthy_seconds, demo.faulted_seconds
                );
                if !demo.hits_identical {
                    std::process::exit(1);
                }
            }
        }
        "ablation-policy" => print!("{}", ablation::ablation_policy().to_text()),
        "ablation-knapsack" => print!("{}", ablation::ablation_knapsack().to_text()),
        "ablation-binsearch" => print!("{}", ablation::ablation_binsearch().to_text()),
        "ablation-robustness" => print!("{}", ablation::ablation_robustness().to_text()),
        "write-json" => {
            let path = args.get(1).map(String::as_str).unwrap_or("results.json");
            let exec = execute_reduced(ExecuteConfig::default());
            let reports = vec![
                tables::table2(),
                tables::table4(),
                tables::table5(),
                tables::conclusion(),
                ablation::ablation_policy(),
                ablation::ablation_knapsack(),
                ablation::ablation_binsearch(),
                ablation::ablation_robustness(),
                exec.report,
            ];
            let json = serde_json::to_string_pretty(&reports).expect("serialise reports");
            std::fs::write(path, json).expect("write results JSON");
            println!("wrote {path}");
        }
        "write-experiments" => {
            let path = args.get(1).map(String::as_str).unwrap_or("EXPERIMENTS.md");
            let md = experiments_markdown();
            std::fs::write(path, md).expect("write EXPERIMENTS.md");
            println!("wrote {path}");
        }
        "all" => {
            print!("{}", tables::table1());
            println!();
            print!("{}", tables::table2().to_text());
            println!();
            print!("{}", tables::table3());
            println!();
            print!("{}", tables::table4().to_text());
            println!();
            print!("{}", tables::table5().to_text());
            println!();
            print!("{}", tables::conclusion().to_text());
            println!();
            print!("{}", ablation::ablation_policy().to_text());
            println!();
            print!("{}", ablation::ablation_knapsack().to_text());
            println!();
            print!("{}", ablation::ablation_binsearch().to_text());
            println!();
            print!("{}", ablation::ablation_robustness().to_text());
            println!();
            let out = execute_reduced(ExecuteConfig::default());
            print!("{}", out.report.to_text());
            println!(
                "scores agree with the scalar oracle and across worker mixes: {}",
                out.scores_agree
            );
        }
        other => {
            eprintln!("unknown command {other:?}; see `repro` source for usage");
            std::process::exit(2);
        }
    }
}
