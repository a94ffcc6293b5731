//! `swdual` — command-line interface to the hybrid search engine.
//!
//! Mirrors the paper's tool shape (Table I shows each baseline's CLI):
//!
//! ```text
//! swdual search   --db DB.(fasta|sqb) --queries Q.fasta
//!                 [--cpus N] [--gpus N] [--device-class SPEC]
//!                 [--prior-scale W:F[,W:F...]]
//!                 [--reopt] [--reopt-threshold F] [--reopt-min-remaining N]
//!                 [--policy dual|dual-dp|self]
//!                 [--top K] [--gap-open N] [--gap-extend N] [--evalues]
//!                 [--trace-out TRACE.json] [--metrics-out METRICS.prom]
//!                 [--journal-out EVENTS.jsonl] [--progress] [--profile]
//!                 [--watchdog] [--live-socket PATH]
//!                 [--fault-plan SPEC | --fault-seed N]
//!                 [--job-timeout-slack F] [--min-job-timeout-ms MS]
//! swdual analyze  EVENTS.jsonl [--json|--text] [-o FILE]
//! swdual explain  EVENTS.jsonl [--what-if SPEC] [--json|--text] [-o FILE]
//! swdual profile  EVENTS.jsonl [--flame OUT.folded] [--speedscope OUT.json]
//!                 [--roofline] [--json] [-o FILE]
//! swdual top      SOCKET|EVENTS.jsonl [--refresh-ms MS]
//! swdual tail     EVENTS.jsonl [--follow] [--alerts-only]
//! swdual diff     BASE.jsonl HEAD.jsonl [--profile] [--json|--text]
//!                 [--threshold PCT] [--fail-on-regression] [--exact-only]
//!                 [-o FILE]
//! swdual diff     --bench [LEDGER.json] [--bench-name NAME] ...
//! swdual convert  --input DB.fasta --output DB.sqb
//! swdual generate --sequences N --mean-len L --output DB.fasta [--seed S]
//! swdual info     --db DB.(fasta|sqb)
//! ```

use std::collections::HashMap;
use std::process::ExitCode;
use swdual_bio::karlin;
use swdual_bio::stats::LengthStats;
use swdual_bio::{fasta, sqb, Alphabet, Matrix, ScoringScheme, SequenceSet};
use swdual_core::{ProgressReporter, SearchBuilder};
use swdual_datagen::{synthetic_database, LengthModel};
use swdual_gpusim::DeviceClass;
use swdual_runtime::{AllocationPolicy, FaultPlan, ReoptConfig, WorkerSpec};
use swdual_sched::dual::KnapsackMethod;
use swdual_sched::knapsack::DpConfig;

/// Print to stdout, exiting quietly when the reader has gone away
/// (`swdual info db | head` must not panic on the broken pipe).
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write;
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

fn usage() -> &'static str {
    "swdual — hybrid CPU+GPU Smith-Waterman database search (SWDUAL reproduction)

USAGE:
  swdual search   --db FILE --queries FILE [--cpus N] [--gpus N]
                  [--device-class SPEC] [--prior-scale W:F[,W:F...]]
                  [--reopt] [--reopt-threshold F] [--reopt-min-remaining N]
                  [--policy dual|dual-dp|self] [--top K]
                  [--gap-open N] [--gap-extend N] [--evalues]
                  [--trace-out TRACE.json] [--metrics-out METRICS.prom]
                  [--journal-out EVENTS.jsonl] [--progress] [--profile]
                  [--watchdog] [--live-socket PATH]
                  [--fault-plan SPEC | --fault-seed N]
                  [--job-timeout-slack F] [--min-job-timeout-ms MS]
  swdual analyze  EVENTS.jsonl [--json|--text] [-o FILE]
  swdual explain  EVENTS.jsonl [--what-if SPEC] [--json|--text] [-o FILE]
  swdual profile  EVENTS.jsonl [--flame OUT.folded] [--speedscope OUT.json]
                  [--roofline] [--json] [-o FILE]
  swdual top      SOCKET|EVENTS.jsonl [--refresh-ms MS]
  swdual tail     EVENTS.jsonl [--follow] [--alerts-only]
  swdual diff     BASE.jsonl HEAD.jsonl [--profile] [--json|--text]
                  [--threshold PCT] [--fail-on-regression] [--exact-only]
                  [-o FILE]
  swdual diff     --bench [LEDGER.json] [--bench-name NAME] ...
  swdual convert  --input FILE.fasta --output FILE.sqb
  swdual generate --sequences N --mean-len L --output FILE [--seed S]
  swdual info     --db FILE

Database/query files may be FASTA (.fasta/.fa) or SQB (.sqb). Every
journal command (`analyze`, `explain`, `profile`, `top`, `tail`,
`diff`) accepts `-` for a journal read from stdin. A flag the command
does not know is an error (exit status 2), never silently ignored.

Watching a run live:
  --watchdog           run the incremental anomaly watchdog during the
                       search: straggler / bound-at-risk / worker-dead
                       / queue-stall / re-opt alerts are journaled as
                       alert_* fault instants, counted in
                       swdual_alerts_total{kind=...}, and echoed to
                       stderr as they fire
  --live-socket PATH   stream the growing journal over a Unix domain
                       socket; `swdual top PATH` renders it as a live
                       dashboard, `nc -U PATH` taps the raw JSONL
  swdual top SRC       live per-worker dashboard (utilization bars,
                       queue depths, observed/estimate ratio, ETA,
                       active alerts) from a live socket or a recorded
                       journal file
  swdual tail SRC      follow a journal file (or stdin) line by line;
                       --alerts-only prints just the watchdog alerts

A search with observability enabled also arms the flight recorder: on
a panic, the last events are dumped to CRASH-<pid>.jsonl (next to
--journal-out, else the working directory; $SWDUAL_CRASH_DIR
overrides) — `swdual explain CRASH-<pid>.jsonl` folds the fragment.

`swdual analyze` audits a `--journal-out` journal: achieved makespan
vs the dual-approximation λ and its 2λ guarantee, per-worker
utilization, load imbalance, latency quantiles and plan skew.

`swdual explain` reconstructs a run's causal lineage from a v2
journal: the true critical path (planned → dispatched → executed, on
both clocks) and a blame decomposition that attributes 100% of the
modelled makespan to compute / transfer / queue-wait / straggle /
re-plan / recovery / imbalance, per run, per worker and per
query-length bucket. `--what-if SPEC` replays the recorded schedule on
the modelled clock under a counterfactual premise and reports the
predicted makespan against the 2λ guarantee:
  drop-worker:N        remove worker N from the platform
  perfect-calibration  plan with the speeds the run actually observed
  zero-transfer        GPU workers pay no host↔device transfer
  plus-gpu:CLASS       add one GPU of a device class (c2050|phi|knl|bioseal)
  no-faults            faulted workers run at their species' best speed

`swdual profile` folds a journal (ideally recorded with `search
--profile` for phase-level detail) into a profile: `--flame` writes
collapsed stacks for flamegraph.pl / inferno, `--speedscope` writes a
speedscope.app document with one profile per clock, and `--roofline`
(the default) prints the per-device roofline report — achieved vs
attainable GCUPS and a transfer- vs compute-bound verdict per
query-length bucket.

`swdual diff` compares two journals (base, then head): makespans on
both clocks, the λ/2λ bound margin, per-worker utilization, latency
quantiles, throughput and fault counts — each delta classified
IMPROVED / REGRESSED / neutral. Modelled-clock metrics are judged
exactly; wall-clock metrics get `--threshold PCT` slack (default 5%);
histogram quantiles additionally honor the one-bucket relative error.
`--profile` folds in per-phase self-times, per-device busy time and
roofline-verdict flips. `--fail-on-regression` exits non-zero when
anything regressed (`--exact-only` restricts the gate to the
deterministic modelled-clock lane, the CI setting). `--bench` diffs
the last two entries per bench in the `BENCH_trend.json` ledger
instead of journals.

Device zoo (simulated accelerator classes; scores never change):
  --device-class SPEC  GPU worker device class(es): a name (c2050 | phi
                       | knl | bioseal), a comma list (one GPU per
                       entry), or \"mixed\" (one of each class). A single
                       name is replicated across --gpus workers.
  --prior-scale W:F    skew worker W's *declared* rate model by factor
                       F (comma-separable) — deliberate miscalibration
                       for re-optimization experiments.

Online re-optimization (off by default; hits never change):
  --reopt                   enable re-planning of undispatched tasks
                            when observed per-worker slowdown skew
                            exceeds the threshold
  --reopt-threshold F       skew ratio that triggers a re-plan
                            (default 1.5; implies --reopt)
  --reopt-min-remaining N   minimum undispatched tasks worth
                            re-planning (default 2; implies --reopt)

Fault injection (deterministic; hits are identical to a fault-free run
as long as one worker survives):
  --fault-plan SPEC    explicit plan, e.g. \"1:crash@2,2:device@0\"
                       (noreg | crash@N | vanish@N | device@K | straggle@MSxF)
  --fault-seed N       derive a pseudo-random plan from seed N
                       (always spares at least one worker)"
}

/// A command's parsed arguments: flags by name (a switch maps to
/// `"true"`) and positional paths in order.
struct Args {
    flags: HashMap<String, String>,
    paths: Vec<String>,
}

impl Args {
    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// The single positional path of a journal command; `usage` is the
    /// error when there is not exactly one.
    fn path(&self, usage: &str) -> Result<&str, String> {
        match self.paths.as_slice() {
            [path] => Ok(path),
            _ => Err(usage.to_string()),
        }
    }

    /// Whether `--json` was asked for; `--text` is the default and the
    /// two exclude each other.
    fn json(&self) -> Result<bool, String> {
        if self.has("json") && self.has("text") {
            return Err("--json and --text are mutually exclusive".into());
        }
        Ok(self.has("json"))
    }
}

/// Parse the arguments after command `cmd`. `--NAME` is a switch when
/// listed in `switches`, and takes the next argument as its value when
/// listed in `options`; `-o` means `--out`. A bare `-` (stdin) or any
/// argument not starting with `-` is a path. Every other flag is an
/// error naming it.
fn parse_args(
    cmd: &str,
    args: &[String],
    switches: &[&str],
    options: &[&str],
) -> Result<Args, String> {
    let mut parsed = Args {
        flags: HashMap::new(),
        paths: Vec::new(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let key = match arg.as_str() {
            "-o" => "out",
            other => other.strip_prefix("--").unwrap_or(""),
        };
        if switches.contains(&key) {
            parsed.flags.insert(key.to_string(), "true".to_string());
        } else if options.contains(&key) {
            let value = args
                .next()
                .ok_or_else(|| format!("flag {arg} needs a value"))?;
            parsed.flags.insert(key.to_string(), value.clone());
        } else if arg == "-" || !arg.starts_with('-') {
            parsed.paths.push(arg.clone());
        } else {
            return Err(format!("unknown {cmd} flag {arg:?}"));
        }
    }
    Ok(parsed)
}

/// Read a journal argument: `-` means stdin, anything else is a file.
fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        use std::io::Read;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    }
}

fn load_set(path: &str) -> Result<SequenceSet, String> {
    if path.ends_with(".sqb") {
        let mut file = sqb::SqbFile::open(path).map_err(|e| format!("{path}: {e}"))?;
        file.read_all().map_err(|e| format!("{path}: {e}"))
    } else {
        fasta::read_file(path, Alphabet::Protein, fasta::ResiduePolicy::Lossy)
            .map_err(|e| format!("{path}: {e}"))
    }
}

fn cmd_search(flags: &Args) -> Result<(), String> {
    let db_path = flags.get("db").ok_or("--db is required")?;
    let q_path = flags.get("queries").ok_or("--queries is required")?;
    let cpus: usize = flags
        .get("cpus")
        .map_or(Ok(1), |v| v.parse().map_err(|_| "--cpus"))?;
    let gpus: usize = flags
        .get("gpus")
        .map_or(Ok(1), |v| v.parse().map_err(|_| "--gpus"))?;
    let top: usize = flags
        .get("top")
        .map_or(Ok(10), |v| v.parse().map_err(|_| "--top"))?;
    let gap_open: i32 = flags
        .get("gap-open")
        .map_or(Ok(10), |v| v.parse().map_err(|_| "--gap-open"))?;
    let gap_extend: i32 = flags
        .get("gap-extend")
        .map_or(Ok(2), |v| v.parse().map_err(|_| "--gap-extend"))?;
    let policy = match flags.get("policy").unwrap_or("dual") {
        "dual" => AllocationPolicy::DualApprox(KnapsackMethod::Greedy),
        "dual-dp" => AllocationPolicy::DualApprox(KnapsackMethod::Dp(DpConfig::default())),
        "self" => AllocationPolicy::SelfScheduling,
        other => return Err(format!("unknown policy {other:?} (dual|dual-dp|self)")),
    };
    // Device zoo: which class each simulated GPU worker belongs to.
    let gpu_classes: Vec<DeviceClass> = match flags.get("device-class") {
        None => vec![DeviceClass::C2050; gpus],
        Some("mixed") => DeviceClass::ALL.to_vec(),
        Some(spec) => {
            let list: Vec<DeviceClass> = spec
                .split(',')
                .map(|s| s.trim().parse())
                .collect::<Result<_, _>>()?;
            if list.len() == 1 {
                vec![list[0]; gpus.max(1)]
            } else {
                if flags.has("gpus") && gpus != list.len() {
                    return Err(format!(
                        "--gpus {} conflicts with the {}-entry --device-class list",
                        gpus,
                        list.len()
                    ));
                }
                list
            }
        }
    };
    let gpus = gpu_classes.len();
    if cpus + gpus == 0 {
        return Err("need at least one worker (--cpus/--gpus)".into());
    }

    let database = load_set(db_path)?;
    let queries = load_set(q_path)?;
    let db_residues = database.total_residues();
    let zoo_label = if gpus == 0 {
        "none".to_string()
    } else {
        gpu_classes
            .iter()
            .map(|c| c.name())
            .collect::<Vec<_>>()
            .join("+")
    };
    eprintln!(
        "database: {} sequences / {} residues; queries: {}; workers: {cpus} CPU + {gpus} GPU(sim: {zoo_label})",
        database.len(),
        db_residues,
        queries.len()
    );

    let mut workers = Vec::new();
    for &class in &gpu_classes {
        workers.push(WorkerSpec::device_class(class));
    }
    for _ in 0..cpus {
        workers.push(WorkerSpec::cpu_default());
    }
    if let Some(spec) = flags.get("prior-scale") {
        for part in spec.split(',') {
            let (w, f) = part
                .split_once(':')
                .ok_or_else(|| format!("--prior-scale entry {part:?} is not W:F"))?;
            let w: usize = w
                .trim()
                .parse()
                .map_err(|_| format!("--prior-scale worker {w:?}"))?;
            let f: f64 = f
                .trim()
                .parse()
                .map_err(|_| format!("--prior-scale factor {f:?}"))?;
            let spec = workers
                .get_mut(w)
                .ok_or_else(|| format!("--prior-scale worker {w} out of range"))?;
            *spec = spec.clone().with_prior_scale(f);
            eprintln!("prior: worker {w} declared rate model skewed x{f}");
        }
    }
    let scheme = ScoringScheme::new(Matrix::blosum62().clone(), gap_open, gap_extend);
    let query_lens: Vec<usize> = queries.iter().map(|s| s.len()).collect();
    let trace_out = flags.get("trace-out");
    let metrics_out = flags.get("metrics-out");
    let journal_out = flags.get("journal-out");
    let progress = flags.has("progress");
    let profile = flags.has("profile");
    let watchdog = flags.has("watchdog");
    let live_socket = flags.get("live-socket");
    let observe = trace_out.is_some()
        || metrics_out.is_some()
        || journal_out.is_some()
        || progress
        || profile
        || watchdog
        || live_socket.is_some();
    let obs = if observe {
        swdual_obs::Obs::enabled()
    } else {
        swdual_obs::Obs::disabled()
    };
    // Phase/kernel-level detail spans; the journal then feeds
    // `swdual profile`.
    obs.set_profiling(profile);
    // Crash-surviving flight recorder: the last events are dumped to
    // CRASH-<pid>.jsonl if the process panics mid-search.
    if observe {
        let flight = swdual_obs::FlightRecorder::new(swdual_obs::flight::DEFAULT_FLIGHT_CAPACITY);
        obs.attach_flight(&flight);
        let crash_dir = journal_out
            .and_then(|p| std::path::Path::new(p).parent())
            .filter(|p| !p.as_os_str().is_empty())
            .map_or_else(
                || std::path::PathBuf::from("."),
                std::path::Path::to_path_buf,
            );
        flight.install_panic_hook(&crash_dir);
    }
    let mut builder = SearchBuilder::new()
        .database(database)
        .queries(queries)
        .workers(workers)
        .scheme(scheme)
        .policy(policy)
        .top_k(top)
        .observability(obs.clone());
    match (flags.get("fault-plan"), flags.get("fault-seed")) {
        (Some(_), Some(_)) => {
            return Err("--fault-plan and --fault-seed are mutually exclusive".into())
        }
        (Some(spec), None) => {
            let plan = FaultPlan::parse(spec)?;
            eprintln!("faults: injecting plan `{plan}`");
            builder = builder.fault_plan(plan);
        }
        (None, Some(seed)) => {
            let seed: u64 = seed.parse().map_err(|_| "--fault-seed")?;
            let plan = FaultPlan::seeded(seed, cpus + gpus);
            eprintln!("faults: seed {seed} -> plan `{plan}`");
            builder = builder.fault_seed(seed);
        }
        (None, None) => {}
    }
    if let Some(slack) = flags.get("job-timeout-slack") {
        let slack: f64 = slack.parse().map_err(|_| "--job-timeout-slack")?;
        builder = builder.job_timeout_slack(slack);
    }
    if let Some(ms) = flags.get("min-job-timeout-ms") {
        let ms: u64 = ms.parse().map_err(|_| "--min-job-timeout-ms")?;
        builder = builder.min_job_timeout(std::time::Duration::from_millis(ms));
    }
    if flags.has("reopt") || flags.has("reopt-threshold") || flags.has("reopt-min-remaining") {
        let mut reopt = ReoptConfig::enabled();
        if let Some(v) = flags.get("reopt-threshold") {
            reopt.threshold = v
                .parse::<f64>()
                .ok()
                .filter(|t| *t >= 1.0)
                .ok_or("--reopt-threshold must be a number >= 1")?;
        }
        if let Some(v) = flags.get("reopt-min-remaining") {
            reopt.min_remaining = v.parse().map_err(|_| "--reopt-min-remaining")?;
        }
        eprintln!(
            "reopt: on (threshold x{}, min remaining {})",
            reopt.threshold, reopt.min_remaining
        );
        builder = builder.reopt(reopt);
    }
    if watchdog {
        let cfg = swdual_obs::watch::WatchConfig::default();
        eprintln!(
            "watchdog: on (straggler x{}, bound risk at {}x2\u{3bb})",
            cfg.straggler_ratio, cfg.bound_risk_fraction
        );
        builder = builder.watchdog(cfg);
    }
    if let Some(path) = live_socket {
        eprintln!("live: streaming journal on {path}");
        builder = builder.live(path);
    }
    let reporter =
        progress.then(|| ProgressReporter::start(&obs, std::time::Duration::from_millis(250)));
    let result = builder.try_run();
    if let Some(reporter) = reporter {
        reporter.finish();
    }
    let report = match result {
        Ok(report) => report,
        Err(e) => return Err(format!("search failed: {e}")),
    };

    if let Some(path) = trace_out {
        std::fs::write(path, report.timeline()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("trace: wrote Chrome-trace JSON to {path}");
    }
    if let Some(path) = metrics_out {
        std::fs::write(path, report.metrics()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("metrics: wrote Prometheus text to {path}");
    }
    if let Some(path) = journal_out {
        std::fs::write(path, report.journal()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("journal: wrote JSON-lines events to {path}");
    }

    let evalues = flags.has("evalues");
    let stats = karlin::gapped_params(gap_open, gap_extend);
    if evalues && stats.is_none() {
        eprintln!(
            "note: no fitted gapped statistics for open {gap_open} / extend {gap_extend}; \
             E-values omitted"
        );
    }
    for qh in report.hits() {
        outln!("Query {}:", report.query_id(qh.query_index));
        for hit in &qh.hits {
            match (evalues, stats) {
                (true, Some(p)) => {
                    outln!(
                        "  {:<24} score {:>6}  bits {:>7.1}  E {:.2e}",
                        report.database_id(hit.db_index),
                        hit.score,
                        p.bit_score(hit.score),
                        p.evalue(hit.score, query_lens[qh.query_index], db_residues)
                    );
                }
                _ => outln!(
                    "  {:<24} score {:>6}",
                    report.database_id(hit.db_index),
                    hit.score
                ),
            }
        }
    }
    eprintln!();
    eprint!("{}", report.render_workers());
    eprintln!(
        "wall: {:.2} s ({:.3} GCUPS on this host)",
        report.wall_seconds(),
        report.wall_gcups()
    );
    Ok(())
}

/// Deliver a rendered report: to `out` when given, stdout otherwise.
fn emit(rendered: &str, out: Option<&str>, what: &str) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(path, format!("{rendered}\n")).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("{what}: wrote report to {path}");
        }
        None => outln!("{rendered}"),
    }
    Ok(())
}

/// `swdual analyze EVENTS.jsonl [--json|--text] [-o FILE]` — audit a
/// recorded journal against the scheduler's promises.
fn cmd_analyze(args: &Args) -> Result<(), String> {
    let path = args.path("usage: swdual analyze EVENTS.jsonl|- [--json|--text] [-o FILE]")?;
    let json = args.json()?;
    let contents = read_input(path)?;
    let report =
        swdual_obs::analysis::analyze_journal(&contents).map_err(|e| format!("{path}: {e}"))?;
    let rendered = if json {
        report.to_json()
    } else {
        report.to_text()
    };
    emit(&rendered, args.get("out"), "analyze")
}

/// `swdual explain EVENTS.jsonl [--what-if SPEC] [--json|--text]
/// [-o FILE]` — reconstruct a run's causal lineage: critical path,
/// blame attribution over the modelled makespan, and (with
/// `--what-if`) a counterfactual replay of the recorded schedule.
fn cmd_explain(args: &Args) -> Result<(), String> {
    let path = args
        .path("usage: swdual explain EVENTS.jsonl|- [--what-if SPEC] [--json|--text] [-o FILE]")?;
    let json = args.json()?;
    let contents = read_input(path)?;
    let report =
        swdual_obs::explain::explain_journal(&contents).map_err(|e| format!("{path}: {e}"))?;
    let rendered = match args.get("what-if") {
        Some(spec) => {
            let spec = swdual_core::whatif::WhatIf::parse(spec)?;
            let answer = swdual_core::whatif::what_if(&report.replay, &spec)?;
            if json {
                answer.to_json()
            } else {
                answer.to_text()
            }
        }
        None => {
            if json {
                report.to_json()
            } else {
                report.to_text()
            }
        }
    };
    emit(&rendered, args.get("out"), "explain")
}

/// `swdual profile EVENTS.jsonl [--flame OUT] [--speedscope OUT]
/// [--roofline] [--json] [-o FILE]` — fold a journal into flamegraph /
/// speedscope / roofline views.
fn cmd_profile(args: &Args) -> Result<(), String> {
    let path = args.path(
        "usage: swdual profile EVENTS.jsonl|- [--flame OUT.folded] [--speedscope OUT.json] \
         [--roofline] [--json] [-o FILE]",
    )?;
    let (flame, speedscope, out) = (args.get("flame"), args.get("speedscope"), args.get("out"));
    let json = args.has("json");
    let contents = read_input(path)?;
    let events =
        swdual_obs::journal::parse_journal(&contents).map_err(|e| format!("{path}: {e}"))?;
    let profile = swdual_obs::profile::Profile::from_events(&events);
    if let Some(out) = flame {
        let folded = swdual_obs::export::flamegraph_folded(
            &profile,
            swdual_obs::profile::ProfileClock::Modelled,
        );
        std::fs::write(out, folded).map_err(|e| format!("{out}: {e}"))?;
        eprintln!("flame: wrote collapsed stacks (modelled clock) to {out}");
    }
    if let Some(out) = speedscope {
        let doc = swdual_obs::export::speedscope_json(&profile);
        std::fs::write(out, doc).map_err(|e| format!("{out}: {e}"))?;
        eprintln!("speedscope: wrote profile document to {out}");
    }
    // The roofline report is the default view when no export was
    // requested, and can always be asked for explicitly.
    if args.has("roofline") || json || out.is_some() || (flame.is_none() && speedscope.is_none()) {
        let report = profile.roofline();
        let rendered = if json {
            report.to_json()
        } else {
            report.to_text()
        };
        emit(&rendered, out, "profile")?;
    }
    Ok(())
}

/// Print the dashboard for the watchdog's current fold. On a TTY the
/// screen is cleared so `top` redraws in place; piped output gets the
/// frames sequentially, separated by a blank line.
fn draw_dashboard(status: &swdual_obs::watch::WatchStatus) {
    use std::io::IsTerminal;
    if std::io::stdout().is_terminal() {
        print!("\x1b[2J\x1b[H");
        outln!("{}", swdual_core::live::render_dashboard(status));
    } else {
        outln!("{}\n", swdual_core::live::render_dashboard(status));
    }
}

/// Connect to a live socket, retrying briefly so `swdual top` can be
/// launched in the same breath as (or just before) the search that
/// binds it.
#[cfg(unix)]
fn connect_live(path: &str) -> Result<std::os::unix::net::UnixStream, String> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    loop {
        match std::os::unix::net::UnixStream::connect(path) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if std::time::Instant::now() >= deadline {
                    return Err(format!(
                        "{path}: {e} (is the search running with --live-socket?)"
                    ));
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
    }
}

/// Follow a live socket: fold each streamed journal line through the
/// watchdog, redraw every `refresh`, final frame on EOF.
#[cfg(unix)]
fn top_follow_socket(
    stream: std::os::unix::net::UnixStream,
    refresh: std::time::Duration,
) -> Result<(), String> {
    use std::io::BufRead;

    stream
        .set_read_timeout(Some(std::time::Duration::from_millis(50)))
        .map_err(|e| format!("live stream: {e}"))?;
    let mut reader = std::io::BufReader::new(stream);
    let mut dog = swdual_obs::watch::Watchdog::new(swdual_obs::watch::WatchConfig::default());
    let mut line = String::new();
    let mut header_seen = false;
    let mut dirty = true;
    let mut last_draw: Option<std::time::Instant> = None;
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => break, // clean EOF: the run ended and we caught up
            Ok(_) => {
                let trimmed = line.trim();
                if !trimmed.is_empty() {
                    if header_seen {
                        if let Ok(event) = swdual_obs::journal::parse_event_line(trimmed) {
                            dog.observe(&event);
                            dirty = true;
                        }
                    } else {
                        swdual_obs::journal::validate_header(trimmed)
                            .map_err(|e| format!("live stream: {e}"))?;
                        header_seen = true;
                    }
                }
                line.clear();
            }
            // Timeout slice with no new events (a partial line, if
            // any, stays buffered in `line` and completes next read).
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(format!("live stream: {e}")),
        }
        if dirty && last_draw.is_none_or(|t| t.elapsed() >= refresh) {
            draw_dashboard(&dog.status());
            dirty = false;
            last_draw = Some(std::time::Instant::now());
        }
    }
    draw_dashboard(&dog.status());
    eprintln!("top: stream ended");
    Ok(())
}

/// `swdual top SOCKET|EVENTS.jsonl [--refresh-ms MS]` — live
/// per-worker dashboard. A Unix-socket source (a `--live-socket`
/// search) is followed until the run ends; a journal file (or `-`)
/// renders the run's final state once.
fn cmd_top(args: &Args) -> Result<(), String> {
    let source = args.path("usage: swdual top SOCKET|EVENTS.jsonl|- [--refresh-ms MS]")?;
    let refresh_ms: u64 = match args.get("refresh-ms") {
        Some(ms) => ms
            .parse()
            .map_err(|_| "--refresh-ms needs a millisecond count")?,
        None => 250,
    };

    // A regular file (or stdin) is a recorded journal: fold it whole
    // and render the end-of-run dashboard.
    if source == "-" || std::path::Path::new(source).is_file() {
        let contents = read_input(source)?;
        let events =
            swdual_obs::journal::parse_journal(&contents).map_err(|e| format!("{source}: {e}"))?;
        let mut dog = swdual_obs::watch::Watchdog::new(swdual_obs::watch::WatchConfig::default());
        for event in &events {
            dog.observe(event);
        }
        draw_dashboard(&dog.status());
        return Ok(());
    }

    #[cfg(unix)]
    {
        let stream = connect_live(source)?;
        top_follow_socket(stream, std::time::Duration::from_millis(refresh_ms.max(1)))
    }
    #[cfg(not(unix))]
    {
        let _ = refresh_ms;
        Err(format!(
            "{source}: live sockets need a Unix platform; pass a journal file instead"
        ))
    }
}

/// One compact `swdual tail` line per journal event.
fn render_event_line(event: &swdual_obs::Event) -> String {
    match event.kind {
        swdual_obs::EventKind::Span => format!(
            "{:9.3}s  {:<14} {} (+{:.3}s)",
            event.wall_start,
            event.track.label(),
            event.name,
            event.wall_dur
        ),
        swdual_obs::EventKind::Instant => format!(
            "{:9.3}s  {:<14} {}",
            event.wall_start,
            event.track.label(),
            event.name
        ),
    }
}

/// Print one tailed journal line (shared by the file and stdin
/// paths): alerts always, other events unless `--alerts-only`.
fn tail_emit(trimmed: &str, alerts_only: bool) {
    let Ok(event) = swdual_obs::journal::parse_event_line(trimmed) else {
        return; // tolerate torn writes while following
    };
    if event.is_alert() {
        for alert in swdual_obs::watch::alerts_from_events(std::slice::from_ref(&event)) {
            outln!("{}", swdual_core::live::render_alert_line(&alert));
        }
    } else if !alerts_only {
        outln!("{}", render_event_line(&event));
    }
}

/// `swdual tail EVENTS.jsonl [--follow] [--alerts-only]` — stream a
/// journal (or stdin with `-`) line by line; `--follow` keeps reading
/// as the file grows, `--alerts-only` filters to watchdog alerts. It
/// reads line by line rather than through [`read_input`] so a journal
/// piped from a live run (`nc -U SOCKET | swdual tail -`) prints as it
/// arrives.
fn cmd_tail(args: &Args) -> Result<(), String> {
    use std::io::BufRead;

    let source = args.path("usage: swdual tail EVENTS.jsonl|- [--follow] [--alerts-only]")?;
    let alerts_only = args.has("alerts-only");
    // Stdin ends at its EOF; only a file can grow.
    let follow = args.has("follow") && source != "-";
    let mut reader: Box<dyn BufRead> = if source == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        let file = std::fs::File::open(source).map_err(|e| format!("{source}: {e}"))?;
        Box::new(std::io::BufReader::new(file))
    };
    let mut header_seen = false;
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) if follow => std::thread::sleep(std::time::Duration::from_millis(100)),
            Ok(0) => return Ok(()),
            // Torn tail while the writer is mid-line: keep the partial
            // line buffered; the next read appends the rest.
            Ok(_) if follow && !line.ends_with('\n') => {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            Ok(_) => {
                let trimmed = line.trim();
                if !trimmed.is_empty() && header_seen {
                    tail_emit(trimmed, alerts_only);
                } else if !trimmed.is_empty() {
                    swdual_obs::journal::validate_header(trimmed)
                        .map_err(|e| format!("{source}: {e}"))?;
                    header_seen = true;
                }
                line.clear();
            }
            Err(e) => return Err(format!("{source}: {e}")),
        }
    }
}

/// `swdual diff BASE.jsonl HEAD.jsonl [...]` / `swdual diff --bench
/// [LEDGER.json]` — compare two runs (or the last two entries of each
/// bench in the trend ledger) and optionally gate on regressions.
/// Returns the process exit code so `--fail-on-regression` can fail
/// the build after still printing the full report.
fn cmd_diff(args: &Args) -> Result<ExitCode, String> {
    let json = args.json()?;
    let bench_name = args.get("bench-name");
    let exact_only = args.has("exact-only");
    let mut opts = swdual_obs::diff::DiffOptions {
        include_profile: args.has("profile"),
        ..Default::default()
    };
    if let Some(pct) = args.get("threshold") {
        let pct: f64 = pct
            .parse()
            .map_err(|_| "--threshold must be a percentage")?;
        if !(0.0..=100.0).contains(&pct) {
            return Err("--threshold must be a percentage in [0, 100]".into());
        }
        opts.wall_tolerance = pct / 100.0;
    }
    let paths = &args.paths;
    let report = if args.has("bench") {
        if paths.len() > 1 {
            return Err("diff --bench takes at most one ledger path".into());
        }
        let ledger_path = paths.first().map_or("BENCH_trend.json", String::as_str);
        let ledger = swdual_obs::trend::TrendLedger::load(std::path::Path::new(ledger_path))?;
        swdual_obs::trend::diff_trend(&ledger, bench_name, &opts)?
    } else {
        if bench_name.is_some() {
            return Err("--bench-name only applies with --bench".into());
        }
        let (base_path, head_path) = match paths.as_slice() {
            [base, head] => (base, head),
            _ => {
                return Err(
                    "usage: swdual diff BASE.jsonl HEAD.jsonl [--profile] [--json|--text] \
                     [--threshold PCT] [--fail-on-regression] [--exact-only] [-o FILE]"
                        .into(),
                )
            }
        };
        let base = read_input(base_path)?;
        let head = read_input(head_path)?;
        swdual_obs::diff::diff_journals(&base, &head, &opts)
            .map_err(|e| format!("{base_path} vs {head_path}: {e}"))?
    };
    let rendered = if json {
        report.to_json()
    } else {
        report.to_text()
    };
    emit(&rendered, args.get("out"), "diff")?;
    if args.has("fail-on-regression") {
        let regressed = report.regressions(exact_only);
        if !regressed.is_empty() {
            eprintln!(
                "diff: FAIL — {} regressed metric(s): {}",
                regressed.len(),
                regressed.join(", ")
            );
            return Ok(ExitCode::FAILURE);
        }
        let lane = if exact_only {
            "modelled-clock lane clean"
        } else {
            "no regressions"
        };
        eprintln!("diff: PASS — {lane}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_convert(flags: &Args) -> Result<(), String> {
    let input = flags.get("input").ok_or("--input is required")?;
    let output = flags.get("output").ok_or("--output is required")?;
    let set = load_set(input)?;
    if output.ends_with(".sqb") {
        sqb::write_file(&set, output).map_err(|e| e.to_string())?;
    } else {
        fasta::write_file(&set, output).map_err(|e| e.to_string())?;
    }
    outln!(
        "converted {} sequences ({} residues): {input} -> {output}",
        set.len(),
        set.total_residues()
    );
    Ok(())
}

fn cmd_generate(flags: &Args) -> Result<(), String> {
    let n: usize = flags
        .get("sequences")
        .ok_or("--sequences is required")?
        .parse()
        .map_err(|_| "--sequences must be a number")?;
    let mean: f64 = flags
        .get("mean-len")
        .ok_or("--mean-len is required")?
        .parse()
        .map_err(|_| "--mean-len must be a number")?;
    let output = flags.get("output").ok_or("--output is required")?;
    let seed: u64 = flags
        .get("seed")
        .map_or(Ok(2014), |v| v.parse().map_err(|_| "--seed"))?;
    let set = synthetic_database("synth", n, LengthModel::protein_database(mean), seed);
    if output.ends_with(".sqb") {
        sqb::write_file(&set, output).map_err(|e| e.to_string())?;
    } else {
        fasta::write_file(&set, output).map_err(|e| e.to_string())?;
    }
    outln!(
        "generated {} sequences ({} residues) -> {output}",
        set.len(),
        set.total_residues()
    );
    Ok(())
}

fn cmd_info(flags: &Args) -> Result<(), String> {
    let path = flags.get("db").ok_or("--db is required")?;
    let set = load_set(path)?;
    outln!("file:      {path}");
    outln!("alphabet:  {:?}", set.alphabet);
    outln!("sequences: {}", set.len());
    outln!("residues:  {}", set.total_residues());
    if let Some(stats) = LengthStats::of_set(&set) {
        outln!(
            "lengths:   min {} / median {} / mean {:.1} / max {} (sd {:.1})",
            stats.min,
            stats.median,
            stats.mean,
            stats.max,
            stats.std_dev
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    // Each command's switches and value-taking options; `analyze`,
    // `explain`, `profile`, `top`, `tail` and `diff` also take
    // positional journal paths.
    let (switches, options): (&[&str], &[&str]) = match cmd.as_str() {
        "search" => (
            &["evalues", "progress", "profile", "reopt", "watchdog"],
            &[
                "db",
                "queries",
                "cpus",
                "gpus",
                "device-class",
                "prior-scale",
                "reopt-threshold",
                "reopt-min-remaining",
                "policy",
                "top",
                "gap-open",
                "gap-extend",
                "trace-out",
                "metrics-out",
                "journal-out",
                "live-socket",
                "fault-plan",
                "fault-seed",
                "job-timeout-slack",
                "min-job-timeout-ms",
            ],
        ),
        "analyze" => (&["json", "text"], &["out"]),
        "explain" => (&["json", "text"], &["what-if", "out"]),
        "profile" => (&["roofline", "json"], &["flame", "speedscope", "out"]),
        "top" => (&[], &["refresh-ms"]),
        "tail" => (&["follow", "alerts-only"], &[]),
        "diff" => (
            &[
                "bench",
                "profile",
                "json",
                "text",
                "fail-on-regression",
                "exact-only",
            ],
            &["bench-name", "threshold", "out"],
        ),
        "convert" => (&[], &["input", "output"]),
        "generate" => (&[], &["sequences", "mean-len", "output", "seed"]),
        "info" => (&[], &["db"]),
        "help" | "--help" | "-h" => {
            outln!("{}", usage());
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("error: unknown command {other:?}");
            return ExitCode::FAILURE;
        }
    };
    let parsed = parse_args(cmd, &args[1..], switches, options).and_then(|parsed| {
        let takes_paths = !matches!(cmd.as_str(), "search" | "convert" | "generate" | "info");
        match parsed.paths.first() {
            Some(path) if !takes_paths => Err(format!("expected --flag, got {path:?}")),
            _ => Ok(parsed),
        }
    });
    let args = match parsed {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let ok = |()| ExitCode::SUCCESS;
    // `diff` picks its own exit code so `--fail-on-regression` can fail
    // the build after printing the report.
    let result = match cmd.as_str() {
        "search" => cmd_search(&args).map(ok),
        "analyze" => cmd_analyze(&args).map(ok),
        "explain" => cmd_explain(&args).map(ok),
        "profile" => cmd_profile(&args).map(ok),
        "top" => cmd_top(&args).map(ok),
        "tail" => cmd_tail(&args).map(ok),
        "diff" => cmd_diff(&args),
        "convert" => cmd_convert(&args).map(ok),
        "generate" => cmd_generate(&args).map(ok),
        _ => cmd_info(&args).map(ok),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
