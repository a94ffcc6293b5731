//! End-to-end benchmark of the SWDUAL search.
//!
//! ```text
//! swdual-perfbench gen --workload W --seed N --dir DIR [--scale full|tiny]
//! swdual-perfbench run --workload W --seed N --dir DIR --seconds S --trace 0|1
//!                      [--scale full|tiny] [--ledger FILE --code ID] [--trace-out FILE]
//! ```
//!
//! `gen` writes the workload's database and query files; `run` sees
//! only those files. With `--trace 0` it runs untraced searches through
//! `SearchBuilder::try_run` for `--seconds`, with rounds of timed
//! back-to-back decodes of the files spread over the run (`setup_s`),
//! checks every output and prints the end-to-end metrics. With
//! `--trace 1` it alternates untraced and traced searches, wraps the
//! traced ones in spans around each layer's calls, probes `sched`,
//! `align` and `gpusim` on the same inputs and prints the per-layer
//! metrics. The last stdout line is the JSON result.

mod check;
mod probes;
mod trace;
mod workload;

use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use swdual_core::bio::karlin::{gapped_params, KarlinParams};
use swdual_core::bio::{ScoringScheme, SequenceSet};
use swdual_core::runtime::QueryHits;
use swdual_core::{SearchBuilder, SearchReport};

use probes::median;
use trace::{Reconciliation, Trace};
use workload::{Loaded, Scale, Workload, TOP_K};

/// Set-up rounds per run, due at even shares of `--seconds`. A round
/// decodes the files back to back for `SETUP_ROUND`, in batches of at
/// least `SETUP_BATCH` and `SETUP_BATCH_DECODES` decodes, and keeps its
/// fastest batch's seconds per decode. `setup_s` is the fastest round.
/// Other tenants of a shared host only ever add time, in phases that
/// can last minutes, so the fastest batch of rounds spread over the run
/// is the steadiest estimate of the decode's own cost.
const SETUP_ROUNDS: u32 = 12;
const SETUP_ROUND: Duration = Duration::from_millis(200);
const SETUP_BATCH: Duration = Duration::from_millis(20);
const SETUP_BATCH_DECODES: usize = 2;

/// Threads for the oracle rescoring after the timed searches.
const ORACLE_THREADS: usize = 2;

struct Args {
    command: String,
    flags: HashMap<String, String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let command = it.next().ok_or("missing command (gen|run)")?;
        let mut flags = HashMap::new();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            flags.insert(key.to_string(), value);
        }
        Ok(Args { command, flags })
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("--{key} is required"))
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.get(key)?;
        v.parse()
            .map_err(|_| format!("--{key}: cannot parse {v:?}"))
    }
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn real_main() -> Result<(), String> {
    let args = Args::parse()?;
    let scale = Scale::parse(args.flags.get("scale").map_or("full", String::as_str))?;
    let w = Workload::get(args.get("workload")?, scale)?;
    let seed: u64 = args.parsed("seed")?;
    let dir = PathBuf::from(args.get("dir")?);
    match args.command.as_str() {
        "gen" => w.generate(seed, &dir),
        "run" => {
            let seconds: f64 = args.parsed("seconds")?;
            // The ledger compares runs of the same code only: `--code`
            // identifies the sources the benchmark was built from.
            let ledger = match args.flags.get("ledger") {
                Some(path) => {
                    let code = args.get("code")?;
                    let key = format!("{}/{}/{seed}/{code}", w.name, scale.name());
                    Some((PathBuf::from(path), key))
                }
                None => None,
            };
            let run = Run {
                w: &w,
                dir: &dir,
                seconds: Duration::from_secs_f64(seconds.max(0.0)),
                ledger,
            };
            match args.get("trace")? {
                "0" => run.untraced(),
                "1" => run.traced(args.flags.get("trace-out").map(Path::new)),
                other => Err(format!("--trace must be 0 or 1, not {other:?}")),
            }
        }
        other => Err(format!("unknown command {other:?} (gen|run)")),
    }
}

struct Run<'a> {
    w: &'a Workload,
    dir: &'a Path,
    seconds: Duration,
    /// Modelled-makespan ledger file and this run's key in it.
    ledger: Option<(PathBuf, String)>,
}

/// One search, timed from `try_run` through the E-value annotation a
/// user receives.
struct Timed {
    report: SearchReport,
    run_s: f64,
    stats_s: f64,
}

impl Timed {
    fn wall_gcups(&self) -> f64 {
        self.report.total_cells() as f64 / (self.run_s + self.stats_s) / 1e9
    }
}

fn karlin() -> KarlinParams {
    let s = ScoringScheme::protein_default();
    gapped_params(s.gap_open, s.gap_extend).expect("fitted statistics for the default scheme")
}

/// Ranked hits with bit scores and E-values for every query.
fn annotate(report: &SearchReport, query_lens: &[usize], db_residues: u64) -> usize {
    let params = karlin();
    (0..query_lens.len())
        .map(|qi| {
            black_box(report.hits_with_statistics(qi, query_lens[qi], db_residues, &params)).len()
        })
        .sum()
}

/// Everything the checks need to remember about one search.
struct Outcome {
    hits: Vec<QueryHits>,
    modelled_bits: u64,
}

/// Tallies searches and their verdicts; the first successful search's
/// hits and modelled makespan are the reference the others must equal.
#[derive(Default)]
struct Verdicts {
    attempted: usize,
    failed: usize,
    reference: Option<Outcome>,
    /// Searches whose output equals the reference (to be failed too if
    /// the reference itself fails the oracle).
    matching_reference: usize,
    problems: Vec<String>,
}

impl Verdicts {
    fn record(&mut self, result: &Result<Timed, String>) {
        self.attempted += 1;
        let timed = match result {
            Ok(t) => t,
            Err(e) => {
                self.failed += 1;
                self.problems.push(format!("search error: {e}"));
                return;
            }
        };
        let hits = timed.report.hits();
        let bits = timed.report.modelled_makespan().to_bits();
        match &self.reference {
            None => {
                self.reference = Some(Outcome {
                    hits: hits.to_vec(),
                    modelled_bits: bits,
                });
                self.matching_reference += 1;
            }
            Some(r) if r.hits.as_slice() != hits => {
                self.failed += 1;
                self.problems
                    .push("hit lists differ between searches of one run".into());
            }
            Some(r) if r.modelled_bits != bits => {
                self.failed += 1;
                self.problems.push(format!(
                    "modelled makespan {:?} differs from the run's first {:?}",
                    f64::from_bits(bits),
                    f64::from_bits(r.modelled_bits)
                ));
            }
            Some(_) => self.matching_reference += 1,
        }
    }

    /// Check the reference output against the oracle and the ledger;
    /// on failure every search that matched it fails too.
    fn finish(&mut self, loaded: &Loaded, ledger: &Option<(PathBuf, String)>) {
        let Some(r) = &self.reference else { return };
        let mut problems = check::check_hits(
            &r.hits,
            &loaded.database,
            &loaded.queries,
            &ScoringScheme::protein_default(),
            TOP_K,
            ORACLE_THREADS,
        );
        if let Some((path, key)) = ledger {
            match check::ledger(path, key, r.modelled_bits) {
                Ok(Some(prev)) if prev != r.modelled_bits => problems.push(format!(
                    "modelled makespan {:?} differs from an earlier run's {:?} ({key})",
                    f64::from_bits(r.modelled_bits),
                    f64::from_bits(prev)
                )),
                Ok(_) => {}
                Err(e) => problems.push(format!("ledger: {e}")),
            }
        }
        if !problems.is_empty() {
            self.failed += self.matching_reference;
            self.problems.extend(problems);
        }
    }

    fn modelled_makespan(&self) -> f64 {
        self.reference
            .as_ref()
            .map_or(0.0, |r| f64::from_bits(r.modelled_bits))
    }

    fn report_problems(&self) {
        for p in self.problems.iter().take(20) {
            eprintln!("CHECK FAILED: {p}");
        }
        if self.problems.len() > 20 {
            eprintln!("... and {} more", self.problems.len() - 20);
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Print the human summary on stderr and the JSON result as the last
/// stdout line.
fn emit(v: &Verdicts, metrics: &[Metric]) {
    v.report_problems();
    for m in metrics {
        eprintln!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!("searches: {} attempted, {} failed", v.attempted, v.failed);
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // A non-finite value is not valid JSON; it can only come
            // from a run with no successful search, which `correct`
            // already reports.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.failed == 0 && v.attempted > 0,
        v.attempted,
        v.failed,
        body.join(", ")
    );
}

/// Median, or 0 for a run in which no search succeeded (which
/// `correct` reports).
fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn builder(w: &Workload, database: SequenceSet, queries: SequenceSet) -> SearchBuilder {
    SearchBuilder::new()
        .database(database)
        .queries(queries)
        .workers(w.workers())
        .top_k(TOP_K)
        .fault_plan(w.fault_plan())
}

/// Run one untraced search.
fn search(w: &Workload, database: SequenceSet, queries: SequenceSet) -> Result<Timed, String> {
    let query_lens: Vec<usize> = queries.iter().map(|q| q.len()).collect();
    let db_residues = database.total_residues();
    let b = builder(w, database, queries);
    let t0 = Instant::now();
    let report = b.try_run().map_err(|e| e.to_string())?;
    let run_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    annotate(&report, &query_lens, db_residues);
    let stats_s = t1.elapsed().as_secs_f64();
    Ok(Timed {
        report,
        run_s,
        stats_s,
    })
}

/// One traced iteration's per-layer figures.
struct TracedSample {
    load_s: f64,
    load_mb_s: f64,
    search_s: f64,
    report_s: f64,
    cpu_busy_share: f64,
    gpu_busy_share: f64,
    overhead_s: f64,
    queue_wait_s: f64,
    redispatched: f64,
    journal_events: f64,
    cells: f64,
}

impl Run<'_> {
    fn untraced(&self) -> Result<(), String> {
        let mut setup = Vec::new();
        let mut v = Verdicts::default();
        let mut gcups = Vec::new();
        let start = Instant::now();
        while v.attempted == 0 || start.elapsed() < self.seconds {
            // The first round comes first in the process, as set-up
            // does in a CLI run; the others sample the rest of the run.
            while setup.len() < SETUP_ROUNDS as usize
                && start.elapsed() >= self.seconds * setup.len() as u32 / SETUP_ROUNDS
            {
                setup.push(self.setup_round()?);
            }
            // Each search consumes a fresh decode, so the process holds
            // one copy of the inputs, as a CLI run does.
            let loaded = workload::load(self.w, self.dir)?;
            let result = search(self.w, loaded.database, loaded.queries);
            v.record(&result);
            if let Ok(t) = &result {
                gcups.push(t.wall_gcups());
            }
        }
        let searched_s = start.elapsed().as_secs_f64();
        // Rounds a run of few long searches skipped.
        while setup.len() < SETUP_ROUNDS as usize {
            setup.push(self.setup_round()?);
        }
        // Read for the oracle only now, after the peak the searches set.
        let base = workload::load(self.w, self.dir)?;
        v.finish(&base, &self.ledger);
        let ok = (v.attempted - v.failed) as f64 / v.attempted as f64;
        let mut sorted = gcups.clone();
        sorted.sort_by(f64::total_cmp);
        let mut setup_ms: Vec<f64> = setup.iter().map(|s| s * 1e3).collect();
        setup_ms.sort_by(f64::total_cmp);
        eprintln!(
            "{}: {} searches in {searched_s:.1} s; wall GCUPS per search (sorted): {sorted:.3?}; \
             set-up ms per decode, per round (sorted): {setup_ms:.3?}",
            self.w.name, v.attempted,
        );
        emit(
            &v,
            &[
                metric("wall_gcups", median_or_zero(&gcups), "GCUPS"),
                metric(
                    "setup_s",
                    setup.iter().copied().fold(f64::INFINITY, f64::min),
                    "s",
                ),
                metric("peak_rss_mb", peak_rss_mb(), "MB"),
                metric("modelled_makespan_s", v.modelled_makespan(), "s"),
                metric("success_rate", ok, "ratio"),
            ],
        );
        Ok(())
    }

    /// One set-up round (see `SETUP_ROUNDS`): the fastest batch's
    /// decode seconds per decode.
    fn setup_round(&self) -> Result<f64, String> {
        let round = Instant::now();
        let mut fastest = f64::INFINITY;
        while fastest.is_infinite() || round.elapsed() < SETUP_ROUND {
            let batch = Instant::now();
            let (mut n, mut seconds) = (0, 0.0);
            while n < SETUP_BATCH_DECODES || batch.elapsed() < SETUP_BATCH {
                seconds += workload::load(self.w, self.dir)?.seconds;
                n += 1;
            }
            fastest = fastest.min(seconds / n as f64);
        }
        Ok(fastest)
    }

    /// One traced search, from decoding the files to the rendered
    /// report, with a span around each layer's calls, added to the
    /// run's reconciliation.
    fn traced_once(
        &self,
        tr: &mut Trace,
        rec: &mut Reconciliation,
    ) -> Result<(Timed, TracedSample), String> {
        let root = tr.begin("traced_total", None);
        let bio = tr.begin("bio.load", Some(root));
        let loaded = workload::load(self.w, self.dir)?;
        tr.end(bio);
        let query_lens: Vec<usize> = loaded.queries.iter().map(|q| q.len()).collect();
        let db_residues = loaded.database.total_residues();
        let b = builder(self.w, loaded.database, loaded.queries)
            .observe()
            .profile(true);
        let rt = tr.begin("runtime.try_run", Some(root));
        let result = b.try_run();
        tr.end(rt);
        let report = result.map_err(|e| e.to_string())?;
        let rt_start = tr.start_of(rt);
        for s in report.worker_stats() {
            tr.add(
                &format!("worker{}.busy", s.worker_id),
                Some(rt),
                rt_start,
                rt_start + s.busy_wall,
                1 + s.worker_id,
            );
        }
        let core = tr.begin("core.report", Some(root));
        let t_stats = Instant::now();
        annotate(&report, &query_lens, db_residues);
        let stats_s = t_stats.elapsed().as_secs_f64();
        let t_render = Instant::now();
        black_box(report.render_hits(TOP_K));
        let render_s = t_render.elapsed().as_secs_f64();
        tr.end(core);
        tr.end(root);
        // Clocks inside the calls: the decode timer, the runtime
        // master's own wall clock and the report timers.
        rec.add(
            tr,
            root,
            loaded.seconds + report.wall_seconds() + stats_s + render_s,
        );

        let search_s = tr.duration(rt);
        let workers = self.w.workers();
        let busiest = |gpu: bool| {
            report
                .worker_stats()
                .iter()
                .filter(|s| workers[s.worker_id].is_gpu() == gpu)
                .map(|s| s.busy_wall)
                .fold(0.0, f64::max)
        };
        let obs = report.obs();
        let sample = TracedSample {
            load_s: loaded.seconds,
            load_mb_s: loaded.bytes as f64 / loaded.seconds / 1e6,
            search_s,
            report_s: tr.duration(core),
            cpu_busy_share: busiest(false) / search_s,
            gpu_busy_share: busiest(true) / search_s,
            overhead_s: search_s - busiest(false).max(busiest(true)),
            queue_wait_s: report
                .analysis()
                .workers
                .iter()
                .map(|a| a.queue_wait_wall)
                .sum(),
            redispatched: obs
                .counters()
                .iter()
                .find(|(n, _)| n == "tasks_redispatched")
                .map_or(0.0, |(_, v)| *v),
            journal_events: obs.event_count() as f64,
            cells: report.total_cells() as f64,
        };
        Ok((
            Timed {
                report,
                run_s: search_s,
                stats_s,
            },
            sample,
        ))
    }

    fn traced(&self, trace_out: Option<&Path>) -> Result<(), String> {
        let w = self.w;
        let base = workload::load(w, self.dir)?;
        let mut tr = Trace::new();
        let mut v = Verdicts::default();
        let mut untraced_s = Vec::new();
        let mut untraced_gcups = Vec::new();
        let mut samples: Vec<TracedSample> = Vec::new();
        let mut rec = Reconciliation::default();
        let start = Instant::now();
        while v.attempted == 0 || start.elapsed() < self.seconds {
            let plain = search(w, base.database.clone(), base.queries.clone());
            v.record(&plain);
            if let Ok(t) = &plain {
                untraced_s.push(t.run_s);
                untraced_gcups.push(t.wall_gcups());
            }
            match self.traced_once(&mut tr, &mut rec) {
                Ok((t, s)) => {
                    v.record(&Ok(t));
                    samples.push(s);
                }
                Err(e) => v.record(&Err(e)),
            }
        }

        let db_residues = base.database.total_residues();
        let probe = tr.begin("sched.probe", None);
        let sched = probes::sched(w, &base.queries, db_residues);
        tr.end(probe);
        let sample = probes::Sample::of(&base.database, &base.queries);
        let scheme = ScoringScheme::protein_default();
        let probe = tr.begin("align.probe", None);
        let align = probes::align(&base.database, &base.queries, &sample, &scheme);
        tr.end(probe);
        let probe = tr.begin("gpusim.probe", None);
        let gpu = probes::gpusim(
            &base.database,
            &base.queries,
            &sched.gpu_tasks,
            &sample,
            &scheme,
        );
        tr.end(probe);

        v.finish(&base, &self.ledger);
        let problems = if samples.is_empty() {
            Vec::new()
        } else {
            rec.problems()
        };
        if !problems.is_empty() {
            // The per-layer figures of every traced search are suspect.
            v.failed = (v.failed + samples.len()).min(v.attempted);
            v.problems.extend(problems);
        }
        if let Some(path) = trace_out {
            std::fs::write(path, tr.chrome_json())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("trace: wrote {} spans to {}", tr.len(), path.display());
        }

        let med = |f: fn(&TracedSample) -> f64| {
            median_or_zero(&samples.iter().map(f).collect::<Vec<_>>())
        };
        let search_s = med(|s| s.search_s);
        let n_workers = (w.cpus + w.gpus) as f64;
        eprintln!(
            "{}: {} traced + {} untraced searches; sched orphans {}",
            w.name,
            samples.len(),
            untraced_s.len(),
            sched.orphans
        );
        emit(
            &v,
            &[
                metric("bio.load_s", med(|s| s.load_s), "s"),
                metric("bio.load_mb_s", med(|s| s.load_mb_s), "MB/s"),
                metric("sched.plan_s", sched.plan_s, "s"),
                metric("sched.iterations", sched.iterations as f64, "count"),
                metric("sched.approx_ratio", sched.approx_ratio, "ratio"),
                metric("sched.replan_s", sched.replan_s, "s"),
                metric("align.dp_gcups", align.dp_gcups, "GCUPS"),
                metric("align.profile_build_s", align.profile_build_s, "s"),
                metric(
                    "align.byte_resolved_ratio",
                    align.byte_resolved_ratio,
                    "ratio",
                ),
                metric("align.cells", med(|s| s.cells), "count"),
                metric("gpusim.host_mcups", gpu.host_mcups, "MCUPS"),
                metric("gpusim.modelled_s", gpu.modelled_s, "s"),
                metric("gpusim.wall_over_modelled", gpu.wall_over_modelled, "ratio"),
                metric("runtime.search_s", search_s, "s"),
                metric("runtime.cpu_busy_share", med(|s| s.cpu_busy_share), "ratio"),
                metric("runtime.gpu_busy_share", med(|s| s.gpu_busy_share), "ratio"),
                metric("runtime.overhead_s", med(|s| s.overhead_s), "s"),
                metric("runtime.queue_wait_s", med(|s| s.queue_wait_s), "s"),
                metric(
                    "runtime.result_bytes",
                    (base.queries.len() * base.database.len() * 4) as f64,
                    "bytes",
                ),
                metric(
                    "runtime.tasks_redispatched",
                    med(|s| s.redispatched),
                    "count",
                ),
                metric(
                    "runtime.scaling_eff",
                    median_or_zero(&untraced_gcups) / (n_workers * align.dp_gcups),
                    "ratio",
                ),
                metric("core.report_s", med(|s| s.report_s), "s"),
                metric(
                    "obs.traced_over_untraced",
                    search_s / median_or_zero(&untraced_s),
                    "ratio",
                ),
                metric("obs.journal_events", med(|s| s.journal_events), "count"),
                metric("trace.layer_share", rec.layer_share(), "ratio"),
                metric("trace.clock_share", rec.clock_share(), "ratio"),
            ],
        );
        Ok(())
    }
}
