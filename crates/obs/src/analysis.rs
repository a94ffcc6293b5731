//! Post-run schedule auditor: fold a journal into a [`RunReport`].
//!
//! The dual-approximation master promises makespan ≤ 2·λ; this module
//! checks what a *specific run* actually delivered. It consumes either
//! a live recorder ([`analyze_obs`]) or a JSON-lines journal written by
//! [`export::journal_jsonl`](crate::export::journal_jsonl)
//! ([`analyze_journal`]) and reports:
//!
//! * achieved makespan on both clocks, against λ and the 2λ bound;
//! * per-worker busy time, utilization and the load-imbalance ratio;
//! * planned-vs-actual completion skew per placement;
//! * the critical-path job (the one that finishes last on the modelled
//!   clock);
//! * how well the GPU side respected the acceleration-ratio ordering
//!   the knapsack argues from (`p_cpu/p_gpu` high → GPU);
//! * exact job-latency quantiles and fault/re-dispatch counts.
//!
//! Journals start with a `{"schema":"swdual-journal/2",...}` header
//! line (the previous `swdual-journal/1` still parses); anything else
//! is rejected with a typed [`JournalError`] instead of garbage
//! output.

use crate::journal::{parse_journal_with_schema, JournalError, JOURNAL_SCHEMA};
use crate::{Event, Obs, Track};
use serde::Serialize;
use std::collections::BTreeMap;

/// One worker's share of the run.
#[derive(Debug, Clone, Serialize)]
pub struct WorkerAudit {
    /// Worker id.
    pub worker: usize,
    /// Whether it registered as a GPU worker (false when the journal
    /// has no registration events).
    pub is_gpu: bool,
    /// Device class the master journaled for this worker (`c2050`,
    /// `phi`, `knl`, `bioseal`, `custom` for an unrecognised GPU,
    /// `cpu` for a host worker; empty when the journal predates class
    /// tagging).
    pub device_class: String,
    /// Jobs it completed.
    pub tasks: usize,
    /// Sum of job wall durations (seconds).
    pub busy_wall: f64,
    /// Sum of job modelled durations (seconds).
    pub busy_modelled: f64,
    /// `busy_wall` / wall makespan.
    pub utilization_wall: f64,
    /// `busy_modelled` / modelled makespan.
    pub utilization_modelled: f64,
    /// Mean throughput over its busy wall time, in MCUPS (0 when the
    /// journal carries no cell counts).
    pub mcups: f64,
    /// Total wall seconds its jobs sat between dispatch and execution
    /// start (0 when the journal predates lineage tagging).
    pub queue_wait_wall: f64,
    /// Total modelled seconds between dispatch stamp and modelled
    /// start — nonzero only when a re-plan handed work to a worker
    /// whose modelled clock had already run past the stamp.
    pub queue_wait_modelled: f64,
}

/// Exact latency quantiles over completed jobs.
#[derive(Debug, Clone, Default, Serialize)]
pub struct LatencyStats {
    /// Number of jobs observed.
    pub count: usize,
    /// Median job duration (seconds).
    pub p50: f64,
    /// 95th-percentile job duration (seconds).
    pub p95: f64,
    /// 99th-percentile job duration (seconds).
    pub p99: f64,
    /// Slowest job (seconds).
    pub max: f64,
    /// Mean job duration (seconds).
    pub mean: f64,
}

impl LatencyStats {
    fn from_durations(mut durations: Vec<f64>) -> LatencyStats {
        if durations.is_empty() {
            return LatencyStats::default();
        }
        durations.sort_by(f64::total_cmp);
        let n = durations.len();
        let at = |q: f64| {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            durations[rank - 1]
        };
        LatencyStats {
            count: n,
            p50: at(0.50),
            p95: at(0.95),
            p99: at(0.99),
            max: durations[n - 1],
            mean: durations.iter().sum::<f64>() / n as f64,
        }
    }
}

/// Planned-vs-actual completion skew on the modelled clock.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SkewStats {
    /// Placements with both a planned and an actual span.
    pub tasks_compared: usize,
    /// Mean |actual completion − planned completion| (seconds).
    pub mean_abs: f64,
    /// Largest |actual − planned| completion gap (seconds).
    pub max_abs: f64,
    /// Task id behind `max_abs` (−1 when nothing compared).
    pub max_task: i64,
}

/// One fault-track event name and how often it fired.
#[derive(Debug, Clone, Serialize)]
pub struct FaultCount {
    /// Event name (e.g. `worker_death`, `task_redispatch`).
    pub name: String,
    /// Occurrences.
    pub count: usize,
}

/// Everything the auditor can say about one run.
#[derive(Debug, Clone, Serialize)]
pub struct RunReport {
    /// Schema the analyzed journal declared.
    pub schema: String,
    /// Distinct tasks that completed on some worker.
    pub tasks: usize,
    /// Per-worker breakdown, ascending by worker id.
    pub workers: Vec<WorkerAudit>,
    /// Wall-clock execution window: latest job end − earliest job
    /// start (seconds).
    pub wall_makespan: f64,
    /// Modelled makespan: latest modelled job completion (seconds) —
    /// the clock the paper's bound is stated in.
    pub modelled_makespan: f64,
    /// Latest planned completion (seconds; 0 without a static plan).
    pub planned_makespan: f64,
    /// Final λ of the binary search (the smallest feasible guess).
    pub lambda: f64,
    /// Final proven lower bound on the optimal makespan.
    pub lower_bound: f64,
    /// The guarantee the dual approximation gives: 2·λ.
    pub two_lambda_bound: f64,
    /// Whether the journal carries scheduler λ information at all
    /// (false under pure self-scheduling).
    pub has_bound: bool,
    /// `modelled_makespan ≤ two_lambda_bound` (false when no bound).
    pub bound_holds: bool,
    /// `two_lambda_bound − modelled_makespan` (seconds; how much
    /// headroom the run left under the guarantee).
    pub bound_margin: f64,
    /// Binary-search iterations the scheduler spent.
    pub binsearch_iterations: usize,
    /// Max worker modelled busy time over the mean (1.0 = perfectly
    /// balanced).
    pub load_imbalance: f64,
    /// Task finishing last on the modelled clock (−1 when no jobs).
    pub critical_task: i64,
    /// Worker that ran the critical task (−1 when no jobs).
    pub critical_worker: i64,
    /// Exact wall-clock job-latency quantiles.
    pub wall_latency: LatencyStats,
    /// Exact modelled-clock job-latency quantiles.
    pub modelled_latency: LatencyStats,
    /// Planned-vs-actual completion skew.
    pub skew: SkewStats,
    /// Fraction of (GPU-task, CPU-task) pairs in the plan where the
    /// GPU task has the higher acceleration ratio `p_cpu/p_gpu` — 1.0
    /// means the knapsack's ordering argument held perfectly (also 1.0
    /// when the journal lacks the data to judge).
    pub gpu_ordering_quality: f64,
    /// Distinct tasks that appear on recovered (re-planned) tracks.
    pub moved_tasks: usize,
    /// Online re-optimization rounds the master journaled
    /// (`reopt_replan` events on the fault track).
    pub reopt_replans: usize,
    /// Fault-track event counts by name.
    pub faults: Vec<FaultCount>,
    /// Watchdog alert counts by kind (`alert_*` fault-track instants,
    /// prefix stripped). Kept apart from `faults`: alerts are the
    /// watchdog's commentary about the run, not injected or detected
    /// faults themselves.
    pub alerts: Vec<FaultCount>,
}

/// Fold a recorded event stream into a [`RunReport`].
pub fn analyze_obs(obs: &Obs) -> RunReport {
    analyze_events(&obs.events())
}

/// Parse and fold a JSON-lines journal (with schema header) into a
/// [`RunReport`] that names the schema the journal declares.
pub fn analyze_journal(journal: &str) -> Result<RunReport, JournalError> {
    let (schema, events) = parse_journal_with_schema(journal)?;
    Ok(RunReport {
        schema: schema.to_string(),
        ..analyze_events(&events)
    })
}

/// The fold itself: one pass over events, then derived quantities.
pub fn analyze_events(events: &[Event]) -> RunReport {
    // Per-worker accumulation from actual job spans.
    struct Acc {
        is_gpu: bool,
        tasks: usize,
        busy_wall: f64,
        busy_modelled: f64,
        cells: f64,
        queue_wait_wall: f64,
        queue_wait_modelled: f64,
    }
    let mut workers: BTreeMap<usize, Acc> = BTreeMap::new();
    fn acc(workers: &mut BTreeMap<usize, Acc>, w: usize) -> &mut Acc {
        workers.entry(w).or_insert(Acc {
            is_gpu: false,
            tasks: 0,
            busy_wall: 0.0,
            busy_modelled: 0.0,
            cells: 0.0,
            queue_wait_wall: 0.0,
            queue_wait_modelled: 0.0,
        })
    }

    let mut wall_durations: Vec<f64> = Vec::new();
    let mut modelled_durations: Vec<f64> = Vec::new();
    let mut wall_lo = f64::INFINITY;
    let mut wall_hi = f64::NEG_INFINITY;
    let mut modelled_makespan = 0.0f64;
    let mut critical: Option<(f64, i64, i64)> = None; // (end, task, worker)
    let mut planned_makespan = 0.0f64;
    // task → (planned completion, actual completion) on the modelled clock
    let mut planned_end: BTreeMap<i64, f64> = BTreeMap::new();
    let mut actual_end: BTreeMap<i64, f64> = BTreeMap::new();
    // task → planned species (true = GPU)
    let mut planned_on_gpu: BTreeMap<i64, bool> = BTreeMap::new();
    let mut model: BTreeMap<i64, (f64, f64)> = BTreeMap::new(); // task → (p_cpu, p_gpu)
    let mut registered_gpu: BTreeMap<usize, bool> = BTreeMap::new();
    let mut device_classes: BTreeMap<usize, String> = BTreeMap::new();
    let mut moved: Vec<i64> = Vec::new();
    let mut faults: BTreeMap<String, usize> = BTreeMap::new();
    let mut alerts: BTreeMap<String, usize> = BTreeMap::new();
    let mut done_tasks: Vec<i64> = Vec::new();
    let mut lambda = 0.0f64;
    let mut lower_bound = 0.0f64;
    let mut iterations = 0usize;
    let mut has_bound = false;

    for event in events {
        match event.track {
            // Profiling phase spans subdivide a job span that is itself
            // in the journal; counting them again would inflate busy
            // time and the latency quantiles.
            Track::Worker(w) if event.is_job() => {
                let a = acc(&mut workers, w);
                a.tasks += 1;
                a.busy_wall += event.wall_dur;
                a.cells += event.arg("cells").unwrap_or(0.0);
                a.queue_wait_wall += event.arg("queue_wait_wall").unwrap_or(0.0);
                a.queue_wait_modelled += event.arg("queue_wait_modelled").unwrap_or(0.0);
                wall_durations.push(event.wall_dur);
                wall_lo = wall_lo.min(event.wall_start);
                wall_hi = wall_hi.max(event.wall_start + event.wall_dur);
                let task = event.task().unwrap_or(-1);
                done_tasks.push(task);
                if let (Some(vs), Some(vd)) = (event.virt_start, event.virt_dur) {
                    let a = acc(&mut workers, w);
                    a.busy_modelled += vd;
                    modelled_durations.push(vd);
                    let end = vs + vd;
                    actual_end
                        .entry(task)
                        .and_modify(|e| *e = e.max(end))
                        .or_insert(end);
                    modelled_makespan = modelled_makespan.max(end);
                    if critical.map(|(e, ..)| end > e).unwrap_or(true) {
                        critical = Some((end, task, w as i64));
                    }
                }
            }
            Track::Planned(w) => {
                if let (Some(vs), Some(vd)) = (event.virt_start, event.virt_dur) {
                    let end = vs + vd;
                    planned_makespan = planned_makespan.max(end);
                    let task = event.task().unwrap_or(-1);
                    planned_end
                        .entry(task)
                        .and_modify(|e| *e = e.max(end))
                        .or_insert(end);
                    if let Some(&gpu) = registered_gpu.get(&w) {
                        planned_on_gpu.insert(task, gpu);
                    }
                }
            }
            Track::Recovered(_) => {
                moved.push(event.task().unwrap_or(-1));
            }
            Track::Faults => {
                if let Some(kind) = event.name.strip_prefix("alert_") {
                    *alerts.entry(kind.replace('_', "-")).or_insert(0) += 1;
                } else {
                    *faults.entry(event.name.clone()).or_insert(0) += 1;
                }
            }
            Track::Scheduler => {
                if let Some(l) = event.lambda() {
                    has_bound = true;
                    lambda = l;
                    lower_bound = event.arg("lower_bound").unwrap_or(0.0);
                    iterations = event.arg("iterations").unwrap_or(0.0) as usize;
                }
            }
            Track::Master => {
                if let Some((w, gpu)) = event.registration() {
                    registered_gpu.insert(w, gpu);
                } else if let (Some(class), Some(w)) = (event.device_class(), event.arg("worker")) {
                    device_classes.insert(w as usize, class.to_string());
                } else if event.name == "task_model" {
                    if let Some(t) = event.arg("task") {
                        model.insert(
                            t as i64,
                            (
                                event.arg("p_cpu").unwrap_or(0.0),
                                event.arg("p_gpu").unwrap_or(0.0),
                            ),
                        );
                    }
                }
            }
            _ => {}
        }
    }

    // Registration marks workers (and their species) even when they
    // never ran a job — they still count toward balance.
    for (&w, &gpu) in &registered_gpu {
        acc(&mut workers, w).is_gpu = gpu;
    }

    let wall_makespan = if wall_hi > wall_lo {
        wall_hi - wall_lo
    } else {
        0.0
    };
    let two_lambda_bound = 2.0 * lambda;
    let bound_holds = has_bound && modelled_makespan <= two_lambda_bound * (1.0 + 1e-9) + 1e-12;

    let n_workers = workers.len().max(1);
    let mean_busy = workers.values().map(|a| a.busy_modelled).sum::<f64>() / n_workers as f64;
    let max_busy = workers
        .values()
        .map(|a| a.busy_modelled)
        .fold(0.0, f64::max);
    let load_imbalance = if mean_busy > 0.0 {
        max_busy / mean_busy
    } else {
        1.0
    };

    let worker_audits: Vec<WorkerAudit> = workers
        .iter()
        .map(|(&worker, a)| WorkerAudit {
            worker,
            is_gpu: a.is_gpu,
            device_class: device_classes.get(&worker).cloned().unwrap_or_default(),
            tasks: a.tasks,
            busy_wall: a.busy_wall,
            busy_modelled: a.busy_modelled,
            utilization_wall: if wall_makespan > 0.0 {
                a.busy_wall / wall_makespan
            } else {
                0.0
            },
            utilization_modelled: if modelled_makespan > 0.0 {
                a.busy_modelled / modelled_makespan
            } else {
                0.0
            },
            mcups: if a.busy_wall > 0.0 {
                a.cells / a.busy_wall / 1e6
            } else {
                0.0
            },
            queue_wait_wall: a.queue_wait_wall,
            queue_wait_modelled: a.queue_wait_modelled,
        })
        .collect();

    // Skew: tasks with both a planned and an actual completion.
    let mut abs_skews: Vec<(f64, i64)> = Vec::new();
    for (task, planned) in &planned_end {
        if let Some(actual) = actual_end.get(task) {
            abs_skews.push(((actual - planned).abs(), *task));
        }
    }
    let skew = if abs_skews.is_empty() {
        SkewStats::default()
    } else {
        let (max_abs, max_task) =
            abs_skews.iter().cloned().fold(
                (0.0, -1),
                |best, (s, t)| if s > best.0 { (s, t) } else { best },
            );
        SkewStats {
            tasks_compared: abs_skews.len(),
            mean_abs: abs_skews.iter().map(|(s, _)| s).sum::<f64>() / abs_skews.len() as f64,
            max_abs,
            max_task,
        }
    };

    // Acceleration-ratio ordering: every planned (GPU task, CPU task)
    // pair should have ratio(gpu) ≥ ratio(cpu).
    let ratio = |t: i64| -> Option<f64> {
        let (p_cpu, p_gpu) = model.get(&t)?;
        if *p_gpu > 0.0 {
            Some(p_cpu / p_gpu)
        } else {
            None
        }
    };
    let gpu_ratios: Vec<f64> = planned_on_gpu
        .iter()
        .filter(|(_, gpu)| **gpu)
        .filter_map(|(t, _)| ratio(*t))
        .collect();
    let cpu_ratios: Vec<f64> = planned_on_gpu
        .iter()
        .filter(|(_, gpu)| !**gpu)
        .filter_map(|(t, _)| ratio(*t))
        .collect();
    let pairs = gpu_ratios.len() * cpu_ratios.len();
    let gpu_ordering_quality = if pairs == 0 {
        1.0
    } else {
        let good: usize = gpu_ratios
            .iter()
            .map(|g| cpu_ratios.iter().filter(|c| *g >= **c).count())
            .sum();
        good as f64 / pairs as f64
    };

    done_tasks.sort_unstable();
    done_tasks.dedup();
    moved.sort_unstable();
    moved.dedup();

    RunReport {
        schema: JOURNAL_SCHEMA.to_string(),
        tasks: done_tasks.len(),
        workers: worker_audits,
        wall_makespan,
        modelled_makespan,
        planned_makespan,
        lambda,
        lower_bound,
        two_lambda_bound,
        has_bound,
        bound_holds,
        bound_margin: two_lambda_bound - modelled_makespan,
        binsearch_iterations: iterations,
        load_imbalance,
        critical_task: critical.map(|(_, t, _)| t).unwrap_or(-1),
        critical_worker: critical.map(|(_, _, w)| w).unwrap_or(-1),
        wall_latency: LatencyStats::from_durations(wall_durations),
        modelled_latency: LatencyStats::from_durations(modelled_durations),
        skew,
        gpu_ordering_quality,
        moved_tasks: moved.len(),
        reopt_replans: faults.get("reopt_replan").copied().unwrap_or(0),
        faults: faults
            .into_iter()
            .map(|(name, count)| FaultCount { name, count })
            .collect(),
        alerts: alerts
            .into_iter()
            .map(|(name, count)| FaultCount { name, count })
            .collect(),
    }
}

impl RunReport {
    /// Pretty-printed JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialises")
    }

    /// Human-readable rendering for terminals.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(format!("run report ({})", self.schema));
        line(format!(
            "  tasks completed        {} on {} workers",
            self.tasks,
            self.workers.len()
        ));
        line(format!(
            "  makespan               {:.6} s wall · {:.6} s modelled · {:.6} s planned",
            self.wall_makespan, self.modelled_makespan, self.planned_makespan
        ));
        if self.has_bound {
            line(format!(
                "  dual approximation     λ = {:.6} s · 2λ bound = {:.6} s · lower bound = {:.6} s",
                self.lambda, self.two_lambda_bound, self.lower_bound
            ));
            line(format!(
                "  2λ guarantee           {} (margin {:.6} s, {} binary-search iterations)",
                if self.bound_holds {
                    "HOLDS"
                } else {
                    "VIOLATED"
                },
                self.bound_margin,
                self.binsearch_iterations
            ));
        } else {
            line("  dual approximation     no λ in journal (self-scheduling run?)".to_string());
        }
        line(format!(
            "  load imbalance         {:.3}× (max/mean modelled busy)",
            self.load_imbalance
        ));
        if self.critical_task >= 0 {
            line(format!(
                "  critical path          task {} on worker {}",
                self.critical_task, self.critical_worker
            ));
        }
        line(format!(
            "  job latency (wall)     p50 {:.6} s · p95 {:.6} s · p99 {:.6} s · max {:.6} s",
            self.wall_latency.p50,
            self.wall_latency.p95,
            self.wall_latency.p99,
            self.wall_latency.max
        ));
        line(format!(
            "  job latency (modelled) p50 {:.6} s · p95 {:.6} s · p99 {:.6} s · max {:.6} s",
            self.modelled_latency.p50,
            self.modelled_latency.p95,
            self.modelled_latency.p99,
            self.modelled_latency.max
        ));
        if self.skew.tasks_compared > 0 {
            line(format!(
                "  plan-vs-actual skew    mean |Δ| {:.6} s · max |Δ| {:.6} s (task {})",
                self.skew.mean_abs, self.skew.max_abs, self.skew.max_task
            ));
        }
        line(format!(
            "  GPU ordering quality   {:.1}% of (gpu, cpu) pairs respect the acceleration ratio",
            100.0 * self.gpu_ordering_quality
        ));
        if self.reopt_replans > 0 {
            line(format!(
                "  re-optimization        {} re-plan round(s) on observed ratios",
                self.reopt_replans
            ));
        }
        if !self.alerts.is_empty() {
            let alert_list = self
                .alerts
                .iter()
                .map(|a| format!("{}×{}", a.count, a.name))
                .collect::<Vec<_>>()
                .join(", ");
            line(format!("  watchdog alerts        {alert_list}"));
        }
        if self.moved_tasks > 0 || !self.faults.is_empty() {
            let fault_list = self
                .faults
                .iter()
                .map(|f| format!("{}×{}", f.count, f.name))
                .collect::<Vec<_>>()
                .join(", ");
            line(format!(
                "  fault recovery         {} task(s) re-planned · events: {}",
                self.moved_tasks,
                if fault_list.is_empty() {
                    "none".to_string()
                } else {
                    fault_list
                }
            ));
        }
        line("  workers:".to_string());
        for w in &self.workers {
            let species = if w.device_class.is_empty() {
                if w.is_gpu { "gpu" } else { "cpu" }.to_string()
            } else if w.is_gpu {
                format!("gpu[{}]", w.device_class)
            } else {
                w.device_class.clone()
            };
            let queue = if w.queue_wait_wall > 0.0 || w.queue_wait_modelled > 0.0 {
                format!(
                    " · queued {:.6} s wall / {:.6} s modelled",
                    w.queue_wait_wall, w.queue_wait_modelled
                )
            } else {
                String::new()
            };
            line(format!(
                "    {:>3} {}  {:>4} tasks · busy {:.6} s wall ({:.1}%) · {:.6} s modelled ({:.1}%) · {:.1} MCUPS{}",
                w.worker,
                species,
                w.tasks,
                w.busy_wall,
                100.0 * w.utilization_wall,
                w.busy_modelled,
                100.0 * w.utilization_modelled,
                w.mcups,
                queue
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built run: 2 workers (0 = CPU, 1 = GPU), 3 tasks, a plan
    /// and a λ.
    fn sample_obs() -> Obs {
        let obs = Obs::enabled();
        obs.instant(
            Track::Master,
            "worker_registered",
            &[("worker", 0.0), ("is_gpu", 0.0)],
        );
        obs.instant(
            Track::Master,
            "worker_registered",
            &[("worker", 1.0), ("is_gpu", 1.0)],
        );
        for (t, p_cpu, p_gpu) in [(0, 8.0, 2.0), (1, 6.0, 2.0), (2, 3.0, 2.5)] {
            obs.instant(
                Track::Master,
                "task_model",
                &[("task", t as f64), ("p_cpu", p_cpu), ("p_gpu", p_gpu)],
            );
        }
        obs.instant(
            Track::Scheduler,
            "binsearch_done",
            &[
                ("iterations", 12.0),
                ("lower_bound", 3.5),
                ("upper_bound", 4.0),
                ("makespan", 4.0),
                ("lambda", 4.0),
                ("two_lambda_bound", 8.0),
            ],
        );
        // Plan: tasks 0 and 1 on the GPU, task 2 on the CPU.
        obs.virtual_span(Track::Planned(1), "task-0", 0.0, 2.0, &[("task", 0.0)]);
        obs.virtual_span(Track::Planned(1), "task-1", 2.0, 2.0, &[("task", 1.0)]);
        obs.virtual_span(Track::Planned(0), "task-2", 0.0, 3.0, &[("task", 2.0)]);
        // Actual: GPU slightly late on task 1, CPU on plan.
        obs.span(
            Track::Worker(1),
            "task-0",
            0.1,
            0.2,
            Some((0.0, 2.0)),
            &[("task", 0.0), ("cells", 2.0e6)],
        );
        obs.span(
            Track::Worker(1),
            "task-1",
            0.3,
            0.3,
            Some((2.0, 2.5)),
            &[("task", 1.0), ("cells", 2.0e6)],
        );
        obs.span(
            Track::Worker(0),
            "task-2",
            0.1,
            0.4,
            Some((0.0, 3.0)),
            &[("task", 2.0), ("cells", 1.0e6)],
        );
        obs
    }

    #[test]
    fn device_classes_and_replans_are_reported() {
        let obs = sample_obs();
        obs.instant(Track::Master, "device_class:cpu", &[("worker", 0.0)]);
        obs.instant(Track::Master, "device_class:bioseal", &[("worker", 1.0)]);
        obs.instant(
            Track::Faults,
            "reopt_replan",
            &[("round", 1.0), ("remaining", 2.0), ("skew", 3.0)],
        );
        let r = analyze_obs(&obs);
        assert_eq!(r.workers[0].device_class, "cpu");
        assert_eq!(r.workers[1].device_class, "bioseal");
        assert_eq!(r.reopt_replans, 1);
        let text = r.to_text();
        assert!(text.contains("gpu[bioseal]"), "{text}");
        assert!(text.contains("re-optimization"), "{text}");
        // JSON carries the class for machine consumers.
        assert!(r.to_json().contains("\"device_class\": \"bioseal\""));
    }

    #[test]
    fn untagged_journals_keep_an_empty_device_class() {
        let r = analyze_obs(&sample_obs());
        assert!(r.workers.iter().all(|w| w.device_class.is_empty()));
        assert_eq!(r.reopt_replans, 0);
        let text = r.to_text();
        assert!(!text.contains("re-optimization"));
    }

    #[test]
    fn report_measures_the_sample_run() {
        let r = analyze_obs(&sample_obs());
        assert_eq!(r.tasks, 3);
        assert_eq!(r.workers.len(), 2);
        assert!((r.modelled_makespan - 4.5).abs() < 1e-12);
        assert!((r.planned_makespan - 4.0).abs() < 1e-12);
        // wall: earliest start 0.1, latest end 0.6
        assert!((r.wall_makespan - 0.5).abs() < 1e-12);
        assert!(r.has_bound);
        assert!((r.lambda - 4.0).abs() < 1e-12);
        assert!((r.two_lambda_bound - 8.0).abs() < 1e-12);
        assert!(r.bound_holds);
        assert!((r.bound_margin - 3.5).abs() < 1e-12);
        assert_eq!(r.binsearch_iterations, 12);
        assert_eq!(r.critical_task, 1);
        assert_eq!(r.critical_worker, 1);
        // GPU busy 4.5, CPU busy 3.0 → imbalance 4.5/3.75
        assert!((r.load_imbalance - 4.5 / 3.75).abs() < 1e-12);
        // Skew: task 1 finished 0.5 late, others on time.
        assert_eq!(r.skew.tasks_compared, 3);
        assert!((r.skew.max_abs - 0.5).abs() < 1e-12);
        assert_eq!(r.skew.max_task, 1);
        // GPU tasks have ratios 4.0 and 3.0; CPU task 1.2 → all pairs good.
        assert!((r.gpu_ordering_quality - 1.0).abs() < 1e-12);
        assert_eq!(r.moved_tasks, 0);
        assert!(r.faults.is_empty());
        // Worker audit sanity.
        let gpu = r.workers.iter().find(|w| w.worker == 1).unwrap();
        assert!(gpu.is_gpu);
        assert_eq!(gpu.tasks, 2);
        assert!((gpu.busy_modelled - 4.5).abs() < 1e-12);
        assert!((gpu.utilization_modelled - 1.0).abs() < 1e-12);
        assert!((gpu.mcups - 4.0e6 / 0.5 / 1e6).abs() < 1e-9);
    }

    #[test]
    fn journal_round_trip_equals_direct_analysis() {
        let obs = sample_obs();
        let journal = crate::export::journal_jsonl(&obs);
        let direct = analyze_obs(&obs);
        let parsed = analyze_journal(&journal).expect("journal analyzes");
        assert_eq!(parsed.to_json(), direct.to_json());
    }

    #[test]
    fn ordering_quality_flags_inverted_placements() {
        let obs = Obs::enabled();
        obs.instant(
            Track::Master,
            "worker_registered",
            &[("worker", 0.0), ("is_gpu", 0.0)],
        );
        obs.instant(
            Track::Master,
            "worker_registered",
            &[("worker", 1.0), ("is_gpu", 1.0)],
        );
        // Task 0 barely accelerated, task 1 strongly accelerated —
        // but the plan puts 0 on the GPU and 1 on the CPU.
        obs.instant(
            Track::Master,
            "task_model",
            &[("task", 0.0), ("p_cpu", 2.0), ("p_gpu", 1.9)],
        );
        obs.instant(
            Track::Master,
            "task_model",
            &[("task", 1.0), ("p_cpu", 10.0), ("p_gpu", 1.0)],
        );
        obs.virtual_span(Track::Planned(1), "task-0", 0.0, 1.9, &[("task", 0.0)]);
        obs.virtual_span(Track::Planned(0), "task-1", 0.0, 10.0, &[("task", 1.0)]);
        let r = analyze_obs(&obs);
        assert_eq!(r.gpu_ordering_quality, 0.0);
    }

    #[test]
    fn missing_header_is_rejected() {
        let obs = sample_obs();
        let journal = crate::export::journal_jsonl(&obs);
        let headerless: String = journal.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(
            analyze_journal(&headerless).unwrap_err(),
            JournalError::MissingHeader
        );
        assert_eq!(analyze_journal("").unwrap_err(), JournalError::EmptyJournal);
    }

    #[test]
    fn wrong_schema_is_rejected_with_its_name() {
        let journal = "{\"schema\":\"swdual-journal/99\",\"events\":0}\n";
        match analyze_journal(journal).unwrap_err() {
            JournalError::SchemaMismatch { found, expected } => {
                assert_eq!(found, "swdual-journal/99");
                assert!(expected.contains(JOURNAL_SCHEMA), "{expected}");
                assert!(expected.contains("swdual-journal/1"), "{expected}");
            }
            other => panic!("expected schema mismatch, got {other:?}"),
        }
    }

    #[test]
    fn malformed_line_reports_its_number() {
        let journal = format!("{{\"schema\":\"{JOURNAL_SCHEMA}\",\"events\":1}}\nnot json\n");
        match analyze_journal(&journal).unwrap_err() {
            JournalError::Malformed { line, .. } => assert_eq!(line, 2),
            other => panic!("expected malformed, got {other:?}"),
        }
    }

    #[test]
    fn fault_and_recovery_events_are_counted() {
        let obs = Obs::enabled();
        obs.instant(Track::Faults, "worker_death", &[("worker", 1.0)]);
        obs.instant(Track::Faults, "task_redispatch", &[("task", 2.0)]);
        obs.instant(Track::Faults, "task_redispatch", &[("task", 3.0)]);
        obs.virtual_span(Track::Recovered(0), "task-2", 0.0, 1.0, &[("task", 2.0)]);
        obs.virtual_span(Track::Recovered(0), "task-3", 1.0, 1.0, &[("task", 3.0)]);
        let r = analyze_obs(&obs);
        assert_eq!(r.moved_tasks, 2);
        let deaths = r.faults.iter().find(|f| f.name == "worker_death").unwrap();
        assert_eq!(deaths.count, 1);
        let redispatch = r
            .faults
            .iter()
            .find(|f| f.name == "task_redispatch")
            .unwrap();
        assert_eq!(redispatch.count, 2);
    }

    #[test]
    fn alert_instants_are_counted_apart_from_faults() {
        let obs = crate::Obs::enabled();
        obs.instant(Track::Faults, "worker_death", &[("worker", 0.0)]);
        obs.instant(
            Track::Faults,
            "alert_straggler",
            &[("worker", 1.0), ("value", 3.0), ("threshold", 2.0)],
        );
        obs.instant(
            Track::Faults,
            "alert_straggler",
            &[("worker", 2.0), ("value", 2.2), ("threshold", 2.0)],
        );
        obs.instant(Track::Faults, "alert_bound_at_risk", &[("value", 1.9)]);
        let r = analyze_obs(&obs);
        // Alerts never pollute the fault counts…
        assert_eq!(r.faults.len(), 1);
        assert_eq!(r.faults[0].name, "worker_death");
        // …and surface under their own heading, kinds hyphenated.
        let straggler = r.alerts.iter().find(|a| a.name == "straggler").unwrap();
        assert_eq!(straggler.count, 2);
        assert!(r.alerts.iter().any(|a| a.name == "bound-at-risk"));
        let text = r.to_text();
        assert!(text.contains("watchdog alerts"), "{text}");
        assert!(text.contains("2×straggler"), "{text}");
        assert!(text.contains("1×bound-at-risk"), "{text}");
        // JSON report carries the alerts field.
        let json = r.to_json();
        assert!(json.contains("\"alerts\""), "{json}");
    }

    #[test]
    fn empty_run_yields_a_quiet_report() {
        let r = analyze_events(&[]);
        assert_eq!(r.tasks, 0);
        assert_eq!(r.critical_task, -1);
        assert!(!r.has_bound);
        assert!(!r.bound_holds);
        assert_eq!(r.wall_latency.count, 0);
        assert_eq!(r.load_imbalance, 1.0);
        // Both renderings still work.
        assert!(r.to_json().contains("\"tasks\""));
        assert!(r.to_text().contains("run report"));
    }

    #[test]
    fn header_only_journal_renders_without_nan_or_inf() {
        // A run that recorded nothing but the schema header (e.g. obs
        // enabled, zero tasks completed before a crash) must analyze
        // to a quiet report, not NaN-ridden text.
        let journal = format!("{{\"schema\":\"{JOURNAL_SCHEMA}\",\"events\":0}}\n");
        let r = analyze_journal(&journal).expect("header-only journal analyzes");
        assert_eq!(r.tasks, 0);
        assert_eq!(r.workers.len(), 0);
        assert_eq!(r.load_imbalance, 1.0);
        let text = r.to_text();
        assert!(
            !text.contains("NaN") && !text.contains("inf"),
            "text rendering leaked a non-finite number:\n{text}"
        );
        let json = r.to_json();
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }

    #[test]
    fn zero_completed_tasks_with_registered_workers_stays_finite() {
        // Workers registered but died before completing anything:
        // utilization and MCUPS divide by zero-ish quantities.
        let obs = Obs::enabled();
        for w in 0..2 {
            obs.instant(
                Track::Master,
                "worker_registered",
                &[("worker", w as f64), ("is_gpu", 0.0)],
            );
        }
        let r = analyze_obs(&obs);
        assert_eq!(r.workers.len(), 2);
        for w in &r.workers {
            assert!(w.utilization_wall.is_finite());
            assert!(w.utilization_modelled.is_finite());
            assert!(w.mcups.is_finite());
        }
        let text = r.to_text();
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
    }

    #[test]
    fn profiling_detail_spans_do_not_double_count_busy_time() {
        let obs = Obs::enabled();
        obs.span(
            Track::Worker(0),
            "task-0",
            0.0,
            1.0,
            Some((0.0, 2.0)),
            &[("task", 0.0)],
        );
        obs.span(
            Track::Worker(0),
            "phase_dp_inner",
            0.0,
            0.9,
            Some((0.0, 1.8)),
            &[("task", 0.0)],
        );
        let r = analyze_obs(&obs);
        let w = &r.workers[0];
        assert_eq!(w.tasks, 1, "phase span must not count as a job");
        assert!((w.busy_wall - 1.0).abs() < 1e-12);
        assert!((w.busy_modelled - 2.0).abs() < 1e-12);
        assert_eq!(r.wall_latency.count, 1);
    }

    #[test]
    fn v1_journals_are_reported_under_their_own_schema() {
        let journal = format!(
            "{{\"schema\":\"{}\",\"events\":2}}\n\
             {{\"track\":\"scheduler\",\"name\":\"binsearch_done\",\"kind\":\"instant\",\
             \"wall_start\":0.0,\"args\":{{\"upper_bound\":3.0}}}}\n\
             {{\"track\":\"worker:0\",\"name\":\"task-4\",\"kind\":\"span\",\
             \"wall_start\":0.0,\"wall_dur\":1.0,\"virt_start\":0.0,\"virt_dur\":2.0}}\n",
            crate::journal::JOURNAL_SCHEMA_V1
        );
        let r = analyze_journal(&journal).expect("v1 journals parse");
        assert_eq!(r.schema, "swdual-journal/1");
        assert!(r.to_json().contains("\"schema\": \"swdual-journal/1\""));
        assert!(r.to_text().contains("run report (swdual-journal/1)"));
        // λ falls back to `upper_bound`; the job's task comes from its name.
        assert_eq!(r.lambda, 3.0);
        assert!(r.bound_holds);
        assert_eq!(r.critical_task, 4);
    }

    #[test]
    fn non_finite_journal_numbers_are_dropped() {
        let journal = format!(
            "{{\"schema\":\"{JOURNAL_SCHEMA}\",\"events\":1}}\n\
             {{\"track\":\"worker:0\",\"name\":\"task-0\",\"kind\":\"span\",\
             \"wall_start\":0.0,\"wall_dur\":1e999,\"virt_start\":0.0,\"virt_dur\":2.0}}\n"
        );
        if let Ok(r) = analyze_journal(&journal) {
            // 1e999 overflows to inf in the parser; it must not leak.
            let text = r.to_text();
            assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
        }
    }

    #[test]
    fn queue_wait_args_fold_into_worker_audits() {
        let obs = Obs::enabled();
        obs.span(
            Track::Worker(0),
            "task-0",
            0.2,
            1.0,
            Some((0.0, 2.0)),
            &[("task", 0.0), ("queue_wait_wall", 0.2)],
        );
        obs.span(
            Track::Worker(0),
            "task-1",
            1.5,
            1.0,
            Some((2.0, 2.0)),
            &[
                ("task", 1.0),
                ("queue_wait_wall", 0.3),
                ("queue_wait_modelled", 0.5),
            ],
        );
        let r = analyze_obs(&obs);
        let w = &r.workers[0];
        assert!((w.queue_wait_wall - 0.5).abs() < 1e-12);
        assert!((w.queue_wait_modelled - 0.5).abs() < 1e-12);
        assert!(r.to_text().contains("queued"), "{}", r.to_text());
        // Lineage-free journals keep the audit quiet.
        let quiet = analyze_obs(&sample_obs());
        assert!(quiet.workers.iter().all(|w| w.queue_wait_wall == 0.0));
        assert!(!quiet.to_text().contains("queued"));
    }

    #[test]
    fn tied_completions_pick_the_first_finisher_as_critical() {
        // Two tasks end at exactly the same modelled instant; the
        // strictly-greater comparison keeps the first one seen, so the
        // answer is deterministic under journal order.
        let obs = Obs::enabled();
        obs.span(
            Track::Worker(0),
            "task-0",
            0.0,
            1.0,
            Some((0.0, 3.0)),
            &[("task", 0.0)],
        );
        obs.span(
            Track::Worker(1),
            "task-1",
            0.0,
            1.0,
            Some((1.0, 2.0)),
            &[("task", 1.0)],
        );
        let r = analyze_obs(&obs);
        assert!((r.modelled_makespan - 3.0).abs() < 1e-12);
        assert_eq!(r.critical_task, 0);
        assert_eq!(r.critical_worker, 0);
    }

    #[test]
    fn zero_duration_spans_do_not_corrupt_the_report() {
        let obs = Obs::enabled();
        obs.span(
            Track::Worker(0),
            "task-0",
            0.5,
            0.0,
            Some((1.0, 0.0)),
            &[("task", 0.0)],
        );
        obs.span(
            Track::Worker(0),
            "task-1",
            0.5,
            0.2,
            Some((1.0, 0.5)),
            &[("task", 1.0)],
        );
        let r = analyze_obs(&obs);
        assert_eq!(r.tasks, 2);
        assert!((r.modelled_makespan - 1.5).abs() < 1e-12);
        // The zero-duration span still "completes" at 1.0 but must not
        // win the critical slot over the real finisher.
        assert_eq!(r.critical_task, 1);
        let text = r.to_text();
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
    }

    #[test]
    fn text_rendering_names_the_headline_numbers() {
        let text = analyze_obs(&sample_obs()).to_text();
        assert!(text.contains("2λ guarantee"));
        assert!(text.contains("HOLDS"));
        assert!(text.contains("critical path"));
        assert!(text.contains("p95"));
        assert!(text.contains("gpu"));
    }
}
