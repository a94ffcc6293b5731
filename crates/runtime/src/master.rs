//! The master: task generation, allocation, dispatch and result
//! merging (paper Figure 6, left column) — plus fault tolerance.
//!
//! Two parts. [`Master`] is the merge loop as a thread-free state
//! machine: built from the workers' registrations, it plans and
//! dispatches, then advances only through [`Master::on_completed`],
//! [`Master::on_failed`] and [`Master::on_tick`], each handed the
//! driver's clock. It sends jobs through an [`Outbox`], so tests can
//! replay any interleaving of results, deaths and deadlines without
//! threads or sleeps. [`try_run_search`] is the driver: it spawns the
//! worker threads, collects their registrations, implements the outbox
//! over crossbeam channels and feeds the master worker messages and
//! `recv_timeout` ticks until it finishes.
//!
//! The fault-tolerant merge loop guarantees [`try_run_search`] always
//! returns: every worker either answers, notifies its death, or blows a
//! deadline derived from its own declared rate model; orphaned tasks
//! are re-planned onto the survivors with the same dual-approximation
//! allocator that produced the original schedule; and a bounded retry
//! count converts pathological fault storms into a typed
//! [`SearchError`] instead of a hang.
//!
//! Faults never change results. Alignment scores are a pure function of
//! (query, database, scheme), so any completion path — the original
//! worker, a late straggler, a re-dispatched copy — produces the same
//! score vector; the master dedups by task id and keeps the first.

use crate::estimator::{job_deadline_seconds, WorkerRateModel, COLD_HOST_CELLS_PER_SEC};
use crate::faults::FaultPlan;
use crate::messages::{
    top_k_hits, FailureReason, Job, JobResult, QueryHits, Registration, WorkerFailure, WorkerMsg,
    WorkerStats,
};
use crate::worker::{WorkerContext, WorkerSpec};
use crossbeam::channel::{self, RecvTimeoutError};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use swdual_bio::seq::SequenceSet;
use swdual_bio::ScoringScheme;
use swdual_obs::metrics::Metrics;
use swdual_obs::{Obs, Track};
use swdual_sched::binsearch::{dual_approx_schedule_observed, BinarySearchConfig};
use swdual_sched::dual::KnapsackMethod;
use swdual_sched::remainder::{reschedule_remainder, reschedule_remainder_weighted, WorkerFactors};
use swdual_sched::schedule::{PeKind, Schedule};
use swdual_sched::{PlatformSpec, Task, TaskSet};

/// How the master allocates tasks to workers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AllocationPolicy {
    /// SWDUAL's one-round allocation: compute a static schedule with
    /// the dual-approximation algorithm, then send each worker its
    /// ordered task list upfront.
    DualApprox(KnapsackMethod),
    /// Dynamic self-scheduling: all workers drain one shared queue.
    SelfScheduling,
}

/// Online re-optimization knobs.
///
/// When enabled (static policies only), the master folds each
/// completion's observed modelled-time-per-estimate ratio into a
/// per-worker slowdown factor, species-relative: a worker is "slow"
/// compared to the fastest *same-species* worker with data, never
/// compared across species (GPU workers report kernel-only modelled
/// clocks that are incommensurable with CPU estimates). When any live
/// worker's factor has grown by at least `threshold` since the plan it
/// is executing was drawn, and at least `min_remaining` tasks are still
/// undispatched, the remaining work is re-planned on the re-calibrated
/// platform via the weighted remainder scheduler. Dispatch runs with a
/// window of one job in flight per worker, so "remaining" is genuinely
/// revocable. Deadlines (and their conservative 10-MCUPS floor) are
/// untouched by re-calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReoptConfig {
    /// Master switch; `false` reproduces the static one-round planner
    /// bit for bit.
    pub enabled: bool,
    /// Relative skew growth (≥ 1) that triggers a re-plan.
    pub threshold: f64,
    /// Minimum undispatched tasks worth re-planning.
    pub min_remaining: usize,
}

impl Default for ReoptConfig {
    fn default() -> Self {
        ReoptConfig {
            enabled: false,
            threshold: 1.5,
            min_remaining: 2,
        }
    }
}

impl ReoptConfig {
    /// Enabled with the default threshold and minimum.
    pub fn enabled() -> ReoptConfig {
        ReoptConfig {
            enabled: true,
            ..ReoptConfig::default()
        }
    }
}

/// Search configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Scoring parameters.
    pub scheme: ScoringScheme,
    /// Allocation policy.
    pub policy: AllocationPolicy,
    /// Hits kept per query.
    pub top_k: usize,
    /// Event recorder. Disabled by default: tracing then costs one
    /// branch per would-be event and nothing else. Pass a clone of an
    /// enabled [`Obs`] to capture master phases, scheduler decisions,
    /// per-job worker spans, device activity and fault events.
    pub obs: Obs,
    /// Injected faults (empty by default — every worker healthy).
    pub faults: FaultPlan,
    /// How long the master waits for registrations before proceeding
    /// with whoever answered. Healthy runs never pay this: the wait
    /// also ends as soon as every spawned worker has either registered
    /// or demonstrably died.
    pub registration_timeout: Duration,
    /// Floor of the per-worker job deadline. Detection of silent
    /// worker deaths can never be faster than this.
    pub min_job_timeout: Duration,
    /// Slack factor stretching the modelled-time-derived deadline (see
    /// [`crate::estimator::job_deadline_seconds`]).
    pub job_timeout_slack: f64,
    /// How many times one task may be re-dispatched before the search
    /// gives up with [`SearchError::RetriesExhausted`].
    pub max_task_retries: usize,
    /// Online re-optimization (adaptive re-planning) knobs.
    pub reopt: ReoptConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            scheme: ScoringScheme::protein_default(),
            policy: AllocationPolicy::DualApprox(KnapsackMethod::Greedy),
            top_k: 10,
            obs: Obs::disabled(),
            faults: FaultPlan::none(),
            registration_timeout: Duration::from_secs(5),
            min_job_timeout: Duration::from_secs(5),
            job_timeout_slack: 4.0,
            max_task_retries: 3,
            reopt: ReoptConfig::default(),
        }
    }
}

/// Why a search could not complete. Every variant is a *decision*, not
/// a hang: the master always reaches one of these or a full result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchError {
    /// No worker specs were supplied at all.
    NoWorkers,
    /// Workers were spawned but none registered within the deadline.
    NoWorkersRegistered,
    /// Every worker died before the task list was finished.
    AllWorkersDead {
        /// Tasks completed before the platform was lost.
        completed: usize,
        /// Total tasks in the search.
        total: usize,
    },
    /// One task was re-dispatched more than the configured bound.
    RetriesExhausted {
        /// The task that kept failing.
        task_id: usize,
        /// Dispatch attempts it consumed.
        retries: usize,
    },
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::NoWorkers => write!(f, "no workers supplied"),
            SearchError::NoWorkersRegistered => {
                write!(f, "no worker registered within the deadline")
            }
            SearchError::AllWorkersDead { completed, total } => write!(
                f,
                "all workers died with {completed}/{total} tasks complete"
            ),
            SearchError::RetriesExhausted { task_id, retries } => {
                write!(f, "task {task_id} failed after {retries} dispatch attempts")
            }
        }
    }
}

impl std::error::Error for SearchError {}

/// Everything a finished search reports.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Ranked hits per query, in query order.
    pub hits: Vec<QueryHits>,
    /// Per-worker accounting.
    pub worker_stats: Vec<WorkerStats>,
    /// Real elapsed seconds of the whole search.
    pub wall_seconds: f64,
    /// Modelled makespan: the latest modelled finish over workers —
    /// the quantity comparable to the paper's tables.
    pub modelled_makespan: f64,
    /// Total DP cells computed.
    pub total_cells: u64,
    /// The static schedule, when the policy produced one.
    pub schedule: Option<Schedule>,
}

impl SearchOutcome {
    /// Modelled aggregate throughput in GCUPS.
    pub fn modelled_gcups(&self) -> f64 {
        if self.modelled_makespan <= 0.0 {
            0.0
        } else {
            self.total_cells as f64 / self.modelled_makespan / 1e9
        }
    }

    /// Real aggregate throughput in GCUPS.
    pub fn wall_gcups(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.total_cells as f64 / self.wall_seconds / 1e9
        }
    }
}

/// Penalty factor applied to the present species' time to stand in for
/// an absent species. Large enough that the knapsack never prefers the
/// absent side, small enough that sums over any realistic task count
/// stay finite — unlike the previous `f64::MAX / 4.0` sentinel, whose
/// area sums overflowed to infinity and poisoned the scheduler's
/// lower-bound and ratio-to-lower-bound diagnostics on single-species
/// platforms.
const ABSENT_SPECIES_PENALTY: f64 = 1.0e6;

// `reason` argument values on `worker_death` fault events.
const DEATH_CRASH: f64 = 0.0;
const DEATH_DEVICE: f64 = 1.0;
const DEATH_TIMEOUT: f64 = 2.0;
const DEATH_DISPATCH: f64 = 3.0;

// Note on deadlines: modelled estimates describe the *paper's*
// hardware; until the first completion calibrates this host, a deadline
// derived from them alone can be arbitrarily wrong (a debug build chews
// through a 5000-residue query orders of magnitude slower than the
// modelled Tesla). Deadlines therefore never fire before the time a
// 10-MCUPS host would need for the worker's largest pending task (the
// [`COLD_HOST_CELLS_PER_SEC`] prior from `crate::estimator`) —
// conservative enough that no real host, optimised or not, is
// misdeclared dead, while tiny test workloads still detect silent
// deaths within the configured floor.

/// Largest per-worker slowdown factor re-optimization will believe.
/// Bounds both the re-planned load skew and (via the threshold-growth
/// trigger) the number of re-plans a pathological worker can cause.
const MAX_REOPT_FACTOR: f64 = 32.0;

/// Deadline of a worker with nothing in flight.
const NEVER: Duration = Duration::MAX;

/// Build the scheduler instance from the rate models the workers
/// declared at registration.
fn build_tasks(
    query_lens: &[usize],
    db_residues: u64,
    cpu_model: Option<WorkerRateModel>,
    gpu_model: Option<WorkerRateModel>,
) -> TaskSet {
    TaskSet::new(
        query_lens
            .iter()
            .enumerate()
            .map(|(id, &len)| {
                let cpu = cpu_model.map(|m| m.task_seconds(len, db_residues));
                let gpu = gpu_model.map(|m| m.task_seconds(len, db_residues));
                // With a species absent, derive a prohibitive but
                // finite time from the species that is present.
                let (p_cpu, p_gpu) = match (cpu, gpu) {
                    (Some(c), Some(g)) => (c, g),
                    (Some(c), None) => (c, c * ABSENT_SPECIES_PENALTY),
                    (None, Some(g)) => (g * ABSENT_SPECIES_PENALTY, g),
                    (None, None) => unreachable!("at least one worker species registers"),
                };
                Task::new(id, p_cpu, p_gpu)
            })
            .collect(),
    )
}

/// Journal a master phase (paper Figure 6's left column) that started
/// at obs wall time `t0` and ends now.
fn phase_span(obs: &Obs, name: &str, t0: f64, args: &[(&str, f64)]) {
    obs.span(Track::Master, name, t0, obs.now() - t0, None, args);
}

/// Where the [`Master`] sends jobs.
pub trait Outbox {
    /// Hand `job` to worker `to`, or to the self-scheduling shared
    /// queue when `to` is `None`. Returns `false` when the receiver is
    /// gone; the master then declares the worker dead on the spot, so
    /// its fault events keep their order in the journal.
    fn send(&mut self, to: Option<usize>, job: Job) -> bool;
}

/// The threaded driver's outbox: one job channel per worker under the
/// static policies, one shared channel under self-scheduling.
struct ChannelOutbox {
    private: Vec<Option<channel::Sender<Job>>>,
    shared: channel::Sender<Job>,
}

impl Outbox for ChannelOutbox {
    fn send(&mut self, to: Option<usize>, job: Job) -> bool {
        match to {
            Some(w) => self.private[w]
                .as_ref()
                .is_some_and(|tx| tx.send(job).is_ok()),
            None => self.shared.send(job).is_ok(),
        }
    }
}

/// The master's merge loop as a thread-free state machine.
///
/// [`Master::new`] allocates the tasks over the registered workers and
/// dispatches the first jobs. After that the master changes only in
/// [`Master::on_completed`], [`Master::on_failed`] and
/// [`Master::on_tick`], each given `now`, the driver's clock since the
/// search started; deadlines are instants on that clock. Static
/// policies keep a window of one job in flight per worker and hold the
/// rest in per-worker queues, so everything still queued can be
/// re-planned when a worker dies or re-optimization fires.
/// [`Master::finish`] closes the merge phase and returns the outcome.
pub struct Master<O> {
    out: O,
    obs: Obs,
    metrics: Metrics,
    tasks: TaskSet,
    query_lens: Vec<usize>,
    db_residues: u64,
    is_gpu: Vec<bool>,
    /// Self-scheduling: jobs go to the shared queue, the master does
    /// not know who holds which task.
    shared: bool,
    reopt: ReoptConfig,
    top_k: usize,
    max_retries: usize,
    /// Floor and slack of the silent-death deadline, in seconds.
    floor: f64,
    slack: f64,
    schedule: Option<Schedule>,
    alive: Vec<bool>,
    queue: Vec<VecDeque<usize>>,
    in_flight: Vec<Option<usize>>,
    done: Vec<bool>,
    retries: Vec<usize>,
    completed: usize,
    /// Causal lineage: the global dispatch sequence, the plan decision
    /// epoch (0 = initial schedule, bumped by every re-optimization
    /// round and fault re-plan), and the modelled time each worker has
    /// completed so far — its virtual clock at hand-off, which it echoes
    /// back on its execution span.
    seq: u64,
    decision: u64,
    virt_done: Vec<f64>,
    /// The driver's clock at the transition being processed.
    now: Duration,
    /// Last completion or failure (self-scheduling stall detection).
    last_activity: Duration,
    deadlines: Vec<Duration>,
    /// Last timeout journaled per worker as `worker_deadline`.
    published_deadline: Vec<f64>,
    /// Largest observed wall-seconds per estimated-modelled-second:
    /// converts modelled estimates into wall deadlines as the run
    /// calibrates itself.
    wall_ratio: f64,
    /// Slowest observed wall-seconds per alignment cell, seeded with the
    /// cold-host prior. Bounds every deadline from below: the
    /// modelled-estimate path can be badly miscalibrated, but "no host
    /// is slower than 10 MCUPS" always holds.
    secs_per_cell: f64,
    /// Per-worker maxima of the observed modelled-time/estimate ratio:
    /// the estimator's miscalibration on the deterministic modelled
    /// clock, which feeds re-optimization.
    obs_ratio: Vec<f64>,
    /// Slowdown factor each worker's *current plan* was drawn with
    /// (1.0 = the original uniform prior).
    planned_factor: Vec<f64>,
    reopt_rounds: usize,
    /// Top-k hits of each completed task.
    hits: Vec<Option<QueryHits>>,
    stats: Vec<WorkerStats>,
    error: Option<SearchError>,
    /// Obs wall time the merge phase started.
    t_merge: f64,
}

impl<O: Outbox> Master<O> {
    /// Allocate `query_lens.len()` tasks (one per query, each against a
    /// database of `db_residues`) over the workers that registered,
    /// from the rate models they declared, and dispatch the first jobs
    /// through `out`. `workers` lists every spawned worker, registered
    /// or not.
    pub fn new(
        workers: &[WorkerSpec],
        registrations: &[Registration],
        query_lens: Vec<usize>,
        db_residues: u64,
        config: &RuntimeConfig,
        out: O,
        now: Duration,
    ) -> Result<Master<O>, SearchError> {
        if registrations.is_empty() {
            return Err(SearchError::NoWorkersRegistered);
        }
        let obs = config.obs.clone();
        let n_workers = workers.len();
        let n_tasks = query_lens.len();
        let t_allocate = obs.now();
        let model = |gpu: bool| {
            registrations
                .iter()
                .find(|r| r.is_gpu == gpu)
                .map(|r| r.rate_model)
        };
        let tasks = build_tasks(&query_lens, db_residues, model(false), model(true));
        // Journal the rate-model estimates per task: the auditor
        // reconstructs acceleration ratios (p_cpu/p_gpu) from these to
        // judge the knapsack's GPU-side ordering.
        if obs.is_enabled() {
            for (t, &len) in tasks.iter().zip(&query_lens) {
                obs.instant(
                    Track::Master,
                    "task_model",
                    &[
                        ("task", t.id as f64),
                        ("p_cpu", t.p_cpu),
                        ("p_gpu", t.p_gpu),
                        ("query_len", len as f64),
                        ("cells", len as f64 * db_residues as f64),
                    ],
                );
            }
        }
        let mut m = Master {
            out,
            metrics: obs.metrics(),
            obs,
            tasks,
            query_lens,
            db_residues,
            is_gpu: workers.iter().map(WorkerSpec::is_gpu).collect(),
            shared: config.policy == AllocationPolicy::SelfScheduling,
            reopt: config.reopt,
            top_k: config.top_k,
            max_retries: config.max_task_retries,
            floor: config.min_job_timeout.as_secs_f64(),
            slack: config.job_timeout_slack,
            schedule: None,
            alive: (0..n_workers)
                .map(|w| registrations.iter().any(|r| r.worker_id == w))
                .collect(),
            queue: vec![VecDeque::new(); n_workers],
            in_flight: vec![None; n_workers],
            done: vec![false; n_tasks],
            retries: vec![0; n_tasks],
            completed: 0,
            seq: 0,
            decision: 0,
            virt_done: vec![0.0; n_workers],
            now,
            last_activity: now,
            deadlines: vec![NEVER; n_workers],
            published_deadline: vec![0.0; n_workers],
            wall_ratio: 0.0,
            secs_per_cell: 1.0 / COLD_HOST_CELLS_PER_SEC,
            obs_ratio: vec![0.0; n_workers],
            planned_factor: vec![1.0; n_workers],
            reopt_rounds: 0,
            hits: vec![None; n_tasks],
            stats: workers
                .iter()
                .enumerate()
                .map(|(worker_id, spec)| WorkerStats {
                    worker_id,
                    description: spec.description(),
                    ..WorkerStats::default()
                })
                .collect(),
            error: None,
            t_merge: 0.0,
        };

        let live = m.live();
        let schedule = match config.policy {
            AllocationPolicy::DualApprox(method) => Some(
                dual_approx_schedule_observed(
                    &m.tasks,
                    &PlatformSpec::new(live.0.len(), live.1.len()),
                    BinarySearchConfig {
                        method,
                        ..BinarySearchConfig::default()
                    },
                    &m.obs,
                )
                .schedule,
            ),
            AllocationPolicy::SelfScheduling => None,
        };
        phase_span(&m.obs, "allocate", t_allocate, &[("tasks", n_tasks as f64)]);

        // The planned schedule goes on its own modelled-clock tracks so
        // exports can overlay plan against actual.
        let t_dispatch = m.obs.now();
        let mut orphans = Vec::new();
        match &schedule {
            Some(plan) => orphans = m.place(plan, &live, Track::Planned, None),
            None => {
                if let Err(e) = m.share(0..n_tasks) {
                    m.error = Some(e);
                }
            }
        }
        m.schedule = schedule;
        phase_span(&m.obs, "dispatch", t_dispatch, &[("tasks", n_tasks as f64)]);
        m.t_merge = m.obs.now();
        m.refresh_deadlines();
        if m.error.is_none() && !orphans.is_empty() {
            m.recover(orphans);
        }
        Ok(m)
    }

    /// A worker reported a finished task. The first result per task is
    /// folded into its hits and the worker's stats; later copies (a
    /// straggler or a re-dispatched twin) are journaled and dropped.
    pub fn on_completed(&mut self, r: JobResult, now: Duration) {
        if self.is_finished() {
            return;
        }
        self.now = now;
        self.last_activity = now;
        let (w, t) = (r.worker_id, r.task_id);
        if self.in_flight[w] == Some(t) {
            self.in_flight[w] = None;
        }
        self.queue[w].retain(|&q| q != t);
        // The virtual timestamp the worker's *next* dispatch carries.
        self.virt_done[w] += r.modelled_seconds.max(0.0);
        // Calibrate against the *estimator's* modelled time — the
        // quantity deadlines are computed from. The worker-reported
        // modelled clock is a different animal (GPU workers report
        // kernel-only virtual seconds), but within one species the
        // relative spread of modelled/estimate ratios is exactly the
        // slowdown skew re-optimization acts on.
        let est = self.estimate(w, t);
        if est > 0.0 {
            self.wall_ratio = self.wall_ratio.max(r.wall_seconds / est);
            if r.modelled_seconds > 0.0 {
                self.obs_ratio[w] = self.obs_ratio[w].max(r.modelled_seconds / est);
            }
        }
        let cells = self.cells(t);
        if cells > 0.0 {
            self.secs_per_cell = self.secs_per_cell.max(r.wall_seconds / cells);
        }
        let first = !self.done[t];
        if first {
            self.done[t] = true;
            self.completed += 1;
            let left = (self.done.len() - self.completed) as f64;
            self.metrics.gauge("queue_depth", &[], left);
            self.metrics
                .gauge("tasks_completed", &[], self.completed as f64);
        } else {
            // Scores are identical by construction; keep the first.
            self.obs.instant(
                Track::Faults,
                "duplicate_result",
                &[("task", t as f64), ("worker", w as f64)],
            );
            self.obs.counter("duplicate_results", 1.0);
        }
        self.maybe_reoptimize();
        if self.error.is_none() && !self.shared {
            let stranded = self.feed(w);
            if !stranded.is_empty() {
                self.recover(stranded);
            }
        }
        if self.alive[w] {
            self.deadlines[w] = match self.in_flight[w] {
                Some(_) => now + self.timeout(w),
                None => NEVER,
            };
        }
        // Folded after the feed, so the worker never waits on it.
        if first {
            self.hits[t] = Some(top_k_hits(t, &r.scores, self.top_k));
            let s = &mut self.stats[w];
            s.tasks += 1;
            s.busy_wall += r.wall_seconds;
            s.busy_modelled += r.modelled_seconds;
            s.cells += r.cells;
        }
    }

    /// A worker announced its death: re-home whatever it held.
    pub fn on_failed(&mut self, f: WorkerFailure, now: Duration) {
        if self.is_finished() {
            return;
        }
        self.now = now;
        self.last_activity = now;
        if self.alive[f.worker_id] {
            let reason = match f.reason {
                FailureReason::Crash => DEATH_CRASH,
                FailureReason::DeviceFault { .. } => DEATH_DEVICE,
            };
            let mut orphans = self.kill(f.worker_id, reason);
            orphans.extend(f.in_flight);
            self.recover(orphans);
        }
    }

    /// Nothing arrived for a while: declare every worker whose deadline
    /// passed dead (static policies), or, under self-scheduling, re-queue
    /// everything not done once the whole platform has stalled.
    pub fn on_tick(&mut self, now: Duration) {
        if self.is_finished() {
            return;
        }
        self.now = now;
        if self.shared {
            // The master cannot know which worker holds which task;
            // duplicates of the re-queued tasks are deduped on merge.
            let undone: Vec<usize> = (0..self.done.len()).filter(|&t| !self.done[t]).collect();
            let (cpu, gpu) = self.live();
            let on = |live: &[usize], p: f64| if live.is_empty() { 0.0 } else { p };
            let est = undone
                .iter()
                .map(|&t| self.tasks.tasks()[t])
                .map(|task| on(&cpu, task.p_cpu).max(on(&gpu, task.p_gpu)))
                .fold(0.0, f64::max);
            let max_cells = undone.iter().map(|&t| self.cells(t)).fold(0.0, f64::max);
            if now.saturating_sub(self.last_activity) >= self.deadline(est, max_cells) {
                self.obs.instant(
                    Track::Faults,
                    "stall_redispatch",
                    &[("outstanding", undone.len() as f64)],
                );
                self.recover(undone);
                self.last_activity = now;
            }
        } else {
            for w in 0..self.alive.len() {
                if self.error.is_some() {
                    break;
                }
                if self.alive[w] && self.in_flight[w].is_some() && now >= self.deadlines[w] {
                    let orphans = self.kill(w, DEATH_TIMEOUT);
                    self.recover(orphans);
                }
            }
        }
    }

    /// Whether the search is over: every task completed, or an error.
    pub fn is_finished(&self) -> bool {
        self.error.is_some() || self.completed == self.done.len()
    }

    /// Whether the master still counts worker `w` alive.
    pub fn is_alive(&self, w: usize) -> bool {
        self.alive[w]
    }

    /// The task worker `w` is executing, as far as the master knows.
    pub fn in_flight(&self, w: usize) -> Option<usize> {
        self.in_flight[w]
    }

    /// Worker `w`'s master-held queue, head first.
    pub fn queue(&self, w: usize) -> &VecDeque<usize> {
        &self.queue[w]
    }

    /// Close the merge phase and return the outcome (its
    /// `wall_seconds` is left for the driver to fill in). Finishing
    /// before every task completed, with no error recorded, means the
    /// platform went away: [`SearchError::AllWorkersDead`].
    pub fn finish(self) -> Result<SearchOutcome, SearchError> {
        let results = self.completed as f64;
        phase_span(&self.obs, "merge", self.t_merge, &[("results", results)]);
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.completed < self.done.len() {
            return Err(self.all_dead());
        }
        let modelled_makespan = self
            .stats
            .iter()
            .map(|s| s.busy_modelled)
            .fold(0.0, f64::max);
        Ok(SearchOutcome {
            hits: self
                .hits
                .into_iter()
                .map(|h| h.expect("all merged"))
                .collect(),
            worker_stats: self.stats,
            wall_seconds: 0.0,
            modelled_makespan,
            total_cells: self
                .query_lens
                .iter()
                .map(|&len| len as u64 * self.db_residues)
                .sum(),
            schedule: self.schedule,
        })
    }

    fn all_dead(&self) -> SearchError {
        SearchError::AllWorkersDead {
            completed: self.completed,
            total: self.done.len(),
        }
    }

    /// Live CPU and live GPU worker ids, ascending: the processing
    /// elements of a plan drawn now, in plan order.
    fn live(&self) -> (Vec<usize>, Vec<usize>) {
        (0..self.alive.len())
            .filter(|&w| self.alive[w])
            .partition(|&w| !self.is_gpu[w])
    }

    /// Estimated modelled seconds of task `t` on worker `w`'s species.
    fn estimate(&self, w: usize, t: usize) -> f64 {
        let task = self.tasks.tasks()[t];
        if self.is_gpu[w] {
            task.p_gpu
        } else {
            task.p_cpu
        }
    }

    fn cells(&self, t: usize) -> f64 {
        self.query_lens
            .get(t)
            .map_or(0.0, |&len| len as f64 * self.db_residues as f64)
    }

    /// Silent-death timeout for `est` modelled seconds of work whose
    /// largest task has `max_cells` cells. Re-optimization never touches
    /// this: the cells floor at the cold-host prior holds whatever the
    /// re-calibrated planning factors say.
    fn deadline(&self, est: f64, max_cells: f64) -> Duration {
        Duration::from_secs_f64(
            job_deadline_seconds(est, self.wall_ratio, self.slack, self.floor)
                .max(self.slack * max_cells * self.secs_per_cell),
        )
    }

    /// Worker `w`'s timeout, priced on its whole obligation: the
    /// in-flight job plus its queue.
    fn timeout(&self, w: usize) -> Duration {
        let mut est = 0.0f64;
        let mut max_cells = 0.0f64;
        for t in self.in_flight[w]
            .into_iter()
            .chain(self.queue[w].iter().copied())
        {
            est = est.max(self.estimate(w, t));
            max_cells = max_cells.max(self.cells(t));
        }
        self.deadline(est, max_cells)
    }

    /// Re-arm every deadline. Deadlines move on every message — far too
    /// chatty to journal each — but the watchdog only needs the timeout
    /// *magnitude* to judge silent-death proximity, so a
    /// `worker_deadline` instant is published when a worker's timeout
    /// changes by more than 10%.
    fn refresh_deadlines(&mut self) {
        for w in 0..self.alive.len() {
            self.deadlines[w] = if self.alive[w] && self.in_flight[w].is_some() {
                let timeout = self.timeout(w);
                let secs = timeout.as_secs_f64();
                if (secs - self.published_deadline[w]).abs() > 0.1 * self.published_deadline[w] {
                    self.published_deadline[w] = secs;
                    self.obs.instant(
                        Track::Master,
                        "worker_deadline",
                        &[("worker", w as f64), ("timeout", secs)],
                    );
                }
                self.now + timeout
            } else {
                NEVER
            };
        }
    }

    /// Keep the window-1 dispatch invariant for worker `w`: while it is
    /// alive and idle, pop the head of its queue and send it (skipping
    /// tasks that completed elsewhere in the meantime). Everything still
    /// queued stays revocable by re-planning. Returns the worker's
    /// orphans when it turns out to be dead at send time.
    fn feed(&mut self, w: usize) -> Vec<usize> {
        while self.alive[w] && self.in_flight[w].is_none() {
            let Some(t) = self.queue[w].pop_front() else {
                break;
            };
            if self.done[t] {
                continue;
            }
            if !self.send(t, Some(w)) {
                self.queue[w].push_front(t);
                return self.kill(w, DEATH_DISPATCH);
            }
            self.in_flight[w] = Some(t);
        }
        Vec::new()
    }

    /// Stamp task `t`'s lineage onto a job and send it to worker `w` (or
    /// the shared queue, `w = None`). A sent job journals its
    /// `task_dispatch` causal edge — plan decision → dispatch, the parent
    /// link the explain module and the Chrome-trace flow arrows follow;
    /// `worker` is −1 for the shared queue. Returns `false` when the
    /// receiver is gone.
    fn send(&mut self, t: usize, w: Option<usize>) -> bool {
        let job = Job {
            task_id: t,
            query_index: t,
            dispatch_seq: self.seq,
            decision: self.decision,
            dispatch_wall: self.obs.now(),
            dispatch_virt: w.map_or(0.0, |w| self.virt_done[w]),
        };
        self.seq += 1;
        if !self.out.send(w, job) {
            return false;
        }
        self.obs.instant(
            Track::Master,
            "task_dispatch",
            &[
                ("task", t as f64),
                ("worker", w.map_or(-1.0, |w| w as f64)),
                ("seq", job.dispatch_seq as f64),
                ("decision", job.decision as f64),
                ("virt", job.dispatch_virt),
            ],
        );
        true
    }

    /// Send `tasks` to the self-scheduling shared queue.
    fn share(&mut self, tasks: impl IntoIterator<Item = usize>) -> Result<(), SearchError> {
        for t in tasks {
            if !self.send(t, None) {
                return Err(self.all_dead());
            }
        }
        Ok(())
    }

    /// Declare worker `w` dead for `reason` and return its orphans: the
    /// in-flight job and everything queued on it.
    fn kill(&mut self, w: usize, reason: f64) -> Vec<usize> {
        self.alive[w] = false;
        self.obs.instant(
            Track::Faults,
            "worker_death",
            &[("worker", w as f64), ("reason", reason)],
        );
        self.obs.counter("workers_lost", 1.0);
        self.in_flight[w]
            .take()
            .into_iter()
            .chain(self.queue[w].drain(..))
            .collect()
    }

    /// Queue `plan` (drawn over the `live` CPU and GPU ids) on its
    /// workers in planned start order, journal each placement on
    /// `track`, and start every idle worker on its queue. Returns the
    /// tasks of workers found dead at send time.
    fn place(
        &mut self,
        plan: &Schedule,
        live: &(Vec<usize>, Vec<usize>),
        track: fn(usize) -> Track,
        reopt_round: Option<usize>,
    ) -> Vec<usize> {
        let mut per: Vec<Vec<(f64, usize)>> = vec![Vec::new(); self.alive.len()];
        for p in &plan.placements {
            let w = match p.pe.kind {
                PeKind::Cpu => live.0[p.pe.index],
                PeKind::Gpu => live.1[p.pe.index],
            };
            if self.obs.is_enabled() {
                let task = ("task", p.task as f64);
                let decision = ("decision", self.decision as f64);
                let with_round;
                let args: &[(&str, f64)] = match reopt_round {
                    Some(r) => {
                        with_round = [task, ("reopt", r as f64), decision];
                        &with_round
                    }
                    None => &[task, decision],
                };
                self.obs.virtual_span(
                    track(w),
                    &format!("task-{}", p.task),
                    p.start,
                    p.end - p.start,
                    args,
                );
            }
            per[w].push((p.start, p.task));
        }
        let mut orphans = Vec::new();
        for (w, mut list) in per.into_iter().enumerate() {
            list.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            self.queue[w].extend(list.into_iter().map(|(_, t)| t));
            orphans.append(&mut self.feed(w));
        }
        orphans
    }

    /// Give orphaned tasks a new home, then re-arm the deadlines; an
    /// unrecoverable loss becomes the search's error.
    fn recover(&mut self, orphans: Vec<usize>) {
        match self.redispatch(orphans) {
            Ok(()) => self.refresh_deadlines(),
            Err(e) => self.error = Some(e),
        }
    }

    /// Static policies re-plan orphans with the dual approximation on
    /// the surviving platform (the recovery schedule shows up on
    /// [`Track::Recovered`] rows); self-scheduling pushes them back onto
    /// the shared queue. Survivors found dead while re-dispatching
    /// re-orphan their load into the next round, until everything is
    /// placed, the platform is empty, or a task blows its retry budget.
    fn redispatch(&mut self, mut to_place: Vec<usize>) -> Result<(), SearchError> {
        loop {
            to_place.retain(|&t| !self.done[t]);
            to_place.sort_unstable();
            to_place.dedup();
            if to_place.is_empty() {
                return Ok(());
            }
            for &t in &to_place {
                self.retries[t] += 1;
                if self.retries[t] > self.max_retries {
                    return Err(SearchError::RetriesExhausted {
                        task_id: t,
                        retries: self.retries[t],
                    });
                }
                self.obs.instant(
                    Track::Faults,
                    "task_redispatch",
                    &[("task", t as f64), ("retry", self.retries[t] as f64)],
                );
                self.obs.counter("tasks_redispatched", 1.0);
            }
            // Each re-plan is its own decision in the causal lineage.
            self.decision += 1;
            if self.shared {
                return self.share(to_place);
            }
            let live = self.live();
            if live.0.is_empty() && live.1.is_empty() {
                return Err(self.all_dead());
            }
            let platform = PlatformSpec::new(live.0.len(), live.1.len());
            let plan = reschedule_remainder(
                &self.tasks,
                &to_place,
                &platform,
                BinarySearchConfig::default(),
            );
            to_place = self.place(&plan, &live, Track::Recovered, None);
        }
    }

    /// Species-relative slowdown factors of `ids`: the baseline is the
    /// fastest same-species worker *with data*; workers without data
    /// keep the honest prior.
    fn factors(&self, ids: &[usize]) -> Vec<f64> {
        let baseline = ids
            .iter()
            .map(|&w| self.obs_ratio[w])
            .filter(|&r| r > 0.0)
            .fold(f64::INFINITY, f64::min);
        ids.iter()
            .map(|&w| {
                if self.obs_ratio[w] > 0.0 && baseline.is_finite() && baseline > 0.0 {
                    (self.obs_ratio[w] / baseline).clamp(1.0, MAX_REOPT_FACTOR)
                } else {
                    1.0
                }
            })
            .collect()
    }

    /// Online re-optimization: when some live worker's slowdown factor
    /// has grown past the threshold relative to the plan it is
    /// executing, pull every still-queued task back and re-plan them on
    /// the re-calibrated platform with the weighted remainder
    /// scheduler. In-flight jobs (one per worker) stay where they are.
    fn maybe_reoptimize(&mut self) {
        if !self.reopt.enabled || self.shared || self.error.is_some() {
            return;
        }
        let live = self.live();
        let cpu_f = self.factors(&live.0);
        let gpu_f = self.factors(&live.1);
        let skew = live
            .0
            .iter()
            .zip(&cpu_f)
            .chain(live.1.iter().zip(&gpu_f))
            .fold(1.0f64, |s, (&w, f)| s.max(f / self.planned_factor[w]));
        self.metrics.gauge("reopt_skew", &[], skew);
        let remaining: usize = self.queue.iter().map(VecDeque::len).sum();
        if skew < self.reopt.threshold || remaining < self.reopt.min_remaining {
            return;
        }
        let mut remainder: Vec<usize> = self.queue.iter_mut().flat_map(|q| q.drain(..)).collect();
        remainder.retain(|&t| !self.done[t]);
        if remainder.is_empty() {
            return;
        }
        self.reopt_rounds += 1;
        self.obs.instant(
            Track::Faults,
            "reopt_replan",
            &[
                ("round", self.reopt_rounds as f64),
                ("remaining", remainder.len() as f64),
                ("skew", skew),
            ],
        );
        self.obs.counter("reopt_replans", 1.0);
        self.metrics
            .gauge("reopt_rounds", &[], self.reopt_rounds as f64);
        self.decision += 1;
        let plan = reschedule_remainder_weighted(
            &self.tasks,
            &remainder,
            &WorkerFactors::new(cpu_f.clone(), gpu_f.clone()),
            BinarySearchConfig::default(),
        );
        for (&w, &f) in live.0.iter().zip(&cpu_f).chain(live.1.iter().zip(&gpu_f)) {
            self.planned_factor[w] = f;
        }
        let stranded = self.place(&plan, &live, Track::Recovered, Some(self.reopt_rounds));
        if !stranded.is_empty() {
            self.recover(stranded);
        }
        self.refresh_deadlines();
    }
}

/// Execute a full database search on the given workers, tolerating the
/// faults the run's [`FaultPlan`] injects (and, structurally, any
/// worker death or stall the deadlines catch): orphaned tasks are
/// re-planned on the survivors, results are deduplicated by task id,
/// and the search either completes with exactly the hits a fault-free
/// run produces or returns a typed [`SearchError`]. It cannot hang.
pub fn try_run_search(
    database: SequenceSet,
    queries: SequenceSet,
    workers: &[WorkerSpec],
    config: RuntimeConfig,
) -> Result<SearchOutcome, SearchError> {
    if workers.is_empty() {
        return Err(SearchError::NoWorkers);
    }
    let query_lens: Vec<usize> = queries.iter().map(|q| q.len()).collect();
    let db_residues = database.total_residues();
    let database = Arc::new(database);
    let queries = Arc::new(queries);
    let (reg_tx, reg_rx) = channel::unbounded::<Registration>();
    let (msg_tx, msg_rx) = channel::unbounded::<WorkerMsg>();
    let shared_queue = config.policy == AllocationPolicy::SelfScheduling;
    let (shared_tx, shared_rx) = channel::unbounded::<Job>();
    let obs = config.obs.clone();
    let start = Instant::now();

    let result = std::thread::scope(|scope| {
        // Phase 1 — spawn workers; each registers with the master
        // before waiting for jobs (paper Figure 6: "Register with
        // master" / "Register slaves").
        let t_register = obs.now();
        let mut private = Vec::with_capacity(workers.len());
        for (worker_id, spec) in workers.iter().enumerate() {
            let job_rx = if shared_queue {
                private.push(None);
                shared_rx.clone()
            } else {
                let (tx, rx) = channel::unbounded::<Job>();
                private.push(Some(tx));
                rx
            };
            let ctx = WorkerContext {
                worker_id,
                database: Arc::clone(&database),
                queries: Arc::clone(&queries),
                scheme: config.scheme.clone(),
                obs: obs.clone(),
                fault: config.faults.get(worker_id),
            };
            let spec = spec.clone();
            let msg_tx = msg_tx.clone();
            let reg_tx = reg_tx.clone();
            scope.spawn(move || {
                crate::worker::worker_loop_registered(spec, ctx, Some(reg_tx), job_rx, msg_tx)
            });
        }
        drop(reg_tx);
        drop(msg_tx);
        drop(shared_rx);

        // Phase 2 — collect registrations ("Register slaves") until
        // everyone answered, every hello sender is gone (each worker
        // either registered or died trying), or the deadline passed.
        let mut registrations: Vec<Registration> = Vec::new();
        let reg_deadline = Instant::now() + config.registration_timeout;
        while registrations.len() < workers.len() {
            match reg_rx.recv_deadline(reg_deadline) {
                Ok(r) => registrations.push(r),
                Err(_) => break, // deadline or disconnect
            }
        }
        registrations.sort_by_key(|r| r.worker_id);
        close_registration(workers, &registrations, &mut private, &obs, t_register);
        let metrics = obs.metrics();
        metrics.gauge("workers_alive", &[], registrations.len() as f64);
        metrics.gauge("tasks_total", &[], query_lens.len() as f64);
        metrics.gauge("queue_depth", &[], query_lens.len() as f64);

        // Phases 3–5 — allocate, dispatch, merge. Dropping the outbox
        // with the master shuts every job queue, so surviving worker
        // threads drain out and the scope join completes — on success
        // and error alike.
        let outbox = ChannelOutbox {
            private,
            shared: shared_tx,
        };
        let mut master = Master::new(
            workers,
            &registrations,
            query_lens,
            db_residues,
            &config,
            outbox,
            start.elapsed(),
        )?;
        let tick = (config.min_job_timeout / 8)
            .min(Duration::from_millis(25))
            .max(Duration::from_millis(1));
        while !master.is_finished() {
            match msg_rx.recv_timeout(tick) {
                Ok(WorkerMsg::Completed(r)) => master.on_completed(r, start.elapsed()),
                Ok(WorkerMsg::Failed(f)) => master.on_failed(f, start.elapsed()),
                Err(RecvTimeoutError::Timeout) => master.on_tick(start.elapsed()),
                // Every worker thread has exited with work outstanding.
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        master.finish()
    });
    let wall_seconds = start.elapsed().as_secs_f64();
    result.map(|outcome| SearchOutcome {
        wall_seconds,
        ..outcome
    })
}

/// Journal who registered as what, and close the job queue of every
/// worker that did not register so its thread — if it is somehow still
/// there — exits.
fn close_registration(
    workers: &[WorkerSpec],
    registrations: &[Registration],
    private: &mut [Option<channel::Sender<Job>>],
    obs: &Obs,
    t_register: f64,
) {
    for (w, tx) in private.iter_mut().enumerate() {
        if !registrations.iter().any(|r| r.worker_id == w) {
            *tx = None;
            obs.instant(
                Track::Faults,
                "worker_lost_registration",
                &[("worker", w as f64)],
            );
            obs.counter("workers_lost", 1.0);
        }
    }
    // The auditor attributes species (CPU/GPU) to worker tracks from
    // these.
    for r in registrations {
        obs.instant(
            Track::Master,
            "worker_registered",
            &[
                ("worker", r.worker_id as f64),
                ("is_gpu", if r.is_gpu { 1.0 } else { 0.0 }),
            ],
        );
    }
    // Event args are numeric, so each worker's device class rides in
    // the event name (`device_class:<name>`); the auditor parses it back
    // out without the obs crate ever depending on the device zoo types.
    if obs.is_enabled() {
        for r in registrations {
            let class = match workers[r.worker_id].device_class_of() {
                Some(c) => c.name(),
                None if r.is_gpu => "custom",
                None => "cpu",
            };
            obs.instant(
                Track::Master,
                &format!("device_class:{class}"),
                &[("worker", r.worker_id as f64)],
            );
        }
    }
    phase_span(
        obs,
        "register",
        t_register,
        &[
            ("workers", workers.len() as f64),
            ("registered", registrations.len() as f64),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::WorkerFault;
    use swdual_bio::seq::Sequence;
    use swdual_bio::Alphabet;

    fn db(n: usize, len: usize) -> SequenceSet {
        swdual_datagen_stub::database(n, len)
    }

    // Minimal local generator to avoid a dev-dependency cycle with
    // swdual-datagen (which this crate must not depend on).
    mod swdual_datagen_stub {
        use super::*;
        pub fn database(n: usize, len: usize) -> SequenceSet {
            let mut set = SequenceSet::new(Alphabet::Protein);
            let mut state = 0xDEAD_BEEFu64;
            for i in 0..n {
                let residues: Vec<u8> = (0..len)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 33) % 20) as u8
                    })
                    .collect();
                set.push(Sequence::from_codes(
                    format!("d{i}"),
                    Alphabet::Protein,
                    residues,
                ))
                .unwrap();
            }
            set
        }
    }

    fn queries_from(db: &SequenceSet, picks: &[usize]) -> SequenceSet {
        let mut set = SequenceSet::new(Alphabet::Protein);
        for (i, &p) in picks.iter().enumerate() {
            let mut s = db.get(p).unwrap().clone();
            s.id = format!("q{i}");
            set.push(s).unwrap();
        }
        set
    }

    #[test]
    fn dual_approx_search_finds_planted_sources() {
        let database = db(24, 120);
        let queries = queries_from(&database, &[3, 11, 17, 20]);
        let workers = vec![
            WorkerSpec::cpu_default(),
            WorkerSpec::cpu_default(),
            WorkerSpec::gpu_default(),
        ];
        let outcome =
            try_run_search(database, queries, &workers, RuntimeConfig::default()).expect("search");
        assert_eq!(outcome.hits.len(), 4);
        // Each query is an exact copy of a database entry: its top hit
        // must be that entry.
        for (qi, src) in [3usize, 11, 17, 20].iter().enumerate() {
            assert_eq!(outcome.hits[qi].hits[0].db_index, *src, "query {qi}");
        }
        assert!(outcome.schedule.is_some());
        assert!(outcome.total_cells > 0);
        assert!(outcome.modelled_makespan > 0.0);
        assert!(outcome.wall_seconds > 0.0);
    }

    #[test]
    fn self_scheduling_gives_identical_hits() {
        let database = db(16, 90);
        let queries = queries_from(&database, &[0, 5, 9]);
        let workers = vec![WorkerSpec::cpu_default(), WorkerSpec::gpu_default()];
        let a = try_run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        )
        .expect("search");
        let b = try_run_search(
            database,
            queries,
            &workers,
            RuntimeConfig {
                policy: AllocationPolicy::SelfScheduling,
                ..RuntimeConfig::default()
            },
        )
        .expect("search");
        // Allocation changes, results must not.
        assert_eq!(a.hits, b.hits);
        assert!(b.schedule.is_none());
    }

    #[test]
    fn every_worker_species_alone_works() {
        let database = db(12, 60);
        let queries = queries_from(&database, &[1, 2]);
        for workers in [
            vec![WorkerSpec::cpu_default()],
            vec![WorkerSpec::gpu_default()],
            vec![WorkerSpec::gpu_default(), WorkerSpec::gpu_default()],
        ] {
            let outcome = try_run_search(
                database.clone(),
                queries.clone(),
                &workers,
                RuntimeConfig::default(),
            )
            .expect("search");
            assert_eq!(outcome.hits[0].hits[0].db_index, 1);
            assert_eq!(outcome.hits[1].hits[0].db_index, 2);
            // All tasks accounted for.
            let total: usize = outcome.worker_stats.iter().map(|s| s.tasks).sum();
            assert_eq!(total, 2);
        }
    }

    #[test]
    fn stats_partition_the_work() {
        let database = db(20, 80);
        let queries = queries_from(&database, &[0, 4, 8, 12, 16]);
        let workers = vec![
            WorkerSpec::cpu_default(),
            WorkerSpec::gpu_default(),
            WorkerSpec::gpu_default(),
        ];
        let outcome =
            try_run_search(database, queries, &workers, RuntimeConfig::default()).expect("search");
        let tasks: usize = outcome.worker_stats.iter().map(|s| s.tasks).sum();
        assert_eq!(tasks, 5);
        let cells: u64 = outcome.worker_stats.iter().map(|s| s.cells).sum();
        assert_eq!(cells, outcome.total_cells);
        // GPU workers must carry most of the load under the dual
        // allocator (they are modelled ~4x faster).
        let gpu_tasks: usize = outcome
            .worker_stats
            .iter()
            .filter(|s| s.description.starts_with("GPU"))
            .map(|s| s.tasks)
            .sum();
        assert!(gpu_tasks >= 3, "GPUs only got {gpu_tasks} of 5 tasks");
    }

    #[test]
    fn top_k_truncates_hit_lists() {
        let database = db(30, 50);
        let queries = queries_from(&database, &[7]);
        let outcome = try_run_search(
            database,
            queries,
            &[WorkerSpec::cpu_default()],
            RuntimeConfig {
                top_k: 5,
                ..RuntimeConfig::default()
            },
        )
        .expect("search");
        assert_eq!(outcome.hits[0].hits.len(), 5);
        // Scores are sorted descending.
        let scores: Vec<i32> = outcome.hits[0].hits.iter().map(|h| h.score).collect();
        let mut sorted = scores.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(scores, sorted);
    }

    #[test]
    fn no_workers_is_a_typed_error() {
        let database = db(2, 10);
        let queries = queries_from(&database, &[0]);
        assert_eq!(
            try_run_search(database, queries, &[], RuntimeConfig::default()).unwrap_err(),
            SearchError::NoWorkers
        );
    }

    #[test]
    fn single_species_task_times_stay_finite() {
        // Regression: the old absent-species sentinel (`f64::MAX / 4.0`)
        // made area sums overflow to infinity on single-species
        // platforms, poisoning the scheduler's lower bound. The penalty
        // must be prohibitive yet keep every derived quantity finite.
        let database = db(10, 60);
        let queries = queries_from(&database, &[0, 3, 6, 9]);
        let db_residues = database.total_residues();
        let lens: Vec<usize> = queries.iter().map(|q| q.len()).collect();
        for (cpu, gpu) in [
            (Some(crate::estimator::WorkerRateModel::cpu_swipe()), None),
            (None, Some(crate::estimator::WorkerRateModel::gpu_tesla())),
        ] {
            let tasks = build_tasks(&lens, db_residues, cpu, gpu);
            let mut area = 0.0;
            for t in tasks.iter() {
                assert!(t.p_cpu.is_finite() && t.p_cpu > 0.0);
                assert!(t.p_gpu.is_finite() && t.p_gpu > 0.0);
                area += t.p_cpu + t.p_gpu;
            }
            assert!(area.is_finite(), "area sum must not overflow");
            // The absent side is prohibitive, not just slightly worse.
            let t0 = tasks.iter().next().unwrap();
            let ratio = (t0.p_cpu / t0.p_gpu).max(t0.p_gpu / t0.p_cpu);
            assert!(ratio >= 1.0e5, "penalty too mild: ratio {ratio}");
            // And the scheduler's diagnostics stay usable.
            let platform = PlatformSpec::new(1, 1);
            let outcome = dual_approx_schedule_observed(
                &tasks,
                &platform,
                BinarySearchConfig::default(),
                &Obs::disabled(),
            );
            assert!(outcome.lower_bound.is_finite());
            assert!(outcome.upper_bound.is_finite());
            assert!(outcome.schedule.makespan().is_finite());
        }
    }

    #[test]
    fn enabled_obs_captures_phases_planned_and_actual_spans() {
        let database = db(16, 80);
        let queries = queries_from(&database, &[1, 5, 9, 13]);
        let workers = vec![WorkerSpec::cpu_default(), WorkerSpec::gpu_default()];
        let obs = Obs::enabled();
        let outcome = try_run_search(
            database,
            queries,
            &workers,
            RuntimeConfig {
                obs: obs.clone(),
                ..RuntimeConfig::default()
            },
        )
        .expect("search");
        let events = obs.events();
        // Every master phase appears exactly once.
        for phase in ["register", "allocate", "dispatch", "merge"] {
            let n = events
                .iter()
                .filter(|e| e.track == Track::Master && e.name == phase)
                .count();
            assert_eq!(n, 1, "phase {phase}");
        }
        // Every dispatched task has an actual span on some worker track
        // and a planned span on the matching planned track.
        for task in 0..4usize {
            let name = format!("task-{task}");
            let actual: Vec<usize> = events
                .iter()
                .filter_map(|e| match e.track {
                    Track::Worker(w) if e.name == name => Some(w),
                    _ => None,
                })
                .collect();
            let planned: Vec<usize> = events
                .iter()
                .filter_map(|e| match e.track {
                    Track::Planned(w) if e.name == name => Some(w),
                    _ => None,
                })
                .collect();
            assert_eq!(actual.len(), 1, "task {task} executed once");
            assert_eq!(planned.len(), 1, "task {task} planned once");
            assert_eq!(actual, planned, "task {task} ran where it was planned");
        }
        // Scheduler events made it onto the scheduler track.
        assert!(events.iter().any(|e| e.track == Track::Scheduler));
        // A fault-free run records no fault events.
        assert!(!events.iter().any(|e| e.track == Track::Faults));
        // Obs-derived per-worker modelled busy totals agree with the
        // hand-accumulated WorkerStats.
        for stats in &outcome.worker_stats {
            let from_events: f64 = events
                .iter()
                .filter(|e| e.track == Track::Worker(stats.worker_id))
                .filter_map(|e| e.virt_dur)
                .sum();
            assert!(
                (from_events - stats.busy_modelled).abs() <= 1e-9 * stats.busy_modelled.max(1.0),
                "worker {}: events {} vs stats {}",
                stats.worker_id,
                from_events,
                stats.busy_modelled
            );
            let spans = events
                .iter()
                .filter(|e| e.track == Track::Worker(stats.worker_id))
                .count();
            assert_eq!(spans, stats.tasks, "worker {} span count", stats.worker_id);
        }
    }

    #[test]
    fn empty_query_set_is_fine() {
        let database = db(4, 20);
        let queries = SequenceSet::new(Alphabet::Protein);
        let outcome = try_run_search(
            database,
            queries,
            &[WorkerSpec::cpu_default()],
            RuntimeConfig::default(),
        )
        .expect("search");
        assert!(outcome.hits.is_empty());
        assert_eq!(outcome.total_cells, 0);
    }

    // ---- fault-tolerance tests ----

    fn fault_config(faults: FaultPlan) -> RuntimeConfig {
        RuntimeConfig {
            faults,
            // Fast silent-death detection for tests; correctness does
            // not depend on the value.
            min_job_timeout: Duration::from_millis(60),
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn gpu_device_fault_mid_run_recovers_with_identical_hits() {
        // The acceptance scenario: a GPU worker's device dies mid-job;
        // the master re-plans its orphans on the surviving CPU worker,
        // the search completes, and the hits are bit-identical to a
        // fault-free run. Fault + re-dispatch events land on the
        // faults track, the recovery plan on the recovered tracks.
        let database = db(20, 100);
        let queries = queries_from(&database, &[1, 5, 9, 13, 17]);
        let workers = vec![WorkerSpec::cpu_default(), WorkerSpec::gpu_default()];
        let healthy = try_run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        )
        .expect("search");
        let obs = Obs::enabled();
        let faulted = try_run_search(
            database,
            queries,
            &workers,
            RuntimeConfig {
                obs: obs.clone(),
                ..fault_config(
                    FaultPlan::none().with(1, WorkerFault::DeviceFault { after_kernels: 1 }),
                )
            },
        )
        .expect("search");
        assert_eq!(faulted.hits, healthy.hits, "faults must not change hits");
        // The GPU completed exactly its one kernel before dying.
        assert_eq!(faulted.worker_stats[1].tasks, 1);
        assert_eq!(faulted.worker_stats[0].tasks, 4);
        let events = obs.events();
        assert!(
            events
                .iter()
                .any(|e| e.track == Track::Faults && e.name == "worker_death"),
            "death must be recorded"
        );
        assert!(
            events
                .iter()
                .any(|e| e.track == Track::Faults && e.name == "task_redispatch"),
            "re-dispatches must be recorded"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e.track, Track::Recovered(0))),
            "recovery plan must be recorded on the survivor's track"
        );
    }

    #[test]
    fn notified_crash_recovers() {
        let database = db(16, 80);
        let queries = queries_from(&database, &[0, 4, 8, 12]);
        let workers = vec![WorkerSpec::cpu_default(), WorkerSpec::cpu_default()];
        let healthy = try_run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        )
        .expect("search");
        let faulted = try_run_search(
            database,
            queries,
            &workers,
            fault_config(FaultPlan::none().with(
                0,
                WorkerFault::Crash {
                    after_jobs: 0,
                    notify: true,
                },
            )),
        )
        .expect("search");
        assert_eq!(faulted.hits, healthy.hits);
        assert_eq!(faulted.worker_stats[0].tasks, 0);
        assert_eq!(faulted.worker_stats[1].tasks, 4);
    }

    #[test]
    fn silent_crash_is_detected_by_deadline() {
        let database = db(16, 80);
        let queries = queries_from(&database, &[0, 4, 8, 12]);
        let workers = vec![WorkerSpec::cpu_default(), WorkerSpec::cpu_default()];
        let healthy = try_run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        )
        .expect("search");
        let obs = Obs::enabled();
        let faulted = try_run_search(
            database,
            queries,
            &workers,
            RuntimeConfig {
                obs: obs.clone(),
                ..fault_config(FaultPlan::none().with(
                    1,
                    WorkerFault::Crash {
                        after_jobs: 0,
                        notify: false,
                    },
                ))
            },
        )
        .expect("search");
        assert_eq!(faulted.hits, healthy.hits);
        assert_eq!(faulted.worker_stats[1].tasks, 0);
        // The death was found by deadline, not notification.
        assert!(obs.events().iter().any(|e| {
            e.track == Track::Faults
                && e.name == "worker_death"
                && e.args
                    .iter()
                    .any(|(k, v)| k == "reason" && *v == DEATH_TIMEOUT)
        }));
    }

    #[test]
    fn straggler_is_timed_out_and_work_rerouted() {
        let database = db(12, 60);
        let queries = queries_from(&database, &[0, 3, 6]);
        let workers = vec![WorkerSpec::cpu_default(), WorkerSpec::cpu_default()];
        let healthy = try_run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        )
        .expect("search");
        let faulted = try_run_search(
            database,
            queries,
            &workers,
            fault_config(FaultPlan::none().with(
                0,
                WorkerFault::Straggler {
                    delay_ms: 250,
                    factor: 2.0,
                },
            )),
        )
        .expect("search");
        // Whether the straggler's own late results or the re-dispatched
        // copies land first, the hits are identical.
        assert_eq!(faulted.hits, healthy.hits);
    }

    #[test]
    fn crash_before_registration_degrades_gracefully() {
        let database = db(12, 60);
        let queries = queries_from(&database, &[2, 7]);
        let workers = vec![WorkerSpec::gpu_default(), WorkerSpec::cpu_default()];
        let obs = Obs::enabled();
        let outcome = try_run_search(
            database,
            queries,
            &workers,
            RuntimeConfig {
                obs: obs.clone(),
                ..fault_config(FaultPlan::none().with(0, WorkerFault::CrashBeforeRegistration))
            },
        )
        .expect("search");
        assert_eq!(outcome.hits[0].hits[0].db_index, 2);
        assert_eq!(outcome.hits[1].hits[0].db_index, 7);
        assert_eq!(outcome.worker_stats[0].tasks, 0);
        assert!(obs
            .events()
            .iter()
            .any(|e| e.track == Track::Faults && e.name == "worker_lost_registration"));
    }

    #[test]
    fn all_gpus_dead_degrades_to_cpu_only() {
        // Both GPUs die; the re-plan runs on a zero-GPU platform.
        let database = db(16, 80);
        let queries = queries_from(&database, &[0, 4, 8, 12]);
        let workers = vec![
            WorkerSpec::cpu_default(),
            WorkerSpec::gpu_default(),
            WorkerSpec::gpu_default(),
        ];
        let healthy = try_run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        )
        .expect("search");
        let faulted = try_run_search(
            database,
            queries,
            &workers,
            fault_config(
                FaultPlan::none()
                    .with(1, WorkerFault::DeviceFault { after_kernels: 0 })
                    .with(2, WorkerFault::DeviceFault { after_kernels: 0 }),
            ),
        )
        .expect("search");
        assert_eq!(faulted.hits, healthy.hits);
        assert_eq!(faulted.worker_stats[0].tasks, 4, "CPU carried everything");
    }

    #[test]
    fn all_workers_dead_is_a_typed_error() {
        let database = db(8, 40);
        let queries = queries_from(&database, &[0, 2]);
        let err = try_run_search(
            database,
            queries,
            &[WorkerSpec::cpu_default()],
            fault_config(FaultPlan::none().with(
                0,
                WorkerFault::Crash {
                    after_jobs: 0,
                    notify: true,
                },
            )),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SearchError::AllWorkersDead {
                completed: 0,
                total: 2
            }
        ));
    }

    #[test]
    fn nobody_registers_is_a_typed_error() {
        let database = db(8, 40);
        let queries = queries_from(&database, &[0]);
        let err = try_run_search(
            database,
            queries,
            &[WorkerSpec::cpu_default()],
            fault_config(FaultPlan::none().with(0, WorkerFault::CrashBeforeRegistration)),
        )
        .unwrap_err();
        assert_eq!(err, SearchError::NoWorkersRegistered);
    }

    #[test]
    fn retry_budget_converts_livelock_into_error() {
        // Self-scheduling with one extreme straggler: the stall
        // detector re-queues the task faster than the worker finishes
        // it; the retry bound turns that into a typed error instead of
        // an unbounded loop.
        let database = db(8, 40);
        let queries = queries_from(&database, &[1]);
        let err = try_run_search(
            database,
            queries,
            &[WorkerSpec::cpu_default()],
            RuntimeConfig {
                policy: AllocationPolicy::SelfScheduling,
                faults: FaultPlan::none().with(
                    0,
                    WorkerFault::Straggler {
                        delay_ms: 400,
                        factor: 1.0,
                    },
                ),
                min_job_timeout: Duration::from_millis(25),
                max_task_retries: 1,
                ..RuntimeConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SearchError::RetriesExhausted { task_id: 0, .. }
        ));
    }

    #[test]
    fn self_scheduling_survives_a_silent_crash() {
        let database = db(16, 80);
        let queries = queries_from(&database, &[0, 4, 8, 12]);
        let workers = vec![WorkerSpec::cpu_default(), WorkerSpec::cpu_default()];
        let healthy = try_run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        )
        .expect("search");
        let faulted = try_run_search(
            database,
            queries,
            &workers,
            RuntimeConfig {
                policy: AllocationPolicy::SelfScheduling,
                ..fault_config(FaultPlan::none().with(
                    0,
                    WorkerFault::Crash {
                        after_jobs: 1,
                        notify: false,
                    },
                ))
            },
        )
        .expect("search");
        assert_eq!(faulted.hits, healthy.hits);
    }

    #[test]
    fn seeded_fault_plans_preserve_hits() {
        // A few seeds through the full stack: whatever the plan does,
        // hits must match the fault-free run.
        let database = db(14, 70);
        let queries = queries_from(&database, &[0, 3, 6, 9]);
        let workers = vec![
            WorkerSpec::cpu_default(),
            WorkerSpec::cpu_default(),
            WorkerSpec::gpu_default(),
        ];
        let healthy = try_run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        )
        .expect("search");
        for seed in [1u64, 7, 23] {
            let plan = FaultPlan::seeded(seed, workers.len());
            let faulted = try_run_search(
                database.clone(),
                queries.clone(),
                &workers,
                fault_config(plan.clone()),
            )
            .expect("search");
            assert_eq!(faulted.hits, healthy.hits, "seed {seed} plan {plan}");
        }
    }

    // ---- online re-optimization tests ----

    /// The acceptance scenario: one GPU + two CPUs, where CPU worker 1
    /// both straggles (modelled clock ×3, no wall delay) and declared a
    /// 2× optimistic rate model. Returns (workers, miscalibrated
    /// config-with-reopt-choice closure inputs).
    fn miscalibrated_zoo() -> Vec<WorkerSpec> {
        vec![
            WorkerSpec::gpu_default(),
            WorkerSpec::cpu_default().with_prior_scale(2.0),
            WorkerSpec::cpu_default(),
        ]
    }

    fn miscalibrated_config(reopt_enabled: bool, obs: Obs) -> RuntimeConfig {
        RuntimeConfig {
            obs,
            reopt: ReoptConfig {
                enabled: reopt_enabled,
                ..ReoptConfig::default()
            },
            ..fault_config(FaultPlan::none().with(
                1,
                WorkerFault::Straggler {
                    delay_ms: 0,
                    factor: 3.0,
                },
            ))
        }
    }

    #[test]
    fn reopt_on_calibrated_run_changes_nothing() {
        // Honest priors, no faults: observed ratios are uniform, skew
        // stays below threshold, and no re-plan ever fires.
        let database = db(20, 100);
        let queries = queries_from(&database, &[1, 4, 7, 10, 13, 16]);
        let workers = vec![
            WorkerSpec::gpu_default(),
            WorkerSpec::cpu_default(),
            WorkerSpec::cpu_default(),
        ];
        let off = try_run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        )
        .expect("search");
        let obs = Obs::enabled();
        let on = try_run_search(
            database,
            queries,
            &workers,
            RuntimeConfig {
                obs: obs.clone(),
                reopt: ReoptConfig::enabled(),
                ..RuntimeConfig::default()
            },
        )
        .expect("search");
        assert_eq!(on.hits, off.hits);
        assert!(
            !obs.events().iter().any(|e| e.name == "reopt_replan"),
            "a calibrated run must not trigger re-planning"
        );
        // Same static plan executed either way.
        for (a, b) in off.worker_stats.iter().zip(on.worker_stats.iter()) {
            assert_eq!(a.tasks, b.tasks);
        }
    }

    #[test]
    fn reopt_replans_miscalibrated_straggler_and_keeps_hits() {
        let database = db(24, 110);
        let queries = queries_from(&database, &[0, 2, 5, 8, 11, 14, 17, 20]);
        let workers = miscalibrated_zoo();
        let healthy = try_run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        )
        .expect("search");
        let obs = Obs::enabled();
        let reopt = try_run_search(
            database,
            queries,
            &workers,
            miscalibrated_config(true, obs.clone()),
        )
        .expect("search");
        assert_eq!(reopt.hits, healthy.hits, "re-planning must not change hits");
        let events = obs.events();
        assert!(
            events
                .iter()
                .any(|e| e.track == Track::Faults && e.name == "reopt_replan"),
            "the 3x-slow 2x-overrated worker must trigger a re-plan"
        );
        // Every re-plan is journaled with its round/remaining/skew args.
        for e in events.iter().filter(|e| e.name == "reopt_replan") {
            assert!(e.args.iter().any(|(k, _)| k == "round"));
            assert!(e.args.iter().any(|(k, v)| k == "skew" && *v >= 1.5));
        }
        // All tasks ran exactly once in total accounting terms: no task
        // is double-counted by the re-plan (duplicates would inflate
        // the per-worker task counts beyond the query count unless a
        // fault forced a retry, and this plan has no deaths).
        let total: usize = reopt.worker_stats.iter().map(|s| s.tasks).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn reopt_improves_modelled_makespan_on_miscalibrated_straggler() {
        // The issue's acceptance bar: on the deliberately miscalibrated
        // scenario, re-optimization improves modelled makespan by at
        // least 15% over the static plan.
        let database = db(24, 110);
        let queries = queries_from(&database, &[0, 2, 5, 8, 11, 14, 17, 20]);
        let workers = miscalibrated_zoo();
        let static_run = try_run_search(
            database.clone(),
            queries.clone(),
            &workers,
            miscalibrated_config(false, Obs::disabled()),
        )
        .expect("search");
        let reopt_run = try_run_search(
            database,
            queries,
            &workers,
            miscalibrated_config(true, Obs::disabled()),
        )
        .expect("search");
        assert_eq!(reopt_run.hits, static_run.hits);
        let improvement = 1.0 - reopt_run.modelled_makespan / static_run.modelled_makespan;
        assert!(
            improvement >= 0.15,
            "re-opt must improve modelled makespan by >= 15%: static {:.4}s, reopt {:.4}s ({:.1}%)",
            static_run.modelled_makespan,
            reopt_run.modelled_makespan,
            improvement * 100.0
        );
    }

    #[test]
    fn reopt_survives_worker_death_after_replan() {
        // Re-planning and fault recovery compose: the straggler is
        // re-planned around, then a CPU dies; hits still match.
        let database = db(18, 90);
        let queries = queries_from(&database, &[0, 3, 6, 9, 12, 15]);
        let workers = miscalibrated_zoo();
        let healthy = try_run_search(
            database.clone(),
            queries.clone(),
            &workers,
            RuntimeConfig::default(),
        )
        .expect("search");
        let faulted = try_run_search(
            database,
            queries,
            &workers,
            RuntimeConfig {
                reopt: ReoptConfig::enabled(),
                ..fault_config(
                    FaultPlan::none()
                        .with(
                            1,
                            WorkerFault::Straggler {
                                delay_ms: 0,
                                factor: 3.0,
                            },
                        )
                        .with(
                            2,
                            WorkerFault::Crash {
                                after_jobs: 1,
                                notify: true,
                            },
                        ),
                )
            },
        )
        .expect("search");
        assert_eq!(faulted.hits, healthy.hits);
    }

    #[test]
    fn reopt_recalibration_never_lowers_the_cold_host_deadline_floor() {
        // Regression guard for the PR 2 invariant: the silent-death
        // deadline is floored by the 10-MCUPS cold-host prior, and
        // re-calibration touches planning estimates only. Whatever the
        // re-opt machinery does to the rate models, the deadline for a
        // given amount of pending cells can never drop below the time a
        // 10-MCUPS host would need (divided by nothing — slack only
        // stretches it).
        let cells = 5.0e8; // half a giga-cell
        let slack = RuntimeConfig::default().job_timeout_slack;
        let floor_seconds = slack * cells / COLD_HOST_CELLS_PER_SEC;
        // A wildly optimistic re-calibrated estimate (estimates say the
        // task takes microseconds) with an equally optimistic observed
        // wall ratio still cannot undercut the cells-based floor the
        // master applies alongside job_deadline_seconds.
        let optimistic = job_deadline_seconds(1e-6, 1e-3, slack, 0.05);
        let deadline = optimistic.max(slack * cells * (1.0 / COLD_HOST_CELLS_PER_SEC));
        assert!(
            deadline >= floor_seconds,
            "deadline {deadline} fell below the 10-MCUPS floor {floor_seconds}"
        );
        // And the constant itself is the documented 10 MCUPS.
        assert_eq!(COLD_HOST_CELLS_PER_SEC, 1.0e7);
    }
}
