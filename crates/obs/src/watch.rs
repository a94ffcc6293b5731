//! Incremental anomaly watchdog: folds bus events *online* into the
//! same aggregates `analysis`/`explain` compute post-hoc, and emits
//! typed [`Alert`]s while the run is still going.
//!
//! Feed every event from a [`BusSubscriber`](crate::BusSubscriber)
//! (or a replayed journal) through [`Watchdog::observe`]; it returns
//! the alerts that observation tripped. [`Watchdog::status`] renders
//! the current fold — λ and the running modelled makespan against the
//! paper's 2λ bound, per-worker queue depth and observed/estimate
//! ratio, ETA — for dashboards (`swdual top`).
//!
//! Alert taxonomy (one [`AlertKind`] each):
//!
//! * **straggler** — a worker's observed modelled time per unit of
//!   estimate exceeds the configured ratio;
//! * **bound-at-risk** — the running modelled makespan crosses a
//!   fraction of the guaranteed 2λ bound;
//! * **worker-dead** — the master detected a worker death;
//! * **queue-stall** — a worker with dispatched-but-uncompleted work
//!   has been silent long enough to approach its death deadline;
//! * **reopt-fired** — the master re-planned remaining work after
//!   observed skew crossed the re-optimization threshold.
//!
//! Alerts are journaled as `alert_<kind>` instants on the faults track
//! (numeric args only, like every event) and counted as
//! `swdual_alerts_total{kind=...}` in the metrics registry; see
//! [`record_alert`]. The watchdog skips alert events on input
//! ([`Event::is_alert`]) so replaying its own output is a no-op.

use crate::{Event, Obs, Track};
use std::collections::BTreeMap;

/// Thresholds for the watchdog; the defaults are deliberately
/// conservative (modelled durations are deterministic given the rate
/// models, so a healthy worker's ratio sits at 1.0).
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Fire `straggler` when observed/estimated modelled time ≥ this.
    pub straggler_ratio: f64,
    /// Jobs a worker must complete before its ratio is judged.
    pub straggler_min_jobs: usize,
    /// Fire `bound-at-risk` when running makespan ≥ fraction × 2λ.
    pub bound_risk_fraction: f64,
    /// Fire `queue-stall` when a worker with outstanding work has been
    /// silent ≥ this fraction of its master-published death deadline.
    pub stall_deadline_fraction: f64,
    /// Without a published deadline, fire `queue-stall` after silence
    /// ≥ max(`stall_min_secs`, `stall_factor` × longest job wall).
    pub stall_factor: f64,
    /// Floor on the silence threshold (seconds, wall clock).
    pub stall_min_secs: f64,
}

impl Default for WatchConfig {
    fn default() -> WatchConfig {
        WatchConfig {
            straggler_ratio: 2.0,
            straggler_min_jobs: 1,
            bound_risk_fraction: 0.9,
            stall_deadline_fraction: 0.8,
            stall_factor: 4.0,
            stall_min_secs: 0.25,
        }
    }
}

/// The five anomaly classes the watchdog can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertKind {
    Straggler,
    BoundAtRisk,
    WorkerDead,
    QueueStall,
    ReoptFired,
}

impl AlertKind {
    pub const ALL: [AlertKind; 5] = [
        AlertKind::Straggler,
        AlertKind::BoundAtRisk,
        AlertKind::WorkerDead,
        AlertKind::QueueStall,
        AlertKind::ReoptFired,
    ];

    /// Stable label used in metrics (`swdual_alerts_total{kind=...}`)
    /// and reports.
    pub fn label(&self) -> &'static str {
        match self {
            AlertKind::Straggler => "straggler",
            AlertKind::BoundAtRisk => "bound-at-risk",
            AlertKind::WorkerDead => "worker-dead",
            AlertKind::QueueStall => "queue-stall",
            AlertKind::ReoptFired => "reopt-fired",
        }
    }

    /// The journal event name the alert is recorded under.
    pub fn event_name(&self) -> &'static str {
        match self {
            AlertKind::Straggler => "alert_straggler",
            AlertKind::BoundAtRisk => "alert_bound_at_risk",
            AlertKind::WorkerDead => "alert_worker_dead",
            AlertKind::QueueStall => "alert_queue_stall",
            AlertKind::ReoptFired => "alert_reopt_fired",
        }
    }

    /// Parse either the metrics label or the journal event name.
    pub fn from_label(label: &str) -> Option<AlertKind> {
        let label = label.strip_prefix("alert_").unwrap_or(label);
        AlertKind::ALL
            .into_iter()
            .find(|k| k.label() == label || k.event_name() == format!("alert_{label}"))
            .or_else(|| {
                let hyphenated = label.replace('_', "-");
                AlertKind::ALL.into_iter().find(|k| k.label() == hyphenated)
            })
    }
}

/// One fired anomaly.
#[derive(Debug, Clone)]
pub struct Alert {
    pub kind: AlertKind,
    /// The worker the alert names, when it names one.
    pub worker: Option<usize>,
    /// Wall-clock seconds (recorder clock) when the alert fired.
    pub wall: f64,
    /// The measured quantity that tripped the threshold (ratio,
    /// makespan seconds, silence seconds, observed skew).
    pub value: f64,
    /// The configured trip point it was compared against.
    pub threshold: f64,
    /// Human-readable one-liner.
    pub message: String,
}

impl Alert {
    /// The numeric args the alert instant is journaled with. Workers
    /// are −1 when the alert names none (events carry numbers only).
    pub fn args(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("worker", self.worker.map(|w| w as f64).unwrap_or(-1.0)),
            ("value", self.value),
            ("threshold", self.threshold),
        ]
    }
}

/// Journal an alert as an `alert_<kind>` instant on the faults track
/// and bump `swdual_alerts_total{kind=...}` in the metrics registry.
/// The instant goes through the normal recording path, so live bus
/// subscribers see it too.
pub fn record_alert(obs: &Obs, alert: &Alert) {
    obs.instant(Track::Faults, alert.kind.event_name(), &alert.args());
    obs.metrics()
        .counter("alerts", &[("kind", alert.kind.label())], 1.0);
}

/// Fold `alert_*` instants from a recorded event stream back into
/// [`Alert`]s (post-hoc counterpart of the live bus; used by
/// `SearchReport::alerts()` and the auditors).
pub fn alerts_from_events(events: &[Event]) -> Vec<Alert> {
    events
        .iter()
        .filter(|e| e.is_alert())
        .filter_map(|e| {
            let kind = AlertKind::from_label(&e.name)?;
            let worker = e.arg("worker").filter(|w| *w >= 0.0).map(|w| w as usize);
            let value = e.arg("value").unwrap_or(0.0);
            let threshold = e.arg("threshold").unwrap_or(0.0);
            Some(Alert {
                kind,
                worker,
                wall: e.wall_start,
                value,
                threshold,
                message: describe(kind, worker, value, threshold),
            })
        })
        .collect()
}

fn describe(kind: AlertKind, worker: Option<usize>, value: f64, threshold: f64) -> String {
    let who = match worker {
        Some(w) => format!("worker {w}"),
        None => "run".to_string(),
    };
    match kind {
        AlertKind::Straggler => format!(
            "{who}: observed/estimate modelled ratio {value:.2} \u{2265} {threshold:.2}"
        ),
        AlertKind::BoundAtRisk => format!(
            "{who}: running modelled makespan {value:.3}s \u{2265} {threshold:.3}s (risk fraction of the 2\u{3bb} bound)"
        ),
        AlertKind::WorkerDead => format!("{who}: declared dead (reason code {value:.0})"),
        AlertKind::QueueStall => format!(
            "{who}: silent {value:.3}s with work outstanding (threshold {threshold:.3}s)"
        ),
        AlertKind::ReoptFired => format!(
            "{who}: re-optimization re-planned remaining work (observed skew {value:.3} \u{2265} {threshold:.3})"
        ),
    }
}

/// Per-worker slice of [`WatchStatus`].
#[derive(Debug, Clone)]
pub struct WorkerWatch {
    pub worker: usize,
    pub is_gpu: bool,
    /// Completed jobs.
    pub jobs: usize,
    /// Wall-clock seconds spent in job spans.
    pub busy_wall: f64,
    /// Observed modelled seconds across completed jobs.
    pub busy_modelled: f64,
    /// Scheduler-estimated modelled seconds for those same jobs.
    pub est_modelled: f64,
    /// `busy_modelled / est_modelled` (1.0 until the first job).
    pub ratio: f64,
    /// Dispatched-but-uncompleted tasks.
    pub queue_depth: usize,
    /// Wall seconds since the worker last completed work or received a
    /// dispatch (relative to the fold's latest wall time).
    pub silent_for: f64,
    /// Master-published death-detection timeout (0 = none published).
    pub deadline_secs: f64,
    pub dead: bool,
}

/// Snapshot of the incremental fold, for dashboards.
#[derive(Debug, Clone, Default)]
pub struct WatchStatus {
    /// Latest wall time observed (recorder clock, seconds).
    pub wall: f64,
    /// The scheduler's λ (0 until `binsearch_done` is seen).
    pub lambda: f64,
    /// Whether λ is known, i.e. the 2λ bound is judgeable.
    pub has_bound: bool,
    pub tasks_total: usize,
    pub tasks_done: usize,
    /// Running modelled makespan: the latest modelled completion seen.
    pub running_makespan: f64,
    /// Crude modelled-clock ETA: running makespan scaled by remaining
    /// task count (0 until the first completion).
    pub eta_modelled: f64,
    pub workers: Vec<WorkerWatch>,
    /// Every alert fired so far, in firing order.
    pub alerts: Vec<Alert>,
}

#[derive(Debug)]
struct WorkerState {
    is_gpu: bool,
    jobs: usize,
    busy_wall: f64,
    busy_virt: f64,
    est_virt: f64,
    outstanding: Vec<i64>,
    last_activity_wall: f64,
    deadline_secs: f64,
    dead: bool,
    fired_straggler: bool,
    fired_stall: bool,
}

impl WorkerState {
    fn new(is_gpu: bool, wall: f64) -> WorkerState {
        WorkerState {
            is_gpu,
            jobs: 0,
            busy_wall: 0.0,
            busy_virt: 0.0,
            est_virt: 0.0,
            outstanding: Vec::new(),
            last_activity_wall: wall,
            deadline_secs: 0.0,
            dead: false,
            fired_straggler: false,
            fired_stall: false,
        }
    }

    fn ratio(&self) -> f64 {
        if self.est_virt > 0.0 {
            self.busy_virt / self.est_virt
        } else {
            1.0
        }
    }
}

/// The incremental fold. Create once, feed every event in stream
/// order.
pub struct Watchdog {
    cfg: WatchConfig,
    wall: f64,
    lambda: f64,
    makespan: f64,
    max_job_wall: f64,
    /// task → (p_cpu, p_gpu) scheduler estimates from `task_model`.
    model: BTreeMap<i64, (f64, f64)>,
    done: std::collections::BTreeSet<i64>,
    workers: BTreeMap<usize, WorkerState>,
    fired_bound: bool,
    alerts: Vec<Alert>,
}

impl Watchdog {
    pub fn new(cfg: WatchConfig) -> Watchdog {
        Watchdog {
            cfg,
            wall: 0.0,
            lambda: 0.0,
            makespan: 0.0,
            max_job_wall: 0.0,
            model: BTreeMap::new(),
            done: std::collections::BTreeSet::new(),
            workers: BTreeMap::new(),
            fired_bound: false,
            alerts: Vec::new(),
        }
    }

    /// Fold one event; returns the alerts it tripped (usually none).
    pub fn observe(&mut self, event: &Event) -> Vec<Alert> {
        // Never fold our own output back in.
        if event.is_alert() {
            return Vec::new();
        }
        self.wall = self.wall.max(event.wall_start + event.wall_dur);
        let mut fired = Vec::new();

        match event.track {
            Track::Scheduler => {
                if let Some(lambda) = event.lambda() {
                    self.lambda = lambda;
                }
            }
            Track::Master => match event.name.as_str() {
                "worker_registered" => {
                    if let Some((w, is_gpu)) = event.registration() {
                        let wall = self.wall;
                        self.workers
                            .entry(w)
                            .or_insert_with(|| WorkerState::new(is_gpu, wall))
                            .is_gpu = is_gpu;
                    }
                }
                "task_model" => {
                    if let Some(task) = event.arg("task") {
                        self.model.insert(
                            task as i64,
                            (
                                event.arg("p_cpu").unwrap_or(0.0),
                                event.arg("p_gpu").unwrap_or(0.0),
                            ),
                        );
                    }
                }
                "task_dispatch" => {
                    let worker = event.arg("worker").unwrap_or(-1.0);
                    if worker >= 0.0 {
                        if let Some(task) = event.arg("task") {
                            let wall = self.wall;
                            let state = self
                                .workers
                                .entry(worker as usize)
                                .or_insert_with(|| WorkerState::new(false, wall));
                            state.outstanding.push(task as i64);
                            state.last_activity_wall = state.last_activity_wall.max(wall);
                        }
                    }
                }
                "worker_deadline" => {
                    if let (Some(w), Some(timeout)) = (event.arg("worker"), event.arg("timeout")) {
                        let wall = self.wall;
                        self.workers
                            .entry(w as usize)
                            .or_insert_with(|| WorkerState::new(false, wall))
                            .deadline_secs = timeout;
                    }
                }
                _ => {}
            },
            Track::Worker(w) if event.is_job() => {
                self.fold_job(w, event, &mut fired);
            }
            Track::Faults => match event.name.as_str() {
                "worker_death" => {
                    if let Some(w) = event.arg("worker") {
                        let w = w as usize;
                        let wall = self.wall;
                        let state = self
                            .workers
                            .entry(w)
                            .or_insert_with(|| WorkerState::new(false, wall));
                        if !state.dead {
                            state.dead = true;
                            state.outstanding.clear();
                            self.push_alert(
                                &mut fired,
                                AlertKind::WorkerDead,
                                Some(w),
                                event.arg("reason").unwrap_or(0.0),
                                0.0,
                            );
                        }
                    }
                }
                "reopt_replan" => {
                    self.push_alert(
                        &mut fired,
                        AlertKind::ReoptFired,
                        None,
                        event.arg("skew").unwrap_or(0.0),
                        event.arg("threshold").unwrap_or(0.0),
                    );
                }
                _ => {}
            },
            _ => {}
        }

        self.check_stalls(&mut fired);
        fired
    }

    /// Fold a completed worker span: busy time, estimate consumption,
    /// outstanding-queue retirement, then the straggler and
    /// bound-at-risk judgements.
    fn fold_job(&mut self, w: usize, event: &Event, fired: &mut Vec<Alert>) {
        let task = event.task();
        let virt_end = event.virt_start.and_then(|s| event.virt_dur.map(|d| s + d));
        let wall = self.wall;
        let is_gpu = self.workers.get(&w).map(|s| s.is_gpu).unwrap_or(false);
        let est = task
            .and_then(|t| self.model.get(&t))
            .map(|(p_cpu, p_gpu)| if is_gpu { *p_gpu } else { *p_cpu })
            .unwrap_or(0.0);
        let state = self
            .workers
            .entry(w)
            .or_insert_with(|| WorkerState::new(false, wall));
        state.busy_wall += event.wall_dur;
        state.last_activity_wall = state.last_activity_wall.max(wall);
        state.fired_stall = false; // activity re-arms the stall alarm
        if let Some(task) = task {
            state.jobs += 1;
            state.busy_virt += event.virt_dur.unwrap_or(0.0);
            state.est_virt += est;
            state.outstanding.retain(|t| *t != task);
            self.done.insert(task);
        }
        self.max_job_wall = self.max_job_wall.max(event.wall_dur);
        if let Some(end) = virt_end {
            self.makespan = self.makespan.max(end);
        }

        // Straggler: enough evidence, ratio at/over threshold, once.
        let state = self.workers.get_mut(&w).expect("just inserted");
        if !state.fired_straggler
            && state.jobs >= self.cfg.straggler_min_jobs
            && state.est_virt > 0.0
        {
            let ratio = state.ratio();
            if ratio >= self.cfg.straggler_ratio {
                state.fired_straggler = true;
                let threshold = self.cfg.straggler_ratio;
                self.push_alert(fired, AlertKind::Straggler, Some(w), ratio, threshold);
            }
        }

        // Bound-at-risk: running makespan vs fraction of 2λ, once.
        if !self.fired_bound && self.lambda > 0.0 {
            let guard = self.cfg.bound_risk_fraction * 2.0 * self.lambda;
            if self.makespan >= guard {
                self.fired_bound = true;
                self.push_alert(fired, AlertKind::BoundAtRisk, None, self.makespan, guard);
            }
        }
    }

    /// Silent-death proximity: a live worker with outstanding work and
    /// no activity for too long. "Too long" prefers the master's
    /// published death deadline; without one it falls back to a
    /// multiple of the longest job seen.
    fn check_stalls(&mut self, fired: &mut Vec<Alert>) {
        let mut to_fire = Vec::new();
        for (w, state) in &mut self.workers {
            if state.dead || state.fired_stall || state.outstanding.is_empty() {
                continue;
            }
            let silence = self.wall - state.last_activity_wall;
            let threshold = if state.deadline_secs > 0.0 {
                self.cfg.stall_deadline_fraction * state.deadline_secs
            } else {
                (self.cfg.stall_factor * self.max_job_wall).max(self.cfg.stall_min_secs)
            };
            if silence >= threshold && threshold > 0.0 {
                state.fired_stall = true;
                to_fire.push((*w, silence, threshold));
            }
        }
        for (w, silence, threshold) in to_fire {
            self.push_alert(fired, AlertKind::QueueStall, Some(w), silence, threshold);
        }
    }

    fn push_alert(
        &mut self,
        fired: &mut Vec<Alert>,
        kind: AlertKind,
        worker: Option<usize>,
        value: f64,
        threshold: f64,
    ) {
        let alert = Alert {
            kind,
            worker,
            wall: self.wall,
            value,
            threshold,
            message: describe(kind, worker, value, threshold),
        };
        self.alerts.push(alert.clone());
        fired.push(alert);
    }

    /// Snapshot the fold for rendering.
    pub fn status(&self) -> WatchStatus {
        let tasks_total = self.model.len();
        let tasks_done = self.done.len();
        let eta = if tasks_done > 0 && tasks_total > 0 {
            self.makespan * tasks_total as f64 / tasks_done as f64
        } else {
            0.0
        };
        WatchStatus {
            wall: self.wall,
            lambda: self.lambda,
            has_bound: self.lambda > 0.0,
            tasks_total,
            tasks_done,
            running_makespan: self.makespan,
            eta_modelled: eta,
            workers: self
                .workers
                .iter()
                .map(|(w, s)| WorkerWatch {
                    worker: *w,
                    is_gpu: s.is_gpu,
                    jobs: s.jobs,
                    busy_wall: s.busy_wall,
                    busy_modelled: s.busy_virt,
                    est_modelled: s.est_virt,
                    ratio: s.ratio(),
                    queue_depth: s.outstanding.len(),
                    silent_for: (self.wall - s.last_activity_wall).max(0.0),
                    deadline_secs: s.deadline_secs,
                    dead: s.dead,
                })
                .collect(),
            alerts: self.alerts.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;

    fn dispatch(task: i64, worker: usize) -> Event {
        Event {
            track: Track::Master,
            name: "task_dispatch".to_string(),
            kind: EventKind::Instant,
            wall_start: 0.0,
            wall_dur: 0.0,
            virt_start: None,
            virt_dur: None,
            args: vec![
                ("task".to_string(), task as f64),
                ("worker".to_string(), worker as f64),
                ("seq".to_string(), task as f64),
                ("decision".to_string(), 0.0),
            ],
        }
    }

    fn model(task: i64, p_cpu: f64, p_gpu: f64) -> Event {
        Event {
            track: Track::Master,
            name: "task_model".to_string(),
            kind: EventKind::Instant,
            wall_start: 0.0,
            wall_dur: 0.0,
            virt_start: None,
            virt_dur: None,
            args: vec![
                ("task".to_string(), task as f64),
                ("p_cpu".to_string(), p_cpu),
                ("p_gpu".to_string(), p_gpu),
            ],
        }
    }

    fn job(worker: usize, task: i64, wall: f64, wall_dur: f64, virt_dur: f64) -> Event {
        Event {
            track: Track::Worker(worker),
            name: format!("task-{task}"),
            kind: EventKind::Span,
            wall_start: wall,
            wall_dur,
            virt_start: Some(0.0),
            virt_dur: Some(virt_dur),
            args: vec![("task".to_string(), task as f64)],
        }
    }

    fn fault(name: &str, args: Vec<(String, f64)>, wall: f64) -> Event {
        Event {
            track: Track::Faults,
            name: name.to_string(),
            kind: EventKind::Instant,
            wall_start: wall,
            wall_dur: 0.0,
            virt_start: None,
            virt_dur: None,
            args,
        }
    }

    fn feed(dog: &mut Watchdog, events: &[Event]) -> Vec<Alert> {
        events.iter().flat_map(|e| dog.observe(e)).collect()
    }

    #[test]
    fn healthy_run_fires_nothing() {
        let mut dog = Watchdog::new(WatchConfig::default());
        let fired = feed(
            &mut dog,
            &[
                model(0, 1.0, 0.5),
                model(1, 1.0, 0.5),
                dispatch(0, 0),
                dispatch(1, 0),
                job(0, 0, 0.0, 0.01, 1.0),
                job(0, 1, 0.01, 0.01, 1.0),
            ],
        );
        assert!(fired.is_empty(), "{fired:?}");
        let status = dog.status();
        assert_eq!(status.tasks_done, 2);
        assert_eq!(status.tasks_total, 2);
        assert!((status.workers[0].ratio - 1.0).abs() < 1e-9);
        assert_eq!(status.workers[0].queue_depth, 0);
    }

    #[test]
    fn straggler_fires_once_and_names_the_worker() {
        let mut dog = Watchdog::new(WatchConfig::default());
        let fired = feed(
            &mut dog,
            &[
                model(0, 1.0, 1.0),
                model(1, 1.0, 1.0),
                dispatch(0, 2),
                dispatch(1, 2),
                // Observed modelled time 3× the estimate: a straggler.
                job(2, 0, 0.0, 0.01, 3.0),
                job(2, 1, 0.01, 0.01, 3.0),
            ],
        );
        let stragglers: Vec<&Alert> = fired
            .iter()
            .filter(|a| a.kind == AlertKind::Straggler)
            .collect();
        assert_eq!(stragglers.len(), 1, "fires once, not per job");
        assert_eq!(stragglers[0].worker, Some(2));
        assert!((stragglers[0].value - 3.0).abs() < 1e-9);
        assert!(stragglers[0].message.contains("worker 2"));
    }

    #[test]
    fn bound_at_risk_uses_two_lambda() {
        let mut dog = Watchdog::new(WatchConfig::default());
        dog.observe(&Event {
            track: Track::Scheduler,
            name: "binsearch_done".to_string(),
            kind: EventKind::Instant,
            wall_start: 0.0,
            wall_dur: 0.0,
            virt_start: None,
            virt_dur: None,
            args: vec![("lambda".to_string(), 1.0)],
        });
        // Makespan 1.5 < 0.9 × 2λ = 1.8: quiet.
        assert!(
            feed(&mut dog, &[model(0, 1.0, 1.0), job(0, 0, 0.0, 0.01, 1.5)])
                .iter()
                .all(|a| a.kind != AlertKind::BoundAtRisk)
        );
        // Makespan 1.9 ≥ 1.8: fires, carrying both numbers.
        let mut e = job(0, 1, 0.01, 0.01, 0.4);
        e.virt_start = Some(1.5);
        let fired = dog.observe(&e);
        let bound: Vec<&Alert> = fired
            .iter()
            .filter(|a| a.kind == AlertKind::BoundAtRisk)
            .collect();
        assert_eq!(bound.len(), 1);
        assert!((bound[0].value - 1.9).abs() < 1e-9);
        assert!((bound[0].threshold - 1.8).abs() < 1e-9);
    }

    #[test]
    fn worker_death_and_reopt_map_to_alerts() {
        let mut dog = Watchdog::new(WatchConfig::default());
        let fired = feed(
            &mut dog,
            &[
                fault(
                    "worker_death",
                    vec![("worker".to_string(), 1.0), ("reason".to_string(), 2.0)],
                    0.5,
                ),
                fault(
                    "worker_death",
                    vec![("worker".to_string(), 1.0), ("reason".to_string(), 2.0)],
                    0.6,
                ),
                fault(
                    "reopt_replan",
                    vec![("skew".to_string(), 1.4), ("round".to_string(), 1.0)],
                    0.7,
                ),
            ],
        );
        let kinds: Vec<AlertKind> = fired.iter().map(|a| a.kind).collect();
        assert_eq!(kinds, vec![AlertKind::WorkerDead, AlertKind::ReoptFired]);
        assert_eq!(fired[0].worker, Some(1));
        assert!(dog.status().workers.iter().any(|w| w.dead));
    }

    #[test]
    fn queue_stall_fires_on_silence_and_rearms_on_activity() {
        let cfg = WatchConfig {
            stall_min_secs: 0.1,
            ..WatchConfig::default()
        };
        let mut dog = Watchdog::new(cfg);
        feed(&mut dog, &[model(0, 1.0, 1.0), dispatch(0, 0)]);
        // A later event on another track advances the clock past the
        // silence threshold while worker 0 still owes task 0.
        let tick = Event {
            track: Track::Master,
            name: "merge".to_string(),
            kind: EventKind::Instant,
            wall_start: 0.5,
            wall_dur: 0.0,
            virt_start: None,
            virt_dur: None,
            args: vec![],
        };
        let fired = dog.observe(&tick);
        let stalls: Vec<&Alert> = fired
            .iter()
            .filter(|a| a.kind == AlertKind::QueueStall)
            .collect();
        assert_eq!(stalls.len(), 1);
        assert_eq!(stalls[0].worker, Some(0));
        // No re-fire while still silent.
        let mut tick2 = tick.clone();
        tick2.wall_start = 0.9;
        assert!(dog.observe(&tick2).is_empty());
        // Completion clears the queue and re-arms.
        assert!(dog.observe(&job(0, 0, 1.0, 0.01, 1.0)).is_empty());
        assert_eq!(dog.status().workers[0].queue_depth, 0);
    }

    #[test]
    fn deadline_proximity_prefers_published_deadlines() {
        let mut dog = Watchdog::new(WatchConfig::default());
        feed(
            &mut dog,
            &[
                model(0, 1.0, 1.0),
                dispatch(0, 0),
                Event {
                    track: Track::Master,
                    name: "worker_deadline".to_string(),
                    kind: EventKind::Instant,
                    wall_start: 0.0,
                    wall_dur: 0.0,
                    virt_start: None,
                    virt_dur: None,
                    args: vec![("worker".to_string(), 0.0), ("timeout".to_string(), 1.0)],
                },
            ],
        );
        // Silence 0.5 < 0.8 × 1.0: quiet despite default stall_min 0.25
        // (the published deadline wins over the fallback heuristic).
        let mut tick = Event {
            track: Track::Master,
            name: "merge".to_string(),
            kind: EventKind::Instant,
            wall_start: 0.5,
            wall_dur: 0.0,
            virt_start: None,
            virt_dur: None,
            args: vec![],
        };
        assert!(dog.observe(&tick).is_empty());
        // Silence 0.85 ≥ 0.8: deadline proximity.
        tick.wall_start = 0.85;
        let fired = dog.observe(&tick);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlertKind::QueueStall);
    }

    #[test]
    fn alerts_round_trip_through_the_journal() {
        let obs = Obs::enabled();
        let alert = Alert {
            kind: AlertKind::Straggler,
            worker: Some(3),
            wall: 0.0,
            value: 2.5,
            threshold: 2.0,
            message: describe(AlertKind::Straggler, Some(3), 2.5, 2.0),
        };
        record_alert(&obs, &alert);
        let boundless = Alert {
            kind: AlertKind::BoundAtRisk,
            worker: None,
            wall: 0.0,
            value: 1.9,
            threshold: 1.8,
            message: describe(AlertKind::BoundAtRisk, None, 1.9, 1.8),
        };
        record_alert(&obs, &boundless);

        let events = obs.events();
        assert!(events.iter().all(Event::is_alert));
        let back = alerts_from_events(&events);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].kind, AlertKind::Straggler);
        assert_eq!(back[0].worker, Some(3));
        assert!((back[0].value - 2.5).abs() < 1e-9);
        assert_eq!(back[1].kind, AlertKind::BoundAtRisk);
        assert_eq!(back[1].worker, None);

        // And the metrics registry counted them by kind.
        let snap = obs.metrics().snapshot();
        assert_eq!(
            snap.counter_value("alerts", &[("kind", "straggler")]),
            Some(1.0)
        );
        assert_eq!(
            snap.counter_value("alerts", &[("kind", "bound-at-risk")]),
            Some(1.0)
        );
    }

    #[test]
    fn watchdog_ignores_its_own_alerts() {
        let mut dog = Watchdog::new(WatchConfig::default());
        let alert_event = Event {
            track: Track::Faults,
            name: "alert_straggler".to_string(),
            kind: EventKind::Instant,
            wall_start: 0.0,
            wall_dur: 0.0,
            virt_start: None,
            virt_dur: None,
            args: vec![("worker".to_string(), 0.0)],
        };
        assert!(dog.observe(&alert_event).is_empty());
        assert!(dog.status().alerts.is_empty());
    }

    #[test]
    fn kind_labels_round_trip() {
        for kind in AlertKind::ALL {
            assert_eq!(AlertKind::from_label(kind.label()), Some(kind));
            assert_eq!(AlertKind::from_label(kind.event_name()), Some(kind));
        }
        assert_eq!(AlertKind::from_label("nonsense"), None);
    }
}
