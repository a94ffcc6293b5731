//! Structured observability for the SWDUAL runtime.
//!
//! The recorder captures *events* — spans and instants — on named
//! tracks, each stamped on up to two clocks:
//!
//! * the **wall clock**: real elapsed seconds since the recorder was
//!   created (`Instant`-based, monotonic);
//! * the **modelled clock**: virtual seconds from the platform's rate
//!   models, the clock the paper's makespan bounds are stated in.
//!
//! A disabled recorder ([`Obs::disabled`], also the `Default`) is a
//! `None` behind a cheap `Clone`; every recording method returns before
//! touching a lock or allocating, so instrumented hot paths (the
//! per-job worker loop, scheduler inner loops) cost a branch when
//! tracing is off. Enabled recorders share one `Arc`'d buffer and may
//! be cloned freely across threads.
//!
//! Exports live in [`export`]: a JSON-lines journal, a
//! Prometheus-style text snapshot, and a Chrome-trace (Perfetto) JSON
//! timeline that overlays the planned schedule against actual
//! per-worker execution.

pub mod analysis;
pub mod bus;
pub mod diff;
pub mod explain;
pub mod export;
pub mod flight;
pub mod journal;
pub mod metrics;
pub mod profile;
pub mod trend;
pub mod watch;

pub use bus::BusSubscriber;
pub use flight::FlightRecorder;

use metrics::Metrics;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which timeline an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// Master orchestration phases (register/allocate/dispatch/merge).
    Master,
    /// Scheduler internals (binary-search iterations, knapsack picks).
    Scheduler,
    /// Actual execution on worker `id`.
    Worker(usize),
    /// Planned (scheduled) occupation of worker `id`.
    Planned(usize),
    /// Recovered occupation of worker `id`: placements re-planned onto
    /// it after another worker died. Kept apart from [`Track::Planned`]
    /// so trace exports can show planned vs actual vs recovered rows.
    Recovered(usize),
    /// Simulated device `id` kernel/transfer activity.
    Device(usize),
    /// Fault-tolerance events: injected faults, detected worker deaths,
    /// timeouts and re-dispatch decisions.
    Faults,
}

impl Track {
    /// Stable text label used by all exporters.
    pub fn label(&self) -> String {
        match self {
            Track::Master => "master".to_string(),
            Track::Scheduler => "scheduler".to_string(),
            Track::Worker(id) => format!("worker:{id}"),
            Track::Planned(id) => format!("planned:{id}"),
            Track::Recovered(id) => format!("recovered:{id}"),
            Track::Device(id) => format!("device:{id}"),
            Track::Faults => "faults".to_string(),
        }
    }

    /// Parse a label produced by [`Track::label`] back into a track.
    /// Used by the journal auditor; returns `None` for unknown labels.
    pub fn from_label(label: &str) -> Option<Track> {
        match label {
            "master" => return Some(Track::Master),
            "scheduler" => return Some(Track::Scheduler),
            "faults" => return Some(Track::Faults),
            _ => {}
        }
        let (kind, id) = label.split_once(':')?;
        let id: usize = id.parse().ok()?;
        match kind {
            "worker" => Some(Track::Worker(id)),
            "planned" => Some(Track::Planned(id)),
            "recovered" => Some(Track::Recovered(id)),
            "device" => Some(Track::Device(id)),
            _ => None,
        }
    }
}

/// Span (has duration) or instant (point in time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An interval with a start and a duration.
    Span,
    /// A point event; durations are zero.
    Instant,
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Timeline the event belongs to.
    pub track: Track,
    /// Event name (e.g. phase, task or kernel identifier).
    pub name: String,
    /// Span or instant.
    pub kind: EventKind,
    /// Wall-clock start, seconds since recorder creation.
    pub wall_start: f64,
    /// Wall-clock duration in seconds (zero for instants).
    pub wall_dur: f64,
    /// Modelled-clock start in seconds, when the event has one.
    pub virt_start: Option<f64>,
    /// Modelled-clock duration in seconds, when the event has one.
    pub virt_dur: Option<f64>,
    /// Free-form numeric annotations.
    pub args: Vec<(String, f64)>,
}

impl Event {
    /// Whether this is a profiling *detail* span that subdivides time
    /// already covered by a coarser span: worker `phase_*` spans live
    /// inside their task span, `kernel_launch`/`kernel_compute` inside
    /// the `kernel` span, and `d2h_transfer` is overlapped readback
    /// that never advances the device clock. Busy-time folds (the
    /// auditor, per-track metric aggregates) must skip these or the
    /// same seconds are counted twice; the profiler is their consumer.
    pub fn is_profile_detail(&self) -> bool {
        self.name.starts_with("phase_")
            || matches!(
                self.name.as_str(),
                "kernel_launch" | "kernel_compute" | "d2h_transfer"
            )
    }

    /// Whether this is a watchdog alert instant (`alert_*` on the
    /// faults track). Alerts are commentary *about* the run, not part
    /// of it: the fault auditor counts them separately, the causal
    /// explainer ignores them, and the watchdog itself skips them to
    /// avoid feedback loops.
    pub fn is_alert(&self) -> bool {
        self.track == Track::Faults && self.name.starts_with("alert_")
    }

    /// The numeric annotation `key`, if the event carries one.
    pub fn arg(&self, key: &str) -> Option<f64> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// The task this event is about: its `task` arg, else the id in a
    /// `task-<id>` name (the only tag v1 journals carry).
    pub fn task(&self) -> Option<i64> {
        self.arg("task")
            .map(|t| t as i64)
            .or_else(|| self.name.strip_prefix("task-")?.parse().ok())
    }

    /// Whether this is an executed job: a worker span that is not
    /// profile detail.
    pub fn is_job(&self) -> bool {
        matches!(self.track, Track::Worker(_))
            && self.kind == EventKind::Span
            && !self.is_profile_detail()
    }

    /// The class a master `device_class:<name>` instant tags its
    /// `worker` arg with.
    pub fn device_class(&self) -> Option<&str> {
        match self.track {
            Track::Master => self.name.strip_prefix("device_class:"),
            _ => None,
        }
    }

    /// `(worker, is_gpu)` of a master `worker_registered` instant.
    pub fn registration(&self) -> Option<(usize, bool)> {
        if self.track != Track::Master || self.name != "worker_registered" {
            return None;
        }
        Some((
            self.arg("worker")? as usize,
            self.arg("is_gpu") == Some(1.0),
        ))
    }

    /// λ of the scheduler's `binsearch_done` instant: its `lambda` arg,
    /// else `upper_bound` (the value `lambda` duplicates).
    pub fn lambda(&self) -> Option<f64> {
        if self.track != Track::Scheduler || self.name != "binsearch_done" {
            return None;
        }
        self.arg("lambda").or_else(|| self.arg("upper_bound"))
    }
}

struct Inner {
    origin: Instant,
    events: Mutex<Vec<Event>>,
    counters: Mutex<BTreeMap<String, f64>>,
    metrics: Metrics,
    /// Whether CUPTI-style phase profiling is on. Tracing can run
    /// without profiling; profiling implies tracing (the phase spans go
    /// through the same event buffer).
    profiling: AtomicBool,
    /// Live broadcast of recorded events to in-process subscribers and
    /// flight-recorder rings. Publication happens under the events
    /// lock, so subscribers observe journal order.
    bus: bus::Bus,
}

/// Handle to a recorder; cheap to clone and share across threads.
///
/// The default handle is disabled: recording methods are no-ops that
/// take no locks and perform no allocations.
#[derive(Clone, Default)]
pub struct Obs(Option<Arc<Inner>>);

impl Obs {
    /// A recorder that drops everything (the default).
    pub fn disabled() -> Obs {
        Obs(None)
    }

    /// A live recorder; its wall clock starts now. Carries a live
    /// [`Metrics`] registry reachable via [`Obs::metrics`]. Profiling
    /// is off until [`Obs::set_profiling`] switches it on.
    pub fn enabled() -> Obs {
        Obs(Some(Arc::new(Inner {
            origin: Instant::now(),
            events: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            metrics: Metrics::enabled(),
            profiling: AtomicBool::new(false),
            bus: bus::Bus::default(),
        })))
    }

    /// Switch phase profiling on or off. No-op on a disabled recorder
    /// (a disabled recorder can never profile).
    pub fn set_profiling(&self, on: bool) {
        if let Some(inner) = &self.0 {
            inner.profiling.store(on, Ordering::Relaxed);
        }
    }

    /// Whether instrumented code should record phase-level spans
    /// (profile build / DP loop / kernel launch / compute / transfer).
    /// Always false when the recorder is disabled; checking costs one
    /// branch plus one relaxed atomic load — no locks, no allocation.
    pub fn is_profiling(&self) -> bool {
        match &self.0 {
            Some(inner) => inner.profiling.load(Ordering::Relaxed),
            None => false,
        }
    }

    /// The live-metrics registry carried by this recorder. Disabled
    /// when the recorder is.
    pub fn metrics(&self) -> Metrics {
        match &self.0 {
            Some(inner) => inner.metrics.clone(),
            None => Metrics::disabled(),
        }
    }

    /// Whether events are being kept.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Wall-clock seconds since the recorder was created (0 when
    /// disabled).
    pub fn now(&self) -> f64 {
        match &self.0 {
            Some(inner) => inner.origin.elapsed().as_secs_f64(),
            None => 0.0,
        }
    }

    /// Record a span with explicit wall times and optional modelled
    /// times. `virt` is `(start, duration)` on the modelled clock.
    pub fn span(
        &self,
        track: Track,
        name: &str,
        wall_start: f64,
        wall_dur: f64,
        virt: Option<(f64, f64)>,
        args: &[(&str, f64)],
    ) {
        let Some(inner) = &self.0 else { return };
        let event = Event {
            track,
            name: name.to_string(),
            kind: EventKind::Span,
            wall_start,
            wall_dur,
            virt_start: virt.map(|(s, _)| s),
            virt_dur: virt.map(|(_, d)| d),
            args: args.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        };
        let mut events = inner.events.lock().expect("obs events lock");
        inner.bus.publish(&event);
        events.push(event);
    }

    /// Record a span that exists only on the modelled clock (e.g. a
    /// planned placement). It is pinned at wall time zero.
    pub fn virtual_span(
        &self,
        track: Track,
        name: &str,
        virt_start: f64,
        virt_dur: f64,
        args: &[(&str, f64)],
    ) {
        if self.0.is_none() {
            return;
        }
        self.span(track, name, 0.0, 0.0, Some((virt_start, virt_dur)), args);
    }

    /// Record a point event at the current wall time.
    pub fn instant(&self, track: Track, name: &str, args: &[(&str, f64)]) {
        let Some(inner) = &self.0 else { return };
        let event = Event {
            track,
            name: name.to_string(),
            kind: EventKind::Instant,
            wall_start: inner.origin.elapsed().as_secs_f64(),
            wall_dur: 0.0,
            virt_start: None,
            virt_dur: None,
            args: args.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        };
        let mut events = inner.events.lock().expect("obs events lock");
        inner.bus.publish(&event);
        events.push(event);
    }

    /// Open a bounded live subscription on this recorder's event bus
    /// with the default capacity
    /// ([`bus::DEFAULT_SUBSCRIBER_CAPACITY`]). On a disabled recorder
    /// the returned subscriber is inert and nothing is allocated.
    pub fn subscribe(&self) -> BusSubscriber {
        self.subscribe_with_capacity(bus::DEFAULT_SUBSCRIBER_CAPACITY)
    }

    /// Open a bounded live subscription holding at most `capacity`
    /// pending events. When the queue is full the publisher drops the
    /// new event for this subscriber (accounted in
    /// [`BusSubscriber::dropped`] and [`Obs::bus_dropped_events`])
    /// rather than blocking the recording path.
    pub fn subscribe_with_capacity(&self, capacity: usize) -> BusSubscriber {
        match &self.0 {
            Some(inner) => BusSubscriber::live(inner.bus.subscribe(capacity)),
            None => BusSubscriber::disabled(),
        }
    }

    /// Attach a [`FlightRecorder`] ring so it shadows every event
    /// recorded from now on (overwrite-oldest, never drops the
    /// newest). No-op on a disabled recorder.
    pub fn attach_flight(&self, flight: &FlightRecorder) {
        if let Some(inner) = &self.0 {
            inner.bus.attach_ring(flight.ring());
        }
    }

    /// Total events dropped across all bus subscribers because their
    /// queues were full. Exported as `swdual_bus_dropped_events`.
    pub fn bus_dropped_events(&self) -> u64 {
        match &self.0 {
            Some(inner) => inner.bus.dropped_total(),
            None => 0,
        }
    }

    /// Add `delta` to the named aggregate counter. Mirrored into the
    /// live registry so every journal counter also appears in metric
    /// snapshots.
    pub fn counter(&self, name: &str, delta: f64) {
        let Some(inner) = &self.0 else { return };
        {
            let mut counters = inner.counters.lock().expect("obs counters lock");
            match counters.get_mut(name) {
                Some(v) => *v += delta,
                None => {
                    counters.insert(name.to_string(), delta);
                }
            }
        }
        inner.metrics.counter(name, &[], delta);
    }

    /// Snapshot of all recorded events, in recording order.
    pub fn events(&self) -> Vec<Event> {
        match &self.0 {
            Some(inner) => inner.events.lock().expect("obs events lock").clone(),
            None => Vec::new(),
        }
    }

    /// Snapshot of the events recorded at or after index `start`, in
    /// recording order. Lets pull-based streamers (the `--live-socket`
    /// writer) page through the retained journal with a cursor instead
    /// of holding a bounded subscription they might overflow.
    pub fn events_since(&self, start: usize) -> Vec<Event> {
        match &self.0 {
            Some(inner) => {
                let events = inner.events.lock().expect("obs events lock");
                events
                    .get(start..)
                    .map(<[Event]>::to_vec)
                    .unwrap_or_default()
            }
            None => Vec::new(),
        }
    }

    /// Snapshot of all counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, f64)> {
        match &self.0 {
            Some(inner) => inner
                .counters
                .lock()
                .expect("obs counters lock")
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Number of recorded events.
    pub fn event_count(&self) -> usize {
        match &self.0 {
            Some(inner) => inner.events.lock().expect("obs events lock").len(),
            None => 0,
        }
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .field("events", &self.event_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let obs = Obs::disabled();
        obs.span(Track::Master, "phase", 0.0, 1.0, None, &[]);
        obs.instant(Track::Scheduler, "tick", &[("lambda", 0.5)]);
        obs.counter("cells", 100.0);
        assert!(!obs.is_enabled());
        assert_eq!(obs.event_count(), 0);
        assert!(obs.events().is_empty());
        assert!(obs.counters().is_empty());
        assert_eq!(obs.now(), 0.0);
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Obs::default().is_enabled());
    }

    #[test]
    fn enabled_records_spans_and_counters() {
        let obs = Obs::enabled();
        obs.span(
            Track::Worker(2),
            "task-0",
            0.5,
            1.5,
            Some((0.0, 2.0)),
            &[("cells", 64.0)],
        );
        obs.virtual_span(Track::Planned(2), "task-0", 0.0, 2.0, &[]);
        obs.counter("cells", 64.0);
        obs.counter("cells", 36.0);

        let events = obs.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].track, Track::Worker(2));
        assert_eq!(events[0].name, "task-0");
        assert_eq!(events[0].virt_dur, Some(2.0));
        assert_eq!(events[0].args, vec![("cells".to_string(), 64.0)]);
        assert_eq!(events[1].track, Track::Planned(2));
        assert_eq!(obs.counters(), vec![("cells".to_string(), 100.0)]);
    }

    #[test]
    fn clones_share_the_buffer() {
        let obs = Obs::enabled();
        let other = obs.clone();
        other.instant(Track::Master, "from-clone", &[]);
        assert_eq!(obs.event_count(), 1);
    }

    #[test]
    fn threads_can_record_concurrently() {
        let obs = Obs::enabled();
        std::thread::scope(|scope| {
            for w in 0..4 {
                let handle = obs.clone();
                scope.spawn(move || {
                    for j in 0..25 {
                        handle.span(Track::Worker(w), &format!("job-{j}"), 0.0, 0.1, None, &[]);
                        handle.counter("jobs", 1.0);
                    }
                });
            }
        });
        assert_eq!(obs.event_count(), 100);
        assert_eq!(obs.counters(), vec![("jobs".to_string(), 100.0)]);
    }

    #[test]
    fn accessors_decode_event_tags() {
        let obs = Obs::enabled();
        obs.span(Track::Worker(1), "task-7", 0.0, 1.0, None, &[]);
        obs.span(
            Track::Worker(1),
            "phase_dp_inner",
            0.0,
            1.0,
            None,
            &[("task", 3.0)],
        );
        obs.instant(
            Track::Master,
            "worker_registered",
            &[("worker", 2.0), ("is_gpu", 1.0)],
        );
        obs.instant(Track::Master, "device_class:knl", &[("worker", 2.0)]);
        obs.instant(Track::Scheduler, "binsearch_done", &[("upper_bound", 4.5)]);
        obs.instant(Track::Faults, "device_class:knl", &[]);
        let e = obs.events();
        assert_eq!(e[0].task(), Some(7), "task id from the name");
        assert_eq!(e[1].task(), Some(3), "task id from the arg");
        assert_eq!(e[2].task(), None);
        assert!(e[0].is_job() && !e[1].is_job() && !e[2].is_job());
        assert_eq!(e[2].registration(), Some((2, true)));
        assert_eq!(e[3].registration(), None);
        assert_eq!(e[3].device_class(), Some("knl"));
        assert_eq!(
            e[5].device_class(),
            None,
            "only master instants tag classes"
        );
        assert_eq!(e[4].lambda(), Some(4.5), "λ falls back to upper_bound");
        assert_eq!(e[2].lambda(), None);
        assert_eq!(e[3].arg("worker"), Some(2.0));
    }

    #[test]
    fn track_labels_are_stable() {
        assert_eq!(Track::Master.label(), "master");
        assert_eq!(Track::Scheduler.label(), "scheduler");
        assert_eq!(Track::Worker(3).label(), "worker:3");
        assert_eq!(Track::Planned(3).label(), "planned:3");
        assert_eq!(Track::Recovered(3).label(), "recovered:3");
        assert_eq!(Track::Device(0).label(), "device:0");
        assert_eq!(Track::Faults.label(), "faults");
    }

    #[test]
    fn track_labels_round_trip() {
        for track in [
            Track::Master,
            Track::Scheduler,
            Track::Worker(7),
            Track::Planned(0),
            Track::Recovered(12),
            Track::Device(3),
            Track::Faults,
        ] {
            assert_eq!(Track::from_label(&track.label()), Some(track));
        }
        assert_eq!(Track::from_label("worker"), None);
        assert_eq!(Track::from_label("worker:x"), None);
        assert_eq!(Track::from_label("submarine:1"), None);
    }

    #[test]
    fn counters_mirror_into_the_registry() {
        let obs = Obs::enabled();
        obs.counter("cells", 42.0);
        obs.counter("cells", 8.0);
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counter_value("cells", &[]), Some(50.0));
    }

    #[test]
    fn disabled_obs_has_disabled_metrics() {
        assert!(!Obs::disabled().metrics().is_enabled());
        assert!(Obs::enabled().metrics().is_enabled());
    }

    #[test]
    fn profiling_flag_defaults_off_and_toggles() {
        let obs = Obs::enabled();
        assert!(!obs.is_profiling());
        obs.set_profiling(true);
        assert!(obs.is_profiling());
        // Clones share the flag (same Arc'd inner).
        let clone = obs.clone();
        assert!(clone.is_profiling());
        clone.set_profiling(false);
        assert!(!obs.is_profiling());
    }

    #[test]
    fn disabled_recorder_never_profiles() {
        let obs = Obs::disabled();
        obs.set_profiling(true);
        assert!(!obs.is_profiling());
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let obs = Obs::enabled();
        let a = obs.now();
        let b = obs.now();
        assert!(b >= a);
    }
}
