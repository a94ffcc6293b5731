//! Exporters over a recorded event stream.
//!
//! Three formats:
//!
//! * [`journal_jsonl`] — one JSON object per line per event, in
//!   recording order; the raw material for ad-hoc analysis.
//! * [`metrics_text`] — Prometheus-style text exposition: aggregate
//!   counters plus busy-time/event-count gauges derived per track.
//! * [`chrome_trace`] — Chrome-trace (Perfetto / `chrome://tracing`)
//!   JSON. Three synthetic processes separate the clocks: pid 1 holds
//!   wall-clock spans, pid 2 holds modelled-clock *actual* execution,
//!   pid 3 holds the *planned* schedule — so loading the file shows
//!   plan vs reality side by side on the same modelled time axis.
//! * [`flamegraph_folded`] — collapsed-stack text over a folded
//!   [`Profile`], one `frame;frame;frame weight` line per stack, the
//!   format `inferno-flamegraph` / `flamegraph.pl` consume.
//! * [`speedscope_json`] — the <https://www.speedscope.app> file
//!   format, carrying the wall and modelled clocks as two sampled
//!   profiles over a shared frame table.

use crate::profile::{Profile, ProfileClock};
use crate::{Event, EventKind, Obs, Track};
use serde::Value;

/// Microseconds in the trace's time unit per second of ours.
const TRACE_US: f64 = 1.0e6;

fn args_value(event: &Event) -> Value {
    Value::Object(
        event
            .args
            .iter()
            .map(|(k, v)| (k.clone(), Value::Float(*v)))
            .collect(),
    )
}

/// Render the journal schema header line (no trailing newline):
/// `{"schema":"swdual-journal/2","events":N}`. Streaming writers that
/// cannot know the final count up front pass 0 —
/// [`crate::journal::validate_header`] checks the schema only.
pub fn journal_header(events: usize) -> String {
    serde_json::to_string(&Value::Object(vec![
        (
            "schema".to_string(),
            Value::Str(crate::journal::JOURNAL_SCHEMA.to_string()),
        ),
        ("events".to_string(), Value::UInt(events as u64)),
    ]))
    .expect("journal header serialises")
}

/// Render one event as a journal JSON line (no trailing newline).
/// This is the single serialisation used by [`journal_jsonl`], the
/// flight recorder's crash dump and the live socket streamer, so every
/// producer emits lines [`crate::journal::parse_journal`] accepts.
pub fn journal_event_line(event: &Event) -> String {
    let mut fields = vec![
        ("track".to_string(), Value::Str(event.track.label())),
        ("name".to_string(), Value::Str(event.name.clone())),
        (
            "kind".to_string(),
            Value::Str(
                match event.kind {
                    EventKind::Span => "span",
                    EventKind::Instant => "instant",
                }
                .to_string(),
            ),
        ),
        ("wall_start".to_string(), Value::Float(event.wall_start)),
        ("wall_dur".to_string(), Value::Float(event.wall_dur)),
    ];
    if let (Some(vs), Some(vd)) = (event.virt_start, event.virt_dur) {
        fields.push(("virt_start".to_string(), Value::Float(vs)));
        fields.push(("virt_dur".to_string(), Value::Float(vd)));
    }
    if !event.args.is_empty() {
        fields.push(("args".to_string(), args_value(event)));
    }
    serde_json::to_string(&Value::Object(fields)).expect("journal event serialises")
}

/// Render all events as JSON lines: a schema header, then one event
/// per line. The header line
/// `{"schema":"swdual-journal/1","events":N}` lets
/// [`analysis::analyze_journal`](crate::analysis::analyze_journal)
/// reject incompatible journals with a typed error instead of garbage
/// output. A disabled recorder renders an empty journal (no header).
pub fn journal_jsonl(obs: &Obs) -> String {
    let mut out = String::new();
    if !obs.is_enabled() {
        return out;
    }
    let events = obs.events();
    out.push_str(&journal_header(events.len()));
    out.push('\n');
    for event in events {
        out.push_str(&journal_event_line(&event));
        out.push('\n');
    }
    out
}

/// Restrict a metric name to the Prometheus charset
/// `[a-zA-Z0-9_:]` (everything else becomes `_`).
fn sanitize_metric(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Escape a label *value* per the Prometheus text exposition format:
/// backslash, double quote and newline.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Render a `{k="v",...}` label block ("" when no labels).
fn label_block(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_metric(k), escape_label(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

fn help_and_type(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n"));
    out.push_str(&format!("# TYPE {name} {kind}\n"));
}

/// Render counters, per-track aggregates and the live-metrics registry
/// (gauges and log-bucketed histograms) in Prometheus text format.
///
/// Output ordering is stable: fixed section order, series sorted by
/// name then labels inside each section. Label values are escaped per
/// the exposition format.
pub fn metrics_text(obs: &Obs) -> String {
    let mut out = String::new();

    help_and_type(
        &mut out,
        "swdual_events_total",
        "counter",
        "Events recorded in the journal.",
    );
    out.push_str(&format!("swdual_events_total {}\n", obs.event_count()));

    help_and_type(
        &mut out,
        "swdual_bus_dropped_events",
        "counter",
        "Events dropped by saturated live-bus subscriber queues.",
    );
    out.push_str(&format!(
        "swdual_bus_dropped_events {}\n",
        obs.bus_dropped_events()
    ));

    let counters = obs.counters();
    if !counters.is_empty() {
        help_and_type(
            &mut out,
            "swdual_counter",
            "counter",
            "Aggregate counters from the event recorder.",
        );
        for (name, value) in &counters {
            out.push_str(&format!(
                "swdual_counter{{name=\"{}\"}} {}\n",
                escape_label(name),
                value
            ));
        }
    }

    // Busy seconds and span counts per track, on both clocks.
    // Profiling detail spans subdivide coarser spans already counted,
    // so they are excluded from the busy aggregates.
    let mut tracks: Vec<(Track, f64, f64, u64)> = Vec::new();
    for event in obs.events() {
        if event.kind != EventKind::Span || event.is_profile_detail() {
            continue;
        }
        let entry = match tracks.iter_mut().find(|(t, ..)| *t == event.track) {
            Some(entry) => entry,
            None => {
                tracks.push((event.track, 0.0, 0.0, 0));
                tracks.last_mut().expect("just pushed")
            }
        };
        entry.1 += event.wall_dur;
        entry.2 += event.virt_dur.unwrap_or(0.0);
        entry.3 += 1;
    }
    tracks.sort_by_key(|(t, ..)| *t);
    if !tracks.is_empty() {
        help_and_type(
            &mut out,
            "swdual_track_busy_wall_seconds",
            "gauge",
            "Wall-clock busy seconds per track.",
        );
        for (track, wall, _, _) in &tracks {
            out.push_str(&format!(
                "swdual_track_busy_wall_seconds{{track=\"{}\"}} {}\n",
                escape_label(&track.label()),
                wall
            ));
        }
        help_and_type(
            &mut out,
            "swdual_track_busy_modelled_seconds",
            "gauge",
            "Modelled-clock busy seconds per track.",
        );
        for (track, _, virt, _) in &tracks {
            out.push_str(&format!(
                "swdual_track_busy_modelled_seconds{{track=\"{}\"}} {}\n",
                escape_label(&track.label()),
                virt
            ));
        }
        help_and_type(
            &mut out,
            "swdual_track_spans_total",
            "counter",
            "Spans recorded per track.",
        );
        for (track, _, _, spans) in &tracks {
            out.push_str(&format!(
                "swdual_track_spans_total{{track=\"{}\"}} {}\n",
                escape_label(&track.label()),
                spans
            ));
        }
    }

    // Live-metrics registry: gauges, labelled counters, histograms.
    let snapshot = obs.metrics().snapshot();

    let labelled: Vec<_> = snapshot
        .counters
        .iter()
        .filter(|(k, _)| !k.labels.is_empty())
        .collect();
    let mut last_name = String::new();
    for (key, value) in labelled {
        let name = format!("swdual_{}_total", sanitize_metric(&key.name));
        if name != last_name {
            help_and_type(
                &mut out,
                &name,
                "counter",
                "Labelled counter from the live-metrics registry.",
            );
            last_name = name.clone();
        }
        out.push_str(&format!("{}{} {}\n", name, label_block(&key.labels), value));
    }

    let mut last_name = String::new();
    for (key, value) in &snapshot.gauges {
        let name = format!("swdual_{}", sanitize_metric(&key.name));
        if name != last_name {
            help_and_type(
                &mut out,
                &name,
                "gauge",
                "Gauge from the live-metrics registry.",
            );
            last_name = name.clone();
        }
        out.push_str(&format!("{}{} {}\n", name, label_block(&key.labels), value));
    }

    let mut last_name = String::new();
    for (key, histogram) in &snapshot.histograms {
        let name = format!("swdual_{}", sanitize_metric(&key.name));
        if name != last_name {
            help_and_type(
                &mut out,
                &name,
                "histogram",
                "Log-bucketed histogram from the live-metrics registry.",
            );
            last_name = name.clone();
        }
        let mut cumulative = 0u64;
        for (upper, count) in &histogram.buckets {
            cumulative += count;
            let mut labels = key.labels.clone();
            labels.push(("le".to_string(), format!("{upper}")));
            out.push_str(&format!(
                "{}_bucket{} {}\n",
                name,
                label_block(&labels),
                cumulative
            ));
        }
        let mut labels = key.labels.clone();
        labels.push(("le".to_string(), "+Inf".to_string()));
        out.push_str(&format!(
            "{}_bucket{} {}\n",
            name,
            label_block(&labels),
            histogram.count
        ));
        out.push_str(&format!(
            "{}_sum{} {}\n",
            name,
            label_block(&key.labels),
            histogram.sum
        ));
        out.push_str(&format!(
            "{}_count{} {}\n",
            name,
            label_block(&key.labels),
            histogram.count
        ));
    }

    out
}

/// Process ids separating the four timelines in the trace viewer.
const PID_WALL: u64 = 1;
const PID_MODELLED: u64 = 2;
const PID_PLANNED: u64 = 3;
const PID_RECOVERED: u64 = 4;

/// Thread id inside a trace process for a track.
fn trace_tid(track: Track) -> u64 {
    match track {
        Track::Master => 0,
        Track::Scheduler => 1,
        Track::Faults => 2,
        Track::Worker(id) | Track::Planned(id) | Track::Recovered(id) => 10 + id as u64,
        Track::Device(id) => 1000 + id as u64,
    }
}

fn meta_event(pid: u64, tid: Option<u64>, which: &str, label: &str) -> Value {
    let mut fields = vec![
        ("ph".to_string(), Value::Str("M".to_string())),
        ("pid".to_string(), Value::UInt(pid)),
        ("name".to_string(), Value::Str(which.to_string())),
        (
            "args".to_string(),
            Value::Object(vec![("name".to_string(), Value::Str(label.to_string()))]),
        ),
    ];
    if let Some(tid) = tid {
        fields.insert(2, ("tid".to_string(), Value::UInt(tid)));
    }
    Value::Object(fields)
}

fn complete_event(pid: u64, tid: u64, event: &Event, start: f64, dur: f64) -> Value {
    Value::Object(vec![
        ("ph".to_string(), Value::Str("X".to_string())),
        ("pid".to_string(), Value::UInt(pid)),
        ("tid".to_string(), Value::UInt(tid)),
        ("name".to_string(), Value::Str(event.name.clone())),
        ("ts".to_string(), Value::Float(start * TRACE_US)),
        ("dur".to_string(), Value::Float(dur * TRACE_US)),
        ("args".to_string(), args_value(event)),
    ])
}

/// A flow event (`ph` ∈ {s, t, f}) tying causally-linked trace points
/// together with a shared id; the viewer draws arrows along them.
fn flow_event(ph: &str, pid: u64, tid: u64, ts: f64, task: i64) -> Value {
    let mut fields = vec![
        ("ph".to_string(), Value::Str(ph.to_string())),
        ("cat".to_string(), Value::Str("lineage".to_string())),
        ("id".to_string(), Value::UInt(task.max(0) as u64)),
        ("name".to_string(), Value::Str(format!("task-{task}"))),
        ("pid".to_string(), Value::UInt(pid)),
        ("tid".to_string(), Value::UInt(tid)),
        ("ts".to_string(), Value::Float(ts * TRACE_US)),
    ];
    if ph == "f" {
        // Bind the flow end to the enclosing slice.
        fields.push(("bp".to_string(), Value::Str("e".to_string())));
    }
    Value::Object(fields)
}

fn instant_event(pid: u64, tid: u64, event: &Event) -> Value {
    Value::Object(vec![
        ("ph".to_string(), Value::Str("i".to_string())),
        ("pid".to_string(), Value::UInt(pid)),
        ("tid".to_string(), Value::UInt(tid)),
        ("name".to_string(), Value::Str(event.name.clone())),
        ("ts".to_string(), Value::Float(event.wall_start * TRACE_US)),
        ("s".to_string(), Value::Str("t".to_string())),
        ("args".to_string(), args_value(event)),
    ])
}

/// Render the event stream as Chrome-trace JSON.
///
/// The returned document has a single `traceEvents` array. Load it in
/// `chrome://tracing` or <https://ui.perfetto.dev>: the "planned
/// schedule" process mirrors the "modelled execution" process row for
/// row, so slippage between the scheduler's plan and what the workers
/// actually did is visible at a glance.
pub fn chrome_trace(obs: &Obs) -> String {
    let events = obs.events();
    let mut trace: Vec<Value> = vec![
        meta_event(PID_WALL, None, "process_name", "wall clock"),
        meta_event(PID_MODELLED, None, "process_name", "modelled execution"),
        meta_event(PID_PLANNED, None, "process_name", "planned schedule"),
        meta_event(PID_RECOVERED, None, "process_name", "recovered schedule"),
    ];

    // Name each (pid, tid) row after its track.
    let mut named: Vec<(u64, u64)> = Vec::new();
    for event in &events {
        let tid = trace_tid(event.track);
        let pids: &[u64] = match event.track {
            Track::Planned(_) => &[PID_PLANNED],
            Track::Recovered(_) => &[PID_RECOVERED],
            _ => &[PID_WALL, PID_MODELLED],
        };
        for &pid in pids {
            if !named.contains(&(pid, tid)) {
                named.push((pid, tid));
                trace.push(meta_event(
                    pid,
                    Some(tid),
                    "thread_name",
                    &event.track.label(),
                ));
            }
        }
    }

    for event in &events {
        let tid = trace_tid(event.track);
        match event.track {
            Track::Planned(_) => {
                // Planned placements live on the modelled clock only.
                if let (Some(vs), Some(vd)) = (event.virt_start, event.virt_dur) {
                    trace.push(complete_event(PID_PLANNED, tid, event, vs, vd));
                }
            }
            Track::Recovered(_) => {
                // Re-planned placements likewise: modelled clock only,
                // on their own process row.
                if let (Some(vs), Some(vd)) = (event.virt_start, event.virt_dur) {
                    trace.push(complete_event(PID_RECOVERED, tid, event, vs, vd));
                }
            }
            _ => match event.kind {
                EventKind::Span => {
                    trace.push(complete_event(
                        PID_WALL,
                        tid,
                        event,
                        event.wall_start,
                        event.wall_dur,
                    ));
                    if let (Some(vs), Some(vd)) = (event.virt_start, event.virt_dur) {
                        trace.push(complete_event(PID_MODELLED, tid, event, vs, vd));
                    }
                }
                EventKind::Instant => {
                    trace.push(instant_event(PID_WALL, tid, event));
                }
            },
        }
    }

    // Causal flow arrows along the lineage edges: planned (or
    // recovered) placement → task_dispatch instant(s) → actual
    // execution. One flow per task id; journals without lineage
    // (v1, self-scheduling) simply contribute fewer arrows.
    let mut started: Vec<i64> = Vec::new();
    for event in &events {
        let tid = trace_tid(event.track);
        match event.track {
            Track::Planned(_) | Track::Recovered(_) => {
                if let (Some(task), Some(vs)) = (event.task(), event.virt_start) {
                    if !started.contains(&task) {
                        started.push(task);
                        let pid = if matches!(event.track, Track::Planned(_)) {
                            PID_PLANNED
                        } else {
                            PID_RECOVERED
                        };
                        trace.push(flow_event("s", pid, tid, vs, task));
                    }
                }
            }
            Track::Master if event.name == "task_dispatch" => {
                if let Some(task) = event.task() {
                    let ph = if started.contains(&task) {
                        "t"
                    } else {
                        started.push(task);
                        "s"
                    };
                    trace.push(flow_event(ph, PID_WALL, tid, event.wall_start, task));
                }
            }
            _ if event.is_job() => {
                if let Some(task) = event.task() {
                    if started.contains(&task) {
                        trace.push(flow_event("f", PID_WALL, tid, event.wall_start, task));
                    }
                }
            }
            _ => {}
        }
    }

    serde_json::to_string_pretty(&Value::Object(vec![(
        "traceEvents".to_string(),
        Value::Array(trace),
    )]))
    .expect("trace serialises")
}

/// Render a folded [`Profile`] as collapsed-stack flamegraph text on
/// the chosen clock: one `root;child;leaf <µs>` line per stack, weights
/// in integer microseconds (the unit `inferno-flamegraph` and
/// `flamegraph.pl` default to). Stacks that round to zero are dropped.
/// Lines are emitted in the profile's stable frame order, so output is
/// deterministic for a given journal.
pub fn flamegraph_folded(profile: &Profile, clock: ProfileClock) -> String {
    let mut out = String::new();
    for stack in &profile.stacks {
        let weight = match clock {
            ProfileClock::Wall => stack.wall,
            ProfileClock::Modelled => stack.modelled,
        };
        let micros = (weight * 1e6).round() as u64;
        if micros == 0 {
            continue;
        }
        out.push_str(&stack.frames.join(";"));
        out.push(' ');
        out.push_str(&micros.to_string());
        out.push('\n');
    }
    out
}

/// Render a folded [`Profile`] as speedscope JSON: a shared frame
/// table plus two `sampled` profiles — "wall clock" and "modelled
/// clock" — whose samples are the profile's stacks (root-first frame
/// indices) and whose weights are self seconds. Open the file at
/// <https://www.speedscope.app> and switch between the two clocks with
/// the profile selector.
pub fn speedscope_json(profile: &Profile) -> String {
    // Shared frame table: dedup frame names, stable first-seen order.
    let mut frames: Vec<String> = Vec::new();
    let mut index_of = std::collections::BTreeMap::new();
    for stack in &profile.stacks {
        for frame in &stack.frames {
            if !index_of.contains_key(frame) {
                index_of.insert(frame.clone(), frames.len() as u64);
                frames.push(frame.clone());
            }
        }
    }
    let frame_table = Value::Array(
        frames
            .iter()
            .map(|name| Value::Object(vec![("name".to_string(), Value::Str(name.clone()))]))
            .collect(),
    );

    let sampled = |name: &str, clock: ProfileClock| -> Value {
        let mut samples: Vec<Value> = Vec::new();
        let mut weights: Vec<Value> = Vec::new();
        let mut total = 0.0;
        for stack in &profile.stacks {
            let weight = match clock {
                ProfileClock::Wall => stack.wall,
                ProfileClock::Modelled => stack.modelled,
            };
            if weight <= 0.0 {
                continue;
            }
            samples.push(Value::Array(
                stack
                    .frames
                    .iter()
                    .map(|f| Value::UInt(index_of[f]))
                    .collect(),
            ));
            weights.push(Value::Float(weight));
            total += weight;
        }
        Value::Object(vec![
            ("type".to_string(), Value::Str("sampled".to_string())),
            ("name".to_string(), Value::Str(name.to_string())),
            ("unit".to_string(), Value::Str("seconds".to_string())),
            ("startValue".to_string(), Value::Float(0.0)),
            ("endValue".to_string(), Value::Float(total)),
            ("samples".to_string(), Value::Array(samples)),
            ("weights".to_string(), Value::Array(weights)),
        ])
    };

    serde_json::to_string_pretty(&Value::Object(vec![
        (
            "$schema".to_string(),
            Value::Str("https://www.speedscope.app/file-format-schema.json".to_string()),
        ),
        ("name".to_string(), Value::Str("swdual profile".to_string())),
        ("exporter".to_string(), Value::Str("swdual".to_string())),
        ("activeProfileIndex".to_string(), Value::UInt(0)),
        (
            "shared".to_string(),
            Value::Object(vec![("frames".to_string(), frame_table)]),
        ),
        (
            "profiles".to_string(),
            Value::Array(vec![
                sampled("wall clock", ProfileClock::Wall),
                sampled("modelled clock", ProfileClock::Modelled),
            ]),
        ),
    ]))
    .expect("speedscope document serialises")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_obs() -> Obs {
        let obs = Obs::enabled();
        obs.span(Track::Master, "allocate", 0.0, 0.2, None, &[]);
        obs.span(
            Track::Worker(0),
            "task-0",
            0.2,
            1.0,
            Some((0.0, 1.1)),
            &[("cells", 42.0)],
        );
        obs.virtual_span(Track::Planned(0), "task-0", 0.0, 1.0, &[]);
        obs.instant(Track::Scheduler, "lambda", &[("value", 0.7)]);
        obs.counter("cells", 42.0);
        obs
    }

    #[test]
    fn journal_emits_header_then_one_line_per_event() {
        let journal = journal_jsonl(&sample_obs());
        let lines: Vec<&str> = journal.lines().collect();
        assert_eq!(lines.len(), 5);
        let header: Value = serde_json::from_str(lines[0]).expect("header parses");
        assert_eq!(
            header.get("schema").and_then(Value::as_str),
            Some(crate::journal::JOURNAL_SCHEMA)
        );
        assert_eq!(header.get("events").and_then(Value::as_u64), Some(4));
        for line in &lines[1..] {
            let value: Value = serde_json::from_str(line).expect("journal line parses");
            assert!(value.get("track").is_some());
            assert!(value.get("name").is_some());
        }
        assert!(lines[2].contains("\"virt_dur\""));
        assert!(lines[4].contains("\"instant\""));
    }

    #[test]
    fn metrics_include_counters_and_track_aggregates() {
        let metrics = metrics_text(&sample_obs());
        assert!(metrics.contains("swdual_events_total 4"));
        assert!(metrics.contains("swdual_counter{name=\"cells\"} 42"));
        assert!(metrics.contains("swdual_track_busy_wall_seconds{track=\"worker:0\"} 1"));
        assert!(metrics.contains("swdual_track_busy_modelled_seconds{track=\"worker:0\"} 1.1"));
        assert!(metrics.contains("swdual_track_spans_total{track=\"master\"} 1"));
    }

    #[test]
    fn metrics_format_regression() {
        // Exact shape of the exposition format: every series preceded
        // by # HELP and # TYPE, stable ordering, escaped label values,
        // histograms with cumulative buckets, +Inf, _sum and _count.
        let obs = sample_obs();
        let m = obs.metrics();
        m.gauge("queue_depth", &[], 3.0);
        m.observe("job_wall_seconds", &[("worker", "0")], 0.010);
        m.observe("job_wall_seconds", &[("worker", "0")], 0.020);
        m.counter("worker_jobs", &[("worker", "a\"b\\c\nd")], 2.0);
        let text = metrics_text(&obs);
        let lines: Vec<&str> = text.lines().collect();

        // Every non-comment metric family is introduced by HELP + TYPE.
        for family in [
            "swdual_events_total",
            "swdual_counter",
            "swdual_track_busy_wall_seconds",
            "swdual_worker_jobs_total",
            "swdual_queue_depth",
            "swdual_job_wall_seconds",
        ] {
            let help = lines
                .iter()
                .position(|l| l.starts_with(&format!("# HELP {family} ")))
                .unwrap_or_else(|| panic!("missing HELP for {family}"));
            assert!(
                lines[help + 1]
                    .strip_prefix(&format!("# TYPE {family} "))
                    .is_some(),
                "TYPE must follow HELP for {family}"
            );
        }

        // Label-value escaping: backslash, quote and newline.
        assert!(
            text.contains("swdual_worker_jobs_total{worker=\"a\\\"b\\\\c\\nd\"} 2"),
            "escaped label value missing in:\n{text}"
        );

        // Gauge section.
        assert!(text.contains("swdual_queue_depth 3"));

        // Histogram: cumulative buckets end at +Inf == _count.
        let bucket_lines: Vec<&str> = lines
            .iter()
            .filter(|l| l.starts_with("swdual_job_wall_seconds_bucket"))
            .copied()
            .collect();
        assert!(bucket_lines.len() >= 3, "two buckets plus +Inf");
        let last = bucket_lines.last().unwrap();
        assert!(last.contains("le=\"+Inf\""));
        assert!(last.ends_with(" 2"));
        assert!(text.contains("swdual_job_wall_seconds_count{worker=\"0\"} 2"));
        assert!(text.contains("swdual_job_wall_seconds_sum{worker=\"0\"} 0.03"));
        // Cumulative counts are non-decreasing.
        let counts: Vec<u64> = bucket_lines
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");

        // Stable ordering: rendering twice gives identical text.
        assert_eq!(text, metrics_text(&obs));
    }

    #[test]
    fn metrics_expose_bus_drops_and_alert_counters() {
        // Format regression for the live-observability series: the bus
        // drop counter is always present (0 when nothing dropped), and
        // watchdog alerts surface as swdual_alerts_total{kind=...}.
        let obs = sample_obs();
        let text = metrics_text(&obs);
        assert!(text.contains("# HELP swdual_bus_dropped_events "), "{text}");
        assert!(text.contains("# TYPE swdual_bus_dropped_events counter"));
        assert!(text.contains("\nswdual_bus_dropped_events 0\n"));

        // Saturate a tiny subscriber: the counter reflects the drops.
        let sub = obs.subscribe_with_capacity(1);
        obs.instant(Track::Master, "x", &[]);
        obs.instant(Track::Master, "y", &[]);
        obs.instant(Track::Master, "z", &[]);
        drop(sub);
        assert!(metrics_text(&obs).contains("\nswdual_bus_dropped_events 2\n"));

        // Alert counters ride the labelled-counter section with the
        // exact family name the satellite requires.
        obs.metrics()
            .counter("alerts", &[("kind", "straggler")], 1.0);
        obs.metrics()
            .counter("alerts", &[("kind", "worker-dead")], 2.0);
        let text = metrics_text(&obs);
        assert!(
            text.contains("# TYPE swdual_alerts_total counter"),
            "{text}"
        );
        assert!(text.contains("swdual_alerts_total{kind=\"straggler\"} 1"));
        assert!(text.contains("swdual_alerts_total{kind=\"worker-dead\"} 2"));
    }

    #[test]
    fn journal_event_line_round_trips_through_the_parser() {
        let obs = sample_obs();
        for event in obs.events() {
            let line = journal_event_line(&event);
            let mut doc = journal_header(1);
            doc.push('\n');
            doc.push_str(&line);
            doc.push('\n');
            let parsed = crate::journal::parse_journal(&doc).expect("fragment parses");
            assert_eq!(parsed.len(), 1);
            assert_eq!(parsed[0].name, event.name);
            assert_eq!(parsed[0].track, event.track);
        }
    }

    #[test]
    fn chrome_trace_parses_and_separates_clocks() {
        let trace = chrome_trace(&sample_obs());
        let value: Value = serde_json::from_str(&trace).expect("trace parses");
        let events = value
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty());

        let span_on = |pid: u64| {
            events
                .iter()
                .filter(|e| {
                    e.get("ph").and_then(Value::as_str) == Some("X")
                        && e.get("pid").and_then(Value::as_u64) == Some(pid)
                })
                .count()
        };
        // Master + worker wall spans; worker modelled span; planned span.
        assert_eq!(span_on(1), 2);
        assert_eq!(span_on(2), 1);
        assert_eq!(span_on(3), 1);

        // Planned and actual worker rows share a tid for side-by-side
        // comparison.
        let tid_of = |pid: u64| {
            events
                .iter()
                .find(|e| {
                    e.get("ph").and_then(Value::as_str) == Some("X")
                        && e.get("pid").and_then(Value::as_u64) == Some(pid)
                })
                .and_then(|e| e.get("tid").and_then(Value::as_u64))
                .expect("span has tid")
        };
        assert_eq!(tid_of(2), tid_of(3));
    }

    #[test]
    fn disabled_obs_exports_are_empty_but_valid() {
        let obs = Obs::disabled();
        assert!(journal_jsonl(&obs).is_empty());
        assert!(metrics_text(&obs).contains("swdual_events_total 0"));
        let value: Value = serde_json::from_str(&chrome_trace(&obs)).expect("empty trace parses");
        assert_eq!(
            value
                .get("traceEvents")
                .and_then(Value::as_array)
                .map(Vec::len),
            Some(4)
        );
    }

    #[test]
    fn recovered_spans_get_their_own_process() {
        let obs = Obs::enabled();
        obs.virtual_span(Track::Recovered(1), "task-4", 0.5, 1.5, &[("task", 4.0)]);
        obs.instant(Track::Faults, "worker_dead", &[("worker", 0.0)]);
        let trace = chrome_trace(&obs);
        let value: Value = serde_json::from_str(&trace).expect("trace parses");
        let events = value
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        // The recovered placement is a span on pid 4, same tid scheme as
        // worker/planned rows.
        let recovered: Vec<&Value> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Value::as_str) == Some("X")
                    && e.get("pid").and_then(Value::as_u64) == Some(4)
            })
            .collect();
        assert_eq!(recovered.len(), 1);
        assert_eq!(
            recovered[0].get("tid").and_then(Value::as_u64),
            Some(11),
            "recovered row shares the worker tid scheme"
        );
        // The fault instant lands on the wall-clock process.
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Value::as_str) == Some("i")
                && e.get("name").and_then(Value::as_str) == Some("worker_dead")
        }));
        // And the journal names both.
        let journal = journal_jsonl(&obs);
        assert!(journal.contains("recovered:1"));
        assert!(journal.contains("\"faults\""));
    }

    #[test]
    fn flow_events_follow_lineage_through_a_faulted_run() {
        // Task 0 is planned on worker 0, dispatched, worker 0 dies;
        // it is re-planned (recovered track), re-dispatched and run on
        // worker 1. The trace must carry a single flow (id 0): "s" at
        // the plan, "t" steps at both dispatches, "f" at the execution.
        let obs = Obs::enabled();
        obs.virtual_span(Track::Planned(0), "task-0", 0.0, 2.0, &[("task", 0.0)]);
        obs.instant(
            Track::Master,
            "task_dispatch",
            &[
                ("task", 0.0),
                ("worker", 0.0),
                ("seq", 0.0),
                ("decision", 0.0),
            ],
        );
        obs.instant(Track::Faults, "worker_death", &[("worker", 0.0)]);
        obs.virtual_span(Track::Recovered(1), "task-0", 0.5, 2.0, &[("task", 0.0)]);
        obs.instant(
            Track::Master,
            "task_dispatch",
            &[
                ("task", 0.0),
                ("worker", 1.0),
                ("seq", 1.0),
                ("decision", 1.0),
            ],
        );
        obs.span(
            Track::Worker(1),
            "task-0",
            0.3,
            0.2,
            Some((0.5, 2.0)),
            &[("task", 0.0), ("decision", 1.0)],
        );
        let trace = chrome_trace(&obs);
        let value: Value = serde_json::from_str(&trace).expect("trace parses");
        let events = value
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        let flows: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) == Some("lineage"))
            .collect();
        let phases: Vec<&str> = flows
            .iter()
            .filter_map(|e| e.get("ph").and_then(Value::as_str))
            .collect();
        assert_eq!(phases, vec!["s", "t", "t", "f"], "{trace}");
        // One flow id threads the whole chain.
        assert!(flows
            .iter()
            .all(|e| e.get("id").and_then(Value::as_u64) == Some(0)));
        // The start rides the planned span; the end binds to the
        // enclosing execution slice.
        assert_eq!(flows[0].get("pid").and_then(Value::as_u64), Some(3));
        assert_eq!(
            flows.last().unwrap().get("bp").and_then(Value::as_str),
            Some("e")
        );
    }

    #[test]
    fn lineage_free_runs_emit_no_flow_arrows() {
        let trace = chrome_trace(&sample_obs());
        let value: Value = serde_json::from_str(&trace).expect("trace parses");
        let events = value.get("traceEvents").and_then(Value::as_array).unwrap();
        // sample_obs has a planned span without dispatches or task args
        // on the exec span... the planned span DOES carry task-0 via its
        // name, so a flow start may appear — but never an "f" without a
        // matching exec task. The invariant: no dangling "t"/"f" phases.
        assert!(!events
            .iter()
            .any(|e| e.get("cat").and_then(Value::as_str) == Some("lineage")
                && e.get("ph").and_then(Value::as_str) == Some("t")));
    }

    /// A profiled run: task span with phase children on a worker plus
    /// device kernel/transfer spans.
    fn profiled_obs() -> Obs {
        let obs = Obs::enabled();
        obs.set_profiling(true);
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
            "phase_profile_build",
            0.0,
            0.25,
            Some((0.0, 0.5)),
            &[("task", 0.0)],
        );
        obs.span(
            Track::Worker(0),
            "phase_dp_inner",
            0.25,
            0.7,
            Some((0.5, 1.4)),
            &[("task", 0.0)],
        );
        obs.span(
            Track::Device(1),
            "h2d_transfer",
            0.0,
            0.01,
            Some((0.0, 0.5)),
            &[("bytes", 1e6)],
        );
        obs.span(
            Track::Device(1),
            "kernel",
            0.01,
            0.02,
            Some((0.5, 1.0)),
            &[
                ("useful_cells", 1e9),
                ("padded_cells", 1.25e9),
                ("query_len", 200.0),
            ],
        );
        obs
    }

    #[test]
    fn folded_stacks_are_semicolon_frames_and_integer_micros() {
        let profile = Profile::from_obs(&profiled_obs());
        let folded = flamegraph_folded(&profile, ProfileClock::Wall);
        let lines: Vec<&str> = folded.lines().collect();
        assert!(!lines.is_empty());
        for line in &lines {
            let (stack, weight) = line.rsplit_once(' ').expect("stack <weight>");
            assert!(!stack.is_empty());
            let w: u64 = weight.parse().expect("integer microsecond weight");
            assert!(w > 0, "zero-weight stacks must be dropped");
        }
        // The phase leaf carries its self time: 0.7 s = 700000 µs.
        assert!(
            lines.contains(&"worker:0;task-0;dp_inner 700000"),
            "{folded}"
        );
        // Folded totals reconcile with the profile's root totals.
        let worker_micros: u64 = lines
            .iter()
            .filter(|l| l.starts_with("worker:0"))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
            .sum();
        let expect = (profile.root_total("worker:0", ProfileClock::Wall) * 1e6).round() as u64;
        assert!(worker_micros.abs_diff(expect) <= lines.len() as u64);
        // The modelled clock is a different rendering of the same stacks.
        let modelled = flamegraph_folded(&profile, ProfileClock::Modelled);
        assert!(modelled.contains("worker:0;task-0;dp_inner 1400000"));
        assert!(modelled.contains("device:1;kernel 1000000"));
    }

    #[test]
    fn speedscope_document_parses_and_reconciles() {
        let profile = Profile::from_obs(&profiled_obs());
        let doc = speedscope_json(&profile);
        let value: Value = serde_json::from_str(&doc).expect("speedscope JSON parses");
        assert_eq!(
            value.get("$schema").and_then(Value::as_str),
            Some("https://www.speedscope.app/file-format-schema.json")
        );
        let frames = value
            .get("shared")
            .and_then(|s| s.get("frames"))
            .and_then(Value::as_array)
            .expect("shared.frames");
        assert!(frames
            .iter()
            .all(|f| f.get("name").and_then(Value::as_str).is_some()));
        let profiles = value
            .get("profiles")
            .and_then(Value::as_array)
            .expect("profiles");
        assert_eq!(profiles.len(), 2, "wall + modelled");
        for p in profiles {
            assert_eq!(p.get("type").and_then(Value::as_str), Some("sampled"));
            assert_eq!(p.get("unit").and_then(Value::as_str), Some("seconds"));
            let samples = p.get("samples").and_then(Value::as_array).unwrap();
            let weights = p.get("weights").and_then(Value::as_array).unwrap();
            assert_eq!(samples.len(), weights.len());
            // Every sample indexes into the shared frame table.
            for sample in samples {
                for idx in sample.as_array().unwrap() {
                    assert!((idx.as_u64().unwrap() as usize) < frames.len());
                }
            }
            // endValue equals the sum of weights.
            let total: f64 = weights.iter().filter_map(Value::as_f64).sum();
            let end = p.get("endValue").and_then(Value::as_f64).unwrap();
            assert!((total - end).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_profile_exports_are_valid() {
        let profile = Profile::from_events(&[]);
        assert!(flamegraph_folded(&profile, ProfileClock::Wall).is_empty());
        let value: Value =
            serde_json::from_str(&speedscope_json(&profile)).expect("empty speedscope parses");
        let profiles = value.get("profiles").and_then(Value::as_array).unwrap();
        assert_eq!(profiles.len(), 2);
        for p in profiles {
            assert_eq!(
                p.get("samples").and_then(Value::as_array).map(Vec::len),
                Some(0)
            );
        }
    }
}
