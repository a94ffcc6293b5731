//! In-memory span recorder for the traced run. Spans are taken from
//! outside the program, around calls into each layer's public
//! functions, and written out as a Chrome trace when the run ends.

use std::time::Instant;

/// Least share of a run's traced total that its layer spans must
/// cover, and that the clocks read inside the layers' calls must
/// account for.
pub const MIN_SHARE: f64 = 0.97;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    /// Seconds since the recorder started.
    start: f64,
    end: f64,
    /// Display lane: 0 for the calling thread, 1 + worker for the
    /// per-worker busy children that overlap each other.
    lane: usize,
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span now; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.add(name, parent, start, f64::NAN, 0)
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Record a span with known bounds.
    pub fn add(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: f64,
        end: f64,
        lane: usize,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start,
            end,
            lane,
        });
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn start_of(&self, id: usize) -> f64 {
        self.spans[id].start
    }

    pub fn duration(&self, id: usize) -> f64 {
        self.spans[id].end - self.spans[id].start
    }

    /// The span's duration minus the part of it its children cover
    /// (children may overlap each other; their union counts once).
    pub fn self_time(&self, id: usize) -> f64 {
        let (lo, hi) = (self.spans[id].start, self.spans[id].end);
        let mut kids: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start.max(lo), s.end.min(hi)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut cursor = lo;
        for (a, b) in kids {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        (hi - lo) - covered
    }

    /// Chrome-trace JSON (load in Perfetto or chrome://tracing).
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"name\":{:?},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{}}}}}",
                    s.name,
                    s.lane,
                    s.start * 1e6,
                    (s.end - s.start) * 1e6,
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

/// The span trees of a run's traced searches, summed for the
/// reconciliation check. Summing over the run keeps one search's
/// scheduling hiccup from failing a run of short searches.
#[derive(Debug, Default)]
pub struct Reconciliation {
    total: f64,
    covered: f64,
    clocked: f64,
}

impl Reconciliation {
    /// Add traced search `root` of `trace`. `inner_seconds` is the sum
    /// of the clocks read inside its wrapped calls.
    pub fn add(&mut self, trace: &Trace, root: usize, inner_seconds: f64) {
        let total = trace.duration(root);
        self.total += total;
        self.covered += total - trace.self_time(root);
        self.clocked += inner_seconds;
    }

    /// Share of the traced total that the layer spans cover.
    pub fn layer_share(&self) -> f64 {
        self.covered / self.total
    }

    /// Share of the traced total that the clocks inside the calls
    /// account for.
    pub fn clock_share(&self) -> f64 {
        self.clocked / self.total
    }

    /// The layer spans must cover at least `MIN_SHARE` of the traced
    /// total, and the inner clocks must account for that share too.
    /// Those clocks run within the spans, so more than the total means
    /// a layer was counted twice. Returns the problems found.
    pub fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let covered = self.layer_share();
        if !(MIN_SHARE..=1.0).contains(&covered) {
            problems.push(format!(
                "layer spans cover {:.2}% of the traced total",
                100.0 * covered
            ));
        }
        let clocked = self.clock_share();
        if !(MIN_SHARE..=1.0).contains(&clocked) {
            problems.push(format!(
                "clocks inside the layers account for {:.2}% of the traced total",
                100.0 * clocked
            ));
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let mut t = Trace::new();
        let root = t.add("root", None, 0.0, 10.0, 0);
        t.add("a", Some(root), 1.0, 4.0, 1);
        t.add("b", Some(root), 2.0, 6.0, 2);
        t.add("c", Some(root), 8.0, 12.0, 0); // clipped to the parent
        assert!((t.self_time(root) - 3.0).abs() < 1e-12);
    }

    /// Two traced searches of 10 s whose layer spans leave `gap`
    /// seconds of each uncovered, with inner clocks summing to `inner`.
    fn run(gap: f64, inner: [f64; 2]) -> Reconciliation {
        let mut t = Trace::new();
        let mut r = Reconciliation::default();
        for (i, inner) in inner.into_iter().enumerate() {
            let t0 = 10.0 * i as f64;
            let root = t.add("traced_total", None, t0, t0 + 10.0, 0);
            t.add("bio.load", Some(root), t0, t0 + 1.0, 0);
            t.add("runtime.try_run", Some(root), t0 + 1.0 + gap, t0 + 9.9, 0);
            t.add("core.report", Some(root), t0 + 9.9, t0 + 10.0, 0);
            r.add(&t, root, inner);
        }
        r
    }

    #[test]
    fn reconciliation_passes_a_covered_and_clocked_run() {
        let r = run(0.1, [9.8, 9.85]);
        assert_eq!(r.problems(), Vec::<String>::new());
        assert!((r.layer_share() - 0.99).abs() < 1e-12);
        assert!((r.clock_share() - 0.9825).abs() < 1e-12);
    }

    #[test]
    fn reconciliation_dilutes_one_search_s_hiccup() {
        // One search's clocks miss 4.5% of it; over the run, 2.75%.
        assert_eq!(run(0.0, [9.55, 9.9]).problems(), Vec::<String>::new());
    }

    #[test]
    fn reconciliation_catches_a_gap_between_layers() {
        let problems = run(0.5, [9.75, 9.75]).problems();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("layer spans cover 95.00%"));
    }

    #[test]
    fn reconciliation_catches_clocks_that_disagree_with_the_spans() {
        // A layer whose own clock misses a tenth of its span ...
        let problems = run(0.1, [8.9, 8.9]).problems();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("account for 89.00%"));
        // ... or a layer counted twice.
        assert_eq!(run(0.1, [10.5, 10.5]).problems().len(), 1);
    }

    #[test]
    fn chrome_json_has_one_event_per_span() {
        let mut t = Trace::new();
        let root = t.begin("root", None);
        let kid = t.begin("kid", Some(root));
        t.end(kid);
        t.end(root);
        let json = t.chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"parent\":0"));
    }
}
