//! In-memory span recorder and work counters.
//!
//! Spans are recorded only around calls the benchmark makes itself (the
//! library is not instrumented): each span has a name, an optional label
//! (the index type of an `anns.build`), start and end offsets from the
//! session origin, the span that was open when it started, and the step it
//! belongs to. Counters are kept in every run, traced or not; the ones both
//! session paths record ([`Counts::shared`]) must agree between traced and
//! untraced sessions.

use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are seconds since the probe's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub label: Option<&'static str>,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub step: usize,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Work counted at the layer boundaries the benchmark wraps. Every field
/// is a count of work units, so two sessions over the same inputs must
/// agree exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub steps: u64,
    pub propose_calls: u64,
    pub evaluate_calls: u64,
    pub build_calls: u64,
    /// Builds per index type, in `IndexType::ALL` order.
    pub build_calls_by_type: [u64; 7],
    pub train_dims: u64,
    pub search_queries: u64,
    pub f32_dims: u64,
    pub graph_dims: u64,
    pub graph_hops: u64,
    pub u8_dims: u64,
    pub pq_lookups: u64,
    pub heap_pushes: u64,
    pub serving_events: u64,
    pub wal_flushes_full_batch: u64,
    pub wal_flushes_end_of_tick: u64,
    pub segments_sealed: u64,
    pub compactions: u64,
    pub write_shed: u64,
}

impl Counts {
    /// The counters both session paths record. Untraced sessions call the
    /// library's backends whole, so the build and search counters are only
    /// recorded in traced ones.
    pub fn shared(&self) -> Counts {
        Counts {
            build_calls: 0,
            build_calls_by_type: [0; 7],
            train_dims: 0,
            search_queries: 0,
            f32_dims: 0,
            graph_dims: 0,
            graph_hops: 0,
            u8_dims: 0,
            pq_lookups: 0,
            heap_pushes: 0,
            ..self.clone()
        }
    }
}

struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    step: usize,
    step_starts: Vec<Instant>,
    counts: Counts,
}

/// Span recorder plus counters for one session (or one set-up).
///
/// `Sync` so wrapped backends can hold it behind a shared reference; the
/// benchmark opens spans from one thread only, so the open-span stack gives
/// each span its parent.
pub struct Probe {
    tracing: bool,
    origin: Instant,
    state: Mutex<State>,
}

impl Probe {
    pub fn new(tracing: bool) -> Probe {
        Probe {
            tracing,
            origin: Instant::now(),
            state: Mutex::new(State {
                spans: Vec::new(),
                open: Vec::new(),
                step: 0,
                step_starts: Vec::new(),
                counts: Counts::default(),
            }),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("probe state poisoned by a panicking step")
    }

    /// Seconds since the probe was created.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Mark the start of a new step. Step boundaries are recorded in every
    /// run: they are what `step_p50_ms` and `step_tail_ms` are made of.
    pub fn begin_step(&self) {
        let now = Instant::now();
        let mut st = self.state();
        st.step = st.step_starts.len();
        st.step_starts.push(now);
        st.counts.steps += 1;
    }

    /// Run `f` inside a span named `name` (a no-op wrapper when tracing is
    /// off).
    pub fn span<R>(
        &self,
        name: &'static str,
        label: Option<&'static str>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.tracing {
            return f();
        }
        let id = {
            let mut st = self.state();
            let id = st.spans.len();
            let parent = st.open.last().copied();
            let step = st.step;
            let start_s = self.now_s();
            st.spans.push(Span { name, label, start_s, end_s: f64::NAN, parent, step });
            st.open.push(id);
            id
        };
        let out = f();
        let end_s = self.now_s();
        let mut st = self.state();
        st.spans[id].end_s = end_s;
        st.open.pop();
        out
    }

    /// Update the counters.
    pub fn count(&self, f: impl FnOnce(&mut Counts)) {
        f(&mut self.state().counts);
    }

    pub fn counts(&self) -> Counts {
        self.state().counts.clone()
    }

    /// Step durations in seconds, the last step ending at `end`.
    pub fn step_durations(&self, end: Instant) -> Vec<f64> {
        let st = self.state();
        let starts = &st.step_starts;
        (0..starts.len())
            .map(|i| {
                let stop = starts.get(i + 1).copied().unwrap_or(end);
                stop.duration_since(starts[i]).as_secs_f64()
            })
            .collect()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }
}

/// Self time per span: its duration minus the time its direct children
/// cover. Children of one span never overlap (spans are opened from one
/// thread), so their durations add up.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut child = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.duration_s();
        }
    }
    spans.iter().zip(child).map(|(s, c)| s.duration_s() - c).collect()
}

/// Check that the spans form a well-nested tree inside `window`: every
/// span ends after it starts, lies inside its parent (top-level spans inside
/// the window), does not overlap an earlier sibling, and has a self time of
/// at least zero. Returns the first violation.
pub fn check_nesting(spans: &[Span], window: (f64, f64)) -> Result<(), String> {
    // End of the latest child seen per parent (`spans.len()` = top level).
    let mut last_end = vec![f64::NEG_INFINITY; spans.len() + 1];
    for (i, s) in spans.iter().enumerate() {
        let (lo, hi, slot) = match s.parent {
            Some(p) if p < i => (spans[p].start_s, spans[p].end_s, p),
            Some(p) => return Err(format!("span {i} ({}) has a later parent {p}", s.name)),
            None => (window.0, window.1, spans.len()),
        };
        if s.end_s.is_nan() || s.end_s < s.start_s {
            return Err(format!("span {i} ({}) is open or ends before it starts", s.name));
        }
        if s.start_s < lo || s.end_s > hi {
            return Err(format!("span {i} ({}) lies outside its parent", s.name));
        }
        if s.start_s < last_end[slot] {
            return Err(format!("span {i} ({}) overlaps an earlier sibling", s.name));
        }
        last_end[slot] = s.end_s;
    }
    // A nanosecond of slack for the rounding of the subtractions.
    match self_times(spans).iter().position(|&d| d < -1e-9) {
        Some(i) => Err(format!("span {i} ({}) has a negative self time", spans[i].name)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            Span { name: "a", label: None, start_s: 0.0, end_s: 10.0, parent: None, step: 0 },
            Span { name: "b", label: None, start_s: 1.0, end_s: 5.0, parent: Some(0), step: 0 },
            Span { name: "c", label: None, start_s: 2.0, end_s: 3.0, parent: Some(1), step: 0 },
            Span { name: "d", label: None, start_s: 6.0, end_s: 7.0, parent: Some(0), step: 0 },
        ];
        assert_eq!(self_times(&spans), vec![5.0, 3.0, 1.0, 1.0]);
    }

    fn span(name: &'static str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span { name, label: None, start_s, end_s, parent, step: 0 }
    }

    #[test]
    fn nesting_check_accepts_a_tree_and_rejects_broken_ones() {
        let ok = vec![
            span("a", 1.0, 5.0, None),
            span("b", 2.0, 3.0, Some(0)),
            span("c", 6.0, 8.0, None),
        ];
        assert_eq!(check_nesting(&ok, (0.0, 9.0)), Ok(()));
        // A top-level span outside the session window.
        assert!(check_nesting(&ok, (0.0, 7.0)).is_err());
        // A child that outlives its parent.
        let outlives = vec![span("a", 1.0, 5.0, None), span("b", 2.0, 6.0, Some(0))];
        assert!(check_nesting(&outlives, (0.0, 9.0)).is_err());
        // Overlapping siblings (the parent's self time would go negative).
        let overlap = vec![
            span("a", 1.0, 5.0, None),
            span("b", 1.0, 4.0, Some(0)),
            span("c", 3.0, 5.0, Some(0)),
        ];
        assert!(check_nesting(&overlap, (0.0, 9.0)).is_err());
        // A span that ends before it starts.
        assert!(check_nesting(&[span("a", 2.0, 1.0, None)], (0.0, 9.0)).is_err());
    }

    #[test]
    fn untraced_probe_records_no_spans_but_counts() {
        let p = Probe::new(false);
        p.begin_step();
        let v = p.span("x", None, || 7);
        p.count(|c| c.evaluate_calls += 1);
        assert_eq!(v, 7);
        assert!(p.spans().is_empty());
        assert_eq!(p.counts().steps, 1);
        assert_eq!(p.counts().evaluate_calls, 1);
    }

    #[test]
    fn traced_probe_nests_spans() {
        let p = Probe::new(true);
        p.begin_step();
        p.span("outer", None, || p.span("inner", Some("l"), || ()));
        let s = p.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].label, Some("l"));
        assert!(s[0].duration_s() >= s[1].duration_s());
    }
}
