//! In-memory span recorder for the traced run.
//!
//! A span is a named interval with a parent and a run id. Spans stay in
//! a `Vec` while the run executes and are read back once it ends. Hot
//! loops that cross a layer boundary once per record (the record
//! stream, analysis, preparation, ingest parse and column append) do
//! not open a span per record; they fold their intervals into an
//! [`Interval`] accumulator that becomes one *aggregate* span, whose
//! `busy_ns` is the sum of the covered intervals rather than
//! `end - start`.
//!
//! A span's self time is its busy time minus the busy time of its
//! direct children. The traced run calls every layer serially on one
//! thread, so the self times of all spans plus the glue between them
//! (`unattributed`) add up to the run's wall time.

use std::collections::BTreeMap;
use std::time::Instant;

/// A monotonic clock shared by a recorder and the hot-loop
/// accumulators that feed it.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// Nanoseconds since the recorder started.
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Many short intervals of one layer, folded as they happen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Interval {
    /// Start of the first interval.
    pub first_ns: u64,
    /// End of the last interval.
    pub last_ns: u64,
    /// Sum of the interval lengths.
    pub busy_ns: u64,
    /// Number of intervals.
    pub calls: u64,
}

impl Interval {
    /// Folds in the interval `[start, end)`.
    #[inline]
    pub fn add(&mut self, start: u64, end: u64) {
        if self.calls == 0 {
            self.first_ns = start;
        }
        self.last_ns = end;
        self.busy_ns += end.saturating_sub(start);
        self.calls += 1;
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `sim.device` or `mrc.curve.lru`.
    pub name: String,
    /// The run this span belongs to.
    pub run: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder started.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Time covered: `end - start` for a plain span, the summed
    /// intervals for an aggregate one.
    pub busy_ns: u64,
}

/// Records spans for one run.
#[derive(Debug)]
pub struct Recorder {
    clock: Clock,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    end: Option<u64>,
}

impl Recorder {
    /// Starts recording run `run`; the clock starts now.
    pub fn new(run: u32) -> Self {
        Recorder {
            clock: Clock(Instant::now()),
            run,
            spans: Vec::new(),
            open: Vec::new(),
            end: None,
        }
    }

    /// The recorder's clock, for hot-loop accumulators.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Nanoseconds since the recorder started.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Ends the run: work after this (such as checking its output) is
    /// not part of its wall time.
    pub fn finish(&mut self) {
        assert!(
            self.open.is_empty(),
            "every span closed before the run ends"
        );
        self.end = Some(self.now());
    }

    /// The run's wall time so far, or up to [`Recorder::finish`],
    /// seconds.
    pub fn wall_s(&self) -> f64 {
        self.end.unwrap_or_else(|| self.now()) as f64 / 1e9
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            run: self.run,
            parent: self.open.last().copied(),
            start_ns: start,
            end_ns: start,
            busy_ns: 0,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let end = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.busy_ns = end - span.start_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Adds an aggregate span under the innermost open span (or at the
    /// top level when none is open). An empty accumulator adds nothing.
    pub fn aggregate(&mut self, name: &str, iv: Interval) {
        if iv.calls == 0 {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            run: self.run,
            parent: self.open.last().copied(),
            start_ns: iv.first_ns,
            end_ns: iv.last_ns,
            busy_ns: iv.busy_ns,
        });
    }

    /// Self time of every span, in the order recorded:
    /// busy time minus the busy time of its direct children.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_busy = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_busy[p] += s.busy_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_busy)
            .map(|(s, c)| s.busy_ns.saturating_sub(c))
            .collect()
    }

    /// Self seconds summed per span name.
    pub fn self_seconds_by_name(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name.clone()).or_insert(0.0) += t as f64 / 1e9;
        }
        out
    }

    /// Sum of every span's self time, seconds.
    pub fn attributed_s(&self) -> f64 {
        self.self_times().iter().sum::<u64>() as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name: name.into(),
            run: 0,
            parent,
            start_ns: start,
            end_ns: end,
            busy_ns: end - start,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut r = Recorder::new(0);
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90).
        r.spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a1", Some(1), 15, 25),
            span("b", Some(0), 50, 90),
        ];
        assert_eq!(r.self_times(), vec![30, 20, 10, 40]);
        // Self times of a serial tree add up to the root's duration.
        assert_eq!(r.self_times().iter().sum::<u64>(), 100);
    }

    #[test]
    fn aggregate_children_subtract_their_summed_busy_time() {
        let mut r = Recorder::new(7);
        let outer = r.enter("sim.device");
        let mut iv = Interval::default();
        iv.add(10, 13);
        iv.add(20, 24);
        iv.add(30, 30);
        r.aggregate("workload.records", iv);
        r.aggregate("never.called", Interval::default());
        r.exit(outer);
        let spans = &r.spans;
        assert_eq!(spans.len(), 2, "empty accumulators add no span");
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[1].busy_ns, 7);
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (10, 30));
        assert!(spans.iter().all(|s| s.run == 7));
        let selfs = r.self_times();
        assert_eq!(selfs[1], 7);
        assert_eq!(selfs[0], spans[0].busy_ns.saturating_sub(7));
    }

    #[test]
    fn names_sum_across_spans_and_nesting_follows_the_open_stack() {
        let mut r = Recorder::new(0);
        let a = r.enter("x");
        let b = r.enter("y");
        r.exit(b);
        r.exit(a);
        r.span("x", || ());
        let spans = &r.spans;
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        let by = r.self_seconds_by_name();
        let selfs = r.self_times();
        let want_x = (selfs[0] + selfs[2]) as f64 / 1e9;
        assert!((by["x"] - want_x).abs() < 1e-15);
        assert!((r.attributed_s() - selfs.iter().sum::<u64>() as f64 / 1e9).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut r = Recorder::new(0);
        let a = r.enter("a");
        let _b = r.enter("b");
        r.exit(a);
    }
}
