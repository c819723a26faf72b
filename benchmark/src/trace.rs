//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each product crate; nothing inside the product crates is instrumented.
//! A disabled tracer records nothing and costs one branch per span, so the
//! same workload code serves the untraced (end-to-end) and traced runs.

use crate::json::{self, float, int};
use serde::Value;
use std::time::Instant;

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// One recorded interval. `parent` indexes into the same span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one operation share an identifier.
    pub op_id: u64,
    /// Track (thread) the span was recorded on.
    pub track: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one thread. Nesting follows the call structure: a span
/// opened while another is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    track: u32,
    op_id: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    /// `origin` is the common time zero of every track of one run.
    pub fn new(enabled: bool, origin: Instant, track: u32) -> Tracer {
        Tracer {
            enabled,
            origin,
            track,
            op_id: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Time zero of the run, for clocks that must agree with the spans.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// A tracer for another thread of the same run.
    pub fn fork(&self, track: u32) -> Tracer {
        Tracer::new(self.enabled, self.origin, track)
    }

    /// Sets the operation identifier stamped on spans opened from now on.
    pub fn set_op(&mut self, op_id: u64) {
        self.op_id = op_id;
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. `f` receives the tracer back so
    /// it can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op_id: self.op_id,
            track: self.track,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// [`Tracer::span`] that also hands back how long `f` took, in
    /// milliseconds (measured whether or not the tracer records).
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let t0 = Instant::now();
        let r = self.span(name, f);
        (r, ms_since(t0))
    }

    /// Records an already-measured interval as a child of the innermost open
    /// span — for intervals timed elsewhere, like a policy's `decide` inside
    /// `session.step`.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op_id: self.op_id,
            track: self.track,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another track's spans into this tracer, re-basing their parent
    /// indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of it its direct
/// children cover (children are clipped to the parent and overlapping
/// children are merged, so concurrent children never drive it negative).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(cursor);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Operation identifier of the spans a probe records outside any operation.
pub const PROBE_OP: u64 = u64::MAX;

/// Share of operation time that child spans account for, over the root spans
/// of operations that have at least one child (`None` when no operation
/// decomposes; probe spans are not operations).
pub fn coverage(spans: &[Span]) -> Option<f64> {
    let selfs = self_times_ns(spans);
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_child[p] = true;
        }
    }
    let (mut total, mut own) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() && has_child[i] && s.op_id != PROBE_OP {
            total += s.dur_ns();
            own += selfs[i];
        }
    }
    (total > 0).then(|| 1.0 - own as f64 / total as f64)
}

/// Durations, in milliseconds, of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Most spans a trace file carries; a longer run keeps its first spans and
/// says so in the file's `truncated` field.
const MAX_FILE_SPANS: usize = 250_000;

/// Renders spans as Chrome trace-event JSON (`ph: "X"` complete events,
/// microsecond timestamps), loadable in Perfetto or `chrome://tracing`.
pub fn chrome_trace_json(workload: &str, spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let events: Vec<Value> = spans
        .iter()
        .zip(&selfs)
        .take(MAX_FILE_SPANS)
        .enumerate()
        .map(|(i, (s, &self_ns))| {
            Value::Object(vec![
                ("name".into(), Value::String(s.name.into())),
                ("cat".into(), Value::String(workload.into())),
                ("ph".into(), Value::String("X".into())),
                ("ts".into(), float(s.start_ns as f64 / 1e3)),
                ("dur".into(), float(s.dur_ns() as f64 / 1e3)),
                ("pid".into(), int(1)),
                ("tid".into(), int(s.track as u64)),
                (
                    "args".into(),
                    Value::Object(vec![
                        ("span".into(), int(i as u64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| int(p as u64)),
                        ),
                        ("op_id".into(), int(s.op_id)),
                        ("start_ns".into(), int(s.start_ns)),
                        ("end_ns".into(), int(s.end_ns)),
                        ("self_ns".into(), int(self_ns)),
                    ]),
                ),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("displayTimeUnit".into(), Value::String("ms".into())),
        (
            "truncated".into(),
            Value::Bool(spans.len() > MAX_FILE_SPANS),
        ),
        ("traceEvents".into(), Value::Array(events)),
    ]);
    json::compact(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
            track: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // root 0..100 with children 10..30 and 50..90; grandchild 55..60.
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 90, Some(0)),
            span(55, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 35, 5]);
        assert_eq!(coverage(&spans), Some(0.6));
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        // Children overlap each other (20..60, 40..80) and overhang (90..120).
        let spans = vec![
            span(0, 100, None),
            span(20, 60, Some(0)),
            span(40, 80, Some(0)),
            span(90, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn leaf_only_runs_have_no_coverage() {
        assert_eq!(coverage(&[span(0, 10, None)]), None);
    }

    #[test]
    fn tracer_nests_by_call_structure_and_off_records_nothing() {
        let mut t = Tracer::new(true, Instant::now(), 3);
        t.set_op(7);
        let v = t.span("op", |t| t.span("child", |_| 41) + 1);
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("op", None));
        assert_eq!((s[1].name, s[1].parent), ("child", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!((s[1].op_id, s[1].track), (7, 3));

        let mut off = Tracer::off();
        assert_eq!(off.span("op", |t| t.span("child", |_| 5)), 5);
        off.record("x", 0, 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin, 0);
        a.span("a", |_| ());
        let mut b = Tracer::new(true, origin, 1);
        b.span("b", |t| t.span("b.child", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }

    #[test]
    fn chrome_json_parses_back() {
        let spans = vec![span(0, 2000, None), span(500, 1500, Some(0))];
        let json = chrome_trace_json("w", &spans);
        let v = serde_json::from_str_value(&json).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
    }
}
