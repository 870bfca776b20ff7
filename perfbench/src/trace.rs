//! In-memory spans around the calls the replay makes into each layer,
//! their self times, and their export as a `core::trace` Chrome trace.

use ooo_core::trace::{Span, Timeline};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. `parent` indexes the same [`Tracer`]'s spans.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub layer: &'static str,
    /// Stream position of the request the span belongs to (= its id).
    pub req: u64,
    pub parent: Option<usize>,
    pub depth: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub args: Vec<(&'static str, f64)>,
}

/// Records nested spans on one thread. A disabled tracer runs the
/// closures and records nothing, so the untraced replay shares the code.
pub struct Tracer {
    t0: Instant,
    enabled: bool,
    /// Display lane: 0 is the admission thread, `i > 0` worker `i - 1`.
    pub lane: usize,
    req: u64,
    stack: Vec<usize>,
    pub spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(t0: Instant, enabled: bool, lane: usize) -> Tracer {
        Tracer {
            t0,
            enabled,
            lane,
            req: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `layer`; spans `f` opens nest under it.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            layer,
            req: self.req,
            parent: self.stack.last().copied(),
            depth: self.stack.len(),
            start_ns: self.now_ns(),
            end_ns: 0,
            args: Vec::new(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Attaches a count to the most recent span of `layer`.
    pub fn note(&mut self, layer: &str, key: &'static str, value: f64) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.layer == layer) {
            s.args.push((key, value));
        }
    }
}

/// `end - start` minus the part of `[start, end]` covered by the union
/// of `children` (which may nest, overlap, or stick out of the parent).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (end - start).saturating_sub(covered)
}

/// Per-layer totals over every span of a replay.
#[derive(Debug, Clone, Default)]
pub struct LayerAgg {
    pub calls: u64,
    pub self_ns: u64,
    /// Per-key sums of the noted counts.
    pub args: BTreeMap<&'static str, f64>,
}

impl LayerAgg {
    pub fn arg(&self, key: &str) -> f64 {
        self.args.get(key).copied().unwrap_or(0.0)
    }

    /// Sum of a noted count divided by the call count (0 without calls).
    pub fn mean(&self, key: &str) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.arg(key) / self.calls as f64
        }
    }
}

/// Aggregates the spans of the requests in `reqs` (stream positions).
pub fn aggregate(
    tracers: &[Tracer],
    reqs: std::ops::RangeInclusive<u64>,
) -> BTreeMap<&'static str, LayerAgg> {
    let mut out: BTreeMap<&'static str, LayerAgg> = BTreeMap::new();
    for t in tracers {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); t.spans.len()];
        for s in &t.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        for (s, kids) in t
            .spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| reqs.contains(&s.req))
        {
            let agg = out.entry(s.layer).or_default();
            agg.calls += 1;
            agg.self_ns += self_time(s.start_ns, s.end_ns, kids);
            for &(k, v) in &s.args {
                *agg.args.entry(k).or_default() += v;
            }
        }
    }
    out
}

/// Per request: the summed duration of its top-level spans, which is
/// the replay's whole handling time for it.
pub fn handling_ns(tracers: &[Tracer]) -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    for s in tracers
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.parent.is_none())
    {
        *out.entry(s.req).or_default() += s.end_ns - s.start_ns;
    }
    out
}

/// The spans of the requests in `reqs` as a Chrome trace: one lane per
/// thread and nesting depth (lanes must not overlap), each span tagged
/// with its request, its own id and its parent's id.
pub fn timeline(name: &str, tracers: &[Tracer], reqs: std::ops::RangeInclusive<u64>) -> Timeline {
    let mut lanes: BTreeMap<(usize, usize), Vec<Span>> = BTreeMap::new();
    let mut base = 0usize;
    for t in tracers {
        for (i, s) in t
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| reqs.contains(&s.req))
        {
            let mut span = Span::new(s.layer, "layer", s.start_ns, s.end_ns);
            span.args.push(("req".into(), s.req as f64));
            span.args.push(("span".into(), (base + i) as f64));
            let parent = s.parent.map_or(-1.0, |p| (base + p) as f64);
            span.args.push(("parent".into(), parent));
            span.args
                .extend(s.args.iter().map(|&(k, v)| (k.to_string(), v)));
            lanes.entry((t.lane, s.depth)).or_default().push(span);
        }
        base += t.spans.len();
    }
    let mut tl = Timeline::new(name);
    for ((lane, depth), mut spans) in lanes {
        spans.sort_by_key(|s| s.start_ns);
        let thread = match lane {
            0 => "admission".to_string(),
            w => format!("worker{}", w - 1),
        };
        tl.lane_mut(&format!("{thread}.d{depth}")).spans = spans;
    }
    tl
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: the whole span.
        assert_eq!(self_time(0, 100, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time(0, 100, &[(10, 20), (50, 70)]), 70);
        // A child nested inside another child counts once.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 30)]), 50);
        // Overlapping children: [10, 40) ∪ [30, 70) covers 60.
        assert_eq!(self_time(0, 100, &[(30, 70), (10, 40)]), 40);
        // Touching children merge without double counting.
        assert_eq!(self_time(0, 100, &[(10, 20), (20, 30)]), 80);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time(10, 50, &[(0, 20), (40, 90)]), 20);
        // Children covering everything leave no self time.
        assert_eq!(self_time(10, 50, &[(0, 100)]), 0);
    }

    #[test]
    fn nested_spans_aggregate_self_time_per_layer() {
        let mut t = Tracer::new(Instant::now(), true, 1);
        t.set_request(3);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.note("inner", "moves", 4.0);
        });
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].depth, 1);
        let agg = aggregate(std::slice::from_ref(&t), 0..=3);
        assert!(aggregate(std::slice::from_ref(&t), 4..=9).is_empty());
        let (outer, inner) = (&agg["outer"], &agg["inner"]);
        let outer_dur = t.spans[0].end_ns - t.spans[0].start_ns;
        let inner_dur = t.spans[1].end_ns - t.spans[1].start_ns;
        assert_eq!(outer.self_ns + inner_dur, outer_dur);
        assert_eq!(inner.self_ns, inner_dur);
        assert_eq!(inner.mean("moves"), 4.0);
        assert_eq!(handling_ns(std::slice::from_ref(&t))[&3], outer_dur);
        let tl = timeline("test", std::slice::from_ref(&t), 0..=u64::MAX);
        tl.validate().expect("nesting depths get their own lanes");
        assert_eq!(tl.lanes.len(), 2);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false, 0);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans.is_empty());
    }
}
