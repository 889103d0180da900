//! In-memory spans recorded around the calls the benchmark makes into each
//! layer, and the self-time arithmetic over them.
//!
//! A span has a name, a start, an end, a parent and a request id shared by
//! the spans of one request. Spans are kept in memory and written out as
//! JSON when the run ends. A layer's *self time* is its spans' durations
//! minus the part of each interval that its child spans cover; the root
//! spans' self time is reported as `unattributed_ms`. Sibling spans never
//! overlap (each is recorded on one thread, or laid end to end when it is
//! derived from a report), so the self times of all spans sum to the roots'
//! wall time.

use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span of every workload.
pub const ROOT: &str = "root";

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`soar.step`, `core.match`, …).
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the origin (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id shared by the spans of one request.
    pub req: u64,
}

/// Span handle; `None` when recording is off, so call sites need no branch.
pub type SpanId = Option<usize>;

/// The recorder. Disabled, every call is a branch and nothing is stored.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    /// Recorded spans, in opening order.
    pub spans: Vec<Span>,
}

impl Spans {
    /// A recorder whose origin is now.
    pub fn new(enabled: bool) -> Spans {
        Spans::with_origin(enabled, Instant::now())
    }

    /// A recorder measuring from `origin`.
    pub fn with_origin(enabled: bool, origin: Instant) -> Spans {
        Spans {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Is recording on?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now under `parent`.
    pub fn open(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let t = self.now_ns();
        self.push(name, t, t, parent, req)
    }

    /// Close a span now.
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            let t = self.now_ns();
            self.spans[i].end_ns = t;
        }
    }

    /// Record a finished span with explicit times (spans read back from a
    /// program recorder, or derived from a report).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        req: u64,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        debug_assert!(end_ns >= start_ns, "span {name} ends before it starts");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Lay spans of the given durations end to end inside `parent`,
    /// starting at `from_ns`, clipped to the parent's end. Used for time a
    /// report attributes to layers without saying when it happened.
    pub fn lay_out(
        &mut self,
        parent: SpanId,
        from_ns: u64,
        parts: &[(&'static str, u64)],
        req: u64,
    ) {
        let Some(p) = parent else { return };
        let end = self.spans[p].end_ns;
        let mut t = from_ns.clamp(self.spans[p].start_ns, end);
        for &(name, dur) in parts {
            let e = t.saturating_add(dur).min(end);
            self.push(name, t, e, parent, req);
            t = e;
        }
    }

    /// Move the recorded spans out, leaving this recorder empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Spans as a JSON array (written at exit).
pub fn to_json(spans: &[Span]) -> String {
    let mut s = String::from("[");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        s.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.req
            ));
    }
    s.push_str("]\n");
    s
}

/// Self time per span name, nanoseconds. Root spans' self time is filed
/// under [`ROOT`].
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let covered = covered_ns(s, children[i].iter().map(|&c| &spans[c]));
        let name = if s.parent.is_none() { ROOT } else { s.name };
        *out.entry(name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

/// Total duration of the root spans, nanoseconds.
pub fn wall_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Length of the union of the children's intervals clipped to the parent.
fn covered_ns<'a>(parent: &Span, kids: impl Iterator<Item = &'a Span>) -> u64 {
    let mut iv: Vec<(u64, u64)> = kids
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, s: u64, e: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: s,
            end_ns: e,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_wall() {
        // root [0,100): step [10,60) holding match [20,30) and
        // add_production [35,55) holding surgery [35,40) + update [40,52).
        let spans = vec![
            span(ROOT, 0, 100, None),
            span("soar.step", 10, 60, Some(0)),
            span("core.match", 20, 30, Some(1)),
            span("rete.add_production", 35, 55, Some(1)),
            span("rete.surgery", 35, 40, Some(3)),
            span("rete.state_update", 40, 52, Some(3)),
            span("soar.step", 70, 80, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[ROOT], 100 - 50 - 10);
        assert_eq!(st["soar.step"], (50 - 10 - 20) + 10);
        assert_eq!(st["core.match"], 10);
        assert_eq!(st["rete.add_production"], 20 - 5 - 12);
        assert_eq!(st["rete.surgery"], 5);
        assert_eq!(st["rete.state_update"], 12);
        assert_eq!(st.values().sum::<u64>(), wall_ns(&spans));
    }

    #[test]
    fn children_are_clipped_to_their_parent_and_unioned() {
        let p = span("p", 10, 20, None);
        let kids = [
            span("a", 5, 12, Some(0)),
            span("b", 11, 15, Some(0)),
            span("c", 18, 30, Some(0)),
        ];
        // [10,12) ∪ [11,15) ∪ [18,20) = 5 + 2.
        assert_eq!(covered_ns(&p, kids.iter()), 7);
    }

    #[test]
    fn lay_out_places_parts_end_to_end_and_clips() {
        let mut sp = Spans::new(true);
        let root = sp.push(ROOT, 0, 100, None, 1);
        sp.lay_out(root, 10, &[("a", 30), ("b", 40), ("c", 50)], 1);
        let got: Vec<(u64, u64)> = sp.spans[1..]
            .iter()
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        assert_eq!(got, vec![(10, 40), (40, 80), (80, 100)]);
        let st = self_times(&sp.spans);
        assert_eq!(st[ROOT], 10);
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut sp = Spans::new(false);
        let id = sp.open("x", None, 0);
        sp.close(id);
        assert!(id.is_none() && sp.spans.is_empty());
    }
}
