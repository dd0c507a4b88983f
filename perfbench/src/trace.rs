//! In-memory span tracer for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into the program's
//! crates: name, start, end and parent, plus the program's telemetry
//! counters sampled at the same boundaries. Nothing is written while the
//! run measures; [`Tracer::to_json`] serializes everything once at the end.

use std::collections::BTreeMap;
use std::time::Instant;

/// Telemetry counters (and histogram sums) sampled at span boundaries.
pub type Counts = BTreeMap<String, u64>;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Counter deltas between open and close (only for spans opened with
    /// [`Tracer::open_counted`]).
    pub counts: Counts,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<(usize, Option<Counts>)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open_with(&mut self, name: &'static str, base: Option<Counts>) -> usize {
        let id = self.spans.len();
        let parent = self.stack.last().map(|&(p, _)| p);
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            counts: Counts::new(),
        });
        self.stack.push((id, base));
        id
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        self.open_with(name, None)
    }

    /// Opens a span that also records the telemetry counter deltas over
    /// its lifetime.
    pub fn open_counted(&mut self, name: &'static str) -> usize {
        self.open_with(name, Some(telemetry_counts()))
    }

    /// Closes the innermost span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let (top, base) = self.stack.pop().expect("close without open span");
        assert_eq!(top, id, "spans must close innermost first");
        let end = self.now_ns();
        let rec = &mut self.spans[id];
        rec.end_ns = end;
        if let Some(base) = base {
            rec.counts = delta(&base, &telemetry_counts());
        }
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// For every span named `root`, the summed self time (ms) of each span
    /// name in its subtree, the root itself included.
    pub fn self_ms_by_root(&self, root: &str) -> Vec<BTreeMap<&'static str, f64>> {
        let self_ns = self.self_ns();
        let mut out = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != root {
                continue;
            }
            let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
            for (j, t) in self.spans.iter().enumerate().skip(i) {
                if self.is_within(j, i) {
                    *m.entry(t.name).or_default() += self_ns[j] as f64 / 1e6;
                }
            }
            out.push(m);
        }
        out
    }

    fn is_within(&self, mut j: usize, ancestor: usize) -> bool {
        loop {
            if j == ancestor {
                return true;
            }
            match self.spans[j].parent {
                Some(p) => j = p,
                None => return false,
            }
        }
    }

    /// The whole trace as JSON: one object per span, in open order.
    pub fn to_json(&self) -> String {
        let self_ns = self.self_ns();
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let counts: Vec<String> = s
                    .counts
                    .iter()
                    .map(|(k, v)| format!("\"{k}\": {v}"))
                    .collect();
                format!(
                    "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {}, \"start_ns\": {}, \
                     \"end_ns\": {}, \"self_ns\": {}, \"counts\": {{{}}}}}",
                    s.name,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start_ns,
                    s.end_ns,
                    self_ns[i],
                    counts.join(", ")
                )
            })
            .collect();
        format!("{{\"spans\": [\n{}\n]}}\n", rows.join(",\n"))
    }
}

/// Current telemetry counters plus each histogram's running sum (so kernel
/// latency histograms such as `tensor.matmul.ns` read as total ns).
pub fn telemetry_counts() -> Counts {
    let rep = mixq_telemetry::snapshot();
    let mut m: Counts = rep.counters.into_iter().collect();
    for (k, h) in rep.hists {
        m.insert(format!("{k}.sum"), h.sum);
    }
    m
}

/// `now − base` per key (keys missing from `base` count from zero).
pub fn delta(base: &Counts, now: &Counts) -> Counts {
    now.iter()
        .filter_map(|(k, &v)| {
            let d = v - base.get(k).copied().unwrap_or(0);
            (d > 0).then(|| (k.clone(), d))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            counts: Counts::new(),
        }
    }

    fn tracer_of(spans: Vec<SpanRec>) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans,
            stack: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // epoch [0,100] ⊃ forward [10,40] ⊃ matmul [15,25]; backward [50,90]
        let t = tracer_of(vec![
            rec("epoch", 0, 100, None),
            rec("forward", 10, 40, Some(0)),
            rec("matmul", 15, 25, Some(1)),
            rec("backward", 50, 90, Some(0)),
        ]);
        assert_eq!(t.self_ns(), vec![30, 20, 10, 40]);
    }

    #[test]
    fn self_time_sums_per_root_subtree() {
        let t = tracer_of(vec![
            rec("epoch", 0, 2_000_000, None),
            rec("fwd", 0, 1_000_000, Some(0)),
            rec("epoch", 3_000_000, 4_000_000, None),
            rec("fwd", 3_000_000, 3_500_000, Some(2)),
            rec("fwd", 3_500_000, 3_750_000, Some(2)),
        ]);
        let per = t.self_ms_by_root("epoch");
        assert_eq!(per.len(), 2);
        assert_eq!(per[0]["epoch"], 1.0);
        assert_eq!(per[0]["fwd"], 1.0);
        assert_eq!(per[1]["epoch"], 0.25);
        assert_eq!(per[1]["fwd"], 0.75);
    }

    #[test]
    fn live_spans_nest_and_serialize() {
        let mut t = Tracer::new();
        let outer = t.open("outer");
        let inner = t.open("inner");
        t.close(inner);
        t.close(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].dur_ns() >= t.spans()[1].dur_ns());
        let json = t.to_json();
        assert!(json.contains("\"name\": \"inner\", \"parent\": 0"));
    }

    #[test]
    fn counter_delta_drops_unchanged_keys() {
        let base: Counts = [("a".to_string(), 3), ("b".to_string(), 5)].into();
        let now: Counts = [
            ("a".to_string(), 3),
            ("b".to_string(), 9),
            ("c".to_string(), 1),
        ]
        .into();
        let d = delta(&base, &now);
        assert_eq!(d.len(), 2);
        assert_eq!(d["b"], 4);
        assert_eq!(d["c"], 1);
    }
}
