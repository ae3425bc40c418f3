//! Spans the benchmark records around each public call it makes into the
//! program, and self-time attribution over those spans together with the
//! spans the program already records (its always-on `Tracer`).
//!
//! A span's self time is its duration minus the part of that interval its
//! child spans cover. Program spans hang under their own recorded parent
//! when it is in the same batch, and otherwise under the innermost bench
//! span that contains their midpoint: the two clocks agree only to a
//! microsecond or so, and a program span that mirrors a bench span (the
//! `update` span inside `TkApp::update`) may seem to start first.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use rtk_obs::SpanRecord;

/// One span recorded by the benchmark.
#[derive(Debug, Clone)]
pub struct Span {
    /// The call boundary, e.g. `tk.eval` for `TkApp::eval`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index + 1 of the parent span in the same recorder; 0 = root.
    pub parent: usize,
    /// The op this span belongs to.
    pub op: u64,
}

/// Records bench spans when tracing is on; otherwise calls straight
/// through.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Nanoseconds since this recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> usize {
        let parent = self.stack.last().map_or(0, |i| i + 1);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        idx
    }

    fn close(&mut self, idx: usize) {
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Opens the root `op` span for op `id`.
    pub fn begin_op(&mut self, id: u64) {
        if self.on {
            self.op = id;
            self.open("op");
        }
    }

    /// Closes the span opened by [`Recorder::begin_op`].
    pub fn end_op(&mut self) {
        if let Some(&idx) = self.stack.last().filter(|_| self.on) {
            self.close(idx);
        }
    }

    /// Runs `f`, a call into the program, inside a span called `name`.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = self.open(name);
        let r = f();
        self.close(idx);
        r
    }

    /// Spans recorded since the last [`Recorder::take`].
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Total length of the union of `ivs`, each clipped to `[lo, hi]`.
pub fn covered(ivs: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    ivs.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in ivs.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time in ns summed per span name: bench spans under their own
/// names, program spans as `prog.<kind>`. `program` holds each program
/// span with the offset that maps its clock onto the recorder's.
pub fn self_times(bench: &[Span], program: &[(SpanRecord, i64)]) -> BTreeMap<String, u64> {
    struct Node {
        name: String,
        start: u64,
        end: u64,
        parent: Option<usize>,
    }
    let mut nodes: Vec<Node> = bench
        .iter()
        .map(|s| Node {
            name: s.name.to_string(),
            start: s.start_ns,
            end: s.end_ns,
            parent: s.parent.checked_sub(1),
        })
        .collect();
    let by_start = {
        let mut v: Vec<usize> = (0..bench.len()).collect();
        v.sort_by_key(|&i| bench[i].start_ns);
        v
    };
    // The innermost bench span containing `t`: the latest-starting one
    // whose interval holds it, walking up from the last span begun before.
    let innermost = |t: u64| -> Option<usize> {
        let pos = by_start.partition_point(|&i| bench[i].start_ns <= t);
        let mut cand = by_start.get(pos.checked_sub(1)?).copied();
        while let Some(i) = cand {
            if bench[i].end_ns >= t {
                return Some(i);
            }
            cand = bench[i].parent.checked_sub(1);
        }
        None
    };
    let mut prog_index: BTreeMap<(u32, u64), usize> = BTreeMap::new();
    let first_prog = nodes.len();
    for (s, off) in program {
        if s.open || s.is_instant() {
            continue;
        }
        let start = (s.start_ns as i64 + off).max(0) as u64;
        let end = (s.end_ns as i64 + off).max(0) as u64;
        prog_index.insert((s.client, s.id), nodes.len());
        nodes.push(Node {
            name: format!("prog.{}", s.kind),
            start,
            end,
            parent: None,
        });
    }
    let mut k = first_prog;
    for (s, _) in program {
        if s.open || s.is_instant() {
            continue;
        }
        let own = prog_index
            .get(&(s.client, s.parent))
            .copied()
            .filter(|_| s.parent != 0);
        let mid = nodes[k].start + (nodes[k].end - nodes[k].start) / 2;
        nodes[k].parent = own.or_else(|| innermost(mid));
        k += 1;
    }
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nodes.len()];
    for n in &nodes {
        if let Some(p) = n.parent {
            children[p].push((n.start, n.end));
        }
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for (n, kids) in nodes.iter().zip(children.iter_mut()) {
        let dur = n.end.saturating_sub(n.start);
        let self_ns = dur.saturating_sub(covered(kids, n.start, n.end));
        *out.entry(n.name.clone()).or_insert(0) += self_ns;
    }
    out
}

/// The spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}{}",
            s.name,
            s.op,
            s.start_ns,
            s.end_ns,
            s.parent,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: usize) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn union_of_overlapping_intervals() {
        let mut v = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(covered(&mut v, 0, 25), 3 + 7 + 5);
        assert_eq!(covered(&mut [], 0, 9), 0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let bench = vec![
            span("op", 0, 100, 0),
            span("tk.eval", 10, 60, 1),
            span("tk.update", 60, 90, 1),
        ];
        let rec = |id, parent, kind, s, e| SpanRecord {
            id,
            parent,
            kind,
            detail: String::new(),
            client: 1,
            seq: 0,
            start_ns: s,
            end_ns: e,
            start_vms: 0,
            end_vms: 0,
            epoch: 0,
            open: false,
        };
        // Program clock runs 5 ns behind the recorder's.
        let program = vec![
            (rec(1, 0, "update", 55, 85), 5),
            (rec(2, 1, "redraw", 60, 70), 5),
            (rec(3, 0, "flush", 20, 30), 5),
        ];
        let t = self_times(&bench, &program);
        assert_eq!(t["op"], 100 - 80);
        assert_eq!(t["tk.eval"], 50 - 10);
        assert_eq!(t["tk.update"], 0);
        assert_eq!(t["prog.update"], 30 - 10);
        assert_eq!(t["prog.redraw"], 10);
        assert_eq!(t["prog.flush"], 10);
    }

    #[test]
    fn recorder_off_records_nothing() {
        let mut r = Recorder::new(false);
        r.begin_op(1);
        assert_eq!(r.call("tk.eval", || 7), 7);
        r.end_op();
        assert!(r.take().is_empty());
        let mut r = Recorder::new(true);
        r.begin_op(3);
        r.call("tk.eval", || ());
        r.end_op();
        let s = r.take();
        assert_eq!(s.len(), 2);
        assert_eq!((s[1].name, s[1].parent, s[1].op), ("tk.eval", 1, 3));
        assert!(s[0].end_ns >= s[1].end_ns);
    }
}
