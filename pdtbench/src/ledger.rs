//! The traced run's span ledger.
//!
//! The benchmark opens spans around its own calls into each layer;
//! the program's existing phase roll-ups (which carry durations but no
//! timestamps) hang under the span of the call that produced them.
//! Spans stay in memory and are written as JSONL when the run ends.
//! A node's self time is its duration minus the part its children
//! cover: the union of child span intervals plus the child roll-up
//! durations.

use crate::stats::{json_str, ms};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub struct NodeId(usize);

struct Node {
    name: &'static str,
    parent: Option<usize>,
    request: u64,
    /// Span: start and end in ns since the ledger epoch. Roll-up:
    /// `None` start, end holds the duration.
    start_ns: Option<u64>,
    end_ns: u64,
    calls: u64,
}

pub struct Ledger {
    epoch: Instant,
    nodes: Vec<Node>,
}

impl Ledger {
    pub fn new() -> Ledger {
        Ledger {
            epoch: Instant::now(),
            nodes: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Ledger::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<NodeId>, request: u64) -> NodeId {
        let start = self.now_ns();
        self.nodes.push(Node {
            name,
            parent: parent.map(|p| p.0),
            request,
            start_ns: Some(start),
            end_ns: start,
            calls: 1,
        });
        NodeId(self.nodes.len() - 1)
    }

    pub fn close(&mut self, id: NodeId) {
        self.nodes[id.0].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<NodeId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (NodeId, T) {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        (id, out)
    }

    /// Attach a program roll-up (a duration without timestamps).
    pub fn rollup(&mut self, name: &'static str, parent: NodeId, nanos: u64, calls: u64) -> NodeId {
        let request = self.nodes[parent.0].request;
        self.nodes.push(Node {
            name,
            parent: Some(parent.0),
            request,
            start_ns: None,
            end_ns: nanos,
            calls,
        });
        NodeId(self.nodes.len() - 1)
    }

    fn duration(&self, i: usize) -> u64 {
        let n = &self.nodes[i];
        match n.start_ns {
            Some(s) => n.end_ns.saturating_sub(s),
            None => n.end_ns,
        }
    }

    /// Self time of every node, in ns, by node index.
    fn self_times(&self) -> Vec<i64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            if let Some(p) = n.parent {
                children[p].push(i);
            }
        }
        (0..self.nodes.len())
            .map(|i| {
                let mut intervals: Vec<(u64, u64)> = Vec::new();
                let mut rolled = 0u64;
                for &c in &children[i] {
                    match self.nodes[c].start_ns {
                        Some(s) => intervals.push((s, self.nodes[c].end_ns)),
                        None => rolled += self.nodes[c].end_ns,
                    }
                }
                intervals.sort_unstable();
                let mut covered = 0u64;
                let mut reach = 0u64;
                for (s, e) in intervals {
                    let s = s.max(reach);
                    if e > s {
                        covered += e - s;
                        reach = e;
                    }
                }
                self.duration(i) as i64 - covered as i64 - rolled as i64
            })
            .collect()
    }

    /// Self time summed per node name, in ms, and the summed wall time
    /// of the root spans (the requests).
    pub fn self_ms_by_name(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let mut by_name = BTreeMap::new();
        for (i, t) in self.self_times().into_iter().enumerate() {
            *by_name.entry(self.nodes[i].name).or_insert(0.0) += t as f64 / 1e6;
        }
        let roots: u64 = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].parent.is_none())
            .map(|i| self.duration(i))
            .sum();
        (by_name, roots as f64 / 1e6)
    }

    /// Write every node as one JSON line tagged with `source`.
    pub fn to_jsonl(&self, source: &str) -> String {
        let selfs = self.self_times();
        let mut out = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let parent = n.parent.map_or("null".to_string(), |p| p.to_string());
            let (kind, start, end) = match n.start_ns {
                Some(s) => ("span", s, n.end_ns),
                None => ("rollup", 0, n.end_ns),
            };
            out.push_str(&format!(
                "{{\"source\":{},\"kind\":\"{kind}\",\"id\":{i},\"parent\":{parent},\"request\":{},\"name\":{},\
                 \"start_ns\":{start},\"end_ns\":{end},\"calls\":{},\"self_ns\":{}}}\n",
                json_str(source),
                n.request,
                json_str(n.name),
                n.calls,
                selfs[i]
            ));
        }
        out
    }
}

/// Time `f` and return its result with the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, ms(start.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut l = Ledger::new();
        let root = l.open("request", None, 1);
        let (call, ()) = l.span("call", Some(root), 1, || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        l.rollup("phase", call, 1_000_000, 1);
        l.span("check", Some(root), 1, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        l.close(root);
        let (by_name, wall) = l.self_ms_by_name();
        let sum: f64 = by_name.values().sum();
        assert!((sum - wall).abs() < 1e-6, "{sum} vs {wall}");
        assert!((by_name["phase"] - 1.0).abs() < 1e-9);
    }
}
