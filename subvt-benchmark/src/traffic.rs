//! The seeded request mix of the `serve-mixed` workload.
//!
//! Four requests in five are *hot*: drawn from [`HOT`], the load
//! generator's fixed mix plus a few full experiments, all answered from
//! the prefilled cache. The fifth is *fresh*: a device or circuit query at
//! a random supply, node and design flow, its key new to the daemon so it
//! computes. One fresh request in ten is sent twice back to back (a
//! *dup*), so the second copy lands while the first computes and
//! exercises single-flight dedup.
//!
//! The mix is drawn in balanced rounds rather than request by request:
//! every block of five holds exactly one fresh request (at a seeded
//! position), every round of fifteen hot requests holds each entry of
//! [`HOT`] once, and every round of ten fresh requests holds each kind of
//! [`FRESH_ROUND`] once, in seeded orders. The work a run asks for then
//! differs between seeds only in the fresh keys' values, not in how many
//! expensive requests happen to be drawn: a SPICE `chain_energy` costs
//! about a hundred times a `vtc`.
//!
//! The daemon ignores unknown request fields, so every field name here
//! must be one `subvt_serve::Query::from_request` reads; the package
//! tests parse every generated request to keep it that way.

use std::collections::{HashSet, VecDeque};

use subvt_engine::rng::SplitMix64;

use crate::workload::{pick, shuffle};

/// The hot requests: `subvt-loadgen`'s mix followed by experiments.
pub const HOT: [(&str, &str); 15] = [
    (
        "idvg",
        r#"{"node":"ref90","v_ds":0.05,"v_gs":{"start":0.0,"stop":1.2,"points":25}}"#,
    ),
    ("params", r#"{"node":"ref90"}"#),
    ("vtc", r#"{"node":"ref90","v_dd":0.3,"points":41}"#),
    ("snm", r#"{"node":"ref90","v_dd":0.3}"#),
    ("fo1", r#"{"node":"ref90","v_dd":0.3}"#),
    ("chain_energy", r#"{"node":"ref90","v_dd":0.3}"#),
    (
        "idvg",
        r#"{"node":"ref90","v_ds":1.2,"v_gs":{"start":0.0,"stop":1.2,"points":25}}"#,
    ),
    (
        "topology",
        r#"{"op":"gate_snm","gate":"nand2","node":"ref90","v_dd":0.25,"points":41}"#,
    ),
    (
        "topology",
        r#"{"op":"ring_freq","node":"ref90","v_dd":0.25,"stages":5,"steps":600}"#,
    ),
    ("params", r#"{"node":"45nm","strategy":"subvth"}"#),
    (
        "fo1",
        r#"{"node":"32nm","v_dd":0.25,"circuit_backend":"spice"}"#,
    ),
    ("experiment", r#"{"id":"table1"}"#),
    ("experiment", r#"{"id":"table2","format":"csv"}"#),
    ("experiment", r#"{"id":"fig2"}"#),
    ("experiment", r#"{"id":"fig12","format":"csv"}"#),
];

/// Share of requests drawn from [`HOT`].
pub const HOT_SHARE: f64 = 0.8;

/// Requests per block; each block holds one fresh request.
const BLOCK: usize = 5;

/// One round of fresh request kinds, method and circuit backend: the five
/// methods equally often, the four circuit methods evenly split between
/// the analytic and the SPICE backend.
const FRESH_ROUND: [(&str, Option<&str>); 10] = [
    ("fo1", Some("analytic")),
    ("fo1", Some("spice")),
    ("snm", Some("analytic")),
    ("snm", Some("spice")),
    ("chain_energy", Some("analytic")),
    ("chain_energy", Some("spice")),
    ("vtc", Some("analytic")),
    ("vtc", Some("spice")),
    ("idvg", None),
    ("idvg", None),
];

const NODES: [&str; 4] = ["90nm", "65nm", "45nm", "32nm"];

/// Why a request is in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Entry `i` of [`HOT`]; answered from the prefilled cache.
    Hot(usize),
    /// A key the daemon has not seen.
    Fresh,
    /// A second copy of the fresh request just before it.
    Dup,
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Protocol method.
    pub method: &'static str,
    /// JSON params object.
    pub params: String,
    /// Why the request is in the mix.
    pub kind: Kind,
}

/// An endless, seeded request stream; fresh keys never repeat within
/// one stream (other than as a [`Kind::Dup`]).
pub struct Traffic {
    rng: SplitMix64,
    seen: HashSet<String>,
    ready: VecDeque<Request>,
    hot_round: Vec<usize>,
    fresh_round: Vec<(usize, bool)>,
}

impl Traffic {
    /// A stream seeded by the benchmark seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::stream(seed, 0x07e4_ff1c),
            seen: HashSet::new(),
            ready: VecDeque::new(),
            hot_round: Vec::new(),
            fresh_round: Vec::new(),
        }
    }

    /// Generates the next `n` requests, and one more when the last one's
    /// dup would otherwise open the next batch.
    pub fn take(&mut self, n: usize) -> Vec<Request> {
        let mut out: Vec<Request> = (0..n).map(|_| self.next_request()).collect();
        if n > 0 && self.ready.front().is_some_and(|r| r.kind == Kind::Dup) {
            out.push(self.next_request());
        }
        out
    }

    /// The next request of the stream.
    fn next_request(&mut self) -> Request {
        if self.ready.is_empty() {
            self.block();
        }
        self.ready.pop_front().expect("a block is never empty")
    }

    /// Queues one block: four hot requests with the fresh one (and its
    /// dup) at a seeded position.
    fn block(&mut self) {
        let fresh_at = pick(&mut self.rng, BLOCK);
        for slot in 0..BLOCK {
            if slot != fresh_at {
                let i = self.next_hot();
                let (method, params) = HOT[i];
                self.ready.push_back(Request {
                    method,
                    params: params.to_owned(),
                    kind: Kind::Hot(i),
                });
                continue;
            }
            let (kind, dup) = self.next_fresh_kind();
            let fresh = loop {
                let candidate = self.fresh(FRESH_ROUND[kind]);
                if self
                    .seen
                    .insert(format!("{}{}", candidate.method, candidate.params))
                {
                    break candidate;
                }
            };
            if dup {
                self.ready.push_back(fresh.clone());
                self.ready.push_back(Request {
                    kind: Kind::Dup,
                    ..fresh
                });
            } else {
                self.ready.push_back(fresh);
            }
        }
    }

    /// The next [`HOT`] index of the current round.
    fn next_hot(&mut self) -> usize {
        if self.hot_round.is_empty() {
            self.hot_round = (0..HOT.len()).collect();
            shuffle(&mut self.rng, &mut self.hot_round);
        }
        self.hot_round.pop().expect("refilled above")
    }

    /// The next [`FRESH_ROUND`] index of the current round, and whether
    /// it is the round's duplicated request.
    fn next_fresh_kind(&mut self) -> (usize, bool) {
        if self.fresh_round.is_empty() {
            let dup = pick(&mut self.rng, FRESH_ROUND.len());
            self.fresh_round = (0..FRESH_ROUND.len()).map(|k| (k, k == dup)).collect();
            shuffle(&mut self.rng, &mut self.fresh_round);
        }
        self.fresh_round.pop().expect("refilled above")
    }

    /// A uniform draw in `[lo, hi]` rounded to `decimals`.
    fn uniform(&mut self, lo: f64, hi: f64, decimals: i32) -> f64 {
        let scale = 10f64.powi(decimals);
        ((lo + (hi - lo) * self.rng.next_f64()) * scale).round() / scale
    }

    fn node_fields(&mut self) -> String {
        if self.rng.next_f64() < 0.2 {
            return r#""node":"ref90""#.to_owned();
        }
        let node = NODES[pick(&mut self.rng, NODES.len())];
        let strategy = if self.rng.next_f64() < 0.5 {
            "subvth"
        } else {
            "supervth"
        };
        format!(r#""node":"{node}","strategy":"{strategy}""#)
    }

    fn fresh(&mut self, (method, circuit): (&'static str, Option<&str>)) -> Request {
        let node = self.node_fields();
        let params = match circuit {
            None => {
                let v_ds = [0.05, 0.6, 1.2][pick(&mut self.rng, 3)];
                let stop = self.uniform(0.6, 1.2, 4);
                let points = 11 + pick(&mut self.rng, 31);
                format!(
                    r#"{{{node},"v_ds":{v_ds},"v_gs":{{"start":0.0,"stop":{stop},"points":{points}}}}}"#
                )
            }
            Some(circuit) => {
                let v_dd = self.uniform(0.22, 0.4, 5);
                let points = if method == "vtc" {
                    format!(r#","points":{}"#, 41 + pick(&mut self.rng, 81))
                } else {
                    String::new()
                };
                format!(r#"{{{node},"v_dd":{v_dd},"circuit_backend":"{circuit}"{points}}}"#)
            }
        };
        Request {
            method,
            params,
            kind: Kind::Fresh,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dups_follow_their_fresh_request() {
        let reqs = Traffic::new(3).take(4000);
        let mut dups = 0;
        for w in reqs.windows(2) {
            if w[1].kind == Kind::Dup {
                dups += 1;
                assert_eq!(w[0].kind, Kind::Fresh);
                assert_eq!((w[0].method, &w[0].params), (w[1].method, &w[1].params));
            }
        }
        assert!(dups > 0);
    }

    #[test]
    fn every_round_holds_each_kind_once() {
        let fresh: Vec<Request> = Traffic::new(9)
            .take(500)
            .into_iter()
            .filter(|r| r.kind == Kind::Fresh)
            .collect();
        for round in fresh.chunks_exact(FRESH_ROUND.len()) {
            let mut kinds: Vec<(&str, bool)> = round
                .iter()
                .map(|r| (r.method, r.params.contains("spice")))
                .collect();
            kinds.sort_unstable();
            let mut want: Vec<(&str, bool)> = FRESH_ROUND
                .iter()
                .map(|(m, c)| (*m, *c == Some("spice")))
                .collect();
            want.sort_unstable();
            assert_eq!(kinds, want);
        }
    }
}
