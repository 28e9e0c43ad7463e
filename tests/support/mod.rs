//! Test oracles: independent single-run implementations of the engine's
//! spreading protocols, and the two-state edge-MEG by its definition.
//!
//! [`flood_oracle`], [`push_spread`] and [`parsimonious_flood`] step one
//! realization by hand over per-round snapshots, with none of the
//! engine's scratch, delta path or sharding. The engine suite pins
//! every flooding executor (`flooding::flood*` and the engine's serial
//! and lane paths), `PushGossip` and `ParsimoniousFlooding` to them
//! trial for trial, and the §5 reduction suite uses them directly.
//!
//! [`DenseEdgeMeg`] flips every pair every round, for the tests that
//! need a start the library's models do not offer (the empty graph).
//!
//! Each test binary compiles this module and uses only part of it.
#![allow(dead_code)]

use dynspread::dynagraph::flooding::FloodRun;
use dynspread::dynagraph::{mix_seed, EvolvingGraph, Snapshot};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One oracle run: who was informed in which round, how the informed
/// set grew, and when it completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleRun {
    /// Round each node was informed (`0` for the source),
    /// [`FloodRun::UNINFORMED`] if never.
    informed_at: Vec<u32>,
    sizes: Vec<u32>,
    completed_at: Option<u32>,
}

impl OracleRun {
    /// The round everyone was informed, or `None` if the run stopped
    /// first (round cap, or every relay expired).
    pub fn flooding_time(&self) -> Option<u32> {
        self.completed_at
    }

    /// Round each node was informed (`0` for sources),
    /// [`FloodRun::UNINFORMED`] if never.
    pub fn informed_at(&self) -> &[u32] {
        &self.informed_at
    }

    /// `|I_t|` for `t = 0, 1, …` over the executed rounds.
    pub fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Nodes informed by the end of the run.
    pub fn informed_count(&self) -> usize {
        *self.sizes.last().expect("sizes always has |I_0|") as usize
    }
}

/// Runs flooding from the source set `sources` by the definition of §2:
/// `I_{t+1} = I_t ∪ N_{E_t}(I_t)`, one snapshot `E_t` per round, and a
/// node informed in round `t + 1` relays from round `t + 1` on.
///
/// # Panics
///
/// Panics if a source is out of range.
pub fn flood_oracle<G: EvolvingGraph + ?Sized>(
    g: &mut G,
    sources: &[u32],
    max_rounds: u32,
) -> OracleRun {
    let n = g.node_count();
    let mut informed = vec![false; n];
    let mut informed_at = vec![FloodRun::UNINFORMED; n];
    let mut informed_list: Vec<u32> = Vec::new();
    for &s in sources {
        informed[s as usize] = true;
        informed_at[s as usize] = 0;
        informed_list.push(s);
    }
    let mut sizes = vec![informed_list.len() as u32];
    let mut completed_at = (informed_list.len() == n).then_some(0u32);
    let mut new_nodes: Vec<u32> = Vec::new();
    let mut t = 0u32;
    while completed_at.is_none() && t < max_rounds {
        let snap = g.step();
        new_nodes.clear();
        // Only nodes of I_t relay in round t: `informed_list` grows
        // after the scan, so there is no same-round chaining.
        for &u in &informed_list {
            for &v in snap.neighbors(u) {
                if !informed[v as usize] {
                    informed[v as usize] = true;
                    new_nodes.push(v);
                }
            }
        }
        t += 1;
        for &v in &new_nodes {
            informed_at[v as usize] = t;
        }
        informed_list.extend_from_slice(&new_nodes);
        sizes.push(informed_list.len() as u32);
        if informed_list.len() == n {
            completed_at = Some(t);
        }
    }
    OracleRun {
        informed_at,
        sizes,
        completed_at,
    }
}

/// Runs the push-`fanout` protocol from `source`: each round, each
/// informed node picks `min(fanout, deg)` distinct random current
/// neighbours and transmits to them. With `fanout >= n` this is plain
/// flooding.
///
/// # Panics
///
/// Panics if `source` is out of range or `fanout == 0`.
pub fn push_spread<G: EvolvingGraph + ?Sized>(
    g: &mut G,
    source: u32,
    fanout: usize,
    max_rounds: u32,
    seed: u64,
) -> OracleRun {
    assert!(fanout > 0, "fanout must be positive");
    let n = g.node_count();
    assert!((source as usize) < n, "source {source} out of range");
    let mut rng = SmallRng::seed_from_u64(mix_seed(seed, 0x905517));
    let mut informed = vec![false; n];
    let mut informed_at = vec![FloodRun::UNINFORMED; n];
    let mut informed_list = vec![source];
    informed[source as usize] = true;
    informed_at[source as usize] = 0;
    let mut sizes = vec![1u32];
    let mut completed_at = if n == 1 { Some(0) } else { None };
    let mut new_nodes: Vec<u32> = Vec::new();
    let mut pick_buf: Vec<u32> = Vec::new();
    let mut t = 0u32;
    while completed_at.is_none() && t < max_rounds {
        let snap = g.step();
        new_nodes.clear();
        for &u in &informed_list {
            let neigh = snap.neighbors(u);
            if neigh.is_empty() {
                continue;
            }
            if neigh.len() <= fanout {
                for &v in neigh {
                    if !informed[v as usize] {
                        informed[v as usize] = true;
                        new_nodes.push(v);
                    }
                }
            } else {
                // Partial Fisher-Yates: draw `fanout` distinct targets.
                pick_buf.clear();
                pick_buf.extend_from_slice(neigh);
                for i in 0..fanout {
                    let j = rng.gen_range(i..pick_buf.len());
                    pick_buf.swap(i, j);
                    let v = pick_buf[i];
                    if !informed[v as usize] {
                        informed[v as usize] = true;
                        new_nodes.push(v);
                    }
                }
            }
        }
        t += 1;
        for &v in &new_nodes {
            informed_at[v as usize] = t;
        }
        informed_list.extend_from_slice(&new_nodes);
        sizes.push(informed_list.len() as u32);
        if informed_list.len() == n {
            completed_at = Some(t);
        }
    }
    OracleRun {
        informed_at,
        sizes,
        completed_at,
    }
}

/// Runs **parsimonious flooding** from `source` (Baumann–Crescenzi–
/// Fraigniaud, reference \[4\] of the paper): a node relays only during
/// the `ttl` rounds following the round it became informed, then falls
/// silent. The run stops early once every relay has expired. With
/// `ttl >= max_rounds` this is plain flooding.
///
/// # Panics
///
/// Panics if `source` is out of range or `ttl == 0`.
pub fn parsimonious_flood<G: EvolvingGraph + ?Sized>(
    g: &mut G,
    source: u32,
    ttl: u32,
    max_rounds: u32,
) -> OracleRun {
    assert!(ttl > 0, "ttl must be positive");
    let n = g.node_count();
    assert!((source as usize) < n, "source {source} out of range");
    let mut informed = vec![false; n];
    let mut informed_at = vec![FloodRun::UNINFORMED; n];
    // Nodes currently relaying.
    let mut active: Vec<u32> = vec![source];
    let mut informed_count = 1usize;
    informed[source as usize] = true;
    informed_at[source as usize] = 0;
    let mut sizes = vec![1u32];
    let mut completed_at = if n == 1 { Some(0) } else { None };
    let mut new_nodes: Vec<u32> = Vec::new();
    let mut t = 0u32;
    while completed_at.is_none() && t < max_rounds && !active.is_empty() {
        let snap = g.step();
        new_nodes.clear();
        for &u in &active {
            for &v in snap.neighbors(u) {
                if !informed[v as usize] {
                    informed[v as usize] = true;
                    new_nodes.push(v);
                }
            }
        }
        t += 1;
        for &v in &new_nodes {
            informed_at[v as usize] = t;
        }
        informed_count += new_nodes.len();
        // Retire nodes whose TTL expired; admit the newly informed.
        active.retain(|&u| {
            let at = informed_at[u as usize];
            debug_assert_ne!(at, FloodRun::UNINFORMED, "active nodes are informed");
            t < at + ttl
        });
        active.extend_from_slice(&new_nodes);
        sizes.push(informed_count as u32);
        if informed_count == n {
            completed_at = Some(t);
        }
    }
    OracleRun {
        informed_at,
        sizes,
        completed_at,
    }
}

/// The two-state edge-MEG of Appendix A by its definition: every round
/// each pair `u < v` flips its own coin (an off pair turns on with
/// probability `p`, an on pair turns off with probability `q`), and the
/// round's snapshot is the on-set. Pairs start on with probability `α =
/// p/(p+q)` ([`DenseEdgeMeg::stationary`]) or all off
/// ([`DenseEdgeMeg::from_empty`]). `O(n²)` a round; it has no native
/// deltas, so the delta path diffs its snapshots.
pub struct DenseEdgeMeg {
    p: f64,
    q: f64,
    start: f64,
    on: Vec<bool>,
    rng: SmallRng,
    snapshot: Snapshot,
}

impl DenseEdgeMeg {
    /// Every pair starts on with the stationary probability `p/(p+q)`.
    pub fn stationary(n: usize, p: f64, q: f64, seed: u64) -> Self {
        Self::starting_at(n, p, q, p / (p + q), seed)
    }

    /// Every pair starts off: the empty graph.
    pub fn from_empty(n: usize, p: f64, q: f64, seed: u64) -> Self {
        Self::starting_at(n, p, q, 0.0, seed)
    }

    fn starting_at(n: usize, p: f64, q: f64, start: f64, seed: u64) -> Self {
        let mut g = DenseEdgeMeg {
            p,
            q,
            start,
            on: vec![false; n * n.saturating_sub(1) / 2],
            rng: SmallRng::seed_from_u64(0),
            snapshot: Snapshot::empty(n),
        };
        g.reset(seed);
        g
    }
}

impl EvolvingGraph for DenseEdgeMeg {
    fn node_count(&self) -> usize {
        self.snapshot.node_count()
    }

    fn step(&mut self) -> &Snapshot {
        let n = self.node_count() as u32;
        let mut pairs = self.on.iter_mut();
        let mut edges = Vec::new();
        for v in 1..n {
            for u in 0..v {
                let on = pairs.next().expect("one slot per pair");
                *on = if *on {
                    !self.rng.gen_bool(self.q)
                } else {
                    self.rng.gen_bool(self.p)
                };
                if *on {
                    edges.push((u, v));
                }
            }
        }
        self.snapshot.rebuild_from_edges(&edges);
        &self.snapshot
    }

    fn reset(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(mix_seed(seed, 0xDE45E));
        for on in &mut self.on {
            *on = self.rng.gen_bool(self.start);
        }
    }
}
