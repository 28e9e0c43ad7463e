//! Link-based Markovian evolving graphs — Appendix A of
//! Clementi–Silvestri–Trevisan (PODC 2012).
//!
//! In an **edge-MEG** every potential edge of the `n`-node graph evolves
//! *independently* according to a Markov chain:
//!
//! * [`ShardedSparseEdgeMeg`] — the basic model of [CMMPS'10]: an absent
//!   edge is born with probability `p` per round, a present edge dies
//!   with probability `q`. Stationary density `α = p/(p+q)`, mixing time
//!   `Θ(1/(p+q))`. Simulated lazily over fixed lanes: `O(#on)` setup,
//!   per-round death and birth sweeps, and memory bounded by the current
//!   on-set. The library's model of the process, the one the service
//!   runs; its lanes can advance on several threads within one trial.
//! * [`SparseTwoStateEdgeMeg`] — the same process, simulated event-driven
//!   (geometric toggle times in a calendar queue) from an exact scan of
//!   all pairs in a byte-pinned order: the reproducer of the `flooding/1`
//!   artifacts, `O(#toggles)` per round on the delta path but `O(n²)`
//!   draws at setup.
//! * [`HiddenChainEdgeMeg`] — the paper's generalization `EM(n, M, χ)`:
//!   an arbitrary (hidden) finite chain `M` drives each edge and an
//!   arbitrary map `χ : S → {0, 1}` decides whether the edge exists.
//!
//! Because edges are independent, the β-independence condition of §3 holds
//! with `β = 1`, and Theorem 1 yields
//! `O(T_mix · (1/(nα) + 1)² · log² n)` — see
//! [`dynagraph::theory::edge_meg_general_bound`] and
//! [`dynagraph::theory::edge_meg_hidden_bound`].
//!
//! Every model here implements `EvolvingGraph::step_delta` natively —
//! the edge flips / toggle events *are* the delta — so the engine and
//! `flooding::flood` drive them churn-proportionally by default, with
//! results byte-identical to the snapshot path.
//!
//! # Examples
//!
//! ```
//! use dg_edge_meg::ShardedSparseEdgeMeg;
//! use dynagraph::{flooding, EvolvingGraph};
//!
//! let mut g = ShardedSparseEdgeMeg::stationary(64, 0.05, 0.2, 42).unwrap();
//! let run = flooding::flood(&mut g, 0, 10_000);
//! assert!(run.flooding_time().is_some());
//! ```
//!
//! Consume the churn directly (e.g. for incremental analytics):
//!
//! ```
//! use dg_edge_meg::SparseTwoStateEdgeMeg;
//! use dynagraph::{DynAdjacency, EdgeDelta, EvolvingGraph};
//!
//! let n = 256;
//! let mut g = SparseTwoStateEdgeMeg::stationary(n, 1.0 / n as f64, 0.1, 7).unwrap();
//! let mut adj = DynAdjacency::new(n);
//! let mut delta = EdgeDelta::new();
//! for _ in 0..100 {
//!     g.step_delta(&mut delta);
//!     adj.apply(&delta); // O(churn), no snapshot ever built
//! }
//! assert_eq!(adj.edge_count(), g.alive_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod general;
mod pairs;
mod pairset;
mod sharded;
mod sparse;

pub use general::{bursty_chain, four_state_chain, HiddenChainEdgeMeg};
pub use pairs::{edge_index, edge_pair, pair_count};
pub use sharded::{ShardedSparseEdgeMeg, LANES};
pub use sparse::{check_rates, SparseTwoStateEdgeMeg};
