//! # dynagraph — information spreading in dynamic graphs
//!
//! A faithful, executable reproduction of
//! **Clementi, Silvestri, Trevisan — "Information Spreading in Dynamic
//! Graphs" (PODC 2012, arXiv:1111.0583)**.
//!
//! The paper bounds the *flooding time* — how many synchronous rounds it
//! takes one piece of information to reach every node — of *dynamic graphs*:
//! stochastic processes `G([n], {E_t})` whose edge set changes every round.
//! This crate provides the paper's machinery as a library:
//!
//! * [`Snapshot`] / [`EvolvingGraph`] — the dynamic-graph model of §2: a
//!   synchronous sequence of edge sets over a fixed vertex set `[n]`;
//! * [`delta`] — **delta-native stepping**: [`EdgeDelta`] (one round's
//!   churn) and [`DynAdjacency`] (incremental adjacency with lazy CSR
//!   materialization), so slow-churn processes cost `O(churn)` per round
//!   instead of `O(m + n)`; the module docs spell out the full delta
//!   contract (baselines, rebasing, full-emission triggers);
//! * [`engine`] — **the unified simulation engine**: a builder-driven
//!   Monte-Carlo runner ([`engine::Simulation`]) combining any model
//!   factory with any [`engine::Protocol`] (flooding, push gossip,
//!   parsimonious flooding) and streaming [`engine::Observer`]s, with
//!   deterministic parallel trial execution;
//! * [`shard`] — **the lane executor**: flooding over a lane model on
//!   one or more cores inside one trial, with scan rounds (each lane
//!   scans its on-edges; no adjacency) that switch once, when it pays,
//!   to adjacency rounds (partitioned apply, frontier scan, commit);
//!   byte-identical to the serial paths and exposed as the engine's
//!   `.shards(Auto | N)` axis — a single `n = 10^6` flooding trial
//!   saturates the machine;
//! * [`sweep`] — **adaptive parameter-sweep orchestration** over the
//!   engine: declare a [`sweep::Grid`] of cells, and one work-stealing
//!   pool runs `(cell × trial)` items with per-cell sequential stopping
//!   (Student-t CI targets), writing resumable JSON/CSV artifacts
//!   ([`sweep::SweepReport`]) that are byte-identical however the sweep
//!   was scheduled, interrupted, or resumed;
//! * [`flooding`] — the flooding process `I_{t+1} = I_t ∪ N_{E_t}(I_t)`
//!   as single-run primitives with per-round growth records;
//! * [`stationarity`] — empirical estimators for the `(M, α, β)`-stationarity
//!   conditions of §3 (density and β-independence at epoch boundaries);
//! * [`theory`] — every bound in the paper as a documented function
//!   (Theorem 1, Theorem 3, Corollaries 4–6, Appendix-A edge-MEG bounds);
//! * [`node_meg`] — the node-Markovian evolving graphs of §4: one hidden
//!   Markov chain per node plus a symmetric connection map, with *exact*
//!   computation of `P_NM`, `P_NM²` and `η` for finite chains;
//! * the §5 extension — randomized push protocols
//!   ([`engine::PushGossip`]) reduced to flooding on a "virtual" thinned
//!   dynamic graph, plus the parsimonious flooding of \[4\]
//!   ([`engine::ParsimoniousFlooding`]); the [`ThinnedEvolvingGraph`] /
//!   [`JammedEvolvingGraph`] wrappers behind the reduction are
//!   delta-native (no per-round CSR), byte-identical on both stepping
//!   paths;
//! * [`analysis`] — growth-curve analytics for the spreading/saturation
//!   phase structure of Lemmas 13–14;
//! * [`interval`] — the T-interval connectivity diagnostics of \[21\],
//!   quantifying how far the paper's sparse regimes are from the
//!   worst-case literature's stability assumptions.
//!
//! Concrete model families live in sibling crates: `dg-edge-meg`
//! (Appendix A link-based models) and `dg-mobility` (§4.1 geometric and
//! graph mobility models).
//!
//! # Quickstart
//!
//! Drive any model × protocol combination through the
//! [`engine::Simulation`] builder — it owns seeding, warm-up, the round
//! loop, and (parallel) trial aggregation:
//!
//! ```
//! use dynagraph::engine::Simulation;
//! use dynagraph::StaticEvolvingGraph;
//! use dg_graph::generators;
//!
//! // A static cycle is the degenerate dynamic graph; flooding covers it
//! // in ceil((n-1)/2) rounds.
//! let report = Simulation::builder()
//!     .model(|_seed| StaticEvolvingGraph::new(generators::cycle(10)))
//!     .trials(8)
//!     .max_rounds(100)
//!     .base_seed(7)
//!     .run();
//! assert_eq!(report.incomplete(), 0);
//! assert_eq!(report.mean(), 5.0);
//! ```
//!
//! Swap the protocol without touching the harness:
//!
//! ```
//! use dynagraph::engine::{PushGossip, Simulation};
//! use dynagraph::StaticEvolvingGraph;
//! use dg_graph::generators;
//!
//! let report = Simulation::builder()
//!     .model(|_seed| StaticEvolvingGraph::new(generators::complete(16)))
//!     .protocol(PushGossip::new(1))
//!     .trials(8)
//!     .run();
//! assert_eq!(report.incomplete(), 0);
//! assert!(report.mean() >= 4.0); // push-1 needs ~log2(n)+ln(n) rounds
//! ```
//!
//! Single-run primitives ([`flooding::flood`], [`flooding::flood_multi`],
//! [`flooding::flood_sharded`]) run one trial on a realization as given
//! and return the whole run; they drive the engine's own flooding
//! executors, so on models with native deltas they run a frontier sweep
//! over a [`DynAdjacency`] automatically.
//!
//! # Implementing a model: `step` vs `step_delta`
//!
//! Third-party [`EvolvingGraph`]s only need [`EvolvingGraph::step`]; the
//! default [`EvolvingGraph::step_delta`] diffs consecutive snapshots, so
//! the delta pipeline works (it just doesn't speed anything up).
//! Implement `step_delta` natively — and return `true` from
//! [`EvolvingGraph::has_native_deltas`] — when the model can enumerate
//! its churn directly (edge flips, toggle events, meeting enter/leave);
//! consume exactly the RNG that `step` would, and validate with
//! [`delta::assert_replays_rebuild`]. Consumers pick the fast path
//! automatically ([`engine::Stepping::Auto`]). The [`delta`] module docs
//! carry the decision table and the full contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod delta;
pub mod engine;
mod error;
pub mod flooding;
pub mod interval;
pub mod node_meg;
mod process;
mod recorded;
mod seeds;
pub mod shard;
mod snapshot;
pub mod stationarity;
pub mod sweep;
pub mod theory;

pub use delta::{DynAdjacency, EdgeDelta};
pub use engine::{Simulation, SimulationBuilder, SimulationReport};
pub use error::DynagraphError;
pub use process::{
    assert_reset_matches_fresh, EvolvingGraph, JammedEvolvingGraph, PeriodicEvolvingGraph,
    StaticEvolvingGraph, ThinnedEvolvingGraph,
};
pub use recorded::RecordedEvolution;
pub use seeds::{mix_seed, SeedSequence};
pub use shard::{ShardAccess, ShardLane, Shards};
pub use snapshot::Snapshot;
