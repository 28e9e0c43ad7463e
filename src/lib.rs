//! # dynspread — information spreading in dynamic graphs
//!
//! Facade crate for the reproduction of **Clementi, Silvestri, Trevisan —
//! "Information Spreading in Dynamic Graphs" (PODC 2012,
//! arXiv:1111.0583)**: flooding-time analysis of Markovian evolving
//! graphs, with every model family the paper instantiates.
//!
//! This crate re-exports the workspace libraries:
//!
//! * [`dynagraph`] — the core: dynamic graphs, the unified
//!   [`dynagraph::engine`] (builder-driven Monte-Carlo over model ×
//!   protocol × observers, with deterministic parallel trials), the
//!   adaptive [`dynagraph::sweep`] orchestration layer (declarative
//!   parameter grids, per-cell sequential stopping, resumable JSON/CSV
//!   artifacts), `(M, α, β)`-stationarity, node-MEGs, the paper's
//!   bounds;
//! * [`dg_edge_meg`] — link-based models (Appendix A);
//! * [`dg_mobility`] — geometric + graph mobility models (§4.1);
//! * [`dg_graph`], [`dg_markov`], [`dg_stats`] — the substrates.
//!
//! See the `examples/` directory for runnable scenarios and
//! `crates/experiments` for the harness that prints every table and
//! series of the reproduction (`dg-experiments all`).
//!
//! # Quickstart
//!
//! Pick a model, pick a protocol, let the engine own seeding, warm-up,
//! the round loop, and (parallel) aggregation:
//!
//! ```
//! use dynspread::dynagraph::engine::Simulation;
//! use dynspread::dg_edge_meg::ShardedSparseEdgeMeg;
//!
//! let report = Simulation::builder()
//!     .model(|seed| ShardedSparseEdgeMeg::stationary(64, 0.05, 0.2, seed).unwrap())
//!     .trials(10)
//!     .max_rounds(10_000)
//!     .base_seed(42)
//!     .run();
//! assert_eq!(report.incomplete(), 0);
//! println!("flooding time: mean {:.1}, p95 {:?}", report.mean(), report.p95());
//! ```
//!
//! Swap in a gossip protocol — the harness does not change:
//!
//! ```
//! use dynspread::dynagraph::engine::{PushGossip, Simulation};
//! use dynspread::dg_edge_meg::ShardedSparseEdgeMeg;
//!
//! let report = Simulation::builder()
//!     .model(|seed| ShardedSparseEdgeMeg::stationary(64, 0.05, 0.2, seed).unwrap())
//!     .protocol(PushGossip::new(2))
//!     .trials(10)
//!     .run();
//! assert_eq!(report.incomplete(), 0);
//! ```
//!
//! ## Migrating from the pre-engine API
//!
//! | old                                            | new                                              |
//! |------------------------------------------------|--------------------------------------------------|
//! | `gossip::push_spread(&mut g, s, k, cap, seed)` | `.protocol(PushGossip::new(k))`                  |
//! | `gossip::parsimonious_flood(&mut g, s, t, cap)`| `.protocol(ParsimoniousFlooding::new(t))`        |
//! | hand-rolled per-trial loops + `Summary`        | `.observers(…)` / `SimulationReport` aggregation |
//!
//! Single-run primitives (`flooding::flood`, `flooding::flood_multi`,
//! `flooding::flood_sharded`) keep their signatures and run on the
//! engine's executors. The hand-written reference loops left the
//! library: the gossip primitives and the definitional flooding loop
//! survive as the test oracles in `tests/support`.
//!
//! ## Delta-native stepping
//!
//! Every first-party model — including the §5
//! `ThinnedEvolvingGraph`/`JammedEvolvingGraph` wrappers — exposes its
//! per-round *churn* via `EvolvingGraph::step_delta` (an `EdgeDelta` of
//! added/removed edges applied to an incremental `DynAdjacency`), and
//! the engine drives that path automatically (`Stepping::Auto`) for
//! models advertising `has_native_deltas()`. Results are byte-identical
//! to the snapshot path; per-round cost drops from `O(m + n)` to
//! `O(churn + frontier)` in the paper's slow-churn regimes — see
//! `BENCH_delta.json` at the repository root for the measured
//! trajectory. The full delta contract lives in the `dynagraph::delta`
//! module docs.
//!
//! ## Sparse trial setup
//!
//! In the `p = 1/n` regime, trial *setup* dominates short runs at large
//! `n`: `SparseTwoStateEdgeMeg::stationary` scans all `n(n-1)/2` pairs.
//! The lane model `ShardedSparseEdgeMeg::stationary` skip-samples the
//! stationary on-set directly (`O(#on)` setup; same distribution,
//! different realization stream) — `BENCH_sparse_init.json` records the
//! two setups side by side. Observers that want churn
//! metrics read `RoundCtx::delta` (e.g. `engine::ChurnObserver`) instead
//! of forcing snapshot materialization.
//!
//! ## Adaptive sweeps
//!
//! Phase diagrams go through `dynagraph::sweep`: declare a `Grid` of
//! parameter axes and one work pool runs all `(cell × trial)` items,
//! stopping each cell as soon as its Student-t 95% CI half-width meets
//! a target — trials go where the noise is (`BENCH_sweep.json`: ≈ 40%
//! fewer trials than a fixed budget at equal worst-cell CI). Reports
//! serialize to resumable JSON/CSV artifacts that are byte-identical
//! whether the sweep ran serially, in parallel, or was killed and
//! resumed. The engine side of the glue is
//! `SimulationBuilder::run_trial`; the module docs carry the contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dg_edge_meg;
pub use dg_graph;
pub use dg_markov;
pub use dg_mobility;
pub use dg_stats;
pub use dynagraph;
