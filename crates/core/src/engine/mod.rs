//! The unified simulation engine: one builder-driven entry point for
//! every spreading Monte-Carlo in the workspace.
//!
//! The paper analyzes a single process — `I_{t+1} = I_t ∪ N_{E_t}(I_t)`
//! and its randomized/resource-bounded variants — over many dynamic-graph
//! families. The engine factors that product space into three orthogonal
//! axes:
//!
//! * **model** — any [`EvolvingGraph`](crate::EvolvingGraph) factory
//!   `Fn(u64) -> G`, seeded per trial;
//! * **protocol** — a [`Protocol`] deciding who transmits to whom each
//!   round: [`Flooding`], [`PushGossip`], [`ParsimoniousFlooding`], or
//!   your own;
//! * **observers** — streaming per-round [`Observer`]s (growth curves,
//!   phase structure, delivery delays) that never buffer whole runs.
//!
//! [`Simulation::builder`] owns everything the old ad-hoc loops
//! duplicated: per-trial seed derivation (`mix_seed(base_seed, trial)`),
//! warm-up to stationarity, the synchronous round loop, round caps,
//! quiescence detection, and trial aggregation. Trials run on all cores
//! by default ([`SimulationBuilder::threads`] caps the count; `threads(1)`
//! is the serial engine); results are byte-identical at every count
//! because every trial is a pure function of its derived seed and
//! aggregation is ordered by trial index.
//!
//! # Quickstart
//!
//! ```
//! use dynagraph::engine::Simulation;
//! use dynagraph::StaticEvolvingGraph;
//! use dg_graph::generators;
//!
//! let report = Simulation::builder()
//!     .model(|_seed| StaticEvolvingGraph::new(generators::cycle(9)))
//!     .trials(8)
//!     .max_rounds(100)
//!     .run();
//! assert_eq!(report.incomplete(), 0);
//! assert_eq!(report.mean(), 4.0);
//! ```
//!
//! # The stepping axis
//!
//! [`SimulationBuilder::stepping`] selects the per-trial pipeline:
//!
//! * [`Stepping::Auto`] (default) — the delta path for models
//!   advertising [`EvolvingGraph::has_native_deltas`](crate::EvolvingGraph::has_native_deltas),
//!   the snapshot path otherwise;
//! * [`Stepping::Snapshot`] — always rebuild a CSR [`crate::Snapshot`]
//!   per round (the classic pipeline, and the reference the delta path
//!   is pinned against);
//! * [`Stepping::Delta`] — always drive
//!   [`step_delta`](crate::EvolvingGraph::step_delta) through a
//!   [`crate::DynAdjacency`]; correct for every model, fast for
//!   slow-churn ones.
//!
//! Records are byte-identical across paths — only per-round cost
//! differs:
//!
//! ```
//! use dynagraph::engine::{Simulation, Stepping};
//! use dynagraph::PeriodicEvolvingGraph;
//! use dg_graph::generators;
//!
//! let graphs = [generators::path(10), generators::cycle(10)];
//! let run = |stepping| {
//!     Simulation::builder()
//!         .model(|_| PeriodicEvolvingGraph::new(&graphs).unwrap())
//!         .trials(3)
//!         .max_rounds(100)
//!         .stepping(stepping)
//!         .run()
//! };
//! assert_eq!(run(Stepping::Snapshot), run(Stepping::Delta));
//! ```
//!
//! On the delta path, observers see [`RoundCtx::delta`] for free (e.g.
//! [`ChurnObserver`]); a CSR snapshot is materialized per round only for
//! observers whose [`Observer::needs_snapshots`] returns `true`. Flooding
//! over a lane model starts with scan rounds that carry neither; an
//! observer returning `true` from [`Observer::needs_deltas`] or
//! [`Observer::needs_snapshots`] gets adjacency rounds, and so a delta,
//! every round.
//!
//! # Migrating from the pre-engine API
//!
//! Every Monte-Carlo loop goes through the builder. The legacy gossip
//! primitives are gone from the API; they live on as the test oracles
//! (`tests/support`) the engine suite pins the protocols to:
//!
//! | old                                               | new                                        |
//! |---------------------------------------------------|--------------------------------------------|
//! | `gossip::push_spread(&mut g, s, k, cap, seed)`    | `.protocol(PushGossip::new(k))`            |
//! | `gossip::parsimonious_flood(&mut g, s, ttl, cap)` | `.protocol(ParsimoniousFlooding::new(ttl))`|
//! | hand-rolled trial loops + `Summary`               | `.observers(…)` + [`SimulationReport`]     |
//!
//! `flooding::flood`/`flood_multi`/`flood_sharded` keep their
//! signatures as single-run fronts over this engine's executors.

pub(crate) mod instrument;
mod observer;
mod protocol;
mod report;
mod simulation;

pub use observer::{
    ChurnObserver, DelayObserver, MeanGrowthObserver, Observer, PhaseObserver, RoundCtx,
};
pub use protocol::{
    Flooding, ParsimoniousFlooding, Protocol, ProtocolStatus, PushGossip, SpreadView, Transmissions,
};
pub use report::{SimulationReport, TrialRecord};
pub(crate) use simulation::flood_trial;
pub use simulation::{NoModel, Simulation, SimulationBuilder, Stepping, TrialScratch};
