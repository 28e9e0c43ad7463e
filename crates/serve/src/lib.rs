//! # dg-serve — phase diagrams as a service
//!
//! A sweep artifact is expensive to make and cheap to keep: hours of
//! Monte-Carlo trials collapse into one JSON file whose identity — the
//! [`dg_sweep::SweepReport::fingerprint`] over axes, round caps, seed,
//! and budget — is computable *before* running anything
//! ([`dg_sweep::SweepSpec::fingerprint`]). This crate turns that into a
//! service:
//!
//! * [`ArtifactStore`] — a content-addressed directory
//!   (`store/<fingerprint>.json`) with an in-memory index, atomic
//!   idempotent writes, and quarantine (never a crash) for files that
//!   fail validation;
//! * [`Daemon`] — request routing plus a background worker pool: a
//!   `POST`ed spec is served from the store on a hit, and on a miss the
//!   sweep runs in the background *checkpointing into the store*, so a
//!   killed daemon restarts into a resume, not a re-run;
//! * [`http`] — the hand-rolled HTTP/1.1 layer (std `TcpListener`; this
//!   crate takes no dependencies beyond the workspace);
//! * [`Workload`] — the one trial-function family a daemon serves (the
//!   paper's edge-MEG flooding phase diagram: `flooding/2`, the lane
//!   model at every cell, by default, `flooding/1` as the exact-scan
//!   reproducer of older artifacts), with the admission rule that keeps
//!   worker threads panic-free and bounds each trial's expected on-edge
//!   count, and the store directory that keeps workloads apart.
//!
//! The load-bearing invariant is inherited from `dg-sweep` and extended
//! over the wire: the bytes `GET /sweep/<fp>` serves are byte-identical
//! to what a direct [`dg_sweep::Sweep`] run of the same spec writes —
//! whether the daemon computed the artifact in one go, was SIGKILLed
//! halfway and resumed on restart, or another client had posted the
//! same spec first.
//!
//! ## Route table
//!
//! | Route | Meaning |
//! |---|---|
//! | `GET /healthz` | liveness (workload, artifact/pending counts) |
//! | `GET /status` | operator view: store size, queue depth, in-flight sweeps, per-endpoint request counts and mean latency |
//! | `GET /metrics` | Prometheus text exposition of the process-wide [`dg_obs`] registry (requests, engine spans, sweep progress) |
//! | `GET /sweeps` | index of stored artifacts + pending fingerprints |
//! | `GET /sweep/<fp>` | the artifact, raw JSON (or CSV via `?format=csv` / `Accept: text/csv`); `202` while in flight, `500` if its job failed for good |
//! | `GET /sweep/<fp>/cell?axis=v&…` | exact or nearest cell summary, with grid distance |
//! | `POST /sweep` | a [`dg_sweep::SweepSpec`]: `200` + artifact on hit, `202` + fingerprint on miss, `400` on rejection, `503` + `Retry-After` when the queue is full |
//!
//! Request handling is instrumented ([`Daemon::handle`] records
//! per-endpoint counters and latency histograms) and logged at
//! `DG_LOG=debug`; worker lifecycle lands at `info`/`error`.
//!
//! ## Fault tolerance
//!
//! The daemon is built to *degrade*, not fall over, and the `dg-fault`
//! chaos suite holds it to that:
//!
//! * a job that panics (`daemon.worker.crash`) is requeued with its
//!   attempts bounded by [`DaemonConfig::max_job_attempts`]; past the
//!   bound the fingerprint is surfaced as `failed` in `/status` and
//!   `/sweeps` and `GET /sweep/<fp>` answers `500` until a re-`POST`
//!   clears it;
//! * store I/O passes the `store.read.err`/`store.write.err` sites with
//!   bounded deterministic retries, and a checkpoint corrupted mid-run
//!   is quarantined ([`ArtifactStore::quarantine_fingerprint`]) so the
//!   re-run starts clean;
//! * both the accept loop ([`http::serve_with`]) and the job queue
//!   ([`DaemonConfig::max_queue`]) are bounded, answering `503` +
//!   `Retry-After` instead of accepting unbounded work;
//! * every daemon lock recovers from poisoning — a panicking holder
//!   never wedges later requests.
//!
//! Through all of that, the served bytes stay pinned: a sweep that
//! crashed, was requeued, and resumed serves the same bytes a fault-free
//! run writes.
//!
//! ## Example
//!
//! ```no_run
//! use dg_serve::{http, ArtifactStore, Daemon, Workload};
//! use std::sync::Arc;
//!
//! // One store per workload: `flooding/2` keeps its artifacts in
//! // `phase-diagrams/flooding-2/`, apart from any `flooding/1` store at
//! // the root.
//! let workload = Workload::flooding();
//! let store = ArtifactStore::open(workload.store_root("phase-diagrams")).unwrap();
//! let daemon = Arc::new(Daemon::start(store, workload, 1).unwrap());
//! let handler = Arc::clone(&daemon);
//! let server = http::serve("127.0.0.1:0", move |req| handler.handle(req)).unwrap();
//! println!("serving on {}", server.addr());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod daemon;
pub mod http;
mod store;
mod workload;

pub use daemon::{Daemon, DaemonConfig, Submission};
pub use store::{ArtifactMeta, ArtifactStore, StoreError};
pub use workload::Workload;
