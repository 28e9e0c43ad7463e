//! The trial functions a daemon is willing to run, and the admission
//! rules that keep them panic-free.
//!
//! A sweep fingerprint names a *grid*, not a *measurement*: the store
//! key says nothing about which trial function produced the samples. A
//! daemon therefore serves exactly one [`Workload`] — every artifact in
//! its store was produced by that workload's trial function, so the
//! fingerprint is a complete content address within the daemon. The
//! workload id enters the store key through the store path instead
//! ([`Workload::store_root`]), which leaves fingerprints and stored bytes
//! as they were.
//!
//! The paper's flooding workload comes in two versions that admit the
//! same specs:
//!
//! * `flooding/2` ([`Workload::flooding`], the default) realizes every
//!   cell on the lane model, `ShardedSparseEdgeMeg`: `O(α·n²)` setup for
//!   stationary edge density `α = p/(p+q)` instead of `O(n²)`, so a
//!   served miss at `n = 4096`, `q = 0.01` is about 4.4× cheaper than on
//!   `flooding/1` (`BENCH_serve.json`);
//! * `flooding/1` ([`Workload::flooding_v1`]) keeps the exact-scan model
//!   at every density up to `n = 92 682`, so artifacts stored before
//!   `flooding/2` existed regenerate byte for byte (for the cells whose
//!   exact-scan memory its validator admits).
//!
//! The two draw the same flooding-time law, from different random
//! streams.
//!
//! The workload also carries the validator that stands between the wire
//! and the worker pool: [`dg_sweep::SweepSpec::from_json`] guarantees a
//! well-formed *sweep*, but only the workload knows which axis values
//! its model accepts. Everything the trial function would panic or
//! error on is rejected at submission time with a `400`, so a worker
//! thread never sees a spec it cannot run to completion.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// The one shape every workload trial function has: one row per trial,
/// one slot per metric the spec declares — what
/// [`dg_sweep::Sweep::run_metrics`] schedules. A scalar spec is the
/// row for `[Metric::new("rounds")]`.
type TrialRowFn = Arc<dyn Fn(&Cell, Trial, &[Metric]) -> Vec<Option<f64>> + Send + Sync>;

use dg_edge_meg::{check_rates, ShardedSparseEdgeMeg, SparseTwoStateEdgeMeg};
use dg_sweep::{Cell, Metric, SweepSpec, Trial};
use dynagraph::engine::{Simulation, TrialRecord, TrialScratch};
use dynagraph::sweep::{trial_metrics, TRIAL_METRICS};
use dynagraph::Shards;

/// Round cap for flooding trials on cells without an explicit
/// `max_rounds` table — matches the repo's phase-diagram examples.
const DEFAULT_MAX_ROUNDS: u32 = 200_000;

/// Largest `n` the flooding workload admits: 2^20, comfortably inside
/// the u64 pair-index space and the scale the sharded executor targets.
const MAX_FLOODING_N: usize = 1_048_576;

/// At or below this `n` a flooding trial runs on one thread, so a served
/// job is one compute thread; above it, on all cores. It is the old
/// `floor(sqrt(2^53))` admission cap, and `flooding/1` keeps the
/// exact-scan model up to it, so every spec a pre-sharding daemon could
/// have stored, and that fits the exact scan's memory price, reproduces
/// its artifact bytes. The exact scan costs
/// `O(n²)` RNG draws per trial but schedules only the toggles due in its
/// first 64 rounds up front.
const SHARDED_FLOODING_N: usize = 92_682;

/// Largest expected stationary on-edge count `α·n(n−1)/2` a flooding
/// cell may have, `α = p/(p+q)`. A trial holds every on-edge of its
/// stationary graph, at ~[`ON_EDGE_BYTES`] each, so the cap is
/// [`MAX_MODEL_BYTES`]; a larger allocation would abort the daemon,
/// which `catch_unwind` cannot isolate.
const MAX_EXPECTED_ON_EDGES: u64 = 1 << 26;

/// Bytes a flooding model holds per stationary on-edge, 39: an upper
/// bound. The lane model's alive lists, occupancy sets and round buffers
/// sum to ~12 B per on-edge at the served cell (`n = 4096`, `q = 0.01`),
/// ~16 B at `n = 512`, `p = 1`, `q = 0.3`, whose rounds peak at 1.3
/// times the on-set, and ~29 B on the sparse cells whose occupancy set
/// is a table rather than a bitmap (it costs at most 18 B per on-edge in
/// either form); `dg-edge-meg`'s `lane_bytes_within_the_admission_price`
/// holds such cells to this price.
const ON_EDGE_BYTES: f64 = 39.0;

/// Bytes the exact scan holds per node pair once a run passes round 64:
/// its `u32` pair slot, plus the pending first toggle that the replay of
/// the scan schedules for every pair (8 B in a calendar bucket, 16 B in
/// the overflow list when it is due more than 8192 rounds out). Slow
/// cells (`p = 1e-7`, `q = 0.5`, `n` from 2048 to 6000) peak at 20.0 to
/// 20.2 B per pair of `VmHWM` over a flooding trial.
const SCAN_PAIR_BYTES: f64 = 20.0;

/// Byte budget of one flooding model, ~2.6 GB: the on-edge cap's price.
const MAX_MODEL_BYTES: f64 = MAX_EXPECTED_ON_EDGES as f64 * ON_EDGE_BYTES;

/// Largest estimated lane model ([`model_bytes`]) kept warm between
/// trials: an idle model holds its memory while no trial runs.
const MAX_WARM_BYTES: f64 = (64 << 20) as f64;

/// One family of measurements: a named trial function plus the
/// admission rule for specs it can run.
#[derive(Clone)]
pub struct Workload {
    name: &'static str,
    /// Subdirectory of the daemon root holding this workload's store
    /// (`None`: the root itself).
    store_dir: Option<&'static str>,
    validate: fn(&SweepSpec) -> Result<(), String>,
    trial: TrialRowFn,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .finish()
    }
}

impl Workload {
    /// The workload's name (reported by `GET /healthz`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The directory under the daemon root `root` that holds this
    /// workload's [`ArtifactStore`](crate::ArtifactStore): `root` itself
    /// for `flooding/1`, `root/flooding-2` for `flooding/2` and
    /// `root/synthetic` for `synthetic`.
    ///
    /// A fingerprint names a grid, not the trial function that measured
    /// it, so two workloads must never share a store: a `flooding/2`
    /// daemon opened over a `flooding/1` store would serve the old
    /// realizations as its own. Flooding stores laid out before
    /// `flooding/2` existed sit at the root and keep serving their
    /// `flooding/1` bytes.
    pub fn store_root(&self, root: impl AsRef<Path>) -> PathBuf {
        match self.store_dir {
            Some(dir) => root.as_ref().join(dir),
            None => root.as_ref().to_path_buf(),
        }
    }

    /// Checks that every cell of `spec` is one this workload's trial
    /// function accepts; the message is served verbatim in the `400`.
    pub fn validate(&self, spec: &SweepSpec) -> Result<(), String> {
        (self.validate)(spec)
    }

    /// The scalar trial function, in the shape [`dg_sweep::Sweep::run`]
    /// wants: slot 0 of the row for `[Metric::new("rounds")]`.
    pub fn trial_fn(&self) -> impl Fn(&Cell, Trial) -> Option<f64> + Send + Sync + 'static {
        let trial = Arc::clone(&self.trial);
        let rounds = [Metric::new("rounds")];
        move |cell, t| trial(cell, t, &rounds)[0]
    }

    /// The multi-metric trial function for a spec declaring `metrics`,
    /// in the shape [`dg_sweep::Sweep::run_metrics`] wants. The metric
    /// list must be the spec's own (validated) declaration — it decides
    /// the row layout.
    pub fn metric_trial_fn(
        &self,
        metrics: Vec<Metric>,
    ) -> impl Fn(&Cell, Trial) -> Vec<Option<f64>> + Send + Sync + 'static {
        let trial = Arc::clone(&self.trial);
        move |cell, t| trial(cell, t, &metrics)
    }

    /// The paper's phase-diagram workload, `flooding/2` (the default):
    /// flooding time on a stationary sparse edge-MEG, realized by the
    /// lane model ([`ShardedSparseEdgeMeg`]) on every cell.
    ///
    /// Axes (any other name is rejected):
    ///
    /// * `n` — node count, integral, `2..=1_048_576` (required);
    /// * `q` — per-round edge death rate, in `(0, 1]` (required);
    /// * `p` — per-round edge birth rate, in `(0, 1]` (optional; absent
    ///   means the paper's sparse regime `p = 1.5/n`, and since axis
    ///   *presence* enters the fingerprint, the two parameterizations
    ///   never collide in the store). A grid with both a `p = 1` and a
    ///   `q = 1` value is rejected: that cell's edge chain is periodic.
    ///
    /// A trial realizes the stationary model from the trial seed, floods
    /// from node 0 under the cell's round cap (`max_rounds` table entry,
    /// or 200 000), and reports the flooding time — `None` when the cap
    /// censors the trial. When the process's last lane-model trial ran
    /// the same cell, the trial resets that idle model instead of
    /// building one, with the same record byte for byte; no model over
    /// 64 MiB is kept idle. Cells with `n` up to 92 682 run on one thread,
    /// so a served job is one compute thread; larger cells run across
    /// all cores. The samples do not depend on the thread count. Setup
    /// is one geometric draw per initial on-edge (`α·n²/2` of them).
    ///
    /// Only the law of the flooding time is part of this workload's
    /// contract, and `crates/edge-meg/tests/flooding_law.rs` checks it
    /// on both models against the exact count chain. Its artifacts
    /// differ from [`Workload::flooding_v1`]'s for the same spec, so it
    /// keeps them in its own store directory ([`Workload::store_root`]).
    pub fn flooding() -> Self {
        Self::flooding_on(false)
    }

    /// `flooding/1`, the byte-pinned reproducer of artifacts stored
    /// before `flooding/2` became the default: the same axes, validation
    /// and trial as [`Workload::flooding`], but every cell with `n` up to
    /// 92 682 (the pre-sharding admission cap) runs on the exact-scan
    /// model ([`SparseTwoStateEdgeMeg`]), whose realizations
    /// `tests/golden_flooding.rs` pins byte for byte. Its setup is
    /// `O(n²)` RNG draws, with the logarithm and the event push paid only
    /// for first toggles due within the first 64 rounds. Larger cells run
    /// on the lane model, as in `flooding/2`. Every trial builds its
    /// model: no exact-scan model is kept between trials. Its validator
    /// also prices the exact scan at 20 B per node pair (the pair-slot
    /// table and the event calendar a run past round 64 holds) against
    /// the same ~2.6 GB budget, so slow exact-scan cells stop at
    /// `n ≈ 16 000`.
    pub fn flooding_v1() -> Self {
        Self::flooding_on(true)
    }

    /// The flooding workload, on the exact scan up to
    /// [`SHARDED_FLOODING_N`] when `exact_scan` (`flooding/1`).
    fn flooding_on(exact_scan: bool) -> Self {
        Workload {
            name: if exact_scan {
                "flooding/1"
            } else {
                "flooding/2"
            },
            store_dir: (!exact_scan).then_some("flooding-2"),
            validate: if exact_scan {
                validate_flooding_v1
            } else {
                validate_flooding
            },
            trial: Arc::new(move |cell: &Cell, trial: Trial, metrics: &[Metric]| {
                trial_metrics(
                    &flooding_record(&WARM_LANE, cell, trial, exact_scan),
                    cell.usize("n"),
                    metrics,
                )
            }),
        }
    }

    /// A model-free workload for tests and benches: accepts any spec and
    /// returns a cheap pure function of `(cell, seed)`, censoring one
    /// seed in 13 to exercise the `null`-sample paths.
    pub fn synthetic() -> Self {
        Workload {
            name: "synthetic",
            store_dir: Some("synthetic"),
            validate: |_| Ok(()),
            // Slot 0 censors one seed in 13; later slots always complete,
            // so multi-metric specs exercise *per-metric* censoring (one
            // trial mixing null and numeric slots).
            trial: Arc::new(|cell: &Cell, trial: Trial, metrics: &[Metric]| {
                let sum = cell.values().iter().sum::<f64>();
                (0..metrics.len())
                    .map(|m| {
                        (m > 0 || !trial.seed.is_multiple_of(13))
                            .then(|| sum + (trial.seed % 7 + m as u64) as f64)
                    })
                    .collect()
            }),
        }
    }
}

/// The flooding workloads' admission rule (both versions admit the
/// same specs).
fn validate_flooding(spec: &SweepSpec) -> Result<(), String> {
    let mut has = [false; 2]; // n, q
    for axis in spec.axes() {
        match axis.name() {
            "n" => {
                has[0] = true;
                for &v in axis.values() {
                    if v.fract() != 0.0 || !(2.0..=MAX_FLOODING_N as f64).contains(&v) {
                        return Err(format!(
                            "axis \"n\" value {v} must be an integer in 2..=1048576"
                        ));
                    }
                }
            }
            "q" | "p" => {
                has[1] |= axis.name() == "q";
                for &v in axis.values() {
                    if !(v > 0.0 && v <= 1.0) {
                        return Err(format!(
                            "axis {:?} value {v} must be in (0, 1]",
                            axis.name()
                        ));
                    }
                }
            }
            other => {
                return Err(format!(
                    "unknown axis {other:?}: the flooding workload sweeps n, q and optionally p"
                ));
            }
        }
    }
    if !(has[0] && has[1]) {
        return Err("the flooding workload requires axes \"n\" and \"q\"".to_string());
    }
    // The grid is the product of its axes, so a p = 1 value and a q = 1
    // value always meet in some cell: there every edge toggles every
    // round, the chain is periodic, and the model has no stationary
    // start (`NotErgodic`).
    let has_one = |name: &str| {
        spec.axes()
            .iter()
            .any(|a| a.name() == name && a.values().contains(&1.0))
    };
    if has_one("p") && has_one("q") {
        return Err(
            "a cell with p = 1 and q = 1 is a periodic edge chain with no stationary \
             distribution; the flooding workload needs p < 1 or q < 1"
                .to_string(),
        );
    }
    // Every (p, q) the grid can form (p = 1.5/n without a p axis) must be
    // a pair the models' geometric sampler resolves: a rate whose 1 - r
    // rounds to 1 would turn every pair on at once.
    let values = |name: &str| axis_values(spec, name);
    let mut ps = values("p");
    if ps.is_empty() {
        ps = values("n").iter().map(|&n| 1.5 / n).collect();
    }
    let qs = values("q");
    for &p in &ps {
        for &q in &qs {
            check_rates(p, q).map_err(|e| {
                format!("the edge-MEG cannot sample the cell p = {p}, q = {q}: {e}")
            })?;
        }
    }
    // The expected on-edge count grows with n and p and falls with q,
    // also under p = 1.5/n, so the costliest cell pairs the largest n
    // with the largest p and the smallest q.
    let n = values("n").into_iter().fold(0.0, f64::max);
    let p = values("p").into_iter().reduce(f64::max).unwrap_or(1.5 / n);
    let q = qs.into_iter().fold(1.0, f64::min);
    let on_edges = p / (p + q) * n * (n - 1.0) / 2.0;
    if on_edges > MAX_EXPECTED_ON_EDGES as f64 {
        return Err(format!(
            "the cell n = {n}, p = {p}, q = {q} expects {on_edges:.3e} stationary on-edges \
             (alpha * n(n-1)/2), over the cap of {MAX_EXPECTED_ON_EDGES}"
        ));
    }
    if let Some(metrics) = spec.metrics() {
        for m in metrics {
            if !TRIAL_METRICS.contains(&m.name()) {
                return Err(format!(
                    "unknown metric {:?}: the flooding workload measures {TRIAL_METRICS:?}",
                    m.name()
                ));
            }
        }
    }
    Ok(())
}

/// Every value of the axes of `spec` named `name`.
fn axis_values(spec: &SweepSpec, name: &str) -> Vec<f64> {
    spec.axes()
        .iter()
        .filter(|a| a.name() == name)
        .flat_map(|a| a.values().iter().copied())
        .collect()
}

/// `flooding/1`'s admission rule: [`validate_flooding`], plus the price
/// of its costliest exact-scan cell ([`model_bytes`]) against the same
/// byte budget.
fn validate_flooding_v1(spec: &SweepSpec) -> Result<(), String> {
    validate_flooding(spec)?;
    // The price grows with n and p and falls with q, also under
    // p = 1.5/n, so the costliest exact-scan cell pairs the largest n up
    // to the sharding threshold with the largest p and the smallest q.
    let Some(n) = axis_values(spec, "n")
        .into_iter()
        .filter(|&n| n <= SHARDED_FLOODING_N as f64)
        .reduce(f64::max)
    else {
        return Ok(());
    };
    let p = axis_values(spec, "p")
        .into_iter()
        .reduce(f64::max)
        .unwrap_or(1.5 / n);
    let q = axis_values(spec, "q").into_iter().fold(1.0, f64::min);
    let bytes = model_bytes(n as usize, p, q, true);
    if bytes > MAX_MODEL_BYTES {
        return Err(format!(
            "the exact-scan cell n = {n}, p = {p}, q = {q} needs ~{bytes:.3e} bytes \
             ({SCAN_PAIR_BYTES} B per pair for its slot table and event calendar, plus \
             {ON_EDGE_BYTES} B per expected on-edge), over the budget of \
             {MAX_MODEL_BYTES:.3e} bytes"
        ));
    }
    Ok(())
}

/// Estimated bytes of a flooding cell's model: its expected stationary
/// on-edges, plus the exact scan's per-pair state.
fn model_bytes(n: usize, p: f64, q: f64, exact_scan: bool) -> f64 {
    let pairs = n as f64 * (n as f64 - 1.0) / 2.0;
    let scan = if exact_scan { SCAN_PAIR_BYTES } else { 0.0 };
    pairs * (p / (p + q) * ON_EDGE_BYTES + scan)
}

/// A cell's model key: `n` and the bits of `p` and `q`.
type CellKey = (usize, u64, u64);

/// One lane model kept warm between trials, with the key of the cell it
/// was built for.
struct WarmSlot(Mutex<Option<(CellKey, ShardedSparseEdgeMeg)>>);

impl WarmSlot {
    const fn new() -> Self {
        WarmSlot(Mutex::new(None))
    }

    /// Runs `trial` on a model slot for the cell `key`. With `keep`, the
    /// slot lends its model if a trial of the same cell left it (a hit:
    /// the trial resets it), drops it otherwise, and takes the trial's
    /// model back once the trial returns. The model is out of the slot
    /// while the trial runs, so a panicking trial drops it. Without
    /// `keep`, the slot is not touched.
    fn run<R>(
        &self,
        key: CellKey,
        keep: bool,
        trial: impl FnOnce(&mut Option<ShardedSparseEdgeMeg>) -> R,
    ) -> R {
        let mut model = None;
        if keep {
            let idle = self.lock().take();
            model = idle.and_then(|(k, g)| (k == key).then_some(g));
        }
        let out = trial(&mut model);
        if let Some(g) = model.filter(|_| keep) {
            let _replaced = self.lock().replace((key, g));
        }
        out
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Option<(CellKey, ShardedSparseEdgeMeg)>> {
        // Every update is one `take` or `replace`, so even a poisoned slot
        // holds a whole keyed model or none.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Every lane-model flooding trial of the process draws its model from
/// here, so a direct sweep and the daemon's workers share one idle model.
static WARM_LANE: WarmSlot = WarmSlot::new();

/// One flooding trial of `cell`: on the exact-scan model up to
/// [`SHARDED_FLOODING_N`] when `exact_scan` (`flooding/1`), built for
/// the trial, otherwise on the lane model, one thread up to
/// [`SHARDED_FLOODING_N`] and all cores above it. One-thread lane cells
/// whose model is at most [`MAX_WARM_BYTES`] keep it warm in `warm`: a
/// trial of the cell the last one ran is a `reset`, whose record equals
/// a fresh model's.
fn flooding_record(warm: &WarmSlot, cell: &Cell, trial: Trial, exact_scan: bool) -> TrialRecord {
    let n = cell.usize("n");
    let q = cell.get("q");
    let p = cell.try_get("p").unwrap_or(1.5 / n as f64);
    let max_rounds = cell.max_rounds().unwrap_or(DEFAULT_MAX_ROUNDS);
    let engine = Simulation::builder()
        .max_rounds(max_rounds)
        .base_seed(trial.cell_seed);
    let one_thread = n <= SHARDED_FLOODING_N;
    if exact_scan && one_thread {
        return engine
            .model(move |seed| {
                SparseTwoStateEdgeMeg::stationary(n, p, q, seed)
                    .expect("spec validated at submission")
            })
            .run_trial(trial.index);
    }
    let engine = engine
        .model(move |seed| {
            ShardedSparseEdgeMeg::stationary(n, p, q, seed).expect("spec validated at submission")
        })
        .shards(if one_thread {
            Shards::Fixed(1)
        } else {
            Shards::Auto
        });
    let key = (n, p.to_bits(), q.to_bits());
    let keep = one_thread && model_bytes(n, p, q, false) <= MAX_WARM_BYTES;
    warm.run(key, keep, |model| {
        engine.run_trial_with(trial.index, model, &mut TrialScratch::new())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_sweep::{Axis, TrialBudget};

    fn spec(axes: Vec<Axis>) -> SweepSpec {
        SweepSpec::new(axes, 1, TrialBudget::fixed(1))
    }

    #[test]
    fn flooding_validator_rules() {
        let w = Workload::flooding();
        assert!(w
            .validate(&spec(vec![
                Axis::ints("n", [16, 32]),
                Axis::log("q", 0.1, 0.4, 2),
            ]))
            .is_ok());
        assert!(w
            .validate(&spec(vec![
                Axis::ints("n", [16]),
                Axis::explicit("q", [1.0]),
                Axis::explicit("p", [0.5]),
            ]))
            .is_ok());
        // The old 92 682 admission cap is gone: million-node cells are
        // admitted (and routed to the sharded model).
        assert!(w
            .validate(&spec(vec![
                Axis::ints("n", [100_000, 1_048_576]),
                Axis::explicit("q", [0.1]),
            ]))
            .is_ok());
        let bad: Vec<Vec<Axis>> = vec![
            vec![Axis::ints("n", [16])],                                    // no q
            vec![Axis::explicit("q", [0.1])],                               // no n
            vec![Axis::ints("n", [1]), Axis::explicit("q", [0.1])],         // n too small
            vec![Axis::ints("n", [2_000_000]), Axis::explicit("q", [0.1])], // n too large
            vec![Axis::explicit("n", [4.5]), Axis::explicit("q", [0.1])],   // fractional n
            vec![Axis::ints("n", [16]), Axis::explicit("q", [1.5])],        // q > 1
            vec![
                Axis::ints("n", [16]),
                Axis::explicit("q", [0.1]),
                Axis::explicit("p", [0.0]),
            ], // p = 0
            vec![
                Axis::ints("n", [16]),
                Axis::explicit("q", [0.1]),
                Axis::explicit("rounds", [5.0]),
            ], // unknown axis
        ];
        for axes in bad {
            assert!(w.validate(&spec(axes.clone())).is_err(), "{axes:?}");
        }
    }

    #[test]
    fn flooding_admission_caps_the_expected_on_edge_count() {
        let w = Workload::flooding();
        // Admitted: the served cell, the sparse million-node cell and a
        // dense cell at n = 4096 (α = 10/13, ~6.4e6 on-edges).
        for axes in [
            vec![Axis::ints("n", [4096]), Axis::explicit("q", [0.01])],
            vec![Axis::ints("n", [1_048_576]), Axis::explicit("q", [0.1])],
            vec![
                Axis::ints("n", [4096]),
                Axis::explicit("q", [0.3]),
                Axis::explicit("p", [1.0]),
            ],
        ] {
            assert!(w.validate(&spec(axes.clone())).is_ok(), "{axes:?}");
        }
        // Rejected: n = 2^20 under p = 1.5/n with q = 1e-6 (~3.2e11
        // on-edges) or q = 1e-3 (~7.9e8); a grid with a dense n = 92 682
        // cell; and a grid whose costliest cell joins values of
        // different cells' axes (n = 2^20 from one, q = 1e-3 from
        // another).
        for axes in [
            vec![Axis::ints("n", [1_048_576]), Axis::explicit("q", [1e-6])],
            vec![Axis::ints("n", [1_048_576]), Axis::explicit("q", [1e-3])],
            vec![
                Axis::ints("n", [92_682]),
                Axis::explicit("q", [0.5]),
                Axis::explicit("p", [1e-6, 1.0]),
            ],
            vec![
                Axis::ints("n", [16, 1_048_576]),
                Axis::explicit("q", [1e-3, 0.5]),
            ],
        ] {
            let err = w.validate(&spec(axes.clone())).unwrap_err();
            assert!(
                err.contains("on-edges") && err.contains(&MAX_EXPECTED_ON_EDGES.to_string()),
                "{axes:?}: {err}"
            );
        }
        let err = Workload::flooding_v1()
            .validate(&spec(vec![
                Axis::ints("n", [1_048_576]),
                Axis::explicit("q", [1e-6]),
            ]))
            .unwrap_err();
        assert!(err.contains("3.2"), "the count is stated: {err}");
    }

    #[test]
    fn flooding_v1_admission_prices_the_exact_scan() {
        // n = 92 682 is the exact scan's old cap: ~8.6e10 bytes of slot
        // table and calendar. flooding/2 admits the same sparse cell
        // (~1.4e5 on-edges on the lane model).
        let huge = spec(vec![
            Axis::ints("n", [16, 92_682]),
            Axis::explicit("q", [0.5]),
        ]);
        let err = Workload::flooding_v1().validate(&huge).unwrap_err();
        assert!(
            err.contains("slot table and event calendar") && err.contains("8.590e10"),
            "the price is stated: {err}"
        );
        assert!(Workload::flooding().validate(&huge).is_ok());
        // A slow cell (few on-edges, so the on-edge cap passes it) floods
        // for far more than 64 rounds: the budget ends between n = 16 000
        // and n = 16 500, so the old n = 36 000 limit is rejected. Above
        // the sharding threshold flooding/1 runs the lane model, priced
        // by the on-edge cap alone.
        for (n, ok) in [
            (16_000, true),
            (16_500, false),
            (36_000, false),
            (92_683, true),
        ] {
            let s = spec(vec![
                Axis::ints("n", [n]),
                Axis::explicit("q", [0.5]),
                Axis::explicit("p", [1e-7]),
            ]);
            assert_eq!(Workload::flooding_v1().validate(&s).is_ok(), ok, "n = {n}");
        }
        // The on-edges of a dense cell are priced too: n = 10 000 with
        // alpha = 10/13 needs ~50 B per pair.
        let dense = spec(vec![
            Axis::ints("n", [10_000]),
            Axis::explicit("q", [0.3]),
            Axis::explicit("p", [1.0]),
        ]);
        assert!(Workload::flooding_v1().validate(&dense).is_ok());
        let denser = spec(vec![
            Axis::ints("n", [11_000]),
            Axis::explicit("q", [0.3]),
            Axis::explicit("p", [1.0]),
        ]);
        assert!(Workload::flooding_v1().validate(&denser).is_err());
        // The golden cells stay admitted.
        for axes in [
            vec![Axis::ints("n", [4096]), Axis::explicit("q", [0.01])],
            vec![
                Axis::ints("n", [48, 200, 512]),
                Axis::explicit("q", [0.02, 1.0]),
                Axis::explicit("p", [0.0005, 0.05]),
            ],
            vec![
                Axis::ints("n", [48, 512]),
                Axis::explicit("q", [0.3, 0.9]),
                Axis::explicit("p", [1.0]),
            ],
        ] {
            assert!(
                Workload::flooding_v1()
                    .validate(&spec(axes.clone()))
                    .is_ok(),
                "{axes:?}"
            );
        }
    }

    /// Cell `id` of a small grid: `n ∈ {24, 40}` × `p ∈ {0.05, 0.2}`,
    /// `q = 0.3`, so cells differ in `n` or in `p` alone.
    fn warm_cell(id: usize) -> (Cell, u64) {
        let s = SweepSpec::new(
            vec![
                Axis::ints("n", [24, 40]),
                Axis::explicit("q", [0.3]),
                Axis::explicit("p", [0.05, 0.2]),
            ],
            0xCE11,
            TrialBudget::fixed(1),
        );
        (s.grid().cell(id), dg_sweep::mix_seed(0xCE11, id as u64))
    }

    /// Trial `index` of [`warm_cell`] `id` over the warm slot `warm`.
    fn warm_record(warm: &WarmSlot, id: usize, index: usize, exact_scan: bool) -> TrialRecord {
        let (cell, cell_seed) = warm_cell(id);
        let seed = dg_sweep::mix_seed(cell_seed, index as u64);
        let trial = Trial {
            index,
            cell_seed,
            seed,
        };
        flooding_record(warm, &cell, trial, exact_scan)
    }

    /// The same trial on a fresh model, without any slot.
    fn fresh_record(id: usize, index: usize, exact_scan: bool) -> TrialRecord {
        let (cell, cell_seed) = warm_cell(id);
        let (n, p, q) = (cell.usize("n"), cell.get("p"), cell.get("q"));
        let engine = Simulation::builder()
            .max_rounds(DEFAULT_MAX_ROUNDS)
            .base_seed(cell_seed);
        if exact_scan {
            engine
                .model(move |s| SparseTwoStateEdgeMeg::stationary(n, p, q, s).unwrap())
                .run_trial(index)
        } else {
            engine
                .model(move |s| ShardedSparseEdgeMeg::stationary(n, p, q, s).unwrap())
                .run_trial(index)
        }
    }

    /// The key of the model idle in `slot`, if any.
    fn idle_key(slot: &WarmSlot) -> Option<CellKey> {
        slot.lock().as_ref().map(|(k, _)| *k)
    }

    fn key_of(id: usize) -> CellKey {
        let (cell, _) = warm_cell(id);
        (
            cell.usize("n"),
            cell.get("p").to_bits(),
            cell.get("q").to_bits(),
        )
    }

    #[test]
    fn warm_slot_reuses_a_repeated_cell_and_replaces_a_new_one() {
        dg_obs::set_enabled(true);
        let reused = || {
            dg_obs::Registry::global()
                .counter_value("dg_engine_models_reused_total")
                .unwrap_or(0)
        };
        let warm = WarmSlot::new();
        assert_eq!(warm_record(&warm, 0, 0, false), fresh_record(0, 0, false));
        assert_eq!(idle_key(&warm), Some(key_of(0)), "the lane model is kept");
        let before = reused();
        assert_eq!(warm_record(&warm, 0, 1, false), fresh_record(0, 1, false));
        assert!(reused() > before, "a repeated cell resets the idle model");
        // A cell differing in p alone replaces the idle model.
        assert_eq!(warm_record(&warm, 1, 0, false), fresh_record(1, 0, false));
        assert_eq!(idle_key(&warm), Some(key_of(1)));
        // An exact-scan trial builds its own model and leaves the slot as
        // it was, also on the cell the slot holds.
        for id in [0, 1] {
            assert_eq!(warm_record(&warm, id, 2, true), fresh_record(id, 2, true));
            assert_eq!(idle_key(&warm), Some(key_of(1)));
        }
    }

    #[test]
    fn warm_slot_keeps_no_model_over_the_bound() {
        // The served cell's lane model is kept; a dense n = 4096 cell
        // (~6.4e6 on-edges) is not.
        let sparse = 1.5 / 4096.0;
        assert!(model_bytes(4096, sparse, 0.01, false) <= MAX_WARM_BYTES);
        assert!(model_bytes(4096, 1.0, 0.3, false) > MAX_WARM_BYTES);
        // A trial whose model is not kept leaves the slot as it was.
        let warm = WarmSlot::new();
        let _ = warm_record(&warm, 0, 0, false);
        warm.run(key_of(1), false, |m| {
            assert!(m.is_none(), "an unkept cell gets no idle model");
            *m = Some(ShardedSparseEdgeMeg::stationary(24, 0.2, 0.3, 1).unwrap());
        });
        assert_eq!(idle_key(&warm), Some(key_of(0)));
    }

    #[test]
    fn warm_slot_drops_the_model_of_a_panicking_trial() {
        let warm = WarmSlot::new();
        let _ = warm_record(&warm, 0, 0, false);
        let key = key_of(0);
        assert_eq!(idle_key(&warm), Some(key));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            warm.run(key, true, |model| {
                assert!(model.is_some(), "the idle model is lent to the trial");
                panic!("trial panics mid-run");
            })
        }));
        assert!(panicked.is_err());
        assert_eq!(idle_key(&warm), None, "the panicking trial's model is gone");
        // The next trial of the cell builds afresh and is kept again.
        assert_eq!(warm_record(&warm, 0, 1, false), fresh_record(0, 1, false));
        assert_eq!(idle_key(&warm), Some(key));
    }

    #[test]
    fn warm_trials_interleaved_across_cells_equal_fresh_records() {
        // Hits, misses on n and on p alone, and returns to an earlier
        // cell: every record of either workload equals the stateless
        // fresh-model record, and flooding/1 trials mixed in between
        // leave the lane model's hits intact.
        let order = [
            (0, 0),
            (0, 1),
            (1, 0),
            (0, 2),
            (3, 0),
            (3, 1),
            (2, 0),
            (1, 1),
            (1, 2),
        ];
        let warm = WarmSlot::new();
        for (id, index) in order {
            for exact_scan in [false, true] {
                assert_eq!(
                    warm_record(&warm, id, index, exact_scan),
                    fresh_record(id, index, exact_scan),
                    "exact_scan {exact_scan}: cell {id}, trial {index}"
                );
            }
        }
    }

    #[test]
    fn flooding_validation_implies_panic_free_trials() {
        // Boundary grid p, q in {1e-17, 1e-6, 0.5, 1}: each single-cell
        // spec the validator accepts must run a trial without panicking,
        // and the ones it rejects are p = q = 1 (the periodic chain) and
        // those with a rate the geometric sampler cannot resolve.
        for w in [Workload::flooding_v1(), Workload::flooding()] {
            assert_validation_implies_panic_free_trials(&w);
        }
    }

    fn assert_validation_implies_panic_free_trials(w: &Workload) {
        let name = w.name();
        let rates = [1e-17, 1e-6, 0.5, 1.0];
        for n in [16usize, 48] {
            for p in rates {
                for q in rates {
                    let s = SweepSpec::new(
                        vec![
                            Axis::ints("n", [n]),
                            Axis::explicit("q", [q]),
                            Axis::explicit("p", [p]),
                        ],
                        7,
                        TrialBudget::fixed(1),
                    )
                    .with_max_rounds(vec![2_000]);
                    match w.validate(&s) {
                        Ok(()) => {
                            // A panicking trial fails this test (or surfaces as
                            // the sweep's error after its retries).
                            let report = s.sweep().run(w.trial_fn());
                            assert!(
                                report.is_ok(),
                                "{name}: n = {n}, p = {p}, q = {q}: {report:?}"
                            );
                        }
                        Err(e) if p == 1e-17 || q == 1e-17 => {
                            assert!(e.contains("cannot sample"), "{e}");
                        }
                        Err(e) => {
                            assert_eq!(
                                (p, q),
                                (1.0, 1.0),
                                "{name}: rejected n = {n}, p = {p}, q = {q}: {e}"
                            );
                            assert!(e.contains("periodic"), "{e}");
                        }
                    }
                }
            }
        }
        // A grid whose axes merely contain p = 1 and q = 1 is rejected
        // as a whole: the product has the (1, 1) cell.
        let grid = spec(vec![
            Axis::ints("n", [16]),
            Axis::explicit("q", [0.5, 1.0]),
            Axis::explicit("p", [1e-6, 1.0]),
        ]);
        assert!(w.validate(&grid).is_err());
        // Without a p axis, p = 1.5/n meets every q value.
        let no_p = spec(vec![
            Axis::ints("n", [16]),
            Axis::explicit("q", [0.5, 1e-17]),
        ]);
        assert!(w.validate(&no_p).unwrap_err().contains("cannot sample"));
    }

    /// The spec both workloads' trial pins run: `n = 24`, `q = 0.3`,
    /// default `p`, two trials.
    fn pin_spec() -> SweepSpec {
        SweepSpec::new(
            vec![Axis::ints("n", [24]), Axis::explicit("q", [0.3])],
            0xFEED,
            TrialBudget::fixed(2),
        )
    }

    /// Trial 1 of [`pin_spec`]'s cell, run on the engine directly with
    /// the given model.
    fn pin_record<G, M>(model: M) -> TrialRecord
    where
        G: dynagraph::EvolvingGraph,
        M: Fn(u64) -> G,
    {
        Simulation::builder()
            .model(model)
            .max_rounds(200_000)
            .base_seed(dg_sweep::mix_seed(0xFEED, 0))
            .run_trial(1)
    }

    #[test]
    fn flooding_v1_trial_matches_direct_exact_scan_run() {
        // The workload's trial function is the same glue the examples
        // hand-write; pin one (cell, trial) against the engine directly.
        let report = pin_spec()
            .sweep()
            .run(Workload::flooding_v1().trial_fn())
            .unwrap();
        let p = 1.5 / 24.0;
        let direct =
            pin_record(move |seed| SparseTwoStateEdgeMeg::stationary(24, p, 0.3, seed).unwrap());
        assert_eq!(report.cell(0).samples[1], vec![direct.time.map(f64::from)]);
    }

    #[test]
    fn flooding_v2_trial_matches_direct_lane_model_run() {
        let report = pin_spec()
            .sweep()
            .run(Workload::flooding().trial_fn())
            .unwrap();
        let p = 1.5 / 24.0;
        let direct =
            pin_record(move |seed| ShardedSparseEdgeMeg::stationary(24, p, 0.3, seed).unwrap());
        assert_eq!(report.cell(0).samples[1], vec![direct.time.map(f64::from)]);
        // A dense cell (p = 0.5, α = 0.625) runs on the lane model too. It
        // floods in a round or two, so the row carries the message count,
        // which tells the realizations apart.
        let metrics = vec![Metric::new("rounds"), Metric::observe("messages")];
        let dense = SweepSpec::new(
            vec![
                Axis::ints("n", [24]),
                Axis::explicit("q", [0.3]),
                Axis::explicit("p", [0.5]),
            ],
            0xFEED,
            TrialBudget::fixed(2),
        )
        .with_metrics(metrics.clone());
        let report = dense
            .sweep()
            .run_metrics(Workload::flooding().metric_trial_fn(metrics))
            .unwrap();
        let direct =
            pin_record(|seed| ShardedSparseEdgeMeg::stationary(24, 0.5, 0.3, seed).unwrap());
        assert_eq!(
            report.cell(0).samples[1],
            vec![direct.time.map(f64::from), Some(direct.messages as f64)]
        );
    }

    #[test]
    fn flooding_routes_large_n_to_sharded_model() {
        // Above the old cap both workloads build the lane-sharded model;
        // pin its sample against a direct sharded-model run, and check
        // the shard-count independence the store relies on (the same
        // spec must hash to the same artifact on any machine).
        let n = SHARDED_FLOODING_N + 1;
        let p = 1.5 / n as f64; // the sparse default the absent axis implies
        let s = SweepSpec::new(
            vec![Axis::ints("n", [n]), Axis::explicit("q", [0.5])],
            0xDA7A,
            TrialBudget::fixed(1),
        );
        let direct = Simulation::builder()
            .model(move |seed| ShardedSparseEdgeMeg::stationary(n, p, 0.5, seed).unwrap())
            .max_rounds(200_000)
            .base_seed(dg_sweep::mix_seed(0xDA7A, 0))
            .shards(4)
            .run_trial(0)
            .time
            .map(f64::from);
        // Above the threshold both versions run the same lane model.
        for w in [Workload::flooding_v1(), Workload::flooding()] {
            assert!(w.validate(&s).is_ok());
            let report = s.sweep().run(w.trial_fn()).unwrap();
            assert_eq!(report.cell(0).samples[0], vec![direct], "{}", w.name());
        }
    }

    #[test]
    fn flooding_validates_metric_names() {
        let w = Workload::flooding();
        let axes = || vec![Axis::ints("n", [16]), Axis::explicit("q", [0.5])];
        let good = spec(axes()).with_metrics(vec![
            Metric::new("rounds"),
            Metric::observe("messages"),
            Metric::observe("coverage"),
        ]);
        assert!(w.validate(&good).is_ok());
        let bad = spec(axes()).with_metrics(vec![Metric::new("latency")]);
        let err = w.validate(&bad).unwrap_err();
        assert!(err.contains("latency"), "{err}");
    }

    /// Trial 1's metric row of [`pin_spec`] under `w`, against the row
    /// a direct engine `record` yields.
    fn assert_metric_row_matches(w: &Workload, record: &TrialRecord) {
        // The multi-metric trial extracts from the same record the
        // scalar path observes: rows must line up slot-for-slot with a
        // direct engine run.
        let metrics = vec![
            Metric::new("rounds"),
            Metric::observe("messages"),
            Metric::observe("coverage"),
        ];
        let s = pin_spec().with_metrics(metrics.clone());
        assert!(w.validate(&s).is_ok());
        let report = s.sweep().run_metrics(w.metric_trial_fn(metrics)).unwrap();
        assert_eq!(
            report.cell(0).samples[1],
            vec![
                record.time.map(f64::from),
                Some(record.messages as f64),
                Some(record.informed as f64 / 24.0),
            ],
            "{}",
            w.name()
        );
    }

    #[test]
    fn flooding_v1_metric_rows_match_direct_exact_scan_records() {
        let p = 1.5 / 24.0;
        let record =
            pin_record(move |seed| SparseTwoStateEdgeMeg::stationary(24, p, 0.3, seed).unwrap());
        assert_metric_row_matches(&Workload::flooding_v1(), &record);
    }

    #[test]
    fn flooding_v2_metric_rows_match_direct_lane_model_records() {
        let p = 1.5 / 24.0;
        let record =
            pin_record(move |seed| ShardedSparseEdgeMeg::stationary(24, p, 0.3, seed).unwrap());
        assert_metric_row_matches(&Workload::flooding(), &record);
    }

    #[test]
    fn workloads_name_their_versions_and_store_roots() {
        let root = Path::new("data");
        let v1 = Workload::flooding_v1();
        let v2 = Workload::flooding();
        assert_eq!(
            (v1.name(), v1.store_root(root)),
            ("flooding/1", root.into())
        );
        assert_eq!(
            (v2.name(), v2.store_root(root)),
            ("flooding/2", root.join("flooding-2"))
        );
        let synthetic = Workload::synthetic();
        assert_eq!(synthetic.store_root(root), root.join("synthetic"));
    }

    #[test]
    fn synthetic_accepts_anything_and_censors_deterministically() {
        let w = Workload::synthetic();
        let s = spec(vec![Axis::explicit("whatever", [1.0, 2.0])]);
        assert!(w.validate(&s).is_ok());
        let a = s.sweep().run(w.trial_fn()).unwrap();
        let b = s.sweep().run(w.trial_fn()).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn synthetic_metric_rows_censor_per_metric() {
        let w = Workload::synthetic();
        let metrics = vec![Metric::observe("a"), Metric::observe("b")];
        let s = spec(vec![Axis::explicit("x", [1.0])]).with_metrics(metrics.clone());
        // Enough trials that seed % 13 == 0 happens at least once.
        let s = SweepSpec::new(s.axes().to_vec(), 1, TrialBudget::fixed(32))
            .with_metrics(metrics.clone());
        let report = s.sweep().run_metrics(w.metric_trial_fn(metrics)).unwrap();
        let cell = report.cell(0);
        assert!(
            cell.incomplete_of(0) > 0,
            "slot 0 censors like the scalar path"
        );
        assert_eq!(cell.incomplete_of(1), 0, "later slots always complete");
    }
}
