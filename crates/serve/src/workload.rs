//! The trial functions a daemon is willing to run, and the admission
//! rules that keep them panic-free.
//!
//! A sweep fingerprint names a *grid*, not a *measurement*: the store
//! key says nothing about which trial function produced the samples. A
//! daemon therefore serves exactly one [`Workload`] — every artifact in
//! its store was produced by that workload's trial function, so the
//! fingerprint is a complete content address within the daemon.
//!
//! The workload also carries the validator that stands between the wire
//! and the worker pool: [`dg_sweep::SweepSpec::from_json`] guarantees a
//! well-formed *sweep*, but only the workload knows which axis values
//! its model accepts. Everything the trial function would panic or
//! error on is rejected at submission time with a `400`, so a worker
//! thread never sees a spec it cannot run to completion.

use std::sync::Arc;

/// The shape every workload trial function shares — what
/// [`dg_sweep::Sweep::run`] schedules across its worker pool.
type TrialFn = Arc<dyn Fn(&Cell, Trial) -> Option<f64> + Send + Sync>;

/// The multi-metric form: one row per trial, one slot per metric the
/// spec declares — what [`dg_sweep::Sweep::run_metrics`] schedules.
type MetricRowFn = Arc<dyn Fn(&Cell, Trial, &[Metric]) -> Vec<Option<f64>> + Send + Sync>;

use dg_edge_meg::{check_rates, ShardedSparseEdgeMeg, SparseTwoStateEdgeMeg};
use dg_sweep::{Cell, Metric, SweepSpec, Trial};
use dynagraph::engine::{Simulation, TrialRecord};
use dynagraph::sweep::{trial_metrics, TRIAL_METRICS};
use dynagraph::Shards;

/// Round cap for flooding trials on cells without an explicit
/// `max_rounds` table — matches the repo's phase-diagram examples.
const DEFAULT_MAX_ROUNDS: u32 = 200_000;

/// Largest `n` the flooding workload admits: 2^20, comfortably inside
/// the u64 pair-index space and the scale the sharded executor targets.
const MAX_FLOODING_N: usize = 1_048_576;

/// Above this `n`, flooding trials switch from the exact-scan model to
/// the lane-sharded one and run on all cores. The threshold is the old
/// `floor(sqrt(2^53))` admission cap, so every spec a pre-sharding
/// daemon could have stored still runs on the exact-scan model and
/// reproduces its artifact bytes. The exact scan costs `O(n²)` RNG
/// draws per trial but schedules only the toggles due in its first 64
/// rounds up front, so the short floods of the sparse regime never pay
/// for the rest.
const SHARDED_FLOODING_N: usize = 92_682;

/// One family of measurements: a named trial function plus the
/// admission rule for specs it can run.
#[derive(Clone)]
pub struct Workload {
    name: &'static str,
    validate: fn(&SweepSpec) -> Result<(), String>,
    trial: TrialFn,
    metric_trial: MetricRowFn,
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

    /// Checks that every cell of `spec` is one this workload's trial
    /// function accepts; the message is served verbatim in the `400`.
    pub fn validate(&self, spec: &SweepSpec) -> Result<(), String> {
        (self.validate)(spec)
    }

    /// A clone of the trial function, in the shape [`dg_sweep::Sweep::run`]
    /// wants.
    pub fn trial_fn(&self) -> impl Fn(&Cell, Trial) -> Option<f64> + Send + Sync + 'static {
        let trial = Arc::clone(&self.trial);
        move |cell, t| trial(cell, t)
    }

    /// The multi-metric trial function for a spec declaring `metrics`,
    /// in the shape [`dg_sweep::Sweep::run_metrics`] wants. The metric
    /// list must be the spec's own (validated) declaration — it decides
    /// the row layout.
    pub fn metric_trial_fn(
        &self,
        metrics: Vec<Metric>,
    ) -> impl Fn(&Cell, Trial) -> Vec<Option<f64>> + Send + Sync + 'static {
        let trial = Arc::clone(&self.metric_trial);
        move |cell, t| trial(cell, t, &metrics)
    }

    /// The paper's phase-diagram workload: flooding time on a stationary
    /// sparse edge-MEG.
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
    /// A trial builds the stationary model from the trial seed, floods
    /// from node 0 under the cell's round cap (`max_rounds` table entry,
    /// or 200 000), and reports the flooding time — `None` when the cap
    /// censors the trial. Cells with `n` above 92 682 (the pre-sharding
    /// admission cap) run on the lane-sharded model across all cores;
    /// smaller cells keep the exact-scan model, so artifacts stored by
    /// older daemons remain byte-reproducible (pinned by
    /// `tests/golden_flooding.rs`). Its setup is `O(n²)` RNG draws,
    /// with the logarithm and the event push paid only for first
    /// toggles due within the first 64 rounds.
    pub fn flooding() -> Self {
        fn validate(spec: &SweepSpec) -> Result<(), String> {
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
            // The grid is the product of its axes, so a p = 1 value and a
            // q = 1 value always meet in some cell: there every edge
            // toggles every round, the chain is periodic, and the model
            // has no stationary start (`NotErgodic`).
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
            // Every (p, q) the grid can form (p = 1.5/n without a p
            // axis) must be a pair the models' geometric sampler
            // resolves: a rate whose 1 - r rounds to 1 would turn every
            // pair on at once.
            let values = |name: &str| -> Vec<f64> {
                spec.axes()
                    .iter()
                    .filter(|a| a.name() == name)
                    .flat_map(|a| a.values().iter().copied())
                    .collect()
            };
            let mut ps = values("p");
            if ps.is_empty() {
                ps = values("n").iter().map(|&n| 1.5 / n).collect();
            }
            for &p in &ps {
                for &q in &values("q") {
                    check_rates(p, q).map_err(|e| {
                        format!("the edge-MEG cannot sample the cell p = {p}, q = {q}: {e}")
                    })?;
                }
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

        fn record(cell: &Cell, trial: Trial) -> TrialRecord {
            let n = cell.usize("n");
            let q = cell.get("q");
            let p = cell.try_get("p").unwrap_or(1.5 / n as f64);
            let max_rounds = cell.max_rounds().unwrap_or(DEFAULT_MAX_ROUNDS);
            if n > SHARDED_FLOODING_N {
                Simulation::builder()
                    .model(move |seed| {
                        ShardedSparseEdgeMeg::stationary(n, p, q, seed)
                            .expect("spec validated at submission")
                    })
                    .max_rounds(max_rounds)
                    .base_seed(trial.cell_seed)
                    .shards(Shards::Auto)
                    .run_trial(trial.index)
            } else {
                Simulation::builder()
                    .model(move |seed| {
                        SparseTwoStateEdgeMeg::stationary(n, p, q, seed)
                            .expect("spec validated at submission")
                    })
                    .max_rounds(max_rounds)
                    .base_seed(trial.cell_seed)
                    .run_trial(trial.index)
            }
        }

        Workload {
            name: "flooding",
            validate,
            trial: Arc::new(|cell: &Cell, trial: Trial| record(cell, trial).time.map(f64::from)),
            metric_trial: Arc::new(|cell: &Cell, trial: Trial, metrics: &[Metric]| {
                trial_metrics(&record(cell, trial), cell.usize("n"), metrics)
            }),
        }
    }

    /// A model-free workload for tests and benches: accepts any spec and
    /// returns a cheap pure function of `(cell, seed)`, censoring one
    /// seed in 13 to exercise the `null`-sample paths.
    pub fn synthetic() -> Self {
        fn scalar(cell: &Cell, trial: Trial) -> Option<f64> {
            (!trial.seed.is_multiple_of(13))
                .then(|| cell.values().iter().sum::<f64>() + (trial.seed % 7) as f64)
        }
        Workload {
            name: "synthetic",
            validate: |_| Ok(()),
            trial: Arc::new(scalar),
            // Slot 0 censors like the scalar path; later slots always
            // complete, so multi-metric specs exercise *per-metric*
            // censoring (one trial mixing null and numeric slots).
            metric_trial: Arc::new(|cell: &Cell, trial: Trial, metrics: &[Metric]| {
                (0..metrics.len())
                    .map(|m| {
                        if m == 0 {
                            scalar(cell, trial)
                        } else {
                            Some(
                                cell.values().iter().sum::<f64>()
                                    + (trial.seed % 7 + m as u64) as f64,
                            )
                        }
                    })
                    .collect()
            }),
        }
    }
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
    fn flooding_validation_implies_panic_free_trials() {
        // Boundary grid p, q in {1e-17, 1e-6, 0.5, 1}: each single-cell
        // spec the validator accepts must run a trial without panicking,
        // and the ones it rejects are p = q = 1 (the periodic chain) and
        // those with a rate the geometric sampler cannot resolve.
        let w = Workload::flooding();
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
                            assert!(report.is_ok(), "n = {n}, p = {p}, q = {q}: {report:?}");
                        }
                        Err(e) if p == 1e-17 || q == 1e-17 => {
                            assert!(e.contains("cannot sample"), "{e}");
                        }
                        Err(e) => {
                            assert_eq!(
                                (p, q),
                                (1.0, 1.0),
                                "rejected n = {n}, p = {p}, q = {q}: {e}"
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

    #[test]
    fn flooding_trial_matches_direct_engine_run() {
        // The workload's trial function is the same glue the examples
        // hand-write; pin one (cell, trial) against the engine directly.
        let w = Workload::flooding();
        let s = SweepSpec::new(
            vec![Axis::ints("n", [24]), Axis::explicit("q", [0.3])],
            0xFEED,
            TrialBudget::fixed(2),
        );
        let report = s.sweep().run(w.trial_fn()).unwrap();
        let p = 1.5 / 24.0;
        let direct = Simulation::builder()
            .model(move |seed| SparseTwoStateEdgeMeg::stationary(24, p, 0.3, seed).unwrap())
            .max_rounds(200_000)
            .base_seed(dg_sweep::mix_seed(0xFEED, 0))
            .run_trial(1)
            .time
            .map(f64::from);
        assert_eq!(report.cell(0).samples[1], vec![direct]);
    }

    #[test]
    fn flooding_routes_large_n_to_sharded_model() {
        // Above the old cap the workload builds the lane-sharded model;
        // pin its sample against a direct sharded-model run, and check
        // the shard-count independence the store relies on (the same
        // spec must hash to the same artifact on any machine).
        let n = SHARDED_FLOODING_N + 1;
        let p = 1.5 / n as f64; // the sparse default the absent axis implies
        let w = Workload::flooding();
        let s = SweepSpec::new(
            vec![Axis::ints("n", [n]), Axis::explicit("q", [0.5])],
            0xDA7A,
            TrialBudget::fixed(1),
        );
        assert!(w.validate(&s).is_ok());
        let report = s.sweep().run(w.trial_fn()).unwrap();
        let direct = Simulation::builder()
            .model(move |seed| ShardedSparseEdgeMeg::stationary(n, p, 0.5, seed).unwrap())
            .max_rounds(200_000)
            .base_seed(dg_sweep::mix_seed(0xDA7A, 0))
            .shards(4)
            .run_trial(0)
            .time
            .map(f64::from);
        assert_eq!(report.cell(0).samples[0], vec![direct]);
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

    #[test]
    fn flooding_metric_rows_match_direct_engine_records() {
        // The multi-metric trial extracts from the same record the
        // scalar path observes: rows must line up slot-for-slot with a
        // direct engine run.
        let metrics = vec![
            Metric::new("rounds"),
            Metric::observe("messages"),
            Metric::observe("coverage"),
        ];
        let w = Workload::flooding();
        let s = SweepSpec::new(
            vec![Axis::ints("n", [24]), Axis::explicit("q", [0.3])],
            0xFEED,
            TrialBudget::fixed(2),
        )
        .with_metrics(metrics.clone());
        assert!(w.validate(&s).is_ok());
        let report = s
            .sweep()
            .run_metrics(w.metric_trial_fn(metrics.clone()))
            .unwrap();
        let p = 1.5 / 24.0;
        let record = Simulation::builder()
            .model(move |seed| SparseTwoStateEdgeMeg::stationary(24, p, 0.3, seed).unwrap())
            .max_rounds(200_000)
            .base_seed(dg_sweep::mix_seed(0xFEED, 0))
            .run_trial(1);
        assert_eq!(
            report.cell(0).samples[1],
            vec![
                record.time.map(f64::from),
                Some(record.messages as f64),
                Some(record.informed as f64 / 24.0),
            ]
        );
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
