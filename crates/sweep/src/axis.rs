//! Parameter-space declarations: [`Axis`], [`Grid`], the [`Cell`]s
//! handed to trial functions, and the [`Metric`]s a multi-metric sweep
//! samples per trial.

use std::fmt;
use std::sync::Arc;

use crate::budget::CiTarget;

/// How one declared [`Metric`] participates in the sequential stopping
/// rule of a multi-metric sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricStopping {
    /// Gate on the sweep budget's own [`CiTarget`] — the metric must
    /// meet the same 95% half-width target every single-metric sweep
    /// uses. (With a fixed budget this is equivalent to `Observe`.)
    Default,
    /// Gate on this metric-specific target instead of the budget's.
    Target(CiTarget),
    /// Record the metric but never let it gate stopping — for heavy-
    /// tailed observables (a `max`, say) whose CI would never tighten.
    Observe,
}

/// One declared per-trial observable of a multi-metric sweep.
///
/// A [`Grid`] with metrics attached ([`Grid::metrics`]) samples a
/// *vector* per trial — one `Option<f64>` slot per metric, in
/// declaration order — and a cell stops only when **every** gating
/// metric meets its 95% CI half-width target (see
/// [`crate::TrialBudget::stop_at_metrics`]). Censoring is per-metric: a
/// trial may report `messages` while its `rounds` slot is `None`
/// because the round cap hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    name: String,
    stopping: MetricStopping,
}

impl Metric {
    /// The metric rule, shared by the constructors and the JSON parsers:
    /// a non-empty name and, for a target, a finite positive value.
    pub(crate) fn checked(
        name: impl Into<String>,
        stopping: MetricStopping,
    ) -> Result<Self, String> {
        let name = name.into();
        if name.is_empty() {
            return Err("metric name must be non-empty".into());
        }
        if let MetricStopping::Target(CiTarget::Absolute(v) | CiTarget::Relative(v)) = stopping {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!(
                    "metric {name:?} CI target must be strictly positive, got {v}"
                ));
            }
        }
        Ok(Metric { name, stopping })
    }

    fn validated(name: impl Into<String>, stopping: MetricStopping) -> Self {
        Metric::checked(name, stopping).unwrap_or_else(|msg| panic!("{msg}"))
    }

    /// A metric gating on the sweep budget's own CI target.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty.
    pub fn new(name: impl Into<String>) -> Self {
        Metric::validated(name, MetricStopping::Default)
    }

    /// A metric gating on its own CI target.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or the target is not strictly positive.
    pub fn target(name: impl Into<String>, target: CiTarget) -> Self {
        Metric::validated(name, MetricStopping::Target(target))
    }

    /// A recorded-only metric that never gates stopping.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty.
    pub fn observe(name: impl Into<String>) -> Self {
        Metric::validated(name, MetricStopping::Observe)
    }

    /// The metric's name (its column in CSV artifacts and its key in
    /// `dg-serve` cell queries).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// How the metric participates in the stopping rule.
    pub fn stopping(&self) -> MetricStopping {
        self.stopping
    }

    /// The CI target this metric gates on under `budget_target` (the
    /// sweep budget's own target): its override, the budget's for
    /// [`MetricStopping::Default`], or `None` when the metric cannot
    /// stop a cell.
    pub fn effective_target(&self, budget_target: Option<CiTarget>) -> Option<CiTarget> {
        match self.stopping {
            MetricStopping::Default => budget_target,
            MetricStopping::Target(t) => Some(t),
            MetricStopping::Observe => None,
        }
    }
}

/// One named dimension of a parameter grid.
///
/// An axis is a finite, ordered list of `f64` values; integer-valued
/// parameters (node counts, fanouts) are stored exactly as integral
/// floats and read back through [`Cell::usize`].
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    name: String,
    values: Vec<f64>,
}

impl Axis {
    /// The axis rule, shared by the constructors and the JSON parsers: a
    /// non-empty name and a non-empty list of finite values.
    pub(crate) fn checked(name: impl Into<String>, values: Vec<f64>) -> Result<Self, String> {
        let name = name.into();
        if name.is_empty() {
            return Err("axis name must be non-empty".into());
        }
        if values.is_empty() {
            return Err(format!("axis {name:?} has no values"));
        }
        if let Some(v) = values.iter().find(|v| !v.is_finite()) {
            return Err(format!("axis {name:?} has a non-finite value {v}"));
        }
        Ok(Axis { name, values })
    }

    fn validated(name: impl Into<String>, values: Vec<f64>) -> Self {
        Axis::checked(name, values).unwrap_or_else(|msg| panic!("{msg}"))
    }

    /// `steps` evenly spaced values from `lo` to `hi` inclusive
    /// (`steps == 1` yields just `lo`).
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0` or an endpoint is non-finite.
    pub fn linear(name: impl Into<String>, lo: f64, hi: f64, steps: usize) -> Self {
        assert!(steps > 0, "linear axis needs at least one step");
        let mut values = Vec::with_capacity(steps);
        if steps == 1 {
            values.push(lo);
        } else {
            for i in 0..steps {
                values.push(lo + (hi - lo) * i as f64 / (steps - 1) as f64);
            }
            values[steps - 1] = hi;
        }
        Axis::validated(name, values)
    }

    /// `steps` geometrically spaced values from `lo` to `hi` inclusive —
    /// the natural spacing for densities `p` and churn rates `q` whose
    /// interesting regimes span orders of magnitude.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0` or an endpoint is not strictly positive.
    pub fn log(name: impl Into<String>, lo: f64, hi: f64, steps: usize) -> Self {
        assert!(steps > 0, "log axis needs at least one step");
        assert!(
            lo > 0.0 && hi > 0.0,
            "log axis endpoints must be strictly positive"
        );
        let mut values = Vec::with_capacity(steps);
        if steps == 1 {
            values.push(lo);
        } else {
            let ratio = (hi / lo).powf(1.0 / (steps - 1) as f64);
            let mut v = lo;
            for _ in 0..steps {
                values.push(v);
                v *= ratio;
            }
            values[steps - 1] = hi;
        }
        Axis::validated(name, values)
    }

    /// An explicit list of values, in sweep order.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty or contains a non-finite value.
    pub fn explicit(name: impl Into<String>, values: impl IntoIterator<Item = f64>) -> Self {
        Axis::validated(name, values.into_iter().collect())
    }

    /// An explicit list of integer values (stored as exact floats; read
    /// back via [`Cell::usize`]).
    ///
    /// # Panics
    ///
    /// Panics if the list is empty.
    pub fn ints(name: impl Into<String>, values: impl IntoIterator<Item = usize>) -> Self {
        Axis::validated(name, values.into_iter().map(|v| v as f64).collect())
    }

    /// The axis name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The axis values, in sweep order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// The cap rule: a round cap lies in `1..u32::MAX` (`u32::MAX` is the
/// engine's uninformed sentinel, and a 0 cap censors every trial).
pub(crate) fn cap_in_range(cap: u32) -> bool {
    cap != 0 && cap != u32::MAX
}

/// A declared parameter space: the Cartesian product of its axes.
///
/// Cells are enumerated row-major with the **last** axis varying
/// fastest, and every cell gets a stable integer id in that order — the
/// id (not scheduling order) drives per-cell seed derivation, so reports
/// are byte-identical however the sweep is executed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Grid {
    axes: Vec<Axis>,
    /// Per-cell round caps by cell id (see [`Grid::max_rounds`]).
    max_rounds: Option<Vec<u32>>,
    /// Declared per-trial metrics (see [`Grid::metrics`]); `None` for
    /// classic single-scalar sweeps.
    metrics: Option<Vec<Metric>>,
}

impl Grid {
    /// An empty grid (a single cell with no parameters, until axes are
    /// added).
    pub fn new() -> Self {
        Grid::default()
    }

    /// Adds an axis.
    ///
    /// # Panics
    ///
    /// Panics if an axis with the same name was already added, or if a
    /// [`Grid::max_rounds`] policy was already attached (the policy is
    /// evaluated per cell, so it must come after every axis).
    pub fn axis(self, axis: Axis) -> Self {
        self.try_axis(axis).unwrap_or_else(|msg| panic!("{msg}"))
    }

    /// [`Grid::axis`], with the rule broken as an `Err`. Also refuses a
    /// grid whose cell count would overflow `usize`.
    pub(crate) fn try_axis(mut self, axis: Axis) -> Result<Self, String> {
        if self.axes.iter().any(|a| a.name() == axis.name()) {
            return Err(format!("duplicate axis {:?}", axis.name()));
        }
        if self.max_rounds.is_some() {
            return Err("declare every axis before attaching a max_rounds policy".into());
        }
        if self.cell_count().checked_mul(axis.values().len()).is_none() {
            return Err(format!(
                "axis {:?} makes the grid's cell count overflow",
                axis.name()
            ));
        }
        self.axes.push(axis);
        Ok(self)
    }

    /// Attaches a per-cell round-cap policy: `policy(cell)` is evaluated
    /// once per cell, in cell-id order, and the result travels with the
    /// cell ([`Cell::max_rounds`]) into the trial function — so the
    /// censored tail of a sweep (cells whose trials routinely hit the
    /// cap) stops burning rounds past *its* configured budget instead of
    /// a grid-wide worst-case one.
    ///
    /// The caps are part of the sweep's identity: they enter the
    /// artifact and its resume fingerprint, so a checkpoint written
    /// under one policy cannot silently resume under another. Uniform
    /// caps are just `|_| cap`.
    ///
    /// # Panics
    ///
    /// Panics if a policy is already attached (declare all axes first),
    /// or if the policy yields a cap outside `1..u32::MAX` for some cell
    /// (`u32::MAX` is the engine's uninformed sentinel, and a 0 cap
    /// censors every trial) — failing here names the offending cell
    /// instead of aborting a worker thread mid-sweep, and keeps every
    /// artifact the sweep writes parseable.
    pub fn max_rounds(self, policy: impl Fn(&Cell) -> u32) -> Self {
        assert!(
            self.max_rounds.is_none(),
            "max_rounds policy already attached"
        );
        let caps = self.cells().iter().map(policy).collect();
        self.try_caps(caps).unwrap_or_else(|msg| panic!("{msg}"))
    }

    /// Attaches (or replaces) a per-cell round-cap table: one cap per
    /// cell, each in `1..u32::MAX` — the one cap rule, shared by
    /// [`Grid::max_rounds`], [`crate::SweepSpec::with_max_rounds`] and
    /// the JSON parsers.
    pub(crate) fn try_caps(mut self, caps: Vec<u32>) -> Result<Self, String> {
        if caps.len() != self.cell_count() {
            return Err(format!(
                "max_rounds table has {} entries for {} cells",
                caps.len(),
                self.cell_count()
            ));
        }
        if let Some((id, cap)) = caps.iter().enumerate().find(|(_, &cap)| !cap_in_range(cap)) {
            return Err(format!(
                "max_rounds cap {cap} of cell {id} is out of range 1..u32::MAX"
            ));
        }
        self.max_rounds = Some(caps);
        Ok(self)
    }

    /// The per-cell round caps, by cell id, when a [`Grid::max_rounds`]
    /// policy is attached.
    pub fn max_rounds_table(&self) -> Option<&[u32]> {
        self.max_rounds.as_deref()
    }

    /// Declares the per-trial metrics this grid's sweeps sample.
    ///
    /// With metrics attached, the sweep runs through
    /// [`crate::Sweep::run_metrics`]: the trial function returns one
    /// `Option<f64>` per declared metric (in this order), the artifact
    /// is written in the `dg-sweep/2` format, and a cell stops only
    /// once every gating metric meets its CI target. Without metrics
    /// the grid stays a classic single-scalar (`dg-sweep/1`) sweep —
    /// existing artifacts keep their exact bytes and fingerprints.
    ///
    /// # Panics
    ///
    /// Panics if `metrics` is empty, contains a duplicate name, or
    /// metrics were already declared.
    pub fn metrics(self, metrics: impl IntoIterator<Item = Metric>) -> Self {
        assert!(self.metrics.is_none(), "metrics already declared");
        self.try_metrics(metrics.into_iter().collect())
            .unwrap_or_else(|msg| panic!("{msg}"))
    }

    /// Declares (or replaces) the metric list: non-empty, no duplicate
    /// names — the one metric-list rule, shared by [`Grid::metrics`],
    /// [`crate::SweepSpec::with_metrics`] and the JSON parsers.
    pub(crate) fn try_metrics(mut self, metrics: Vec<Metric>) -> Result<Self, String> {
        if metrics.is_empty() {
            return Err("declare at least one metric".into());
        }
        for (i, m) in metrics.iter().enumerate() {
            if metrics[..i].iter().any(|o| o.name() == m.name()) {
                return Err(format!("duplicate metric {:?}", m.name()));
            }
        }
        self.metrics = Some(metrics);
        Ok(self)
    }

    /// The declared metrics, in declaration order, when attached.
    pub fn metrics_table(&self) -> Option<&[Metric]> {
        self.metrics.as_deref()
    }

    /// The declared axes, in declaration order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Number of cells (product of axis lengths; 1 for an empty grid).
    pub fn cell_count(&self) -> usize {
        self.axes.iter().map(|a| a.values().len()).product()
    }

    /// The cell with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id >= cell_count()`.
    pub fn cell(&self, id: usize) -> Cell {
        assert!(id < self.cell_count(), "cell id {id} out of range");
        let names: Arc<Vec<String>> =
            Arc::new(self.axes.iter().map(|a| a.name().to_string()).collect());
        self.cell_with_names(id, names)
    }

    fn cell_with_names(&self, id: usize, names: Arc<Vec<String>>) -> Cell {
        let mut values = Vec::with_capacity(self.axes.len());
        let mut rest = id;
        for axis in self.axes.iter().rev() {
            let len = axis.values().len();
            values.push(axis.values()[rest % len]);
            rest /= len;
        }
        values.reverse();
        Cell {
            id,
            names,
            values,
            max_rounds: self.max_rounds.as_ref().map(|caps| caps[id]),
        }
    }

    /// Whether `values` are, bit for bit, the values of cell `id` —
    /// checked without building the cell.
    pub(crate) fn has_values(&self, id: usize, values: &[f64]) -> bool {
        let mut rest = id;
        values.len() == self.axes.len()
            && self.axes.iter().zip(values).rev().all(|(axis, v)| {
                let len = axis.values().len();
                let expected = axis.values()[rest % len];
                rest /= len;
                expected.to_bits() == v.to_bits()
            })
    }

    /// All cells, ordered by id.
    pub fn cells(&self) -> Vec<Cell> {
        let names: Arc<Vec<String>> =
            Arc::new(self.axes.iter().map(|a| a.name().to_string()).collect());
        (0..self.cell_count())
            .map(|id| self.cell_with_names(id, Arc::clone(&names)))
            .collect()
    }
}

/// One point of a [`Grid`]: a stable id plus one value per axis.
///
/// Handed to the trial function of a sweep; cheap to clone and safe to
/// move across worker threads.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    id: usize,
    names: Arc<Vec<String>>,
    values: Vec<f64>,
    max_rounds: Option<u32>,
}

impl Cell {
    /// The cell's stable id (row-major index into the grid, last axis
    /// fastest). Seed derivation uses this, never the scheduling order.
    pub fn id(&self) -> usize {
        self.id
    }

    /// This cell's round cap under the grid's [`Grid::max_rounds`]
    /// policy; `None` when no policy is attached (trial functions fall
    /// back to their own default).
    pub fn max_rounds(&self) -> Option<u32> {
        self.max_rounds
    }

    /// The cell's axis values, in axis-declaration order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The value of the named axis, or `None` if the grid has no axis of
    /// that name — the non-panicking sibling of [`Cell::get`], for trial
    /// functions whose parameters are optional (a workload that treats a
    /// missing `p` axis as "derive `p` from `n`", say).
    pub fn try_get(&self, name: &str) -> Option<f64> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| self.values[i])
    }

    /// The value of the named axis.
    ///
    /// # Panics
    ///
    /// Panics if no axis has that name.
    pub fn get(&self, name: &str) -> f64 {
        match self.names.iter().position(|n| n == name) {
            Some(i) => self.values[i],
            None => panic!("no axis named {name:?} (axes: {:?})", self.names),
        }
    }

    /// The value of the named axis as a `usize`.
    ///
    /// # Panics
    ///
    /// Panics if no axis has that name or the value is not a
    /// representable non-negative integer.
    pub fn usize(&self, name: &str) -> usize {
        let v = self.get(name);
        assert!(
            v >= 0.0 && v.fract() == 0.0 && v <= usize::MAX as f64,
            "axis {name:?} value {v} is not a usize"
        );
        v as usize
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, value)) in self.names.iter().zip(&self.values).enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{name}={value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Grid {
        /// A grid that skips every rule, to sign malformed artifacts in
        /// tests.
        pub(crate) fn unchecked(axes: Vec<Axis>, max_rounds: Option<Vec<u32>>) -> Self {
            Grid {
                axes,
                max_rounds,
                metrics: None,
            }
        }
    }

    #[test]
    fn linear_hits_endpoints() {
        let a = Axis::linear("x", 1.0, 3.0, 5);
        assert_eq!(a.values(), &[1.0, 1.5, 2.0, 2.5, 3.0]);
        assert_eq!(Axis::linear("x", 2.0, 9.0, 1).values(), &[2.0]);
    }

    #[test]
    fn log_is_geometric_and_hits_endpoints() {
        let a = Axis::log("p", 0.01, 1.0, 3);
        assert_eq!(a.values().len(), 3);
        assert_eq!(a.values()[0], 0.01);
        assert!((a.values()[1] - 0.1).abs() < 1e-12);
        assert_eq!(a.values()[2], 1.0);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn log_rejects_zero() {
        let _ = Axis::log("p", 0.0, 1.0, 3);
    }

    #[test]
    #[should_panic(expected = "no values")]
    fn explicit_rejects_empty() {
        let _ = Axis::explicit("q", []);
    }

    #[test]
    fn grid_enumerates_row_major_last_axis_fastest() {
        let grid = Grid::new()
            .axis(Axis::ints("n", [16, 32]))
            .axis(Axis::explicit("q", [0.1, 0.2, 0.3]));
        assert_eq!(grid.cell_count(), 6);
        let cells = grid.cells();
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].values(), &[16.0, 0.1]);
        assert_eq!(cells[1].values(), &[16.0, 0.2]);
        assert_eq!(cells[3].values(), &[32.0, 0.1]);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.id(), i);
            assert_eq!(c, &grid.cell(i));
        }
        assert_eq!(cells[4].usize("n"), 32);
        assert_eq!(cells[4].get("q"), 0.2);
        assert_eq!(cells[4].to_string(), "n=32 q=0.2");
    }

    #[test]
    fn empty_grid_has_one_cell() {
        let grid = Grid::new();
        assert_eq!(grid.cell_count(), 1);
        assert_eq!(grid.cells()[0].values(), &[] as &[f64]);
    }

    #[test]
    fn max_rounds_policy_travels_with_cells() {
        let grid = Grid::new()
            .axis(Axis::ints("n", [16, 32]))
            .axis(Axis::explicit("q", [0.1, 0.2]))
            .max_rounds(|cell| if cell.get("q") < 0.15 { 50_000 } else { 2_000 });
        assert_eq!(
            grid.max_rounds_table(),
            Some(&[50_000, 2_000, 50_000, 2_000][..])
        );
        for cell in grid.cells() {
            let expected = if cell.get("q") < 0.15 { 50_000 } else { 2_000 };
            assert_eq!(cell.max_rounds(), Some(expected), "cell {}", cell.id());
            assert_eq!(grid.cell(cell.id()).max_rounds(), Some(expected));
        }
        // Without a policy, cells carry no cap.
        let bare = Grid::new().axis(Axis::ints("n", [4]));
        assert_eq!(bare.max_rounds_table(), None);
        assert_eq!(bare.cells()[0].max_rounds(), None);
    }

    #[test]
    #[should_panic(expected = "before attaching")]
    fn axis_after_max_rounds_rejected() {
        let _ = Grid::new()
            .axis(Axis::ints("n", [4]))
            .max_rounds(|_| 10)
            .axis(Axis::ints("m", [2]));
    }

    #[test]
    #[should_panic(expected = "max_rounds cap 0 of cell 1 is out of range 1..u32::MAX")]
    fn zero_cap_rejected() {
        let _ = Grid::new()
            .axis(Axis::ints("n", [4, 8]))
            .max_rounds(|cell| if cell.id() == 1 { 0 } else { 10 });
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn double_max_rounds_rejected() {
        let _ = Grid::new()
            .axis(Axis::ints("n", [4]))
            .max_rounds(|_| 10)
            .max_rounds(|_| 20);
    }

    #[test]
    #[should_panic(expected = "duplicate axis")]
    fn duplicate_axis_rejected() {
        let _ = Grid::new()
            .axis(Axis::ints("n", [1]))
            .axis(Axis::explicit("n", [2.0]));
    }

    #[test]
    #[should_panic(expected = "not a usize")]
    fn fractional_usize_rejected() {
        let grid = Grid::new().axis(Axis::explicit("q", [0.5]));
        let _ = grid.cell(0).usize("q");
    }

    #[test]
    fn metrics_declaration_travels_with_grid() {
        let grid = Grid::new().axis(Axis::ints("n", [4])).metrics([
            Metric::new("rounds"),
            Metric::target("messages", CiTarget::Relative(0.1)),
            Metric::observe("coverage"),
        ]);
        let table = grid.metrics_table().unwrap();
        assert_eq!(table.len(), 3);
        assert_eq!(table[0].name(), "rounds");
        assert_eq!(table[0].stopping(), MetricStopping::Default);
        assert_eq!(
            table[1].stopping(),
            MetricStopping::Target(CiTarget::Relative(0.1))
        );
        assert_eq!(table[2].stopping(), MetricStopping::Observe);
        // Metric-less grids stay metric-less.
        assert!(Grid::new()
            .axis(Axis::ints("n", [4]))
            .metrics_table()
            .is_none());
    }

    #[test]
    fn effective_target_resolves_against_budget() {
        let budget_target = Some(CiTarget::Relative(0.05));
        assert_eq!(
            Metric::new("rounds").effective_target(budget_target),
            budget_target
        );
        assert_eq!(Metric::new("rounds").effective_target(None), None);
        assert_eq!(
            Metric::target("messages", CiTarget::Absolute(2.0)).effective_target(budget_target),
            Some(CiTarget::Absolute(2.0))
        );
        assert_eq!(
            Metric::observe("coverage").effective_target(budget_target),
            None
        );
    }

    #[test]
    #[should_panic(expected = "duplicate metric")]
    fn duplicate_metric_rejected() {
        let _ = Grid::new().metrics([Metric::new("m"), Metric::observe("m")]);
    }

    #[test]
    #[should_panic(expected = "at least one metric")]
    fn empty_metrics_rejected() {
        let _ = Grid::new().metrics([]);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn nonpositive_metric_target_rejected() {
        let _ = Metric::target("m", CiTarget::Relative(0.0));
    }
}
