//! The machine-readable artifact layer: per-cell summaries plus the raw
//! sample prefixes that make sweeps resumable.

use std::path::Path;

use dg_stats::{mean_ci95_t, ConfidenceInterval, Quantiles, Summary};

use crate::axis::{Axis, Metric};
use crate::error::SweepError;
use crate::json::{self, fmt_f64, Json};
use crate::spec::{push_caps, push_metric, SweepSpec, FORMAT, FORMAT_V2};

/// Results of one cell: the raw sample rows in trial order plus whether
/// the stopping rule has fixed this cell's final trial count.
///
/// `samples[t][m]` is trial `t`'s slot for metric `m` (in the report's
/// metric-declaration order); `None` means that metric was censored in
/// that trial — censoring is **per-metric**, so a trial whose round cap
/// hit can report `messages` while its `rounds` slot is `None`.
/// Single-metric (`dg-sweep/1`) reports use rows of width 1.
///
/// All statistics are derived from `samples` on demand, never stored —
/// so a report reloaded from JSON is the same value as the report that
/// wrote it.
///
/// # All-censored statistics
///
/// Every scalar statistic (`mean`, `p95`, `max`, `ci` and their
/// per-metric `*_of` forms) returns `None` exactly when the metric has
/// **zero completed samples** in this cell (the CI additionally needs
/// two); [`CellReport::summary`] returns the empty [`Summary`] in that
/// same case — `summary_of(m).is_empty()` and `mean_of(m).is_none()`
/// are always equivalent.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Stable cell id (row-major grid index).
    pub id: usize,
    /// The cell's axis values, in axis-declaration order.
    pub values: Vec<f64>,
    /// Sample rows in trial order; `samples[t][m]` came from trial `t`,
    /// metric `m`.
    pub samples: Vec<Vec<Option<f64>>>,
    /// `true` once the stopping rule fixed this cell's trial count (the
    /// samples are final); `false` in partial checkpoints.
    pub decided: bool,
}

impl CellReport {
    /// Trials run so far.
    pub fn trials(&self) -> usize {
        self.samples.len()
    }

    /// The given metric's slot of each trial, in trial order.
    fn slots(&self, metric: usize) -> impl Iterator<Item = Option<f64>> + '_ {
        self.samples
            .iter()
            .map(move |row| row.get(metric).copied().flatten())
    }

    /// Trials whose slot for metric `metric` was censored (`None`).
    pub fn incomplete_of(&self, metric: usize) -> usize {
        self.slots(metric).filter(Option::is_none).count()
    }

    /// Completed values of metric `metric`, in trial order.
    pub fn completed_of(&self, metric: usize) -> Vec<f64> {
        self.slots(metric).flatten().collect()
    }

    /// Streaming summary over completed samples of metric `metric`
    /// (empty exactly when every trial censored that metric).
    pub fn summary_of(&self, metric: usize) -> Summary {
        self.slots(metric).flatten().collect()
    }

    /// Mean of metric `metric`; `None` if every trial censored it.
    pub fn mean_of(&self, metric: usize) -> Option<f64> {
        let s = self.summary_of(metric);
        (!s.is_empty()).then(|| s.mean())
    }

    /// Empirical 95th percentile of metric `metric`; `None` if every
    /// trial censored it.
    pub fn p95_of(&self, metric: usize) -> Option<f64> {
        Quantiles::try_new(self.completed_of(metric)).map(|q| q.p95())
    }

    /// Largest completed sample of metric `metric`; `None` if every
    /// trial censored it.
    pub fn max_of(&self, metric: usize) -> Option<f64> {
        Quantiles::try_new(self.completed_of(metric)).map(|q| q.max())
    }

    /// Student-t 95% CI of metric `metric`'s mean; `None` for fewer
    /// than two completed samples.
    pub fn ci_of(&self, metric: usize) -> Option<ConfidenceInterval> {
        mean_ci95_t(&self.summary_of(metric))
    }

    /// Trials whose first metric was censored — [`CellReport::incomplete_of`]
    /// of metric 0, the whole story for single-metric reports.
    pub fn incomplete(&self) -> usize {
        self.incomplete_of(0)
    }

    /// Completed samples of the first metric, in trial order.
    pub fn completed(&self) -> Vec<f64> {
        self.completed_of(0)
    }

    /// Streaming summary over the first metric's completed samples.
    pub fn summary(&self) -> Summary {
        self.summary_of(0)
    }

    /// Mean of the first metric; `None` if every trial was censored.
    pub fn mean(&self) -> Option<f64> {
        self.mean_of(0)
    }

    /// Empirical 95th percentile of the first metric.
    pub fn p95(&self) -> Option<f64> {
        self.p95_of(0)
    }

    /// Largest completed sample of the first metric.
    pub fn max(&self) -> Option<f64> {
        self.max_of(0)
    }

    /// Student-t 95% CI of the first metric's mean; `None` for fewer
    /// than two completed trials.
    pub fn ci(&self) -> Option<ConfidenceInterval> {
        self.ci_of(0)
    }
}

/// Result of a [`SweepReport::nearest_cell`] lookup: the winning cell
/// plus how far the query was from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NearestCell<'a> {
    /// The nearest cell (ties broken toward earlier axis values, so the
    /// outcome is deterministic).
    pub cell: &'a CellReport,
    /// Euclidean distance over per-axis offsets, each normalized by its
    /// axis's value span (un-normalized for single-value axes). Zero
    /// exactly when the query hit a grid point.
    pub distance: f64,
    /// `true` when the query matched the cell's coordinates exactly
    /// (`distance == 0.0`).
    pub exact: bool,
}

/// A sweep's results: its [`SweepSpec`] plus per-cell reports, ordered
/// by cell id.
///
/// Serializes to JSON ([`SweepReport::to_json`], the resumable artifact)
/// and CSV ([`SweepReport::to_csv`], one row per cell for plotting). The
/// JSON form reloads with [`SweepReport::from_json`]; because samples
/// round-trip exactly and all statistics are derived, a killed-and-
/// resumed sweep serializes to the same bytes as an uninterrupted one.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The configuration: axes, round caps, metrics, seed, budget. The
    /// spec that, run with the same trial function, reproduces the
    /// report.
    pub(crate) spec: SweepSpec,
    pub(crate) cells: Vec<CellReport>,
}

impl SweepReport {
    /// The sweep's configuration.
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// The per-cell round caps, by cell id ([`SweepSpec::max_rounds`]).
    pub fn max_rounds_table(&self) -> Option<&[u32]> {
        self.spec.max_rounds()
    }

    /// The declared metrics ([`SweepSpec::metrics`]): `None` for classic
    /// single-metric (`dg-sweep/1`) reports.
    pub fn metrics(&self) -> Option<&[Metric]> {
        self.spec.metrics()
    }

    /// The index of the named metric in this report's sample rows, or
    /// `None` when the report declares no such metric (including every
    /// metric-less `dg-sweep/1` report).
    pub fn metric_index(&self, name: &str) -> Option<usize> {
        self.metrics()?.iter().position(|m| m.name() == name)
    }

    /// Width of each cell's sample rows: the declared metric count, or
    /// 1 for single-metric reports.
    pub fn metric_count(&self) -> usize {
        self.metrics().map_or(1, <[Metric]>::len)
    }

    /// Per-cell reports, ordered by cell id.
    pub fn cells(&self) -> &[CellReport] {
        &self.cells
    }

    /// The cell with the given id.
    pub fn cell(&self, id: usize) -> &CellReport {
        &self.cells[id]
    }

    /// The named axis value of `cell` — the report-side counterpart of
    /// [`crate::Cell::get`].
    ///
    /// # Panics
    ///
    /// Panics if no axis has that name.
    pub fn axis_value(&self, cell: &CellReport, name: &str) -> f64 {
        match self.spec.axes().iter().position(|a| a.name() == name) {
            Some(i) => cell.values[i],
            None => panic!("no axis named {name:?}"),
        }
    }

    /// The named axis value of `cell` as a `usize` — the report-side
    /// counterpart of [`crate::Cell::usize`].
    ///
    /// # Panics
    ///
    /// Panics if no axis has that name or the value is not a
    /// representable non-negative integer.
    pub fn axis_usize(&self, cell: &CellReport, name: &str) -> usize {
        let v = self.axis_value(cell, name);
        assert!(
            v >= 0.0 && v.fract() == 0.0 && v <= usize::MAX as f64,
            "axis {name:?} value {v} is not a usize"
        );
        v as usize
    }

    /// `true` once every cell's trial count is final.
    pub fn is_complete(&self) -> bool {
        self.cells.iter().all(|c| c.decided)
    }

    /// Total trials recorded across all cells — the work metric the
    /// adaptive scheduler minimizes.
    pub fn total_trials(&self) -> usize {
        self.cells.iter().map(|c| c.trials()).sum()
    }

    /// Largest CI half-width over cells with a defined CI — "how noisy
    /// is the worst cell".
    pub fn max_ci_half_width(&self) -> Option<f64> {
        self.cells
            .iter()
            .filter_map(|c| c.ci())
            .map(|ci| ci.half_width())
            .fold(None, |acc, hw| Some(acc.map_or(hw, |a: f64| a.max(hw))))
    }

    /// The report's identity fingerprint: its spec's
    /// ([`SweepSpec::fingerprint`]), which names the artifact in
    /// content-addressed stores and gates checkpoint resume.
    pub fn fingerprint(&self) -> u64 {
        self.spec.fingerprint()
    }

    /// Resolves a cell query (`(axis name, value)` pairs) into per-axis
    /// target values in axis-declaration order.
    ///
    /// Every axis must be named exactly once with a finite value; the
    /// daemon-facing lookups below share this validation so a malformed
    /// query is a [`SweepError::Query`], never a panic.
    fn query_targets(&self, query: &[(&str, f64)]) -> Result<Vec<f64>, SweepError> {
        let mut targets = vec![None; self.spec.axes().len()];
        for &(name, value) in query {
            let Some(i) = self.spec.axes().iter().position(|a| a.name() == name) else {
                return Err(SweepError::Query(format!(
                    "no axis named {name:?} (axes: {:?})",
                    self.spec.axes().iter().map(Axis::name).collect::<Vec<_>>()
                )));
            };
            if targets[i].is_some() {
                return Err(SweepError::Query(format!("axis {name:?} given twice")));
            }
            if !value.is_finite() {
                return Err(SweepError::Query(format!(
                    "non-finite value {value} for axis {name:?}"
                )));
            }
            targets[i] = Some(value);
        }
        targets
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                t.ok_or_else(|| {
                    SweepError::Query(format!(
                        "axis {:?} missing from query",
                        self.spec.axes()[i].name()
                    ))
                })
            })
            .collect()
    }

    /// The cell id for per-axis value indices (row-major, last axis
    /// fastest — the same enumeration as [`crate::Grid::cells`]).
    fn cell_id(&self, indices: &[usize]) -> usize {
        self.spec
            .axes()
            .iter()
            .zip(indices)
            .fold(0, |id, (axis, &i)| id * axis.values().len() + i)
    }

    /// Exact cell lookup by axis values: `cell_at(&[("n", 64.0), ("q",
    /// 0.1)])` returns the cell whose coordinates equal the query on
    /// every axis, or `None` when some coordinate is not a grid value.
    ///
    /// # Errors
    ///
    /// [`SweepError::Query`] if the query does not name every axis
    /// exactly once with finite values.
    pub fn cell_at(&self, query: &[(&str, f64)]) -> Result<Option<&CellReport>, SweepError> {
        let targets = self.query_targets(query)?;
        let mut indices = Vec::with_capacity(self.spec.axes().len());
        for (axis, target) in self.spec.axes().iter().zip(&targets) {
            match axis.values().iter().position(|v| v == target) {
                Some(i) => indices.push(i),
                None => return Ok(None),
            }
        }
        Ok(self.cells.get(self.cell_id(&indices)))
    }

    /// Nearest-cell lookup by axis values: the grid cell minimizing the
    /// Euclidean distance over per-axis offsets, each normalized by its
    /// axis's value span (axes with a single value, or an exact hit,
    /// contribute zero; out-of-range queries clamp to the nearest
    /// endpoint with the overshoot reported in the distance).
    ///
    /// Because the grid is a full Cartesian product, the minimizer is
    /// separable: each axis picks its nearest value independently, ties
    /// broken toward the *earlier* axis value — so the winning cell id is
    /// deterministic and the lookup is `O(Σ axis length)`, not
    /// `O(cell count)`.
    ///
    /// # Errors
    ///
    /// [`SweepError::Query`] if the query does not name every axis
    /// exactly once with finite values, or the artifact is missing the
    /// resolved cell.
    pub fn nearest_cell(&self, query: &[(&str, f64)]) -> Result<NearestCell<'_>, SweepError> {
        let targets = self.query_targets(query)?;
        let mut indices = Vec::with_capacity(self.spec.axes().len());
        let mut dist2 = 0.0f64;
        for (axis, &target) in self.spec.axes().iter().zip(&targets) {
            let values = axis.values();
            let (mut best, mut best_gap) = (0usize, f64::INFINITY);
            for (i, &v) in values.iter().enumerate() {
                let gap = (v - target).abs();
                if gap < best_gap {
                    (best, best_gap) = (i, gap);
                }
            }
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let span = hi - lo;
            let d = if span > 0.0 {
                best_gap / span
            } else {
                best_gap
            };
            dist2 += d * d;
            indices.push(best);
        }
        let id = self.cell_id(&indices);
        let cell = self.cells.get(id).ok_or_else(|| {
            SweepError::Query(format!("artifact has no cell {id} for nearest lookup"))
        })?;
        let distance = dist2.sqrt();
        Ok(NearestCell {
            cell,
            distance,
            exact: distance == 0.0,
        })
    }

    /// Serializes the full resumable artifact (configuration, per-cell
    /// summaries, raw samples) as JSON.
    ///
    /// Metric-less reports write the frozen `dg-sweep/1` form, byte-
    /// identical to every artifact that format has ever produced;
    /// reports with declared metrics write `dg-sweep/2`, whose cells
    /// carry one sample *row* per trial and per-metric derived-
    /// statistic arrays.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        let spec = &self.spec;
        out.push_str(&format!("  \"format\": \"{}\",\n", spec.format()));
        out.push_str(&format!("  \"complete\": {},\n", self.is_complete()));
        out.push_str(&format!("  \"base_seed\": {},\n", spec.base_seed));
        out.push_str(&format!("  \"fingerprint\": {},\n", self.fingerprint()));
        if let Some(metrics) = spec.metrics() {
            out.push_str("  \"metrics\": [");
            for (i, m) in metrics.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_metric(&mut out, m);
            }
            out.push_str("],\n");
        }
        if let Some(caps) = spec.max_rounds() {
            push_caps(&mut out, caps);
            out.push_str(",\n");
        }
        spec.push_budget(&mut out);
        out.push_str(",\n");
        spec.push_axes(&mut out);
        out.push_str(",\n  \"cells\": [\n");
        let width = self.metric_count();
        for (i, cell) in self.cells.iter().enumerate() {
            // One pass over the samples per statistic family (to_json
            // reruns on every cell decision when checkpointing).
            let sep = if i + 1 < self.cells.len() { "," } else { "" };
            let values = cell
                .values
                .iter()
                .map(|v| fmt_f64(*v))
                .collect::<Vec<_>>()
                .join(", ");
            if self.metrics().is_none() {
                let quantiles = Quantiles::try_new(cell.completed());
                let ci = cell.ci();
                out.push_str(&format!(
                    "    {{\"id\": {}, \"values\": [{}], \"decided\": {}, \"trials\": {}, \"incomplete\": {}, \"mean\": {}, \"p95\": {}, \"max\": {}, \"ci_lo\": {}, \"ci_hi\": {}, \"ci_half_width\": {}, \"samples\": [{}]}}{sep}\n",
                    cell.id,
                    values,
                    cell.decided,
                    cell.trials(),
                    cell.incomplete(),
                    opt_stat(cell.mean()),
                    opt_stat(quantiles.as_ref().map(|q| q.p95())),
                    opt_stat(quantiles.as_ref().map(|q| q.max())),
                    opt_stat(ci.map(|ci| ci.lo)),
                    opt_stat(ci.map(|ci| ci.hi)),
                    opt_stat(ci.map(|ci| ci.half_width())),
                    cell.samples
                        .iter()
                        .map(|row| opt_num(row.first().copied().flatten()))
                        .collect::<Vec<_>>()
                        .join(", "),
                ));
            } else {
                // Per-metric derived-statistic arrays, aligned with the
                // declared metric order.
                let stat_arr =
                    |f: &dyn Fn(usize) -> String| (0..width).map(f).collect::<Vec<_>>().join(", ");
                out.push_str(&format!(
                    "    {{\"id\": {}, \"values\": [{}], \"decided\": {}, \"trials\": {}, \"incomplete\": [{}], \"mean\": [{}], \"p95\": [{}], \"max\": [{}], \"ci_lo\": [{}], \"ci_hi\": [{}], \"ci_half_width\": [{}], \"samples\": [{}]}}{sep}\n",
                    cell.id,
                    values,
                    cell.decided,
                    cell.trials(),
                    stat_arr(&|m| cell.incomplete_of(m).to_string()),
                    stat_arr(&|m| opt_stat(cell.mean_of(m))),
                    stat_arr(&|m| opt_stat(cell.p95_of(m))),
                    stat_arr(&|m| opt_stat(cell.max_of(m))),
                    stat_arr(&|m| opt_stat(cell.ci_of(m).map(|ci| ci.lo))),
                    stat_arr(&|m| opt_stat(cell.ci_of(m).map(|ci| ci.hi))),
                    stat_arr(&|m| opt_stat(cell.ci_of(m).map(|ci| ci.half_width()))),
                    cell.samples
                        .iter()
                        .map(|row| {
                            format!(
                                "[{}]",
                                row.iter()
                                    .map(|s| opt_num(*s))
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            )
                        })
                        .collect::<Vec<_>>()
                        .join(", "),
                ));
            }
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Serializes one CSV row per cell: the axis columns (by name), then
    /// the statistic columns. Undefined statistics are empty fields.
    ///
    /// Single-metric reports keep the classic header
    /// `trials,incomplete,mean,p95,max,ci_lo,ci_hi,ci_half_width`;
    /// multi-metric reports write `trials` once and then a
    /// `<name>_incomplete,<name>_mean,<name>_p95,<name>_max,<name>_ci_lo,<name>_ci_hi,<name>_ci_half_width`
    /// group per declared metric — one file feeds a phase diagram per
    /// metric.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for axis in self.spec.axes() {
            out.push_str(axis.name());
            out.push(',');
        }
        match self.metrics() {
            None => out.push_str("trials,incomplete,mean,p95,max,ci_lo,ci_hi,ci_half_width\n"),
            Some(metrics) => {
                out.push_str("trials");
                for m in metrics {
                    let n = m.name();
                    out.push_str(&format!(
                        ",{n}_incomplete,{n}_mean,{n}_p95,{n}_max,{n}_ci_lo,{n}_ci_hi,{n}_ci_half_width"
                    ));
                }
                out.push('\n');
            }
        }
        for cell in &self.cells {
            for v in &cell.values {
                out.push_str(&fmt_f64(*v));
                out.push(',');
            }
            out.push_str(&cell.trials().to_string());
            if self.metrics().is_none() {
                out.push(',');
            }
            for m in 0..self.metric_count() {
                let quantiles = Quantiles::try_new(cell.completed_of(m));
                let ci = cell.ci_of(m);
                let row = format!(
                    "{},{},{},{},{},{},{}",
                    cell.incomplete_of(m),
                    opt_csv(cell.mean_of(m)),
                    opt_csv(quantiles.as_ref().map(|q| q.p95())),
                    opt_csv(quantiles.as_ref().map(|q| q.max())),
                    opt_csv(ci.map(|c| c.lo)),
                    opt_csv(ci.map(|c| c.hi)),
                    opt_csv(ci.map(|c| c.half_width())),
                );
                if self.metrics().is_some() {
                    out.push(',');
                }
                out.push_str(&row);
            }
            out.push('\n');
        }
        out
    }

    /// Writes [`SweepReport::to_json`] to `path` (atomically: a `.tmp`
    /// sibling is written first, then renamed over the target).
    pub fn write_json(&self, path: impl AsRef<Path>) -> Result<(), SweepError> {
        write_atomic(path.as_ref(), self.to_json().as_bytes())
    }

    /// Writes [`SweepReport::to_csv`] to `path` (atomically, like
    /// [`SweepReport::write_json`]).
    pub fn write_csv(&self, path: impl AsRef<Path>) -> Result<(), SweepError> {
        write_atomic(path.as_ref(), self.to_csv().as_bytes())
    }

    /// Reloads an artifact written by [`SweepReport::to_json`] — either
    /// format: every `dg-sweep/1` shape ever written parses (and
    /// re-serializes to its exact bytes), and `dg-sweep/2` adds the
    /// metric declarations and per-trial sample rows.
    ///
    /// The configuration half goes through the spec parser
    /// ([`SweepSpec::from_json`]'s rules, defaults and forgiving forms
    /// included), so a report in hand always holds a spec that builds
    /// and runs. The format tag must agree with whether metrics are
    /// declared, and the embedded fingerprint must match the spec's, so
    /// a truncated artifact or one from a different sweep is rejected
    /// instead of quietly resuming the wrong experiment. Cells must be
    /// the grid's, in id order with its exact values. Statistics are
    /// recomputed from the samples; sample values themselves are data,
    /// not configuration — they are validated structurally (finite
    /// numbers or `null`, rows exactly one slot per declared metric) but
    /// otherwise trusted as written.
    pub fn from_json(text: &str) -> Result<Self, SweepError> {
        let doc = json::parse(text)?;
        let format = doc.get("format")?.as_str()?;
        if format != FORMAT && format != FORMAT_V2 {
            return Err(SweepError::Mismatch(format!(
                "artifact format {format:?}, expected {FORMAT:?} or {FORMAT_V2:?}"
            )));
        }
        let cells_doc = doc.get("cells")?.as_arr()?;
        // The grid is bounded by the cells the artifact holds.
        let spec = SweepSpec::from_doc(&doc, cells_doc.len())?;
        if format != spec.format() {
            return Err(SweepError::Parse(format!(
                "a {format} artifact {} declare metrics",
                if format == FORMAT { "must not" } else { "must" }
            )));
        }
        let expected = doc.get("fingerprint")?.as_u64()?;
        let actual = spec.fingerprint();
        if expected != actual {
            return Err(SweepError::Mismatch(format!(
                "artifact fingerprint {expected} != recomputed {actual}"
            )));
        }
        if cells_doc.len() != spec.cell_count() {
            return Err(SweepError::Parse(format!(
                "artifact has {} cells for a {}-cell grid",
                cells_doc.len(),
                spec.cell_count()
            )));
        }
        let width = spec.metrics().map(<[Metric]>::len);
        let slot = |s: &Json| -> Result<Option<f64>, SweepError> {
            if s.is_null() {
                return Ok(None);
            }
            let v = s.as_f64()?;
            if !v.is_finite() {
                return Err(SweepError::Parse(format!("non-finite sample: {v}")));
            }
            Ok(Some(v))
        };
        let mut cells = Vec::with_capacity(cells_doc.len());
        for (i, cell) in cells_doc.iter().enumerate() {
            let id = cell.get("id")?.as_usize()?;
            if id != i {
                return Err(SweepError::Parse(format!(
                    "cell {i} has out-of-order id {id}"
                )));
            }
            let values = cell.get("values")?.as_arr()?;
            let values: Vec<f64> = values.iter().map(Json::as_f64).collect::<Result<_, _>>()?;
            if !spec.grid.has_values(i, &values) {
                return Err(SweepError::Parse(format!(
                    "cell {i} has values {values:?}, the grid's are {:?}",
                    spec.grid.cell(i).values()
                )));
            }
            let mut samples = Vec::new();
            for s in cell.get("samples")?.as_arr()? {
                match width {
                    // v1: a flat scalar per trial — a width-1 row.
                    None => samples.push(vec![slot(s)?]),
                    // v2: one row per trial, one slot per declared metric.
                    Some(width) => {
                        let row = s.as_arr()?;
                        if row.len() != width {
                            return Err(SweepError::Parse(format!(
                                "sample row has {} slots for {width} metrics",
                                row.len()
                            )));
                        }
                        samples.push(row.iter().map(slot).collect::<Result<_, _>>()?);
                    }
                }
            }
            cells.push(CellReport {
                id,
                values,
                samples,
                decided: cell.get("decided")?.as_bool()?,
            });
        }
        Ok(SweepReport { spec, cells })
    }
}

/// Serializes a *sample*: `null` for censored, strict otherwise — a
/// non-finite sample is corrupted data and must not be written.
fn opt_num(x: Option<f64>) -> String {
    match x {
        Some(v) => fmt_f64(v),
        None => "null".to_string(),
    }
}

/// Serializes a *derived statistic*: unlike samples, these can overflow
/// to non-finite even over finite samples (the variance of `{f64::MAX,
/// -f64::MAX}`, say), and they are recomputed from the samples on
/// reload — so an overflowed statistic serializes as absent instead of
/// panicking the writer on an artifact `from_json` accepts.
fn opt_stat(x: Option<f64>) -> String {
    match x {
        Some(v) if v.is_finite() => fmt_f64(v),
        _ => "null".to_string(),
    }
}

fn opt_csv(x: Option<f64>) -> String {
    match x {
        Some(v) if v.is_finite() => fmt_f64(v),
        _ => String::new(),
    }
}

fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SweepError> {
    // The `store.write.err` injection site: a transient failure here
    // exercises the bounded retry every checkpoint/artifact writer
    // wraps around this function. Injected *before* the write, so a
    // fired fault never leaves a torn temporary behind.
    dg_fault::io_check("store.write.err")?;
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CiTarget, Grid, TrialBudget};

    /// Width-1 rows from a flat list — the single-metric sample shape.
    fn rows1(samples: Vec<Option<f64>>) -> Vec<Vec<Option<f64>>> {
        samples.into_iter().map(|s| vec![s]).collect()
    }

    fn sample_report() -> SweepReport {
        SweepReport {
            spec: SweepSpec::new(
                vec![Axis::ints("n", [16, 32]), Axis::explicit("q", [0.1, 0.25])],
                u64::MAX - 17,
                TrialBudget::adaptive(3, 9, CiTarget::Relative(0.05)),
            ),
            cells: vec![
                CellReport {
                    id: 0,
                    values: vec![16.0, 0.1],
                    samples: rows1(vec![Some(4.0), Some(6.0), Some(5.0)]),
                    decided: true,
                },
                CellReport {
                    id: 1,
                    values: vec![16.0, 0.25],
                    samples: rows1(vec![Some(7.0), None, Some(9.0)]),
                    decided: true,
                },
                CellReport {
                    id: 2,
                    values: vec![32.0, 0.1],
                    samples: rows1(vec![Some(1.0 / 3.0)]),
                    decided: false,
                },
                CellReport {
                    id: 3,
                    values: vec![32.0, 0.25],
                    samples: vec![],
                    decided: false,
                },
            ],
        }
    }

    /// A two-metric report in the shapes a flooding sweep produces:
    /// per-metric censoring (rounds `None`, messages counted), an
    /// undecided cell, an empty cell.
    fn metric_report() -> SweepReport {
        SweepReport {
            spec: SweepSpec::new(
                vec![Axis::ints("n", [16]), Axis::explicit("q", [0.1, 0.25])],
                99,
                TrialBudget::adaptive(2, 6, CiTarget::Relative(0.1)),
            )
            .with_metrics(vec![
                Metric::new("rounds"),
                Metric::target("messages", CiTarget::Relative(0.2)),
                Metric::observe("coverage"),
            ]),
            cells: vec![
                CellReport {
                    id: 0,
                    values: vec![16.0, 0.1],
                    samples: vec![
                        vec![Some(12.0), Some(480.0), Some(1.0)],
                        vec![None, Some(520.0), Some(0.75)],
                        vec![Some(13.0), Some(470.0), Some(1.0)],
                    ],
                    decided: true,
                },
                CellReport {
                    id: 1,
                    values: vec![16.0, 0.25],
                    samples: vec![vec![None, Some(610.0), Some(0.5)]],
                    decided: false,
                },
            ],
        }
    }

    #[test]
    fn derived_statistics() {
        let r = sample_report();
        let c = r.cell(0);
        assert_eq!(c.trials(), 3);
        assert_eq!(c.incomplete(), 0);
        assert_eq!(c.mean(), Some(5.0));
        assert_eq!(c.max(), Some(6.0));
        assert!(c.ci().is_some());
        let censored = r.cell(1);
        assert_eq!(censored.incomplete(), 1);
        assert_eq!(censored.mean(), Some(8.0));
        let empty = r.cell(3);
        assert_eq!(empty.mean(), None);
        assert_eq!(empty.p95(), None);
        assert!(empty.ci().is_none());
        assert!(!r.is_complete());
        assert_eq!(r.total_trials(), 7);
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let r = sample_report();
        let json = r.to_json();
        let reloaded = SweepReport::from_json(&json).unwrap();
        assert_eq!(reloaded, r);
        assert_eq!(reloaded.to_json(), json);
    }

    #[test]
    fn csv_has_one_row_per_cell() {
        let r = sample_report();
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + r.cells().len());
        assert!(lines[0].starts_with("n,q,trials,incomplete,mean"));
        assert!(lines[1].starts_with("16,0.1,3,0,5,"));
        // Undefined stats serialize as empty fields, not NaN.
        assert!(lines[4].contains(",,"));
        assert!(!csv.contains("NaN"));
    }

    #[test]
    fn tampered_artifact_rejected() {
        let r = sample_report();
        let json = r.to_json();
        let tampered = json.replace("\"base_seed\": 18446744073709551598", "\"base_seed\": 7");
        assert_ne!(json, tampered);
        assert!(matches!(
            SweepReport::from_json(&tampered),
            Err(SweepError::Mismatch(_))
        ));
        assert!(matches!(
            SweepReport::from_json("{\"format\": \"other/9\"}"),
            Err(SweepError::Mismatch(_))
        ));
        assert!(SweepReport::from_json("not json").is_err());
    }

    #[test]
    fn corrupted_artifacts_error_instead_of_panicking() {
        let json = sample_report().to_json();
        // An emptied axis would trip Axis::validated's assert; the
        // loader must surface Parse instead.
        let empty_axis = json.replace("\"values\": [16, 32]", "\"values\": []");
        assert!(matches!(
            SweepReport::from_json(&empty_axis),
            Err(SweepError::Parse(_))
        ));
        // An overflowing token parses to infinity on its own (Rust f64
        // saturates); as a sample it must be rejected up front, not
        // panic the next serialization.
        let inf_sample = json.replace("\"samples\": [4, 6, 5]", "\"samples\": [4, 1e999, 5]");
        assert_ne!(json, inf_sample);
        assert!(matches!(
            SweepReport::from_json(&inf_sample),
            Err(SweepError::Parse(_))
        ));
    }

    /// An artifact's grid may have no more cells than the artifact
    /// holds: a 2^48-cell grid with no cells is an error before its
    /// uniform cap is expanded, and a uniform cap over exactly the
    /// artifact's cells loads.
    #[test]
    fn an_artifacts_grid_is_bounded_by_its_cells() {
        let values = vec!["1"; 4096].join(", ");
        let axes = (0..4)
            .map(|i| format!(r#"{{"name": "a{i}", "values": [{values}]}}"#))
            .collect::<Vec<_>>()
            .join(", ");
        let huge = format!(
            r#"{{"format": "dg-sweep/1", "fingerprint": 1, "axes": [{axes}], "max_rounds": 5, "cells": []}}"#
        );
        assert!(matches!(
            SweepReport::from_json(&huge),
            Err(SweepError::Parse(_))
        ));
        let report = sample_report();
        let capped = report.spec.clone().with_max_rounds(vec![7; 4]);
        let json = report.to_json().replace(
            &format!("\"fingerprint\": {},\n", report.fingerprint()),
            &format!(
                "\"fingerprint\": {},\n  \"max_rounds\": 7,\n",
                capped.fingerprint()
            ),
        );
        assert_eq!(SweepReport::from_json(&json).unwrap().spec(), &capped);
    }

    /// Six artifacts whose configuration breaks a spec rule while their
    /// embedded fingerprint matches it. Resuming any of them panicked
    /// (short cap table, `u32::MAX` cap, duplicate axis) or blocked
    /// `Sweep::run` forever (`min > max`, `0..0`); the loader must
    /// reject each with `Parse`, as the spec parser does.
    #[test]
    fn invalid_configs_with_matching_fingerprints_are_parse_errors() {
        let good = sample_report();
        let axes = good.spec.axes().to_vec();
        let grid = |axes: Vec<Axis>, caps: Option<Vec<u32>>| SweepSpec {
            grid: Grid::unchecked(axes, caps),
            ..good.spec.clone()
        };
        let budget = |min_trials, max_trials, target: Option<f64>| SweepSpec {
            budget: TrialBudget {
                min_trials,
                max_trials,
                ci_target: target.map(CiTarget::Relative),
            },
            ..good.spec.clone()
        };
        let duplicate = vec![axes[0].clone(), Axis::explicit("n", [0.1, 0.25])];
        for (label, spec) in [
            ("short cap table", grid(axes.clone(), Some(vec![10, 20]))),
            (
                "u32::MAX cap",
                grid(axes.clone(), Some(vec![10, 20, 30, u32::MAX])),
            ),
            ("duplicate axis", grid(duplicate, None)),
            ("min > max", budget(3, 2, None)),
            ("0..0", budget(0, 0, None)),
            ("ci_target <= 0", budget(3, 9, Some(0.0))),
        ] {
            let report = SweepReport {
                spec,
                cells: good.cells.clone(),
            };
            let json = report.to_json();
            assert!(json.contains(&format!("\"fingerprint\": {},", report.fingerprint())));
            match SweepReport::from_json(&json) {
                Err(SweepError::Parse(msg)) => assert!(!msg.is_empty(), "{label}"),
                other => panic!("{label}: expected a Parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn format_and_cells_must_agree_with_the_spec() {
        let json = sample_report().to_json();
        let parse_err =
            |text: &str| matches!(SweepReport::from_json(text), Err(SweepError::Parse(_)));
        // A dg-sweep/1 tag over declared metrics, and the reverse.
        let v1_with_metrics = json.replace(
            "  \"budget\"",
            "  \"metrics\": [{\"name\": \"rounds\", \"stopping\": \"default\"}],\n  \"budget\"",
        );
        assert!(parse_err(&v1_with_metrics));
        let v2 = metric_report().to_json();
        let v2_without_metrics = v2.replace("  \"metrics\"", "  \"unused\"");
        assert!(parse_err(&v2_without_metrics));
        // A missing cell, and a cell off the grid.
        let (head, tail) = json.split_once("    {\"id\": 3").unwrap();
        let three_cells = format!("{}\n  ]\n}}\n", head.trim_end().trim_end_matches(','));
        assert!(tail.contains("\"samples\""));
        assert!(parse_err(&three_cells));
        let off_grid = json.replace("\"values\": [32, 0.25]", "\"values\": [32, 0.5]");
        assert_ne!(off_grid, json);
        assert!(parse_err(&off_grid));
    }

    #[test]
    fn fingerprint_sensitive_to_config() {
        let r = sample_report();
        let spec = |axes: &[Axis], seed: u64, budget: TrialBudget| {
            SweepSpec::new(axes.to_vec(), seed, budget)
        };
        let (axes, seed, budget) = (r.spec.axes(), r.spec.base_seed, r.spec.budget);
        let base = r.fingerprint();
        assert_eq!(base, spec(axes, seed, budget).fingerprint());
        assert_ne!(base, spec(axes, seed ^ 1, budget).fingerprint());
        assert_ne!(base, spec(&axes[..1], seed, budget).fingerprint());
        let mut other = budget;
        other.max_trials += 1;
        assert_ne!(base, spec(axes, seed, other).fingerprint());
        // A max_rounds policy changes the trials' outcomes, so it must
        // change the fingerprint — per cap value, not just presence.
        let with_caps = r.spec.clone().with_max_rounds(vec![10, 20, 30, 40]);
        assert_ne!(base, with_caps.fingerprint());
        let other_caps = r.spec.clone().with_max_rounds(vec![10, 20, 30, 41]);
        assert_ne!(with_caps.fingerprint(), other_caps.fingerprint());
    }

    #[test]
    fn fingerprint_sensitive_to_metrics() {
        let r = sample_report();
        let with = |metrics: Vec<Metric>| r.spec.clone().with_metrics(metrics).fingerprint();
        let with_metrics = with(vec![Metric::new("rounds")]);
        assert_ne!(r.fingerprint(), with_metrics);
        // Name, order, and stopping mode all enter the hash.
        for other in [
            vec![Metric::new("messages")],
            vec![Metric::new("rounds"), Metric::new("messages")],
            vec![Metric::observe("rounds")],
            vec![Metric::target("rounds", CiTarget::Relative(0.1))],
            vec![Metric::target("rounds", CiTarget::Absolute(0.1))],
        ] {
            assert_ne!(with_metrics, with(other.clone()), "{other:?}");
        }
        assert_ne!(
            with(vec![Metric::new("rounds"), Metric::new("messages")]),
            with(vec![Metric::new("messages"), Metric::new("rounds")])
        );
    }

    #[test]
    fn max_rounds_round_trips_and_stays_optional() {
        // Cap-less artifacts serialize without the key at all (old
        // artifacts keep their exact bytes and fingerprints)...
        let bare = sample_report();
        assert!(!bare.to_json().contains("max_rounds"));
        // ...and capped ones round-trip caps and fingerprint.
        let mut capped = sample_report();
        capped.spec = capped.spec.with_max_rounds(vec![100, 200, 300, 400]);
        let json = capped.to_json();
        assert!(json.contains("\"max_rounds\": [100, 200, 300, 400]"));
        let reloaded = SweepReport::from_json(&json).unwrap();
        assert_eq!(reloaded, capped);
        assert_eq!(
            reloaded.max_rounds_table(),
            Some(&[100u32, 200, 300, 400][..])
        );
        assert_eq!(reloaded.to_json(), json);
        // A tampered cap is a fingerprint mismatch, not a silent resume.
        let tampered = json.replace("[100, 200, 300, 400]", "[100, 200, 300, 999]");
        assert!(matches!(
            SweepReport::from_json(&tampered),
            Err(SweepError::Mismatch(_))
        ));
    }

    #[test]
    fn cell_at_is_exact_or_none() {
        let r = sample_report();
        // Grid: n in [16, 32] x q in [0.1, 0.25], ids row-major.
        let hit = r.cell_at(&[("n", 32.0), ("q", 0.1)]).unwrap().unwrap();
        assert_eq!(hit.id, 2);
        // Order of query pairs is irrelevant.
        let hit = r.cell_at(&[("q", 0.25), ("n", 16.0)]).unwrap().unwrap();
        assert_eq!(hit.id, 1);
        // Off-grid coordinates are a miss, not an error.
        assert!(r.cell_at(&[("n", 20.0), ("q", 0.1)]).unwrap().is_none());
        // Malformed queries are Query errors, never panics.
        assert!(matches!(
            r.cell_at(&[("n", 16.0)]),
            Err(SweepError::Query(_))
        ));
        assert!(matches!(
            r.cell_at(&[("n", 16.0), ("q", 0.1), ("z", 1.0)]),
            Err(SweepError::Query(_))
        ));
        assert!(matches!(
            r.cell_at(&[("n", 16.0), ("n", 32.0)]),
            Err(SweepError::Query(_))
        ));
        assert!(matches!(
            r.cell_at(&[("n", f64::NAN), ("q", 0.1)]),
            Err(SweepError::Query(_))
        ));
    }

    #[test]
    fn nearest_cell_reports_distance_and_clamps() {
        let r = sample_report();
        // An exact hit has distance zero.
        let hit = r.nearest_cell(&[("n", 16.0), ("q", 0.25)]).unwrap();
        assert_eq!(hit.cell.id, 1);
        assert!(hit.exact);
        assert_eq!(hit.distance, 0.0);
        // n = 20 is 4/16 of the n-span from 16; q exact.
        let near = r.nearest_cell(&[("n", 20.0), ("q", 0.1)]).unwrap();
        assert_eq!(near.cell.id, 0);
        assert!(!near.exact);
        assert!((near.distance - 0.25).abs() < 1e-12, "{}", near.distance);
        // Out-of-range queries clamp to the nearest endpoint, overshoot
        // reported: n = 48 is one full n-span past 32.
        let clamped = r.nearest_cell(&[("n", 48.0), ("q", 0.25)]).unwrap();
        assert_eq!(clamped.cell.id, 3);
        assert!((clamped.distance - 1.0).abs() < 1e-12);
        // Distances combine across axes (Euclidean).
        let diag = r.nearest_cell(&[("n", 20.0), ("q", 0.13)]).unwrap();
        assert_eq!(diag.cell.id, 0);
        let expected = (0.25f64.powi(2) + (0.03f64 / 0.15).powi(2)).sqrt();
        assert!((diag.distance - expected).abs() < 1e-12);
    }

    #[test]
    fn nearest_cell_ties_break_toward_earlier_values() {
        let r = sample_report();
        // n = 24 is equidistant from 16 and 32: the earlier value wins.
        let tie = r.nearest_cell(&[("n", 24.0), ("q", 0.1)]).unwrap();
        assert_eq!(tie.cell.id, 0);
        assert!((tie.distance - 0.5).abs() < 1e-12);
        // Same on the q axis: 0.175 is the midpoint of 0.1 and 0.25.
        let tie = r.nearest_cell(&[("n", 32.0), ("q", 0.175)]).unwrap();
        assert_eq!(tie.cell.id, 2);
    }

    #[test]
    fn lookups_on_single_value_and_empty_grids() {
        // A single-value axis has zero span: distance stays raw.
        let one = SweepReport {
            spec: SweepSpec::new(vec![Axis::explicit("p", [0.5])], 1, TrialBudget::fixed(1)),
            cells: vec![CellReport {
                id: 0,
                values: vec![0.5],
                samples: rows1(vec![Some(2.0)]),
                decided: true,
            }],
        };
        let near = one.nearest_cell(&[("p", 0.75)]).unwrap();
        assert_eq!(near.cell.id, 0);
        assert!((near.distance - 0.25).abs() < 1e-12);
        assert!(one.cell_at(&[("p", 0.75)]).unwrap().is_none());
        assert!(one.cell_at(&[("p", 0.5)]).unwrap().is_some());
        // The empty grid's single cell answers the empty query.
        let empty = SweepReport {
            spec: SweepSpec::new(vec![], 1, TrialBudget::fixed(1)),
            cells: vec![CellReport {
                id: 0,
                values: vec![],
                samples: vec![],
                decided: false,
            }],
        };
        assert_eq!(empty.cell_at(&[]).unwrap().unwrap().id, 0);
        let near = empty.nearest_cell(&[]).unwrap();
        assert!(near.exact);
        assert_eq!(near.distance, 0.0);
    }

    #[test]
    fn fingerprint_accessor_matches_serialized_fingerprint() {
        let r = sample_report();
        let json = r.to_json();
        assert!(json.contains(&format!("\"fingerprint\": {}", r.fingerprint())));
        assert_eq!(
            SweepReport::from_json(&json).unwrap().fingerprint(),
            r.fingerprint()
        );
    }

    #[test]
    fn max_ci_half_width_spans_cells() {
        let r = sample_report();
        let hw = r.max_ci_half_width().unwrap();
        // Cell 1 (7 and 9, df = 1) is the noisiest: 12.706 * std_err.
        assert!((hw - 12.706).abs() < 1e-9, "hw = {hw}");
    }

    #[test]
    fn per_metric_statistics_index_the_rows() {
        let r = metric_report();
        let c = r.cell(0);
        assert_eq!(r.metric_count(), 3);
        assert_eq!(r.metric_index("messages"), Some(1));
        assert_eq!(r.metric_index("delivery_p95"), None);
        assert_eq!(c.trials(), 3);
        // rounds: one censored trial; messages: all three counted.
        assert_eq!(c.incomplete_of(0), 1);
        assert_eq!(c.incomplete_of(1), 0);
        assert_eq!(c.mean_of(0), Some(12.5));
        assert_eq!(c.mean_of(1), Some(490.0));
        assert_eq!(c.max_of(1), Some(520.0));
        // The metric-0 shorthands agree with the indexed forms.
        assert_eq!(c.mean(), c.mean_of(0));
        assert_eq!(c.incomplete(), c.incomplete_of(0));
        // A single-metric report answers no metric names.
        assert_eq!(sample_report().metric_index("rounds"), None);
        assert_eq!(sample_report().metric_count(), 1);
    }

    #[test]
    fn v2_json_round_trip_is_byte_identical() {
        let r = metric_report();
        let json = r.to_json();
        assert!(json.contains("\"format\": \"dg-sweep/2\""));
        assert!(json.contains(
            "\"metrics\": [{\"name\": \"rounds\", \"stopping\": \"default\"}, \
             {\"name\": \"messages\", \"stopping\": {\"relative\": 0.2}}, \
             {\"name\": \"coverage\", \"stopping\": \"observe\"}]"
        ));
        assert!(json.contains("[null, 520, 0.75]"));
        let reloaded = SweepReport::from_json(&json).unwrap();
        assert_eq!(reloaded, r);
        assert_eq!(reloaded.to_json(), json);
        assert_eq!(reloaded.fingerprint(), r.fingerprint());
    }

    #[test]
    fn v2_rejects_malformed_metric_artifacts() {
        let json = metric_report().to_json();
        // A row that is narrower than the declaration.
        let narrow = json.replace("[null, 520, 0.75]", "[null, 520]");
        assert!(matches!(
            SweepReport::from_json(&narrow),
            Err(SweepError::Parse(_))
        ));
        // Flat v1-style samples under a v2 header.
        let flat = json.replace("[null, 520, 0.75]", "520");
        assert!(SweepReport::from_json(&flat).is_err());
        // A tampered metric declaration is a fingerprint mismatch.
        let renamed = json.replace("\"name\": \"messages\"", "\"name\": \"transmissions\"");
        assert!(matches!(
            SweepReport::from_json(&renamed),
            Err(SweepError::Mismatch(_))
        ));
        // A v1 artifact must not carry nested rows.
        let v1 = sample_report().to_json();
        let nested = v1.replace("\"samples\": [4, 6, 5]", "\"samples\": [[4], [6], [5]]");
        assert!(SweepReport::from_json(&nested).is_err());
    }

    #[test]
    fn v2_csv_has_per_metric_column_groups() {
        let r = metric_report();
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "n,q,trials,\
             rounds_incomplete,rounds_mean,rounds_p95,rounds_max,rounds_ci_lo,rounds_ci_hi,rounds_ci_half_width,\
             messages_incomplete,messages_mean,messages_p95,messages_max,messages_ci_lo,messages_ci_hi,messages_ci_half_width,\
             coverage_incomplete,coverage_mean,coverage_p95,coverage_max,coverage_ci_lo,coverage_ci_hi,coverage_ci_half_width"
        );
        assert_eq!(lines.len(), 1 + r.cells().len());
        assert!(lines[1].starts_with("16,0.1,3,1,12.5,"));
        // The all-censored rounds column of cell 1 is empty fields.
        assert!(lines[2].starts_with("16,0.25,1,1,,,,"));
    }

    #[test]
    fn all_censored_statistics_agree_across_accessors() {
        // The documented contract: summary() empty <=> every scalar
        // statistic None — no accessor may disagree about whether an
        // all-censored cell "has" statistics.
        let all_censored = CellReport {
            id: 0,
            values: vec![1.0],
            samples: rows1(vec![None, None, None]),
            decided: true,
        };
        let no_trials = CellReport {
            id: 1,
            values: vec![2.0],
            samples: vec![],
            decided: false,
        };
        let mixed_metrics = CellReport {
            id: 2,
            values: vec![3.0],
            // Metric 0 all-censored, metric 1 fully sampled.
            samples: vec![vec![None, Some(7.0)], vec![None, Some(9.0)]],
            decided: true,
        };
        for (cell, m) in [(&all_censored, 0), (&no_trials, 0), (&mixed_metrics, 0)] {
            assert!(cell.summary_of(m).is_empty());
            assert_eq!(cell.mean_of(m), None);
            assert_eq!(cell.p95_of(m), None);
            assert_eq!(cell.max_of(m), None);
            assert!(cell.ci_of(m).is_none());
            assert_eq!(cell.completed_of(m), Vec::<f64>::new());
            assert_eq!(cell.incomplete_of(m), cell.trials());
        }
        // ...and a metric with data is unaffected by its neighbor.
        assert!(!mixed_metrics.summary_of(1).is_empty());
        assert_eq!(mixed_metrics.mean_of(1), Some(8.0));
        assert!(mixed_metrics.p95_of(1).is_some());
        assert_eq!(mixed_metrics.max_of(1), Some(9.0));
    }
}
