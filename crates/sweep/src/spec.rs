//! Sweep *specifications*: a sweep's whole configuration, the one
//! place it is held, validated, fingerprinted, written and parsed.
//!
//! A [`SweepSpec`] is a sweep's identity — axes, per-cell round caps,
//! declared metrics, base seed, trial budget — without any samples. A
//! [`Sweep`] runs one, and a [`crate::SweepReport`] is one plus its
//! cells, so the artifact's configuration half is parsed by the same
//! code as a spec posted on the wire. It also lets a sweep be *named
//! before it is run*: a client posts a spec, the server fingerprints it,
//! and either finds the artifact in a content-addressed store or
//! schedules the sweep — with [`SweepSpec::fingerprint`] equal to the
//! fingerprint the finished report carries.
//!
//! ```
//! use dg_sweep::{SweepSpec, TrialBudget};
//!
//! let spec = SweepSpec::from_json(
//!     r#"{"axes": [{"name": "n", "values": [16, 32]}],
//!         "base_seed": 7,
//!         "budget": {"min_trials": 2, "max_trials": 2, "ci_target": null}}"#,
//! )
//! .unwrap();
//! let report = spec.sweep().run(|cell, trial| {
//!     Some(cell.get("n") + (trial.seed % 3) as f64)
//! }).unwrap();
//! assert_eq!(report.fingerprint(), spec.fingerprint());
//! assert_eq!(report.spec(), &spec);
//! ```

use crate::axis::{cap_in_range, Axis, Grid, Metric, MetricStopping};
use crate::budget::{CiTarget, TrialBudget};
use crate::error::SweepError;
use crate::json::{self, fmt_f64, push_str_escaped, Json};
use crate::runner::Sweep;

/// Format tag of classic single-metric artifacts. Frozen: metric-less
/// reports must keep producing these exact bytes forever.
pub(crate) const FORMAT: &str = "dg-sweep/1";

/// Format tag of multi-metric artifacts (declared [`Metric`]s, one
/// sample row per trial).
pub(crate) const FORMAT_V2: &str = "dg-sweep/2";

/// The most cells a spec document may declare. A sweep builds every
/// cell, seed and cap up front, so without a bound a few kilobytes of
/// axes could ask for petabytes.
const MAX_SPEC_CELLS: usize = 1 << 20;

/// The configuration of one sweep: everything that enters its resume
/// fingerprint, and nothing else.
///
/// Construct programmatically ([`SweepSpec::new`]), from a finished
/// report ([`crate::SweepReport::spec`]), or from the wire
/// ([`SweepSpec::from_json`]). Every constructor enforces the same
/// rules, so a spec in hand always builds its grid and runs.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Axes, round caps and metrics.
    pub(crate) grid: Grid,
    pub(crate) base_seed: u64,
    pub(crate) budget: TrialBudget,
}

impl SweepSpec {
    /// The spec [`Sweep::over`] starts from: seed `0xD15E_A5E1` and an
    /// adaptive 8–64-trial budget at 5% relative CI.
    pub(crate) fn of_grid(grid: Grid) -> Self {
        SweepSpec {
            grid,
            base_seed: 0xD15E_A5E1,
            budget: TrialBudget::adaptive(8, 64, CiTarget::Relative(0.05)),
        }
    }

    /// A spec over `axes` with the given seed and budget, uncapped.
    ///
    /// # Panics
    ///
    /// Panics on duplicate axis names (same rule as [`Grid::axis`]) or a
    /// budget outside `1 <= min_trials <= max_trials` with a finite,
    /// strictly positive CI target.
    pub fn new(axes: Vec<Axis>, base_seed: u64, budget: TrialBudget) -> Self {
        SweepSpec {
            grid: axes.into_iter().fold(Grid::new(), Grid::axis),
            base_seed,
            budget: budget.validated(),
        }
    }

    /// Attaches a per-cell round-cap table (by cell id).
    ///
    /// # Panics
    ///
    /// Panics if the table length is not the cell count, or any cap is
    /// `0` or `u32::MAX` (the engine's uninformed sentinel).
    pub fn with_max_rounds(mut self, caps: Vec<u32>) -> Self {
        self.grid = self
            .grid
            .try_caps(caps)
            .unwrap_or_else(|msg| panic!("{msg}"));
        self
    }

    /// Declares the metric vector every trial records, switching the
    /// sweep to the multi-metric `dg-sweep/2` shape (same rules as
    /// [`Grid::metrics`]).
    ///
    /// # Panics
    ///
    /// Panics on an empty metric list or duplicate metric names.
    pub fn with_metrics(mut self, metrics: Vec<Metric>) -> Self {
        self.grid = self
            .grid
            .try_metrics(metrics)
            .unwrap_or_else(|msg| panic!("{msg}"));
        self
    }

    /// The spec's axes, in declaration order.
    pub fn axes(&self) -> &[Axis] {
        self.grid.axes()
    }

    /// The spec's base seed.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The spec's trial budget.
    pub fn budget(&self) -> TrialBudget {
        self.budget
    }

    /// The per-cell round caps, when attached.
    pub fn max_rounds(&self) -> Option<&[u32]> {
        self.grid.max_rounds_table()
    }

    /// The declared metrics, when the spec is multi-metric.
    pub fn metrics(&self) -> Option<&[Metric]> {
        self.grid.metrics_table()
    }

    /// Number of grid cells (product of axis lengths; 1 when empty).
    pub fn cell_count(&self) -> usize {
        self.grid.cell_count()
    }

    /// The [`Grid`] this spec describes (caps and metrics attached).
    pub fn grid(&self) -> Grid {
        self.grid.clone()
    }

    /// A [`Sweep`] configured from this spec (grid, budget, seed) —
    /// attach a checkpoint and run.
    pub fn sweep(&self) -> Sweep {
        Sweep::of_spec(self.clone())
    }

    /// The artifact format tag: `dg-sweep/2` exactly when metrics are
    /// declared.
    pub(crate) fn format(&self) -> &'static str {
        if self.metrics().is_some() {
            FORMAT_V2
        } else {
            FORMAT
        }
    }

    /// The identity fingerprint: FNV-1a over the format tag, the axes
    /// (names and exact value bits), the per-cell round caps (when
    /// attached — cap-less sweeps hash exactly as before, so their old
    /// artifacts stay resumable), the declared metrics (when present —
    /// the format tag changes with them, so no metric-less fingerprint
    /// can collide with a multi-metric one), base seed, and budget. Two
    /// sweeps share a fingerprint exactly when their per-`(cell, trial)`
    /// seed streams, round caps, sampled metrics and stopping rules
    /// coincide — the precondition for resuming from an artifact, and
    /// the name of the artifact in content-addressed stores.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01B3);
            }
        };
        let target = |t: CiTarget| match t {
            CiTarget::Absolute(v) => (1u8, v.to_bits()),
            CiTarget::Relative(v) => (2u8, v.to_bits()),
        };
        eat(self.format().as_bytes());
        for axis in self.axes() {
            eat(axis.name().as_bytes());
            eat(&[0]);
            for v in axis.values() {
                eat(&v.to_bits().to_le_bytes());
            }
            eat(&[1]);
        }
        if let Some(caps) = self.max_rounds() {
            eat(&[2]);
            for cap in caps {
                eat(&cap.to_le_bytes());
            }
        }
        if let Some(metrics) = self.metrics() {
            eat(&[3]);
            for m in metrics {
                eat(m.name().as_bytes());
                eat(&[0]);
                match m.stopping() {
                    MetricStopping::Default => eat(&[0]),
                    MetricStopping::Target(t) => {
                        let (tag, bits) = target(t);
                        eat(&[tag]);
                        eat(&bits.to_le_bytes());
                    }
                    MetricStopping::Observe => eat(&[3]),
                }
            }
        }
        eat(&self.base_seed.to_le_bytes());
        eat(&(self.budget.min_trials as u64).to_le_bytes());
        eat(&(self.budget.max_trials as u64).to_le_bytes());
        match self.budget.ci_target.map(target) {
            None => eat(&[0]),
            Some((tag, bits)) => {
                eat(&[tag]);
                eat(&bits.to_le_bytes());
            }
        }
        h
    }

    /// Serializes the spec (canonical form: every field explicit, caps
    /// only when attached).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\n");
        self.push_axes(&mut out);
        out.push_str(&format!(",\n  \"base_seed\": {},\n", self.base_seed));
        self.push_budget(&mut out);
        if let Some(metrics) = self.metrics() {
            out.push_str(",\n  \"metrics\": [\n");
            for (i, m) in metrics.iter().enumerate() {
                out.push_str("    ");
                push_metric(&mut out, m);
                out.push_str(if i + 1 < metrics.len() { ",\n" } else { "\n" });
            }
            out.push_str("  ]");
        }
        if let Some(caps) = self.max_rounds() {
            out.push_str(",\n");
            push_caps(&mut out, caps);
        }
        out.push_str("\n}\n");
        out
    }

    /// Writes `  "axes": [...]`, one axis a line — the piece both JSON
    /// writers share.
    pub(crate) fn push_axes(&self, out: &mut String) {
        out.push_str("  \"axes\": [\n");
        let axes = self.axes();
        for (i, axis) in axes.iter().enumerate() {
            out.push_str("    {\"name\": ");
            push_str_escaped(out, axis.name());
            out.push_str(", \"values\": [");
            push_joined(out, axis.values().iter().map(|v| fmt_f64(*v)));
            out.push_str(if i + 1 < axes.len() { "]},\n" } else { "]}\n" });
        }
        out.push_str("  ]");
    }

    /// Writes `  "budget": {...}` — the piece both JSON writers share.
    pub(crate) fn push_budget(&self, out: &mut String) {
        let b = self.budget;
        out.push_str(&format!(
            "  \"budget\": {{\"min_trials\": {}, \"max_trials\": {}, \"ci_target\": {}}}",
            b.min_trials,
            b.max_trials,
            b.ci_target.map_or("null".to_string(), target_json)
        ));
    }

    /// Parses a spec.
    ///
    /// The wire form is forgiving where that cannot change the sweep's
    /// identity: `base_seed` and `budget` may be omitted (defaulting to
    /// the [`Sweep::over`] defaults, seed `0xD15E_A5E1` and an adaptive
    /// 8–64-trial budget at 5% relative CI), `max_rounds` accepts
    /// either a single uniform cap or a full per-cell table, and each
    /// `metrics` entry accepts either the canonical
    /// `{"name": ..., "stopping": ...}` object or a bare name string
    /// (default stopping). Everything is validated here — a malformed
    /// spec is an `Err`, never a panic in a worker thread later. A spec
    /// document declares at most 2^20 cells.
    pub fn from_json(text: &str) -> Result<Self, SweepError> {
        SweepSpec::from_doc(&json::parse(text)?, MAX_SPEC_CELLS)
    }

    /// The one configuration parser: a spec document, or the
    /// configuration half of an artifact. Unknown keys (an artifact's
    /// `format`, `fingerprint` and `cells`) are ignored; every rule the
    /// constructors assert is a [`SweepError::Parse`] here, and so is a
    /// grid of more than `max_cells` cells, checked before anything is
    /// built per cell.
    pub(crate) fn from_doc(doc: &Json, max_cells: usize) -> Result<Self, SweepError> {
        let mut grid = Grid::new();
        for axis in doc.get("axes")?.as_arr()? {
            let name = axis.get("name")?.as_str()?;
            let values = axis.get("values")?.as_arr()?;
            let values = values.iter().map(Json::as_f64).collect::<Result<_, _>>()?;
            grid = grid
                .try_axis(Axis::checked(name, values).map_err(SweepError::Parse)?)
                .map_err(SweepError::Parse)?;
        }
        if grid.cell_count() > max_cells {
            return Err(SweepError::Parse(format!(
                "a grid of {} cells, more than {max_cells}",
                grid.cell_count()
            )));
        }
        if let Ok(metrics) = doc.get("metrics") {
            let metrics = metrics.as_arr()?.iter().map(parse_metric);
            grid = grid
                .try_metrics(metrics.collect::<Result<_, _>>()?)
                .map_err(SweepError::Parse)?;
        }
        if let Ok(caps) = doc.get("max_rounds") {
            let caps = match caps.as_arr() {
                Ok(table) => table.iter().map(parse_cap).collect::<Result<_, _>>()?,
                // A bare number is a uniform cap for every cell.
                Err(_) => vec![parse_cap(caps)?; grid.cell_count()],
            };
            grid = grid.try_caps(caps).map_err(SweepError::Parse)?;
        }
        let mut spec = SweepSpec::of_grid(grid);
        if let Ok(seed) = doc.get("base_seed") {
            spec.base_seed = seed.as_u64()?;
        }
        if let Ok(budget) = doc.get("budget") {
            let target = budget.get("ci_target")?;
            spec.budget = TrialBudget {
                min_trials: budget.get("min_trials")?.as_usize()?,
                max_trials: budget.get("max_trials")?.as_usize()?,
                ci_target: if target.is_null() {
                    None
                } else {
                    Some(parse_target(target)?)
                },
            };
            spec.budget.check().map_err(SweepError::Parse)?;
        }
        Ok(spec)
    }
}

/// Writes `{"name": ..., "stopping": ...}`, as both JSON writers do.
pub(crate) fn push_metric(out: &mut String, m: &Metric) {
    out.push_str("{\"name\": ");
    push_str_escaped(out, m.name());
    out.push_str(", \"stopping\": ");
    out.push_str(&match m.stopping() {
        MetricStopping::Default => "\"default\"".to_string(),
        MetricStopping::Target(t) => target_json(t),
        MetricStopping::Observe => "\"observe\"".to_string(),
    });
    out.push('}');
}

/// Writes `  "max_rounds": [...]`, as both JSON writers do.
pub(crate) fn push_caps(out: &mut String, caps: &[u32]) {
    out.push_str("  \"max_rounds\": [");
    push_joined(out, caps.iter().map(u32::to_string));
    out.push(']');
}

/// Writes `items` separated by `", "`.
fn push_joined(out: &mut String, items: impl Iterator<Item = String>) {
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&item);
    }
}

fn target_json(t: CiTarget) -> String {
    match t {
        CiTarget::Absolute(v) => format!("{{\"absolute\": {}}}", fmt_f64(v)),
        CiTarget::Relative(v) => format!("{{\"relative\": {}}}", fmt_f64(v)),
    }
}

/// `{"absolute": v}` or `{"relative": v}`; the value's range is the
/// budget's or the metric's rule to check.
fn parse_target(t: &Json) -> Result<CiTarget, SweepError> {
    Ok(match t.get("absolute") {
        Ok(v) => CiTarget::Absolute(v.as_f64()?),
        Err(_) => CiTarget::Relative(t.get("relative")?.as_f64()?),
    })
}

/// One metric declaration: the canonical object form
/// `{"name": ..., "stopping": ...}` (stopping `"default"`, `"observe"`,
/// `{"absolute": v}` or `{"relative": v}`), or — for forgiving wire
/// specs — a bare name string meaning default stopping.
fn parse_metric(m: &Json) -> Result<Metric, SweepError> {
    let (name, stopping) = match m.as_str() {
        Ok(name) => (name, MetricStopping::Default),
        Err(_) => {
            let name = m.get("name")?.as_str()?;
            let stopping = m.get("stopping")?;
            let stopping = match stopping.as_str() {
                Ok("default") => MetricStopping::Default,
                Ok("observe") => MetricStopping::Observe,
                Ok(other) => {
                    return Err(SweepError::Parse(format!(
                        "metric {name:?} has unknown stopping {other:?}"
                    )))
                }
                Err(_) => MetricStopping::Target(parse_target(stopping)?),
            };
            (name, stopping)
        }
    };
    Metric::checked(name, stopping).map_err(SweepError::Parse)
}

/// One round cap, in [`Grid`]'s cap range `1..u32::MAX`.
fn parse_cap(v: &Json) -> Result<u32, SweepError> {
    let cap = v.as_u64()?;
    u32::try_from(cap)
        .ok()
        .filter(|&cap| cap_in_range(cap))
        .ok_or_else(|| {
            SweepError::Parse(format!("max_rounds cap {cap} is out of range 1..u32::MAX"))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cell, Trial};

    fn synthetic(cell: &Cell, trial: Trial) -> Option<f64> {
        Some(cell.values().iter().sum::<f64>() + (trial.seed % 5) as f64)
    }

    fn spec() -> SweepSpec {
        SweepSpec::new(
            vec![Axis::ints("n", [8, 16]), Axis::explicit("q", [0.1, 0.2])],
            42,
            TrialBudget::adaptive(2, 4, CiTarget::Relative(0.5)),
        )
    }

    #[test]
    fn spec_fingerprint_matches_report_fingerprint() {
        for s in [spec(), spec().with_max_rounds(vec![10, 20, 30, 40])] {
            let report = s.sweep().run(synthetic).unwrap();
            assert_eq!(report.fingerprint(), s.fingerprint());
            assert_eq!(report.spec(), &s);
            assert_eq!(report.max_rounds_table(), s.max_rounds());
        }
    }

    #[test]
    fn spec_json_round_trips_byte_identically() {
        for s in [
            spec(),
            spec().with_max_rounds(vec![10, 20, 30, 40]),
            SweepSpec::new(vec![], 7, TrialBudget::fixed(3)),
        ] {
            let json = s.to_json();
            let reloaded = SweepSpec::from_json(&json).unwrap();
            assert_eq!(reloaded, s);
            assert_eq!(reloaded.to_json(), json);
        }
    }

    #[test]
    fn wire_form_defaults_and_uniform_caps() {
        let s = SweepSpec::from_json(
            r#"{"axes": [{"name": "n", "values": [4, 8]}], "max_rounds": 500}"#,
        )
        .unwrap();
        assert_eq!(s.base_seed(), 0xD15E_A5E1);
        assert_eq!(
            s.budget(),
            TrialBudget::adaptive(8, 64, CiTarget::Relative(0.05))
        );
        assert_eq!(s.max_rounds(), Some(&[500u32, 500][..]));
        // The canonical re-serialization is explicit about all of it.
        let canon = SweepSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(canon, s);
    }

    #[test]
    fn malformed_specs_error_instead_of_panicking() {
        let bad = [
            // No axes key at all.
            r#"{"base_seed": 1}"#,
            // Empty axis.
            r#"{"axes": [{"name": "n", "values": []}]}"#,
            // Duplicate axis.
            r#"{"axes": [{"name": "n", "values": [1]}, {"name": "n", "values": [2]}]}"#,
            // Non-finite axis value.
            r#"{"axes": [{"name": "n", "values": [1e999]}]}"#,
            // Inverted budget.
            r#"{"axes": [{"name": "n", "values": [1]}], "budget": {"min_trials": 5, "max_trials": 2, "ci_target": null}}"#,
            // Zero-trial budget.
            r#"{"axes": [{"name": "n", "values": [1]}], "budget": {"min_trials": 0, "max_trials": 2, "ci_target": null}}"#,
            // Negative CI target.
            r#"{"axes": [{"name": "n", "values": [1]}], "budget": {"min_trials": 1, "max_trials": 2, "ci_target": {"relative": -0.1}}}"#,
            // Cap table of the wrong size.
            r#"{"axes": [{"name": "n", "values": [1, 2]}], "max_rounds": [5]}"#,
            // Cap out of range.
            r#"{"axes": [{"name": "n", "values": [1]}], "max_rounds": 0}"#,
            r#"{"axes": [{"name": "n", "values": [1]}], "max_rounds": 4294967295}"#,
        ];
        // Eight 256-value axes: 2^64 cells, past any usize cell count.
        let values = (0..256)
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let axes = (0..8)
            .map(|i| format!(r#"{{"name": "a{i}", "values": [{values}]}}"#))
            .collect::<Vec<_>>()
            .join(", ");
        let overflow = format!(r#"{{"axes": [{axes}]}}"#);
        // Four 4096-value axes: 2^48 cells from 80 KB of text. Expanding
        // the uniform cap, or running the sweep, would allocate petabytes.
        let values = vec!["1"; 4096].join(", ");
        let wide = (0..4)
            .map(|i| format!(r#"{{"name": "a{i}", "values": [{values}]}}"#))
            .collect::<Vec<_>>()
            .join(", ");
        let huge = format!(r#"{{"axes": [{wide}]}}"#);
        let uniform = format!(r#"{{"axes": [{wide}], "max_rounds": 5}}"#);
        for text in bad
            .into_iter()
            .chain([&overflow, &huge, &uniform].map(String::as_str))
        {
            assert!(
                matches!(SweepSpec::from_json(text), Err(SweepError::Parse(_))),
                "accepted: {text}"
            );
        }
    }

    #[test]
    fn spec_documents_declare_at_most_the_cell_limit() {
        let grid = |cells: usize, caps: &str| {
            SweepSpec::from_json(&format!(
                r#"{{"axes": [{{"name": "a", "values": [{}]}}, {{"name": "b", "values": [{}]}}]{caps}}}"#,
                vec!["1"; cells / 1024].join(", "),
                vec!["1"; 1024].join(", ")
            ))
        };
        let spec = grid(MAX_SPEC_CELLS, r#", "max_rounds": 5"#).unwrap();
        assert_eq!(spec.max_rounds().unwrap(), &vec![5; MAX_SPEC_CELLS][..]);
        for caps in ["", r#", "max_rounds": 5"#] {
            assert!(matches!(
                grid(MAX_SPEC_CELLS + 1024, caps),
                Err(SweepError::Parse(_))
            ));
        }
    }

    fn metric_spec() -> SweepSpec {
        spec().with_metrics(vec![
            Metric::new("rounds"),
            Metric::target("messages", CiTarget::Relative(0.2)),
            Metric::observe("coverage"),
        ])
    }

    #[test]
    fn metric_spec_fingerprint_matches_report_fingerprint() {
        let s = metric_spec();
        let report = s
            .sweep()
            .run_metrics(|cell, trial| {
                let base = cell.values().iter().sum::<f64>();
                vec![
                    Some(base + (trial.seed % 5) as f64),
                    Some(10.0 * base),
                    Some(0.5),
                ]
            })
            .unwrap();
        assert_eq!(report.fingerprint(), s.fingerprint());
        assert_ne!(s.fingerprint(), spec().fingerprint());
        assert_eq!(report.spec(), &s);
        assert_eq!(report.metrics(), s.metrics());
    }

    #[test]
    fn metric_spec_json_round_trips_byte_identically() {
        for s in [
            metric_spec(),
            spec()
                .with_max_rounds(vec![10, 20, 30, 40])
                .with_metrics(vec![Metric::new("rounds")]),
        ] {
            let json = s.to_json();
            let reloaded = SweepSpec::from_json(&json).unwrap();
            assert_eq!(reloaded, s);
            assert_eq!(reloaded.to_json(), json);
        }
    }

    #[test]
    fn wire_form_accepts_bare_metric_names() {
        let s = SweepSpec::from_json(
            r#"{"axes": [{"name": "n", "values": [4, 8]}],
                "metrics": ["rounds", {"name": "messages", "stopping": "observe"}]}"#,
        )
        .unwrap();
        assert_eq!(
            s.metrics(),
            Some(&[Metric::new("rounds"), Metric::observe("messages")][..])
        );
        // The canonical re-serialization is the explicit object form.
        let canon = SweepSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(canon, s);
    }

    #[test]
    fn malformed_metric_specs_error_instead_of_panicking() {
        let bad = [
            // Empty metrics list.
            r#"{"axes": [{"name": "n", "values": [1]}], "metrics": []}"#,
            // Duplicate metric.
            r#"{"axes": [{"name": "n", "values": [1]}], "metrics": ["a", "a"]}"#,
            // Empty metric name.
            r#"{"axes": [{"name": "n", "values": [1]}], "metrics": [""]}"#,
            // Unknown stopping tag.
            r#"{"axes": [{"name": "n", "values": [1]}], "metrics": [{"name": "a", "stopping": "maybe"}]}"#,
            // Non-positive per-metric target.
            r#"{"axes": [{"name": "n", "values": [1]}], "metrics": [{"name": "a", "stopping": {"relative": 0}}]}"#,
        ];
        for text in bad {
            assert!(SweepSpec::from_json(text).is_err(), "accepted: {text}");
        }
    }

    #[test]
    fn checkpoint_resume_accepts_spec_built_sweeps() {
        // A spec-built sweep writes an artifact at its own fingerprint;
        // re-running the same spec against that artifact resumes it.
        let dir = std::env::temp_dir().join(format!("dg_sweep_spec_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = spec();
        let path = dir.join(format!("{}.json", s.fingerprint()));
        let _ = std::fs::remove_file(&path);
        let first = s.sweep().checkpoint(&path).run(synthetic).unwrap();
        let resumed = s.sweep().checkpoint(&path).run(synthetic).unwrap();
        assert_eq!(resumed.to_json(), first.to_json());
        let _ = std::fs::remove_file(&path);
    }
}
