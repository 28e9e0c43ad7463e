//! Trial budgets: how many trials a cell gets, and when to stop early.

use dg_stats::{mean_ci95_t, Summary};

use crate::axis::Metric;

/// Target on the 95% Student-t confidence-interval half-width of a
/// cell's mean, used by the sequential stopping rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CiTarget {
    /// Stop once the half-width is at most this many rounds (or whatever
    /// unit the samples are in).
    Absolute(f64),
    /// Stop once the half-width is at most this fraction of the absolute
    /// sample mean — scale-free, the usual choice for flooding times
    /// that range from a handful to tens of thousands of rounds.
    Relative(f64),
}

/// Per-cell trial budget: a minimum, a cap, and an optional CI target
/// that lets well-behaved cells stop before the cap.
///
/// The stopping decision for a cell is a pure function of its sample
/// *prefix* in trial order: the final trial count is the smallest
/// `k >= min_trials` whose first `k` samples meet the target (or the
/// cap). Samples are pure functions of per-`(cell, trial)` seeds, so the
/// count — and therefore the whole report — is independent of how trials
/// were scheduled across threads or resumptions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialBudget {
    /// Trials every cell runs before the stopping rule is consulted.
    pub min_trials: usize,
    /// Hard per-cell cap (the full budget when no target is set, or when
    /// a cell's variance never lets the target be met).
    pub max_trials: usize,
    /// Early-stopping target; `None` means a fixed budget of exactly
    /// `max_trials` per cell.
    pub ci_target: Option<CiTarget>,
}

impl TrialBudget {
    /// A fixed budget: exactly `trials` per cell, no early stopping.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub fn fixed(trials: usize) -> Self {
        TrialBudget {
            min_trials: trials,
            max_trials: trials,
            ci_target: None,
        }
        .validated()
    }

    /// An adaptive budget: at least `min_trials`, at most `max_trials`,
    /// stopping as soon as the Student-t 95% CI half-width over a cell's
    /// completed samples meets `target`. The CI can only stop a cell
    /// once at least `min_trials` trials *completed* — censored trials
    /// spend budget but contribute no stopping evidence, so a mostly
    /// censored cell keeps running toward the cap instead of "deciding"
    /// on a handful of lucky survivors.
    ///
    /// # Panics
    ///
    /// Panics if `min_trials == 0`, `min_trials > max_trials`, or the
    /// target value is not finite and strictly positive.
    pub fn adaptive(min_trials: usize, max_trials: usize, target: CiTarget) -> Self {
        TrialBudget {
            min_trials,
            max_trials,
            ci_target: Some(target),
        }
        .validated()
    }

    /// The one budget rule, shared by the constructors, [`crate::Sweep::budget`]
    /// and both JSON parsers: `1 <= min_trials <= max_trials`, and a CI
    /// target, when set, finite and strictly positive. A budget outside
    /// it would leave cells that can never be decided.
    pub(crate) fn check(&self) -> Result<(), String> {
        if self.min_trials == 0 {
            return Err("budget needs at least one trial".into());
        }
        if self.min_trials > self.max_trials {
            return Err(format!(
                "min_trials must be <= max_trials, got {}..{}",
                self.min_trials, self.max_trials
            ));
        }
        match self.ci_target {
            Some(CiTarget::Absolute(v) | CiTarget::Relative(v)) if !(v.is_finite() && v > 0.0) => {
                Err(format!("CI target must be strictly positive, got {v}"))
            }
            _ => Ok(()),
        }
    }

    /// `self`, or a panic with the [`TrialBudget::check`] message.
    pub(crate) fn validated(self) -> Self {
        if let Err(msg) = self.check() {
            panic!("{msg}");
        }
        self
    }

    /// The stopping decision over a *complete* sample prefix: `true` if a
    /// cell whose first `samples.len()` trials produced exactly the
    /// metric *rows* `samples` (`samples[t][m]` is trial `t`'s slot for
    /// metric `m`, `None` = that metric was censored in that trial)
    /// should stop there — only when **every** gating metric meets its
    /// effective CI target, or at the trial cap. A metric-less sweep
    /// passes one [`Metric::new`] over its one-slot rows.
    ///
    /// A metric gates when [`Metric::effective_target`] resolves to a
    /// target under this budget; each gating metric independently needs
    /// at least `min_trials` completed slots — censored trials spend
    /// budget but contribute no evidence, so a mostly censored cell
    /// keeps running instead of "deciding" on a handful of lucky
    /// survivors — and a Student-t 95% CI half-width within its target.
    /// With no gating metric at all — a fixed budget, or every metric
    /// [`crate::MetricStopping::Observe`] — only the trial cap stops a
    /// cell.
    ///
    /// This is the pure function behind scheduling determinism: the
    /// runner calls it for `k = min_trials, min_trials + 1, ...` as
    /// prefixes complete and fixes the first `k` it accepts.
    pub fn stop_at_metrics(&self, metrics: &[Metric], samples: &[Vec<Option<f64>>]) -> bool {
        let k = samples.len();
        if k < self.min_trials {
            return false;
        }
        if k >= self.max_trials {
            return true;
        }
        let mut gating = 0usize;
        for (m, metric) in metrics.iter().enumerate() {
            let Some(target) = metric.effective_target(self.ci_target) else {
                continue;
            };
            gating += 1;
            let completed: Summary = samples.iter().filter_map(|row| row[m]).collect();
            if completed.len() < self.min_trials {
                return false;
            }
            let Some(ci) = mean_ci95_t(&completed) else {
                return false;
            };
            let met = match target {
                CiTarget::Absolute(a) => ci.half_width() <= a,
                CiTarget::Relative(r) => ci.half_width() <= r * ci.mean.abs(),
            };
            if !met {
                return false;
            }
        }
        gating > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "min_trials must be <= max_trials")]
    fn inverted_budget_rejected() {
        let _ = TrialBudget::adaptive(5, 4, CiTarget::Absolute(1.0));
    }

    fn rows(rows: &[&[Option<f64>]]) -> Vec<Vec<Option<f64>>> {
        rows.iter().map(|r| r.to_vec()).collect()
    }

    /// One-slot rows: a metric-less sweep's samples.
    fn column(samples: &[Option<f64>]) -> Vec<Vec<Option<f64>>> {
        samples.iter().map(|&s| vec![s]).collect()
    }

    #[test]
    fn metrics_stop_only_when_every_gating_metric_is_tight() {
        let b = TrialBudget::adaptive(3, 100, CiTarget::Absolute(0.5));
        let ms = [Metric::new("rounds"), Metric::new("messages")];
        // Both metrics zero-variance: stops at min_trials.
        let tight = rows(&[&[Some(7.0), Some(40.0)][..]; 3]);
        assert!(b.stop_at_metrics(&ms, &tight));
        // The second metric is noisy: the cell keeps running even
        // though the first met its target long ago.
        let noisy = rows(&[
            &[Some(7.0), Some(0.0)],
            &[Some(7.0), Some(100.0)],
            &[Some(7.0), Some(50.0)],
        ]);
        assert!(!b.stop_at_metrics(&ms, &noisy));
        // Demoting the noisy metric to observe-only lets the cell stop.
        let observed = [Metric::new("rounds"), Metric::observe("messages")];
        assert!(b.stop_at_metrics(&observed, &noisy));
        // A per-metric target override gates on its own threshold.
        let loose = [
            Metric::new("rounds"),
            Metric::target("messages", CiTarget::Absolute(1000.0)),
        ];
        assert!(b.stop_at_metrics(&loose, &noisy));
        // The cap always stops, whatever the metrics say.
        let capped = TrialBudget::adaptive(1, 3, CiTarget::Absolute(1e-9));
        assert!(capped.stop_at_metrics(&ms, &noisy));

        // One metric, as a metric-less sweep stops: zero variance
        // collapses the CI at min_trials, high variance keeps going, the
        // cap always stops.
        let one = [Metric::new("sample")];
        assert!(b.stop_at_metrics(&one, &column(&[Some(7.0); 3])));
        assert!(!b.stop_at_metrics(&one, &column(&[Some(0.0), Some(100.0), Some(50.0)])));
        assert!(b.stop_at_metrics(&one, &column(&[Some(0.0); 100])));
        // min_trials always run, however loose the target.
        let loose = TrialBudget::adaptive(5, 100, CiTarget::Absolute(1e9));
        assert!(!loose.stop_at_metrics(&one, &column(&[Some(1.0); 4])));
        assert!(loose.stop_at_metrics(&one, &column(&[Some(1.0); 5])));
    }

    #[test]
    fn per_metric_censoring_gates_evidence_per_metric() {
        let b = TrialBudget::adaptive(3, 100, CiTarget::Relative(0.1));
        let ms = [Metric::new("rounds"), Metric::new("messages")];
        // `rounds` censored in one trial (cap hit) while `messages` has
        // three agreeing completions: rounds has only 2 < min_trials
        // completed slots, so survivorship must not stop the cell.
        let mixed = rows(&[
            &[Some(5.0), Some(40.0)],
            &[None, Some(40.0)],
            &[Some(5.0), Some(40.0)],
        ]);
        assert!(!b.stop_at_metrics(&ms, &mixed));
        // One more trial completes rounds' evidence; now both gate.
        let enough = rows(&[
            &[Some(5.0), Some(40.0)],
            &[None, Some(40.0)],
            &[Some(5.0), Some(40.0)],
            &[Some(5.0), Some(40.0)],
        ]);
        assert!(b.stop_at_metrics(&ms, &enough));

        // One metric: a single completed sample gives no CI; two
        // agreeing survivors among three trials are fewer than
        // min_trials completions; a third completion stops the cell.
        let one = [Metric::new("sample")];
        assert!(!b.stop_at_metrics(&one, &column(&[None, Some(5.0), None])));
        assert!(!b.stop_at_metrics(&one, &column(&[Some(5.0), Some(5.0), None])));
        let survivors = column(&[Some(5.0), Some(5.0), None, Some(5.0)]);
        assert!(b.stop_at_metrics(&one, &survivors));
    }

    #[test]
    fn all_observe_metrics_run_to_the_cap() {
        let b = TrialBudget::adaptive(2, 5, CiTarget::Absolute(100.0));
        let ms = [Metric::observe("a"), Metric::observe("b")];
        let flat = rows(&[&[Some(1.0), Some(1.0)][..]; 4]);
        assert!(!b.stop_at_metrics(&ms, &flat));
        assert!(b.stop_at_metrics(&ms, &rows(&[&[Some(1.0), Some(1.0)][..]; 5])));
        // Same for a fixed budget with Default metrics: no target, no
        // early stop.
        let fixed = TrialBudget::fixed(5);
        let defaults = [Metric::new("a"), Metric::new("b")];
        assert!(!fixed.stop_at_metrics(&defaults, &flat));
        // A fixed budget stops a metric-less sweep only at its cap.
        let one = [Metric::new("sample")];
        let fixed = TrialBudget::fixed(4);
        assert!(!fixed.stop_at_metrics(&one, &column(&[Some(1.0); 3])));
        assert!(fixed.stop_at_metrics(&one, &column(&[Some(1.0); 4])));
    }
}
