//! Trial records and the aggregated simulation report.

use dg_stats::{Quantiles, Summary};

/// The outcome of one engine trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialRecord {
    /// Trial index (also the seed stream index).
    pub trial: usize,
    /// The derived seed (`mix_seed(base_seed, trial)`) the model and
    /// protocol were initialized with.
    pub seed: u64,
    /// Spreading completion time; `None` if the trial hit its round cap
    /// or went quiescent before informing everyone.
    pub time: Option<u32>,
    /// Nodes informed by the end of the trial.
    pub informed: usize,
    /// Rounds actually executed.
    pub rounds: u32,
    /// Total messages transmitted (every send counts, including to
    /// already-informed nodes).
    pub messages: u64,
}

/// Aggregated results of a batch of engine trials, ordered by trial
/// index — so two runs with the same seeds compare equal regardless of
/// thread scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulationReport {
    node_count: usize,
    records: Vec<TrialRecord>,
}

impl SimulationReport {
    pub(crate) fn new(node_count: usize, records: Vec<TrialRecord>) -> Self {
        SimulationReport {
            node_count,
            records,
        }
    }

    /// Number of nodes `n` of the simulated processes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Per-trial records, ordered by trial index.
    pub fn records(&self) -> &[TrialRecord] {
        &self.records
    }

    /// Number of trials.
    pub fn trials(&self) -> usize {
        self.records.len()
    }

    /// Per-trial spreading times (`None` = incomplete).
    pub fn times(&self) -> Vec<Option<u32>> {
        self.records.iter().map(|r| r.time).collect()
    }

    /// Number of trials that did not inform everyone.
    pub fn incomplete(&self) -> usize {
        self.records.iter().filter(|r| r.time.is_none()).count()
    }

    /// Completed spreading times as `f64`s.
    pub fn completed(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter_map(|r| r.time.map(|t| t as f64))
            .collect()
    }

    /// Streaming summary over completed trials.
    pub fn summary(&self) -> Summary {
        self.completed().into_iter().collect()
    }

    /// Order statistics over completed trials; `None` if no trial
    /// completed.
    pub fn quantiles(&self) -> Option<Quantiles> {
        Quantiles::try_new(self.completed())
    }

    /// Mean spreading time over completed trials (`NaN` if none
    /// completed — check [`SimulationReport::incomplete`] first).
    pub fn mean(&self) -> f64 {
        self.summary().mean()
    }

    /// Empirical 95th percentile of completed times — the stand-in for
    /// the paper's with-high-probability bounds; `None` if no trial
    /// completed.
    pub fn p95(&self) -> Option<f64> {
        self.quantiles().map(|q| q.p95())
    }

    /// Largest completed spreading time; `None` if no trial completed.
    pub fn max(&self) -> Option<f64> {
        self.quantiles().map(|q| q.max())
    }

    /// Total messages across all trials.
    pub fn total_messages(&self) -> u64 {
        self.records.iter().map(|r| r.messages).sum()
    }

    /// Mean messages per trial.
    pub fn mean_messages(&self) -> f64 {
        if self.records.is_empty() {
            return f64::NAN;
        }
        self.total_messages() as f64 / self.records.len() as f64
    }

    /// Mean fraction of nodes informed at trial end (1.0 when every
    /// trial completed).
    pub fn mean_coverage(&self) -> f64 {
        if self.records.is_empty() || self.node_count == 0 {
            return f64::NAN;
        }
        let covered: f64 = self
            .records
            .iter()
            .map(|r| r.informed as f64 / self.node_count as f64)
            .sum();
        covered / self.records.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trial: usize, time: Option<u32>, informed: usize, messages: u64) -> TrialRecord {
        TrialRecord {
            trial,
            seed: trial as u64,
            time,
            informed,
            rounds: time.unwrap_or(10),
            messages,
        }
    }

    #[test]
    fn aggregates() {
        let r = SimulationReport::new(
            10,
            vec![
                rec(0, Some(4), 10, 40),
                rec(1, Some(6), 10, 60),
                rec(2, None, 5, 20),
            ],
        );
        assert_eq!(r.trials(), 3);
        assert_eq!(r.incomplete(), 1);
        assert_eq!(r.completed(), vec![4.0, 6.0]);
        assert_eq!(r.mean(), 5.0);
        assert_eq!(r.max(), Some(6.0));
        assert_eq!(r.total_messages(), 120);
        assert_eq!(r.mean_messages(), 40.0);
        assert!((r.mean_coverage() - (1.0 + 1.0 + 0.5) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_all_incomplete() {
        let empty = SimulationReport::new(4, Vec::new());
        assert!(empty.mean().is_nan());
        assert!(empty.quantiles().is_none());
        let failed = SimulationReport::new(4, vec![rec(0, None, 1, 0)]);
        assert_eq!(failed.incomplete(), 1);
        assert_eq!(failed.p95(), None);
        assert_eq!(failed.max(), None);
    }
}
