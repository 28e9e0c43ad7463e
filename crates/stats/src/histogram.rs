//! Empirical distributions: 1-D histograms and 2-D occupancy grids.

/// A fixed-range, equal-width 1-D histogram.
///
/// # Examples
///
/// ```
/// use dg_stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// for x in [0.5, 1.5, 2.5, 2.6, 9.9] {
///     h.push(x);
/// }
/// assert_eq!(h.total(), 5);
/// assert_eq!(h.counts()[1], 2); // 2.5 and 2.6 fall in [2, 4)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    out_of_range: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "invalid range");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
            out_of_range: 0,
        }
    }

    /// Records one sample. Samples outside `[lo, hi)` are counted in
    /// [`Self::out_of_range`] and excluded from the bins; `hi` itself is
    /// clamped into the last bin.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() || x < self.lo || x > self.hi {
            self.out_of_range += 1;
            return;
        }
        let bins = self.counts.len();
        let width = (self.hi - self.lo) / bins as f64;
        let idx = (((x - self.lo) / width) as usize).min(bins - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Per-bin raw counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Upper edges of the bins: `lo + width`, `lo + 2·width`, …, `hi`.
    ///
    /// This is the bucket geometry shared with `dg-obs` histograms, which
    /// take explicit upper bounds in the Prometheus style.
    pub fn bucket_edges(&self) -> Vec<f64> {
        let bins = self.counts.len();
        let width = (self.hi - self.lo) / bins as f64;
        (1..=bins)
            .map(|i| {
                if i == bins {
                    self.hi
                } else {
                    self.lo + width * i as f64
                }
            })
            .collect()
    }

    /// Total in-range samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples rejected for being outside the range (or non-finite).
    pub fn out_of_range(&self) -> u64 {
        self.out_of_range
    }

    /// Normalized bin probabilities (empty histogram yields all zeros).
    pub fn probabilities(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Total-variation distance between the normalized bin distributions of
    /// two histograms with the same bin count.
    ///
    /// # Panics
    ///
    /// Panics if the bin counts differ.
    pub fn tv_distance(&self, other: &Histogram) -> f64 {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "histograms must have matching bin counts"
        );
        let p = self.probabilities();
        let q = other.probabilities();
        0.5 * p
            .iter()
            .zip(q.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
    }
}

/// A 2-D occupancy grid over the square `[0, side) × [0, side)`.
///
/// This is the coarse cell partition used to estimate positional stationary
/// distributions of mobility models (random waypoint center bias, positional
/// TV mixing). Cells are `cells × cells` equal squares.
///
/// # Examples
///
/// ```
/// use dg_stats::Grid2d;
///
/// let mut g = Grid2d::new(10.0, 2);
/// g.push(1.0, 1.0); // cell (0, 0)
/// g.push(6.0, 6.0); // cell (1, 1)
/// assert_eq!(g.total(), 2);
/// assert_eq!(g.count(0, 0), 1);
/// assert_eq!(g.count(1, 1), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2d {
    side: f64,
    cells: usize,
    counts: Vec<u64>,
    total: u64,
}

impl Grid2d {
    /// Creates an occupancy grid over `[0, side)²` with `cells × cells`
    /// cells.
    ///
    /// # Panics
    ///
    /// Panics if `cells == 0` or `side` is not a positive finite number.
    pub fn new(side: f64, cells: usize) -> Self {
        assert!(cells > 0, "grid needs at least one cell");
        assert!(side.is_finite() && side > 0.0, "invalid side length");
        Grid2d {
            side,
            cells,
            counts: vec![0; cells * cells],
            total: 0,
        }
    }

    /// Cells per axis.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Records one position; positions are clamped into the square.
    pub fn push(&mut self, x: f64, y: f64) {
        let cx = self.cell_index(x);
        let cy = self.cell_index(y);
        self.counts[cy * self.cells + cx] += 1;
        self.total += 1;
    }

    fn cell_index(&self, v: f64) -> usize {
        let v = v.clamp(0.0, self.side);
        (((v / self.side) * self.cells as f64) as usize).min(self.cells - 1)
    }

    /// Raw count of cell `(cx, cy)` (column, row).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn count(&self, cx: usize, cy: usize) -> u64 {
        assert!(cx < self.cells && cy < self.cells, "cell out of range");
        self.counts[cy * self.cells + cx]
    }

    /// Total recorded positions.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Normalized cell probabilities in row-major order.
    pub fn probabilities(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Probability of cell `(cx, cy)`.
    pub fn probability(&self, cx: usize, cy: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(cx, cy) as f64 / self.total as f64
        }
    }

    /// Total-variation distance between two occupancy grids with identical
    /// geometry.
    ///
    /// # Panics
    ///
    /// Panics if the cell counts differ.
    pub fn tv_distance(&self, other: &Grid2d) -> f64 {
        assert_eq!(self.cells, other.cells, "grids must have matching cells");
        let p = self.probabilities();
        let q = other.probabilities();
        0.5 * p
            .iter()
            .zip(q.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
    }

    /// Total-variation distance to an analytic density `f(x, y)` (integrated
    /// per cell by midpoint rule).
    pub fn tv_distance_to_density(&self, density: impl Fn(f64, f64) -> f64) -> f64 {
        let p = self.probabilities();
        let w = self.side / self.cells as f64;
        let mut q = Vec::with_capacity(self.cells * self.cells);
        for cy in 0..self.cells {
            for cx in 0..self.cells {
                let x = (cx as f64 + 0.5) * w;
                let y = (cy as f64 + 0.5) * w;
                q.push(density(x, y) * w * w);
            }
        }
        // Renormalize the midpoint-rule masses to sum to one.
        let z: f64 = q.iter().sum();
        if z > 0.0 {
            for v in &mut q {
                *v /= z;
            }
        }
        0.5 * p
            .iter()
            .zip(q.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_and_range() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(0.0);
        h.push(0.24);
        h.push(0.25);
        h.push(0.99);
        h.push(1.0); // clamped into last bin
        h.push(-0.1); // out of range
        h.push(f64::NAN); // out of range
        assert_eq!(h.counts(), &[2, 1, 0, 2]);
        assert_eq!(h.total(), 5);
        assert_eq!(h.out_of_range(), 2);
    }

    #[test]
    fn histogram_probabilities_sum_to_one() {
        let mut h = Histogram::new(0.0, 10.0, 7);
        for i in 0..100 {
            h.push(i as f64 / 10.0);
        }
        let sum: f64 = h.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tv_distance_identical_is_zero() {
        let mut a = Histogram::new(0.0, 1.0, 3);
        let mut b = Histogram::new(0.0, 1.0, 3);
        for x in [0.1, 0.5, 0.9] {
            a.push(x);
            b.push(x);
        }
        assert_eq!(a.tv_distance(&b), 0.0);
    }

    #[test]
    fn tv_distance_disjoint_is_one() {
        let mut a = Histogram::new(0.0, 1.0, 2);
        let mut b = Histogram::new(0.0, 1.0, 2);
        a.push(0.1);
        b.push(0.9);
        assert!((a.tv_distance(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn grid2d_indexing() {
        let mut g = Grid2d::new(1.0, 4);
        g.push(0.0, 0.0);
        g.push(0.99, 0.99);
        g.push(0.5, 0.0);
        assert_eq!(g.count(0, 0), 1);
        assert_eq!(g.count(3, 3), 1);
        assert_eq!(g.count(2, 0), 1);
        assert_eq!(g.total(), 3);
    }

    #[test]
    fn grid2d_tv_to_uniform_density() {
        // Fill uniformly on cell midpoints; TV to the uniform density ~ 0.
        let mut g = Grid2d::new(1.0, 4);
        for cy in 0..4 {
            for cx in 0..4 {
                for _ in 0..10 {
                    g.push((cx as f64 + 0.5) / 4.0, (cy as f64 + 0.5) / 4.0);
                }
            }
        }
        let tv = g.tv_distance_to_density(|_, _| 1.0);
        assert!(tv < 1e-12, "tv = {tv}");
    }

    #[test]
    fn grid2d_clamps() {
        let mut g = Grid2d::new(1.0, 2);
        g.push(-5.0, 17.0);
        assert_eq!(g.count(0, 1), 1);
    }
}
