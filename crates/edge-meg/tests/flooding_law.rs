//! Engine ≡ law: flooding times on both edge-MEG models against the
//! exact count chain of the two-state edge-MEG.
//!
//! Byte pins prove that two code paths agree with each other; this
//! suite checks that the models realize the right *law*. By deferred
//! decisions, flooding from one node on a stationary two-state edge-MEG
//! (`p` birth, `q` death, `α = p/(p+q)`) is a two-count Markov chain.
//! Given the history, the pairs a flood has observed are independent:
//!
//! * a pair from a node informed two or more rounds ago to an
//!   uninformed node was seen off last round, so it is on now with
//!   probability `p`;
//! * a pair from a node informed last round has never been seen, so it
//!   is on with probability `α`.
//!
//! So with `old` nodes informed two or more rounds ago and `fresh` nodes
//! informed last round, each uninformed node is informed next round
//! independently with probability `1 − (1−p)^old · (1−α)^fresh`. The
//! oracle samples that chain with an exact Bernoulli-sum binomial
//! (`O(n)` per round, enough at `n ≤ 4096`) and needs no graph.
//!
//! The committed grid covers the sparse regime, `q ≥ np`, slow churn
//! (floods of tens to hundreds of rounds, where `p` and `α` differ most),
//! the served cell `n = 4096, q = 0.01`, where every trial floods in
//! exactly 3 rounds, the two no-draw branches: death rate `q = 1`
//! (every on-edge dies after one round) and birth rate `p = 1` (every
//! off-edge is born the next round, so every flood ends by round 2 and
//! only `P(T = 1) = α^(n−1)` is left to check), and a dense cell with
//! `p < 1` (`n = 16`, `α = 0.9`, so `P(T = 1) = 0.9^15 ≈ 0.21`), where
//! both draw branches run. Each cell compares engine flooding times on the
//! exact-scan model (`SparseTwoStateEdgeMeg`) and on the lane model
//! (`ShardedSparseEdgeMeg`) with the chain by a two-sample
//! Kolmogorov–Smirnov test.
//!
//! **False-alarm level.** Every seed is fixed, so the suite is
//! deterministic. Its level says how often a correct implementation
//! would fail it on a fresh set of seeds: each comparison rejects at the
//! asymptotic level `0.001`, which the KS test only over-states for
//! integer-valued samples (it is conservative on discrete laws), and
//! there are 14 comparisons, so by the union bound the suite's
//! false-alarm probability is at most 1.4%.
//!
//! **Power.** Biasing either model's birth rate by 10% (its geometric
//! birth draws at `1.1·p`) fails the sparse, `q ≥ np` and slow churn
//! cells for that model, with `D` 3.6–7× the critical value. No power is
//! claimed for the dense cell.
//!
//! Debug builds run every cell with an eighth of the samples, so the
//! tier-1 `cargo test` stays quick; CI runs the full suite in release.

use dg_edge_meg::{ShardedSparseEdgeMeg, SparseTwoStateEdgeMeg};
use dynagraph::engine::Simulation;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Sample-size divisor: debug builds run an eighth of the trials.
const SCALE: usize = if cfg!(debug_assertions) { 8 } else { 1 };

/// `c(0.001) = sqrt(−ln(0.0005) / 2)`: the asymptotic two-sample KS
/// critical coefficient at level 0.001.
const KS_C: f64 = 1.9495;

/// Round cap for both the engine and the chain; no committed cell comes
/// near it.
const MAX_ROUNDS: u32 = 20_000;

/// One committed grid cell: `(n, p, q)`, engine trials per model and
/// chain trials.
struct LawCell {
    name: &'static str,
    n: usize,
    p: f64,
    q: f64,
    engine_trials: usize,
    chain_trials: usize,
}

/// The committed grid.
fn grid() -> [LawCell; 7] {
    [
        LawCell {
            name: "sparse",
            n: 1024,
            p: 1.5 / 1024.0,
            q: 0.5,
            engine_trials: 2_000,
            chain_trials: 40_000,
        },
        LawCell {
            name: "q >= np",
            n: 512,
            p: 0.5 / 512.0,
            q: 0.9,
            engine_trials: 2_000,
            chain_trials: 40_000,
        },
        LawCell {
            name: "slow churn",
            n: 256,
            p: 0.1 / 256.0,
            q: 0.05,
            engine_trials: 2_000,
            chain_trials: 40_000,
        },
        LawCell {
            name: "served",
            n: 4096,
            p: 1.5 / 4096.0,
            q: 0.01,
            engine_trials: 24,
            chain_trials: 2_000,
        },
        LawCell {
            name: "death rate one",
            n: 200,
            p: 0.02,
            q: 1.0,
            engine_trials: 2_000,
            chain_trials: 40_000,
        },
        LawCell {
            name: "birth rate one",
            n: 6,
            p: 1.0,
            q: 0.5,
            engine_trials: 2_000,
            chain_trials: 40_000,
        },
        LawCell {
            name: "dense",
            n: 16,
            p: 0.09,
            q: 0.01,
            engine_trials: 2_000,
            chain_trials: 40_000,
        },
    ]
}

/// One chain trial: rounds until all `n` nodes are informed from one
/// source, or `None` at [`MAX_ROUNDS`].
fn chain_time(n: usize, p: f64, q: f64, rng: &mut SmallRng) -> Option<u32> {
    let alpha = p / (p + q);
    let (ln_p, ln_alpha) = ((-p).ln_1p(), (-alpha).ln_1p());
    // `0 · ln(1 − 1)` is NaN, not 0: drop empty cohorts before the sum.
    let ln_miss = |count: usize, ln: f64| if count == 0 { 0.0 } else { count as f64 * ln };
    let (mut old, mut fresh) = (0usize, 1usize);
    let mut t = 0u32;
    while old + fresh < n {
        if t == MAX_ROUNDS {
            return None;
        }
        t += 1;
        let hit = -(ln_miss(old, ln_p) + ln_miss(fresh, ln_alpha)).exp_m1();
        let informed = (0..n - old - fresh)
            .filter(|_| rng.gen::<f64>() < hit)
            .count();
        old += fresh;
        fresh = informed;
    }
    Some(t)
}

fn chain_times(cell: &LawCell, seed: u64) -> Vec<u32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..cell.chain_trials / SCALE)
        .map(|_| chain_time(cell.n, cell.p, cell.q, &mut rng).expect("chain trial censored"))
        .collect()
}

/// Engine flooding times from node 0 on the model `make` builds.
fn engine_times<G, M>(cell: &LawCell, seed: u64, make: M) -> Vec<u32>
where
    G: dynagraph::EvolvingGraph,
    M: Fn(u64) -> G + Sync,
{
    Simulation::builder()
        .model(make)
        .trials(cell.engine_trials / SCALE)
        .max_rounds(MAX_ROUNDS)
        .base_seed(seed)
        .run()
        .times()
        .into_iter()
        .map(|t| t.expect("engine trial censored"))
        .collect()
}

/// The two-sample KS statistic `sup_t |F_a(t) − F_b(t)|` over integer
/// samples.
fn ks_statistic(a: &[u32], b: &[u32]) -> f64 {
    let top = *a.iter().chain(b).max().unwrap() as usize;
    let cdf = |xs: &[u32]| {
        let mut counts = vec![0usize; top + 1];
        for &x in xs {
            counts[x as usize] += 1;
        }
        let mut acc = 0;
        counts
            .into_iter()
            .map(|c| {
                acc += c;
                acc as f64 / xs.len() as f64
            })
            .collect::<Vec<_>>()
    };
    cdf(a)
        .into_iter()
        .zip(cdf(b))
        .map(|(fa, fb)| (fa - fb).abs())
        .fold(0.0, f64::max)
}

fn mean(xs: &[u32]) -> f64 {
    xs.iter().map(|&x| f64::from(x)).sum::<f64>() / xs.len() as f64
}

/// Fails unless `engine` and `chain` pass the level-0.001 KS test.
fn assert_same_law(cell: &LawCell, model: &str, engine: &[u32], chain: &[u32]) {
    let (m, k) = (engine.len() as f64, chain.len() as f64);
    let d = ks_statistic(engine, chain);
    let critical = KS_C * ((m + k) / (m * k)).sqrt();
    assert!(
        d <= critical,
        "{} cell (n = {}, p = {}, q = {}), {model}: KS D = {d:.4} > {critical:.4}; \
         mean T engine {:.3} ({m} trials) vs chain {:.3} ({k} trials)",
        cell.name,
        cell.n,
        cell.p,
        cell.q,
        mean(engine),
        mean(chain),
    );
}

/// Runs one cell: the chain, then both engine models, each compared
/// with the chain. Returns the chain, exact-scan and lane-model times.
fn check_cell(index: u64) -> [Vec<u32>; 3] {
    let cell = &grid()[index as usize];
    let (n, p, q) = (cell.n, cell.p, cell.q);
    let chain = chain_times(cell, 0xC4A1_0000 + index);
    let exact = engine_times(cell, 0x5CA0_0000 + index, move |seed| {
        SparseTwoStateEdgeMeg::stationary(n, p, q, seed).unwrap()
    });
    let lane = engine_times(cell, 0x1A4E_0000 + index, move |seed| {
        ShardedSparseEdgeMeg::stationary(n, p, q, seed).unwrap()
    });
    assert_same_law(cell, "exact scan", &exact, &chain);
    assert_same_law(cell, "lane model", &lane, &chain);
    [chain, exact, lane]
}

#[test]
fn sparse_flooding_time_follows_the_count_chain() {
    check_cell(0);
}

#[test]
fn fast_death_flooding_time_follows_the_count_chain() {
    check_cell(1);
}

#[test]
fn slow_churn_flooding_time_follows_the_count_chain() {
    check_cell(2);
}

#[test]
fn served_cell_floods_in_three_rounds_on_every_trial() {
    // The KS test passes trivially on a one-point law; pin the point.
    for (times, source) in check_cell(3)
        .iter()
        .zip(["chain", "exact scan", "lane model"])
    {
        assert!(times.iter().all(|&t| t == 3), "{source}: {times:?}");
    }
}

#[test]
fn death_rate_one_flooding_time_follows_the_count_chain() {
    check_cell(4);
}

#[test]
fn birth_rate_one_flooding_time_follows_the_count_chain() {
    for (times, source) in check_cell(5)
        .iter()
        .zip(["chain", "exact scan", "lane model"])
    {
        assert!(times.iter().all(|&t| t <= 2), "{source}: {times:?}");
    }
}

#[test]
fn dense_flooding_time_follows_the_count_chain() {
    check_cell(6);
}

#[test]
fn ks_statistic_reads_the_largest_cdf_gap() {
    assert_eq!(ks_statistic(&[1, 2, 3], &[1, 2, 3]), 0.0);
    assert_eq!(ks_statistic(&[1, 1], &[2, 2]), 1.0);
    // F_a(2) = 3/4, F_b(2) = 1/4.
    assert_eq!(ks_statistic(&[1, 2, 2, 3], &[2, 3, 3, 3]), 0.5);
}
