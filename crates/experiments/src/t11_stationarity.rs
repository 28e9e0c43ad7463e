//! T11 — §3: probing the `(M, α, β)`-stationarity conditions.
//!
//! For three model families we estimate α (min pair probability at epoch
//! boundaries) and β (worst pairwise-incidence ratio), plug the estimates
//! into Theorem 1 — with the epoch `M` set to the model's mixing scale —
//! and compare against measured flooding. An epoch-length ablation shows
//! the bound's linear-in-`M` degradation while the measured flooding time
//! is unchanged (the process does not know about our epochs).

use dg_edge_meg::ShardedSparseEdgeMeg;
use dg_mobility::{GeometricMeg, RandomWaypoint};
use dynagraph::stationarity::{estimate_alpha_beta, AlphaBetaConfig};
use dynagraph::theory;

use crate::common::{measure, scaled};
use crate::table::{fmt, Table};

pub fn run(quick: bool) {
    let trials = scaled(16, quick);
    let obs = scaled(600, quick);

    let mut table = Table::new(vec![
        "model",
        "M",
        "alpha_min",
        "beta_max",
        "Thm1 bound",
        "mean F",
        "F/bound",
    ]);

    // Model 1: two-state edge-MEG; true alpha = p/(p+q), beta = 1.
    let n1 = 64;
    let (p, q) = (0.02f64, 0.1f64);
    let meg_m = (1.0 / (p + q)).ceil() as usize;
    let cfg = AlphaBetaConfig {
        epoch: meg_m,
        warm_up: 4 * meg_m,
        observations: obs,
        runs: 4,
        pair_samples: 12,
        set_samples: 12,
        set_size: 4,
        base_seed: 0x92,
    };
    let est = estimate_alpha_beta(
        |seed| ShardedSparseEdgeMeg::stationary(n1, p, q, seed).unwrap(),
        n1,
        &cfg,
    );
    let bound = theory::theorem1_bound(
        meg_m as f64,
        est.alpha_min.max(1e-9),
        est.beta_max.max(1.0),
        n1,
    );
    let meas = measure(
        |seed| ShardedSparseEdgeMeg::stationary(n1, p, q, seed).unwrap(),
        trials,
        200_000,
        0,
        0x93,
    );
    println!(
        "edge-MEG(n={n1}, p={p}, q={q}): true alpha = {:.4}, true beta = 1; estimated alpha_min = {:.4}, beta_max = {:.3}",
        p / (p + q),
        est.alpha_min,
        est.beta_max
    );
    table.row(vec![
        "edge-MEG".to_string(),
        meg_m.to_string(),
        fmt(est.alpha_min),
        fmt(est.beta_max),
        fmt(bound),
        fmt(meas.mean),
        fmt(meas.mean / bound),
    ]);

    // Model 2: random waypoint, epoch = mixing scale L/v.
    let n2 = 48;
    let side = 12.0;
    let r = 2.0;
    let wp_m = side as usize; // L / v with v = 1
    let cfg2 = AlphaBetaConfig {
        epoch: wp_m,
        warm_up: 8 * wp_m,
        observations: obs / 2,
        runs: 4,
        pair_samples: 12,
        set_samples: 12,
        set_size: 4,
        base_seed: 0x94,
    };
    let est2 = estimate_alpha_beta(
        |seed| {
            GeometricMeg::new(RandomWaypoint::new(side, 1.0, 1.0).unwrap(), n2, r, seed).unwrap()
        },
        n2,
        &cfg2,
    );
    let bound2 = theory::theorem1_bound(
        wp_m as f64,
        est2.alpha_min.max(1e-9),
        est2.beta_max.max(1.0),
        n2,
    );
    let meas2 = measure(
        |seed| {
            GeometricMeg::new(RandomWaypoint::new(side, 1.0, 1.0).unwrap(), n2, r, seed).unwrap()
        },
        trials,
        200_000,
        8 * wp_m,
        0x95,
    );
    table.row(vec![
        "waypoint".to_string(),
        wp_m.to_string(),
        fmt(est2.alpha_min),
        fmt(est2.beta_max),
        fmt(bound2),
        fmt(meas2.mean),
        fmt(meas2.mean / bound2),
    ]);
    table.print();

    // Epoch ablation: Theorem 1's bound grows linearly in M while the
    // process (and measured F) is M-independent.
    println!(
        "\nepoch ablation on the edge-MEG (measured F is M-independent; the bound is linear in M):"
    );
    let mut t2 = Table::new(vec!["M", "Thm1 bound", "measured F"]);
    for mult in [1usize, 2, 4] {
        let m_len = meg_m * mult;
        let b = theory::theorem1_bound(
            m_len as f64,
            est.alpha_min.max(1e-9),
            est.beta_max.max(1.0),
            n1,
        );
        t2.row(vec![m_len.to_string(), fmt(b), fmt(meas.mean)]);
    }
    t2.print();
    println!("shape check: beta_max ~ 1 for independent edges; waypoint beta modestly above 1; measured F below both bounds");
}
