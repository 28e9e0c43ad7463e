//! T2 — Appendix A: the two-state edge-MEG against both bounds.
//!
//! Series 1 sweeps `n` at `p = c/n` (sparse) and fixed `q`: measured
//! flooding vs the CMMPS'10 bound `O(log n / log(1+np))` and the paper's
//! general bound `O((1/(p+q))((p+q)/(np)+1)² log² n)`. The paper claims
//! the general bound is almost tight whenever `q >= np` — the ratio
//! column stays polylogarithmic there.
//!
//! Series 2 sweeps `q` at fixed `n, p`, crossing the `q = np` boundary.

use dg_edge_meg::ShardedSparseEdgeMeg;
use dg_stats::log_log_fit;
use dynagraph::theory;

use crate::common::{measure, scaled};
use crate::table::{fmt, fmt_opt, Table};

pub fn run(quick: bool) {
    let trials = scaled(20, quick);
    let c = 0.5;
    let q = 0.9;

    println!("series 1: n sweep, p = {c}/n, q = {q} (q >= np = {c}: general bound almost tight)");
    let ns: &[usize] = if quick {
        &[64, 128, 256]
    } else {
        &[64, 128, 256, 512, 1024]
    };
    let mut table = Table::new(vec![
        "n",
        "p",
        "mean F",
        "p95 F",
        "cmmps",
        "general",
        "F/cmmps",
        "F/general",
    ]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &n in ns {
        let p = c / n as f64;
        let m = measure(
            |seed| ShardedSparseEdgeMeg::stationary(n, p, q, seed).unwrap(),
            trials,
            500_000,
            0,
            0x72,
        );
        let cmmps = theory::edge_meg_cmmps_bound(n, p);
        let general = theory::edge_meg_general_bound(n, p, q);
        table.row(vec![
            n.to_string(),
            format!("{p:.5}"),
            fmt(m.mean),
            fmt_opt(m.p95),
            fmt(cmmps),
            fmt(general),
            fmt(m.mean / cmmps),
            fmt(m.mean / general),
        ]);
        xs.push(n as f64);
        ys.push(m.mean);
    }
    table.print();
    if let Some(fit) = log_log_fit(&xs, &ys) {
        println!(
            "log-log slope of F vs n: {:.3} (r2={:.3}) — flooding grows ~log n (slope << 1)",
            fit.slope, fit.r2
        );
    }

    let n = 256;
    let p = 0.5 / n as f64;
    let np = n as f64 * p;
    println!("\nseries 2: q sweep at n = {n}, p = 0.5/n (q crosses np = {np})");
    let mut t2 = Table::new(vec![
        "q",
        "q/np",
        "mean F",
        "general",
        "F/general",
        "regime",
    ]);
    for &q in &[0.05, 0.1, 0.25, 0.5, 0.9] {
        let m = measure(
            |seed| ShardedSparseEdgeMeg::stationary(n, p, q, seed).unwrap(),
            trials,
            500_000,
            0,
            0x73,
        );
        let general = theory::edge_meg_general_bound(n, p, q);
        let ratio = m.mean / general;
        t2.row(vec![
            format!("{q}"),
            fmt(q / np),
            fmt(m.mean),
            fmt(general),
            fmt(ratio),
            (if q >= np { "q>=np (tight)" } else { "q<np" }).to_string(),
        ]);
    }
    t2.print();
    println!("shape check: F/general stays within a polylog factor once q >= np; for tiny q the general bound is loose (as the paper notes, CMMPS is tight there)");
}
