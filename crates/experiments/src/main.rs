//! Experiment harness for the PODC 2012 reproduction.
//!
//! Each subcommand prints one table or series of the reproduction:
//!
//! ```text
//! dg-experiments t1            # run experiment T1
//! dg-experiments t2 t7         # run a subset
//! dg-experiments all           # run everything
//! dg-experiments all --quick   # reduced sizes (CI-friendly)
//! ```

mod common;
mod t01_phases;
mod t02_edge_meg;
mod t03_hidden_edge;
mod t04_node_meg;
mod t05_wp_density;
mod t06_wp_mixing;
mod t07_wp_flooding;
mod t08_walk_grid;
mod t09_rand_paths;
mod t10_k_augmented;
mod t11_stationarity;
mod t12_gossip;
mod t13_extensions;
mod t19_tradeoff;
mod table;

/// One registered experiment: id, description, entry point taking the
/// `--quick` flag.
type Experiment = (&'static str, &'static str, fn(bool));

const EXPERIMENTS: &[Experiment] = &[
    (
        "t1",
        "Lemmas 13-14: spreading/saturation phase structure",
        t01_phases::run,
    ),
    (
        "t2",
        "Appendix A: two-state edge-MEG vs CMMPS'10 and general bounds",
        t02_edge_meg::run,
    ),
    (
        "t3",
        "Appendix A: generalized (hidden-chain) edge-MEG",
        t03_hidden_edge::run,
    ),
    (
        "t4",
        "Fact 2 + Theorem 3: exact node-MEG analysis vs measurement",
        t04_node_meg::run,
    ),
    (
        "t5",
        "S4.1: waypoint positional density, center bias, (delta,lambda)",
        t05_wp_density::run,
    ),
    (
        "t6",
        "S4.1: waypoint positional mixing ~ L/v",
        t06_wp_mixing::run,
    ),
    (
        "t7",
        "S4.1 headline: sparse waypoint flooding ~ sqrt(n)/v",
        t07_wp_flooding::run,
    ),
    (
        "t8",
        "S4.1: random walk on grid, flooding vs n and r",
        t08_walk_grid::run,
    ),
    (
        "t9",
        "Corollary 5: random L-paths on grids, flooding ~ D polylog",
        t09_rand_paths::run,
    ),
    (
        "t10",
        "Corollary 6: k-augmented grids, flooding ~ 1/k^2",
        t10_k_augmented::run,
    ),
    (
        "t11",
        "S3 conditions: empirical (M,alpha,beta) and Theorem 1",
        t11_stationarity::run,
    ),
    (
        "t12",
        "S5: randomized push protocols as thinned flooding",
        t12_gossip::run,
    ),
    (
        "t13",
        "extensions: barbell mixing, jamming, disk waypoint, interval connectivity",
        t13_extensions::run,
    ),
    (
        "t19",
        "time-vs-messages trade-off on the edge-MEG density grid (multi-metric sweep)",
        t19_tradeoff::run,
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    if selected.is_empty() {
        eprintln!("usage: dg-experiments <t1..t19|all> [--quick]");
        eprintln!("\navailable experiments:");
        for (id, desc, _) in EXPERIMENTS {
            eprintln!("  {id:<4} {desc}");
        }
        std::process::exit(2);
    }
    let run_all = selected.contains(&"all");
    let mut matched = false;
    for (id, desc, f) in EXPERIMENTS {
        if run_all || selected.contains(id) {
            matched = true;
            println!("\n=== {} — {desc} ===", id.to_uppercase());
            let start = std::time::Instant::now();
            f(quick);
            println!("[{} done in {:.1?}]", id, start.elapsed());
        }
    }
    if !matched {
        eprintln!("no experiment matched {selected:?}; use t1..t19 or all");
        std::process::exit(2);
    }
}
