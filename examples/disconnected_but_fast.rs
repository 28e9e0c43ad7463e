//! The paper's central contrast, on data: a dynamic network that is
//! disconnected in essentially *every* round — failing even the weakest
//! stability assumption (1-interval connectivity) of the worst-case
//! dynamic-network literature [21] — still floods in a handful of rounds,
//! because what matters is the density/independence/mixing triple of
//! Theorem 1, not per-round connectivity.
//!
//! Run with:
//! ```text
//! cargo run --release --example disconnected_but_fast
//! ```

use dynspread::dg_edge_meg::ShardedSparseEdgeMeg;
use dynspread::dynagraph::engine::{ParsimoniousFlooding, Simulation};
use dynspread::dynagraph::{interval, theory, RecordedEvolution};

fn main() {
    let n = 500;
    let p = 1.5 / n as f64;
    let q = 0.9; // short-lived links: average degree ~ 1.7, every snapshot shattered
    let mut g = ShardedSparseEdgeMeg::stationary(n, p, q, 7).expect("valid parameters");

    // Record one realization so connectivity diagnostics and flooding run
    // on the *same* edge history.
    let rec = RecordedEvolution::record(&mut g, 80);

    println!("sparse stationary edge-MEG: n = {n}, p = 1.5/n, q = {q}");
    println!(
        "alpha = {:.5} (average degree ~ {:.1})",
        p / (p + q),
        (n - 1) as f64 * p / (p + q)
    );
    println!(
        "connected snapshots: {:.0}% of 80 rounds",
        100.0 * interval::connected_snapshot_fraction(&rec)
    );
    println!(
        "largest T with T-interval connectivity: {}",
        interval::max_interval_connectivity(&rec)
    );

    let run = rec.flood_from(0);
    println!(
        "\nflooding time on that very realization: {:?} rounds",
        run.flooding_time()
    );
    println!(
        "Theorem 1 budget (alpha, beta=1, M=Tmix={:.0}): {:.0} rounds",
        1.0 / (p + q),
        theory::theorem1_bound(1.0 / (p + q), p / (p + q), 1.0, n),
    );

    // Bonus: the parsimonious protocol of [4] — nodes relay only for a
    // TTL window after learning the message. In this extremely sparse
    // regime a short TTL lets the message die out; a modest one suffices.
    // Only the protocol axis of the builder changes per row.
    println!("\nparsimonious flooding [4] (nodes relay for ttl rounds only):");
    for ttl in [2u32, 4, 8, 16] {
        let report = Simulation::builder()
            .model(|seed| ShardedSparseEdgeMeg::stationary(n, p, q, seed).expect("valid"))
            .protocol(ParsimoniousFlooding::new(ttl))
            .trials(1)
            .max_rounds(100_000)
            .base_seed(8)
            .run();
        let rec = &report.records()[0];
        match rec.time {
            Some(t) => println!("  ttl = {ttl:>2}: completed in {t} rounds"),
            None => println!(
                "  ttl = {ttl:>2}: message died out after {} rounds ({} of {n} informed)",
                rec.rounds, rec.informed
            ),
        }
    }
}
