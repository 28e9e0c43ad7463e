//! Engine micro-benchmarks: snapshot construction, builder-driven
//! flooding, parallel-vs-serial trial execution, and the cell-list vs
//! naive pair-scan ablation.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dg_bench::{Harness, SeedTape};
use dg_mobility::{CellList, Point};
use dynagraph::engine::Simulation;
use dynagraph::{EvolvingGraph, Snapshot, StaticEvolvingGraph};

fn main() {
    let h = Harness::from_args();
    let tape = SeedTape::new();

    for &m in &[1_000usize, 10_000, 100_000] {
        let n = 2 * (m as f64).sqrt() as usize + 10;
        let mut rng = SmallRng::seed_from_u64(1);
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| {
                let u = rng.gen_range(0..n as u32);
                let mut v = rng.gen_range(0..n as u32);
                while v == u {
                    v = rng.gen_range(0..n as u32);
                }
                (u.min(v), u.max(v))
            })
            .collect();
        let mut snap = Snapshot::empty(n);
        h.bench(&format!("engine/snapshot_rebuild/{m}"), || {
            snap.rebuild_from_edges(&edges);
            snap.edge_count()
        });
    }

    for &side in &[16usize, 32, 64] {
        let graph = dg_graph::generators::grid(side, side);
        h.bench(&format!("engine/flood_static_grid/{}", side * side), || {
            Simulation::builder()
                .model(|_| StaticEvolvingGraph::new(graph.clone()))
                .trials(1)
                .max_rounds(100_000)
                .run()
                .mean()
        });
    }

    // Parallel-vs-serial engine on a trial batch large enough to matter.
    let n = 192;
    let p = 1.5 / n as f64;
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    for (label, threads) in [("serial", 1), ("parallel", cores)] {
        h.bench(&format!("engine/trial_batch_16/{label}"), || {
            Simulation::builder()
                .model(move |seed| {
                    dg_edge_meg::SparseTwoStateEdgeMeg::stationary(n, p, 0.4, seed).unwrap()
                })
                .trials(16)
                .max_rounds(500_000)
                .base_seed(tape.next_seed())
                .threads(threads)
                .run()
                .mean()
        });
    }

    for &n in &[256usize, 1024, 4096] {
        let side = (n as f64).sqrt();
        let r = 1.0;
        let mut rng = SmallRng::seed_from_u64(tape.next_seed());
        let points: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side))
            .collect();
        let mut cells = CellList::new(side, r);
        h.bench(&format!("engine/pairs_within_radius/cell_list/{n}"), || {
            cells.rebuild(&points);
            let mut count = 0u32;
            cells.for_each_pair_within(&points, r, |_, _| count += 1);
            count
        });
        h.bench(&format!("engine/pairs_within_radius/naive/{n}"), || {
            let mut count = 0u32;
            for i in 0..n {
                for j in (i + 1)..n {
                    if points[i].distance_sq(points[j]) <= r * r {
                        count += 1;
                    }
                }
            }
            count
        });
    }

    for &n in &[256usize, 1024] {
        let p = 2.0 / n as f64;
        let mut dense =
            dg_edge_meg::TwoStateEdgeMeg::stationary(n, p, 0.3, tape.next_seed()).unwrap();
        h.bench(&format!("engine/edge_meg_step/dense/{n}"), || {
            dense.step().edge_count()
        });
        let mut sparse =
            dg_edge_meg::SparseTwoStateEdgeMeg::stationary(n, p, 0.3, tape.next_seed()).unwrap();
        h.bench(
            &format!("engine/edge_meg_step/sparse_event_driven/{n}"),
            || sparse.step().edge_count(),
        );
    }
}
