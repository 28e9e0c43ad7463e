//! t17 — served misses per flooding workload: what a never-seen query
//! costs end to end through the daemon.
//!
//! Each op `POST`s a never-seen 1-cell, 1-trial spec, waits for the
//! job and `GET`s the artifact, on a one-worker daemon of `flooding/1`
//! (exact scan) and one of `flooding/2` (lane model), ops alternating
//! between the two. Three cells at `n = 4096`: the served cell
//! (`q = 0.01`, `p = 1.5/n`) and two dense ones, `p = q = 0.01`
//! (`α = 1/2`) and `p = 0.09`, `q = 0.01` (`α = 0.9`). Before any
//! timing, each daemon's served bytes at every cell are asserted equal
//! to a direct one-thread sweep of its workload. The store and HTTP
//! layers on their own are timed by `perfbench`'s traced run
//! (`store.put_s`, `store.get_raw_s`, `http.get_artifact_s`,
//! `http.get_cell_s`).
//!
//! Writes `BENCH_serve.json` at the repository root (quick mode,
//! `DG_BENCH_QUICK=1`: `target/BENCH_serve_quick.json`).

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dg_bench::{fixed, obj, Raw};
use dg_serve::{http, ArtifactStore, Daemon, Workload};
use dynagraph::sweep::{Axis, SweepSpec, TrialBudget};

/// One served-miss cell at `n = 4096`: a label, `p` (`None`: the
/// default `1.5/n`), `q`, and ops in full and quick mode.
struct MissCell {
    label: &'static str,
    p: Option<f64>,
    q: f64,
    ops: [usize; 2],
}

const MISS_N: usize = 4096;

const MISS_CELLS: [MissCell; 3] = [
    MissCell {
        label: "served",
        p: None,
        q: 0.01,
        ops: [41, 3],
    },
    MissCell {
        label: "dense, alpha 0.5",
        p: Some(0.01),
        q: 0.01,
        ops: [5, 1],
    },
    MissCell {
        label: "dense, alpha 0.9",
        p: Some(0.09),
        q: 0.01,
        ops: [3, 1],
    },
];

impl MissCell {
    fn spec(&self, base_seed: u64) -> SweepSpec {
        let mut axes = vec![Axis::ints("n", [MISS_N]), Axis::explicit("q", [self.q])];
        axes.extend(self.p.map(|p| Axis::explicit("p", [p])));
        SweepSpec::new(axes, base_seed, TrialBudget::fixed(1))
    }

    fn p_json(&self) -> String {
        self.p.map_or("\"1.5/n\"".to_string(), |p| p.to_string())
    }
}

/// A one-worker daemon over its own store, behind `http::serve`.
struct Served {
    workload: Workload,
    /// The model the workload runs every cell at `n = 4096` on.
    model: &'static str,
    daemon: Arc<Daemon>,
    server: http::ServerHandle,
    addr: SocketAddr,
}

impl Served {
    fn start(root: &Path, (workload, model): (Workload, &'static str)) -> Served {
        let store = ArtifactStore::open(workload.store_root(root)).expect("bench store");
        let daemon = Arc::new(Daemon::start(store, workload.clone(), 1).unwrap());
        let handler = Arc::clone(&daemon);
        let server = http::serve("127.0.0.1:0", move |req| handler.handle(req)).unwrap();
        let addr = server.addr();
        Served {
            workload,
            model,
            daemon,
            server,
            addr,
        }
    }

    /// One served miss: POST a never-seen spec of `cell`, wait for its
    /// job, GET the artifact.
    fn miss(&self, cell: &MissCell, base_seed: u64) -> (SweepSpec, Vec<u8>) {
        let spec = cell.spec(base_seed);
        let (status, _) =
            http::request(self.addr, "POST", "/sweep", spec.to_json().as_bytes()).unwrap();
        assert_eq!(
            status,
            202,
            "{}: a never-seen spec must miss",
            self.workload.name()
        );
        assert!(self.daemon.wait_idle(Duration::from_secs(120)));
        let fp = spec.fingerprint();
        let (status, body) = http::request(self.addr, "GET", &format!("/sweep/{fp}"), b"").unwrap();
        assert_eq!(status, 200);
        (spec, body)
    }

    fn stop(self) {
        self.server.shutdown();
        self.daemon.shutdown();
    }
}

/// Median and minimum of `ms`.
fn median_min(mut ms: Vec<f64>) -> (f64, f64) {
    ms.sort_by(f64::total_cmp);
    (ms[ms.len() / 2], ms[0])
}

fn main() {
    let quick = dg_bench::quick_mode();
    let root = std::env::temp_dir().join(format!("dg_serve_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Both flooding workloads, ops alternating.
    let served = [
        (Workload::flooding_v1(), "exact scan"),
        (Workload::flooding(), "lane model, one shard"),
    ]
    .map(|w| Served::start(&root, w));
    for (c, cell) in MISS_CELLS.iter().enumerate() {
        for (i, s) in served.iter().enumerate() {
            let (spec, body) = s.miss(cell, 0x5E4E_0000 + (2 * c + i) as u64);
            let direct = spec
                .sweep()
                .threads(1)
                .run(s.workload.trial_fn())
                .expect("no checkpoint, cannot fail");
            assert_eq!(
                body,
                direct.to_json().into_bytes(),
                "{} at the {} cell: served bytes differ from a direct sweep",
                s.workload.name(),
                cell.label
            );
        }
    }
    // (cell, workload, model, ops, median ms, min ms)
    let mut rows: Vec<(&MissCell, &str, &str, usize, f64, f64)> = Vec::new();
    for (c, cell) in MISS_CELLS.iter().enumerate() {
        let ops = cell.ops[usize::from(quick)];
        let mut ms = [Vec::new(), Vec::new()];
        for op in 0..ops {
            for (i, s) in served.iter().enumerate() {
                let t0 = Instant::now();
                s.miss(
                    cell,
                    dynagraph::mix_seed(0x5E4E + c as u64, (2 * op + i) as u64),
                );
                ms[i].push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        for (s, ms) in served.iter().zip(ms) {
            let (median, min) = median_min(ms);
            println!(
                "served miss {} {:<17} {:<22} median {median:>7.1} ms   min {min:>7.1} ms   {:.2} ops/s",
                s.workload.name(),
                cell.label,
                s.model,
                1e3 / median
            );
            rows.push((cell, s.workload.name(), s.model, ops, median, min));
        }
    }
    for s in served {
        s.stop();
    }
    let _ = std::fs::remove_dir_all(&root);
    let speedups: Vec<f64> = rows.chunks(2).map(|r| r[0].4 / r[1].4).collect();
    for (cell, speedup) in MISS_CELLS.iter().zip(&speedups) {
        println!(
            "flooding/2 over flooding/1, {}: {speedup:.2}x per served miss",
            cell.label
        );
    }

    dg_bench::Record::new(
        env!("CARGO_CRATE_NAME"),
        "serve",
        &format!("served misses per flooding workload: POST a never-seen 1-cell, 1-trial spec at n = {MISS_N}, wait for the job, GET the artifact, on an in-process one-worker daemon over loopback TCP; ops alternate between a flooding/1 daemon (exact-scan model) and a flooding/2 daemon (lane model, one shard). Cells: the served cell (p = 1.5/n, q = 0.01), p = q = 0.01 (alpha 1/2) and p = 0.09, q = 0.01 (alpha 0.9). Each daemon's served bytes at every cell are asserted equal to a direct one-thread sweep of its workload before timing. median_ms and min_ms are per op (POST + wait + GET), ops_per_s = 1000 / median_ms."),
    )
    .rows("workloads", rows.iter().map(|(cell, name, model, ops, median, min)| obj! {
        "cell": cell.label, "workload": name, "model": model, "n": MISS_N, "p": Raw(cell.p_json()),
        "q": cell.q, "ops": ops, "median_ms": fixed(*median, 1), "min_ms": fixed(*min, 1),
        "ops_per_s": fixed(1e3 / median, 2),
    }))
    .object("headline", obj! {
        "served_bytes_equal_direct_sweep": true, "v2_over_v1_speedup": fixed(speedups[0], 2),
        "v2_over_v1_speedup_alpha_0_5": fixed(speedups[1], 2),
        "v2_over_v1_speedup_alpha_0_9": fixed(speedups[2], 2),
    })
    .write();
}
