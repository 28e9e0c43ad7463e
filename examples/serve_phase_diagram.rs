//! Serve a phase diagram: the full `dg-serve` flow — store, daemon,
//! HTTP — driven in-process against the paper's flooding workload.
//!
//! The same grid as the `sweep_phase_diagram` example (flooding time vs
//! churn `q` on a stationary edge-MEG with `p = 1.5/n`), but instead of
//! running the sweep directly, this example:
//!
//! 1. opens a content-addressed [`dg_serve::ArtifactStore`] and starts
//!    a [`dg_serve::Daemon`] on an ephemeral port;
//! 2. `POST`s the grid spec — a cache miss, so the daemon `202`s and
//!    runs the sweep in the background, checkpointing into the store;
//! 3. polls `GET /sweep/<fp>` until the artifact is complete;
//! 4. asks phase-diagram questions with `GET /sweep/<fp>/cell?...`
//!    (exact and nearest-cell), and re-`POST`s the spec to show the
//!    cache hit;
//! 5. verifies the served bytes equal a direct `Sweep` run — the
//!    byte-identity pin, end to end over a real TCP socket.
//!
//! Run with:
//! ```text
//! cargo run --release --example serve_phase_diagram
//! ```
//!
//! State lands in `serve_phase_diagram_data/flooding-2/`, the
//! `flooding/2` store under that root (`Workload::store_root`); rerunning
//! is a cache hit (step 2 serves `200` immediately), and killing a run
//! mid-sweep leaves a checkpoint the next run resumes. Artifacts an
//! older build left in `serve_phase_diagram_data/store/` are
//! `flooding/1` realizations and are never served here.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dg_serve::{http, ArtifactStore, Daemon, Workload};
use dynspread::dynagraph::sweep::{Axis, SweepSpec, TrialBudget};

fn main() {
    let n = 128.0;
    let spec = SweepSpec::new(
        vec![Axis::ints("n", [n as usize]), Axis::log("q", 0.02, 0.64, 4)],
        0x9A5E,
        TrialBudget::adaptive(3, 12, dynspread::dynagraph::sweep::CiTarget::Relative(0.1)),
    );
    let fp = spec.fingerprint();

    let workload = Workload::flooding();
    let store =
        ArtifactStore::open(workload.store_root("serve_phase_diagram_data")).expect("store io");
    let daemon = Arc::new(Daemon::start(store, workload, 1).expect("daemon start"));
    let handler = Arc::clone(&daemon);
    let server = http::serve("127.0.0.1:0", move |req| handler.handle(req)).expect("bind");
    let addr = server.addr();
    println!("daemon on http://{addr}, sweep fingerprint {fp}\n");

    // POST the spec: 200 = cache hit from a previous run, 202 = queued.
    let (status, _) = http::request(addr, "POST", "/sweep", spec.to_json().as_bytes()).unwrap();
    println!(
        "POST /sweep -> {status} ({})",
        if status == 200 { "cache hit" } else { "queued" }
    );

    // Poll until complete (the artifact is served partial while the
    // sweep runs — watch `decided_cells` climb on a slower grid).
    let start = Instant::now();
    let body = loop {
        let (status, body) = http::request(addr, "GET", &format!("/sweep/{fp}"), b"").unwrap();
        if status == 200 && String::from_utf8_lossy(&body).contains("\"complete\": true") {
            break body;
        }
        assert!(start.elapsed() < Duration::from_secs(600), "sweep stalled");
        std::thread::sleep(Duration::from_millis(50));
    };
    println!("GET /sweep/{fp} -> complete, {} bytes\n", body.len());

    // Phase-diagram queries: an on-grid point and an off-grid one.
    for q in [0.02, 0.1] {
        let (status, cell) =
            http::request(addr, "GET", &format!("/sweep/{fp}/cell?n={n}&q={q}"), b"").unwrap();
        assert_eq!(status, 200);
        println!("cell query q = {q}:\n{}", String::from_utf8_lossy(&cell));
    }

    // The pin: served bytes == a direct run of the same spec.
    let direct = spec
        .sweep()
        .run(Workload::flooding().trial_fn())
        .expect("no checkpoint, cannot fail");
    assert_eq!(
        body,
        direct.to_json().into_bytes(),
        "served artifact differs from a direct sweep run"
    );
    println!("served bytes == direct Sweep run: byte-identity holds over the wire");

    server.shutdown();
    daemon.shutdown();
}
