//! End-to-end tests over real TCP sockets: the in-process daemon
//! behind `http::serve`, and the `dg-serve` binary itself — including
//! a SIGKILL mid-sweep followed by a restart that must converge to the
//! byte-identical artifact.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dg_serve::{http, ArtifactStore, Daemon, Workload};
use dg_sweep::{Axis, SweepSpec, TrialBudget};

fn tmp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dg_serve_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Polls `GET /sweep/<fp>` until the served artifact reports
/// `"complete": true`, returning its bytes.
fn poll_complete(addr: SocketAddr, fingerprint: u64, deadline: Duration) -> Vec<u8> {
    let start = Instant::now();
    loop {
        if let Ok((200, body)) = http::request(addr, "GET", &format!("/sweep/{fingerprint}"), b"") {
            if String::from_utf8_lossy(&body).contains("\"complete\": true") {
                return body;
            }
        }
        assert!(
            start.elapsed() < deadline,
            "sweep {fingerprint} not complete after {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn tcp_cache_miss_runs_sweep_and_serves_byte_identical_artifact() {
    let root = tmp_root("tcp");
    let store = ArtifactStore::open(&root).unwrap();
    let daemon = Arc::new(Daemon::start(store, Workload::synthetic(), 2).unwrap());
    let handler = Arc::clone(&daemon);
    let server = http::serve("127.0.0.1:0", move |req| handler.handle(req)).unwrap();
    let addr = server.addr();

    let spec = SweepSpec::new(
        vec![Axis::ints("x", [1, 2, 3]), Axis::explicit("y", [0.5, 1.5])],
        0xE2E,
        TrialBudget::fixed(4),
    );
    let fp = spec.fingerprint();

    // Unknown fingerprint: 404 before anything is posted.
    let (status, _) = http::request(addr, "GET", &format!("/sweep/{fp}"), b"").unwrap();
    assert_eq!(status, 404);

    // Cache miss: accepted for background execution.
    let (status, body) = http::request(addr, "POST", "/sweep", spec.to_json().as_bytes()).unwrap();
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    assert!(String::from_utf8_lossy(&body).contains(&fp.to_string()));

    // The served artifact equals a direct Sweep run, byte for byte.
    let served = poll_complete(addr, fp, Duration::from_secs(60));
    let direct = spec.sweep().run(Workload::synthetic().trial_fn()).unwrap();
    assert_eq!(served, direct.to_json().into_bytes());

    // Re-posting is now a cache hit with the same bytes.
    let (status, body) = http::request(addr, "POST", "/sweep", spec.to_json().as_bytes()).unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, served);

    // CSV view and cell queries over the same socket.
    let (status, csv) =
        http::request(addr, "GET", &format!("/sweep/{fp}?format=csv"), b"").unwrap();
    assert_eq!(status, 200);
    assert_eq!(csv, direct.to_csv().into_bytes());
    let (status, cell) =
        http::request(addr, "GET", &format!("/sweep/{fp}/cell?x=2&y=0.6"), b"").unwrap();
    assert_eq!(status, 200);
    let cell = String::from_utf8(cell).unwrap();
    assert!(cell.contains("\"exact\": false"), "{cell}");
    assert!(
        cell.contains("\"x\": 2") && cell.contains("\"y\": 0.5"),
        "{cell}"
    );

    // The index lists it as a complete artifact.
    let (status, listing) = http::request(addr, "GET", "/sweeps", b"").unwrap();
    assert_eq!(status, 200);
    let listing = String::from_utf8(listing).unwrap();
    assert!(
        listing.contains(&format!("\"fingerprint\": {fp}, \"complete\": true")),
        "{listing}"
    );

    server.shutdown();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Kills the child on drop so a failing test never leaks a daemon.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns the real `dg-serve` binary over `root` with the given extra
/// arguments and waits for its address file.
fn spawn_daemon_with(root: &Path, args: &[&str]) -> (KillOnDrop, SocketAddr) {
    let addr_file = root.join("dg-serve.addr");
    let _ = std::fs::remove_file(&addr_file);
    let child = Command::new(env!("CARGO_BIN_EXE_dg-serve"))
        .args(["--root", root.to_str().unwrap()])
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dg-serve");
    let child = KillOnDrop(child);
    let start = Instant::now();
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            if let Ok(addr) = text.trim().parse::<SocketAddr>() {
                break addr;
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "dg-serve never wrote its address file"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    (child, addr)
}

/// Spawns a `synthetic` daemon over `root`.
fn spawn_daemon(root: &Path) -> (KillOnDrop, SocketAddr) {
    spawn_daemon_with(root, &["--workload", "synthetic"])
}

/// `GET /healthz`'s body.
fn healthz(addr: SocketAddr) -> String {
    let (status, body) = http::request(addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);
    String::from_utf8(body).unwrap()
}

#[test]
fn healthz_reports_flooding_2_by_default() {
    let root = tmp_root("healthz_default");
    std::fs::create_dir_all(&root).unwrap();
    let (child, addr) = spawn_daemon_with(&root, &[]);
    let body = healthz(addr);
    assert!(body.contains("\"workload\": \"flooding/2\""), "{body}");
    drop(child);
    let (child, addr) = spawn_daemon_with(&root, &["--workload", "flooding/1"]);
    let body = healthz(addr);
    assert!(body.contains("\"workload\": \"flooding/1\""), "{body}");
    drop(child);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn v2_daemon_over_a_v1_root_answers_with_v2_bytes() {
    let root = tmp_root("v2_over_v1");
    std::fs::create_dir_all(&root).unwrap();
    // A slow-churn cell, so the two versions' realizations differ.
    let spec = SweepSpec::new(
        vec![
            Axis::ints("n", [48]),
            Axis::explicit("q", [0.05]),
            Axis::explicit("p", [0.002]),
        ],
        0x51DE,
        TrialBudget::fixed(4),
    );
    let fp = spec.fingerprint();
    let v1_report = spec
        .sweep()
        .run(Workload::flooding_v1().trial_fn())
        .unwrap();
    let v1 = v1_report.to_json().into_bytes();
    let v2 = spec
        .sweep()
        .run(Workload::flooding().trial_fn())
        .unwrap()
        .to_json()
        .into_bytes();
    assert_ne!(v1, v2, "the cell must tell the versions apart");

    // The root as a daemon from before flooding/2 left it: a flooding/1
    // artifact at root/store/<fp>.json.
    ArtifactStore::open(&root).unwrap().put(&v1_report).unwrap();
    let v1_file = root.join("store").join(format!("{fp}.json"));
    assert_eq!(std::fs::read(&v1_file).unwrap(), v1);

    // flooding/1 over that root still serves the stored bytes as a hit.
    {
        let (_child, addr) = spawn_daemon_with(&root, &["--workload", "flooding/1"]);
        let (status, body) =
            http::request(addr, "POST", "/sweep", spec.to_json().as_bytes()).unwrap();
        assert_eq!((status, body), (200, v1.clone()));
    }

    // The default workload never sees it: the spec is a miss, and what
    // it serves is the flooding/2 realization.
    let (child, addr) = spawn_daemon_with(&root, &["--workload", "flooding"]);
    let (status, _) = http::request(addr, "GET", &format!("/sweep/{fp}"), b"").unwrap();
    assert_eq!(
        status, 404,
        "a flooding/2 daemon listed a flooding/1 artifact"
    );
    let (status, body) = http::request(addr, "POST", "/sweep", spec.to_json().as_bytes()).unwrap();
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    let served = poll_complete(addr, fp, Duration::from_secs(120));
    assert_eq!(served, v2);
    drop(child);
    // Each version's artifact sits in its own store.
    assert_eq!(std::fs::read(&v1_file).unwrap(), v1);
    let v2_file = Workload::flooding()
        .store_root(&root)
        .join("store")
        .join(format!("{fp}.json"));
    assert_eq!(std::fs::read(&v2_file).unwrap(), v2);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sigkill_mid_sweep_then_restart_converges_to_identical_bytes() {
    let root = tmp_root("sigkill");
    std::fs::create_dir_all(&root).unwrap();

    // A grid big enough that checkpoints land while the sweep is still
    // running, giving the kill something to interrupt.
    let spec = SweepSpec::new(
        vec![Axis::ints("x", 1..=300)],
        0xDEAD,
        TrialBudget::fixed(40),
    );
    let fp = spec.fingerprint();
    let artifact = Workload::synthetic()
        .store_root(&root)
        .join("store")
        .join(format!("{fp}.json"));

    {
        let (child, addr) = spawn_daemon(&root);
        let (status, _) = http::request(addr, "POST", "/sweep", spec.to_json().as_bytes()).unwrap();
        assert_eq!(status, 202);
        // SIGKILL as soon as the first checkpoint reaches the store.
        // (If the sweep finished before we fired, the test still proves
        // restart convergence — just without interrupting anything.)
        let start = Instant::now();
        while !artifact.exists() && start.elapsed() < Duration::from_secs(60) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(artifact.exists(), "no checkpoint ever appeared");
        drop(child); // SIGKILL — no graceful shutdown path runs.
    }

    // Restart over the same root: the store scan finds the incomplete
    // artifact and the daemon resumes it without being asked.
    let (child, addr) = spawn_daemon(&root);
    let served = poll_complete(addr, fp, Duration::from_secs(120));
    let direct = spec.sweep().run(Workload::synthetic().trial_fn()).unwrap();
    assert_eq!(
        served,
        direct.to_json().into_bytes(),
        "resumed artifact differs from an uninterrupted run"
    );
    drop(child);
    let _ = std::fs::remove_dir_all(&root);
}
