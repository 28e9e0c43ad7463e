//! The `dg-serve` binary: a phase-diagram daemon over a store
//! directory.
//!
//! ```text
//! dg-serve [--root DIR] [--addr HOST:PORT] [--workers N]
//!          [--workload flooding|flooding/2|flooding/1|synthetic]
//!          [--max-queue N] [--max-attempts N]
//! ```
//!
//! `--workload` defaults to `flooding`, which means `flooding/2` (the
//! flooding workload on the lane model, at every cell). `flooding/1` is
//! the exact-scan reproducer of artifacts stored before `flooding/2`
//! existed. The store lives under the root as [`Workload::store_root`]
//! says: `flooding/1` keeps its artifacts in `DIR/store/`, `flooding/2`
//! in `DIR/flooding-2/store/` and `synthetic` in
//! `DIR/synthetic/store/`, so a root that older flooding daemons filled
//! keeps serving its `flooding/1` bytes under `--workload flooding/1`
//! and is never served by another workload.
//!
//! Binds the address (default `127.0.0.1:0`, an ephemeral port), prints
//! the bound address on stdout, and also writes it to
//! `<root>/dg-serve.addr` so scripts and tests can find a daemon that
//! picked its own port. On restart over the same root, incomplete
//! sweeps resume from their checkpoints.
//!
//! `SIGTERM`/`SIGINT` drain gracefully: the accept loop stops, the
//! worker pool finishes the sweeps it is on (checkpointing into the
//! store either way), the addr file is removed, and the process exits
//! `0`. A `SIGKILL` skips all of that — and the store's crash-safe
//! resume makes that fine too, which is exactly what the chaos suite
//! pins.
//!
//! Stderr verbosity is controlled by `DG_LOG` (`error` — the default —
//! `info`, or `debug`; `debug` logs every request line). Telemetry is
//! always on: scrape `GET /metrics`, or read `GET /status`.

use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dg_obs::{dg_error, dg_info};
use dg_serve::{http, ArtifactStore, Daemon, DaemonConfig, Workload};

/// Set by the signal handler; polled by the main thread's drain loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Only async-signal-safe work here: one atomic store.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Registers [`on_signal`] for `SIGINT` (2) and `SIGTERM` (15) via the
/// libc `signal` symbol — this image has no `libc` crate, so the two
/// constants and the prototype are spelled out. Registration failure
/// (`SIG_ERR`) is reported but not fatal: the daemon still serves, it
/// just dies unclean, which the store survives by design.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIG_ERR: usize = usize::MAX;
    for signum in [2i32, 15] {
        // SAFETY: `signal` is the C standard library's registration
        // call; the handler only performs an atomic store, which is
        // async-signal-safe.
        let prev = unsafe { signal(signum, on_signal) };
        if prev == SIG_ERR {
            dg_error!("dg-serve: installing handler for signal {signum} failed");
        }
    }
}

struct Args {
    root: String,
    addr: String,
    workload: Workload,
    config: DaemonConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: "dg-serve-data".to_string(),
        addr: "127.0.0.1:0".to_string(),
        workload: Workload::flooding(),
        config: DaemonConfig {
            workers: 1,
            ..DaemonConfig::default()
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--root" => args.root = value("--root")?,
            "--addr" => args.addr = value("--addr")?,
            "--workers" => {
                args.config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--max-queue" => {
                args.config.max_queue = value("--max-queue")?
                    .parse()
                    .map_err(|e| format!("--max-queue: {e}"))?;
            }
            "--max-attempts" => {
                args.config.max_job_attempts = value("--max-attempts")?
                    .parse()
                    .map_err(|e| format!("--max-attempts: {e}"))?;
            }
            "--workload" => {
                args.workload = match value("--workload")?.as_str() {
                    "flooding" | "flooding/2" => Workload::flooding(),
                    "flooding/1" => Workload::flooding_v1(),
                    "synthetic" => Workload::synthetic(),
                    other => return Err(format!("unknown workload {other:?}")),
                };
            }
            "--help" | "-h" => {
                println!(
                    "dg-serve [--root DIR] [--addr HOST:PORT] [--workers N] [--workload flooding|flooding/2|flooding/1|synthetic] [--max-queue N] [--max-attempts N]\n\n\
                     --workload flooding means flooding/2 (lane model at every cell; store in DIR/flooding-2/);\n\
                     flooding/1 is the exact-scan reproducer (store in DIR/);\n\
                     synthetic is a model-free test workload (store in DIR/synthetic/)"
                );
                exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            dg_error!("dg-serve: {msg}");
            exit(2);
        }
    };
    let store_root = args.workload.store_root(&args.root);
    let store = match ArtifactStore::open(&store_root) {
        Ok(store) => store,
        Err(e) => {
            dg_error!("dg-serve: opening store {}: {e}", store_root.display());
            exit(1);
        }
    };
    let resumed = store.incomplete_specs().map(|s| s.len()).unwrap_or(0);
    let daemon_workload = args.workload.name();
    let daemon = match Daemon::start_with(store, args.workload, args.config) {
        Ok(daemon) => Arc::new(daemon),
        Err(e) => {
            dg_error!("dg-serve: starting daemon: {e}");
            exit(1);
        }
    };
    let handler = Arc::clone(&daemon);
    let server = match http::serve(&args.addr as &str, move |req| handler.handle(req)) {
        Ok(server) => server,
        Err(e) => {
            dg_error!("dg-serve: binding {}: {e}", args.addr);
            exit(1);
        }
    };
    let addr = server.addr();
    // The port file lets clients of `--addr 127.0.0.1:0` find us.
    let addr_file = std::path::Path::new(&args.root).join("dg-serve.addr");
    if let Err(e) = std::fs::write(&addr_file, format!("{addr}\n")) {
        dg_error!("dg-serve: writing {}: {e}", addr_file.display());
        exit(1);
    }
    install_signal_handlers();
    println!(
        "dg-serve listening on http://{addr} (workload {}, store {}, {resumed} sweep(s) resumed)",
        daemon_workload,
        store_root.display()
    );
    // Serve until signalled. The park timeout bounds shutdown latency;
    // unparks are spurious-safe because the loop just re-checks the flag.
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::park_timeout(Duration::from_millis(100));
    }
    dg_info!("dg-serve: signal received, draining");
    // Stop accepting, finish in-flight sweeps, tidy the addr file. Any
    // queued-but-unstarted work stays resumable on disk or is simply
    // re-POSTed; either way the next start over this root picks it up.
    server.shutdown();
    daemon.shutdown();
    let _ = std::fs::remove_file(&addr_file);
    println!("dg-serve: drained, exiting");
}
