//! The query daemon: HTTP routes over an [`ArtifactStore`] plus a
//! background worker pool that runs cache-miss sweeps.
//!
//! The lifecycle of a request for a sweep nobody has run yet:
//!
//! 1. `POST /sweep` parses the body as a [`SweepSpec`], validates it
//!    against the daemon's [`Workload`], and fingerprints it;
//! 2. a store hit serves the artifact immediately (`200`); a miss
//!    enqueues the spec (`202`) — at most once per fingerprint;
//! 3. a worker runs the sweep *checkpointing directly into the store*
//!    at [`ArtifactStore::path_for`], so every intermediate state is a
//!    valid incomplete artifact at the right address;
//! 4. `GET /sweep/<fp>` serves whatever is stored — partial while the
//!    sweep runs (`"complete": false`), final bytes once decided.
//!
//! Crash safety falls out of step 3: a killed daemon leaves an
//! incomplete artifact where its restart's store scan finds it, and
//! [`Daemon::start`] re-enqueues every incomplete artifact's spec
//! ([`SweepSpec::of_report`]). Since resumed sweeps are byte-identical
//! to uninterrupted ones (the `dg-sweep` invariant), a client polling
//! across the crash cannot tell it happened — same fingerprint, same
//! final bytes.
//!
//! # Fault tolerance
//!
//! A job that panics (the `daemon.worker.crash` chaos site, a trial
//! panic escaping the sweep's own [`TrialPanic`] retry, a poisoned
//! lock in library code) does not kill its worker: the worker catches
//! the unwind, counts `dg_serve_worker_restarts_total`, and *requeues*
//! the job — bounded by [`DaemonConfig::max_job_attempts`], after
//! which the fingerprint lands in a `failed` map that `GET /status`,
//! `GET /sweeps`, and `GET /sweep/<fp>` (as a `500`) surface.
//! Re-`POST`ing a failed spec clears the failure and tries again from
//! whatever checkpoint survived. A checkpoint that stopped *parsing*
//! (mid-run disk corruption) is quarantined via
//! [`ArtifactStore::quarantine_fingerprint`] before the requeue, so
//! the re-run starts clean instead of tripping forever. The job queue
//! itself is bounded ([`DaemonConfig::max_queue`]): past the cap,
//! `POST /sweep` answers `503` + `Retry-After` instead of accepting
//! unbounded work. All daemon locks recover from poisoning — queue
//! state is re-derivable from disk, so a panicking holder must not
//! wedge every later request.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dg_obs::{dg_debug, dg_error, dg_info, Registry};
use dg_sweep::{SweepError, SweepReport, SweepSpec, TrialPanic};

use crate::http::{push_json_string, Request, Response};
use crate::store::{ArtifactMeta, ArtifactStore, StoreError};
use crate::workload::Workload;

/// What [`Daemon::submit`] decided about a spec.
#[derive(Debug)]
pub enum Submission {
    /// The artifact is stored and complete — a cache hit.
    Complete(ArtifactMeta),
    /// The sweep is queued or running; poll `GET /sweep/<fp>`.
    Pending(u64),
    /// The workload refused the spec (the message is the `400` body).
    Rejected(String),
    /// The job queue is at [`DaemonConfig::max_queue`] — the `503` +
    /// `Retry-After` backpressure answer.
    Busy,
}

/// Tuning for [`Daemon::start_with`]: pool size and the fault-handling
/// bounds.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Background sweep threads (at least 1).
    pub workers: usize,
    /// Jobs accepted but not yet claimed before `POST /sweep` sheds
    /// with `503`. `0` refuses all new work — useful for drain tests.
    pub max_queue: usize,
    /// Times one job may start (first run + requeues after a crash)
    /// before its fingerprint is marked failed.
    pub max_job_attempts: u32,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 2,
            max_queue: 64,
            max_job_attempts: 3,
        }
    }
}

struct QueueState {
    jobs: VecDeque<SweepSpec>,
    /// Fingerprints queued or running — the dedup set.
    pending: HashSet<u64>,
    /// Starts per fingerprint, for the requeue bound.
    attempts: HashMap<u64, u32>,
    /// Fingerprints whose job exhausted its attempts, with the last
    /// error — cleared by resubmission.
    failed: BTreeMap<u64, String>,
    shutdown: bool,
}

struct Shared {
    store: ArtifactStore,
    workload: Workload,
    config: DaemonConfig,
    queue: Mutex<QueueState>,
    /// Signals workers that a job arrived (or shutdown began).
    wake: Condvar,
    /// Signals waiters that a job finished.
    done: Condvar,
}

impl Shared {
    /// The queue lock, recovering from poisoning: everything in
    /// [`QueueState`] is re-derivable (pending/attempts from the store
    /// scan, jobs by resubmission), so a panicking holder must not turn
    /// every later request into a panic of its own.
    fn qlock(&self) -> MutexGuard<'_, QueueState> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// The daemon: a store, a workload, and the worker pool between them.
///
/// All request handling goes through [`Daemon::handle`], which is
/// `&self` and thread-safe — hand it to [`crate::http::serve`] behind
/// an `Arc`.
#[derive(Debug)]
pub struct Daemon {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("workload", &self.workload)
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// Starts `workers` background sweep threads over `store`, and
    /// re-enqueues every incomplete stored artifact (the crash-resume
    /// scan). Incomplete artifacts the workload no longer validates are
    /// left in place, untouched.
    ///
    /// Every artifact in `store` is served as `workload`'s, so the store
    /// must hold that workload's artifacts only: open it at
    /// [`Workload::store_root`] of the daemon root (a fresh directory is
    /// always safe).
    ///
    /// Starting a daemon switches [`dg_obs`] metric recording on for the
    /// whole process — serving telemetry (`GET /metrics`) is part of the
    /// daemon's contract, and recording never perturbs sweep results.
    pub fn start(
        store: ArtifactStore,
        workload: Workload,
        workers: usize,
    ) -> Result<Daemon, StoreError> {
        Daemon::start_with(
            store,
            workload,
            DaemonConfig {
                workers,
                ..DaemonConfig::default()
            },
        )
    }

    /// [`Daemon::start`] with explicit queue and fault bounds. The
    /// crash-resume scan ignores `max_queue`: work already accepted
    /// (and checkpointed) before a restart is never shed.
    pub fn start_with(
        store: ArtifactStore,
        workload: Workload,
        config: DaemonConfig,
    ) -> Result<Daemon, StoreError> {
        dg_obs::set_enabled(true);
        let resume: Vec<SweepSpec> = store
            .incomplete_specs()?
            .into_iter()
            .filter(|spec| workload.validate(spec).is_ok())
            .collect();
        let pending = resume.iter().map(SweepSpec::fingerprint).collect();
        let worker_count = config.workers.max(1);
        let shared = Arc::new(Shared {
            store,
            workload,
            config,
            queue: Mutex::new(QueueState {
                jobs: resume.into(),
                pending,
                attempts: HashMap::new(),
                failed: BTreeMap::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Daemon {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// The daemon's store.
    pub fn store(&self) -> &ArtifactStore {
        &self.shared.store
    }

    /// Fingerprints currently queued or running, in no particular
    /// order.
    pub fn pending(&self) -> Vec<u64> {
        let queue = self.shared.qlock();
        queue.pending.iter().copied().collect()
    }

    /// Fingerprints whose job exhausted its attempts, with the last
    /// error, ordered by fingerprint.
    pub fn failed(&self) -> Vec<(u64, String)> {
        let queue = self.shared.qlock();
        queue
            .failed
            .iter()
            .map(|(fp, msg)| (*fp, msg.clone()))
            .collect()
    }

    /// Routes a spec: cache hit, freshly queued, deduplicated against
    /// an in-flight run, shed by the queue bound, or rejected by the
    /// workload. Submitting a spec whose fingerprint previously failed
    /// clears the failure and starts over with fresh attempts.
    pub fn submit(&self, spec: SweepSpec) -> Result<Submission, StoreError> {
        let fingerprint = spec.fingerprint();
        if let Some(meta) = self.shared.store.meta(fingerprint) {
            if meta.complete {
                return Ok(Submission::Complete(meta));
            }
        }
        if let Err(msg) = self.shared.workload.validate(&spec) {
            return Ok(Submission::Rejected(msg));
        }
        let mut queue = self.shared.qlock();
        if queue.pending.contains(&fingerprint) {
            return Ok(Submission::Pending(fingerprint));
        }
        if queue.jobs.len() >= self.shared.config.max_queue {
            return Ok(Submission::Busy);
        }
        queue.failed.remove(&fingerprint);
        queue.attempts.remove(&fingerprint);
        queue.pending.insert(fingerprint);
        queue.jobs.push_back(spec);
        self.shared.wake.notify_one();
        Ok(Submission::Pending(fingerprint))
    }

    /// Blocks until no job is queued or running, or the timeout lapses;
    /// returns whether the daemon went idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut queue = self.shared.qlock();
        while !queue.pending.is_empty() {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, wait) = self
                .shared
                .done
                .wait_timeout(queue, left)
                .unwrap_or_else(|p| p.into_inner());
            queue = guard;
            if wait.timed_out() && !queue.pending.is_empty() {
                return false;
            }
        }
        true
    }

    /// Stops the worker pool and joins it. Workers finish the sweep
    /// they are on (it checkpoints into the store either way); queued
    /// jobs stay on disk as incomplete artifacts only if they already
    /// started — unstarted jobs are simply dropped, and a restart or
    /// re-submission schedules them again.
    pub fn shutdown(&self) {
        {
            let mut queue = self.shared.qlock();
            queue.shutdown = true;
        }
        self.shared.wake.notify_all();
        let workers: Vec<_> = self
            .workers
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .drain(..)
            .collect();
        for worker in workers {
            let _ = worker.join();
        }
    }

    /// Serves one request: routes it, then records the outcome —
    /// `dg_http_requests_total{path,status}`,
    /// `dg_http_request_seconds{path}`, and a `DG_LOG=debug` request
    /// line. See the crate docs for the route table.
    pub fn handle(&self, req: &Request) -> Response {
        let t0 = Instant::now();
        let (endpoint, response) = self.route(req);
        let seconds = t0.elapsed().as_secs_f64();
        record_http(endpoint, response.status, seconds);
        dg_debug!(
            "dg-serve: {} {} -> {} in {:.1}ms",
            req.method,
            req.path,
            response.status,
            seconds * 1e3
        );
        response
    }

    /// Routes one request: the response, and the route template it
    /// resolved to — the bounded label set of the per-endpoint metrics
    /// (raw paths would make label cardinality unbounded).
    fn route(&self, req: &Request) -> (&'static str, Response) {
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        let (endpoint, result) = match (req.method.as_str(), segments.as_slice()) {
            ("GET", []) => ("GET /", Ok(self.health())),
            ("GET", ["healthz"]) => ("GET /healthz", Ok(self.health())),
            ("GET", ["status"]) => ("GET /status", Ok(self.status())),
            ("GET", ["metrics"]) => ("GET /metrics", Ok(self.metrics())),
            ("GET", ["sweeps"]) => ("GET /sweeps", Ok(self.list())),
            ("GET", ["sweep", fp]) => ("GET /sweep/:fp", self.artifact(fp, req)),
            ("GET", ["sweep", fp, "cell"]) => ("GET /sweep/:fp/cell", self.cell(fp, req)),
            ("POST", ["sweep"]) => ("POST /sweep", self.post_sweep(req)),
            (_, [] | ["healthz"] | ["status"] | ["metrics"] | ["sweeps"] | ["sweep", ..]) => (
                "other",
                Ok(Response::error(405, "method not allowed on this path")),
            ),
            _ => ("other", Ok(Response::error(404, "no such path"))),
        };
        let response = result.unwrap_or_else(|e: StoreError| Response::error(500, &e.to_string()));
        (endpoint, response)
    }

    fn health(&self) -> Response {
        let mut body = String::from("{\"ok\": true, \"workload\": ");
        push_json_string(&mut body, self.shared.workload.name());
        body.push_str(&format!(
            ", \"artifacts\": {}, \"pending\": {}}}\n",
            self.shared.store.list().len(),
            self.pending().len()
        ));
        Response::json(200, body)
    }

    /// Queue depth (jobs not yet claimed), in-flight count (claimed,
    /// still running), and failed count, from one lock acquisition.
    fn queue_depths(&self) -> (usize, usize, usize) {
        let queue = self.shared.qlock();
        let queued = queue.jobs.len();
        (
            queued,
            queue.pending.len().saturating_sub(queued),
            queue.failed.len(),
        )
    }

    /// `GET /metrics`: the process-wide registry in Prometheus text
    /// exposition format. Store and queue gauges are refreshed at
    /// scrape time; everything else (request, engine, and sweep
    /// counters) accumulates as the daemon works.
    fn metrics(&self) -> Response {
        let reg = Registry::global();
        let (queued, in_flight, failed) = self.queue_depths();
        reg.gauge("dg_serve_artifacts")
            .set(self.shared.store.list().len() as i64);
        reg.gauge("dg_serve_queue_depth").set(queued as i64);
        reg.gauge("dg_serve_inflight_sweeps").set(in_flight as i64);
        reg.gauge("dg_serve_failed_sweeps").set(failed as i64);
        Response::text("text/plain; version=0.0.4", reg.render_prometheus())
    }

    /// `GET /status`: the operator's JSON view — workload, store size,
    /// queue depth, in-flight sweeps, total sweep trials, and
    /// per-endpoint request counts with mean latency.
    fn status(&self) -> Response {
        let reg = Registry::global();
        let (queued, in_flight, _) = self.queue_depths();
        let failed = self.failed();
        let mut body = String::from("{\n  \"ok\": true,\n  \"workload\": ");
        push_json_string(&mut body, self.shared.workload.name());
        body.push_str(&format!(
            ",\n  \"artifacts\": {},\n  \"queue_depth\": {queued},\n  \"in_flight\": {in_flight},\n  \"sweep_trials\": {},\n  \"worker_restarts\": {},\n  \"failed\": [",
            self.shared.store.list().len(),
            reg.counter_value("dg_sweep_trials_total").unwrap_or(0),
            reg.counter_value("dg_serve_worker_restarts_total").unwrap_or(0),
        ));
        for (i, (fp, msg)) in failed.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!("\n    {{\"fingerprint\": {fp}, \"error\": "));
            push_json_string(&mut body, msg);
            body.push('}');
        }
        body.push_str(if failed.is_empty() {
            "],\n  \"requests\": ["
        } else {
            "\n  ],\n  \"requests\": ["
        });
        let mut first = true;
        for name in reg.names() {
            let Some(path) = name
                .strip_prefix("dg_http_request_seconds{path=\"")
                .and_then(|rest| rest.strip_suffix("\"}"))
            else {
                continue;
            };
            let Some(snap) = reg.histogram_snapshot(&name) else {
                continue;
            };
            body.push_str(if first { "\n    {" } else { ",\n    {" });
            first = false;
            body.push_str("\"endpoint\": ");
            push_json_string(&mut body, path);
            body.push_str(&format!(
                ", \"count\": {}, \"mean_seconds\": {}}}",
                snap.count,
                num(snap.mean()),
            ));
        }
        body.push_str(if first { "]\n}\n" } else { "\n  ]\n}\n" });
        Response::json(200, body)
    }

    fn list(&self) -> Response {
        let mut pending = self.pending();
        pending.sort_unstable();
        let mut body = String::from("{\n  \"artifacts\": [\n");
        let artifacts = self.shared.store.list();
        for (i, meta) in artifacts.iter().enumerate() {
            body.push_str("    ");
            push_meta(&mut body, meta);
            body.push_str(if i + 1 < artifacts.len() { ",\n" } else { "\n" });
        }
        body.push_str("  ],\n  \"pending\": [");
        for (i, fp) in pending.iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            body.push_str(&fp.to_string());
        }
        body.push_str("],\n  \"failed\": [");
        for (i, (fp, _)) in self.failed().iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            body.push_str(&fp.to_string());
        }
        body.push_str("]\n}\n");
        Response::json(200, body)
    }

    fn artifact(&self, fp: &str, req: &Request) -> Result<Response, StoreError> {
        let Some(fingerprint) = parse_fingerprint(fp) else {
            return Ok(Response::error(400, "fingerprint must be a decimal u64"));
        };
        let Some(bytes) = self.shared.store.get_raw(fingerprint)? else {
            return Ok(self.miss(fingerprint));
        };
        if wants_csv(req) {
            let text = String::from_utf8_lossy(&bytes);
            let report = SweepReport::from_json(&text)?;
            return Ok(Response::csv(report.to_csv()));
        }
        Ok(Response::json(200, bytes))
    }

    /// A fingerprint with no stored bytes: `202` while its sweep is
    /// in flight (a job can be queued before its first checkpoint
    /// lands), `500` naming the error if its job failed for good,
    /// `404` otherwise.
    fn miss(&self, fingerprint: u64) -> Response {
        let queue = self.shared.qlock();
        if queue.pending.contains(&fingerprint) {
            pending_response(fingerprint)
        } else if let Some(msg) = queue.failed.get(&fingerprint) {
            Response::error(500, &format!("sweep failed: {msg} (re-POST to retry)"))
        } else {
            Response::error(404, "no artifact at this fingerprint")
        }
    }

    fn cell(&self, fp: &str, req: &Request) -> Result<Response, StoreError> {
        let Some(fingerprint) = parse_fingerprint(fp) else {
            return Ok(Response::error(400, "fingerprint must be a decimal u64"));
        };
        let Some(report) = self.shared.store.get(fingerprint)? else {
            return Ok(self.miss(fingerprint));
        };
        // `metric` selects which metric's statistics to serve; every
        // other query pair is an axis coordinate.
        let mut metric = 0usize;
        let mut metric_name: Option<&str> = None;
        let mut query: Vec<(&str, f64)> = Vec::with_capacity(req.query.len());
        for (name, value) in &req.query {
            if name == "metric" {
                let Some(m) = report.metric_index(value) else {
                    let declared: Vec<&str> = report
                        .metrics()
                        .map(|ms| ms.iter().map(|m| m.name()).collect())
                        .unwrap_or_default();
                    return Ok(Response::error(
                        400,
                        &format!("no metric {value:?} in this artifact (declared: {declared:?})"),
                    ));
                };
                metric = m;
                metric_name = Some(value);
                continue;
            }
            let Ok(v) = value.parse::<f64>() else {
                return Ok(Response::error(
                    400,
                    &format!("query value {value:?} for axis {name:?} is not a number"),
                ));
            };
            query.push((name.as_str(), v));
        }
        let nearest = match report.nearest_cell(&query) {
            Ok(n) => n,
            Err(SweepError::Query(msg)) => return Ok(Response::error(400, &msg)),
            Err(e) => return Err(e.into()),
        };
        let mut body = format!(
            "{{\n  \"fingerprint\": {fingerprint},\n  \"exact\": {},\n  \"distance\": {},\n  \"cell\": {{\n    \"id\": {},\n    \"coords\": {{",
            nearest.exact,
            num(Some(nearest.distance)),
            nearest.cell.id,
        );
        for (i, axis) in report.axes().iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            push_json_string(&mut body, axis.name());
            body.push_str(&format!(": {}", num(Some(nearest.cell.values[i]))));
        }
        body.push_str("},\n");
        if let Some(name) = metric_name {
            body.push_str("    \"metric\": ");
            push_json_string(&mut body, name);
            body.push_str(",\n");
        }
        let ci = nearest.cell.ci_of(metric);
        body.push_str(&format!(
            "    \"decided\": {},\n    \"trials\": {},\n    \"incomplete\": {},\n    \"mean\": {},\n    \"p95\": {},\n    \"max\": {},\n    \"ci_lo\": {},\n    \"ci_hi\": {}\n  }}\n}}\n",
            nearest.cell.decided,
            nearest.cell.trials(),
            nearest.cell.incomplete_of(metric),
            num(nearest.cell.mean_of(metric)),
            num(nearest.cell.p95_of(metric)),
            num(nearest.cell.max_of(metric)),
            num(ci.as_ref().map(|ci| ci.lo)),
            num(ci.as_ref().map(|ci| ci.hi)),
        ));
        Ok(Response::json(200, body))
    }

    fn post_sweep(&self, req: &Request) -> Result<Response, StoreError> {
        let Ok(body) = std::str::from_utf8(&req.body) else {
            return Ok(Response::error(400, "body must be UTF-8 JSON"));
        };
        let spec = match SweepSpec::from_json(body) {
            Ok(spec) => spec,
            Err(e) => return Ok(Response::error(400, &e.to_string())),
        };
        match self.submit(spec)? {
            Submission::Complete(meta) => {
                let bytes = self
                    .shared
                    .store
                    .get_raw(meta.fingerprint)?
                    .unwrap_or_default();
                Ok(Response::json(200, bytes))
            }
            // Answer 202 directly rather than re-checking the pending
            // set — a fast sweep could already have finished, and the
            // submission outcome, not the later state, is the answer.
            Submission::Pending(fingerprint) => Ok(pending_response(fingerprint)),
            Submission::Rejected(msg) => Ok(Response::error(400, &msg)),
            Submission::Busy => Ok(Response::unavailable("sweep queue full; retry shortly")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Records one served request on the global registry:
/// `dg_http_requests_total{path,status}` and
/// `dg_http_request_seconds{path}`.
fn record_http(endpoint: &str, status: u16, seconds: f64) {
    let reg = Registry::global();
    reg.counter(&dg_obs::label2(
        "dg_http_requests_total",
        "path",
        endpoint,
        "status",
        &status.to_string(),
    ))
    .inc();
    reg.histogram(
        &dg_obs::label("dg_http_request_seconds", "path", endpoint),
        &dg_obs::exponential_bounds(1e-4, 10.0, 6),
    )
    .observe(seconds);
}

fn worker_loop(shared: &Shared) {
    loop {
        let spec = {
            let mut queue = shared.qlock();
            loop {
                if queue.shutdown {
                    return;
                }
                if let Some(spec) = queue.jobs.pop_front() {
                    break spec;
                }
                queue = shared.wake.wait(queue).unwrap_or_else(|p| p.into_inner());
            }
        };
        let fingerprint = spec.fingerprint();
        dg_debug!("dg-serve: sweep {fingerprint} started");
        let t0 = Instant::now();
        // AssertUnwindSafe: the job's only shared state is the store
        // (atomic on-disk writes, poison-recovering index) and the
        // sweep's own checkpoint file — a caught panic leaves nothing a
        // requeued re-run cannot reconcile from disk.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            dg_fault::fail_point("daemon.worker.crash");
            let sweep = spec
                .sweep()
                .on_trial_panic(TrialPanic::Retry { max: 2 })
                .checkpoint(shared.store.path_for(fingerprint));
            match spec.metrics() {
                Some(metrics) => {
                    sweep.run_metrics(shared.workload.metric_trial_fn(metrics.to_vec()))
                }
                None => sweep.run(shared.workload.trial_fn()),
            }
        }));
        match outcome {
            Ok(Ok(_)) => {
                dg_info!(
                    "dg-serve: sweep {fingerprint} finished in {:.1}s",
                    t0.elapsed().as_secs_f64()
                );
                if let Err(e) = shared.store.refresh(fingerprint) {
                    dg_error!("dg-serve: indexing sweep {fingerprint} failed: {e}");
                }
                let mut queue = shared.qlock();
                queue.attempts.remove(&fingerprint);
                queue.pending.remove(&fingerprint);
                shared.done.notify_all();
            }
            Ok(Err(e)) => {
                // A checkpoint that stopped parsing is mid-run disk
                // corruption: quarantine it so the retry starts from a
                // clean slate instead of re-reading the same garbage.
                if matches!(&e, SweepError::Parse(_) | SweepError::Mismatch(_)) {
                    match shared.store.quarantine_fingerprint(fingerprint) {
                        Ok(true) => {
                            dg_error!("dg-serve: quarantined corrupt checkpoint {fingerprint}")
                        }
                        Ok(false) => {}
                        Err(qe) => dg_error!("dg-serve: quarantining {fingerprint} failed: {qe}"),
                    }
                } else if let Err(re) = shared.store.refresh(fingerprint) {
                    dg_error!("dg-serve: indexing sweep {fingerprint} failed: {re}");
                }
                requeue_or_fail(shared, spec, fingerprint, e.to_string());
            }
            Err(payload) => {
                // Index whatever checkpoint survived the crash; the
                // requeued run resumes from it.
                if let Err(re) = shared.store.refresh(fingerprint) {
                    dg_error!("dg-serve: indexing sweep {fingerprint} failed: {re}");
                }
                requeue_or_fail(shared, spec, fingerprint, panic_message(payload.as_ref()));
            }
        }
    }
}

/// After a failed job start: requeue under the attempt bound (counted
/// as `dg_serve_worker_restarts_total`), or mark the fingerprint
/// failed and release its waiters.
fn requeue_or_fail(shared: &Shared, spec: SweepSpec, fingerprint: u64, msg: String) {
    let mut queue = shared.qlock();
    let attempts = *queue
        .attempts
        .entry(fingerprint)
        .and_modify(|a| *a += 1)
        .or_insert(1);
    if attempts < shared.config.max_job_attempts {
        dg_error!(
            "dg-serve: sweep {fingerprint} attempt {attempts}/{} failed ({msg}); requeueing",
            shared.config.max_job_attempts
        );
        Registry::global()
            .counter("dg_serve_worker_restarts_total")
            .inc();
        queue.jobs.push_back(spec);
        shared.wake.notify_one();
    } else {
        dg_error!("dg-serve: sweep {fingerprint} failed for good after {attempts} attempts: {msg}");
        queue.attempts.remove(&fingerprint);
        queue.pending.remove(&fingerprint);
        queue.failed.insert(fingerprint, msg);
        shared.done.notify_all();
    }
}

/// Renders a caught panic payload for the failed map / logs.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".to_string()
    }
}

fn parse_fingerprint(s: &str) -> Option<u64> {
    s.parse().ok()
}

fn pending_response(fingerprint: u64) -> Response {
    Response::json(
        202,
        format!(
            "{{\"status\": \"pending\", \"fingerprint\": {fingerprint}, \"url\": \"/sweep/{fingerprint}\"}}\n"
        ),
    )
}

/// `text/csv` via `?format=csv` or an `Accept` preferring CSV.
fn wants_csv(req: &Request) -> bool {
    match req.query_param("format") {
        Some("csv") => true,
        Some(_) => false,
        None => req.header("accept").is_some_and(|a| a.contains("text/csv")),
    }
}

/// A JSON number for a statistic: `null` when absent or non-finite.
fn num(x: Option<f64>) -> String {
    match x {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_string(),
    }
}

fn push_meta(body: &mut String, meta: &ArtifactMeta) {
    body.push_str(&format!(
        "{{\"fingerprint\": {}, \"complete\": {}, \"cells\": {}, \"decided_cells\": {}, \"total_trials\": {}, \"axes\": [",
        meta.fingerprint, meta.complete, meta.cells, meta.decided_cells, meta.total_trials
    ));
    for (i, (name, len)) in meta.axes.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        body.push_str("{\"name\": ");
        push_json_string(body, name);
        body.push_str(&format!(", \"len\": {len}}}"));
    }
    body.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_sweep::{Axis, TrialBudget};
    use std::path::PathBuf;

    fn tmp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("dg_serve_daemon_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn daemon(root: &PathBuf) -> Daemon {
        Daemon::start(ArtifactStore::open(root).unwrap(), Workload::synthetic(), 2).unwrap()
    }

    fn spec(seed: u64) -> SweepSpec {
        SweepSpec::new(
            vec![Axis::ints("x", [1, 2, 3])],
            seed,
            TrialBudget::fixed(3),
        )
    }

    fn get(daemon: &Daemon, target: &str) -> Response {
        let (path, query_str) = target.split_once('?').unwrap_or((target, ""));
        let query = query_str
            .split('&')
            .filter(|kv| !kv.is_empty())
            .map(|kv| {
                let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
                (k.to_string(), v.to_string())
            })
            .collect();
        daemon.handle(&Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query,
            headers: vec![],
            body: vec![],
        })
    }

    fn post(daemon: &Daemon, body: &str) -> Response {
        daemon.handle(&Request {
            method: "POST".to_string(),
            path: "/sweep".to_string(),
            query: vec![],
            headers: vec![],
            body: body.as_bytes().to_vec(),
        })
    }

    #[test]
    fn miss_then_hit_serves_identical_bytes_to_direct_run() {
        let root = tmp_root("miss_hit");
        let d = daemon(&root);
        let s = spec(5);
        let posted = post(&d, &s.to_json());
        assert_eq!(posted.status, 202, "{:?}", String::from_utf8(posted.body));
        assert!(d.wait_idle(Duration::from_secs(30)));
        let served = get(&d, &format!("/sweep/{}", s.fingerprint()));
        assert_eq!(served.status, 200);
        let direct = s.sweep().run(Workload::synthetic().trial_fn()).unwrap();
        assert_eq!(served.body, direct.to_json().into_bytes());
        // Second post: cache hit, same bytes, no new job.
        let again = post(&d, &s.to_json());
        assert_eq!(again.status, 200);
        assert_eq!(again.body, served.body);
        assert!(d.pending().is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn routes_and_errors() {
        let root = tmp_root("routes");
        let d = daemon(&root);
        assert_eq!(get(&d, "/healthz").status, 200);
        assert_eq!(get(&d, "/sweeps").status, 200);
        assert_eq!(get(&d, "/nope").status, 404);
        assert_eq!(get(&d, "/sweep/notanumber").status, 400);
        assert_eq!(get(&d, "/sweep/12345").status, 404);
        assert_eq!(post(&d, "{ not json").status, 400);
        // Valid JSON, malformed spec.
        assert_eq!(
            post(&d, "{\"axes\": [{\"name\": \"x\", \"values\": []}]}").status,
            400
        );
        let wrong_method = d.handle(&Request {
            method: "DELETE".to_string(),
            path: "/sweeps".to_string(),
            query: vec![],
            headers: vec![],
            body: vec![],
        });
        assert_eq!(wrong_method.status, 405);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn csv_and_cell_queries_serve_summaries() {
        let root = tmp_root("csv_cell");
        let d = daemon(&root);
        let s = spec(7);
        let report = s.sweep().run(Workload::synthetic().trial_fn()).unwrap();
        d.store().put(&report).unwrap();
        let fp = s.fingerprint();
        let csv = get(&d, &format!("/sweep/{fp}?format=csv"));
        assert_eq!(csv.status, 200);
        assert_eq!(csv.body, report.to_csv().into_bytes());
        // Exact cell.
        let exact = get(&d, &format!("/sweep/{fp}/cell?x=2"));
        assert_eq!(exact.status, 200);
        let body = String::from_utf8(exact.body).unwrap();
        assert!(body.contains("\"exact\": true"), "{body}");
        assert!(body.contains("\"x\": 2"), "{body}");
        // Nearest cell.
        let near = get(&d, &format!("/sweep/{fp}/cell?x=2.4"));
        let body = String::from_utf8(near.body).unwrap();
        assert!(body.contains("\"exact\": false"), "{body}");
        assert!(body.contains("\"x\": 2"), "{body}");
        // Bad queries are 400s with the validator's message.
        assert_eq!(get(&d, &format!("/sweep/{fp}/cell?y=1")).status, 400);
        assert_eq!(get(&d, &format!("/sweep/{fp}/cell?x=abc")).status, 400);
        let _ = std::fs::remove_dir_all(&root);
    }

    fn metric_spec(seed: u64) -> SweepSpec {
        spec(seed).with_metrics(vec![
            dg_sweep::Metric::new("value"),
            dg_sweep::Metric::observe("aux"),
        ])
    }

    #[test]
    fn multi_metric_specs_run_and_serve_identical_bytes() {
        let root = tmp_root("v2_miss_hit");
        let d = daemon(&root);
        let s = metric_spec(17);
        // v1 and v2 of the same grid are distinct artifacts.
        assert_ne!(s.fingerprint(), spec(17).fingerprint());
        let posted = post(&d, &s.to_json());
        assert_eq!(posted.status, 202, "{:?}", String::from_utf8(posted.body));
        assert!(d.wait_idle(Duration::from_secs(30)));
        let served = get(&d, &format!("/sweep/{}", s.fingerprint()));
        assert_eq!(served.status, 200);
        let w = Workload::synthetic();
        let direct = s
            .sweep()
            .run_metrics(w.metric_trial_fn(s.metrics().unwrap().to_vec()))
            .unwrap();
        assert_eq!(served.body, direct.to_json().into_bytes());
        // The CSV view carries per-metric column groups.
        let csv = get(&d, &format!("/sweep/{}?format=csv", s.fingerprint()));
        let text = String::from_utf8(csv.body).unwrap();
        assert!(text.starts_with("x,trials,value_incomplete,"), "{text}");
        assert!(text.contains("aux_mean"), "{text}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cell_queries_select_metrics() {
        let root = tmp_root("cell_metric");
        let d = daemon(&root);
        let s = metric_spec(19);
        let w = Workload::synthetic();
        let metrics = s.metrics().unwrap().to_vec();
        let report = s.sweep().run_metrics(w.metric_trial_fn(metrics)).unwrap();
        d.store().put(&report).unwrap();
        let fp = s.fingerprint();
        // Default: metric 0.
        let base = get(&d, &format!("/sweep/{fp}/cell?x=2"));
        assert_eq!(base.status, 200);
        let base = String::from_utf8(base.body).unwrap();
        assert!(!base.contains("\"metric\""), "{base}");
        // ?metric=aux serves the second metric's statistics.
        let aux = get(&d, &format!("/sweep/{fp}/cell?x=2&metric=aux"));
        assert_eq!(aux.status, 200, "{aux:?}");
        let aux = String::from_utf8(aux.body).unwrap();
        assert!(aux.contains("\"metric\": \"aux\""), "{aux}");
        let mean_of = |body: &str| {
            let tail = &body[body.find("\"mean\": ").unwrap() + 8..];
            tail[..tail.find(',').unwrap()].parse::<f64>().unwrap()
        };
        assert_eq!(mean_of(&aux), report.cell(1).mean_of(1).unwrap(), "{aux}");
        assert_ne!(mean_of(&aux), mean_of(&base));
        // Unknown metric names are 400s naming the declared ones.
        let bad = get(&d, &format!("/sweep/{fp}/cell?x=2&metric=latency"));
        assert_eq!(bad.status, 400);
        assert!(String::from_utf8(bad.body).unwrap().contains("value"));
        // ...and ?metric= on a metric-less artifact is a 400, not a 500.
        let v1 = spec(19);
        let v1_report = v1.sweep().run(w.trial_fn()).unwrap();
        d.store().put(&v1_report).unwrap();
        let v1_bad = get(
            &d,
            &format!("/sweep/{}/cell?x=2&metric=value", v1.fingerprint()),
        );
        assert_eq!(v1_bad.status, 400);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn metrics_and_status_expose_telemetry() {
        let root = tmp_root("telemetry");
        let d = daemon(&root);
        let s = spec(23);
        assert_eq!(post(&d, &s.to_json()).status, 202);
        assert!(d.wait_idle(Duration::from_secs(30)));
        assert_eq!(get(&d, &format!("/sweep/{}", s.fingerprint())).status, 200);
        // /metrics: well-formed Prometheus exposition with request,
        // store, and sweep families.
        let metrics = get(&d, "/metrics");
        assert_eq!(metrics.status, 200);
        assert_eq!(metrics.content_type, "text/plain; version=0.0.4");
        let text = String::from_utf8(metrics.body).unwrap();
        assert!(
            text.contains("# TYPE dg_http_requests_total counter"),
            "{text}"
        );
        // Series presence only: the registry is process-global, so
        // exact counts depend on which tests ran before this one.
        assert!(
            text.contains("dg_http_requests_total{path=\"POST /sweep\",status=\"202\"}"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE dg_http_request_seconds histogram"),
            "{text}"
        );
        assert!(text.contains("dg_serve_artifacts 1"), "{text}");
        assert!(text.contains("dg_serve_queue_depth 0"), "{text}");
        assert!(
            text.contains("# TYPE dg_sweep_trials_total counter"),
            "{text}"
        );
        // /status: the JSON view carries queue depths and per-endpoint
        // request statistics.
        let status = get(&d, "/status");
        assert_eq!(status.status, 200);
        let body = String::from_utf8(status.body).unwrap();
        assert!(body.contains("\"queue_depth\": 0"), "{body}");
        assert!(body.contains("\"in_flight\": 0"), "{body}");
        assert!(body.contains("\"artifacts\": 1"), "{body}");
        assert!(body.contains("\"endpoint\": \"POST /sweep\""), "{body}");
        assert!(body.contains("\"endpoint\": \"GET /sweep/:fp\""), "{body}");
        // Wrong methods on the new paths are 405s, not 404s.
        let wrong = d.handle(&Request {
            method: "POST".to_string(),
            path: "/metrics".to_string(),
            query: vec![],
            headers: vec![],
            body: vec![],
        });
        assert_eq!(wrong.status, 405);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn restart_resumes_incomplete_artifacts() {
        let root = tmp_root("resume");
        let s = spec(11);
        let fp = s.fingerprint();
        // Fabricate a crash: run the sweep under a tight run_budget so
        // its checkpoint is a genuine partial artifact, as a kill
        // mid-sweep would leave.
        {
            let store = ArtifactStore::open(&root).unwrap();
            let partial = s
                .sweep()
                .run_budget(2)
                .checkpoint(store.path_for(fp))
                .run(Workload::synthetic().trial_fn())
                .unwrap();
            assert!(!partial.is_complete());
        }
        // A fresh daemon over the same root finds and finishes it.
        let d = daemon(&root);
        assert!(d.wait_idle(Duration::from_secs(30)));
        let meta = d.store().meta(fp).unwrap();
        assert!(meta.complete);
        let direct = s.sweep().run(Workload::synthetic().trial_fn()).unwrap();
        assert_eq!(
            d.store().get_raw(fp).unwrap().unwrap(),
            direct.to_json().into_bytes()
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn zero_capacity_queue_sheds_posts_with_503_retry_after() {
        let root = tmp_root("busy");
        let d = Daemon::start_with(
            ArtifactStore::open(&root).unwrap(),
            Workload::synthetic(),
            DaemonConfig {
                workers: 1,
                max_queue: 0,
                ..DaemonConfig::default()
            },
        )
        .unwrap();
        let shed = post(&d, &spec(31).to_json());
        assert_eq!(shed.status, 503);
        assert_eq!(shed.retry_after, Some(1));
        let body = String::from_utf8(shed.body).unwrap();
        assert!(body.contains("queue full"), "{body}");
        assert!(d.pending().is_empty());
        // Cache hits are still served: the bound sheds *work*, not reads.
        let s = spec(33);
        let report = s.sweep().run(Workload::synthetic().trial_fn()).unwrap();
        d.store().put(&report).unwrap();
        assert_eq!(post(&d, &s.to_json()).status, 200);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn duplicate_submissions_deduplicate() {
        let root = tmp_root("dedup");
        let d = daemon(&root);
        let s = spec(13);
        for _ in 0..5 {
            let r = post(&d, &s.to_json());
            assert!(r.status == 202 || r.status == 200);
        }
        assert!(d.wait_idle(Duration::from_secs(30)));
        assert_eq!(d.store().list().len(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }
}
