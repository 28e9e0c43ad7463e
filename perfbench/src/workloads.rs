//! The four workloads: set-up, one timed operation, and the check of
//! that operation's outputs (run outside the timed region).
//!
//! Every input is drawn from a `SmallRng` seeded by the `--seed`
//! argument, so one seed always produces the same specs, picks and
//! queries.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dg_edge_meg::ShardedSparseEdgeMeg;
use dg_serve::{http, ArtifactStore, Daemon, Workload};
use dg_sweep::{Axis, Cell, CiTarget, Metric, SweepReport, SweepSpec, Trial, TrialBudget};
use dynagraph::engine::{Simulation, TrialRecord, TrialScratch};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

use crate::trace::{self, Timed};

/// Node count of the served and direct sweep cells.
pub const SWEEP_N: usize = 4096;
/// Node count of the million-node trial.
pub const MILLION_N: usize = 1 << 20;
/// Edge death rate of the million-node trial.
pub const MILLION_Q: f64 = 0.5;
/// Rounds every million-node op runs. Uncapped, the trial floods in
/// 18–21 rounds depending on the seed, which moves its cost by up to
/// 17%; a cap below that makes every seed do the same number of rounds.
pub const MILLION_ROUNDS: u32 = 16;
/// Edge death rate of the served miss cell.
pub const MISS_Q: f64 = 0.01;
/// Round cap of the direct sweep's trials (the daemon's default).
const SWEEP_MAX_ROUNDS: u32 = 200_000;
/// Longest a served job may take before the op counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Stored artifacts in the served-hits store.
const HIT_ARTIFACTS: usize = 36;
/// Cell queries per served-hits session.
const CELL_QUERIES: usize = 4;
/// Client sessions per served-hits op.
const DECK: usize = 16;
/// Zipf exponent of the served-hits artifact pick.
const ZIPF_S: f64 = 1.1;

/// What one workload does; the timed loop in `main` times [`Bench::op`]
/// and calls [`Bench::check`] after the clock stops.
pub trait Bench {
    /// One timed operation.
    fn op(&mut self) -> Result<(), String>;
    /// Checks the outputs of the operation that just ran.
    fn check(&mut self) -> Result<(), String>;
}

fn fail(what: impl std::fmt::Display) -> String {
    what.to_string()
}

/// A fresh directory under `root`, emptied if it exists.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// An in-process daemon with one sweep worker behind `http::serve` on
/// loopback.
pub struct Served {
    pub daemon: Arc<Daemon>,
    pub addr: SocketAddr,
    server: Option<http::ServerHandle>,
}

impl Served {
    fn start(store: ArtifactStore) -> Result<Served, String> {
        // One worker: at most one job is ever in flight, and a served
        // 1-cell, 1-trial sweep runs inline on that worker.
        let daemon = Arc::new(Daemon::start(store, Workload::flooding(), 1).map_err(fail)?);
        let handler = Arc::clone(&daemon);
        let server = http::serve("127.0.0.1:0", move |req| handler.handle(req)).map_err(fail)?;
        Ok(Served {
            daemon,
            addr: server.addr(),
            server: Some(server),
        })
    }

    fn request(&self, method: &str, target: &str, body: &[u8]) -> Result<(u16, Vec<u8>), String> {
        http::request(self.addr, method, target, body)
            .map_err(|e| format!("{method} {target}: {e}"))
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.daemon.shutdown();
    }
}

/// The served miss cell's spec: `n = 4096`, `q = 0.01`, default `p`,
/// one trial.
pub fn miss_spec(base_seed: u64) -> SweepSpec {
    SweepSpec::new(
        vec![Axis::ints("n", [SWEEP_N]), Axis::explicit("q", [MISS_Q])],
        base_seed,
        TrialBudget::fixed(1),
    )
}

/// The direct sweep a served miss must reproduce byte for byte.
pub fn direct_miss(spec: &SweepSpec) -> Result<Vec<u8>, String> {
    let report = spec
        .sweep()
        .threads(1)
        .run(Workload::flooding().trial_fn())
        .map_err(fail)?;
    Ok(report.to_json().into_bytes())
}

/// `serve_miss`: POST a never-seen spec, wait for its job, GET the
/// artifact.
pub struct ServeMiss {
    pub served: Served,
    tape: SmallRng,
    ops: usize,
    last: Option<(SweepSpec, Vec<u8>)>,
    /// Check every op's bytes against a direct sweep (the traced run);
    /// otherwise every `DIRECT_CHECK_EVERY`-th op, since a direct sweep
    /// costs as much as the op.
    pub check_all: bool,
    /// Seconds of the last direct sweep run by [`Bench::check`].
    pub direct_s: f64,
}

const DIRECT_CHECK_EVERY: usize = 8;

impl ServeMiss {
    /// Starts a daemon over a fresh store in `dir` and runs one
    /// warm-up op.
    pub fn setup(dir: &Path, tape: SmallRng) -> Result<ServeMiss, String> {
        let store = ArtifactStore::open(dir).map_err(fail)?;
        let mut w = ServeMiss {
            served: Served::start(store)?,
            tape,
            ops: 0,
            last: None,
            check_all: false,
            direct_s: 0.0,
        };
        w.op()?;
        w.ops = 0;
        w.last = None;
        Ok(w)
    }
}

impl Bench for ServeMiss {
    fn op(&mut self) -> Result<(), String> {
        let spec = miss_spec(self.tape.next_u64());
        assert_eq!(
            spec.cell_count() * spec.budget().max_trials,
            1,
            "a served miss must run on one thread: cells x max_trials = 1"
        );
        let fp = spec.fingerprint();
        let body = spec.to_json();
        let d = &self.served.daemon;
        if !d.pending().is_empty() {
            return Err("a job was already in flight before the POST".into());
        }
        let (status, _) = trace::span("http.post_miss", || {
            self.served.request("POST", "/sweep", body.as_bytes())
        })?;
        if status != 202 {
            return Err(format!(
                "POST of a never-seen spec answered {status}, not 202"
            ));
        }
        if !trace::span("daemon.job", || d.wait_idle(JOB_TIMEOUT)) {
            return Err(format!("job {fp} did not finish within {JOB_TIMEOUT:?}"));
        }
        let (status, bytes) = trace::span("http.get_artifact", || {
            self.served.request("GET", &format!("/sweep/{fp}"), b"")
        })?;
        if status != 200 {
            return Err(format!("GET /sweep/{fp} answered {status}"));
        }
        self.last = Some((spec, bytes));
        self.ops += 1;
        Ok(())
    }

    fn check(&mut self) -> Result<(), String> {
        let (spec, bytes) = self.last.take().ok_or("no op to check")?;
        let text = std::str::from_utf8(&bytes).map_err(fail)?;
        let report = SweepReport::from_json(text).map_err(fail)?;
        if report.fingerprint() != spec.fingerprint() || !report.is_complete() {
            return Err("served artifact is not the complete artifact of the posted spec".into());
        }
        if self.check_all || (self.ops - 1).is_multiple_of(DIRECT_CHECK_EVERY) {
            let t0 = Instant::now();
            let direct = direct_miss(&spec)?;
            self.direct_s = t0.elapsed().as_secs_f64();
            if direct != bytes {
                return Err("served artifact differs from a direct sweep of its spec".into());
            }
        }
        Ok(())
    }
}

/// Integer-valued synthetic samples shaped like flooding rounds: the
/// stored artifacts need realistic numbers, not the engine's time.
fn synthetic_rounds(cell: &Cell, trial: Trial) -> f64 {
    let n = cell.get("n");
    let q = cell.get("q");
    (n.log2() * (1.0 + 0.02 / q)).ceil() + (trial.seed % 9) as f64
}

/// The spec of stored artifact `i`: a fixed shape (2–4 `n` values ×
/// 10–50 `q` values, 4–16 trials per cell, every third one
/// `dg-sweep/2`) with a seed from the tape.
fn hit_spec(i: usize, base_seed: u64) -> SweepSpec {
    let n_len = 2 + i % 3;
    let q_len = 10 + (i * 7) % 41;
    let axes = vec![
        Axis::ints("n", (0..n_len).map(|k| 1024usize << k)),
        Axis::log("q", 0.01, 0.64, q_len),
    ];
    let spec = SweepSpec::new(axes, base_seed, TrialBudget::fixed(4 << (i % 3)));
    if i % 3 == 1 {
        spec.with_metrics(vec![
            Metric::new("rounds"),
            Metric::observe("messages"),
            Metric::observe("coverage"),
        ])
    } else {
        spec
    }
}

fn hit_report(spec: &SweepSpec) -> Result<SweepReport, String> {
    let sweep = spec.sweep().threads(1);
    if spec.metrics().is_some() {
        // Rows follow `hit_spec`'s metrics: rounds, messages, coverage.
        sweep.run_metrics(|cell, trial| {
            let rounds = synthetic_rounds(cell, trial);
            let messages = (rounds * cell.get("n") * 3.0).floor();
            vec![Some(rounds), Some(messages), Some(1.0)]
        })
    } else {
        sweep.run(|cell, trial| Some(synthetic_rounds(cell, trial)))
    }
    .map_err(fail)
}

/// One stored artifact as the client and the checks know it.
pub struct Stored {
    pub spec_json: String,
    pub fingerprint: u64,
    pub raw: Vec<u8>,
    /// Parsed report and CSV view, filled on first check.
    expected: Option<(SweepReport, Vec<u8>)>,
    n_range: (f64, f64),
}

/// The responses of one served-hits session, checked after the clock
/// stops.
struct Session {
    pick: usize,
    post: (u16, Vec<u8>),
    get: (u16, Vec<u8>),
    csv: (u16, Vec<u8>),
    cells: Vec<((f64, f64), u16, Vec<u8>)>,
}

/// The artifact picks of one served-hits op: [`DECK`] picks apportioned
/// to Zipf weights over the stored artifacts by largest remainder. Rank
/// `r` is stored artifact `r`, so every op of every seed reads the same
/// multiset of artifacts; only the order and the cell queries vary.
fn zipf_deck() -> Vec<usize> {
    let weights: Vec<f64> = (0..HIT_ARTIFACTS)
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights.iter().map(|w| w * DECK as f64 / total).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..HIT_ARTIFACTS).collect();
    by_remainder.sort_by(|&a, &b| {
        (quotas[b] - quotas[b].floor()).total_cmp(&(quotas[a] - quotas[a].floor()))
    });
    let short = DECK - counts.iter().sum::<usize>();
    for &r in &by_remainder[..short] {
        counts[r] += 1;
    }
    counts
        .iter()
        .enumerate()
        .flat_map(|(r, &c)| std::iter::repeat_n(r, c))
        .collect()
}

/// `serve_hits`: each op is [`DECK`] client sessions, one after another,
/// over a store of complete artifacts; the picks are a seeded shuffle of
/// [`zipf_deck`]. Session costs span two orders of magnitude, so an op
/// is the whole deck rather than one session: every op does the same
/// work and the median op time is well defined.
pub struct ServeHits {
    pub served: Served,
    pub stored: Vec<Stored>,
    pub deck: Vec<usize>,
    pub tape: SmallRng,
    last: Vec<Session>,
}

impl ServeHits {
    /// Fills a fresh store in `dir` with the artifacts, starts the
    /// daemon and runs one warm-up session.
    pub fn setup(dir: &Path, mut tape: SmallRng) -> Result<ServeHits, String> {
        let store = ArtifactStore::open(dir).map_err(fail)?;
        let mut stored = Vec::with_capacity(HIT_ARTIFACTS);
        for i in 0..HIT_ARTIFACTS {
            let spec = hit_spec(i, tape.next_u64());
            let report = hit_report(&spec)?;
            store.put(&report).map_err(fail)?;
            let fingerprint = spec.fingerprint();
            let raw = store.get_raw(fingerprint).map_err(fail)?;
            let ns = spec.axes()[0].values();
            stored.push(Stored {
                spec_json: spec.to_json(),
                fingerprint,
                raw: raw.ok_or("a stored artifact is missing from the store")?,
                expected: None,
                n_range: (ns[0], ns[ns.len() - 1]),
            });
        }
        let mut w = ServeHits {
            served: Served::start(store)?,
            stored,
            deck: zipf_deck(),
            tape,
            last: Vec::new(),
        };
        let warm_up = w.session(w.deck[0])?;
        w.check_session(&warm_up)?;
        Ok(w)
    }

    /// One client session: POST the stored spec, GET the artifact and
    /// its CSV view, then the cell queries.
    fn session(&mut self, pick: usize) -> Result<Session, String> {
        let queries: Vec<(f64, f64)> = (0..CELL_QUERIES)
            .map(|_| {
                let (lo, hi) = self.stored[pick].n_range;
                let n = (lo + (hi - lo) * self.tape.gen::<f64>()).round();
                let q = 0.01 * 64f64.powf(self.tape.gen::<f64>());
                (n, q)
            })
            .collect();
        let a = &self.stored[pick];
        let s = &self.served;
        let fp = a.fingerprint;
        let post = trace::span("http.post_hit", || {
            s.request("POST", "/sweep", a.spec_json.as_bytes())
        })?;
        let get = trace::span("http.get_artifact", || {
            s.request("GET", &format!("/sweep/{fp}"), b"")
        })?;
        let csv = trace::span("http.get_csv", || {
            s.request("GET", &format!("/sweep/{fp}?format=csv"), b"")
        })?;
        let mut cells = Vec::with_capacity(CELL_QUERIES);
        for (n, q) in queries {
            let (status, body) = trace::span("http.get_cell", || {
                s.request("GET", &format!("/sweep/{fp}/cell?n={n}&q={q}"), b"")
            })?;
            cells.push(((n, q), status, body));
        }
        Ok(Session {
            pick,
            post,
            get,
            csv,
            cells,
        })
    }

    /// Checks one session's responses against the store's bytes.
    fn check_session(&mut self, session: &Session) -> Result<(), String> {
        let a = &mut self.stored[session.pick];
        if a.expected.is_none() {
            let report =
                SweepReport::from_json(std::str::from_utf8(&a.raw).map_err(fail)?).map_err(fail)?;
            let csv = report.to_csv().into_bytes();
            a.expected = Some((report, csv));
        }
        let (report, csv) = a.expected.as_ref().expect("filled above");
        let fp = a.fingerprint;
        for (what, (status, body), want) in [
            ("POST hit", &session.post, &a.raw),
            ("GET artifact", &session.get, &a.raw),
            ("GET csv", &session.csv, csv),
        ] {
            if *status != 200 || body != want {
                return Err(format!(
                    "{what} of {fp}: status {status}, bytes differ from the store"
                ));
            }
        }
        for ((n, q), status, body) in &session.cells {
            let want = report
                .nearest_cell(&[("n", *n), ("q", *q)])
                .map_err(fail)?
                .cell
                .id;
            let body = String::from_utf8_lossy(body);
            if *status != 200 || !body.contains(&format!("\"id\": {want},")) {
                return Err(format!(
                    "cell query n={n} q={q} on {fp}: status {status}, not cell {want}"
                ));
            }
        }
        Ok(())
    }
}

impl Bench for ServeHits {
    fn op(&mut self) -> Result<(), String> {
        // A seeded Fisher–Yates shuffle of the deck.
        let mut picks = self.deck.clone();
        for i in (1..picks.len()).rev() {
            picks.swap(i, self.tape.gen_range(0..=i));
        }
        self.last.clear();
        for pick in picks {
            let session = self.session(pick)?;
            self.last.push(session);
        }
        Ok(())
    }

    fn check(&mut self) -> Result<(), String> {
        let sessions = std::mem::take(&mut self.last);
        if sessions.len() != DECK {
            return Err("no op to check".into());
        }
        sessions.iter().try_for_each(|s| self.check_session(s))
    }
}

/// Per-worker reuse state of the direct sweep: a model slot per cell
/// plus one engine scratch (the `FloodWorker` pattern).
struct FloodWorker<G> {
    models: HashMap<usize, Option<G>>,
    scratch: TrialScratch,
}

impl<G> FloodWorker<G> {
    fn new() -> Self {
        FloodWorker {
            models: HashMap::new(),
            scratch: TrialScratch::new(),
        }
    }
}

/// The direct sweep's spec: 8 log-spaced `q` cells in [0.01, 0.64] at
/// `n = 4096`, adaptive 8–64 trials to a 5% relative CI.
pub fn grid_spec(base_seed: u64, budget: TrialBudget) -> SweepSpec {
    SweepSpec::new(vec![Axis::log("q", 0.01, 0.64, 8)], base_seed, budget)
}

pub fn grid_budget() -> TrialBudget {
    TrialBudget::adaptive(8, 64, CiTarget::Relative(0.05))
}

fn grid_model(seed: u64, q: f64) -> ShardedSparseEdgeMeg {
    let p = 1.5 / SWEEP_N as f64;
    trace::span("engine.construct", || {
        ShardedSparseEdgeMeg::stationary(SWEEP_N, p, q, seed).expect("valid grid cell")
    })
}

/// Runs one direct sweep on one thread, checkpointing to `checkpoint`.
/// The models are wrapped in [`Timed`] so `reset` shows as a span when
/// tracing.
pub fn run_grid(spec: &SweepSpec, checkpoint: &Path) -> Result<SweepReport, String> {
    let sweep = spec.sweep().threads(1).checkpoint(checkpoint);
    trace::span("sweep.run", || {
        sweep.run_with_state(FloodWorker::new, |cell, trial, w| {
            trace::span("sweep.trial", || grid_trial(cell, trial, w))
        })
    })
    .map_err(fail)
}

fn grid_trial(
    cell: &Cell,
    trial: Trial,
    w: &mut FloodWorker<Timed<ShardedSparseEdgeMeg>>,
) -> Option<f64> {
    let q = cell.get("q");
    let slot = w.models.entry(cell.id()).or_default();
    Simulation::builder()
        .model(move |seed| Timed(grid_model(seed, q)))
        .max_rounds(SWEEP_MAX_ROUNDS)
        .base_seed(trial.cell_seed)
        .shards(1)
        .run_trial_with(trial.index, slot, &mut w.scratch)
        .time
        .map(f64::from)
}

/// `sweep_grid`: one fresh direct sweep per op, each with a fresh
/// checkpoint path and a base seed from the tape.
pub struct SweepGrid {
    dir: PathBuf,
    tape: SmallRng,
    ops: usize,
    last: Option<(PathBuf, SweepReport)>,
}

impl SweepGrid {
    /// Creates the checkpoint directory and runs the grid once at one
    /// trial per cell as a warm-up.
    pub fn setup(dir: PathBuf, tape: SmallRng) -> Result<SweepGrid, String> {
        let warm = dir.join("warm-up.json");
        run_grid(&grid_spec(0, TrialBudget::fixed(1)), &warm)?;
        std::fs::remove_file(&warm).map_err(fail)?;
        Ok(SweepGrid {
            dir,
            tape,
            ops: 0,
            last: None,
        })
    }
}

impl Bench for SweepGrid {
    fn op(&mut self) -> Result<(), String> {
        let spec = grid_spec(self.tape.next_u64(), grid_budget());
        let path = self.dir.join(format!("op-{}.json", self.ops));
        self.ops += 1;
        let report = run_grid(&spec, &path)?;
        self.last = Some((path, report));
        Ok(())
    }

    fn check(&mut self) -> Result<(), String> {
        let (path, report) = self.last.take().ok_or("no op to check")?;
        check_grid(&path, &report)
    }
}

/// The final report must be complete and equal its checkpoint file.
pub fn check_grid(path: &Path, report: &SweepReport) -> Result<(), String> {
    let on_disk = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    std::fs::remove_file(path).map_err(fail)?;
    if !report.is_complete() || on_disk != report.to_json().into_bytes() {
        return Err("final sweep report differs from its checkpoint file".into());
    }
    Ok(())
}

/// One million-node flooding trial on one thread (or `shards` threads
/// for the traced rerun), its model built inside the op.
pub fn million_trial(base_seed: u64, shards: usize) -> TrialRecord {
    let p = 1.5 / MILLION_N as f64;
    Simulation::builder()
        .model(move |seed| {
            trace::span("engine.construct", || {
                ShardedSparseEdgeMeg::stationary(MILLION_N, p, MILLION_Q, seed)
                    .expect("valid million-node cell")
            })
        })
        .max_rounds(MILLION_ROUNDS)
        .base_seed(base_seed)
        .shards(shards)
        .run_trial(0)
}

/// `million_trial`: the same seeded trial every op.
pub struct MillionTrial {
    pub seed: u64,
    /// The first op's record, which every later op must repeat.
    pub first: Option<TrialRecord>,
    last: Option<TrialRecord>,
}

impl MillionTrial {
    /// Builds (and drops) the model once, so the op's allocations land
    /// in warmed-up memory.
    pub fn setup(tape: &mut SmallRng) -> Result<MillionTrial, String> {
        let seed = tape.next_u64();
        let g =
            ShardedSparseEdgeMeg::stationary(MILLION_N, 1.5 / MILLION_N as f64, MILLION_Q, seed)
                .map_err(fail)?;
        std::hint::black_box(g.alive_count());
        Ok(MillionTrial {
            seed,
            first: None,
            last: None,
        })
    }
}

impl Bench for MillionTrial {
    fn op(&mut self) -> Result<(), String> {
        let record = trace::span("engine.trial", || million_trial(self.seed, 1));
        self.last = Some(record);
        Ok(())
    }

    fn check(&mut self) -> Result<(), String> {
        let record = self.last.take().ok_or("no op to check")?;
        check_million(&record)?;
        match &self.first {
            Some(first) if *first != record => {
                Err("the same seeded trial produced a different record".into())
            }
            Some(_) => Ok(()),
            None => {
                self.first = Some(record);
                Ok(())
            }
        }
    }
}

/// A capped trial runs exactly [`MILLION_ROUNDS`] rounds (the
/// uncapped trial floods in 18 or more) and informs part of the graph.
pub fn check_million(record: &TrialRecord) -> Result<(), String> {
    if record.rounds != MILLION_ROUNDS || record.informed < 2 || record.informed > MILLION_N {
        return Err(format!("unexpected million-node record {record:?}"));
    }
    Ok(())
}
