//! The traced per-layer run: every workload for a few ops with
//! benchmark-side spans around each layer call and `dg-obs` recording
//! on, plus direct probes of single layer functions and the 2-shard
//! rerun of the million-node trial.
//!
//! Each section first runs untraced ops of its workload (for
//! `trace.overhead`), then traced ones; every op's outputs are checked
//! exactly as in the untraced run.

use std::path::Path;
use std::time::Instant;

use dg_edge_meg::{ShardedSparseEdgeMeg, SparseTwoStateEdgeMeg};
use dg_obs::Registry;
use dg_serve::ArtifactStore;
use dg_sweep::SweepReport;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::trace::{self, SpanRec};
use crate::workloads::{
    check_grid, check_million, fresh_dir, grid_budget, grid_spec, million_trial, run_grid, Bench,
    MillionTrial, ServeHits, ServeMiss, SweepGrid, MILLION_N, MILLION_Q, MISS_Q, SWEEP_N,
};
use crate::{median, metric, Metric, Outcome, WORKLOADS};

/// Untraced and traced ops per served section (the direct sweep and the
/// million-node trial run once each).
const MISS_OPS: usize = 3;
const HIT_OPS: usize = 2;
/// Repeats of each direct probe; the median is reported.
const PROBES: usize = 5;

/// Counts ops and failures across the sections.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    /// Runs one op (inside an `op` span when tracing) and its check
    /// (outside any span); returns the op's wall seconds.
    fn op(&mut self, section: &'static str, traced: bool, b: &mut dyn Bench) -> f64 {
        self.attempted += 1;
        if traced {
            trace::start(section);
        }
        let t0 = Instant::now();
        let result = trace::span("op", || b.op());
        let dt = t0.elapsed().as_secs_f64();
        trace::pause();
        if let Err(e) = result.and_then(|()| b.check()) {
            self.failed += 1;
            eprintln!(
                "perfbench: traced {section} op {} failed: {e}",
                self.attempted
            );
        }
        dt
    }

    fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: traced check {what} failed: {e}");
        }
    }
}

fn counter(name: &str) -> f64 {
    Registry::global().counter_value(name).unwrap_or(0) as f64
}

fn phase_sum(phase: &str) -> f64 {
    Registry::global()
        .histogram_snapshot(&format!(
            "dg_engine_round_phase_seconds{{phase=\"{phase}\"}}"
        ))
        .map_or(0.0, |s| s.sum)
}

/// `(requests, non-2xx)` summed over every `dg_http_requests_total`
/// series the daemon recorded.
fn http_counts() -> (f64, f64) {
    let reg = Registry::global();
    let (mut all, mut bad) = (0.0, 0.0);
    for name in reg.names() {
        if let Some(labels) = name.strip_prefix("dg_http_requests_total{") {
            let n = reg.counter_value(&name).unwrap_or(0) as f64;
            all += n;
            if !labels.contains("status=\"2") {
                bad += n;
            }
        }
    }
    (all, bad)
}

/// Median seconds of `PROBES` calls of `f`.
fn probe<T>(mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..PROBES)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

pub fn run(work: &Path, seed: u64, trace_file: Option<&Path>) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut m: Vec<Metric> = Vec::new();
    let mut overhead: Vec<(&str, f64)> = Vec::new();

    // --- serve_miss: http + daemon (+ store writes, exact-scan meg) ---
    // Every op posts a never-seen spec; the op's cost does not depend on
    // its seed, so untraced and traced ops compare by their medians.
    let mut miss = ServeMiss::setup(
        &fresh_dir(work, "trace-serve_miss")?,
        SmallRng::seed_from_u64(seed),
    )?;
    let untraced: Vec<f64> = (0..MISS_OPS)
        .map(|_| tally.op("serve_miss", false, &mut miss))
        .collect();
    miss.check_all = true;
    let ckpt0 = counter("dg_sweep_checkpoint_writes_total");
    let mut miss_walls = Vec::new();
    let mut miss_overhead = Vec::new();
    for _ in 0..MISS_OPS {
        let wall = tally.op("serve_miss", true, &mut miss);
        miss_walls.push(wall);
        miss_overhead.push(wall - miss.direct_s);
    }
    let ckpt_per_op = (counter("dg_sweep_checkpoint_writes_total") - ckpt0) / MISS_OPS as f64;
    overhead.push(("serve_miss", median(&miss_walls) / median(&untraced)));
    let store = miss.served.daemon.store();
    let fp = store.list().last().ok_or("no served artifact")?.fingerprint;
    let artifact = store
        .get(fp)
        .map_err(|e| e.to_string())?
        .ok_or("artifact vanished")?;
    let artifact_bytes = artifact.to_json().len() as f64;
    let put_store =
        ArtifactStore::open(fresh_dir(work, "trace-put")?).map_err(|e| e.to_string())?;
    let put_s = probe(|| {
        put_store
            .put(&artifact)
            .expect("a fresh store accepts puts")
    });
    let p = 1.5 / SWEEP_N as f64;
    let scan_s = probe_once(|| SparseTwoStateEdgeMeg::stationary(SWEEP_N, p, MISS_Q, seed));
    drop(miss);

    // --- serve_hits: http + store reads + report parsing ---
    let mut hits = ServeHits::setup(
        &fresh_dir(work, "trace-serve_hits")?,
        SmallRng::seed_from_u64(seed),
    )?;
    // The traced ops replay the untraced ops' picks and queries.
    let tape = hits.tape.clone();
    let untraced: Vec<f64> = (0..HIT_OPS)
        .map(|_| tally.op("serve_hits", false, &mut hits))
        .collect();
    hits.tape = tape;
    let traced: Vec<f64> = (0..HIT_OPS)
        .map(|_| tally.op("serve_hits", true, &mut hits))
        .collect();
    overhead.push(("serve_hits", median(&traced) / median(&untraced)));
    let store = hits.served.daemon.store();
    // Probe the artifacts the deck reads (it lists them in rank order).
    let mut picked = hits.deck.clone();
    picked.dedup();
    let (mut get_raw, mut get, mut parse, mut sizes) = (vec![], vec![], vec![], vec![]);
    for a in picked.iter().map(|&i| &hits.stored[i]) {
        get_raw.push(probe(|| store.get_raw(a.fingerprint).expect("stored")));
        get.push(probe(|| store.get(a.fingerprint).expect("stored")));
        let text = std::str::from_utf8(&a.raw).map_err(|e| e.to_string())?;
        parse.push(probe(|| {
            SweepReport::from_json(text).expect("stored artifacts parse")
        }));
        sizes.push(a.raw.len() as f64);
    }
    // Bytes one session reads from the store on average: seven
    // requests, each a full read of the picked artifact.
    let session_bytes = 7.0
        * hits
            .deck
            .iter()
            .map(|&i| hits.stored[i].raw.len() as f64)
            .sum::<f64>()
        / hits.deck.len() as f64;
    drop(hits);
    let (requests, non_2xx) = http_counts();

    // --- sweep_grid: sweep scheduling, checkpoints, engine reuse ---
    let dir = fresh_dir(work, "trace-sweep_grid")?;
    drop(SweepGrid::setup(
        dir.clone(),
        SmallRng::seed_from_u64(seed),
    )?);
    let spec = grid_spec(SmallRng::seed_from_u64(seed).next_u64(), grid_budget());
    dg_obs::set_enabled(false);
    let t0 = Instant::now();
    let plain = run_grid(&spec, &dir.join("untraced.json"))?;
    let untraced = t0.elapsed().as_secs_f64();
    tally.check(
        "sweep_grid untraced",
        check_grid(&dir.join("untraced.json"), &plain),
    );
    dg_obs::set_enabled(true);
    let before: Vec<f64> = SWEEP_COUNTERS.iter().map(|c| counter(c)).collect();
    trace::start("sweep_grid");
    let t0 = Instant::now();
    let report = trace::span("op", || run_grid(&spec, &dir.join("traced.json")))?;
    let traced = t0.elapsed().as_secs_f64();
    trace::pause();
    let delta: Vec<f64> = SWEEP_COUNTERS
        .iter()
        .zip(&before)
        .map(|(c, b)| counter(c) - b)
        .collect();
    tally.check(
        "sweep_grid traced",
        check_grid(&dir.join("traced.json"), &report),
    );
    tally.check(
        "sweep_grid traced == untraced",
        if report.to_json() == plain.to_json() {
            Ok(())
        } else {
            Err("traced sweep report differs from the untraced one".into())
        },
    );
    overhead.push(("sweep_grid", traced / untraced));
    let to_json_s = probe(|| report.to_json());

    // --- million_trial: engine at scale, laned meg, 2-shard rerun ---
    let mut million = MillionTrial::setup(&mut SmallRng::seed_from_u64(seed))?;
    dg_obs::set_enabled(false);
    let untraced = tally.op("million_trial", false, &mut million);
    dg_obs::set_enabled(true);
    let phases0: Vec<f64> = PHASES.iter().map(|p| phase_sum(p)).collect();
    let traced = tally.op("million_trial", true, &mut million);
    overhead.push(("million_trial", traced / untraced));
    let phases: Vec<f64> = PHASES
        .iter()
        .zip(&phases0)
        .map(|(p, b)| phase_sum(p) - b)
        .collect();
    let one_shard = million
        .first
        .clone()
        .ok_or("the traced million-node op failed")?;
    let t0 = Instant::now();
    let two_shards = million_trial(million.seed, 2);
    let t2 = t0.elapsed().as_secs_f64();
    let imbalance = Registry::global()
        .gauge_value("dg_shard_lane_imbalance_permille")
        .unwrap_or(0) as f64;
    tally.check("million_trial 1 shard == 2 shards", {
        if one_shard == two_shards {
            check_million(&two_shards)
        } else {
            Err("2-shard record differs from the 1-shard record".into())
        }
    });
    let pm = 1.5 / MILLION_N as f64;
    let edges = ShardedSparseEdgeMeg::stationary(MILLION_N, pm, MILLION_Q, million.seed)
        .map_err(|e| e.to_string())?
        .alive_count() as f64;

    let spans = trace::spans();
    let d = |section: &str, name: &str| trace::durations(&spans, section, name);
    let sweep_trials = d("sweep_grid", "sweep.trial");
    let sweep_run = sum(&d("sweep_grid", "sweep.run"));

    m.extend([
        metric(
            "http.post_miss_s",
            median(&d("serve_miss", "http.post_miss")),
            "s",
        ),
        metric(
            "http.post_hit_s",
            median(&d("serve_hits", "http.post_hit")),
            "s",
        ),
        metric(
            "http.get_artifact_s",
            median(&d("serve_hits", "http.get_artifact")),
            "s",
        ),
        metric(
            "http.get_csv_s",
            median(&d("serve_hits", "http.get_csv")),
            "s",
        ),
        metric(
            "http.get_cell_s",
            median(&d("serve_hits", "http.get_cell")),
            "s",
        ),
        metric("http.requests", requests, "count"),
        metric("http.non_2xx", non_2xx, "count"),
        metric("daemon.job_s", median(&d("serve_miss", "daemon.job")), "s"),
        metric("daemon.overhead_s", median(&miss_overhead), "s"),
        metric("store.get_raw_s", median(&get_raw), "s"),
        metric("store.get_s", median(&get), "s"),
        metric("store.put_s", put_s, "s"),
        metric("store.bytes_read", session_bytes, "bytes"),
        metric("store.bytes_written", ckpt_per_op * artifact_bytes, "bytes"),
        metric("report.from_json_s", median(&parse), "s"),
        metric(
            "report.from_json_mb_per_s",
            sum(&sizes) / sum(&parse) / 1e6,
            "MB/s",
        ),
        metric("report.to_json_s", to_json_s, "s"),
        metric("report.bytes", median(&sizes), "bytes"),
        metric("sweep.trials", report.total_trials() as f64, "count"),
        metric("sweep.trial_calls", sweep_trials.len() as f64, "count"),
        metric(
            "sweep.useful_ratio",
            report.total_trials() as f64 / sweep_trials.len().max(1) as f64,
            "ratio",
        ),
        metric("sweep.trial_s", sum(&sweep_trials), "s"),
        metric("sweep.sched_s", sweep_run - sum(&sweep_trials), "s"),
        metric("sweep.checkpoint_writes", delta[0], "count"),
        metric(
            "engine.construct_s",
            sum(&d("sweep_grid", "engine.construct")),
            "s",
        ),
        metric("engine.reset_s", sum(&d("sweep_grid", "engine.reset")), "s"),
        metric("engine.rounds", f64::from(one_shard.rounds), "count"),
        metric("engine.model_step_s", phases[0], "s"),
        metric("engine.delta_apply_s", phases[1], "s"),
        metric("engine.protocol_s", phases[2], "s"),
        metric("engine.observer_s", phases[3], "s"),
        metric("engine.models_built", delta[1], "count"),
        metric("engine.models_reused", delta[2], "count"),
        metric("engine.scratch_grow", delta[3], "count"),
        metric("meg.scan_construct_s", scan_s, "s"),
        metric(
            "meg.laned_construct_s",
            sum(&d("million_trial", "engine.construct")),
            "s",
        ),
        metric("meg.edges", edges, "count"),
        metric("shard.speedup_2", traced / t2, "x"),
        metric("shard.efficiency_2", traced / t2 / 2.0, "ratio"),
        metric("shard.lane_imbalance_permille", imbalance, "permille"),
    ]);
    for w in WORKLOADS {
        let (cov, layers) = trace::coverage(&spans, w);
        println!("perfbench: trace {w}: coverage {cov:.4}, self seconds by layer {layers:?}");
        if cov < 0.9 {
            println!(
                "perfbench: trace {w}: {:.1}% of op wall is benchmark self time outside any layer span",
                (1.0 - cov) * 100.0
            );
        }
        m.push(metric(format!("trace.coverage.{w}"), cov, "ratio"));
    }
    for (w, ratio) in overhead {
        m.push(metric(format!("trace.overhead.{w}"), ratio, "ratio"));
    }
    if let Some(path) = trace_file {
        write_trace(path, &spans)?;
    }
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
    })
}

/// Counters read around the traced sweep, in the order the metrics use.
const SWEEP_COUNTERS: [&str; 4] = [
    "dg_sweep_checkpoint_writes_total",
    "dg_engine_models_built_total",
    "dg_engine_models_reused_total",
    "dg_engine_scratch_grow_total",
];

const PHASES: [&str; 4] = ["model_step", "delta_apply", "protocol", "observer"];

/// Seconds of one call (for probes too slow to repeat).
fn probe_once<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64()
}

fn write_trace(path: &Path, spans: &[SpanRec]) -> Result<(), String> {
    std::fs::write(path, trace::to_chrome_json(spans))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: wrote {} spans to {}",
        spans.len(),
        path.display()
    );
    Ok(())
}
