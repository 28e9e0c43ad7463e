//! The repository benchmark: four one-thread workloads timed end to end,
//! and a traced run that splits the time by layer.
//!
//! ```text
//! dg-perfbench --workload <serve_miss|serve_hits|sweep_grid|million_trial>
//!              --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//!              [--trace-file <path>]
//! ```
//!
//! `--trace 0` sets the workload up several times (reporting the median
//! set-up time), then runs it as a closed loop with one client for
//! `--seconds` of timed operations, checking every operation's outputs
//! outside the timed region. `--trace 1` runs the traced per-layer pass
//! over all four workloads (see `traced.rs`). Either way the last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`.

mod trace;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use workloads::{fresh_dir, Bench, MillionTrial, ServeHits, ServeMiss, SweepGrid};

/// Set-ups per run; the median is reported as `setup_s`.
const SETUPS: usize = 9;
/// An op slower than this counts as failed (timed out).
const OP_TIMEOUT: Duration = Duration::from_secs(60);
/// Process CPU seconds per wall second above which the run is not on
/// one compute thread.
const MAX_CPU_PER_WALL: f64 = 1.3;

pub const WORKLOADS: [&str; 4] = ["serve_miss", "serve_hits", "sweep_grid", "million_trial"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    trace_file: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut work_dir, mut trace_file) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value == "1"),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--trace-file" => trace_file = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        trace_file,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The benchmark's result line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 Hz).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    fields.iter().sum::<u64>() as f64 / 100.0
}

/// Prints the op-time sample count, median, and the highest whole
/// percentile with at least ten samples above it.
fn print_spread(times: &[f64]) {
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut line = format!(
        "perfbench: op seconds: samples={} median={:.6}",
        sorted.len(),
        median(&sorted)
    );
    if sorted.len() >= 20 {
        let pct = 100 * (sorted.len() - 10) / sorted.len();
        let idx = (pct * sorted.len() / 100).min(sorted.len() - 1);
        line += &format!(" p{pct}={:.6}", sorted[idx]);
    }
    println!("{line}");
}

/// Sets a workload up [`SETUPS`] times (each in a fresh directory),
/// keeping the last instance; returns it with the median set-up time.
fn set_up<B>(
    work: &Path,
    name: &str,
    mut make: impl FnMut(PathBuf) -> Result<B, String>,
) -> Result<(B, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for k in 0..SETUPS {
        drop(bench.take());
        let t0 = Instant::now();
        let dir = fresh_dir(work, &format!("{name}-setup-{k}"))?;
        bench = Some(make(dir)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((bench.expect("at least one set-up"), median(&times)))
}

/// The timed closed loop: ops until `seconds` of op time have passed
/// (at least one), each op's outputs checked after its clock stops.
fn timed_loop(bench: &mut dyn Bench, seconds: f64, setup_s: f64) -> Outcome {
    let mut times = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut timed = 0.0;
    let cpu0 = process_cpu_s();
    let wall0 = Instant::now();
    while attempted == 0 || timed < seconds {
        let t0 = Instant::now();
        let result = bench.op();
        let dt = t0.elapsed();
        timed += dt.as_secs_f64();
        attempted += 1;
        let result = result.and_then(|()| {
            if dt > OP_TIMEOUT {
                Err(format!("op took {dt:?}, over the {OP_TIMEOUT:?} limit"))
            } else {
                bench.check()
            }
        });
        match result {
            Ok(()) => times.push(dt.as_secs_f64()),
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: op {attempted} failed: {e}");
            }
        }
    }
    let cpu_per_wall = (process_cpu_s() - cpu0) / wall0.elapsed().as_secs_f64();
    let one_thread = cpu_per_wall <= MAX_CPU_PER_WALL;
    let threads = if one_thread { 1.0 } else { cpu_per_wall.ceil() };
    println!(
        "perfbench: compute_threads={threads} cpu_per_wall={cpu_per_wall:.3} ops={attempted} failed={failed}"
    );
    if !one_thread {
        eprintln!("perfbench: the timed loop used {cpu_per_wall:.2} CPU seconds per second, not one thread");
    }
    let ok = times.len();
    // The median op is printed, not reported: the host's speed drifts
    // within a run, and a median jumps between its slow and fast spells
    // where the run's mean rate moves in proportion to them.
    print_spread(&times);
    Outcome {
        correct: failed == 0 && ok > 0 && one_thread,
        attempted,
        failed,
        metrics: vec![
            metric("ops_per_s", ok as f64 / timed, "1/s"),
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
    }
}

fn untraced(args: &Args, work: &Path) -> Result<Outcome, String> {
    let tape = SmallRng::seed_from_u64(args.seed);
    let seconds = args.seconds;
    Ok(match args.workload.as_str() {
        "serve_miss" => {
            let (mut b, s) = set_up(work, "serve_miss", |dir| {
                ServeMiss::setup(&dir, tape.clone())
            })?;
            timed_loop(&mut b, seconds, s)
        }
        "serve_hits" => {
            let (mut b, s) = set_up(work, "serve_hits", |dir| {
                ServeHits::setup(&dir, tape.clone())
            })?;
            timed_loop(&mut b, seconds, s)
        }
        "sweep_grid" => {
            let (mut b, s) = set_up(work, "sweep_grid", |dir| {
                SweepGrid::setup(dir, tape.clone())
            })?;
            timed_loop(&mut b, seconds, s)
        }
        _ => {
            let (mut b, s) = set_up(work, "million_trial", |_| {
                MillionTrial::setup(&mut tape.clone())
            })?;
            timed_loop(&mut b, seconds, s)
        }
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let name = format!("{}-{}", args.workload, std::process::id());
    let work = args.work_dir.join(&name);
    let result = fresh_dir(&args.work_dir, &name).and_then(|_| {
        if args.trace {
            traced::run(&work, args.seed, args.trace_file.as_deref())
        } else {
            untraced(&args, &work)
        }
    });
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(outcome) => {
            for m in &outcome.metrics {
                println!("perfbench: {:<36} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", outcome.to_json());
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
