//! `dg-fault` — deterministic, seeded fault injection for the dynspread
//! workspace.
//!
//! The execution plane (sweep scheduler, artifact store, query daemon)
//! claims to survive trial panics, transient I/O errors, and worker
//! crashes. This crate makes those claims testable: named *injection
//! sites* threaded through the stack fire on demand, driven by a
//! seeded [`FaultPlan`], so a chaos test can make exactly the third
//! checkpoint write fail — every run, on every machine — and then pin
//! the recovered artifact byte-identical to a fault-free run.
//!
//! The canonical sites:
//!
//! | site                  | effect when fired                          |
//! |-----------------------|--------------------------------------------|
//! | `sweep.trial.panic`   | panics inside the sweep trial function     |
//! | `store.write.err`     | artifact/checkpoint write fails (transient)|
//! | `store.read.err`      | artifact/checkpoint read fails (transient) |
//! | `daemon.worker.crash` | daemon worker panics at job start          |
//! | `http.conn.stall`     | connection handler stalls before reading   |
//!
//! # Runtime gating
//!
//! No site fires until a plan is armed via the `DG_FAULT` environment
//! variable (parsed lazily on first evaluation) or [`set_plan`]/
//! [`scoped`]. An unarmed site costs one relaxed atomic load; the
//! `t21_fault` bench guards that overhead.
//!
//! # Determinism
//!
//! Each rule keeps a per-site evaluation counter `k`; evaluation `k`
//! of site `s` fires iff `splitmix64(seed ^ fnv1a(s), k)` falls under
//! the rule's probability. Same plan, same sequence of evaluations →
//! same faults, regardless of wall clock or machine. (Under a parallel
//! scheduler the *assignment* of faults to threads can vary; the
//! layers above are required to recover to byte-identical artifacts
//! either way, which is exactly what the chaos suites pin.)
//!
//! # Example
//!
//! ```
//! use dg_fault::FaultPlan;
//!
//! // Nothing fires until a plan is armed.
//! assert!(!dg_fault::should_fail("store.write.err"));
//! let _guard = dg_fault::scoped(FaultPlan::new(1).always("store.write.err", 2));
//! // The first two evaluations fire, every later one passes.
//! assert!(dg_fault::io_check("store.write.err").is_err());
//! assert!(dg_fault::io_check("store.write.err").is_err());
//! assert!(dg_fault::io_check("store.write.err").is_ok());
//! // Other sites are untouched.
//! assert!(!dg_fault::should_fail("sweep.trial.panic"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;

pub use plan::{FaultPlan, FaultRule};

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Process-wide count of injected faults, independent of `dg-obs`
/// runtime gating — the cheap assertion handle for chaos tests and the
/// t21 bench guard.
static INJECTED: AtomicU64 = AtomicU64::new(0);

static STATUS: AtomicU8 = AtomicU8::new(UNSET);
const UNSET: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

static PLAN: Mutex<Option<Arc<ActivePlan>>> = Mutex::new(None);

struct ActiveRule {
    site: String,
    prob: f64,
    max_hits: Option<u64>,
    /// Evaluations of this site so far — the deterministic draw index.
    evals: AtomicU64,
    /// Faults actually injected, bounded by `max_hits`.
    hits: AtomicU64,
}

struct ActivePlan {
    seed: u64,
    rules: Vec<ActiveRule>,
}

impl ActivePlan {
    fn of(plan: &FaultPlan) -> ActivePlan {
        ActivePlan {
            seed: plan.seed(),
            rules: plan
                .rules()
                .iter()
                .map(|r| ActiveRule {
                    site: r.site.clone(),
                    prob: r.prob,
                    max_hits: r.max_hits,
                    evals: AtomicU64::new(0),
                    hits: AtomicU64::new(0),
                })
                .collect(),
        }
    }
}

/// Whether a fault plan is currently armed. The fast path is one relaxed
/// atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATUS.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => init_from_env(),
    }
}

/// Arms `plan` for the whole process (replacing any current plan; rule
/// counters start at zero), or disarms injection with `None`.
/// Overrides whatever `DG_FAULT` said.
pub fn set_plan(plan: Option<FaultPlan>) {
    let active = plan.as_ref().map(|p| Arc::new(ActivePlan::of(p)));
    let armed = active.is_some();
    *lock_plan() = active;
    STATUS.store(if armed { ON } else { OFF }, Ordering::Relaxed);
}

/// Arms `plan` until the returned guard drops, which disarms injection
/// entirely (guards do not nest: the previous plan is not restored).
/// Chaos tests hold one of these for the faulty region of each test.
#[must_use = "the plan is disarmed when the guard drops"]
pub fn scoped(plan: FaultPlan) -> ScopedPlan {
    set_plan(Some(plan));
    ScopedPlan { _private: () }
}

/// Guard returned by [`scoped`]; disarms fault injection on drop.
#[derive(Debug)]
pub struct ScopedPlan {
    _private: (),
}

impl Drop for ScopedPlan {
    fn drop(&mut self) {
        set_plan(None);
    }
}

fn lock_plan() -> std::sync::MutexGuard<'static, Option<Arc<ActivePlan>>> {
    PLAN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cold]
fn init_from_env() -> bool {
    match std::env::var("DG_FAULT") {
        Ok(text) if !text.trim().is_empty() => match FaultPlan::parse(&text) {
            Ok(plan) => {
                // Racing initialisers agree: same env, same plan. The
                // second writer replaces an identical plan whose
                // counters are still (or almost still) zero.
                set_plan(Some(plan));
                true
            }
            Err(msg) => {
                dg_obs::dg_error!("dg-fault: ignoring unparseable DG_FAULT: {msg}");
                STATUS.store(OFF, Ordering::Relaxed);
                false
            }
        },
        _ => {
            STATUS.store(OFF, Ordering::Relaxed);
            false
        }
    }
}

/// Evaluates the injection site `site` against the armed plan: `true`
/// means the caller must fail now (the decision is already recorded).
/// Deterministic per plan and evaluation order; constant `false` when
/// nothing is armed.
#[inline]
pub fn should_fail(site: &str) -> bool {
    enabled() && evaluate(site)
}

#[cold]
fn evaluate(site: &str) -> bool {
    let plan = lock_plan().clone();
    let Some(plan) = plan else { return false };
    let Some(rule) = plan.rules.iter().find(|r| r.site == site) else {
        return false;
    };
    let k = rule.evals.fetch_add(1, Ordering::Relaxed);
    if !draw(plan.seed, site, k, rule.prob) {
        return false;
    }
    if let Some(max) = rule.max_hits {
        if rule.hits.fetch_add(1, Ordering::Relaxed) >= max {
            return false;
        }
    } else {
        rule.hits.fetch_add(1, Ordering::Relaxed);
    }
    INJECTED.fetch_add(1, Ordering::Relaxed);
    dg_obs::Registry::global()
        .counter(&dg_obs::label("dg_fault_injected_total", "site", site))
        .inc();
    dg_obs::dg_debug!("dg-fault: injected fault at {site}");
    true
}

/// Deterministic per-evaluation draw: FNV-1a over the site name mixed
/// with the plan seed and the evaluation index through the SplitMix64
/// finalizer (the same mixer as `dg_sweep::mix_seed`).
fn draw(seed: u64, site: &str, k: u64, prob: f64) -> bool {
    if prob >= 1.0 {
        return true;
    }
    if prob <= 0.0 {
        return false;
    }
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in site.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    let mut z = (seed ^ h).wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z >> 11) as f64 / (1u64 << 53) as f64) < prob
}

/// A panic-style injection site: panics with `injected fault: <site>`
/// when the armed plan says so, otherwise returns normally.
#[inline]
pub fn fail_point(site: &str) {
    if should_fail(site) {
        panic!("injected fault: {site}");
    }
}

/// An I/O-style injection site: fails with a *transient*
/// ([`std::io::ErrorKind::Interrupted`]) error when the armed plan says
/// so, otherwise `Ok(())`. Callers surviving transient I/O wrap the
/// real operation and this check together in [`retry`].
#[inline]
pub fn io_check(site: &str) -> std::io::Result<()> {
    if should_fail(site) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            format!("injected fault: {site}"),
        ));
    }
    Ok(())
}

/// Whether an I/O error is transient — worth a bounded retry. Injected
/// faults ([`io_check`]) are `Interrupted`, so they land in this class
/// by construction.
pub fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// Total faults injected by this process so far (all sites), counted
/// regardless of `dg-obs` runtime gating.
pub fn injected_total() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

/// Deterministic backoff before retry `attempt` (0-based): `1ms <<
/// attempt`, capped at 16ms. No jitter — retries must be reproducible.
pub fn backoff(attempt: u32) -> Duration {
    Duration::from_millis(1u64 << attempt.min(4))
}

/// Runs `f` up to `attempts` times, sleeping [`backoff`] between tries,
/// retrying only while `transient` says the error is worth it. The
/// final error (transient or not) is returned unchanged.
///
/// # Errors
///
/// Whatever `f` last returned.
///
/// # Example
///
/// ```
/// let _guard = dg_fault::scoped(dg_fault::FaultPlan::new(0).always("store.read.err", 2));
/// let value = dg_fault::retry(4, dg_fault::is_transient, || {
///     dg_fault::io_check("store.read.err")?;
///     Ok::<_, std::io::Error>(42)
/// })
/// .unwrap();
/// assert_eq!(value, 42);
/// ```
pub fn retry<T, E>(
    attempts: u32,
    transient: impl Fn(&E) -> bool,
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    let mut attempt = 0u32;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if attempt + 1 < attempts && transient(&e) => {
                std::thread::sleep(backoff(attempt));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The plan is process-global; tests in this binary serialize on
    /// this lock so one test's plan cannot leak into another's sites.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn unarmed_sites_never_fire() {
        let _s = serial();
        set_plan(None);
        assert!(!enabled());
        assert!(!should_fail("sweep.trial.panic"));
        assert!(io_check("store.write.err").is_ok());
        fail_point("daemon.worker.crash"); // must not panic
    }

    #[test]
    fn always_rule_fires_exactly_max_hits_times() {
        let _s = serial();
        let before = injected_total();
        let _guard = scoped(FaultPlan::new(9).always("a.b", 3));
        let fired: Vec<bool> = (0..6).map(|_| should_fail("a.b")).collect();
        assert_eq!(fired, [true, true, true, false, false, false]);
        assert_eq!(injected_total() - before, 3);
        // Unlisted sites pass through.
        assert!(!should_fail("c.d"));
    }

    #[test]
    fn probabilistic_draws_are_deterministic_in_seed_and_index() {
        let _s = serial();
        let run = |seed: u64| -> Vec<bool> {
            let _guard = scoped(FaultPlan::new(seed).rule("x.y", 0.5, None));
            (0..64).map(|_| should_fail("x.y")).collect()
        };
        let a = run(1);
        assert_eq!(a, run(1), "same seed must redraw identically");
        assert_ne!(a, run(2), "different seeds must differ");
        let fired = a.iter().filter(|&&f| f).count();
        assert!((8..=56).contains(&fired), "p=0.5 fired {fired}/64");
    }

    #[test]
    fn io_check_failures_are_transient_and_named() {
        let _s = serial();
        let _guard = scoped(FaultPlan::new(0).always("store.read.err", 1));
        let err = io_check("store.read.err").unwrap_err();
        assert!(is_transient(&err));
        assert_eq!(err.to_string(), "injected fault: store.read.err");
    }

    #[test]
    fn retry_survives_bounded_transients_and_gives_up_past_attempts() {
        let _s = serial();
        set_plan(None);
        let mut calls = 0u32;
        let ok: Result<u32, std::io::Error> = retry(4, is_transient, || {
            calls += 1;
            if calls < 3 {
                Err(std::io::Error::new(std::io::ErrorKind::Interrupted, "t"))
            } else {
                Ok(7)
            }
        });
        assert_eq!(ok.unwrap(), 7);
        assert_eq!(calls, 3);

        let mut calls = 0u32;
        let err: Result<u32, std::io::Error> = retry(2, is_transient, || {
            calls += 1;
            Err(std::io::Error::new(std::io::ErrorKind::Interrupted, "t"))
        });
        assert!(err.is_err());
        assert_eq!(calls, 2);

        // Non-transient errors do not retry at all.
        let mut calls = 0u32;
        let err: Result<u32, std::io::Error> = retry(4, is_transient, || {
            calls += 1;
            Err(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"))
        });
        assert!(err.is_err());
        assert_eq!(calls, 1);
    }

    #[test]
    fn scoped_guard_disarms_on_drop() {
        let _s = serial();
        {
            let _guard = scoped(FaultPlan::new(0).always("p.q", 10));
            assert!(should_fail("p.q"));
        }
        assert!(!enabled());
        assert!(!should_fail("p.q"));
    }
}
