//! Event-driven simulation of the two-state edge-MEG.
//!
//! Per-round flipping costs `O(n²)` per round regardless of density. The
//! sparse regimes of the paper (`p = Θ(1/n)`, where flooding is most
//! interesting) toggle only `Θ(n)` edges per round, so we simulate toggle
//! *events*: an off edge turns on after `Geometric(p)` rounds and an on
//! edge turns off after `Geometric(q)` rounds. The resulting process is
//! the two-state edge-MEG of Appendix A, where every pair flips its own
//! coin every round.
//!
//! Events live in a *calendar queue* — one bucket per upcoming round in
//! a fixed ring, plus an overflow list for far-future toggles — instead
//! of a binary heap: with millions of pending events (one per potential
//! edge) heap sifts dominate the per-round cost, while the calendar pops
//! a round's toggles from one contiguous bucket. Events are processed in
//! ascending `(round, edge)` order either way, so the RNG draw order
//! (and thus every realization) is identical to the heap implementation.
//!
//! # Trial setup: the exact scan
//!
//! [`SparseTwoStateEdgeMeg::stationary`] initializes by scanning all
//! `n(n-1)/2` pairs — one Bernoulli(`α`) draw plus the uniform behind
//! each pair's first toggle time — which keeps its realizations
//! byte-pinned across refactors but makes *trial setup* `O(n²)` RNG
//! draws. The logarithm and the calendar push, the bulk of an eager
//! scan's cost, are paid only for the few first toggles that can fall due
//! within the first 64 rounds: in the paper's sparse regime almost
//! every first birth is `~1/p` rounds away, and a short flooding trial
//! never reaches it. The scan checkpoints its RNG every 4096 pairs, and
//! a run that does reach the end of the window replays the scan once
//! from those checkpoints to schedule the rest — the same draws, so the
//! same events and the same realization. Setup memory is the pair-slot
//! table plus the window's events. This model is the byte-pinned
//! reproducer of the served `flooding/1` artifacts, and the baseline the
//! benches time against. Everything else runs
//! [`crate::ShardedSparseEdgeMeg`]: its lazy dynamics keep setup,
//! per-round cost and memory proportional to the current on-set.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dg_markov::{MarkovError, TwoStateChain};
use dynagraph::{mix_seed, EdgeDelta, EvolvingGraph, Snapshot};

use crate::pairs::{edge_pair, pair_count};

/// Rounds covered by the exact-scan reset's first window: only first
/// toggles that can fall due before this round are scheduled by the
/// scan itself; the rest are scheduled by one replay of the scan when
/// the run reaches this round.
const FIRST_WINDOW: u64 = 64;

/// Pairs between the exact-scan reset's RNG checkpoints (~64 KB of
/// checkpoints at `n = 4096`).
const CHECKPOINT_PAIRS: u64 = 4096;

/// Ring width of the event calendar: toggles scheduled within this many
/// rounds go straight to their round's bucket; later ones wait in the
/// overflow list, which is swept back into the ring every
/// `HORIZON / 2` rounds.
const HORIZON: u64 = 8192;

/// A calendar queue keyed by round number.
///
/// Invariant: every entry of `buckets[r % HORIZON]` is due exactly at
/// round `r` — entries are only admitted when `when - now < HORIZON`, so
/// residues cannot collide among pending events (an event further than
/// one full ring away sits in `overflow` until a flush brings it within
/// the horizon).
#[derive(Debug, Clone)]
struct EventCalendar {
    /// `buckets[when % HORIZON]` holds the edges toggling at `when`.
    buckets: Vec<Vec<u64>>,
    /// Far-future events `(when, edge)` with `when - push_round >= HORIZON`.
    overflow: Vec<(u64, u64)>,
    /// Next round at which the overflow is swept into the ring.
    next_flush: u64,
}

impl EventCalendar {
    fn new() -> Self {
        EventCalendar {
            buckets: vec![Vec::new(); HORIZON as usize],
            overflow: Vec::new(),
            next_flush: HORIZON / 2,
        }
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.overflow.clear();
        self.next_flush = HORIZON / 2;
    }

    #[inline]
    fn push(&mut self, now: u64, when: u64, edge: u64) {
        debug_assert!(when > now);
        if when - now < HORIZON {
            self.buckets[(when % HORIZON) as usize].push(edge);
        } else {
            self.overflow.push((when, edge));
        }
    }

    /// Moves every overflow event that is now within the horizon into
    /// its bucket. Flushing at least once per `HORIZON / 2` rounds
    /// guarantees no event's due round slips past while it waits.
    fn flush(&mut self, now: u64) {
        self.next_flush = now + HORIZON / 2;
        let mut i = 0;
        while i < self.overflow.len() {
            let (when, edge) = self.overflow[i];
            if when - now < HORIZON {
                self.buckets[(when % HORIZON) as usize].push(edge);
                self.overflow.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Takes the edges due at `now`, sorted ascending — the same order a
    /// min-heap over `(when, edge)` would pop them in. The slot is left
    /// an empty vector: a recycled one sized for a whole round of toggles
    /// would, after one trip round the ring, sit in every bucket, and
    /// `clear` (every reset) keeps capacity.
    fn begin_round(&mut self, now: u64) -> Vec<u64> {
        if now >= self.next_flush {
            self.flush(now);
        }
        let mut due = std::mem::take(&mut self.buckets[(now % HORIZON) as usize]);
        due.sort_unstable();
        due
    }
}

/// Slot-table sentinel for a pair that is currently off.
const OFF: u32 = u32::MAX;

/// Checks that the lazy edge-MEGs can sample birth rate `p`, death rate
/// `q` and the stationary density `α = p/(p+q)`.
///
/// The geometric sampler divides by `ln(1 - r)`, which must be strictly
/// negative in `f64`. For `r ≤ 2⁻⁵⁴` (≈ 5.6e-17), `1 - r` rounds to `1`,
/// every draw comes out as `1`, and the model would turn every pair on
/// at once. Both [`SparseTwoStateEdgeMeg::stationary`] and
/// [`crate::ShardedSparseEdgeMeg::stationary`] call this first.
///
/// # Errors
///
/// [`MarkovError::ParameterOutOfRange`] naming the first rate that fails
/// (this covers zero, negative, `NaN` and `> 1` rates as well).
///
/// # Examples
///
/// ```
/// assert!(dg_edge_meg::check_rates(1e-16, 0.5).is_ok());
/// assert!(dg_edge_meg::check_rates(1e-17, 0.5).is_err());
/// ```
pub fn check_rates(p: f64, q: f64) -> Result<(), MarkovError> {
    for (name, rate) in [
        ("p (needs ln(1 - p) < 0)", p),
        ("q (needs ln(1 - q) < 0)", q),
        ("alpha = p/(p+q) (needs ln(1 - alpha) < 0)", p / (p + q)),
    ] {
        let samplable = (1.0 - rate).ln() < 0.0;
        if !samplable {
            return Err(MarkovError::ParameterOutOfRange { name, value: rate });
        }
    }
    Ok(())
}

/// Samples `Geometric(prob)` on `{1, 2, ...}` — the waiting time until
/// the next success of a Bernoulli(`prob`) sequence. `log1m` is the
/// precomputed `ln(1 - prob)` (hoisting it out of the hot loop
/// changes no draw: same expression, same inputs, same bits).
#[inline]
pub(crate) fn geometric(rng: &mut SmallRng, prob: f64, log1m: f64) -> u64 {
    if prob >= 1.0 {
        return 1;
    }
    geometric_at(rng.gen_range(f64::MIN_POSITIVE..1.0), log1m)
}

/// The value [`geometric`] returns for the uniform `u`: `⌈ln u / ln(1 −
/// prob)⌉`, at least 1.
///
/// The ceiling is taken in integers, because `f64::ceil` is an
/// out-of-line libm call on the baseline x86-64 target. `y as i64`
/// truncates, and one compare adds the missing unit when `y` had a
/// fraction. This is exact for every draw the samplers make: `u ≥
/// f64::MIN_POSITIVE` gives `|ln u| < 708.4`, and [`check_rates`] forces
/// `|ln(1 − prob)| ≥ 1.1e-16`, so `y ≤ 6.4e18 < 2^63`, where the
/// conversion is exact on integers and truncates otherwise. (`i64`, not
/// `u64`: x86-64 converts `i64` in one instruction and `u64` in a branchy
/// sequence.) From `2^63` up every `f64` is an integer, so `y as u64` is
/// the float ceiling's cast there; that keeps `y = +∞`, which `u = 0`
/// gives and [`window_cut`] can return for rates near 1, saturating to
/// `u64::MAX`. The result equals `(y.ceil() as u64).max(1)` for every
/// `y`.
#[inline]
fn geometric_at(u: f64, log1m: f64) -> u64 {
    let y = u.ln() / log1m;
    if y >= I64_LIMIT {
        return y as u64;
    }
    let t = y as i64;
    (t + ((t as f64) < y) as i64).max(1) as u64
}

/// `2^63`, the first `f64` that `as i64` cannot hold.
const I64_LIMIT: f64 = (1u64 << 63) as f64;

/// `ln` of the table floor `2⁻⁴⁰`: a [`Geometric`] table holds the
/// thresholds down to the first one at or below it, so a tabled draw
/// falls back to the logarithm below the floor about once in 10¹².
const TABLE_FLOOR_LN: f64 = -40.0 * std::f64::consts::LN_2;

/// Most thresholds a [`Geometric`] table holds: rates whose floor lies
/// farther out (mean gap `1/r` above ~148) draw through the logarithm.
const MAX_THRESHOLDS: usize = 4096;

/// Relative half-width of the guard band around each tabled threshold.
const BAND: f64 = 1e-9;

/// A `Geometric(prob)` sampler that returns exactly what [`geometric`]
/// returns for the same uniform, but finds most draws in a table instead
/// of taking a logarithm and a division.
///
/// The draw `⌈ln u / L⌉` (`L = ln(1 − prob)`) is `k` exactly when `T_k ≤ u
/// < T_{k−1}`, with thresholds `T_k = exp(k·L)` and `T_0 = 1`. For a rate
/// whose thresholds reach the floor `2⁻⁴⁰` within [`MAX_THRESHOLDS`] of
/// them (every rate from ~1/148 to just below 1), the sampler keeps
/// each value's interval shrunk by a guard band of relative width `δ =
/// 1e-9` on both ends, plus a guide array indexed by the uniform's
/// binade and the top `b` bits of its mantissa, `2^b ≥ 1/|L|`. Successive
/// thresholds differ by the factor `e^{|L|} > 1 + 2^{−b}`, more than a
/// bucket's relative width, so a bucket holds at most one threshold and
/// a draw's interval is its guide entry's or the next. A draw takes the
/// same uniform as [`geometric`] and returns its interval's value when
/// `u` lies inside it; otherwise (`u` in a band, below the floor, or a
/// rate without a table) it calls [`geometric_at`]. The table path is
/// taken by all but about `2δ/prob + 2⁻⁴⁰` of the draws, and rates at or
/// above 1 still return 1 without drawing. A wrong guide entry cannot
/// make a wrong draw, only send draws to the logarithm, which the
/// exactness test counts.
///
/// # Error budget
///
/// Let `j` be either threshold that brackets an accepted `u`. The
/// computed `T_j = fl(exp(fl(j·L)))` is within `10⁻¹³` relative of
/// `exp(j·L)` for every `|j·L| ≤ 708.4`, so outside the bands `|ln u −
/// j·L| > δ − 2·10⁻¹³`, and the exact quotient `ln u / L` lies more than
/// `(δ − 2·10⁻¹³)/|L|` from both `k − 1` and `k`. The computed quotient
/// `fl(fl(ln u)/L)` is within `4·10⁻¹⁶` relative of the exact one
/// (glibc's `ln` is within one ulp, the division rounds once), and since
/// `|ln u| ≤ 708.4` for `u ≥ f64::MIN_POSITIVE`, its absolute error is
/// below `3·10⁻¹³/|L|`. Both errors sit more than three orders of
/// magnitude inside `δ`, so the quotient [`geometric`] computes has the
/// ceiling `k` the table names. `tests::table_draws_match_geometric_at`
/// checks every threshold, band edge and floor to the ulp.
///
/// The tables sit behind [`Arc`]s, so clones (one per lane) share them:
/// at most 32 KiB of thresholds and 21 KiB of guide per rate.
#[derive(Debug, Clone)]
pub(crate) struct Geometric {
    prob: f64,
    log1m: f64,
    /// The lowest tabled uniform, `T_K(1 + δ)`; `+∞` without a table.
    floor: f64,
    /// A uniform's guide bucket is `(u.to_bits() >> shift) − base`: its
    /// binade and top `52 − shift` mantissa bits, counted from the
    /// floor's.
    shift: u32,
    base: u64,
    /// `guide[j]` is the first `k` with `lower[k]` below bucket `j + 1`:
    /// where the one-step search starts for every uniform of bucket `j`
    /// above the floor. Empty without a table.
    guide: Arc<[u16]>,
    /// `lower[k] = T_k(1 + δ)` for `k = 0..=K`: the draw is `k` for `u`
    /// in `[lower[k], lower[k − 1]·SHRINK)`, whose upper end is `T_{k−1}(1
    /// − δ)`. Empty without a table.
    lower: Arc<[f64]>,
}

/// `(1 − δ)/(1 + δ)`: `lower[k]·SHRINK = T_k(1 − δ)`, the upper end of
/// value `k + 1`'s interval.
const SHRINK: f64 = (1.0 - BAND) / (1.0 + BAND);

impl Geometric {
    /// The sampler for `Geometric(prob)`, with a table when the rate's
    /// thresholds reach the floor within [`MAX_THRESHOLDS`].
    pub(crate) fn new(prob: f64) -> Self {
        let log1m = (1.0 - prob).ln();
        let count = (TABLE_FLOOR_LN / log1m).ceil();
        if !(prob < 1.0 && count <= MAX_THRESHOLDS as f64) {
            return Geometric {
                prob,
                log1m,
                floor: f64::INFINITY,
                shift: 0,
                base: 0,
                guide: Arc::new([]),
                lower: Arc::new([]),
            };
        }
        let count = count as usize;
        let lower: Arc<[f64]> = (0..=count)
            .map(|k| (k as f64 * log1m).exp() * (1.0 + BAND))
            .collect();
        let floor = lower[count];
        let b = ((-1.0 / log1m).log2().ceil().max(0.0) as u32).min(52);
        let shift = 52 - b;
        let base = floor.to_bits() >> shift;
        let len = (((1.0f64.to_bits() - 1) >> shift) - base + 1) as usize;
        let mut guide = vec![0u16; len];
        let mut k = 1;
        for (j, start) in guide.iter_mut().enumerate().rev() {
            let next_bucket = f64::from_bits((base + j as u64 + 1) << shift);
            while k < count && lower[k] >= next_bucket {
                k += 1;
            }
            *start = k as u16;
        }
        Geometric {
            prob,
            log1m,
            floor,
            shift,
            base,
            guide: guide.into(),
            lower,
        }
    }

    /// One draw, the same value and the same uniform as [`geometric`].
    #[inline]
    pub(crate) fn draw(&self, rng: &mut SmallRng) -> u64 {
        if self.prob >= 1.0 {
            return 1;
        }
        let u = rng.gen_range(f64::MIN_POSITIVE..1.0);
        self.tabled(u)
            .unwrap_or_else(|| geometric_at(u, self.log1m))
    }

    /// The table's value for the uniform `u`, or `None` when `u` falls in
    /// a band or below the floor, or the rate has no table.
    #[inline]
    fn tabled(&self, u: f64) -> Option<u64> {
        if u < self.floor {
            return None;
        }
        // `u`'s bucket holds at most one threshold, so its interval is the
        // guide's or the next; above the floor, `k ≤ K`. The interval is
        // still checked on both ends, so a guide entry that started
        // anywhere else would send its draws to the logarithm.
        let mut k = self.guide[((u.to_bits() >> self.shift) - self.base) as usize] as usize;
        k += (u < self.lower[k]) as usize;
        (self.lower[k] <= u && u < self.lower[k - 1] * SHRINK).then_some(k as u64)
    }
}

/// [`geometric`] split at a window: the same draw, but the logarithm is
/// taken only when the draw can fall below the window. `Ok(k)` carries
/// the exact value `geometric` returns; `Err(u)` keeps the uniform of a
/// draw that is certainly at or past the window, for [`geometric_at`]
/// to finish later. `cut` comes from [`window_cut`].
#[inline]
fn geometric_within(rng: &mut SmallRng, prob: f64, log1m: f64, cut: f64) -> Result<u64, f64> {
    if prob >= 1.0 {
        return Ok(1);
    }
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    if u >= cut {
        Ok(geometric_at(u, log1m))
    } else {
        Err(u)
    }
}

/// The uniform below which a [`geometric`] draw with `ln(1 - prob) =
/// log1m` is certainly `>= FIRST_WINDOW`: `k < FIRST_WINDOW` needs
/// `ln u >= (FIRST_WINDOW - 1)·log1m`. The `1 - 1e-6` factor keeps the
/// cut conservative by far more than the rounding of `exp`, `ln` and
/// the division, so a draw below it can never be due inside the window;
/// the few extra draws it lets through are scheduled early, exactly.
fn window_cut(log1m: f64) -> f64 {
    ((FIRST_WINDOW - 1) as f64 * log1m).exp() * (1.0 - 1e-6)
}

/// Event-driven stationary two-state edge-MEG with per-round cost
/// `O(#toggles · log #events + |E_t|)`: the byte-pinned reproducer
/// behind `flooding/1`.
///
/// # Examples
///
/// ```
/// use dg_edge_meg::SparseTwoStateEdgeMeg;
/// use dynagraph::{flooding, EvolvingGraph};
///
/// let n = 256;
/// let mut g = SparseTwoStateEdgeMeg::stationary(n, 1.5 / n as f64, 0.2, 1).unwrap();
/// let run = flooding::flood(&mut g, 0, 100_000);
/// assert!(run.flooding_time().is_some());
/// ```
///
/// For large `n` use [`crate::ShardedSparseEdgeMeg`], whose setup is
/// `O(#on)` rather than this model's `O(n²)` pair scan.
#[derive(Debug, Clone)]
pub struct SparseTwoStateEdgeMeg {
    n: usize,
    chain: TwoStateChain,
    round: u64,
    /// Indices of currently-on edges.
    alive: Vec<u64>,
    /// Per-pair position in `alive`, or [`OFF`].
    slots: Vec<u32>,
    /// Pending toggle events, bucketed by due round.
    events: EventCalendar,
    /// Precomputed `ln(1 - p)` / `ln(1 - q)` for the geometric sampler.
    log1m_birth: f64,
    log1m_death: f64,
    /// [`window_cut`]s of the birth and death draws.
    cut_birth: f64,
    cut_death: f64,
    /// The RNG state at every [`CHECKPOINT_PAIRS`]-th pair of the last
    /// reset's scan, kept until the run reaches [`FIRST_WINDOW`] and the
    /// scan is replayed; empty afterwards.
    checkpoints: Vec<SmallRng>,
    /// Scan replays since construction (at most one per reset).
    #[cfg(test)]
    replays: u32,
    rng: SmallRng,
    snapshot: Snapshot,
    edge_buf: Vec<(u32, u32)>,
    synced: bool,
}

impl SparseTwoStateEdgeMeg {
    /// Rounds of the first window: only first toggles due before this
    /// round are scheduled by the reset's scan, and the step that enters
    /// it replays the `O(n²)` scan once to schedule the rest. A timing
    /// of the stepping alone starts after this many steps.
    pub const FIRST_WINDOW: u64 = FIRST_WINDOW;

    /// Creates a stationary sparse edge-MEG (each edge on independently
    /// with probability `p/(p+q)` at round 0).
    ///
    /// Setup scans every pair: `O(n²)` RNG draws, two per pair (its
    /// state, then its first toggle time), in a fixed order that keeps
    /// realizations byte-pinned. The logarithm and the event push are
    /// paid only for the first toggles that can fall due within the
    /// first 64 rounds; a run that reaches round 64 replays the scan
    /// once from RNG checkpoints to schedule the rest, which yields
    /// exactly the events an eager scan would have scheduled. Setup
    /// memory is the pair-slot table plus the window's events.
    ///
    /// # Errors
    ///
    /// Returns an error for rates [`check_rates`] rejects (among them
    /// `p = 0` and `q = 0`: event scheduling needs both toggles
    /// possible), for `p = q = 1`, or for `n < 2`.
    ///
    /// Pair indices are `u64`, so any `n` up to `2^32` nodes is
    /// addressable; the exact-scan setup, however, draws for and
    /// allocates one slot per pair (`O(n²)` memory and time), which is
    /// the practical limit of this model. Beyond ~10^5 nodes use
    /// [`crate::ShardedSparseEdgeMeg`], whose setup and memory stay
    /// proportional to the on-set.
    pub fn stationary(n: usize, p: f64, q: f64, seed: u64) -> Result<Self, MarkovError> {
        check_rates(p, q)?;
        let chain = TwoStateChain::new(p, q)?;
        if n < 2 {
            return Err(MarkovError::DimensionMismatch {
                expected: 2,
                found: n,
            });
        }
        let log1m_birth = (1.0 - chain.birth()).ln();
        let log1m_death = (1.0 - chain.death()).ln();
        let mut meg = SparseTwoStateEdgeMeg {
            n,
            log1m_birth,
            log1m_death,
            cut_birth: window_cut(log1m_birth),
            cut_death: window_cut(log1m_death),
            checkpoints: Vec::new(),
            #[cfg(test)]
            replays: 0,
            chain,
            round: 0,
            alive: Vec::new(),
            slots: vec![OFF; pair_count(n) as usize],
            events: EventCalendar::new(),
            rng: SmallRng::seed_from_u64(seed),
            snapshot: Snapshot::empty(n),
            edge_buf: Vec::new(),
            synced: false,
        };
        meg.reset(seed);
        Ok(meg)
    }

    /// The stationary edge density `α = p/(p+q)`.
    pub fn alpha(&self) -> f64 {
        self.chain.stationary_on()
    }

    /// Number of currently-on edges.
    pub fn alive_count(&self) -> usize {
        self.alive.len()
    }

    /// `(rate, ln(1 - rate), window cut)` of the toggle a pair in state
    /// `on` waits for next.
    #[inline]
    fn toggle_rate(&self, on: bool) -> (f64, f64, f64) {
        if on {
            (self.chain.death(), self.log1m_death, self.cut_death)
        } else {
            (self.chain.birth(), self.log1m_birth, self.cut_birth)
        }
    }

    fn schedule_toggle(&mut self, edge: u64, currently_on: bool) {
        let (rate, log1m, _) = self.toggle_rate(currently_on);
        let dt = geometric(&mut self.rng, rate, log1m);
        self.events.push(self.round, self.round + dt, edge);
    }

    /// One pair of the exact-scan reset, drawn from `rng` in stream
    /// order: its round-0 state (on with probability `alpha`), then its
    /// first toggle time split at [`FIRST_WINDOW`] (see
    /// [`geometric_within`]).
    #[inline]
    fn scan_pair(&self, rng: &mut SmallRng, alpha: f64) -> (bool, Result<u64, f64>) {
        let on = rng.gen_bool(alpha);
        let (rate, log1m, cut) = self.toggle_rate(on);
        (on, geometric_within(rng, rate, log1m, cut))
    }

    /// Schedules every first toggle the last reset left out: re-draws
    /// the scan from its checkpoints and pushes each toggle whose draw
    /// fell below the window cut. Runs once, as the run enters round
    /// [`FIRST_WINDOW`] — before any of those toggles can be due — so
    /// the calendar ends up holding exactly the events an eager scan
    /// would have pushed at round 0.
    fn replay_scan(&mut self) {
        #[cfg(test)]
        {
            self.replays += 1;
        }
        let now = self.round - 1;
        let alpha = self.chain.stationary_on();
        let pairs = pair_count(self.n);
        let mut checkpoints = std::mem::take(&mut self.checkpoints);
        for (chunk, mut rng) in checkpoints.drain(..).enumerate() {
            let start = chunk as u64 * CHECKPOINT_PAIRS;
            for e in start..pairs.min(start + CHECKPOINT_PAIRS) {
                if let (on, Err(u)) = self.scan_pair(&mut rng, alpha) {
                    let dt = geometric_at(u, self.toggle_rate(on).1);
                    debug_assert!(dt >= FIRST_WINDOW, "window cut let a due toggle through");
                    self.events.push(now, dt, e);
                }
            }
        }
        self.checkpoints = checkpoints;
    }

    fn turn_on(&mut self, edge: u64) {
        debug_assert_eq!(self.slots[edge as usize], OFF);
        // Alive-list positions are u32 (with OFF reserved); the on-set
        // would have to reach 4 billion edges to overflow them.
        assert!(
            self.alive.len() < OFF as usize,
            "on-set exceeds u32 alive-list positions"
        );
        self.slots[edge as usize] = self.alive.len() as u32;
        self.alive.push(edge);
    }

    fn turn_off(&mut self, edge: u64) {
        let pos = std::mem::replace(&mut self.slots[edge as usize], OFF);
        assert_ne!(pos, OFF, "edge is alive");
        let last = *self.alive.last().expect("edge is alive");
        self.alive.swap_remove(pos as usize);
        if last != edge {
            self.slots[last as usize] = pos;
        }
    }

    /// Advances the process one round. Shared by both stepping paths —
    /// identical RNG stream either way — and records the churn into
    /// `delta` when one is supplied (suppressed while the delta baseline
    /// is unsynced; the caller emits a full set instead).
    fn advance(&mut self, delta: Option<&mut EdgeDelta>) {
        // Churn is recorded only when the consumer's baseline is in sync;
        // while unsynced the caller emits a full edge set instead, so the
        // suppression is decided once here rather than per toggle.
        let mut delta = if self.synced { delta } else { None };
        self.round += 1;
        if self.round == FIRST_WINDOW {
            self.replay_scan();
        }
        let due = self.events.begin_round(self.round);
        for &edge in &due {
            let on = self.slots[edge as usize] != OFF;
            if on {
                self.turn_off(edge);
            } else {
                self.turn_on(edge);
            }
            if let Some(d) = delta.as_deref_mut() {
                if on {
                    d.push_removed(edge_pair(edge));
                } else {
                    d.push_added(edge_pair(edge));
                }
            }
            self.schedule_toggle(edge, !on);
        }
    }
}

impl EvolvingGraph for SparseTwoStateEdgeMeg {
    fn node_count(&self) -> usize {
        self.n
    }

    fn step(&mut self) -> &Snapshot {
        self.advance(None);
        self.edge_buf.clear();
        self.edge_buf
            .extend(self.alive.iter().map(|&e| edge_pair(e)));
        self.snapshot.rebuild_from_edges(&self.edge_buf);
        self.synced = false;
        &self.snapshot
    }

    fn step_delta(&mut self, delta: &mut EdgeDelta) {
        // The toggle events due this round *are* the delta: per-round
        // cost is O(#toggles), with no |E_t| or heap-sift term at all —
        // the payoff of delta-native stepping in the paper's sparse,
        // slow-churn regimes.
        delta.begin_round();
        self.advance(Some(delta));
        if !self.synced {
            delta.record_full(self.alive.iter().map(|&e| edge_pair(e)));
            self.synced = true;
        }
    }

    fn has_native_deltas(&self) -> bool {
        true
    }

    fn rebase_deltas(&mut self) {
        self.synced = false;
    }

    fn reset(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(mix_seed(seed, 0x5BA5));
        self.round = 0;
        self.synced = false;
        self.alive.clear();
        self.slots.fill(OFF);
        self.events.clear();
        // Scan every pair: Bernoulli(alpha) membership plus the draw of
        // its first toggle, O(n²) draws that keep the realizations
        // byte-pinned. Only toggles that can fall due inside the first
        // window are scheduled now; the checkpoints let `replay_scan`
        // schedule the rest.
        self.checkpoints.clear();
        let alpha = self.chain.stationary_on();
        // A local stream, handed back below: `scan_pair` borrows `self`.
        let mut rng = self.rng.clone();
        for e in 0..pair_count(self.n) {
            if e % CHECKPOINT_PAIRS == 0 {
                self.checkpoints.push(rng.clone());
            }
            let (on, first) = self.scan_pair(&mut rng, alpha);
            if on {
                self.turn_on(e);
            }
            if let Ok(dt) = first {
                self.events.push(0, dt, e);
            }
        }
        self.rng = rng;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dg_stats::Summary;

    #[test]
    fn toggle_holding_times_geometric() {
        // With q = 0.5 an on-edge lives on average 2 rounds.
        let n = 16;
        let mut g = SparseTwoStateEdgeMeg::stationary(n, 0.5, 0.5, 3).unwrap();
        let edge = 0u64;
        let mut on_runs = Vec::new();
        let mut current = 0u32;
        for _ in 0..4000 {
            let snap = g.step();
            let (u, v) = edge_pair(edge);
            if snap.has_edge(u, v) {
                current += 1;
            } else if current > 0 {
                on_runs.push(current as f64);
                current = 0;
            }
        }
        let s: Summary = on_runs.into_iter().collect();
        assert!(s.len() > 100);
        assert!((s.mean() - 2.0).abs() < 0.4, "mean on-run {}", s.mean());
    }

    #[test]
    fn alive_bookkeeping_consistent() {
        let mut g = SparseTwoStateEdgeMeg::stationary(20, 0.2, 0.4, 9).unwrap();
        for _ in 0..50 {
            let snap = g.step();
            assert_eq!(snap.edge_count(), g.alive_count());
        }
    }

    #[test]
    fn rejects_zero_rates() {
        assert!(SparseTwoStateEdgeMeg::stationary(10, 0.0, 0.5, 0).is_err());
        assert!(SparseTwoStateEdgeMeg::stationary(10, 0.5, 0.0, 0).is_err());
    }

    /// FNV-style fold of the first `rounds` snapshots — a fingerprint of
    /// the exact realization (edge sets *and* their order).
    fn realization_fingerprint(n: usize, p: f64, q: f64, seed: u64, rounds: usize) -> u64 {
        let mut g = SparseTwoStateEdgeMeg::stationary(n, p, q, seed).unwrap();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..rounds {
            let snap = g.step();
            for (u, v) in snap.edges() {
                h ^= ((u as u64) << 32) | v as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
            h ^= snap.edge_count() as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    #[test]
    fn realizations_pinned_across_refactors() {
        // These fingerprints were captured from the original
        // binary-heap event queue; the calendar queue (and any future
        // event-store change) must reproduce the exact same draws.
        assert_eq!(
            realization_fingerprint(32, 0.05, 0.1, 7, 200),
            0x4c0a_ad31_b1ee_a9bf
        );
        assert_eq!(
            realization_fingerprint(64, 1.0 / 64.0, 0.3, 42, 500),
            0x502f_3ce9_220a_e609
        );
        assert_eq!(
            realization_fingerprint(128, 1.0 / 128.0, 0.02, 3, 300),
            0x9d96_3269_b099_2de9
        );
    }

    /// The float-ceiling expression [`geometric_at`] replaced, kept as
    /// its oracle.
    fn geometric_at_float_ceil(u: f64, log1m: f64) -> u64 {
        let k = (u.ln() / log1m).ceil();
        (k as u64).max(1)
    }

    #[test]
    fn integer_ceiling_matches_float_ceiling() {
        // ~10^8 seeded uniforms in release (10^6 in debug builds, where
        // the same loop takes minutes), half drawn as the samplers draw
        // them and half log-uniform down to f64::MIN_POSITIVE, over rates
        // from 1e-16 to 1 − 1e-12; then every `(1−r)^k` boundary within
        // ±4 ulps, and the largest draw an admitted rate can make.
        let per_rate: u64 = if cfg!(debug_assertions) {
            10_000
        } else {
            1_000_000
        };
        let small =
            std::iter::successors(Some(1e-16_f64), |r| Some(r * 1.6)).take_while(|&r| r < 0.9);
        let near_one = (1..=12).map(|k| 1.0 - 10f64.powi(-k));
        let rates: Vec<f64> = small.chain(near_one).collect();
        assert!(rates.len() >= 90, "{} rates", rates.len());
        let mut rng = SmallRng::seed_from_u64(0xCE11);
        let mut checked = 0u64;
        for &rate in &rates {
            assert!(check_rates(rate, 0.5).is_ok(), "rate {rate}");
            let log1m = (1.0 - rate).ln();
            let mut check = |u: f64| {
                assert_eq!(
                    geometric_at(u, log1m),
                    geometric_at_float_ceil(u, log1m),
                    "rate {rate}, u {u:e}"
                );
                checked += 1;
            };
            for _ in 0..per_rate / 2 {
                check(rng.gen_range(f64::MIN_POSITIVE..1.0));
                let scale = 2f64.powi(-rng.gen_range(0..1022));
                check(rng.gen_range(f64::MIN_POSITIVE..1.0) * scale + f64::MIN_POSITIVE);
            }
            // u = (1−r)^k is where the ceiling steps from k to k + 1.
            let ks = (1..=64u64).chain((0..40).map(|e| 1u64 << (e + 7)));
            for k in ks {
                let boundary = (k as f64 * log1m).exp();
                if boundary < f64::MIN_POSITIVE {
                    break;
                }
                for ulps in -4i64..=4 {
                    let u = f64::from_bits((boundary.to_bits() as i64 + ulps) as u64);
                    if (f64::MIN_POSITIVE..1.0).contains(&u) {
                        check(u);
                    }
                }
            }
        }
        assert!(checked >= rates.len() as u64 * per_rate);
        // The smallest admitted rate: `1 − r` rounds to `1 − 2⁻⁵³`, the
        // largest `f64` below 1, so `ln(1 − r)` has its smallest
        // magnitude, and the smallest uniform makes the largest draw —
        // still below 2^63, where the i64 conversion is exact.
        let rate = 2f64.powi(-54) * (1.0 + 1e-9);
        assert!(check_rates(rate, 0.5).is_ok());
        let log1m = (1.0 - rate).ln();
        assert_eq!(1.0 - rate, 1.0 - f64::EPSILON / 2.0);
        let largest = f64::MIN_POSITIVE.ln() / log1m;
        assert!(largest < 2f64.powi(63), "largest draw {largest:e}");
        assert_eq!(
            geometric_at(f64::MIN_POSITIVE, log1m),
            geometric_at_float_ceil(f64::MIN_POSITIVE, log1m)
        );
        // u = 0 (a window cut that underflowed) saturates on both.
        assert_eq!(geometric_at(0.0, log1m), u64::MAX);
        assert_eq!(geometric_at_float_ceil(0.0, log1m), u64::MAX);
    }

    /// The `f64` `steps` ulps above (below, if negative) the positive `x`.
    fn ulps_from(x: f64, steps: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + steps) as u64)
    }

    #[test]
    fn table_draws_match_geometric_at() {
        // The rates the lane model tables: the served cell's α and q, the
        // direct sweep's eight q cells, t14's setup αs (p = 1/n, q =
        // 0.005, n = 2^11..2^14), the smallest and largest tabled rates,
        // and rates near 1.
        let alpha = |p: f64, q: f64| p / (p + q);
        let step = 64f64.powf(1.0 / 7.0);
        let grid_q = std::iter::successors(Some(0.01_f64), |q| Some(q * step)).take(8);
        let t14 = (11..=14).map(|e| alpha(1.0 / (1u64 << e) as f64, 0.005));
        // Tables only shrink as the rate grows, so bisect on the bits.
        let tabled = |rate: f64| !Geometric::new(rate).lower.is_empty();
        let (mut lo, mut hi) = (1e-3_f64, 1e-2_f64);
        assert!(!tabled(lo) && tabled(hi));
        while hi.to_bits() - lo.to_bits() > 1 {
            let mid = f64::from_bits((lo.to_bits() + hi.to_bits()) / 2);
            *if tabled(mid) { &mut hi } else { &mut lo } = mid;
        }
        let (smallest, largest) = (hi, 1.0 - f64::EPSILON / 2.0);
        assert!((147.0..149.0).contains(&(1.0 / smallest)), "{smallest}");
        let near_one = [0.5, 0.9, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12];
        let rates: Vec<f64> = [alpha(1.5 / 4096.0, 0.01), 0.01]
            .into_iter()
            .chain(grid_q)
            .chain(t14)
            .chain([smallest, largest])
            .chain(near_one)
            .collect();
        // ~10^8 seeded uniforms in release (10^6 in debug builds, as in
        // `integer_ceiling_matches_float_ceiling`): half drawn as the
        // samplers draw them, half log-uniform down past the floor.
        let per_rate = if cfg!(debug_assertions) {
            1_000_000
        } else {
            100_000_000
        } / rates.len() as u64;
        let mut rng = SmallRng::seed_from_u64(0x7AB1E);
        for &rate in &rates {
            let s = Geometric::new(rate);
            let count = s.lower.len() - 1;
            assert!((1..=MAX_THRESHOLDS).contains(&count), "rate {rate}");
            assert!(s.guide.len() <= 42 << 8, "{} guide entries", s.guide.len());
            // No guide bucket holds two thresholds.
            let bucket = |x: f64| x.to_bits() >> s.shift;
            assert!(s.lower[1..].windows(2).all(|w| bucket(w[0]) > bucket(w[1])));
            let check = |u: f64| {
                let k = s.tabled(u);
                if let Some(k) = k {
                    assert_eq!(k, geometric_at(u, s.log1m), "rate {rate}, u {u:e}");
                }
                k.is_some()
            };
            let mut hits = 0;
            for _ in 0..per_rate / 2 {
                hits += check(rng.gen_range(f64::MIN_POSITIVE..1.0)) as u64;
                let scale = 2f64.powi(-rng.gen_range(0..44));
                check(rng.gen_range(f64::MIN_POSITIVE..1.0) * scale);
            }
            // The table cannot pass on the fallback alone.
            assert!(
                hits as f64 >= 0.9999 * (per_rate / 2) as f64,
                "rate {rate}: {hits} of {} draws tabled",
                per_rate / 2
            );
            // Every threshold T_k ± 4 ulps, where the ceiling steps.
            for k in 1..=count {
                let t = (k as f64 * s.log1m).exp();
                for ulps in -4..=4 {
                    check(ulps_from(t, ulps));
                }
            }
            // Every band edge ± 1 ulp; `lower[K]` is the floor.
            for k in 1..=count {
                for edge in [s.lower[k], s.lower[k - 1] * SHRINK] {
                    for ulps in -1..=1 {
                        check(ulps_from(edge, ulps));
                    }
                }
            }
            assert!(
                check(s.floor) && !check(ulps_from(s.floor, -1)),
                "rate {rate}"
            );
            assert!(!check(f64::MIN_POSITIVE));
            // A draw is the same value from the same uniform as `geometric`.
            let mut twin = rng.clone();
            for _ in 0..10_000 {
                assert_eq!(s.draw(&mut rng), geometric(&mut twin, rate, s.log1m));
            }
        }
        // Below the smallest tabled rate every draw takes the logarithm,
        // and a rate of 1 returns 1 without drawing.
        assert!(!tabled(ulps_from(smallest, -1)) && !tabled(1.5 / 4096.0));
        let mut twin = rng.clone();
        assert_eq!(Geometric::new(1.0).draw(&mut rng), 1);
        assert_eq!(rng.gen::<u64>(), twin.gen::<u64>());
    }

    #[test]
    fn window_cut_never_drops_a_due_toggle() {
        // `geometric_at` is non-increasing in `u`, so every uniform below
        // the cut draws at least the cut's own value — which must be at
        // or past the window for every rate, tiny to nearly one.
        let near_one = [0.9, 0.99, 0.999_999, 1.0 - 1e-12, 1.0 - f64::EPSILON];
        let grid =
            std::iter::successors(Some(1e-15_f64), |r| Some(r * 1.37)).take_while(|&r| r < 1.0);
        for rate in grid.chain(near_one) {
            let log1m = (1.0 - rate).ln();
            let cut = window_cut(log1m);
            assert!(
                geometric_at(cut, log1m) >= FIRST_WINDOW,
                "rate {rate}: cut {cut} admits a toggle due inside the window"
            );
        }
    }

    #[test]
    fn scan_replays_at_most_once_per_reset() {
        // n = 100 spans two checkpoints (4950 pairs).
        let mut g = SparseTwoStateEdgeMeg::stationary(100, 0.02, 0.1, 1).unwrap();
        for _ in 0..FIRST_WINDOW - 1 {
            let _ = g.step();
        }
        assert_eq!(g.replays, 0, "no replay before the window closes");
        let _ = g.step();
        assert_eq!(g.replays, 1);
        assert!(g.checkpoints.is_empty());
        for _ in 0..500 {
            let _ = g.step();
        }
        assert_eq!(g.replays, 1, "one replay per reset, however long the run");
        // A reset mid-run re-arms exactly one replay; a run that stops
        // inside the window never pays for one.
        g.reset(2);
        assert_eq!(g.checkpoints.len(), 2);
        for _ in 0..10 {
            let _ = g.step();
        }
        g.reset(3);
        let mut delta = EdgeDelta::new();
        for _ in 0..3 * FIRST_WINDOW {
            g.step_delta(&mut delta);
        }
        assert_eq!(g.replays, 2);
    }

    #[test]
    fn calendar_capacity_tracks_pending_events() {
        // Each bucket holds the events due at its round and no more: a
        // long run must not leave every bucket sized for a whole round of
        // toggles, which a reset (clearing, not freeing) would then keep.
        // Here nearly every pair has one pending event within the
        // horizon, ~8 a bucket; a round toggles ~240.
        let n = 256;
        let mut g = SparseTwoStateEdgeMeg::stationary(n, 1.5 / n as f64, 0.01, 0xCA1).unwrap();
        for _ in 0..10_000 {
            g.advance(None);
        }
        g.reset(0xCA2);
        let held: usize = g.events.buckets.iter().map(Vec::capacity).sum();
        assert!(
            held <= 2 * pair_count(n) as usize + 4 * HORIZON as usize,
            "buckets hold {held} entries for {} pairs",
            pair_count(n)
        );
    }

    #[test]
    fn calendar_handles_far_future_events() {
        // p and q tiny: almost every toggle is scheduled beyond the
        // calendar horizon and must flow through the overflow sweep.
        let n = 24;
        let mut g = SparseTwoStateEdgeMeg::stationary(n, 1e-4, 1e-4, 11).unwrap();
        let mut total = 0usize;
        for _ in 0..30_000 {
            total += g.step().edge_count();
        }
        // Stationary density 0.5: the time average must stay close, which
        // fails loudly if overflow events are ever lost or duplicated.
        let expected = 0.5 * pair_count(n) as f64;
        let mean = total as f64 / 30_000.0;
        assert!((mean / expected - 1.0).abs() < 0.2, "mean = {mean}");
        for _ in 0..30_000 {
            let snap = g.step();
            assert_eq!(snap.edge_count(), g.alive_count());
        }
    }

    #[test]
    fn reset_reproducible() {
        let mut g = SparseTwoStateEdgeMeg::stationary(24, 0.1, 0.2, 5).unwrap();
        g.reset(42);
        let a: Vec<_> = g.step().edges().collect();
        g.reset(42);
        let b: Vec<_> = g.step().edges().collect();
        assert_eq!(a, b);
    }

    /// χ² statistic of round-0 on-edge counts over `buckets` equal slices
    /// of the pair index, aggregated over `seeds` independent instances
    /// of density `alpha`. Each bucket count is an independent
    /// Binomial(slice · seeds, α), so the statistic is ≈ χ² with
    /// `buckets` degrees of freedom.
    pub(crate) fn init_chi_square<G: EvolvingGraph>(
        make: impl Fn(u64) -> G,
        alpha: f64,
        seeds: u64,
    ) -> f64 {
        let n = make(0).node_count();
        let pairs = pair_count(n);
        let buckets = 16u64;
        let slice = pairs / buckets;
        let mut counts = vec![0u64; buckets as usize];
        for seed in 0..seeds {
            let mut g = make(seed);
            // E_0 is the seeded set stepped once; a stationary chain
            // stepped once is still stationary, so α bands apply as-is.
            let snap = g.step();
            for (u, v) in snap.edges() {
                let e = crate::edge_index(u, v);
                if e < slice * buckets {
                    counts[(e / slice) as usize] += 1;
                }
            }
        }
        let trials = (slice as f64) * seeds as f64;
        let exp = trials * alpha;
        let var = trials * alpha * (1.0 - alpha);
        counts
            .iter()
            .map(|&c| {
                let d = c as f64 - exp;
                d * d / var
            })
            .sum()
    }

    #[test]
    fn init_distribution_passes_chi_square() {
        // 16 degrees of freedom: mean 16, sd √32 ≈ 5.7. 50 is ≈ 6σ —
        // deterministic seeds make this a fixed, regression-pinning
        // check that the scan spreads on-edges uniformly over the pair
        // index (the lane model's half lives in `sharded.rs`).
        let (n, p, q) = (64, 0.1, 0.3);
        let make = |s| SparseTwoStateEdgeMeg::stationary(n, p, q, s).unwrap();
        let chi = init_chi_square(make, p / (p + q), 25);
        assert!(chi < 50.0, "exact-scan χ² = {chi}");
    }

    /// Asserts that the round-0 degrees of `seeds` instances of `make`
    /// have the Binomial(n-1, α) mean and variance of stationarity.
    pub(crate) fn assert_degree_moments<G: EvolvingGraph>(
        make: impl Fn(u64) -> G,
        alpha: f64,
        seeds: u64,
    ) {
        let (mut sum, mut sum_sq, mut count) = (0.0, 0.0, 0.0);
        let mut n = 0;
        for seed in 0..seeds {
            let mut g = make(seed);
            n = g.node_count();
            let snap = g.step();
            for u in 0..n as u32 {
                let d = snap.degree(u) as f64;
                sum += d;
                sum_sq += d * d;
                count += 1.0;
            }
        }
        let (mean, var) = (sum / count, sum_sq / count - (sum / count).powi(2));
        let expect_mean = (n - 1) as f64 * alpha;
        let expect_var = expect_mean * (1.0 - alpha);
        assert!(
            (mean / expect_mean - 1.0).abs() < 0.05,
            "degree mean {mean} vs {expect_mean}"
        );
        assert!(
            (var / expect_var - 1.0).abs() < 0.15,
            "degree variance {var} vs {expect_var}"
        );
    }

    #[test]
    fn init_distribution_matches_degree_moments() {
        let (n, p, q) = (64, 0.1, 0.3);
        let make = |s| SparseTwoStateEdgeMeg::stationary(n, p, q, s).unwrap();
        assert_degree_moments(make, p / (p + q), 30);
    }

    #[test]
    fn lazy_models_reject_rates_the_sampler_cannot_resolve() {
        // 1 - 1e-17 rounds to 1, so ln(1 - r) = 0 and every geometric
        // draw would be 1; 1e-16 still leaves ln(1 - r) < 0.
        for (p, q) in [(1e-17, 0.5), (0.5, 1e-17)] {
            assert!(check_rates(p, q).is_err(), "p = {p}, q = {q}");
            assert!(SparseTwoStateEdgeMeg::stationary(64, p, q, 1).is_err());
            assert!(crate::ShardedSparseEdgeMeg::stationary(64, p, q, 1).is_err());
        }
        for (p, q) in [(1e-16, 0.5), (0.5, 1e-16)] {
            assert!(check_rates(p, q).is_ok(), "p = {p}, q = {q}");
            assert!(SparseTwoStateEdgeMeg::stationary(64, p, q, 1).is_ok());
            assert!(crate::ShardedSparseEdgeMeg::stationary(64, p, q, 1).is_ok());
        }
    }
}
