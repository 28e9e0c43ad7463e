//! A linear-probe hash set of pair indices, hashed by position in a
//! known key range.
//!
//! Each lane of [`crate::ShardedSparseEdgeMeg`] tracks one occupancy
//! entry per on-pair (a dying pair is retired from the set), and every
//! trial reset re-indexes the whole on-set. `std::collections::HashSet`'s
//! SipHash plus per-entry overhead would make those inserts the dominant
//! term of trial setup at large `n`, so this set trades generality for
//! what the occupancy store needs:
//!
//! * **`u64` keys** (triangular pair indices, below `2^63` for any pair
//!   of `u32` node ids) from one range `[start, end)`, fixed when the
//!   set is built: a lane owns a contiguous slice of the pair index.
//!   Keys outside the range are not supported.
//! * **A range hash.** A key's home slot is its relative position in the
//!   range scaled onto the whole table, `((key − start)·scale) >> 60`
//!   with `scale = cap·2⁶⁰/span`. The hash preserves key order, so the
//!   ascending walks of a lane (reset's one-pass rebuild, the birth
//!   sweep's lookups) move through the table front to back. Order is
//!   no hazard here: every pair of a lane is on independently with the
//!   same law at every round, so the tracked keys are a uniform random
//!   subset of the range, spread evenly over all the slots, and expected
//!   probe lengths are at most those of random hashing at the same load.
//!   That needs the range spread over *every* slot, also when the table
//!   has more slots than the range has keys (a lane with most pairs on,
//!   or a tiny lane): hence 4 integer bits in the scale. A scale capped
//!   at one slot per key would pack a dense lane's keys into the first
//!   `span` slots, where most of them form one run, and every
//!   backward-shift delete would scan the run.
//! * **A flat key array of any length**, 8 bytes a slot: the range hash
//!   needs no power of two, so the table is sized at 2.25 slots per
//!   expected entry and probes wrap past its end by a compare, not a
//!   mask.
//! * **Backward-shift deletion** (no tombstone rot under the
//!   retire-on-death workload).
//!
//! The set is never iterated, so realizations cannot depend on its
//! layout; the randomized property tests pin its semantics against
//! `std::collections::HashSet`.

use std::ops::Range;

/// Sentinel key marking an empty slot.
const EMPTY: u64 = u64::MAX;

/// A set of pair indices (`key < u64::MAX`) from one range, stored by
/// open addressing.
#[derive(Debug, Clone)]
pub(crate) struct PairSet {
    /// Slot keys; `EMPTY` marks a free slot.
    keys: Vec<u64>,
    /// First key of the hashed range.
    start: u64,
    /// Keys in the hashed range (at least 1).
    span: u64,
    /// Maps `key − start` onto the table (see [`PairSet::scale_for`]).
    scale: u64,
    len: usize,
}

impl PairSet {
    const MIN_CAPACITY: usize = 16;
    /// Fraction bits of the range hash's scale.
    const SCALE_BITS: u32 = 60;

    /// An empty set for keys in `range`.
    pub(crate) fn new(range: Range<u64>) -> Self {
        let cap = Self::MIN_CAPACITY;
        let span = range.end.saturating_sub(range.start).max(1);
        PairSet {
            keys: vec![EMPTY; cap],
            start: range.start,
            span,
            scale: Self::scale_for(cap, span),
            len: 0,
        }
    }

    /// Slots for `expected` entries: 2.25 an entry, a load of 4/9, where
    /// random hashing scans ~2.1 slots for a miss. The table grows past
    /// 5/8 load (~3.8 slots a miss), so up to 1.4 times `expected` fits:
    /// a lane sized for its on-set also holds a round's births, which
    /// join before its deaths retire (`1 + q` times the on-set in
    /// expectation).
    fn capacity_for(expected: usize) -> usize {
        (expected * 9).div_ceil(4).max(Self::MIN_CAPACITY)
    }

    /// `cap·2⁶⁰/span`, rounded down: slots per key of the range as a
    /// fixed-point number with [`Self::SCALE_BITS`] fraction bits, so the
    /// home of every key `start + o`, `o < span`, is below `cap`. Tables
    /// of up to 16 slots per key are spread exactly; past that (in a
    /// lane, only a one-key range in a minimum-size table) the scale
    /// saturates at `u64::MAX`, and homes stay below `16·span ≤ cap`.
    fn scale_for(cap: usize, span: u64) -> u64 {
        (((cap as u128) << Self::SCALE_BITS) / span as u128).min(u64::MAX as u128) as u64
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Slots in the table: its memory is 8 bytes a slot.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Range hash: the key's position in the range, scaled onto the
    /// table. In range, the product stays below `cap·2⁶⁰`.
    #[inline]
    fn home(&self, key: u64) -> usize {
        let offset = key.wrapping_sub(self.start);
        debug_assert!(offset < self.span, "key {key} outside the range");
        ((offset as u128 * self.scale as u128) >> Self::SCALE_BITS) as usize
    }

    /// The slot after `i`, wrapping past the table's end.
    #[inline]
    fn next(&self, i: usize) -> usize {
        let i = i + 1;
        if i == self.keys.len() {
            0
        } else {
            i
        }
    }

    /// The slot holding `key`, or the free slot that ends its probe run.
    #[inline]
    fn find(&self, key: u64) -> usize {
        debug_assert_ne!(key, EMPTY);
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key || k == EMPTY {
                return i;
            }
            i = self.next(i);
        }
    }

    #[cfg(test)]
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.keys[self.find(key)] == key
    }

    /// Adds `key`; returns whether it was absent (one probe run either
    /// way, as the birth sweep needs).
    #[inline]
    pub(crate) fn insert(&mut self, key: u64) -> bool {
        let mut i = self.find(key);
        if self.keys[i] == key {
            return false;
        }
        // Grow past 5/8 load: linear probe runs stay a few slots long,
        // and the resize cost amortizes over the fill.
        if (self.len + 1) * 8 > self.keys.len() * 5 {
            self.grow();
            i = self.find(key);
        }
        self.keys[i] = key;
        self.len += 1;
        true
    }

    /// Removes `key` if present, with backward-shift deletion (the
    /// probe runs stay dense; no tombstones to sweep later).
    pub(crate) fn remove(&mut self, key: u64) {
        let i = self.find(key);
        if self.keys[i] == EMPTY {
            return;
        }
        self.len -= 1;
        // Shift successors back over the hole until the run ends.
        let mut hole = i;
        let mut j = i;
        loop {
            j = self.next(j);
            let k = self.keys[j];
            if k == EMPTY {
                break;
            }
            // The entry at j may fill the hole only if its home position
            // does not lie cyclically within (hole, j] — otherwise
            // moving it would break its own probe run.
            let home = self.home(k);
            let reachable = if hole <= j {
                home > hole && home <= j
            } else {
                home > hole || home <= j
            };
            if !reachable {
                self.keys[hole] = k;
                hole = j;
            }
        }
        self.keys[hole] = EMPTY;
    }

    /// Replaces the set's contents with `keys`, ascending and in the
    /// range, sized for at least `reserve` entries and keeping any larger
    /// capacity (the reset path: the lane's alive list, indexed in one
    /// pass).
    ///
    /// The range hash is monotone in the key, so ascending keys fill the
    /// table front to back: each key lands at `max(home, cursor)`, the
    /// first slot at or past its home that the keys before it left free,
    /// with no probe read. That is a valid probe layout: the slots between
    /// a key's home and its slot hold the run of smaller keys it queued
    /// behind. Keys whose run reaches past the last slot go through
    /// [`PairSet::insert`], which wraps to the front. The free slots are
    /// marked by one bulk fill first: writing each gap as the pass reaches
    /// it costs a data-dependent loop per key, measured ~2.5× slower on
    /// the served flooding cell's lanes.
    pub(crate) fn rebuild(&mut self, mut keys: impl ExactSizeIterator<Item = u64>, reserve: usize) {
        let cap = Self::capacity_for(keys.len().max(reserve)).max(self.keys.len());
        if cap > self.keys.len() {
            self.keys = vec![EMPTY; cap];
        } else {
            self.keys.fill(EMPTY);
        }
        self.scale = Self::scale_for(cap, self.span);
        self.len = 0;
        let mut cursor = 0;
        for key in &mut keys {
            let slot = self.home(key).max(cursor);
            if slot == cap {
                // This run, and every later key's, reaches past the end.
                self.insert(key);
                break;
            }
            self.keys[slot] = key;
            self.len += 1;
            cursor = slot + 1;
        }
        for key in keys {
            self.insert(key);
        }
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        self.scale = Self::scale_for(new_cap, self.span);
        self.len = 0;
        for k in keys {
            if k != EMPTY {
                self.insert(k);
            }
        }
    }

    /// Mean distance of the stored entries from their home slots (0 for
    /// an empty set): the expected extra probes of a successful lookup.
    #[cfg(test)]
    pub(crate) fn mean_displacement(&self) -> f64 {
        let cap = self.keys.len();
        let total: usize = (0..cap)
            .filter(|&i| self.keys[i] != EMPTY)
            .map(|i| (i + cap - self.home(self.keys[i])) % cap)
            .sum();
        total as f64 / self.len.max(1) as f64
    }

    /// Mean slots a lookup of an absent key scans, over all home slots:
    /// 1 plus the rest of the run of full slots it starts in. Random
    /// hashing at load `a` gives `(1 + 1/(1 − a)²)/2`, 2.5 at 1/2 load;
    /// it is also what a backward-shift delete scans.
    #[cfg(test)]
    pub(crate) fn mean_miss_probes(&self) -> f64 {
        let cap = self.keys.len();
        let free = (0..cap)
            .find(|&i| self.keys[i] == EMPTY)
            .expect("load <= 1/2");
        // Walk backwards from a free slot: a full slot scans one more
        // than its successor.
        let (mut total, mut next) = (0usize, 1usize);
        for step in 0..cap {
            let i = (free + cap - step) % cap;
            next = if self.keys[i] == EMPTY { 1 } else { next + 1 };
            total += next;
        }
        total as f64 / cap as f64
    }

    /// Stored entries whose probe run wrapped past the table's end.
    #[cfg(test)]
    fn wrapped(&self) -> usize {
        (0..self.keys.len())
            .filter(|&i| self.keys[i] != EMPTY && i < self.home(self.keys[i]))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    #[test]
    fn basic_ops() {
        let mut s = PairSet::new(0..100);
        assert!(!s.contains(3));
        assert!(s.insert(3));
        assert!(s.insert(4));
        assert!(s.contains(3) && s.contains(4));
        assert_eq!(s.len(), 2);
        assert!(!s.insert(3), "already present");
        assert_eq!(s.len(), 2);
        s.remove(3);
        assert!(!s.contains(3));
        assert_eq!(s.len(), 1);
        s.remove(3); // absent: no-op
        assert_eq!(s.len(), 1);
        s.rebuild(std::iter::empty(), 1);
        assert_eq!(s.len(), 0);
        assert!(!s.contains(4));
    }

    #[test]
    fn rebuild_sizes_once_and_keeps_a_larger_capacity() {
        let mut s = PairSet::new(0..1000);
        s.rebuild((0..10u32).map(|k| k as u64 * 7), 100);
        assert_eq!(s.capacity(), 225, "sized for the reserve");
        for k in 10..140u64 {
            s.insert(k * 7);
        }
        assert_eq!(s.capacity(), 225, "5/8 load at 140 entries: no growth");
        s.insert(140 * 7);
        assert_eq!(s.capacity(), 450, "past 5/8 load: doubled");
        s.rebuild((0..3u32).map(|k| k as u64 * 300), 10);
        assert_eq!(s.capacity(), 450, "a larger capacity is kept");
        assert_eq!(s.keys.iter().filter(|&&k| k != EMPTY).count(), 3);
        assert_eq!((s.len(), s.contains(7), s.contains(600)), (3, false, true));
        assert_eq!((s.start, s.span), (0, 1000), "the range is kept");
        // Past the reserve, the table is sized for the keys.
        s.rebuild((0..300u32).map(u64::from), 10);
        assert_eq!((s.capacity(), s.len(), s.contains(299)), (675, 300, true));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut s = PairSet::new(0..10_000);
        for k in 0..10_000u64 {
            assert!(s.insert(k));
        }
        assert_eq!(s.len(), 10_000);
        assert!((0..10_000u64).all(|k| s.contains(k)));
        // The whole range is on: the range hash puts every key at its
        // home, with no probing at all.
        assert_eq!(s.mean_displacement(), 0.0);
    }

    #[test]
    fn wide_keys_past_u32() {
        // Million-node pair indices live well past u32::MAX; the hash
        // must spread them and lookups must stay exact.
        let mut s = PairSet::new(0..510_000_000_000);
        let base = 499_999_500_000u64; // ~pair_count(10^6)
        for i in 0..5_000u64 {
            s.insert(base + i * 997);
        }
        for i in 0..5_000u64 {
            assert!(s.contains(base + i * 997), "key offset {i}");
        }
        assert!(!s.contains(base + 1));
    }

    /// The key layouts [`randomized_against_std_hashset`] hammers: keys
    /// drawn from the set's range.
    #[derive(Debug, Clone, Copy)]
    enum Keys {
        /// Uniform over the whole range (the lane workload).
        Uniform,
        /// A small sub-range at the top of the range: every home is near
        /// the last slot, so runs grow long and wrap around to slot 0.
        ClusteredAtTop,
        /// A small sub-range in the middle: long runs without a wrap.
        ClusteredInside,
    }

    #[test]
    fn randomized_against_std_hashset() {
        // The backward-shift deletion is the subtle part: hammer it with
        // random interleaved insert/remove/contains/rebuild and demand
        // exact agreement with std's HashSet at every step. Tables are
        // grown from 16 slots and rebuilt at 2.25 slots a key, so they
        // are not powers of two after a rebuild.
        let mut rng = SmallRng::seed_from_u64(0x9A1);
        let mut wrapped = 0usize;
        for round in 0..90 {
            let layout = [Keys::Uniform, Keys::ClusteredAtTop, Keys::ClusteredInside][round % 3];
            // Half the rounds run in the high-key region to exercise
            // 64-bit offsets.
            let base = if round % 6 < 3 { 0 } else { u64::MAX / 3 };
            let span = (1u64 << (4 + round % 17)) + round as u64;
            let cluster = (1u64 << (2 + round % 8)).min(span);
            let keys = match layout {
                Keys::Uniform => base..base + span,
                Keys::ClusteredAtTop => base + span - cluster..base + span,
                Keys::ClusteredInside => {
                    base + span / 2..(base + span / 2 + cluster).min(base + span)
                }
            };
            let mut ours = PairSet::new(base..base + span);
            let mut reference: HashSet<u64> = HashSet::new();
            for _ in 0..2_000 {
                let key = rng.gen_range(keys.clone());
                match rng.gen_range(0..10) {
                    0..=4 => assert_eq!(ours.insert(key), reference.insert(key)),
                    5..=7 => {
                        ours.remove(key);
                        reference.remove(&key);
                    }
                    8 => assert_eq!(ours.contains(key), reference.contains(&key)),
                    _ => {
                        if rng.gen_range(0..50) == 0 {
                            let count = rng.gen_range(0..64);
                            let fresh = ascending(&mut rng, keys.clone(), count);
                            ours.rebuild(fresh.iter().copied(), rng.gen_range(0..64));
                            reference = fresh.into_iter().collect();
                        }
                    }
                }
                assert_eq!(ours.len(), reference.len());
            }
            wrapped += (ours.wrapped() > 0) as usize;
            for &k in &reference {
                assert!(ours.contains(k), "round {round} ({layout:?}) key {k}");
            }
        }
        assert!(
            wrapped >= 10,
            "only {wrapped} runs ended with a probe run past the table end"
        );
    }

    /// Up to `count` distinct keys drawn uniformly from `range`, ascending.
    fn ascending(rng: &mut SmallRng, range: Range<u64>, count: usize) -> Vec<u64> {
        let mut keys: Vec<u64> = (0..count).map(|_| rng.gen_range(range.clone())).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    #[test]
    fn rebuild_then_ops_against_std_hashset() {
        // A one-pass rebuild must leave a table that every later
        // operation reads and edits as if the keys had been inserted one
        // by one: rebuild from random ascending keys, check every entry,
        // then random insert/remove/contains against std's HashSet.
        // Lanes: sparse and dense ones, and tiny lanes whose upper part
        // is dense, so the last run of the ascending fill wraps past the
        // table end. Spans are not powers of two, and neither are the
        // tables the rebuild sizes.
        let mut rng = SmallRng::seed_from_u64(0x0B1D);
        let mut wrapped_rebuilds = 0;
        for round in 0..400 {
            let base = if round % 2 == 0 { 0 } else { u64::MAX / 3 };
            let span = (1u64 << (3 + round % 11)) + (round as u64 % 7);
            // Every other tiny lane is on only in its top quarter, and
            // densely there, in a table sized for its keys alone.
            let top = span <= 70 && round % 8 < 4;
            let density = if top {
                [0.9, 1.0][round % 2]
            } else {
                [0.02, 0.3, 0.9, 1.0][round % 4]
            };
            let from = if top {
                base + span - span / 4..base + span
            } else {
                base..base + span
            };
            let width = from.end - from.start;
            let count = ((width as f64 * density) as usize).max(1);
            let keys = if density == 1.0 {
                from.clone().collect()
            } else {
                ascending(&mut rng, from.clone(), count)
            };
            let mut ours = PairSet::new(base..base + span);
            // Start from a used table now and then: the rebuild must
            // overwrite whatever the slots held.
            if round % 3 == 0 {
                for k in ascending(&mut rng, base..base + span, 40) {
                    ours.insert(k);
                }
            }
            let reserve = if top {
                0
            } else {
                rng.gen_range(0..2 * keys.len())
            };
            ours.rebuild(keys.iter().copied(), reserve);
            wrapped_rebuilds += (ours.wrapped() > 0) as usize;
            let mut reference: HashSet<u64> = keys.iter().copied().collect();
            assert_eq!(ours.len(), reference.len(), "round {round}");
            for &k in &reference {
                assert!(ours.contains(k), "round {round}: key {k}");
            }
            for _ in 0..500 {
                let key = rng.gen_range(base..base + span);
                match rng.gen_range(0..3) {
                    0 => assert_eq!(ours.insert(key), reference.insert(key)),
                    1 => {
                        ours.remove(key);
                        reference.remove(&key);
                    }
                    _ => assert_eq!(ours.contains(key), reference.contains(&key)),
                }
                assert_eq!(ours.len(), reference.len(), "round {round}");
            }
            for &k in &reference {
                assert!(ours.contains(k), "round {round}: key {k}");
            }
        }
        assert!(
            wrapped_rebuilds >= 10,
            "only {wrapped_rebuilds} rebuilds ran past the table end"
        );
    }
}
