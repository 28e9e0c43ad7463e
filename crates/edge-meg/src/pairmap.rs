//! A linear-probe hash map from pair indices to `u32` slots, hashed by
//! position in a known key range.
//!
//! Each lane of [`crate::ShardedSparseEdgeMeg`] tracks one occupancy
//! entry per on-pair (a dying pair is retired from the map), and every
//! trial reset re-indexes the whole on-set. `std::collections::HashMap`'s
//! SipHash plus per-entry overhead would make those inserts the dominant
//! term of trial setup at large `n`, so this map trades generality for
//! what the occupancy store needs:
//!
//! * **`u64` keys** (triangular pair indices, below `2^63` for any pair
//!   of `u32` node ids) from one range `[start, end)`, fixed when the
//!   map is built: a lane owns a contiguous slice of the pair index.
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
//!   backward-shift delete would scan the run. Keys outside the range
//!   are still stored exactly (the home is masked onto the table); they
//!   only lose the spread.
//! * **Flat open addressing** with backward-shift deletion (no tombstone
//!   rot under the retire-on-death workload), keys and values in
//!   separate arrays: 12 bytes a slot instead of a padded 16-byte
//!   `(u64, u32)`.
//!
//! The map is never iterated, so realizations cannot depend on its
//! layout; the randomized property test pins its semantics against
//! `std::collections::HashMap`.

use std::ops::Range;

/// Sentinel key marking an empty slot.
const EMPTY: u64 = u64::MAX;

/// A `u64 -> u32` open-addressing map for pair indices (`key <
/// u64::MAX`), spread for keys in one range.
#[derive(Debug, Clone)]
pub(crate) struct PairMap {
    /// Slot keys; `EMPTY` marks a free slot. Length is always a power of
    /// two.
    keys: Vec<u64>,
    /// Slot values, meaningful where the key is not `EMPTY`.
    vals: Vec<u32>,
    /// First key of the hashed range.
    start: u64,
    /// Keys in the hashed range (at least 1).
    span: u64,
    /// Maps `key − start` onto the table (see [`PairMap::scale_for`]).
    scale: u64,
    mask: usize,
    len: usize,
}

impl PairMap {
    const MIN_CAPACITY: usize = 16;
    /// Fraction bits of the range hash's scale.
    const SCALE_BITS: u32 = 60;

    /// An empty map for keys in `range`.
    pub(crate) fn new(range: Range<u64>) -> Self {
        let cap = Self::MIN_CAPACITY;
        let span = range.end.saturating_sub(range.start).max(1);
        PairMap {
            keys: vec![EMPTY; cap],
            vals: vec![0; cap],
            start: range.start,
            span,
            scale: Self::scale_for(cap, span),
            mask: cap - 1,
            len: 0,
        }
    }

    /// Slots for `expected` entries. Plain linear probing degrades
    /// sharply past ~1/2 load, so the table keeps at least 2 slots per
    /// entry.
    fn capacity_for(expected: usize) -> usize {
        (expected * 2).next_power_of_two().max(Self::MIN_CAPACITY)
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

    /// Range hash: the key's position in the range, scaled onto the
    /// table. In range, the product stays below `cap·2⁶⁰`, so the mask
    /// only matters for keys outside it.
    #[inline]
    fn home(&self, key: u64) -> usize {
        let offset = key.wrapping_sub(self.start);
        ((offset as u128 * self.scale as u128) >> Self::SCALE_BITS) as usize & self.mask
    }

    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<u32> {
        debug_assert_ne!(key, EMPTY);
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i]);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// [`PairMap::get`] without the value: the birth sweep's lookups
    /// probe the key array alone.
    #[inline]
    pub(crate) fn contains(&self, key: u64) -> bool {
        debug_assert_ne!(key, EMPTY);
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return true;
            }
            if k == EMPTY {
                return false;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Inserts or overwrites.
    pub(crate) fn insert(&mut self, key: u64, value: u32) {
        debug_assert_ne!(key, EMPTY);
        // Grow at 1/2 load: linear probe chains stay a couple of slots
        // long, and the resize cost amortizes over the fill.
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key || k == EMPTY {
                self.len += (k == EMPTY) as usize;
                self.keys[i] = key;
                self.vals[i] = value;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Removes `key` if present, with backward-shift deletion (the
    /// probe chains stay dense; no tombstones to sweep later).
    pub(crate) fn remove(&mut self, key: u64) {
        debug_assert_ne!(key, EMPTY);
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == EMPTY {
                return;
            }
            if k == key {
                break;
            }
            i = (i + 1) & self.mask;
        }
        self.len -= 1;
        // Shift successors back over the hole until the chain ends.
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let k = self.keys[j];
            if k == EMPTY {
                break;
            }
            // The entry at j may fill the hole only if its home position
            // does not lie cyclically within (hole, j] — otherwise
            // moving it would break its own probe chain.
            let home = self.home(k);
            let reachable = if hole <= j {
                home > hole && home <= j
            } else {
                home > hole || home <= j
            };
            if !reachable {
                self.keys[hole] = k;
                self.vals[hole] = self.vals[j];
                hole = j;
            }
        }
        self.keys[hole] = EMPTY;
    }

    /// Replaces the map's contents with `keys[i] -> i` for ascending keys
    /// in the range, sized for at least `reserve` entries and keeping any
    /// larger capacity (the reset path: the lane's alive list, indexed in
    /// one pass).
    ///
    /// The range hash is monotone in the key, so ascending keys fill the
    /// table front to back: each key lands at `max(home, cursor)`, the
    /// first slot at or past its home that the keys before it left free,
    /// with no probe read. That is a valid probe layout: the slots between
    /// a key's home and its slot hold the run of smaller keys it queued
    /// behind. Keys whose run reaches past the last slot go through
    /// [`PairMap::insert`], which wraps to the front. The free slots are
    /// marked by one bulk fill first: writing each gap as the pass reaches
    /// it costs a data-dependent loop per key, measured ~2.5× slower on
    /// the served flooding cell's lanes.
    pub(crate) fn rebuild(&mut self, keys: impl ExactSizeIterator<Item = u64>, reserve: usize) {
        let cap = Self::capacity_for(keys.len().max(reserve)).max(self.keys.len());
        if cap > self.keys.len() {
            self.keys = vec![EMPTY; cap];
            self.vals = vec![0; cap];
        } else {
            // Values of free slots are never read.
            self.keys.fill(EMPTY);
        }
        self.scale = Self::scale_for(cap, self.span);
        self.mask = cap - 1;
        self.len = 0;
        let mut keys = keys.enumerate();
        let mut cursor = 0;
        for (i, key) in &mut keys {
            debug_assert!(key.wrapping_sub(self.start) < self.span);
            let slot = self.home(key).max(cursor);
            if slot == cap {
                // This run, and every later key's, reaches past the end.
                self.insert(key, i as u32);
                break;
            }
            self.keys[slot] = key;
            self.vals[slot] = i as u32;
            self.len += 1;
            cursor = slot + 1;
        }
        for (i, key) in keys {
            self.insert(key, i as u32);
        }
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let vals = std::mem::replace(&mut self.vals, vec![0; new_cap]);
        self.scale = Self::scale_for(new_cap, self.span);
        self.mask = new_cap - 1;
        self.len = 0;
        for (k, v) in keys.into_iter().zip(vals) {
            if k != EMPTY {
                self.insert(k, v);
            }
        }
    }

    /// Mean distance of the stored entries from their home slots (0 for
    /// an empty map): the expected extra probes of a successful lookup.
    #[cfg(test)]
    pub(crate) fn mean_displacement(&self) -> f64 {
        let total: usize = (0..self.keys.len())
            .filter(|&i| self.keys[i] != EMPTY)
            .map(|i| i.wrapping_sub(self.home(self.keys[i])) & self.mask)
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
            let i = (free + cap - step) & self.mask;
            next = if self.keys[i] == EMPTY { 1 } else { next + 1 };
            total += next;
        }
        total as f64 / cap as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    #[test]
    fn basic_ops() {
        let mut m = PairMap::new(0..100);
        assert_eq!(m.get(3), None);
        m.insert(3, 7);
        m.insert(4, 8);
        assert_eq!(m.get(3), Some(7));
        assert!(m.contains(4));
        assert_eq!(m.len(), 2);
        m.insert(3, 9); // overwrite
        assert_eq!(m.get(3), Some(9));
        assert_eq!(m.len(), 2);
        m.remove(3);
        assert_eq!(m.get(3), None);
        assert_eq!(m.len(), 1);
        m.remove(3); // absent: no-op
        assert_eq!(m.len(), 1);
        m.rebuild(std::iter::empty(), 1);
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(4), None);
    }

    #[test]
    fn rebuild_sizes_once_and_keeps_a_larger_capacity() {
        let mut m = PairMap::new(0..700);
        m.rebuild((0..10u32).map(|k| k as u64 * 7), 100);
        assert_eq!(m.keys.len(), 256, "sized for the reserve");
        for k in 10..100u64 {
            m.insert(k * 7, k as u32);
        }
        assert_eq!(m.keys.len(), 256, "sized for 100 entries: no growth");
        m.rebuild((0..3u32).map(|k| k as u64 * 300), 10);
        assert_eq!(m.keys.len(), 256, "a larger capacity is kept");
        assert_eq!(m.keys.iter().filter(|&&k| k != EMPTY).count(), 3);
        assert_eq!((m.len(), m.get(7), m.get(600)), (3, None, Some(2)));
        assert_eq!((m.start, m.span), (0, 700), "the range is kept");
        // Past the reserve, the table is sized for the keys.
        m.rebuild((0..300u32).map(u64::from), 10);
        assert_eq!((m.keys.len(), m.len(), m.get(299)), (1024, 300, Some(299)));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = PairMap::new(0..10_000);
        for k in 0..10_000u64 {
            m.insert(k, (k as u32).wrapping_mul(3));
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.get(k), Some((k as u32).wrapping_mul(3)), "key {k}");
        }
        assert_eq!(m.get(10_000), None);
        // The whole range is on: the range hash puts every key at its
        // home, with no probing at all.
        assert_eq!(m.mean_displacement(), 0.0);
    }

    #[test]
    fn wide_keys_past_u32() {
        // Million-node pair indices live well past u32::MAX; the hash
        // must spread them and lookups must stay exact.
        let mut m = PairMap::new(0..500_000_000_000);
        let base = 499_999_500_000u64; // ~pair_count(10^6)
        for i in 0..5_000u64 {
            m.insert(base + i * 997, i as u32);
        }
        for i in 0..5_000u64 {
            assert_eq!(m.get(base + i * 997), Some(i as u32), "key offset {i}");
        }
        assert_eq!(m.get(base + 1), None);
    }

    /// The key layouts [`randomized_against_std_hashmap`] hammers: the
    /// map's range, and the keys drawn from it.
    #[derive(Debug, Clone, Copy)]
    enum Keys {
        /// Uniform over the whole range (the lane workload).
        Uniform,
        /// A small sub-range at the top of the range: every home is the
        /// last slot, so chains run long and wrap around to slot 0.
        ClusteredAtTop,
        /// A small sub-range in the middle: long chains without a wrap.
        ClusteredInside,
        /// Keys outside the range (only the mask keeps homes in the
        /// table).
        OutOfRange,
    }

    #[test]
    fn randomized_against_std_hashmap() {
        // The backward-shift deletion is the subtle part: hammer it with
        // random interleaved insert/remove/get/rebuild and demand exact
        // agreement with std's HashMap at every step.
        let mut rng = SmallRng::seed_from_u64(0x9A1);
        let mut wrapped = 0usize;
        for round in 0..80 {
            let layout = [
                Keys::Uniform,
                Keys::ClusteredAtTop,
                Keys::ClusteredInside,
                Keys::OutOfRange,
            ][round % 4];
            // Half the rounds run in the high-key region to exercise
            // 64-bit offsets.
            let base = if round % 8 < 4 { 0 } else { u64::MAX / 3 };
            let span = 1u64 << (4 + round % 17);
            let cluster = 1u64 << (2 + round % 8);
            let keys = match layout {
                Keys::Uniform => base..base + span,
                Keys::ClusteredAtTop => base + span.saturating_sub(cluster)..base + span,
                Keys::ClusteredInside => base + span / 2..base + span / 2 + cluster,
                Keys::OutOfRange => base + span..base + span + cluster,
            };
            let mut ours = PairMap::new(base..base + span);
            let mut reference: HashMap<u64, u32> = HashMap::new();
            for _ in 0..2_000 {
                let key = rng.gen_range(keys.clone());
                match rng.gen_range(0..10) {
                    0..=4 => {
                        let value = rng.gen::<u32>();
                        ours.insert(key, value);
                        reference.insert(key, value);
                    }
                    5..=7 => {
                        ours.remove(key);
                        reference.remove(&key);
                    }
                    8 => {
                        assert_eq!(ours.get(key), reference.get(&key).copied());
                        assert_eq!(ours.contains(key), reference.contains_key(&key));
                    }
                    _ => {
                        if rng.gen_range(0..100) == 0 {
                            // Rebuild keys must lie in the range.
                            let from = keys.start.max(base)..keys.end.min(base + span);
                            let from = if from.is_empty() {
                                base..base + span
                            } else {
                                from
                            };
                            let count = rng.gen_range(0..64);
                            let fresh = ascending(&mut rng, from, count);
                            ours.rebuild(fresh.iter().copied(), rng.gen_range(0..64));
                            reference = fresh.into_iter().zip(0..).collect();
                        }
                    }
                }
                assert_eq!(ours.len(), reference.len());
            }
            wrapped += (0..ours.keys.len())
                .filter(|&i| ours.keys[i] != EMPTY && i < ours.home(ours.keys[i]))
                .count();
            for (&k, &v) in &reference {
                assert_eq!(ours.get(k), Some(v), "round {round} ({layout:?}) key {k}");
            }
        }
        assert!(wrapped > 0, "no chain ever wrapped past the last slot");
    }

    /// Up to `count` distinct keys drawn uniformly from `range`, ascending.
    fn ascending(rng: &mut SmallRng, range: Range<u64>, count: usize) -> Vec<u64> {
        let mut keys: Vec<u64> = (0..count).map(|_| rng.gen_range(range.clone())).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    #[test]
    fn rebuild_then_ops_against_std_hashmap() {
        // A one-pass rebuild must leave a table that every later
        // operation reads and edits as if the keys had been inserted one
        // by one: rebuild from random ascending keys, check every entry,
        // then random insert/remove/get against std's HashMap. Lanes:
        // sparse and dense ones, and tiny lanes whose upper part is dense,
        // so the last run of the ascending fill wraps past the table end.
        let mut rng = SmallRng::seed_from_u64(0x0B1D);
        let mut wrapped_rebuilds = 0;
        for round in 0..400 {
            let base = if round % 2 == 0 { 0 } else { u64::MAX / 3 };
            let span = 1u64 << (3 + round % 11);
            // Every other tiny lane is on only in its top quarter, and
            // densely there, in a table sized for its keys alone.
            let top = span <= 64 && round % 8 < 4;
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
            let mut ours = PairMap::new(base..base + span);
            // Start from a used table now and then: the rebuild must
            // overwrite whatever the slots held.
            if round % 3 == 0 {
                for k in ascending(&mut rng, base..base + span, 40) {
                    ours.insert(k, 1);
                }
            }
            let reserve = if top {
                0
            } else {
                rng.gen_range(0..2 * keys.len())
            };
            ours.rebuild(keys.iter().copied(), reserve);
            wrapped_rebuilds += (0..ours.keys.len())
                .any(|i| ours.keys[i] != EMPTY && i < ours.home(ours.keys[i]))
                as usize;
            let mut reference: HashMap<u64, u32> = keys.iter().copied().zip(0..).collect();
            assert_eq!(ours.len(), reference.len(), "round {round}");
            for (&k, &v) in &reference {
                assert_eq!(ours.get(k), Some(v), "round {round}: key {k}");
            }
            for _ in 0..500 {
                let key = rng.gen_range(base..base + span);
                match rng.gen_range(0..3) {
                    0 => {
                        let value = rng.gen::<u32>();
                        ours.insert(key, value);
                        reference.insert(key, value);
                    }
                    1 => {
                        ours.remove(key);
                        reference.remove(&key);
                    }
                    _ => {
                        assert_eq!(ours.get(key), reference.get(&key).copied());
                        assert_eq!(ours.contains(key), reference.contains_key(&key));
                    }
                }
                assert_eq!(ours.len(), reference.len(), "round {round}");
            }
            for (&k, &v) in &reference {
                assert_eq!(ours.get(k), Some(v), "round {round}: key {k}");
            }
        }
        assert!(
            wrapped_rebuilds >= 10,
            "only {wrapped_rebuilds} rebuilds ran past the table end"
        );
    }
}
