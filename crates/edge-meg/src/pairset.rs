//! An exact set of pair indices from one known key range, kept in the
//! smaller of two forms: a bitmap over the range, or a linear-probe
//! table hashed by position in the range.
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
//! * **Two exact forms; the smaller one is kept.** A bitmap costs
//!   `⌈span/64⌉` words whatever it holds; a table costs 2.25 slots per
//!   entry it is sized for. Each [`PairSet::rebuild`] (and each table
//!   that outgrows its slots) takes the bitmap when it is no larger, so
//!   a lane sized for its stationary on-set at density `α` is a bitmap
//!   when `α ≥ 1/144` and a table below, whatever `n` is. Either form
//!   costs at most 2.25 words per expected entry, so the reset's fill
//!   stays `O(#on)`. In bitmap form an insert is a bit test-and-set and
//!   a remove a bit clear; callers never see the form.
//! * **A range hash** (table form). A key's home slot is its relative
//!   position in the range scaled onto the whole table,
//!   `((key − start)·scale) >> 64` with `scale = ⌊cap·2⁶⁴/span⌋`. The
//!   hash preserves key order, so the ascending walks of a lane (reset's
//!   one-pass rebuild, the birth sweep's lookups) move through the table
//!   front to back. Order is no hazard here: every pair of a lane is on
//!   independently with the same law at every round, so the tracked keys
//!   are a uniform random subset of the range, spread evenly over all
//!   the slots, and expected probe lengths are at most those of random
//!   hashing at the same load. A table always has fewer slots than its
//!   range has keys (a range that would need more is a bitmap), so the
//!   scale is a fraction below 1.
//! * **A flat key array of any length**, 8 bytes a slot: the range hash
//!   needs no power of two, so the table is sized at 2.25 slots per
//!   expected entry and probes wrap past its end by a compare, not a
//!   mask.
//! * **Backward-shift deletion** (no tombstone rot under the
//!   retire-on-death workload).
//!
//! The set is never iterated, and membership reads the same in either
//! form, so realizations cannot depend on its layout; the randomized
//! property tests pin both forms against `std::collections::HashSet`.

use std::ops::Range;

/// Sentinel key marking an empty table slot.
const EMPTY: u64 = u64::MAX;

/// A set of pair indices (`key < u64::MAX`) from one range, stored as a
/// bitmap over the range or by open addressing, whichever is smaller.
#[derive(Debug, Clone)]
pub(crate) struct PairSet {
    /// Bitmap form: bit `o % 64` of word `o / 64` marks key `start + o`.
    /// Table form: slot keys, `EMPTY` marking a free slot.
    words: Vec<u64>,
    /// Whether `words` is a bitmap.
    bitmap: bool,
    /// First key of the range.
    start: u64,
    /// Keys in the range (at least 1).
    span: u64,
    /// Table form: maps `key − start` onto the table (see
    /// [`PairSet::scale_for`]).
    scale: u64,
    len: usize,
}

impl PairSet {
    const MIN_CAPACITY: usize = 16;

    /// An empty set for keys in `range`.
    pub(crate) fn new(range: Range<u64>) -> Self {
        let mut set = PairSet {
            words: Vec::new(),
            bitmap: false,
            start: range.start,
            span: range.end.saturating_sub(range.start).max(1),
            scale: 0,
            len: 0,
        };
        set.clear_into(Self::MIN_CAPACITY);
        set
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

    /// `⌊cap·2⁶⁴/span⌋`: slots per key of the range as a 64-bit binary
    /// fraction, so the home of every key `start + o`, `o < span`, is
    /// below `cap`. A table has fewer slots than its range has keys, so
    /// the fraction is below 1.
    fn scale_for(cap: usize, span: u64) -> u64 {
        debug_assert!((cap as u64) < span, "a {cap}-slot table over {span} keys");
        (((cap as u128) << 64) / span as u128) as u64
    }

    /// Empties the set into the smaller form for `slots` table slots:
    /// the bitmap if its `⌈span/64⌉` words are no more, else a table of
    /// at least `slots` slots that keeps a larger table's slots. Every
    /// table is thus smaller than the bitmap of its range.
    fn clear_into(&mut self, slots: usize) {
        let words = self.span.div_ceil(64) as usize;
        let bitmap = words <= slots;
        let (size, fill) = match (bitmap, self.bitmap) {
            (true, _) => (words, 0),
            (false, true) => (slots, EMPTY),
            (false, false) => (slots.max(self.words.len()), EMPTY),
        };
        if bitmap == self.bitmap && size == self.words.len() {
            self.words.fill(fill);
        } else {
            self.words = vec![fill; size];
        }
        self.bitmap = bitmap;
        if !bitmap {
            self.scale = Self::scale_for(size, self.span);
        }
        self.len = 0;
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Words held (bitmap words or table slots): the set's memory is 8
    /// bytes a word.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.words.len()
    }

    #[cfg(test)]
    pub(crate) fn is_bitmap(&self) -> bool {
        self.bitmap
    }

    /// Bitmap form: the word holding `key`'s bit, and the bit.
    #[inline]
    fn bit(&self, key: u64) -> (usize, u64) {
        let offset = key.wrapping_sub(self.start);
        debug_assert!(offset < self.span, "key {key} outside the range");
        ((offset >> 6) as usize, 1 << (offset & 63))
    }

    /// Range hash: the key's position in the range, scaled onto the
    /// table. In range, the product stays below `cap·2⁶⁴`.
    #[inline]
    fn home(&self, key: u64) -> usize {
        let offset = key.wrapping_sub(self.start);
        debug_assert!(offset < self.span, "key {key} outside the range");
        ((offset as u128 * self.scale as u128) >> 64) as usize
    }

    /// The slot after `i`, wrapping past the table's end.
    #[inline]
    fn next(&self, i: usize) -> usize {
        let i = i + 1;
        if i == self.words.len() {
            0
        } else {
            i
        }
    }

    /// Table form: the slot holding `key`, or the free slot that ends its
    /// probe run.
    #[inline]
    fn find(&self, key: u64) -> usize {
        debug_assert!(!self.bitmap && key != EMPTY);
        let mut i = self.home(key);
        loop {
            let k = self.words[i];
            if k == key || k == EMPTY {
                return i;
            }
            i = self.next(i);
        }
    }

    #[cfg(test)]
    pub(crate) fn contains(&self, key: u64) -> bool {
        if self.bitmap {
            let (w, bit) = self.bit(key);
            return self.words[w] & bit != 0;
        }
        self.words[self.find(key)] == key
    }

    /// Adds `key`; returns whether it was absent (one bit test-and-set,
    /// or one probe run either way, as the birth sweep needs).
    #[inline]
    pub(crate) fn insert(&mut self, key: u64) -> bool {
        if self.bitmap {
            let (w, bit) = self.bit(key);
            let absent = self.words[w] & bit == 0;
            self.words[w] |= bit;
            self.len += absent as usize;
            return absent;
        }
        let mut i = self.find(key);
        if self.words[i] == key {
            return false;
        }
        // Grow past 5/8 load: linear probe runs stay a few slots long,
        // and the resize cost amortizes over the fill.
        if (self.len + 1) * 8 > self.words.len() * 5 {
            self.grow();
            if self.bitmap {
                return self.insert(key);
            }
            i = self.find(key);
        }
        self.words[i] = key;
        self.len += 1;
        true
    }

    /// Removes `key` if present: a bit clear, or a backward-shift
    /// deletion (the probe runs stay dense; no tombstones to sweep
    /// later).
    pub(crate) fn remove(&mut self, key: u64) {
        if self.bitmap {
            let (w, bit) = self.bit(key);
            self.len -= (self.words[w] & bit != 0) as usize;
            self.words[w] &= !bit;
            return;
        }
        let i = self.find(key);
        if self.words[i] == EMPTY {
            return;
        }
        self.len -= 1;
        // Shift successors back over the hole until the run ends.
        let mut hole = i;
        let mut j = i;
        loop {
            j = self.next(j);
            let k = self.words[j];
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
                self.words[hole] = k;
                hole = j;
            }
        }
        self.words[hole] = EMPTY;
    }

    /// Replaces the set's contents with `keys`, strictly ascending and in
    /// the range, sized for at least `reserve` entries (the reset path:
    /// the lane's alive list, indexed in one pass). The form is picked
    /// for `max(keys, reserve)` entries; a table keeps any larger
    /// capacity it had.
    ///
    /// A bitmap is zero-filled and gets one bit per key. A table is
    /// filled front to back: the range hash is monotone in the key, so
    /// each key lands at `max(home, cursor)`, the first slot at or past
    /// its home that the keys before it left free, with no probe read.
    /// That is a valid probe layout: the slots between a key's home and
    /// its slot hold the run of smaller keys it queued behind. Keys whose
    /// run reaches past the last slot go through [`PairSet::insert`],
    /// which wraps to the front. The free slots are marked by one bulk
    /// fill first: writing each gap as the pass reaches it costs a
    /// data-dependent loop per key, measured ~2.5× slower on the served
    /// flooding cell's lanes.
    pub(crate) fn rebuild(&mut self, mut keys: impl ExactSizeIterator<Item = u64>, reserve: usize) {
        self.clear_into(Self::capacity_for(keys.len().max(reserve)));
        if self.bitmap {
            for key in keys {
                let (w, bit) = self.bit(key);
                self.words[w] |= bit;
                self.len += 1;
            }
            return;
        }
        let cap = self.words.len();
        let mut cursor = 0;
        for key in &mut keys {
            let slot = self.home(key).max(cursor);
            if slot == cap {
                // This run, and every later key's, reaches past the end.
                self.insert(key);
                break;
            }
            self.words[slot] = key;
            self.len += 1;
            cursor = slot + 1;
        }
        for key in keys {
            self.insert(key);
        }
    }

    /// Doubles the table, or turns it into the bitmap if that is no
    /// larger.
    fn grow(&mut self) {
        let slots = std::mem::take(&mut self.words);
        self.clear_into(slots.len() * 2);
        for k in slots {
            if k != EMPTY {
                self.insert(k);
            }
        }
    }

    /// Table form: mean distance of the stored entries from their home
    /// slots (0 for an empty set): the expected extra probes of a
    /// successful lookup.
    #[cfg(test)]
    pub(crate) fn mean_displacement(&self) -> f64 {
        assert!(!self.bitmap);
        let cap = self.words.len();
        let total: usize = (0..cap)
            .filter(|&i| self.words[i] != EMPTY)
            .map(|i| (i + cap - self.home(self.words[i])) % cap)
            .sum();
        total as f64 / self.len.max(1) as f64
    }

    /// Table form: mean slots a lookup of an absent key scans, over all
    /// home slots: 1 plus the rest of the run of full slots it starts in.
    /// Random hashing at load `a` gives `(1 + 1/(1 − a)²)/2`, 2.5 at 1/2
    /// load; it is also what a backward-shift delete scans.
    #[cfg(test)]
    pub(crate) fn mean_miss_probes(&self) -> f64 {
        assert!(!self.bitmap);
        let cap = self.words.len();
        let free = (0..cap)
            .find(|&i| self.words[i] == EMPTY)
            .expect("load <= 1/2");
        // Walk backwards from a free slot: a full slot scans one more
        // than its successor.
        let (mut total, mut next) = (0usize, 1usize);
        for step in 0..cap {
            let i = (free + cap - step) % cap;
            next = if self.words[i] == EMPTY { 1 } else { next + 1 };
            total += next;
        }
        total as f64 / cap as f64
    }

    /// Stored entries whose probe run wrapped past the table's end (0 for
    /// a bitmap).
    #[cfg(test)]
    fn wrapped(&self) -> usize {
        if self.bitmap {
            return 0;
        }
        (0..self.words.len())
            .filter(|&i| self.words[i] != EMPTY && i < self.home(self.words[i]))
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
        // The same operations in both forms: a 100-key range starts as a
        // bitmap, a 100 000-key one as a 16-slot table.
        for (range, bitmap) in [(0..100, true), (0..100_000, false)] {
            let mut s = PairSet::new(range);
            assert_eq!(s.is_bitmap(), bitmap);
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
        // The form each (span, reserve) takes: the bitmap when its
        // ⌈span/64⌉ words are no more than the table's 2.25 slots per
        // reserved entry (at least 16), i.e. at density 1/144 and above.
        for (span, reserve, bitmap, words) in [
            (1, 0, true, 1),
            (1_024, 0, true, 16),
            (1_025, 0, false, 16),
            (14_400, 100, true, 225),
            (14_401, 100, false, 225),
            (14_401, 101, true, 226),
            (57_600, 400, true, 900),
            (57_601, 400, false, 900),
        ] {
            let mut s = PairSet::new(0..span);
            s.rebuild(std::iter::empty(), reserve);
            assert_eq!(
                (s.is_bitmap(), s.capacity()),
                (bitmap, words),
                "span {span}, reserve {reserve}"
            );
        }
        // Past the reserve, the keys pick the form.
        let mut s = PairSet::new(0..14_401);
        s.rebuild((0..101u32).map(u64::from), 0);
        assert_eq!((s.is_bitmap(), s.len()), (true, 101));
    }

    #[test]
    fn rebuild_sizes_once_and_keeps_a_larger_capacity() {
        // A sparse range, whose bitmap (1 563 words) is larger than any
        // table below.
        let mut s = PairSet::new(0..100_000);
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
        assert_eq!(s.words.iter().filter(|&&k| k != EMPTY).count(), 3);
        assert_eq!((s.len(), s.contains(7), s.contains(600)), (3, false, true));
        assert_eq!((s.start, s.span), (0, 100_000), "the range is kept");
        // Past the reserve, the table is sized for the keys.
        s.rebuild((0..300u32).map(u64::from), 10);
        assert_eq!((s.capacity(), s.len(), s.contains(299)), (675, 300, true));
        assert!(!s.is_bitmap());
        // A table that would outgrow the bitmap turns into it; a later
        // sparse rebuild makes a table of its own size again.
        for k in 300..1_000u64 {
            s.insert(k);
        }
        assert_eq!((s.is_bitmap(), s.capacity(), s.len()), (true, 1_563, 1_000));
        assert!((0..1_000u64).all(|k| s.contains(k)) && !s.contains(1_000));
        s.rebuild((0..3u32).map(|k| k as u64 * 300), 10);
        assert_eq!((s.is_bitmap(), s.capacity(), s.len()), (false, 23, 3));
    }

    #[test]
    fn grows_past_initial_capacity() {
        // A table doubles while it stays smaller than its range's bitmap,
        // then turns into the bitmap: 10 000 keys take 157 words.
        let mut s = PairSet::new(0..10_000);
        assert_eq!((s.is_bitmap(), s.capacity()), (false, 16));
        for k in 0..10_000u64 {
            assert!(s.insert(k));
            if k == 79 {
                assert_eq!((s.is_bitmap(), s.capacity()), (false, 128));
            }
        }
        assert_eq!((s.is_bitmap(), s.capacity(), s.len()), (true, 157, 10_000));
        assert!((0..10_000u64).all(|k| s.contains(k)));
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
        assert!(!s.is_bitmap());
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

    /// The smallest reserve for which a rebuild of a `span`-key range
    /// takes the bitmap.
    fn bitmap_reserve(span: u64) -> usize {
        (0..)
            .find(|&r| PairSet::capacity_for(r) >= span.div_ceil(64) as usize)
            .unwrap()
    }

    #[test]
    fn randomized_against_std_hashset() {
        // The backward-shift deletion is the subtle part: hammer it with
        // random interleaved insert/remove/contains/rebuild and demand
        // exact agreement with std's HashSet at every step. Ranges of up
        // to 1 024 keys start as bitmaps, wider ones as 16-slot tables
        // that grow (into the bitmap once that is no larger); rebuilds
        // reserve either a few entries or just below or at the bitmap's
        // size, so both forms meet every operation and both sides of the
        // rule. Tables are rebuilt at 2.25 slots a key, so they are not
        // powers of two after a rebuild.
        let mut rng = SmallRng::seed_from_u64(0x9A1);
        let (mut wrapped, mut ops) = (0usize, [0usize; 2]);
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
                            let edge = bitmap_reserve(span);
                            let reserve = match rng.gen_range(0..3) {
                                0 => rng.gen_range(0..64),
                                1 => edge.saturating_sub(1),
                                _ => edge,
                            };
                            ours.rebuild(fresh.iter().copied(), reserve);
                            reference = fresh.into_iter().collect();
                        }
                    }
                }
                assert_eq!(ours.len(), reference.len());
                ops[ours.is_bitmap() as usize] += 1;
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
        assert!(
            ops.iter().all(|&n| n >= 40_000),
            "operations on (table, bitmap): {ops:?}"
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
        // A one-pass rebuild must leave a set that every later operation
        // reads and edits as if the keys had been inserted one by one:
        // rebuild from random ascending keys, check every entry, then
        // random insert/remove/contains against std's HashSet.
        // Lanes: uniform ones at densities on both sides of the rule's
        // 1/144, sized for a random reserve or for just below or at the
        // bitmap's size; and lanes on only at the top of their range, and
        // densely there, sized for their keys alone: the top quarter of a
        // tiny range (a bitmap's last word) or the top 1/512 of a wide
        // one (a table whose last run wraps past its end). Spans are not
        // powers of two, and neither are the tables the rebuild sizes.
        let mut rng = SmallRng::seed_from_u64(0x0B1D);
        let (mut wrapped_rebuilds, mut forms) = (0, [0usize; 2]);
        let mut edges = [[0usize; 2]; 2];
        for round in 0..400 {
            let base = if round % 2 == 0 { 0 } else { u64::MAX / 3 };
            let span = (1u64 << (3 + round % 15)) + (round as u64 % 7);
            let top = round % 8 < 4;
            let density = if top {
                [0.9, 1.0][round % 2]
            } else {
                [0.001, 0.005, 0.02, 0.3, 0.9, 1.0][round / 8 % 6]
            };
            let from = if top {
                let width = if span <= 70 {
                    span / 4
                } else {
                    (span / 512).max(1)
                };
                base + span - width..base + span
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
            // Start from a used set now and then: the rebuild must
            // overwrite whatever the words held.
            if round % 3 == 0 {
                for k in ascending(&mut rng, base..base + span, 40) {
                    ours.insert(k);
                }
            }
            let edge = bitmap_reserve(span);
            let reserve = match (top, rng.gen_range(0..3)) {
                (true, _) => 0,
                (false, 0) => rng.gen_range(0..2 * keys.len()),
                (false, 1) => edge.saturating_sub(1),
                (false, _) => edge,
            };
            ours.rebuild(keys.iter().copied(), reserve);
            wrapped_rebuilds += (ours.wrapped() > 0) as usize;
            forms[ours.is_bitmap() as usize] += 1;
            if keys.len() < edge && (reserve == edge || reserve + 1 == edge) {
                // At the rule's boundary, the reserve alone picks the form.
                assert_eq!(ours.is_bitmap(), reserve == edge, "round {round}");
                edges[ours.is_bitmap() as usize][(reserve == edge) as usize] += 1;
            }
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
        assert!(
            forms.iter().all(|&n| n >= 100),
            "rebuilds into (table, bitmap): {forms:?}"
        );
        assert!(
            edges[0][0] >= 5 && edges[1][1] >= 5,
            "boundary rebuilds: {edges:?}"
        );
    }
}
