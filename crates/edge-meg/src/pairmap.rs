//! A linear-probe hash map from pair indices to `u32` slots.
//!
//! Each lane of [`crate::ShardedSparseEdgeMeg`] tracks one occupancy
//! entry per on-pair (a dying pair is retired from the map), and every
//! trial reset re-inserts the whole on-set. `std::collections::HashMap`'s
//! SipHash plus per-entry overhead makes those inserts the dominant
//! term of trial setup at large `n`, so this map trades generality for
//! the three things the occupancy store needs: `u64` keys (triangular
//! pair indices, below `2^63` for any pair of `u32` node ids),
//! Fibonacci multiply hashing (a couple of cycles), and flat open
//! addressing with backward-shift deletion (no tombstone rot under the
//! retire-on-death workload).
//!
//! The map is never iterated, so realizations cannot depend on its
//! layout; the exhaustive property test pins its semantics against
//! `std::collections::HashMap`.

/// Sentinel key marking an empty slot.
const EMPTY: u64 = u64::MAX;

/// A `u64 -> u32` open-addressing map for pair indices (`key <
/// u64::MAX`).
#[derive(Debug, Clone)]
pub(crate) struct PairMap {
    /// `(key, value)` pairs; `key == EMPTY` marks a free slot. Length is
    /// always a power of two.
    slots: Vec<(u64, u32)>,
    mask: usize,
    len: usize,
}

impl Default for PairMap {
    fn default() -> Self {
        PairMap::new()
    }
}

impl PairMap {
    const MIN_CAPACITY: usize = 16;

    pub(crate) fn new() -> Self {
        Self::with_capacity(0)
    }

    /// A map pre-sized to hold `expected` entries without growing.
    pub(crate) fn with_capacity(expected: usize) -> Self {
        let cap = Self::capacity_for(expected);
        PairMap {
            slots: vec![(EMPTY, 0); cap],
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

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Fibonacci multiply hash onto the table's power-of-two size.
    #[inline]
    fn home(&self, key: u64) -> usize {
        // 2^64 / phi, odd; the multiply pushes entropy into the high
        // bits, the xor folds it back down before masking.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h ^ (h >> 32)) as usize) & self.mask
    }

    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<u32> {
        debug_assert_ne!(key, EMPTY);
        let mut i = self.home(key);
        loop {
            let (k, v) = self.slots[i];
            if k == key {
                return Some(v);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    #[inline]
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Inserts or overwrites.
    pub(crate) fn insert(&mut self, key: u64, value: u32) {
        debug_assert_ne!(key, EMPTY);
        // Grow at 1/2 load: linear probe chains stay a couple of slots
        // long, and the resize cost amortizes over the fill.
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mut i = self.home(key);
        loop {
            let (k, _) = self.slots[i];
            if k == key {
                self.slots[i].1 = value;
                return;
            }
            if k == EMPTY {
                self.slots[i] = (key, value);
                self.len += 1;
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
            let (k, _) = self.slots[i];
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
            let (k, _) = self.slots[j];
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
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole] = (EMPTY, 0);
    }

    /// Empties the map and makes room for `expected` entries without
    /// growing, keeping any larger capacity (the reset path: a trial
    /// reset re-inserts a same-order working set with zero growth).
    ///
    /// Each call writes every slot once, right before the caller's
    /// inserts: a map too small is replaced by a freshly written one. So
    /// a lane model built with tiny maps sizes and writes each lane's
    /// table once, in its first reset, while the table is about to be
    /// filled and still in cache.
    pub(crate) fn clear_for(&mut self, expected: usize) {
        if Self::capacity_for(expected) > self.slots.len() {
            *self = Self::with_capacity(expected);
        } else {
            self.slots.fill((EMPTY, 0));
            self.len = 0;
        }
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(EMPTY, 0); new_cap]);
        self.mask = new_cap - 1;
        self.len = 0;
        for (k, v) in old {
            if k != EMPTY {
                self.insert(k, v);
            }
        }
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
        let mut m = PairMap::new();
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
        m.clear_for(1);
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(4), None);
    }

    #[test]
    fn clear_for_sizes_once_and_keeps_a_larger_capacity() {
        let mut m = PairMap::new();
        m.clear_for(100);
        assert_eq!(m.slots.len(), 256);
        for k in 0..100u64 {
            m.insert(k * 7, k as u32);
        }
        assert_eq!(m.slots.len(), 256, "sized for 100 entries: no growth");
        m.clear_for(10);
        assert_eq!(m.slots.len(), 256, "a larger capacity is kept");
        assert!(m.slots.iter().all(|&(k, _)| k == EMPTY));
        assert_eq!((m.len(), m.get(7)), (0, None));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = PairMap::new();
        for k in 0..10_000u64 {
            m.insert(k, (k as u32).wrapping_mul(3));
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.get(k), Some((k as u32).wrapping_mul(3)), "key {k}");
        }
        assert_eq!(m.get(10_000), None);
    }

    #[test]
    fn wide_keys_past_u32() {
        // Million-node pair indices live well past u32::MAX; the hash
        // must spread them and lookups must stay exact.
        let mut m = PairMap::new();
        let base = 499_999_500_000u64; // ~pair_count(10^6)
        for i in 0..5_000u64 {
            m.insert(base + i * 997, i as u32);
        }
        for i in 0..5_000u64 {
            assert_eq!(m.get(base + i * 997), Some(i as u32), "key offset {i}");
        }
        assert_eq!(m.get(base + 1), None);
    }

    #[test]
    fn randomized_against_std_hashmap() {
        // The backward-shift deletion is the subtle part: hammer it with
        // random interleaved insert/remove/get/clear and demand exact
        // agreement with std's HashMap at every step.
        let mut rng = SmallRng::seed_from_u64(0x9A1);
        for round in 0..50 {
            let mut ours = PairMap::new();
            let mut reference: HashMap<u64, u32> = HashMap::new();
            let key_space = 1u64 << (2 + round % 8); // clustered keys probe long chains
                                                     // Half the rounds run in the high-key region to exercise
                                                     // 64-bit hashing; clustering is preserved by the offset.
            let offset = if round % 2 == 0 { 0 } else { u64::MAX / 3 };
            for _ in 0..2_000 {
                let key = offset + rng.gen_range(0..key_space);
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
                    }
                    _ => {
                        if rng.gen_range(0..100) == 0 {
                            ours.clear_for(rng.gen_range(0..64));
                            reference.clear();
                        }
                    }
                }
                assert_eq!(ours.len(), reference.len());
            }
            for (&k, &v) in &reference {
                assert_eq!(ours.get(k), Some(v), "round {round} key {k}");
            }
        }
    }
}
