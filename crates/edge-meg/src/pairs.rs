//! Triangular indexing of unordered node pairs.
//!
//! Pair indices are `u64`: over `n = 2^32` nodes the triangular layout
//! tops out just below `2^63`, so every `(u32, u32)` pair has an exact
//! index and the sparse models can address million-node graphs whose
//! pair space (`~5 * 10^11` at `n = 10^6`) is far beyond `u32`.

/// Number of unordered pairs over `n` nodes: `n(n-1)/2`.
pub fn pair_count(n: usize) -> u64 {
    let n = n as u64;
    n * (n - 1) / 2
}

/// Dense index of the pair `{u, v}` (`u != v`), in `0..pair_count(n)`.
///
/// Uses the triangular layout `index({u, v}) = v(v-1)/2 + u` for `u < v`.
///
/// # Panics
///
/// Panics if `u == v`.
///
/// # Examples
///
/// ```
/// use dg_edge_meg::{edge_index, edge_pair};
/// let e = edge_index(3, 7);
/// assert_eq!(edge_pair(e), (3, 7));
/// ```
pub fn edge_index(u: u32, v: u32) -> u64 {
    assert_ne!(u, v, "self-loops have no pair index");
    let (lo, hi) = if u < v { (u, v) } else { (v, u) };
    (hi as u64 * (hi as u64 - 1)) / 2 + lo as u64
}

/// `v(v-1)/2` without overflow: for `v` near `2^32` the product needs
/// 64 bits *after* halving, so the multiply runs in `u128`.
#[inline]
fn tri(v: u64) -> u128 {
    v as u128 * (v as u128 - 1) / 2
}

/// Floor square root, exact for every input.
///
/// The `f64` seed is within one of the true root for the magnitudes the
/// pair inverse produces (`x <= 8 * 2^63`, where the relative error of a
/// 53-bit sqrt is far below one ulp of the root); the correction loops
/// make the result exact regardless of how the seed rounded.
fn isqrt(x: u128) -> u128 {
    if x < 2 {
        return x;
    }
    let mut r = (x as f64).sqrt() as u128;
    while r * r > x {
        r -= 1;
    }
    while (r + 1) * (r + 1) <= x {
        r += 1;
    }
    r
}

/// Below this index [`edge_pair`] inverts in `u64` arithmetic: every
/// intermediate of [`edge_pair_narrow`] (`8i + 1 < 2^63`, rows below
/// `2^31`, so `v(v+1) < 2^62`) fits without overflow. Above it (rows
/// past `2^31`, only reachable with `n > 2^31` nodes) the `u128` path
/// takes over.
const NARROW_LIMIT: u64 = 1 << 60;

/// Inverse of [`edge_index`]: recovers `(u, v)` with `u < v`.
///
/// Exact over the whole valid index range (any pair of `u32` node ids):
/// the former `(1 + sqrt(1 + 8i)) / 2` float trick loses integer
/// exactness once `8i + 1` leaves the 53-bit mantissa (indices near
/// `2^52`), so the float root is only a seed and the candidate row is
/// corrected exactly in integers. Indices below `2^60` take a `u64`
/// path (one `f64` square root plus a few multiplies); the rest take a
/// `u128` path. The sparse models invert every pair that turns on or
/// (in the exact scan) toggles, so the narrow path is the hot one.
#[inline]
pub fn edge_pair(index: u64) -> (u32, u32) {
    if index < NARROW_LIMIT {
        edge_pair_narrow(index)
    } else {
        edge_pair_wide(index)
    }
}

/// The `u64` inverse for indices below [`NARROW_LIMIT`].
///
/// The row `hi` is the largest `v` with `v(v-1)/2 <= index`, i.e.
/// `floor((1 + sqrt(8 index + 1)) / 2)`. The `f64` estimate of that real
/// is off by under `2^-20` (the rounded discriminant and root each carry
/// a relative error of at most `2^-53`, at a root below `2^31.5`), so
/// truncating it lands at most one row away, and one branch-free
/// correction each way settles the row exactly.
#[inline]
fn edge_pair_narrow(index: u64) -> (u32, u32) {
    // Signed conversions: both values fit in i64, and x86-64 converts
    // i64 <-> f64 in one instruction (u64 takes a branchy sequence).
    let mut hi = ((((8 * index + 1) as i64 as f64).sqrt() + 1.0) * 0.5) as i64 as u64;
    hi -= (hi * (hi - 1) / 2 > index) as u64;
    hi += (hi * (hi + 1) / 2 <= index) as u64;
    ((index - hi * (hi - 1) / 2) as u32, hi as u32)
}

/// The `u128` inverse, exact over the whole `u64` index range.
fn edge_pair_wide(index: u64) -> (u32, u32) {
    // hi is the largest v with v(v-1)/2 <= index, i.e.
    // floor((1 + sqrt(1 + 8 index)) / 2) up to the rounding of the
    // truncated integer sqrt — the two corrections settle it exactly.
    let s = isqrt(8 * index as u128 + 1);
    let mut hi = (s.div_ceil(2)) as u64;
    if tri(hi) > index as u128 {
        hi -= 1;
    }
    if tri(hi + 1) <= index as u128 {
        hi += 1;
    }
    let lo = index - tri(hi) as u64;
    (lo as u32, hi as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_small() {
        let n = 40u32;
        let mut seen = vec![false; pair_count(n as usize) as usize];
        for v in 0..n {
            for u in 0..v {
                let e = edge_index(u, v);
                assert!(!seen[e as usize], "index collision at ({u},{v})");
                seen[e as usize] = true;
                assert_eq!(edge_pair(e), (u, v));
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn order_insensitive() {
        assert_eq!(edge_index(2, 9), edge_index(9, 2));
    }

    #[test]
    fn large_indices_exact() {
        for &(u, v) in &[(0u32, 1u32), (12345, 54321), (99999, 100000)] {
            assert_eq!(edge_pair(edge_index(u, v)), (u.min(v), u.max(v)));
        }
    }

    #[test]
    fn u32_boundary_rows_exact() {
        // Rows around the old 92 682-node cap, where pair indices cross
        // u32::MAX: every index in a window straddling each row edge
        // must invert exactly.
        for hi in [92_681u32, 92_682, 92_683, 92_684] {
            for lo in [0u32, 1, hi / 2, hi - 2, hi - 1] {
                assert_eq!(edge_pair(edge_index(lo, hi)), (lo, hi), "({lo},{hi})");
            }
        }
        for e in edge_index(0, 92_682) - 3..=edge_index(0, 92_682) + 3 {
            let (u, v) = edge_pair(e);
            assert_eq!(edge_index(u, v), e, "index {e}");
        }
    }

    #[test]
    fn f64_mantissa_boundary_exact() {
        // Near 2^52 the discriminant 8i + 1 leaves f64's 53-bit
        // mantissa and the old float inverse could land on the wrong
        // row; the integer inverse must stay exact through the region.
        for base in [1u64 << 49, 1 << 52, (1 << 52) + (1 << 51), 1 << 55] {
            for e in base - 40..base + 40 {
                let (u, v) = edge_pair(e);
                assert!(u < v, "index {e} gave ({u},{v})");
                assert_eq!(edge_index(u, v), e, "index {e}");
            }
        }
    }

    #[test]
    fn u64_extreme_rows_exact() {
        // Top of the addressable space: both endpoints near u32::MAX,
        // indices just below 2^63.
        let top = u32::MAX;
        for &(u, v) in &[
            (0, top),
            (top - 1, top),
            (top / 2, top),
            (top - 2, top - 1),
            (1_000_000_000, 4_000_000_000),
        ] {
            assert_eq!(edge_pair(edge_index(u, v)), (u, v), "({u},{v})");
        }
        let last = edge_index(top - 1, top);
        for e in last - 5..=last {
            let (u, v) = edge_pair(e);
            assert_eq!(edge_index(u, v), e, "index {e}");
        }
    }

    /// Pins the `u64` inverse against the `u128` one at `index`.
    fn narrow_matches_wide(index: u64) {
        assert!(index < NARROW_LIMIT);
        assert_eq!(
            edge_pair_narrow(index),
            edge_pair_wide(index),
            "index {index}"
        );
    }

    #[test]
    fn narrow_inverse_matches_wide_on_every_small_index() {
        // Every index of every graph with n <= 2^12 nodes.
        for e in 0..pair_count(1 << 12) {
            narrow_matches_wide(e);
        }
    }

    #[test]
    fn narrow_inverse_matches_wide_around_landmark_rows() {
        // Rows around the old 92 682-node cap and n = 2^20: the first
        // and last few indices of each row, plus the row edges.
        for row in [
            92_680u64,
            92_681,
            92_682,
            92_683,
            92_684,
            (1 << 20) - 1,
            1 << 20,
            (1 << 20) + 1,
        ] {
            let start = row * (row - 1) / 2;
            for e in start.saturating_sub(64)..start + 64 {
                narrow_matches_wide(e);
            }
            for e in start + row - 64..start + row + 64 {
                narrow_matches_wide(e);
            }
        }
    }

    #[test]
    fn narrow_inverse_matches_wide_across_the_f64_mantissa() {
        // 2^49 .. 2^53: where 8i + 1 leaves f64's 53-bit mantissa.
        for k in 49..=53u32 {
            let base = 1u64 << k;
            for e in base - 4096..base + 4096 {
                narrow_matches_wide(e);
            }
            // A row edge near each power, where a misrounded estimate
            // would land one row off.
            let (_, hi) = edge_pair_wide(base);
            let start = hi as u64 * (hi as u64 - 1) / 2;
            for e in start - 64..start + 64 {
                narrow_matches_wide(e);
            }
        }
    }

    #[test]
    fn dispatch_agrees_on_both_sides_of_the_narrow_limit() {
        for e in NARROW_LIMIT - 4096..NARROW_LIMIT {
            narrow_matches_wide(e);
            assert_eq!(edge_pair(e), edge_pair_wide(e));
        }
        for e in NARROW_LIMIT..NARROW_LIMIT + 4096 {
            let (u, v) = edge_pair(e);
            assert_eq!((u, v), edge_pair_wide(e));
            assert_eq!(edge_index(u, v), e, "index {e}");
        }
    }

    #[test]
    fn narrow_inverse_matches_wide_on_random_indices() {
        // 10^6 seeded indices below 2^63, with the wide path as oracle
        // above the narrow limit (dispatch) and below it (direct).
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..1_000_000 {
            // splitmix64
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let e = z >> 1;
            let wide = edge_pair_wide(e);
            assert_eq!(edge_pair(e), wide, "index {e}");
            if e < NARROW_LIMIT {
                narrow_matches_wide(e);
            }
            // Scale into the narrow range too, so it gets 10^6 draws.
            narrow_matches_wide(e >> 3);
        }
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let _ = edge_index(4, 4);
    }
}
