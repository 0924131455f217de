//! Configurable-width packed simulation words.
//!
//! Every packed path in the workspace — PPSFP observability/excitation
//! words, the bit-parallel sequential SEU machines, packed ATPG — was
//! originally hard-wired to one `u64` (64 lanes). [`SimWord`] abstracts
//! the word so the same kernels run over [`PackedWord<W>`], a `[u64; W]`
//! wrapper carrying `64 * W` lanes per evaluation. The wrapper's bitwise
//! ops are plain fixed-length array loops, which LLVM autovectorizes to
//! AVX2/AVX-512 on stable Rust — no intrinsics, no `unsafe`.
//!
//! `u64` itself implements [`SimWord`] with `LANES = 64`, so the default
//! lane width 1 is not a separate code path: it is the exact same generic
//! code instantiated at `u64`, bit-identical to the historical engines.
//!
//! Lane numbering is global: lane `l` of a [`PackedWord<W>`] lives in
//! limb `l / 64`, bit `l % 64` — i.e. limb 0 carries lanes 0..64, limb 1
//! lanes 64..128, and so on. Pattern `p` of a chunk therefore always maps
//! to lane `p`, whatever the width.
//!
//! The one shared tail helper is [`SimWord::live_mask`]: when a pattern
//! chunk does not fill the word, the dead upper lanes must be masked out
//! of every observability/excitation/detection word before popcounts or
//! first-lane scans — otherwise ragged tails silently over-count.

use crate::sweep::GateValue;
use std::fmt::Debug;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not};

/// A packed simulation word: `LANES` independent one-bit machines
/// evaluated by every bitwise op at once.
///
/// Implementors are plain-old-data bit vectors; all operations are
/// lane-wise, and [`GateValue`]'s `ZERO`/`ONES` clear/set every lane.
/// See the module docs for the lane numbering convention.
pub trait SimWord:
    GateValue + Eq + Debug + Send + Sync + 'static + BitAndAssign + BitOrAssign + BitXorAssign
{
    /// Number of one-bit lanes carried per word.
    const LANES: usize;

    /// Broadcasts one bit to every lane.
    fn splat(bit: bool) -> Self;

    /// Mask with the first `n` lanes set (saturating at `LANES`): the
    /// shared ragged-tail helper. Any word derived from a chunk of
    /// `n < LANES` patterns must be ANDed with `live_mask(n)` before
    /// counting or scanning, or the dead lanes over-count.
    fn live_mask(n: usize) -> Self;

    /// Number of set lanes (popcount).
    fn count_ones(self) -> u32;

    /// Whether no lane is set.
    #[inline]
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// Value of lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES`.
    fn lane(self, lane: usize) -> bool;

    /// Sets lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES`.
    fn set_lane(&mut self, lane: usize);

    /// Flips lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES`.
    fn toggle_lane(&mut self, lane: usize);

    /// Index of the lowest set lane, or `None` when zero.
    fn first_lane(self) -> Option<usize>;

    /// Calls `f` with the index of every set lane, lowest first.
    fn for_each_lane(self, f: impl FnMut(usize));
}

impl GateValue for u64 {
    const ZERO: Self = 0;
    const ONES: Self = u64::MAX;
}

impl SimWord for u64 {
    const LANES: usize = 64;

    #[inline]
    fn splat(bit: bool) -> Self {
        if bit {
            u64::MAX
        } else {
            0
        }
    }

    #[inline]
    fn live_mask(n: usize) -> Self {
        if n >= 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    #[inline]
    fn count_ones(self) -> u32 {
        u64::count_ones(self)
    }

    #[inline]
    fn is_zero(self) -> bool {
        self == 0
    }

    #[inline]
    fn lane(self, lane: usize) -> bool {
        assert!(lane < 64, "lane {lane} out of range for u64");
        self >> lane & 1 == 1
    }

    #[inline]
    fn set_lane(&mut self, lane: usize) {
        assert!(lane < 64, "lane {lane} out of range for u64");
        *self |= 1u64 << lane;
    }

    #[inline]
    fn toggle_lane(&mut self, lane: usize) {
        assert!(lane < 64, "lane {lane} out of range for u64");
        *self ^= 1u64 << lane;
    }

    #[inline]
    fn first_lane(self) -> Option<usize> {
        if self == 0 {
            None
        } else {
            Some(self.trailing_zeros() as usize)
        }
    }

    #[inline]
    fn for_each_lane(self, mut f: impl FnMut(usize)) {
        let mut w = self;
        while w != 0 {
            f(w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

/// `64 * W` packed lanes as a flat `[u64; W]`. All ops are fixed-length
/// limb loops, written so LLVM autovectorizes them on stable Rust.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(transparent)]
pub struct PackedWord<const W: usize>(pub [u64; W]);

impl<const W: usize> Not for PackedWord<W> {
    type Output = Self;
    #[inline]
    fn not(mut self) -> Self {
        for limb in &mut self.0 {
            *limb = !*limb;
        }
        self
    }
}

macro_rules! packed_binop {
    ($trait:ident, $fn:ident, $assign_trait:ident, $assign_fn:ident, $op:tt) => {
        impl<const W: usize> $trait for PackedWord<W> {
            type Output = Self;
            #[inline]
            fn $fn(mut self, rhs: Self) -> Self {
                for i in 0..W {
                    self.0[i] $op rhs.0[i];
                }
                self
            }
        }
        impl<const W: usize> $assign_trait for PackedWord<W> {
            #[inline]
            fn $assign_fn(&mut self, rhs: Self) {
                for i in 0..W {
                    self.0[i] $op rhs.0[i];
                }
            }
        }
    };
}

packed_binop!(BitAnd, bitand, BitAndAssign, bitand_assign, &=);
packed_binop!(BitOr, bitor, BitOrAssign, bitor_assign, |=);
packed_binop!(BitXor, bitxor, BitXorAssign, bitxor_assign, ^=);

impl<const W: usize> GateValue for PackedWord<W> {
    const ZERO: Self = PackedWord([0; W]);
    const ONES: Self = PackedWord([u64::MAX; W]);
}

impl<const W: usize> SimWord for PackedWord<W> {
    const LANES: usize = 64 * W;

    #[inline]
    fn splat(bit: bool) -> Self {
        PackedWord([u64::splat(bit); W])
    }

    #[inline]
    fn live_mask(n: usize) -> Self {
        let mut w = [0u64; W];
        for (i, limb) in w.iter_mut().enumerate() {
            *limb = u64::live_mask(n.saturating_sub(i * 64));
        }
        PackedWord(w)
    }

    #[inline]
    fn count_ones(self) -> u32 {
        self.0.iter().map(|limb| limb.count_ones()).sum()
    }

    #[inline]
    fn is_zero(self) -> bool {
        self.0.iter().all(|&limb| limb == 0)
    }

    #[inline]
    fn lane(self, lane: usize) -> bool {
        assert!(
            lane < 64 * W,
            "lane {lane} out of range for PackedWord<{W}>"
        );
        self.0[lane / 64].lane(lane % 64)
    }

    #[inline]
    fn set_lane(&mut self, lane: usize) {
        assert!(
            lane < 64 * W,
            "lane {lane} out of range for PackedWord<{W}>"
        );
        self.0[lane / 64].set_lane(lane % 64);
    }

    #[inline]
    fn toggle_lane(&mut self, lane: usize) {
        assert!(
            lane < 64 * W,
            "lane {lane} out of range for PackedWord<{W}>"
        );
        self.0[lane / 64].toggle_lane(lane % 64);
    }

    #[inline]
    fn first_lane(self) -> Option<usize> {
        for (i, &limb) in self.0.iter().enumerate() {
            if limb != 0 {
                return Some(i * 64 + limb.trailing_zeros() as usize);
            }
        }
        None
    }

    #[inline]
    fn for_each_lane(self, mut f: impl FnMut(usize)) {
        for (i, &limb) in self.0.iter().enumerate() {
            limb.for_each_lane(|l| f(i * 64 + l));
        }
    }
}

/// Packs up to [`SimWord::LANES`] patterns (outer: pattern, inner: input
/// position) into one word per primary input — the width-generic form of
/// [`crate::parallel::pack_patterns`]. Lane `p` of word `i` is the value
/// of input `i` in pattern `p`.
///
/// # Panics
///
/// Panics if more than `LANES` patterns are supplied or pattern widths
/// differ.
pub fn pack_patterns_wide<Wd: SimWord>(patterns: &[Vec<bool>]) -> Vec<Wd> {
    let mut words = Vec::new();
    pack_patterns_wide_into(patterns, &mut words);
    words
}

/// [`pack_patterns_wide`] into a caller-owned buffer (cleared and
/// refilled), so per-chunk packing in campaign setup reuses one
/// allocation instead of building a fresh `Vec` per golden chunk.
///
/// # Panics
///
/// Panics if more than `LANES` patterns are supplied or pattern widths
/// differ.
pub fn pack_patterns_wide_into<Wd: SimWord>(patterns: &[Vec<bool>], words: &mut Vec<Wd>) {
    assert!(
        patterns.len() <= Wd::LANES,
        "at most {} patterns per word",
        Wd::LANES
    );
    words.clear();
    let Some(first) = patterns.first() else {
        return;
    };
    let width = first.len();
    words.resize(width, Wd::ZERO);
    for (p, pat) in patterns.iter().enumerate() {
        assert_eq!(pat.len(), width, "pattern width mismatch");
        for (i, &bit) in pat.iter().enumerate() {
            if bit {
                words[i].set_lane(p);
            }
        }
    }
}

/// Lane widths the runtime dispatchers accept (`W` in multiples of
/// 64-lane limbs): 1 is the historical `u64` engine, 2/4/8 are the
/// autovectorized wide words (128/256/512 lanes).
pub const SUPPORTED_LANE_WIDTHS: [usize; 4] = [1, 2, 4, 8];

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_mask(n: usize, lanes: usize) -> Vec<bool> {
        (0..lanes).map(|l| l < n).collect()
    }

    #[test]
    fn u64_live_mask_matches_reference() {
        for n in [0, 1, 3, 63, 64, 65, 200] {
            let m = <u64 as SimWord>::live_mask(n);
            for (l, &want) in reference_mask(n, 64).iter().enumerate() {
                assert_eq!(m.lane(l), want, "n={n} lane={l}");
            }
        }
    }

    #[test]
    fn packed_live_mask_matches_reference() {
        for n in [0, 1, 63, 64, 65, 127, 128, 129, 255, 256, 300] {
            let m = <PackedWord<4> as SimWord>::live_mask(n);
            for (l, &want) in reference_mask(n, 256).iter().enumerate() {
                assert_eq!(m.lane(l), want, "n={n} lane={l}");
            }
            assert_eq!(m.count_ones() as usize, n.min(256), "n={n}");
        }
    }

    #[test]
    fn packed_lane_ops_roundtrip() {
        let mut w = PackedWord::<2>::ZERO;
        assert!(w.is_zero());
        for lane in [0, 1, 63, 64, 100, 127] {
            w.set_lane(lane);
            assert!(w.lane(lane));
        }
        assert_eq!(w.count_ones(), 6);
        assert_eq!(w.first_lane(), Some(0));
        let mut seen = Vec::new();
        w.for_each_lane(|l| seen.push(l));
        assert_eq!(seen, vec![0, 1, 63, 64, 100, 127]);
        w.toggle_lane(0);
        w.toggle_lane(64);
        assert_eq!(w.first_lane(), Some(1));
        assert_eq!(w.count_ones(), 4);
    }

    #[test]
    fn packed_bitops_are_lanewise() {
        let mut a = PackedWord::<2>::ZERO;
        let mut b = PackedWord::<2>::ZERO;
        a.set_lane(3);
        a.set_lane(70);
        b.set_lane(70);
        b.set_lane(120);
        assert_eq!((a & b).count_ones(), 1);
        assert!((a & b).lane(70));
        assert_eq!((a | b).count_ones(), 3);
        assert_eq!((a ^ b).count_ones(), 2);
        assert_eq!((!PackedWord::<2>::ZERO), PackedWord::<2>::ONES);
        let mut c = a;
        c &= b;
        assert_eq!(c, a & b);
        c = a;
        c |= b;
        assert_eq!(c, a | b);
        c = a;
        c ^= b;
        assert_eq!(c, a ^ b);
    }

    #[test]
    fn splat_fills_every_lane() {
        assert_eq!(PackedWord::<4>::splat(true), PackedWord::<4>::ONES);
        assert_eq!(PackedWord::<4>::splat(false), PackedWord::<4>::ZERO);
        assert_eq!(<u64 as SimWord>::splat(true), u64::MAX);
    }

    #[test]
    fn pack_patterns_wide_matches_u64_packing_per_limb() {
        // 130 patterns over 3 inputs: wide packing at W=4 must agree with
        // three successive u64-packed chunks limb-by-limb.
        let mut s = 0x1234_5678_9abc_def0u64;
        let patterns: Vec<Vec<bool>> = (0..130)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                        s >> 40 & 1 == 1
                    })
                    .collect()
            })
            .collect();
        let wide: Vec<PackedWord<4>> = pack_patterns_wide(&patterns);
        for (ci, chunk) in patterns.chunks(64).enumerate() {
            let narrow: Vec<u64> = pack_patterns_wide(chunk);
            for i in 0..3 {
                assert_eq!(wide[i].0[ci], narrow[i], "input {i}, limb {ci}");
            }
        }
    }

    #[test]
    fn pack_patterns_wide_agrees_with_legacy_packer() {
        let patterns = vec![vec![true, false], vec![false, true], vec![true, true]];
        let legacy = crate::parallel::pack_patterns(&patterns);
        let wide: Vec<u64> = pack_patterns_wide(&patterns);
        assert_eq!(wide, legacy);
    }

    #[test]
    #[should_panic(expected = "at most 128 patterns")]
    fn pack_patterns_wide_rejects_overflow() {
        let _ = pack_patterns_wide::<PackedWord<2>>(&vec![vec![true]; 129]);
    }
}
