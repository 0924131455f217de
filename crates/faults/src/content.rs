//! Canonical content hashing of campaigns (the durable-campaign keys).
//!
//! A durable campaign is cached under
//! `hash(netlist, fault universe, engine options, pattern block)`; for
//! the cache to be worth anything the encoding behind that hash must be
//! *byte-stable*: the same compiled netlist, fault list, options and
//! patterns must hash identically across runs, processes and machines.
//! This module defines that encoding — fixed-width little-endian fields
//! through [`CanonicalHasher`], every list length-prefixed, every enum
//! mapped through an explicit (enum-order-independent) code table — and
//! the golden-hash tests at the bottom pin the format: if any of them
//! fails, the encoding changed and every existing store is invalidated,
//! so bump the domain-tag versions instead of silently re-keying.

use crate::model::{Fault, FaultSite};
use crate::simulate::PackedOptions;
use rescue_campaign::store::{CanonicalHasher, ContentHash};
use rescue_netlist::Netlist;
use rescue_sim::compiled::CompiledNetlist;

/// Content hash of a compiled netlist: gate kinds, pin lists and the
/// interface arrays (primary inputs, PO drivers, flip-flops). Levelized
/// order and fanout are derived data, so they are deliberately excluded
/// — two structurally identical netlists hash identically no matter how
/// they were built.
pub fn hash_netlist(c: &CompiledNetlist) -> ContentHash {
    let mut h = CanonicalHasher::new("rescue.netlist.v1");
    h.write_usize(c.len());
    for g in 0..c.len() {
        h.write_u8(c.kind(g).wire_code());
        let pins = c.pins_of(g);
        h.write_usize(pins.len());
        for &p in pins {
            h.write_u32(p);
        }
    }
    for list in [c.primary_inputs(), c.po_drivers(), c.dffs(), c.dff_d()] {
        h.write_usize(list.len());
        for &g in list {
            h.write_u32(g);
        }
    }
    h.finish()
}

/// [`hash_netlist`] computed from the *source* [`Netlist`], without
/// compiling it — byte-identical to hashing the compiled arena, because
/// the hash covers exactly the fields compilation copies verbatim (gate
/// kinds and pin lists in id order, then the PI / PO-driver / DFF / DFF-D
/// interface arrays). No library path keys on it: nothing derived from
/// a netlist is cached. The tests use it to pin that a source netlist
/// and its compiled arena hash alike.
pub fn hash_netlist_source(netlist: &Netlist) -> ContentHash {
    let mut h = CanonicalHasher::new("rescue.netlist.v1");
    h.write_usize(netlist.len());
    for (_, g) in netlist.iter() {
        h.write_u8(g.kind().wire_code());
        h.write_usize(g.inputs().len());
        for &p in g.inputs() {
            h.write_u32(p.index() as u32);
        }
    }
    h.write_usize(netlist.primary_inputs().len());
    for g in netlist.primary_inputs() {
        h.write_u32(g.index() as u32);
    }
    h.write_usize(netlist.primary_outputs().len());
    for (_, g) in netlist.primary_outputs() {
        h.write_u32(g.index() as u32);
    }
    h.write_usize(netlist.dffs().len());
    for g in netlist.dffs() {
        h.write_u32(g.index() as u32);
    }
    h.write_usize(netlist.dffs().len());
    for &d in netlist.dffs() {
        h.write_u32(netlist.gate(d).inputs()[0].index() as u32);
    }
    h.finish()
}

/// Content hash of a fault universe (order-sensitive: the verdict vector
/// is indexed by fault position).
pub fn hash_faults(faults: &[Fault]) -> ContentHash {
    let mut h = CanonicalHasher::new("rescue.faults.v1");
    h.write_usize(faults.len());
    for f in faults {
        match f.site() {
            FaultSite::Output(g) => {
                h.write_u8(0);
                h.write_usize(g.index());
                h.write_usize(0);
            }
            FaultSite::Pin { gate, pin } => {
                h.write_u8(1);
                h.write_usize(gate.index());
                h.write_usize(pin);
            }
        }
        h.write_u8(f.kind().code());
    }
    h.finish()
}

/// Content hash of a pattern block. Each pattern is its length, then its
/// bits packed eight to a byte (LSB-first) as a length-prefixed byte
/// string, so hashing costs one FNV step per eight pattern bits; each
/// byte is packed from its eight bits with no branch on their values.
pub fn hash_patterns(patterns: &[Vec<bool>]) -> ContentHash {
    let mut h = CanonicalHasher::new("rescue.patterns.v1");
    h.write_usize(patterns.len());
    for p in patterns {
        h.write_usize(p.len());
        // The byte string's length prefix, then its bytes.
        h.write_usize(p.len().div_ceil(8));
        for bits in p.chunks(8) {
            let byte = bits
                .iter()
                .rev()
                .fold(0, |byte, &bit| byte << 1 | u8::from(bit));
            h.write_u8(byte);
        }
    }
    h.finish()
}

/// Content hash of the engine configuration: lane width, collapse
/// on/off, tracing on/off. All three are keyed even though verdicts are
/// engine-invariant, because the *unit partition* is not: a collapsed
/// campaign units over walk-list representatives, and per-unit stats
/// deltas (e.g. drop counts) depend on the lane width.
pub fn hash_options(opts: &PackedOptions) -> ContentHash {
    let mut h = CanonicalHasher::new("rescue.options.v1");
    h.write_usize(opts.lane_width);
    h.write_bool(opts.collapsed.is_some());
    h.write_bool(opts.tracing);
    h.finish()
}

/// The durable-campaign key: netlist, fault universe, options and
/// pattern block combined. Deliberately excludes worker count and seed
/// — they change wall-clock, never verdicts, so a resumed run
/// under a different thread count still hits the same units.
pub fn campaign_hash(
    c: &CompiledNetlist,
    faults: &[Fault],
    patterns: &[Vec<bool>],
    opts: &PackedOptions,
) -> ContentHash {
    let mut h = CanonicalHasher::new("rescue.campaign.v1");
    h.write_u128(hash_netlist(c).0);
    h.write_u128(hash_faults(faults).0);
    h.write_u128(hash_options(opts).0);
    h.write_u128(hash_patterns(patterns).0);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe;
    use proptest::prelude::*;
    use rescue_netlist::generate;

    fn c17_compiled() -> CompiledNetlist {
        CompiledNetlist::new(&generate::c17())
    }

    fn sample_patterns() -> Vec<Vec<bool>> {
        (0..9u32)
            .map(|p| (0..5).map(|i| p >> i & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn hashes_are_run_to_run_stable() {
        let c = c17_compiled();
        let faults = universe::stuck_at_universe(&generate::c17());
        assert_eq!(hash_netlist(&c), hash_netlist(&c17_compiled()));
        assert_eq!(hash_faults(&faults), hash_faults(&faults.clone()));
        assert_eq!(
            hash_patterns(&sample_patterns()),
            hash_patterns(&sample_patterns())
        );
    }

    #[test]
    fn every_ingredient_moves_the_campaign_hash() {
        let net = generate::c17();
        let c = CompiledNetlist::new(&net);
        let faults = universe::stuck_at_universe(&net);
        let patterns = sample_patterns();
        let opts = PackedOptions::default();
        let base = campaign_hash(&c, &faults, &patterns, &opts);
        // Different netlist.
        let other = CompiledNetlist::new(&generate::adder(4));
        assert_ne!(base, campaign_hash(&other, &faults, &patterns, &opts));
        // Different universe (drop one fault).
        assert_ne!(
            base,
            campaign_hash(&c, &faults[..faults.len() - 1], &patterns, &opts)
        );
        // Different patterns (flip one bit).
        let mut flipped = patterns.clone();
        flipped[0][0] = !flipped[0][0];
        assert_ne!(base, campaign_hash(&c, &faults, &flipped, &opts));
        // Different options.
        assert_ne!(
            base,
            campaign_hash(&c, &faults, &patterns, &PackedOptions::wide(4))
        );
        assert_ne!(
            base,
            campaign_hash(&c, &faults, &patterns, &PackedOptions::default().traced())
        );
    }

    #[test]
    fn source_hash_matches_compiled_hash() {
        // The source and the compiled hash must agree on every design
        // shape (combinational, arithmetic, sequential, generated).
        for net in [
            generate::c17(),
            generate::adder(4),
            generate::control_fsm(),
            generate::random_logic(8, 300, 4, 9),
        ] {
            let c = CompiledNetlist::new(&net);
            assert_eq!(
                hash_netlist_source(&net),
                hash_netlist(&c),
                "{}",
                net.name()
            );
        }
    }

    /// One pattern per width, from empty to past a second `u64`, each
    /// filled from a xorshift stream so every byte, the partial last
    /// one included, holds a mix of bits.
    fn block_of_widths() -> Vec<Vec<bool>> {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        [0, 1, 7, 8, 9, 31, 32, 63, 64, 65, 130]
            .map(|width| {
                (0..width)
                    .map(|_| {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        s & 1 == 1
                    })
                    .collect()
            })
            .to_vec()
    }

    /// The pattern encoding one bit at a time: a pattern's length, then
    /// its bits packed LSB-first into a length-prefixed byte string.
    /// [`hash_patterns`] must feed the hasher exactly these bytes.
    fn hash_patterns_bitwise(patterns: &[Vec<bool>]) -> ContentHash {
        let mut h = CanonicalHasher::new("rescue.patterns.v1");
        h.write_usize(patterns.len());
        for p in patterns {
            h.write_usize(p.len());
            let mut packed = vec![0u8; p.len().div_ceil(8)];
            for (i, &bit) in p.iter().enumerate() {
                if bit {
                    packed[i / 8] |= 1 << (i % 8);
                }
            }
            h.write_bytes(&packed);
        }
        h.finish()
    }

    /// The c17 patterns of [`golden_hashes_pin_the_encoding`] are five
    /// bits wide and never reach a second byte; this block's widths
    /// cross every byte boundary up to 130 bits.
    #[test]
    fn golden_hash_pins_patterns_past_one_byte() {
        assert_eq!(
            hash_patterns(&block_of_widths()).to_string(),
            "f42505df67cf1bc3f00699a1124f6666",
            "pattern encoding changed"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random blocks of 0–40 patterns × 0–130 bits hash as the
        /// bit-at-a-time reference does.
        #[test]
        fn packed_pattern_hash_equals_the_bitwise_reference(
            block in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 0..131), 0..41),
        ) {
            prop_assert_eq!(hash_patterns(&block), hash_patterns_bitwise(&block));
        }
    }

    #[test]
    fn pattern_lengths_disambiguate() {
        // [1-bit, 2-bit] vs [2-bit, 1-bit] pattern splits must differ
        // even though the concatenated bit streams agree.
        let a = vec![vec![true], vec![false, true]];
        let b = vec![vec![true, false], vec![true]];
        assert_ne!(hash_patterns(&a), hash_patterns(&b));
    }

    /// Golden hashes pinning the canonical encoding. These values are
    /// the on-disk format contract: a change here invalidates every
    /// existing store directory, so it must be deliberate (bump the
    /// `rescue.*.v1` domain tags) — never an accident of refactoring.
    #[test]
    fn golden_hashes_pin_the_encoding() {
        let net = generate::c17();
        let c = CompiledNetlist::new(&net);
        let faults = universe::stuck_at_universe(&net);
        let patterns = sample_patterns();
        assert_eq!(
            hash_netlist(&c).to_string(),
            "b4086e2106f40c06ab4383434080df49",
            "netlist encoding changed"
        );
        assert_eq!(
            hash_faults(&faults).to_string(),
            "d890d7fd8feced80e097b517525722c3",
            "fault encoding changed"
        );
        assert_eq!(
            hash_patterns(&patterns).to_string(),
            "426705cf1a7b318ec5d59e706448fa7d",
            "pattern encoding changed"
        );
        assert_eq!(
            hash_options(&PackedOptions::wide(4).traced()).to_string(),
            "045702a38a93d327109cc8cb50de54ff",
            "options encoding changed"
        );
        assert_eq!(
            campaign_hash(&c, &faults, &patterns, &PackedOptions::default()).to_string(),
            "f861a5b0b8810bee20b4d7d6ff7b9915",
            "campaign key derivation changed"
        );
    }
}
