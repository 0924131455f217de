//! Pattern helpers shared by the integration tests of this crate.
//!
//! Each test file that uses them declares `mod common;`, and a file
//! that uses one helper leaves the other unused.
#![allow(dead_code)]

/// `count` patterns of `n_inputs` bits from an xorshift stream seeded
/// with `seed` mixed with a fixed constant.
pub fn random_patterns(n_inputs: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut s = seed.max(1) ^ 0x5851_f42d_4c95_7f2d;
    (0..count)
        .map(|_| {
            (0..n_inputs)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    s & 1 == 1
                })
                .collect()
        })
        .collect()
}

/// [`random_patterns`] with the xorshift stream seeded by `seed`
/// itself (unmixed).
pub fn random_patterns_unmixed(n_inputs: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut s = seed.max(1);
    (0..count)
        .map(|_| {
            (0..n_inputs)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    s & 1 == 1
                })
                .collect()
        })
        .collect()
}
