//! Little-endian byte writers behind the compiled arena's wire format
//! ([`crate::compiled::CompiledNetlist::to_bytes`]).
//!
//! Arrays are length-prefixed with a `u64` element count; booleans pack
//! LSB-first into bytes. Nothing reads the format back: the bytes pin an
//! arena's identity in tests (the derived-bytes digests, and restricting
//! an arena to every gate rebuilding it byte for byte), never a cache.

/// Appends a `u64` element-count prefix.
pub fn put_len(buf: &mut Vec<u8>, len: usize) {
    buf.extend_from_slice(&(len as u64).to_le_bytes());
}

/// Appends a length-prefixed `u32` array.
pub fn put_u32s(buf: &mut Vec<u8>, xs: &[u32]) {
    put_len(buf, xs.len());
    buf.reserve(xs.len() * 4);
    for &x in xs {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

/// Appends a length-prefixed bit-packed bool array (LSB-first).
pub fn put_bits(buf: &mut Vec<u8>, bits: &[bool]) {
    put_len(buf, bits.len());
    let mut byte = 0u8;
    for (i, &b) in bits.iter().enumerate() {
        if b {
            byte |= 1 << (i & 7);
        }
        if i & 7 == 7 {
            buf.push(byte);
            byte = 0;
        }
    }
    if !bits.len().is_multiple_of(8) {
        buf.push(byte);
    }
}
