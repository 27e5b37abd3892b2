//! FNV-1a, 64 bits: the one hash every deterministic digest in the
//! workspace is made of — trace and span hashes, state digests, log
//! checksums, troupe ids, retransmission jitter. Not a defence against
//! anything; a fixed, dependency-free function of the bytes.

/// The state an FNV-1a digest starts from.
pub const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues the digest `h` over `bytes`: folding two slices one after
/// the other is folding their concatenation.
pub fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// The FNV-1a digest of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV1A_BASIS, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_vectors_and_folds_piecewise() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_fold(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
