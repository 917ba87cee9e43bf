//! The hasher of the allocator's integer-keyed maps.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by simulated addresses, page numbers or span ids.
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// 2^64 / φ, odd: its product with a key mixes every key bit into the high
/// bits.
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-shift hashing of integer keys. Each key word is multiplied by
/// [`MUL`], and the product is rotated so that its well-mixed high bits
/// become the low bits a table indexes by.
///
/// The keys are the model's own addresses and counters, so the maps need
/// no defence against chosen keys, which is what std's SipHash pays for.
/// Swapping the hasher changes no simulated result: std seeds SipHash per
/// map, so nothing already could depend on iteration order, and the one
/// iteration over these maps only counts.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(MUL);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    /// Block addresses, pages and span ids all come in strides; each
    /// stride must still spread over the low bits a table indexes by.
    #[test]
    fn strided_keys_spread_over_the_low_bits() {
        let build = BuildHasherDefault::<IntHasher>::default();
        for stride in [1u64, 8, 16, 64, 4_096, 8_192, 1 << 20] {
            let buckets: HashSet<u64> = (0..4_096u64)
                .map(|i| build.hash_one(0x1000_0000 + i * stride) & 4_095)
                .collect();
            assert!(buckets.len() > 2_048, "stride {stride}: {}", buckets.len());
        }
    }
}
