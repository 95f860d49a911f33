//! The workspace's one fixed hasher, for tables keyed by small ids the
//! fabric or a manager issued itself.
//!
//! An arrival, a response and a teardown each look up a handful of such ids
//! — a node's access switch, a channel id, a coordinator's token — and an
//! ordered map pays a tree descent per look-up for an order almost nothing
//! reads.  The tables on that path hash with [`FoldHasher`] instead, and the
//! few outputs that promise ascending ids sort on the way out.

use std::hash::{BuildHasherDefault, Hasher};

/// The odd multiplier of the fixed hashes (`2^64 / φ`).
pub const FOLD_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// A multiply-and-fold [`Hasher`]: each word is folded in by a rotate, an
/// xor and a multiply by [`FOLD_MIX`], and `finish` folds the top half onto
/// the bottom around one more multiply, so that a table's bucket (low bits)
/// and tag (top bits) both depend on every word.  Fixed, not seeded: every
/// key hashed with it is made of ids the fabric or the manager itself issued
/// (a view fingerprint, node ids, a channel id, a coordinator's token), and
/// SipHash costs a look-up more than the probe it serves.  Nothing may read
/// a table's iteration order as an output.
#[derive(Debug, Default, Clone, Copy)]
pub struct FoldHasher(u64);

/// The hasher parameter of the tables that use [`FoldHasher`].
pub type FoldState = BuildHasherDefault<FoldHasher>;

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    // The integer writes fold the value in as one word: what `write` makes
    // of the value's bytes on a little-endian host, without the byte loop
    // that the default methods send every id, tuple field and enum
    // discriminant through.
    fn write_u16(&mut self, word: u16) {
        self.write_u64(u64::from(word));
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(26) ^ word).wrapping_mul(FOLD_MIX);
    }

    fn finish(&self) -> u64 {
        let mixed = (self.0 ^ self.0 >> 32).wrapping_mul(FOLD_MIX);
        mixed ^ mixed >> 32
    }
}

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use super::*;

    #[test]
    fn consecutive_ids_spread_over_the_buckets() {
        // 1 024 consecutive u16 ids into 256 buckets (the low byte): no
        // bucket may hold more than a small multiple of the mean (4).
        let state = FoldState::default();
        let mut buckets = [0u32; 256];
        for id in 1..=1024u16 {
            buckets[(state.hash_one(id) & 0xff) as usize] += 1;
        }
        assert!(buckets.iter().all(|&n| n <= 16), "{buckets:?}");
    }
}
