//! Hash maps for keys the simulator issues itself.
//!
//! Batch, task, container, allocation and invocation ids are small dense
//! integers handed out by this program, so nobody can craft them to
//! collide and SipHash's protection buys nothing on the replay path. A map
//! keyed by anything that arrives from outside (function names, bucket
//! names) keeps the standard hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// One multiply per key word, fixed key: word `w` folds in as
/// `(h.rotate_left(5) ^ w) * K`. A product's well-mixed bits are its high
/// ones, and the table reads a hash at both ends (bucket index from the
/// low bits, control byte from the top seven), so `finish` folds the high
/// half onto the low: dense ids and strided ones (`n << 20`) both spread.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

/// 2⁶⁴ / φ, odd.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` keyed by simulator-issued ids.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// A `HashSet` of simulator-issued ids.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(value)
    }

    #[test]
    fn dense_and_strided_ids_spread_over_buckets_and_control_bytes() {
        // What hashbrown reads of a hash: the low bits pick the bucket, the
        // top seven are the control byte. 4,096 keys thrown at 4,096
        // buckets uniformly leave ~63 % of them occupied.
        for stride in [1u64, 1 << 20, 1 << 32] {
            let hashes: Vec<u64> = (0..4096).map(|n| hash_of(n * stride)).collect();
            let buckets: HashSet<u64> = hashes.iter().map(|h| h & 4095).collect();
            assert!(buckets.len() > 2300, "stride {stride}: {}", buckets.len());
            let control: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert_eq!(control.len(), 128, "stride {stride}");
        }
    }

    #[test]
    fn tuple_keys_depend_on_every_field() {
        let all: HashSet<u64> = (0..64u64)
            .flat_map(|a| (0..64usize).map(move |b| hash_of((a, b))))
            .collect();
        assert_eq!(all.len(), 64 * 64);
        assert_ne!(hash_of((1u64, 2usize)), hash_of((2u64, 1usize)));
    }

    #[test]
    fn byte_slices_fall_back_to_whole_words() {
        assert_ne!(hash_of([1u8, 2, 3]), hash_of([1u8, 2, 4]));
        assert_ne!(hash_of([0u8; 9]), hash_of([0u8; 10]));
    }
}
