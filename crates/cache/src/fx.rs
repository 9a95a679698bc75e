//! A tiny deterministic multiplicative hasher for hot-path tables whose
//! keys the program generates itself.
//!
//! Two layers hash millions of small integer keys per run — the coverage
//! collectors' per-cycle sets (an insert attempt per statement/point per
//! cycle) and the model checker's structural AND cache (a lookup per
//! encoded gate) — and in both SipHash rounds dominated the table
//! operation. Ids and small state values mix in a couple of arithmetic
//! ops instead. The seed is fixed, so runs stay reproducible. Not for
//! keys that arrive from outside the program: there is no protection
//! against crafted collisions.

use std::collections::{HashMap, HashSet};

/// The hasher; see the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_f9ad_32db_e727);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// [`std::hash::BuildHasher`] for [`FxHasher`].
pub type FxBuild = std::hash::BuildHasherDefault<FxHasher>;
/// A `HashSet` on [`FxHasher`].
pub type FxSet<T> = HashSet<T, FxBuild>;
/// A `HashMap` on [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, FxBuild>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hashes_are_fixed_across_builders_and_sensitive_to_order() {
        let hash = |key: (u32, u32)| FxBuild::default().hash_one(key);
        assert_eq!(hash((3, 7)), hash((3, 7)));
        assert_ne!(hash((3, 7)), hash((7, 3)));
        let mut set = FxSet::default();
        assert!(set.insert((3u32, 7u32)));
        assert!(!set.insert((3, 7)));
    }
}
