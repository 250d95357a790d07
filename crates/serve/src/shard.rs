//! N-way sharded maps keyed by content hash.
//!
//! One process-wide `Mutex<HashMap>` was fine while the service was fed
//! by a handful of in-process clients; a network front-end pushes every
//! connection handler and worker through the same memo, and a single
//! lock serialises them all. [`ShardedMap`] splits the table into
//! `shards` independently locked maps, selected by an FNV-1a hash of
//! the key's *content*, so two workers warming different kernels (or
//! two tenants' quota bookkeeping) never contend on the same lock.
//!
//! The shard count is fixed at construction and must be a power of two
//! (rounded up internally) so shard selection is a mask, not a divide.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::sync::lock_clean;

/// FNV-1a over the key bytes — the same content-hash family
/// `imt_core::profile_cache` keys its on-disk entries with.
pub(crate) fn content_hash(key: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &byte in key.as_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// A hash map sharded over independently locked segments.
#[derive(Debug)]
pub(crate) struct ShardedMap<V> {
    shards: Box<[Mutex<HashMap<String, V>>]>,
    mask: usize,
}

impl<V: Clone> ShardedMap<V> {
    /// Creates a map with at least `shards` segments (rounded up to a
    /// power of two, minimum 1).
    pub(crate) fn new(shards: usize) -> ShardedMap<V> {
        let count = shards.max(1).next_power_of_two();
        ShardedMap {
            shards: (0..count).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: count - 1,
        }
    }

    fn shard(&self, key: &str) -> &Mutex<HashMap<String, V>> {
        &self.shards[(content_hash(key) as usize) & self.mask]
    }

    /// Number of shards.
    #[cfg(test)]
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Clones the value under `key`, if present.
    pub(crate) fn get(&self, key: &str) -> Option<V> {
        lock_clean(self.shard(key)).get(key).cloned()
    }

    /// Inserts `value` unless the key was filled while the caller was
    /// computing it, and returns the winner. Two workers racing a cold
    /// key both compute, but every reader observes one canonical value.
    pub(crate) fn insert_first(&self, key: &str, value: V) -> V {
        lock_clean(self.shard(key))
            .entry(key.to_string())
            .or_insert(value)
            .clone()
    }

    /// Runs `f` on the value under `key` while holding its shard lock,
    /// inserting `V::default()` first if absent.
    pub(crate) fn update<R>(&self, key: &str, f: impl FnOnce(&mut V) -> R) -> R
    where
        V: Default,
    {
        f(lock_clean(self.shard(key))
            .entry(key.to_string())
            .or_default())
    }

    /// Total entries across all shards (diagnostic; takes each shard
    /// lock in turn, so the count is approximate under concurrency).
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_clean(s).len()).sum()
    }

    /// Clones of every value, shard by shard (diagnostic, like `len`).
    pub(crate) fn values(&self) -> Vec<V> {
        self.shards
            .iter()
            .flat_map(|s| lock_clean(s).values().cloned().collect::<Vec<_>>())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        assert_eq!(ShardedMap::<u32>::new(0).shard_count(), 1);
        assert_eq!(ShardedMap::<u32>::new(1).shard_count(), 1);
        assert_eq!(ShardedMap::<u32>::new(9).shard_count(), 16);
        assert_eq!(ShardedMap::<u32>::new(16).shard_count(), 16);
    }

    #[test]
    fn insert_first_keeps_the_first_value() {
        let map = ShardedMap::new(4);
        assert_eq!(map.insert_first("k", 1), 1);
        assert_eq!(map.insert_first("k", 2), 1, "first insert wins");
        assert_eq!(map.get("k"), Some(1));
        assert_eq!(map.get("missing"), None);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn update_inserts_default_and_mutates_in_place() {
        let map: ShardedMap<u64> = ShardedMap::new(4);
        map.update("t", |v| *v += 3);
        map.update("t", |v| *v += 4);
        assert_eq!(map.get("t"), Some(7));
    }

    #[test]
    fn content_hash_spreads_distinct_keys() {
        // Not a statistical test — just that the hash actually depends
        // on content, so sharding is content-keyed as documented.
        let a = content_hash("mmul-100#1000000");
        let b = content_hash("mmul-100#1000001");
        let c = content_hash("fft-256#1000000");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn keys_land_in_stable_shards_under_concurrency() {
        let map = ShardedMap::new(8);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let map = &map;
                scope.spawn(move || {
                    for i in 0..64 {
                        let key = format!("key-{}", (t * 64 + i) % 16);
                        map.insert_first(&key, i);
                        let _ = map.get(&key);
                    }
                });
            }
        });
        assert_eq!(map.len(), 16);
    }
}
