//! Byte-budgeted LRU block cache of decoded shards, with **mapped vs
//! heap** accounting.
//!
//! The cache is what makes the store *out-of-core*: a dataset far larger
//! than RAM streams through a bounded working set. One entry per
//! [`ShardKey`] holds one residency: a [`DecodedShard`], the decoded
//! [`SampleSet`] every batch is tensorized from plus its targets
//! ([`column_means`](crate::batching::column_means)), both made once per
//! residency, so neither a lossy shard's reconstruction nor the O(points)
//! target reduction runs per request. Set and targets are one value:
//! inserted, hit and evicted together. The shard's raw bytes are not
//! cached: they are a slice of the store's pack mapping, hash-verified on
//! every read of it, which is once per residency.
//!
//! Each entry is charged against two budgets: `budget_bytes` bounds its
//! heap bytes (the decoded set and targets), `mapped_budget_bytes` its
//! shard's pack bytes. Pack pages belong to the OS page cache, so counting
//! them against the heap budget would double-charge memory the kernel can
//! reclaim on its own. Eviction is whole-entry LRU driven by whichever
//! budget is over.
//!
//! Hits and misses count on `store.cache.hit` / `store.cache.miss`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use sickle_field::SampleSet;

use crate::manifest::ShardKey;

/// A decoded shard as the cache holds it: the set and its
/// [`column_means`](crate::batching::column_means), computed once by
/// [`DecodedShard::new`] — the only constructor, so the targets always
/// belong to the set beside them. Cloning is two refcount bumps.
#[derive(Clone)]
pub struct DecodedShard {
    set: Arc<SampleSet>,
    targets: Arc<[f32]>,
}

impl DecodedShard {
    /// Pairs a decoded set with its targets, running the reduction once.
    pub fn new(set: Arc<SampleSet>) -> Self {
        let targets = crate::batching::column_means(&set).into();
        DecodedShard { set, targets }
    }

    /// The decoded set.
    pub fn set(&self) -> &Arc<SampleSet> {
        &self.set
    }

    /// The decoded set, without its targets.
    pub fn into_set(self) -> Arc<SampleSet> {
        self.set
    }

    /// The set's per-column means, one per feature.
    pub fn targets(&self) -> &Arc<[f32]> {
        &self.targets
    }

    /// The set and its targets as the batch assembler takes them.
    pub fn pair(&self) -> (&SampleSet, &[f32]) {
        (&self.set, &self.targets)
    }

    /// Heap payload of the set plus its targets.
    fn heap_bytes(&self) -> usize {
        sample_set_bytes(&self.set) + std::mem::size_of_val(&*self.targets)
    }
}

struct CacheEntry {
    decoded: DecodedShard,
    heap_bytes: usize,
    mapped_bytes: usize,
    last_used: u64,
}

struct CacheInner {
    map: HashMap<ShardKey, CacheEntry>,
    heap_bytes: usize,
    mapped_bytes: usize,
    tick: u64,
}

/// Approximate resident size of a decoded sample set (heap payload; the
/// fixed struct overhead is noise next to the data arrays).
pub fn sample_set_bytes(set: &SampleSet) -> usize {
    set.features.data.len() * 8
        + set.indices.len() * 8
        + set
            .features
            .names
            .iter()
            .map(|n| n.capacity() + 24)
            .sum::<usize>()
}

/// A thread-safe LRU cache of shards bounded by a heap-byte budget and a
/// separate mapped-byte budget.
pub struct BlockCache {
    inner: Mutex<CacheInner>,
    budget_bytes: usize,
    mapped_budget_bytes: usize,
}

impl BlockCache {
    /// Creates a cache holding at most ~`budget_bytes` of heap-resident
    /// shard data and ~`mapped_budget_bytes` of mapped shard bytes. A
    /// budget of zero still admits one shard at a time (the item being
    /// served must be resident to be served at all).
    pub fn new(budget_bytes: usize, mapped_budget_bytes: usize) -> Self {
        BlockCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                heap_bytes: 0,
                mapped_bytes: 0,
                tick: 0,
            }),
            budget_bytes,
            mapped_budget_bytes,
        }
    }

    /// Looks a decoded shard up, bumping its recency. Counts
    /// `store.cache.hit` or `store.cache.miss`.
    pub fn get(&self, key: ShardKey) -> Option<DecodedShard> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = tick;
                sickle_obs::counter!("store.cache.hit", 1usize);
                Some(entry.decoded.clone())
            }
            None => {
                sickle_obs::counter!("store.cache.miss", 1usize);
                None
            }
        }
    }

    /// The key's decoded shard if resident. Does not touch recency or
    /// counters, so the prefetcher's probe and the second look of a miss
    /// leave the hit statistics alone.
    pub fn peek(&self, key: ShardKey) -> Option<DecodedShard> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .get(&key)
            .map(|entry| entry.decoded.clone())
    }

    /// Inserts (or replaces) a decoded shard whose pack range is
    /// `mapped_bytes` long, evicting least-recently-used entries until both
    /// budgets hold again. The entry just inserted is never evicted by its
    /// own insertion, so a single oversized shard still serves.
    pub fn insert(&self, key: ShardKey, decoded: DecodedShard, mapped_bytes: usize) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let entry = CacheEntry {
            heap_bytes: decoded.heap_bytes(),
            mapped_bytes,
            last_used: inner.tick,
            decoded,
        };
        inner.heap_bytes += entry.heap_bytes;
        inner.mapped_bytes += entry.mapped_bytes;
        if let Some(old) = inner.map.insert(key, entry) {
            inner.heap_bytes -= old.heap_bytes;
            inner.mapped_bytes -= old.mapped_bytes;
        }
        while (inner.heap_bytes > self.budget_bytes
            || inner.mapped_bytes > self.mapped_budget_bytes)
            && inner.map.len() > 1
        {
            let victim = inner
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(v) => {
                    if let Some(evicted) = inner.map.remove(&v) {
                        inner.heap_bytes -= evicted.heap_bytes;
                        inner.mapped_bytes -= evicted.mapped_bytes;
                        sickle_obs::counter!("store.cache.evicted", 1usize);
                    }
                }
                None => break,
            }
        }
        sickle_obs::gauge!("store.cache.resident_bytes", inner.heap_bytes);
        sickle_obs::gauge!("store.cache.mapped_bytes", inner.mapped_bytes);
        sickle_obs::gauge!("store.cache.resident_shards", inner.map.len());
    }

    /// Resident shard count.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap-resident bytes (decoded sets and their targets;
    /// mapped bytes are excluded — they belong to the OS page cache).
    pub fn resident_bytes(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .heap_bytes
    }

    /// Pack bytes of the resident shards (page-cache-backed, charged
    /// against the mapped budget).
    pub fn mapped_bytes(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .mapped_bytes
    }

    /// The configured heap byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sickle_field::FeatureMatrix;

    fn shard_of(n: usize) -> DecodedShard {
        let features = FeatureMatrix::new(vec!["u".into()], vec![0.5; n]);
        DecodedShard::new(Arc::new(SampleSet::new(features, (0..n).collect(), 0.0, 0)))
    }

    fn key(cube: usize) -> ShardKey {
        ShardKey { snapshot: 0, cube }
    }

    fn cache(budget: usize) -> BlockCache {
        BlockCache::new(budget, usize::MAX)
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = cache(1 << 20);
        assert!(cache.get(key(0)).is_none());
        cache.insert(key(0), shard_of(4), 0);
        let got = cache.get(key(0)).expect("resident");
        assert_eq!(got.set().len(), 4);
        assert_eq!(&got.targets()[..], [0.5f32]);
    }

    #[test]
    fn evicts_least_recently_used_under_budget_pressure() {
        // Each set is ~16B/point of payload; budget fits roughly two sets.
        let per = shard_of(100).heap_bytes();
        let cache = cache(per * 2 + per / 2);
        cache.insert(key(0), shard_of(100), 0);
        cache.insert(key(1), shard_of(100), 0);
        // Touch 0 so 1 becomes the LRU victim.
        assert!(cache.get(key(0)).is_some());
        cache.insert(key(2), shard_of(100), 0);
        assert!(cache.peek(key(0)).is_some(), "recently used survives");
        assert!(cache.peek(key(1)).is_none(), "LRU evicted");
        assert!(cache.peek(key(2)).is_some(), "new entry resident");
        assert!(cache.resident_bytes() <= cache.budget_bytes());
    }

    #[test]
    fn oversized_single_shard_still_resides() {
        let cache = cache(8); // far below one shard
        cache.insert(key(0), shard_of(1000), 0);
        assert!(cache.peek(key(0)).is_some());
        // The next insert displaces it (budget admits only one).
        cache.insert(key(1), shard_of(1000), 0);
        assert!(cache.peek(key(0)).is_none());
        assert!(cache.peek(key(1)).is_some());
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let cache = cache(1 << 20);
        let first = shard_of(10);
        cache.insert(key(0), first.clone(), 0);
        let b1 = cache.resident_bytes();
        // The targets (one f32 per feature) are charged beside the set.
        assert_eq!(b1, sample_set_bytes(first.set()) + 4);
        cache.insert(key(0), shard_of(10), 0);
        assert_eq!(cache.resident_bytes(), b1);
        assert_eq!(cache.len(), 1);
        // The replacement's targets are what a hit returns now.
        let hit = cache.get(key(0)).expect("resident");
        assert!(!Arc::ptr_eq(hit.targets(), first.targets()));

        // Set and targets leave together: with room for one shard, the
        // next insert evicts the whole entry and only its bytes remain.
        let tight = BlockCache::new(b1, usize::MAX);
        tight.insert(key(0), shard_of(10), 0);
        tight.insert(key(1), shard_of(10), 0);
        assert!(tight.get(key(0)).is_none(), "set and targets evicted");
        assert_eq!(tight.resident_bytes(), b1);
    }

    #[test]
    fn mapped_budget_evicts_independently() {
        // The heap budget holds every decoded set, so only the resident
        // pack bytes can evict.
        let cache = BlockCache::new(1 << 20, 10_000);
        cache.insert(key(0), shard_of(10), 8192);
        assert_eq!(cache.mapped_bytes(), 8192);
        assert_eq!(
            cache.resident_bytes(),
            shard_of(10).heap_bytes(),
            "pack bytes do not charge the heap budget"
        );
        cache.insert(key(1), shard_of(10), 1024);
        assert!(
            cache.peek(key(0)).is_some(),
            "9216 pack bytes fit in 10 000"
        );
        cache.insert(key(2), shard_of(10), 4096);
        assert!(
            cache.peek(key(0)).is_none(),
            "mapped budget evicted the LRU"
        );
        assert!(cache.peek(key(1)).is_some() && cache.peek(key(2)).is_some());
        assert_eq!(cache.mapped_bytes(), 1024 + 4096);
        assert_eq!(cache.resident_bytes(), 2 * shard_of(10).heap_bytes());
    }
}
