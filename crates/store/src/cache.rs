//! Byte-budgeted LRU block cache for shards, with **mapped vs heap**
//! accounting.
//!
//! The cache is what makes the store *out-of-core*: a dataset far larger
//! than RAM streams through a bounded working set. One entry per
//! [`ShardKey`] holds up to two residencies of the same shard:
//!
//! - **raw** — the verified on-disk bytes as an [`Arc<ShardBytes>`], a
//!   range view of the store's pack mapping, whose pages belong to the OS
//!   page cache. These are what `get()` decodes from,
//!   hash-verified once per residency, so a shard re-decoded after its
//!   decoded residency was evicted skips the hash check.
//! - **decoded** — a [`DecodedShard`]: the decoded [`SampleSet`] every
//!   batch is tensorized from plus its targets
//!   ([`column_means`](crate::batching::column_means)), both made once per
//!   residency, so neither a lossy shard's reconstruction nor the O(points)
//!   target reduction runs per request. Set and targets are one value:
//!   inserted, hit and evicted together.
//!
//! The two residencies are budgeted separately: `budget_bytes` bounds
//! heap-resident bytes (decoded shards), while `mapped_budget_bytes`
//! bounds the bytes of cached verified views of the mapping — counting
//! them against the heap budget would double-charge the OS page cache and
//! evict decoded sets to "make room" for memory the kernel can reclaim on
//! its own. It bounds
//! views, not mappings: the store maps its pack once, and evicting a view
//! only means the shard is re-hashed on its next miss. Eviction is
//! whole-entry LRU driven by whichever budget is over.
//!
//! Hits and misses on the decoded side keep their historical counters
//! (`store.cache.hit` / `store.cache.miss`); the raw side gets its own
//! `store.cache.raw_hit` / `store.cache.raw_miss` pair.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use sickle_field::SampleSet;

use crate::manifest::ShardKey;
use crate::shard_bytes::ShardBytes;

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
    raw: Option<Arc<ShardBytes>>,
    decoded: Option<DecodedShard>,
    heap_bytes: usize,
    mapped_bytes: usize,
    last_used: u64,
}

impl CacheEntry {
    fn recount(&mut self) {
        self.mapped_bytes = self.raw.as_ref().map_or(0, |r| r.len());
        self.heap_bytes = self.decoded.as_ref().map_or(0, DecodedShard::heap_bytes);
    }
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
        match inner.map.get_mut(&key).and_then(|entry| {
            entry.last_used = tick;
            entry.decoded.clone()
        }) {
            Some(decoded) => {
                sickle_obs::counter!("store.cache.hit", 1usize);
                Some(decoded)
            }
            None => {
                sickle_obs::counter!("store.cache.miss", 1usize);
                None
            }
        }
    }

    /// Looks a shard's raw verified bytes up, bumping recency. Counts
    /// `store.cache.raw_hit` or `store.cache.raw_miss`.
    pub fn get_raw(&self, key: ShardKey) -> Option<Arc<ShardBytes>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key).and_then(|entry| {
            entry.last_used = tick;
            entry.raw.clone()
        }) {
            Some(raw) => {
                sickle_obs::counter!("store.cache.raw_hit", 1usize);
                Some(raw)
            }
            None => {
                sickle_obs::counter!("store.cache.raw_miss", 1usize);
                None
            }
        }
    }

    /// True when anything (raw bytes or decoded shard) is resident for the
    /// key. Does not touch recency or counters (used by the prefetcher to
    /// avoid skewing hit statistics).
    pub fn contains(&self, key: ShardKey) -> bool {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .contains_key(&key)
    }

    /// Inserts (or merges) a decoded shard, evicting least-recently-used
    /// entries until both budgets hold again. The entry just inserted is
    /// never evicted by its own insertion, so a single oversized shard
    /// still serves.
    pub fn insert(&self, key: ShardKey, value: DecodedShard) {
        self.merge(key, None, Some(value));
    }

    /// Inserts (or merges) a shard's raw verified bytes.
    pub fn insert_raw(&self, key: ShardKey, raw: Arc<ShardBytes>) {
        self.merge(key, Some(raw), None);
    }

    fn merge(&self, key: ShardKey, raw: Option<Arc<ShardBytes>>, decoded: Option<DecodedShard>) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        let (old_heap, old_mapped, new_heap, new_mapped) = {
            let entry = inner.map.entry(key).or_insert(CacheEntry {
                raw: None,
                decoded: None,
                heap_bytes: 0,
                mapped_bytes: 0,
                last_used: tick,
            });
            let (old_heap, old_mapped) = (entry.heap_bytes, entry.mapped_bytes);
            if let Some(raw) = raw {
                entry.raw = Some(raw);
            }
            if let Some(decoded) = decoded {
                entry.decoded = Some(decoded);
            }
            entry.last_used = tick;
            entry.recount();
            (old_heap, old_mapped, entry.heap_bytes, entry.mapped_bytes)
        };
        inner.heap_bytes = inner.heap_bytes - old_heap + new_heap;
        inner.mapped_bytes = inner.mapped_bytes - old_mapped + new_mapped;
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

    /// Resident shard count (entries with raw bytes, a decoded shard, or
    /// both).
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

    /// Bytes of the mapped (page-cache-backed) views the cache holds.
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
    use crate::shard_bytes::Pack;
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

    fn raw_of(tag: &str, n: usize) -> Arc<ShardBytes> {
        let path =
            std::env::temp_dir().join(format!("sickle_cache_raw_{tag}_{}_{n}", std::process::id()));
        std::fs::write(&path, vec![3u8; n]).unwrap();
        let raw = Pack::open(&path, n).unwrap().shard(0, n).unwrap();
        std::fs::remove_file(&path).ok();
        Arc::new(raw)
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = cache(1 << 20);
        assert!(cache.get(key(0)).is_none());
        cache.insert(key(0), shard_of(4));
        let got = cache.get(key(0)).expect("resident");
        assert_eq!(got.set().len(), 4);
        assert_eq!(&got.targets()[..], [0.5f32]);
    }

    #[test]
    fn evicts_least_recently_used_under_budget_pressure() {
        // Each set is ~16B/point of payload; budget fits roughly two sets.
        let per = shard_of(100).heap_bytes();
        let cache = cache(per * 2 + per / 2);
        cache.insert(key(0), shard_of(100));
        cache.insert(key(1), shard_of(100));
        // Touch 0 so 1 becomes the LRU victim.
        assert!(cache.get(key(0)).is_some());
        cache.insert(key(2), shard_of(100));
        assert!(cache.contains(key(0)), "recently used survives");
        assert!(!cache.contains(key(1)), "LRU evicted");
        assert!(cache.contains(key(2)), "new entry resident");
        assert!(cache.resident_bytes() <= cache.budget_bytes());
    }

    #[test]
    fn oversized_single_shard_still_resides() {
        let cache = cache(8); // far below one shard
        cache.insert(key(0), shard_of(1000));
        assert!(cache.contains(key(0)));
        // The next insert displaces it (budget admits only one).
        cache.insert(key(1), shard_of(1000));
        assert!(!cache.contains(key(0)));
        assert!(cache.contains(key(1)));
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let cache = cache(1 << 20);
        let first = shard_of(10);
        cache.insert(key(0), first.clone());
        let b1 = cache.resident_bytes();
        // The targets (one f32 per feature) are charged beside the set.
        assert_eq!(b1, sample_set_bytes(first.set()) + 4);
        cache.insert(key(0), shard_of(10));
        assert_eq!(cache.resident_bytes(), b1);
        assert_eq!(cache.len(), 1);
        // The replacement's targets are what a hit returns now.
        let hit = cache.get(key(0)).expect("resident");
        assert!(!Arc::ptr_eq(hit.targets(), first.targets()));

        // Set and targets leave together: with room for one shard, the
        // next insert evicts the whole entry and only its bytes remain.
        let tight = BlockCache::new(b1, usize::MAX);
        tight.insert(key(0), shard_of(10));
        tight.insert(key(1), shard_of(10));
        assert!(tight.get(key(0)).is_none(), "set and targets evicted");
        assert_eq!(tight.resident_bytes(), b1);
    }

    #[test]
    fn mapped_raw_bytes_do_not_charge_the_heap_budget() {
        let cache = cache(1 << 20);
        cache.insert_raw(key(0), raw_of("mapped", 4096));
        assert_eq!(cache.resident_bytes(), 0, "mapped bytes are not heap");
        assert_eq!(cache.mapped_bytes(), 4096);
        assert!(cache.get_raw(key(0)).is_some());
        assert!(cache.get(key(0)).is_none(), "no decoded set yet");
    }

    #[test]
    fn raw_and_set_merge_into_one_entry() {
        let cache = cache(1 << 20);
        cache.insert_raw(key(0), raw_of("merge", 256));
        cache.insert(key(0), shard_of(10));
        assert_eq!(cache.len(), 1);
        assert!(cache.get_raw(key(0)).is_some());
        assert!(cache.get(key(0)).is_some());
        assert_eq!(cache.resident_bytes(), shard_of(10).heap_bytes());
        assert_eq!(cache.mapped_bytes(), 256);
    }

    #[test]
    fn mapped_budget_evicts_independently() {
        let cache = BlockCache::new(1 << 20, 10_000);
        cache.insert_raw(key(0), raw_of("mb0", 8192));
        cache.insert_raw(key(1), raw_of("mb1", 8192));
        assert!(!cache.contains(key(0)), "mapped budget evicted the LRU");
        assert!(cache.contains(key(1)));
        assert!(cache.mapped_bytes() <= 10_000);
    }
}
