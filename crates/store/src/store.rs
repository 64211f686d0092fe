//! Out-of-core shard store: persist a [`SamplingOutput`] as per-
//! `(snapshot, cube)` shards in one pack file, read them back through a
//! byte-budgeted LRU cache.
//!
//! On disk a store is two files:
//!
//! ```text
//! <root>/manifest.json   index: the pack's name and length, then every
//!                        shard's (offset, bytes, hash) — see [`StoreManifest`]
//! <root>/<hash>.pack     every shard back to back in canonical (snapshot,
//!                        cube) order, named by a hash of the shard hashes
//! ```
//!
//! Shard payloads go through [`sickle_codec`]: the default identity codec
//! writes SKLH bytes ([`sickle_field::io::encode_sample_sets`]) verbatim,
//! while [`ShardStore::ingest_with`] lets a per-shard policy pick a lossy
//! codec (SKLQ bytes). Reads dispatch on the shard's own magic, so
//! mixed-codec stores decode through one path, and no shard needs alignment
//! padding: every decoder parses byte-wise.
//!
//! Ingest creates two files however many shards it writes: it streams the
//! pack to `pack.tmp`, renames it to its content name, saves the manifest
//! atomically — the one commit point — and only then deletes any pack the
//! new manifest does not name. A crash at any step leaves the previous
//! manifest naming a pack whose bytes still verify. A store maps its pack
//! once (see [`Pack`]) and reads every shard as a slice of that mapping,
//! hash-verified on each read — once per cache residency.
//!
//! A shard is decoded once per miss however many threads miss it: the
//! first marks it in flight and decodes without holding any lock, and the
//! others wait on that shard alone for its result (see
//! [`ShardStore::resident`]).

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use sickle_codec::Codec;
use sickle_core::pipeline::{config_fingerprint, SamplingOutput};
use sickle_field::io::{self as fio, invalid};
use sickle_field::SampleSet;

use crate::cache::{BlockCache, DecodedShard};
use crate::manifest::{ShardEntry, ShardKey, StoreManifest};
use crate::shard_bytes::Pack;

/// Tuning for an opened store.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Byte budget for heap-resident cache entries (decoded sets and their
    /// targets).
    pub cache_bytes: usize,
    /// Byte budget for the pack bytes of cached shards: each entry charges
    /// its shard's range length. Mapped pages belong to the OS page cache,
    /// so this bounds them separately instead of double-counting against
    /// `cache_bytes`; the pack's one mapping lives as long as the store.
    pub mapped_cache_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            cache_bytes: 256 << 20,
            mapped_cache_bytes: 4 << 30,
        }
    }
}

/// The manifest's file name under a store root.
const MANIFEST: &str = "manifest.json";
/// Where ingest streams the pack before it is renamed to its content name.
const PACK_TMP: &str = "pack.tmp";

/// The canonical `(snapshot, cube)` key of one sample set within its
/// output: the set's own provenance when tagged, its position otherwise.
/// Ingest and in-memory consumers must agree on this or remote batches
/// would reorder against local ones.
pub fn set_key(set: &SampleSet, position: usize) -> ShardKey {
    ShardKey {
        snapshot: set.snapshot_index,
        cube: set.hypercube.unwrap_or(position),
    }
}

/// A shard store rooted at a directory, with its pack opened once and a
/// shared decoded-shard cache. All methods take `&self`; the store is
/// `Send + Sync` and is typically wrapped in an `Arc` to share between the
/// serving threads and the prefetcher.
pub struct ShardStore {
    root: PathBuf,
    manifest: StoreManifest,
    pack: Pack,
    cache: BlockCache,
    /// Shards being decoded, each with the slot its waiters block on.
    decoding: Mutex<HashMap<ShardKey, Arc<Decoding>>>,
    /// Decodes started since open.
    decodes: AtomicU64,
}

/// One shard's decode in flight: set once, to the decoded shard, or to
/// `None` when the decode failed.
type Decoding = OnceLock<Option<DecodedShard>>;

/// A thread's claim to decode one shard. Dropping it — after a success, an
/// error or a panic — ends the shard's time in flight and wakes its
/// waiters; one still unanswered then gets `None` and decodes the shard
/// itself.
struct Claim<'a> {
    store: &'a ShardStore,
    key: ShardKey,
    slot: Arc<Decoding>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.store
            .decoding
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.key);
        let _ = self.slot.set(None);
    }
}

impl ShardStore {
    /// Persists a sampling output as a new store under `root`, then opens
    /// it. Every shard uses the identity codec (current SKLH bytes) — the
    /// compatibility default. See [`ingest_with`](Self::ingest_with) for
    /// compressed stores.
    ///
    /// # Errors
    /// Propagates I/O errors; `InvalidData` if the output holds no sets.
    pub fn ingest(root: &Path, output: &SamplingOutput, cfg: StoreConfig) -> io::Result<Self> {
        Self::ingest_with(root, output, cfg, |_| Codec::Identity)
    }

    /// Persists a sampling output with a per-shard codec policy: `policy`
    /// is called once per `(snapshot, cube)` key and its choice is recorded
    /// in the manifest, so one store can mix identity shards (e.g. the
    /// validation split) with quantized or resim shards. Shards are encoded
    /// and hashed one at a time and streamed into the pack in canonical key
    /// order, so the pack is never whole in memory. The manifest is
    /// rewritten atomically after the pack is in place, so a crash
    /// mid-ingest never leaves a manifest naming a missing pack; packs the
    /// new manifest does not name are deleted after that commit.
    ///
    /// # Errors
    /// Propagates I/O errors; `InvalidData` if the output holds no sets.
    pub fn ingest_with(
        root: &Path,
        output: &SamplingOutput,
        cfg: StoreConfig,
        policy: impl Fn(ShardKey) -> Codec,
    ) -> io::Result<Self> {
        let mut sets: Vec<(ShardKey, &SampleSet)> = output
            .sets
            .iter()
            .flat_map(|snap_sets| {
                snap_sets
                    .iter()
                    .enumerate()
                    .map(|(position, set)| (set_key(set, position), set))
            })
            .collect();
        let _span = sickle_obs::span!("store.ingest", shards = sets.len());
        let first = sets
            .first()
            .ok_or_else(|| invalid("cannot ingest an empty sampling output"))?;
        let mut manifest = StoreManifest::new(
            config_fingerprint(&output.config),
            first.1.features.names.clone(),
        );
        sets.sort_by_key(|&(key, _)| key);

        std::fs::create_dir_all(root)?;
        let tmp = root.join(PACK_TMP);
        let mut pack = io::BufWriter::with_capacity(1 << 18, std::fs::File::create(&tmp)?);
        sickle_obs::counter!("store.ingest.files", 1usize);
        let mut offset = 0usize;
        for (key, set) in sets {
            let codec = policy(key);
            let bytes = sickle_codec::encode_shard(std::slice::from_ref(set), codec);
            pack.write_all(&bytes)?;
            manifest.entries.push(ShardEntry {
                snapshot: key.snapshot,
                cube: key.cube,
                offset,
                bytes: bytes.len(),
                hash: fio::content_hash_hex(&bytes),
                points: set.len(),
                codec: codec.name().to_string(),
            });
            offset += bytes.len();
            sickle_obs::counter!("store.ingest.shards", 1usize);
        }
        pack.into_inner().map_err(io::IntoInnerError::into_error)?;
        manifest.pack = StoreManifest::pack_name(&manifest.entries);
        manifest.pack_bytes = offset;

        let _publish = sickle_obs::span!("store.ingest.publish", bytes = offset);
        std::fs::rename(&tmp, root.join(&manifest.pack))?;
        manifest.save_atomic(&root.join(MANIFEST))?;
        sickle_obs::counter!("store.ingest.files", 1usize);
        remove_stale_packs(root, &manifest.pack);
        Self::with_manifest(root, manifest, cfg)
    }

    /// Opens an existing store: reads its manifest and maps its pack once.
    /// No shard is read until asked for — opening a terabyte store costs
    /// one JSON parse and one length-checked map.
    ///
    /// # Errors
    /// I/O errors (`NotFound` for a missing pack, an `mmap` failure);
    /// `InvalidData` for a bad manifest or a pack whose length disagrees
    /// with it.
    pub fn open(root: &Path, cfg: StoreConfig) -> io::Result<Self> {
        let _span = sickle_obs::span!("store.open");
        let manifest = StoreManifest::load(&root.join(MANIFEST))?;
        Self::with_manifest(root, manifest, cfg)
    }

    fn with_manifest(root: &Path, manifest: StoreManifest, cfg: StoreConfig) -> io::Result<Self> {
        let pack = Pack::open(&root.join(&manifest.pack), manifest.pack_bytes)?;
        Ok(ShardStore {
            root: root.to_path_buf(),
            manifest,
            pack,
            cache: BlockCache::new(cfg.cache_bytes, cfg.mapped_cache_bytes),
            decoding: Mutex::default(),
            decodes: AtomicU64::new(0),
        })
    }

    /// The store's manifest.
    pub fn manifest(&self) -> &StoreManifest {
        &self.manifest
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// All shard keys in canonical `(snapshot, cube)` order.
    pub fn keys(&self) -> Vec<ShardKey> {
        self.manifest.keys()
    }

    /// True when the shard is already decoded in cache (prefetcher probe;
    /// no recency bump, no hit/miss accounting).
    pub fn is_cached(&self, key: ShardKey) -> bool {
        self.cache.peek(key).is_some()
    }

    fn entry(&self, key: ShardKey) -> io::Result<&ShardEntry> {
        self.manifest.entry(key).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("no shard for snapshot {} cube {}", key.snapshot, key.cube),
            )
        })
    }

    /// A shard's raw bytes, borrowed from the pack's mapping — the
    /// zero-copy read path. Every call cuts the shard's range out of the
    /// mapping and streams the content hash over it; nothing is cached, and
    /// [`resident`](Self::resident) calls this once per miss, so the hash
    /// runs once per residency. (The pack's length was checked against the
    /// manifest before it was mapped, and every range against that length.)
    ///
    /// # Errors
    /// `NotFound` for an unknown key, `InvalidData` for a range outside the
    /// pack or a hash mismatch.
    pub fn shard_handle(&self, key: ShardKey) -> io::Result<&[u8]> {
        let entry = self.entry(key)?;
        let t0 = std::time::Instant::now();
        let raw = {
            let _s = sickle_obs::span!("store.disk_read", snapshot = key.snapshot, cube = key.cube);
            self.pack.shard(entry.offset, entry.bytes)?
        };
        if fio::content_hash_hex(raw) != entry.hash {
            return Err(invalid(format!(
                "hash mismatch for snapshot {} cube {} in {}",
                key.snapshot, key.cube, self.manifest.pack
            )));
        }
        sickle_obs::histogram!("store.disk_read_us", t0.elapsed().as_micros() as f64);
        Ok(raw)
    }

    /// Fetches a decoded shard through the cache: a hit is an `Arc` clone;
    /// a miss goes through [`resident`](Self::resident).
    ///
    /// # Errors
    /// As [`resident`](Self::resident).
    pub fn get(&self, key: ShardKey) -> io::Result<Arc<SampleSet>> {
        self.resident(key).map(DecodedShard::into_set)
    }

    /// Fetches a decoded shard with its targets through the cache: a hit is
    /// two `Arc` clones; a miss reads through
    /// [`shard_handle`](Self::shard_handle) (hash verified once per
    /// residency), decodes through [`sickle_codec::decode_shard`] (for resim
    /// shards this runs the reconstruction solver), computes the set's
    /// [`column_means`](crate::batching::column_means) while it is still
    /// hot, and makes both resident together (possibly evicting colder
    /// shards) — so decode and target reduction are paid once per
    /// residency, not once per request.
    ///
    /// A miss on a shard another thread is decoding waits for that decode
    /// instead of running its own. The wait is per shard, no lock is held
    /// across a decode, and if the decode it waits for fails, the waiter
    /// decodes the shard itself (or waits for a newer decode), so it gets
    /// the shard or its own error and never hangs.
    ///
    /// # Errors
    /// `NotFound` for an unknown key, `InvalidData` on hash mismatch or a
    /// shard that does not hold exactly one sample set.
    pub fn resident(&self, key: ShardKey) -> io::Result<DecodedShard> {
        if let Some(hit) = self.cache.get(key) {
            return Ok(hit);
        }
        loop {
            let mut decoding = self.decoding.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(slot) = decoding.get(&key).cloned() {
                drop(decoding);
                match slot.wait() {
                    Some(decoded) => return Ok(decoded.clone()),
                    None => continue,
                }
            }
            // A decode that ended between the cache lookup and here put
            // its shard in the cache before it left the in-flight table.
            if let Some(hit) = self.cache.peek(key) {
                return Ok(hit);
            }
            let slot = Arc::new(Decoding::new());
            decoding.insert(key, Arc::clone(&slot));
            drop(decoding);
            return self.decode(Claim {
                store: self,
                key,
                slot,
            });
        }
    }

    /// Shard decodes started since this store was opened: one per miss
    /// that reached the codec, however many threads missed together.
    pub fn decodes(&self) -> u64 {
        self.decodes.load(Ordering::Relaxed)
    }

    /// Decodes the claimed shard, makes it resident, and hands it to the
    /// shard's waiters.
    fn decode(&self, claim: Claim<'_>) -> io::Result<DecodedShard> {
        let key = claim.key;
        self.decodes.fetch_add(1, Ordering::Relaxed);
        let raw = self.shard_handle(key)?;
        let t1 = std::time::Instant::now();
        let mut sets = {
            let _s = sickle_obs::span!("store.decode", bytes = raw.len());
            sickle_codec::decode_shard(raw)?
        };
        sickle_obs::histogram!("store.decode_us", t1.elapsed().as_micros() as f64);
        let count = sets.len();
        let decoded = match sets.pop() {
            Some(set) if count == 1 => DecodedShard::new(Arc::new(set)),
            _ => {
                return Err(invalid(format!(
                    "shard for snapshot {} cube {} holds {count} sets, expected 1",
                    key.snapshot, key.cube
                )))
            }
        };
        self.cache.insert(key, decoded.clone(), raw.len());
        let _ = claim.slot.set(Some(decoded.clone()));
        Ok(decoded)
    }

    /// Tensorizes one shard: [`resident`](Self::resident) (so decode and
    /// targets are paid once per residency) then the one batch assembler,
    /// [`assemble_batch`](crate::batching::assemble_batch). Returns
    /// `(inputs, targets, features)`.
    ///
    /// # Errors
    /// As [`get`](Self::get), plus `InvalidData` for an empty set or
    /// `tokens == 0`.
    pub fn tensorized(
        &self,
        key: ShardKey,
        tokens: usize,
    ) -> io::Result<(Vec<f32>, Vec<f32>, usize)> {
        let decoded = self.resident(key)?;
        let batch = crate::batching::assemble_batch(&[decoded.pair()], tokens)?;
        Ok((batch.inputs, batch.targets, batch.shape.features))
    }

    /// Makes a shard resident ahead of demand (the prefetcher's verb):
    /// decoded set and targets, exactly what the batch path will ask for.
    ///
    /// # Errors
    /// As [`resident`](Self::resident).
    pub fn warm(&self, key: ShardKey) -> io::Result<()> {
        self.resident(key).map(drop)
    }

    /// Cache introspection for benchmarks: `(resident shards, resident
    /// bytes, budget bytes)`.
    pub fn cache_stats(&self) -> (usize, usize, usize) {
        (
            self.cache.len(),
            self.cache.resident_bytes(),
            self.cache.budget_bytes(),
        )
    }
}

/// Deletes every pack under `root` but `keep`. Runs after the manifest
/// naming `keep` is committed, so it is best-effort: a pack that cannot be
/// removed now is only disk space, and the next ingest retries it. A store
/// still serving from a deleted pack keeps its mapping.
fn remove_stale_packs(root: &Path, keep: &str) {
    let Ok(dir) = std::fs::read_dir(root) else {
        return;
    };
    for entry in dir.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name != keep && StoreManifest::is_pack_name(&name) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::small_output;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sickle_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ingest_open_get_roundtrip() {
        let root = temp_root("roundtrip");
        let out = small_output(2, 3, 20);
        let store = ShardStore::ingest(&root, &out, StoreConfig::default()).unwrap();
        assert_eq!(store.keys().len(), 2 * 3);

        let reopened = ShardStore::open(&root, StoreConfig::default()).unwrap();
        for (snap_sets, snap) in out.sets.iter().zip(0..) {
            for (pos, set) in snap_sets.iter().enumerate() {
                let key = set_key(set, pos);
                let got = reopened.get(key).unwrap();
                assert_eq!(got.indices, set.indices, "snapshot {snap} pos {pos}");
                assert_eq!(got.features.data, set.features.data);
                assert_eq!(got.hypercube, set.hypercube);
            }
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn mixed_codec_ingest_roundtrip() {
        let root = temp_root("mixedcodec");
        let out = small_output(2, 2, 40);
        let store = ShardStore::ingest_with(&root, &out, StoreConfig::default(), |key| {
            if key.cube.is_multiple_of(2) {
                Codec::Identity
            } else {
                Codec::F16
            }
        })
        .unwrap();
        for e in store.manifest().entries.iter() {
            let codec = if e.cube % 2 == 0 { "identity" } else { "f16" };
            assert_eq!(e.codec, codec);
        }
        let reopened = ShardStore::open(&root, StoreConfig::default()).unwrap();
        for snap_sets in &out.sets {
            for (pos, set) in snap_sets.iter().enumerate() {
                let key = set_key(set, pos);
                let got = reopened.get(key).unwrap();
                assert_eq!(got.indices, set.indices);
                if key.cube.is_multiple_of(2) {
                    // Identity shards are bit-exact.
                    assert_eq!(got.features.data, set.features.data);
                } else {
                    // f16 shards carry ~2^-11 relative error on [-1, 1].
                    for (a, b) in got.features.data.iter().zip(&set.features.data) {
                        assert!((a - b).abs() < 1e-3, "{a} vs {b}");
                    }
                }
            }
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn second_get_hits_cache() {
        let root = temp_root("cachehit");
        let out = small_output(1, 2, 10);
        let store = ShardStore::ingest(&root, &out, StoreConfig::default()).unwrap();
        let key = store.keys()[0];
        let a = store.get(key).unwrap();
        assert!(store.is_cached(key));
        let b = store.get(key).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "warm read must share the Arc");
        std::fs::remove_dir_all(&root).ok();
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn bits_f64(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn resident_targets_are_the_column_means_for_every_codec() {
        let out = small_output(1, 3, 40);
        for codec in [
            Codec::Identity,
            Codec::F16,
            Codec::U8Block,
            Codec::resim_default(),
        ] {
            let what = codec.name();
            let root = temp_root(&format!("targets_{what}"));
            let store =
                ShardStore::ingest_with(&root, &out, StoreConfig::default(), |_| codec).unwrap();
            for key in store.keys() {
                let miss = store.resident(key).unwrap();
                let set = store.get(key).unwrap();
                assert_eq!(
                    bits(miss.targets()),
                    bits(&crate::batching::column_means(&set)),
                    "{what}: resident targets"
                );
                let hit = store.resident(key).unwrap();
                assert!(Arc::ptr_eq(hit.set(), miss.set()), "{what}: set shared");
                assert!(
                    Arc::ptr_eq(hit.targets(), miss.targets()),
                    "{what}: a hit returns the targets the miss made"
                );
            }
            std::fs::remove_dir_all(&root).ok();
        }
    }

    #[test]
    fn targets_come_back_bit_identical_after_eviction() {
        let root = temp_root("target_evict");
        let out = small_output(1, 2, 40);
        let cfg = StoreConfig {
            cache_bytes: 1,
            ..StoreConfig::default()
        };
        let store = ShardStore::ingest_with(&root, &out, cfg, |_| Codec::resim_default()).unwrap();
        let keys = store.keys();
        let first = store.resident(keys[0]).unwrap();
        store.resident(keys[1]).unwrap();
        assert!(!store.is_cached(keys[0]), "a 1-byte budget keeps one shard");
        let again = store.resident(keys[0]).unwrap();
        assert!(!Arc::ptr_eq(first.targets(), again.targets()), "re-decoded");
        assert_eq!(bits(first.targets()), bits(again.targets()));
        assert_eq!(
            bits_f64(&first.set().features.data),
            bits_f64(&again.set().features.data),
            "resim decode is deterministic"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn tampered_shard_is_detected() {
        let root = temp_root("tamper");
        let out = small_output(1, 1, 10);
        let store = ShardStore::ingest(&root, &out, StoreConfig::default()).unwrap();
        let key = store.keys()[0];
        let pack = root.join(&store.manifest().pack);
        drop(store);
        let mut bytes = std::fs::read(&pack).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&pack, &bytes).unwrap();
        let store = ShardStore::open(&root, StoreConfig::default()).unwrap();
        let err = store.get(key).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn threads_missing_one_shard_share_its_decode_or_its_failure() {
        let root = temp_root("in_flight");
        let store =
            ShardStore::ingest(&root, &small_output(1, 2, 2000), StoreConfig::default()).unwrap();
        let (bad, good) = (store.keys()[0], store.keys()[1]);
        let entry = store.manifest().entry(bad).unwrap().clone();
        let pack = root.join(&store.manifest().pack);
        drop(store);
        let mut bytes = std::fs::read(&pack).unwrap();
        bytes[entry.offset + entry.bytes - 1] ^= 0xFF;
        std::fs::write(&pack, &bytes).unwrap();
        let store = ShardStore::open(&root, StoreConfig::default()).unwrap();
        let threads = 4;
        let all_at_once = |key: ShardKey| {
            let start = std::sync::Barrier::new(threads);
            std::thread::scope(|scope| {
                let runs: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            store.resident(key).map(drop)
                        })
                    })
                    .collect();
                runs.into_iter()
                    .map(|r| r.join().unwrap())
                    .collect::<Vec<_>>()
            })
        };
        assert!(all_at_once(good).iter().all(Result::is_ok));
        assert_eq!(store.decodes(), 1, "one decode, however many misses");
        // Every thread comes back with the failure: from the decode it
        // waited on, or from its own.
        for result in all_at_once(bad) {
            assert_eq!(result.unwrap_err().kind(), io::ErrorKind::InvalidData);
        }
        let decodes = store.decodes() as usize;
        assert!((2..=1 + threads).contains(&decodes), "{decodes} decodes");
        assert!(store.decoding.lock().unwrap().is_empty());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_shard_tampered_after_its_eviction_fails_its_next_read() {
        use std::os::unix::fs::FileExt;
        let root = temp_root("evict_tamper");
        let out = small_output(1, 3, 20);
        let cfg = StoreConfig {
            cache_bytes: 1,
            ..StoreConfig::default()
        };
        let store = ShardStore::ingest(&root, &out, cfg).unwrap();
        let keys = store.keys();
        store.get(keys[0]).unwrap();
        store.get(keys[1]).unwrap();
        assert!(!store.is_cached(keys[0]), "a one-shard cache evicted it");

        // Flip one byte of the evicted shard in place: same length, so the
        // open mapping sees the new byte.
        let e = store.manifest().entry(keys[0]).unwrap();
        let pack = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(root.join(&store.manifest().pack))
            .unwrap();
        let at = (e.offset + e.bytes / 2) as u64;
        let mut byte = [0u8];
        pack.read_exact_at(&mut byte, at).unwrap();
        pack.write_all_at(&[byte[0] ^ 0x10], at).unwrap();
        drop(pack);

        let err = store.get(keys[0]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        for (position, set) in out.sets[0].iter().enumerate().skip(1) {
            let got = store.get(set_key(set, position)).unwrap();
            assert_eq!(bits_f64(&got.features.data), bits_f64(&set.features.data));
            assert_eq!(got.indices, set.indices);
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn unknown_key_is_not_found() {
        let root = temp_root("unknown");
        let out = small_output(1, 1, 10);
        let store = ShardStore::ingest(&root, &out, StoreConfig::default()).unwrap();
        let err = store
            .get(ShardKey {
                snapshot: 99,
                cube: 0,
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn tiny_cache_streams_whole_store() {
        // A cache budget far below the dataset must still read everything —
        // the out-of-core contract.
        let root = temp_root("tinycache");
        let out = small_output(3, 4, 50);
        let store = ShardStore::ingest(
            &root,
            &out,
            StoreConfig {
                cache_bytes: 1,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        for key in store.keys() {
            assert!(store.get(key).is_ok());
        }
        let (resident, bytes, budget) = store.cache_stats();
        assert_eq!(resident, 1, "budget of 1 byte keeps a single shard");
        let _ = (bytes, budget);
        std::fs::remove_dir_all(&root).ok();
    }

    /// The names of the files directly under `root`, sorted.
    fn files_under(root: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(root)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// Every shard tensorized at 4 tokens, as bits, in key order.
    fn tensor_bits(store: &ShardStore) -> Vec<Vec<u32>> {
        store
            .keys()
            .into_iter()
            .map(|key| {
                let (inputs, targets, _) = store.tensorized(key, 4).unwrap();
                bits(&inputs).into_iter().chain(bits(&targets)).collect()
            })
            .collect()
    }

    #[test]
    fn ingest_of_many_shards_leaves_the_manifest_and_one_pack() {
        let root = temp_root("filecount");
        let out = small_output(4, 30, 5);
        let store = ShardStore::ingest(&root, &out, StoreConfig::default()).unwrap();
        assert_eq!(store.manifest().len(), 120);
        let pack = store.manifest().pack.clone();
        assert_eq!(files_under(&root), vec![pack, MANIFEST.to_string()]);
        // The shards sit back to back in key order and fill the pack.
        let mut end = 0;
        for e in &store.manifest().entries {
            assert_eq!(e.offset, end, "snapshot {} cube {}", e.snapshot, e.cube);
            end += e.bytes;
        }
        assert_eq!(end, store.manifest().pack_bytes);
        assert_eq!(end, store.manifest().total_bytes());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn shard_hashes_are_the_hashes_of_the_encoded_sets() {
        let root = temp_root("samebytes");
        let out = small_output(2, 3, 30);
        let policy =
            |key: ShardKey| [Codec::Identity, Codec::F16, Codec::resim_default()][key.cube];
        let store = ShardStore::ingest_with(&root, &out, StoreConfig::default(), policy).unwrap();
        let pack = std::fs::read(root.join(&store.manifest().pack)).unwrap();
        for (position, set) in out.sets.iter().flatten().enumerate() {
            let key = set_key(set, position % 3);
            let encoded = sickle_codec::encode_shard(std::slice::from_ref(set), policy(key));
            let e = store.manifest().entry(key).unwrap();
            assert_eq!(e.hash, fio::content_hash_hex(&encoded), "{key:?}");
            assert_eq!(&pack[e.offset..e.offset + e.bytes], &encoded[..], "{key:?}");
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reingest_into_a_live_root_keeps_the_old_store_serving() {
        let root = temp_root("reingest");
        // A one-byte budget keeps one shard resident, so the old store
        // reads its pack again for every other shard after re-ingest.
        let cfg = StoreConfig {
            cache_bytes: 1,
            mapped_cache_bytes: 1,
        };
        let old_out = small_output(2, 3, 20);
        let new_out = small_output(2, 3, 24);
        ShardStore::ingest(&root, &old_out, cfg).unwrap();
        let old = ShardStore::open(&root, cfg).unwrap();
        let old_pack = old.manifest().pack.clone();
        let before = tensor_bits(&old);

        let fresh = ShardStore::ingest(&root, &new_out, cfg).unwrap();
        let new_pack = fresh.manifest().pack.clone();
        assert_ne!(new_pack, old_pack);
        assert_eq!(
            files_under(&root),
            vec![new_pack.clone(), MANIFEST.to_string()],
            "the stale pack is gone"
        );
        assert_eq!(tensor_bits(&old), before, "old store, old bytes");

        let reopened = ShardStore::open(&root, cfg).unwrap();
        assert_eq!(reopened.manifest().pack, new_pack);
        for (position, set) in new_out.sets.iter().flatten().enumerate() {
            let got = reopened.get(set_key(set, position % 3)).unwrap();
            assert_eq!(got.features.data, set.features.data);
        }
        assert_eq!(tensor_bits(&reopened), tensor_bits(&fresh));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn leftover_temp_files_and_unnamed_packs_do_not_stop_the_old_manifest() {
        let root = temp_root("leftovers");
        let out = small_output(1, 4, 16);
        let want = tensor_bits(&ShardStore::ingest(&root, &out, StoreConfig::default()).unwrap());
        // What a crash mid-ingest leaves: a half-written pack, a renamed
        // pack the manifest never came to name, a half-written manifest.
        std::fs::write(root.join(PACK_TMP), b"half a pack").unwrap();
        std::fs::write(root.join("00000000deadbeef.pack"), b"orphan").unwrap();
        std::fs::write(root.join("manifest.json.tmp"), b"{\"version\":").unwrap();
        let store = ShardStore::open(&root, StoreConfig::default()).unwrap();
        for key in store.keys() {
            store.shard_handle(key).unwrap();
        }
        assert_eq!(tensor_bits(&store), want);
        // The next ingest sweeps the orphan pack and reuses the temp name.
        let store = ShardStore::ingest(&root, &out, StoreConfig::default()).unwrap();
        assert_eq!(
            files_under(&root),
            vec![store.manifest().pack.clone(), MANIFEST.to_string()]
        );
        std::fs::remove_dir_all(&root).ok();
    }
}
