//! Out-of-core shard store: persist a [`SamplingOutput`] as per-
//! `(snapshot, cube)` SKLH shards, read them back through a byte-budgeted
//! LRU cache.
//!
//! On disk a store is:
//!
//! ```text
//! <root>/manifest.json          index + hashes (see [`StoreManifest`])
//! <root>/shards/<hash>.sklh     one single-set shard per sample set,
//! <root>/shards/<hash>.sklq     named by its own content hash (XXH64)
//! ```
//!
//! Shard payloads go through [`sickle_codec`]: the default identity codec
//! reuses the checkpoint encoder ([`sickle_field::io::encode_sample_sets`])
//! verbatim (`.sklh`), while [`ShardStore::ingest_with`] lets a per-shard
//! policy pick a lossy codec (`.sklq`). Reads dispatch on the shard's own
//! magic, so mixed-codec stores decode through one path.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sickle_codec::Codec;
use sickle_core::pipeline::{config_fingerprint, SamplingOutput};
use sickle_field::io as fio;
use sickle_field::SampleSet;

use crate::cache::{BlockCache, DecodedShard};
use crate::manifest::{ShardEntry, ShardKey, StoreManifest};
use crate::shard_bytes::{MmapMode, ShardBytes};

/// Tuning for an opened store.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Byte budget for heap-resident cache entries (decoded sets and their
    /// targets, plus `read_at`-fallback raw buffers).
    pub cache_bytes: usize,
    /// Byte budget for mapped raw-shard handles. Mapped pages belong to
    /// the OS page cache, so this bounds address-space/page-cache pressure
    /// separately instead of double-counting against `cache_bytes`.
    pub mapped_cache_bytes: usize,
    /// How raw shard bytes are brought into memory (mmap vs `read_at`);
    /// the default honors `SICKLE_MMAP`.
    pub mmap: MmapMode,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            cache_bytes: 256 << 20,
            mapped_cache_bytes: 4 << 30,
            mmap: MmapMode::from_env(),
        }
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

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

/// A shard store rooted at a directory, with a shared decoded-shard cache.
/// All methods take `&self`; the store is `Send + Sync` and is typically
/// wrapped in an `Arc` to share between the serving threads and the
/// prefetcher.
pub struct ShardStore {
    root: PathBuf,
    manifest: StoreManifest,
    cache: BlockCache,
    mmap: MmapMode,
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
    /// validation split) with quantized or resim shards. Existing shards
    /// with matching content-addressed names are reused (ingest is
    /// idempotent); the manifest is rewritten atomically last, so a crash
    /// mid-ingest never leaves a manifest naming missing shards.
    ///
    /// # Errors
    /// Propagates I/O errors; `InvalidData` if the output holds no sets.
    pub fn ingest_with(
        root: &Path,
        output: &SamplingOutput,
        cfg: StoreConfig,
        policy: impl Fn(ShardKey) -> Codec,
    ) -> io::Result<Self> {
        let _span = sickle_obs::span!("store.ingest");
        let shards_dir = root.join("shards");
        std::fs::create_dir_all(&shards_dir)?;
        let first = output
            .sets
            .iter()
            .flatten()
            .next()
            .ok_or_else(|| invalid("cannot ingest an empty sampling output".into()))?;
        let mut manifest = StoreManifest::new(
            config_fingerprint(&output.config),
            first.features.names.clone(),
        );
        for snap_sets in &output.sets {
            for (position, set) in snap_sets.iter().enumerate() {
                let key = set_key(set, position);
                let codec = policy(key);
                let bytes = sickle_codec::encode_shard(std::slice::from_ref(set), codec);
                let hash = fio::content_hash_hex(&bytes);
                let ext = if codec == Codec::Identity {
                    "sklh"
                } else {
                    "sklq"
                };
                let file = format!("shards/{hash}.{ext}");
                let path = root.join(&file);
                if !path.exists() {
                    let tmp = shards_dir.join(format!("{hash}.{ext}.tmp"));
                    std::fs::write(&tmp, &bytes)?;
                    std::fs::rename(&tmp, &path)?;
                }
                manifest.entries.push(ShardEntry {
                    snapshot: key.snapshot,
                    cube: key.cube,
                    file,
                    hash,
                    points: set.len(),
                    bytes: bytes.len(),
                    codec: codec.name().to_string(),
                });
                sickle_obs::counter!("store.ingest.shards", 1usize);
            }
        }
        manifest.sort();
        manifest.save_atomic(&root.join("manifest.json"))?;
        Ok(ShardStore {
            root: root.to_path_buf(),
            manifest,
            cache: BlockCache::new(cfg.cache_bytes, cfg.mapped_cache_bytes),
            mmap: cfg.mmap,
        })
    }

    /// Opens an existing store by reading its manifest. Shard files are not
    /// touched until read — opening a terabyte store costs one JSON parse.
    ///
    /// # Errors
    /// I/O errors; `InvalidData` for a bad manifest.
    pub fn open(root: &Path, cfg: StoreConfig) -> io::Result<Self> {
        let _span = sickle_obs::span!("store.open");
        let manifest = StoreManifest::load(&root.join("manifest.json"))?;
        Ok(ShardStore {
            root: root.to_path_buf(),
            manifest,
            cache: BlockCache::new(cfg.cache_bytes, cfg.mapped_cache_bytes),
            mmap: cfg.mmap,
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
        self.cache.contains(key)
    }

    fn entry(&self, key: ShardKey) -> io::Result<&ShardEntry> {
        self.manifest.entry(key).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("no shard for snapshot {} cube {}", key.snapshot, key.cube),
            )
        })
    }

    /// Opens a shard's raw bytes as a shared, cached [`ShardBytes`] handle
    /// — the zero-copy read path. A hit is an `Arc` clone; a miss maps the
    /// file (or `read_at`s it under `SICKLE_MMAP=off`), length-checking
    /// against the manifest *before* mapping and streaming the content hash
    /// over the view, so both integrity checks run exactly once per
    /// residency. `get()` decodes from this handle: a shard re-decoded
    /// while its raw residency holds is neither re-read nor re-hashed.
    ///
    /// # Errors
    /// `NotFound` for an unknown key, `InvalidData` on a size or hash
    /// mismatch (a truncated-after-publish shard fails the size check
    /// before any page is mapped).
    pub fn shard_handle(&self, key: ShardKey) -> io::Result<Arc<ShardBytes>> {
        if let Some(hit) = self.cache.get_raw(key) {
            return Ok(hit);
        }
        let entry = self.entry(key)?;
        let t0 = std::time::Instant::now();
        let raw = {
            let _s = sickle_obs::span!("store.disk_read", snapshot = key.snapshot, cube = key.cube);
            ShardBytes::open(&self.root.join(&entry.file), entry.bytes, self.mmap)?
        };
        if fio::content_hash_hex(&raw) != entry.hash {
            return Err(invalid(format!("hash mismatch for {}", entry.file)));
        }
        sickle_obs::histogram!("store.disk_read_us", t0.elapsed().as_micros() as f64);
        let raw = Arc::new(raw);
        self.cache.insert_raw(key, Arc::clone(&raw));
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
    /// # Errors
    /// `NotFound` for an unknown key, `InvalidData` on hash mismatch or a
    /// shard that does not hold exactly one sample set.
    pub fn resident(&self, key: ShardKey) -> io::Result<DecodedShard> {
        if let Some(hit) = self.cache.get(key) {
            return Ok(hit);
        }
        let raw = self.shard_handle(key)?;
        let t1 = std::time::Instant::now();
        let mut sets = {
            let _s = sickle_obs::span!("store.decode", bytes = raw.len());
            sickle_codec::decode_shard(&raw)?
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
        self.cache.insert(key, decoded.clone());
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
    /// raw handle plus decoded set and targets, exactly what the batch path
    /// will ask for.
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

    /// Mapped-byte introspection: `(mapped bytes, mapped budget bytes)` —
    /// the page-cache-backed residency [`cache_stats`](Self::cache_stats)
    /// deliberately excludes.
    pub fn mapped_stats(&self) -> (usize, usize) {
        (self.cache.mapped_bytes(), self.cache.mapped_budget_bytes())
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
            let (codec, ext) = if e.cube % 2 == 0 {
                ("identity", ".sklh")
            } else {
                ("f16", ".sklq")
            };
            assert_eq!(e.codec, codec);
            assert!(e.file.ends_with(ext), "{}", e.file);
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

    #[test]
    fn resident_targets_are_the_column_means_for_every_codec_and_mmap_mode() {
        let out = small_output(1, 3, 40);
        for mmap in [MmapMode::On, MmapMode::Off] {
            for codec in [
                Codec::Identity,
                Codec::F16,
                Codec::U8Block,
                Codec::resim_default(),
            ] {
                let what = format!("{}/{mmap:?}", codec.name());
                let root = temp_root(&format!("targets_{}_{mmap:?}", codec.name()));
                let cfg = StoreConfig {
                    mmap,
                    ..StoreConfig::default()
                };
                let store = ShardStore::ingest_with(&root, &out, cfg, |_| codec).unwrap();
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
        let data = |d: &DecodedShard| -> Vec<u64> {
            d.set().features.data.iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(data(&first), data(&again), "resim decode is deterministic");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn tampered_shard_is_detected() {
        let root = temp_root("tamper");
        let out = small_output(1, 1, 10);
        let store = ShardStore::ingest(&root, &out, StoreConfig::default()).unwrap();
        let key = store.keys()[0];
        let file = root.join(&store.manifest().entries[0].file);
        let mut bytes = std::fs::read(&file).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&file, &bytes).unwrap();
        let err = store.get(key).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
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
}
