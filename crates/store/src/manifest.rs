//! Content-addressed manifest for a shard store.
//!
//! The manifest is the store's only index: one [`ShardEntry`] per
//! `(snapshot, cube)` sample set, naming a shard file whose *file name is
//! its own content hash* (`shards/<hash>.sklh`), so a shard can never be
//! silently swapped without the manifest noticing and identical content
//! dedupes to one file. Hashes use [`sickle_field::io::content_hash_hex`]
//! (XXH64) — the same single source of truth the checkpoint manifest uses —
//! in hex-string form because JSON numbers are f64 and would truncate raw
//! 64-bit hashes.
//!
//! Version 2 is the XXH64 layout. Version 1 stores named their shards by
//! FNV-1a; their shard bytes are the same, but every name and hash string
//! differs, so [`StoreManifest::load`] refuses them and they are re-ingested.

use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

/// Store format version (independent of the SKLF/SKLH payload version).
pub const STORE_VERSION: u32 = 2;

/// Identity of one shard: the `(snapshot, cube)` coordinate of the sample
/// set it holds. Ordering is the canonical dataset order — snapshot-major,
/// then cube — which every consumer (batching, prefetch, clients) shares.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardKey {
    /// Source snapshot index within the dataset.
    pub snapshot: usize,
    /// Hypercube id within the snapshot.
    pub cube: usize,
}

/// One shard recorded in a [`StoreManifest`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardEntry {
    /// Source snapshot index.
    pub snapshot: usize,
    /// Hypercube id.
    pub cube: usize,
    /// Shard file, relative to the store root (`shards/<hash>.sklh`).
    pub file: String,
    /// [`sickle_field::io::content_hash_hex`] of the shard file's bytes.
    pub hash: String,
    /// Retained points in the shard.
    pub points: usize,
    /// Shard file size in bytes.
    pub bytes: usize,
    /// Codec the shard was encoded with (a [`sickle_codec::Codec`] name).
    pub codec: String,
}

impl ShardEntry {
    /// The entry's `(snapshot, cube)` key.
    pub fn key(&self) -> ShardKey {
        ShardKey {
            snapshot: self.snapshot,
            cube: self.cube,
        }
    }
}

/// The index of a shard store: which shards exist, where they live, and the
/// hash each must match. `config_hash` fingerprints the sampling
/// configuration that produced the dataset so a store is never served
/// against the wrong provenance.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StoreManifest {
    /// Store format version.
    pub version: u32,
    /// Fingerprint of the producing [`sickle_core::pipeline::SamplingConfig`].
    pub config_hash: String,
    /// Feature column names shared by every shard.
    pub feature_names: Vec<String>,
    /// Shards in canonical `(snapshot, cube)` order.
    pub entries: Vec<ShardEntry>,
}

impl StoreManifest {
    /// An empty manifest fingerprinted by `config_hash`.
    pub fn new(config_hash: impl Into<String>, feature_names: Vec<String>) -> Self {
        StoreManifest {
            version: STORE_VERSION,
            config_hash: config_hash.into(),
            feature_names,
            entries: Vec::new(),
        }
    }

    /// The entry for a shard key, if present.
    pub fn entry(&self, key: ShardKey) -> Option<&ShardEntry> {
        self.entries
            .binary_search_by_key(&key, ShardEntry::key)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// All shard keys in canonical order.
    pub fn keys(&self) -> Vec<ShardKey> {
        self.entries.iter().map(ShardEntry::key).collect()
    }

    /// Number of shards (= samples the batching plane can serve).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the store holds no shards.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes across all shard files (dedup counted once per entry).
    pub fn total_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// Sorts entries into canonical `(snapshot, cube)` order. Called by the
    /// writer before saving so [`entry`](Self::entry) can binary-search.
    pub fn sort(&mut self) {
        self.entries.sort_by_key(ShardEntry::key);
    }

    /// Loads a manifest from JSON, validating the version.
    ///
    /// # Errors
    /// I/O errors, or `InvalidData` on unparseable JSON or a version this
    /// build does not speak.
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let m: StoreManifest = serde_json::from_str(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad store manifest: {e}"),
            )
        })?;
        if m.version != STORE_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "unsupported store version {} (this build reads version {STORE_VERSION})",
                    m.version
                ),
            ));
        }
        Ok(m)
    }

    /// Writes the manifest atomically (temp file + rename).
    ///
    /// # Errors
    /// Propagates I/O errors from the write or the rename.
    pub fn save_atomic(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(snapshot: usize, cube: usize) -> ShardEntry {
        ShardEntry {
            snapshot,
            cube,
            file: format!("shards/{snapshot}_{cube}.sklh"),
            hash: sickle_field::io::content_hash_hex(&[snapshot as u8, cube as u8]),
            points: 10,
            bytes: 100,
            codec: "identity".to_string(),
        }
    }

    #[test]
    fn lookup_requires_canonical_order() {
        let mut m = StoreManifest::new("cfg", vec!["u".into()]);
        m.entries.push(entry(1, 0));
        m.entries.push(entry(0, 2));
        m.entries.push(entry(0, 1));
        m.sort();
        assert_eq!(
            m.keys(),
            vec![
                ShardKey {
                    snapshot: 0,
                    cube: 1
                },
                ShardKey {
                    snapshot: 0,
                    cube: 2
                },
                ShardKey {
                    snapshot: 1,
                    cube: 0
                },
            ]
        );
        assert!(m
            .entry(ShardKey {
                snapshot: 0,
                cube: 2
            })
            .is_some());
        assert!(m
            .entry(ShardKey {
                snapshot: 2,
                cube: 0
            })
            .is_none());
        assert_eq!(m.total_bytes(), 300);
    }

    #[test]
    fn json_roundtrip_preserves_hashes() {
        let dir = std::env::temp_dir().join("sickle_store_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.json");
        let mut m = StoreManifest::new(
            sickle_field::io::content_hash_hex(b"cfg"),
            vec!["u".into(), "q".into()],
        );
        m.entries.push(entry(0, 0));
        m.sort();
        m.save_atomic(&path).unwrap();
        let back = StoreManifest::load(&path).unwrap();
        assert_eq!(back.config_hash, m.config_hash);
        assert_eq!(back.feature_names, m.feature_names);
        assert_eq!(back.entries[0].hash, m.entries[0].hash);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_1_manifest_is_refused() {
        // A store written before the XXH64 content hash: its names and hash
        // strings are FNV-1a, so it must be refused, not half-verified.
        let dir = std::env::temp_dir().join("sickle_store_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v1.json");
        std::fs::write(
            &path,
            r#"{
              "version": 1,
              "config_hash": "cfg",
              "feature_names": ["u"],
              "entries": [{
                "snapshot": 0, "cube": 0,
                "file": "shards/abc.sklh", "hash": "abc",
                "points": 10, "bytes": 100, "codec": "identity"
              }]
            }"#,
        )
        .unwrap();
        let err = StoreManifest::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("version 1 "),
            "error must name version 1: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_wrong_version_and_garbage() {
        let dir = std::env::temp_dir().join("sickle_store_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{not json").unwrap();
        assert!(StoreManifest::load(&bad).is_err());
        let mut m = StoreManifest::new("cfg", vec![]);
        m.version = 99;
        let path = dir.join("v99.json");
        m.save_atomic(&path).unwrap();
        assert!(StoreManifest::load(&path).is_err());
        std::fs::remove_file(&bad).ok();
        std::fs::remove_file(&path).ok();
    }
}
