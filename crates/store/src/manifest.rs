//! Content-addressed manifest for a shard store.
//!
//! The manifest is the store's only index. It names the store's one pack
//! file (`<hash>.pack`, where the hash covers the shard hashes in pack
//! order, so the name is unique to the pack's content) and records the
//! pack's exact length, then holds one [`ShardEntry`] per `(snapshot, cube)`
//! sample set: the byte range `offset..offset + bytes` of the pack that is
//! the shard, and that range's content hash, so a shard can never be
//! silently swapped without the manifest noticing. Hashes use
//! [`sickle_field::io::content_hash_hex`] (XXH64), in hex-string form
//! because JSON numbers are f64 and would truncate raw 64-bit hashes.
//! (Offsets and lengths are JSON numbers too: exact up to 2⁵³ bytes, and a
//! value past that saturates, so it can only fail the range or hash check.)
//!
//! Version 3 is the pack layout. Version 2 stores kept one file per shard
//! and version 1 stores named theirs by FNV-1a; their shard bytes are the
//! same, but [`StoreManifest::load`] refuses both and they are re-ingested.

use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Store format version (independent of the SKLS/SKLH payload version).
pub const STORE_VERSION: u32 = 3;

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
    /// Byte offset of the shard within the pack.
    pub offset: usize,
    /// Shard size in bytes.
    pub bytes: usize,
    /// [`sickle_field::io::content_hash_hex`] of the shard's bytes.
    pub hash: String,
    /// Retained points in the shard.
    pub points: usize,
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

/// The index of a shard store: which shards exist, where in the pack they
/// live, and the hash each must match. `config_hash` fingerprints the sampling
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
    /// The pack file holding every shard, relative to the store root.
    pub pack: String,
    /// Exact byte length of the pack.
    pub pack_bytes: usize,
    /// Shards in canonical `(snapshot, cube)` order.
    pub entries: Vec<ShardEntry>,
}

impl StoreManifest {
    /// An empty manifest fingerprinted by `config_hash`, naming no pack
    /// yet.
    pub fn new(config_hash: impl Into<String>, feature_names: Vec<String>) -> Self {
        StoreManifest {
            version: STORE_VERSION,
            config_hash: config_hash.into(),
            feature_names,
            pack: String::new(),
            pack_bytes: 0,
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

    /// Total shard bytes, summed over entries.
    pub fn total_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// Sorts entries into canonical `(snapshot, cube)` order. Called by the
    /// writer before saving so [`entry`](Self::entry) can binary-search.
    pub fn sort(&mut self) {
        self.entries.sort_by_key(ShardEntry::key);
    }

    /// The content-unique pack name for these entries: the XXH64 of their
    /// hashes in pack order. Shards sit back to back in that order, so
    /// equal names mean equal pack bytes.
    pub fn pack_name(entries: &[ShardEntry]) -> String {
        let hashes: String = entries.iter().map(|e| e.hash.as_str()).collect();
        format!(
            "{}.pack",
            sickle_field::io::content_hash_hex(hashes.as_bytes())
        )
    }

    /// True for a file name [`pack_name`](Self::pack_name) could produce.
    pub fn is_pack_name(name: &str) -> bool {
        name.strip_suffix(".pack")
            .is_some_and(|h| h.len() == 16 && h.bytes().all(|b| b.is_ascii_hexdigit()))
    }

    /// Loads a manifest from JSON, validating the version, the pack name,
    /// and every shard range against the pack length.
    ///
    /// # Errors
    /// I/O errors, or `InvalidData` on unparseable JSON, a version this
    /// build does not speak, a pack name that is not a plain file name, or
    /// a shard range that overflows or runs past `pack_bytes`.
    pub fn load(path: &Path) -> io::Result<Self> {
        let bad = |e: serde_json::Error| invalid(format!("bad store manifest: {e}"));
        let text = std::fs::read_to_string(path)?;
        let value = serde_json::value_from_str(&text).map_err(bad)?;
        // The version first: an older layout lacks this one's fields, and
        // must be named as an old store, not as a malformed one.
        let version = value.get("version").and_then(serde_json::Value::as_f64);
        if version != Some(f64::from(STORE_VERSION)) {
            return Err(invalid(format!(
                "unsupported store version {} (this build reads version {STORE_VERSION}; \
                 re-ingest the store)",
                version.map_or_else(|| "none".to_string(), |v| v.to_string())
            )));
        }
        let m = StoreManifest::deserialize(&value).map_err(|e| bad(e.into()))?;
        if !Self::is_pack_name(&m.pack) {
            return Err(invalid(format!("bad pack name {:?}", m.pack)));
        }
        for e in &m.entries {
            if e.offset
                .checked_add(e.bytes)
                .is_none_or(|end| end > m.pack_bytes)
            {
                return Err(invalid(format!(
                    "shard for snapshot {} cube {} spans {}+{} bytes, past the {}-byte pack",
                    e.snapshot, e.cube, e.offset, e.bytes, m.pack_bytes
                )));
            }
        }
        Ok(m)
    }

    /// Writes the manifest atomically (temp file + rename).
    ///
    /// # Errors
    /// Propagates I/O errors from the write or the rename.
    pub fn save_atomic(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self).map_err(|e| invalid(e.to_string()))?;
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
            offset: 100 * (snapshot * 10 + cube),
            bytes: 100,
            hash: sickle_field::io::content_hash_hex(&[snapshot as u8, cube as u8]),
            points: 10,
            codec: "identity".to_string(),
        }
    }

    /// A one-shard manifest whose pack is exactly that shard.
    fn one_shard() -> StoreManifest {
        let mut m = StoreManifest::new(
            sickle_field::io::content_hash_hex(b"cfg"),
            vec!["u".into(), "q".into()],
        );
        m.entries.push(entry(0, 0));
        m.pack = StoreManifest::pack_name(&m.entries);
        m.pack_bytes = 100;
        m
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sickle_store_manifest_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
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
        let path = temp_path("manifest.json");
        let m = one_shard();
        m.save_atomic(&path).unwrap();
        let back = StoreManifest::load(&path).unwrap();
        assert_eq!(back.config_hash, m.config_hash);
        assert_eq!(back.feature_names, m.feature_names);
        assert_eq!((&back.pack, back.pack_bytes), (&m.pack, m.pack_bytes));
        assert_eq!(back.entries[0].hash, m.entries[0].hash);
        assert_eq!(back.entries[0].offset, m.entries[0].offset);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_1_manifest_is_refused() {
        // A store written before the XXH64 content hash: its names and hash
        // strings are FNV-1a, so it must be refused, not half-verified.
        let path = temp_path("v1.json");
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
    fn version_2_manifest_is_refused() {
        // A one-file-per-shard store: same shard bytes, but no pack to
        // serve them from, so it is re-ingested rather than read.
        let path = temp_path("v2.json");
        std::fs::write(
            &path,
            r#"{
              "version": 2,
              "config_hash": "cfg",
              "feature_names": ["u"],
              "entries": [{
                "snapshot": 0, "cube": 0,
                "file": "shards/0123456789abcdef.sklh", "hash": "0123456789abcdef",
                "points": 10, "bytes": 100, "codec": "identity"
              }]
            }"#,
        )
        .unwrap();
        let err = StoreManifest::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 2 "), "{err}");
        assert!(err.to_string().contains("re-ingest"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_wrong_version_and_garbage() {
        let bad = temp_path("bad.json");
        std::fs::write(&bad, "{not json").unwrap();
        assert!(StoreManifest::load(&bad).is_err());
        let mut m = one_shard();
        m.version = 99;
        let path = temp_path("v99.json");
        m.save_atomic(&path).unwrap();
        assert!(StoreManifest::load(&path).is_err());
        std::fs::remove_file(&bad).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pack_names_depend_on_every_hash_and_its_order() {
        let a = vec![entry(0, 0), entry(0, 1)];
        let b = vec![entry(0, 1), entry(0, 0)];
        let name = StoreManifest::pack_name(&a);
        assert!(StoreManifest::is_pack_name(&name), "{name}");
        assert_ne!(name, StoreManifest::pack_name(&b));
        assert_ne!(name, StoreManifest::pack_name(&a[..1]));
        assert_eq!(name, StoreManifest::pack_name(&a.clone()));
        for bad in [
            "",
            ".pack",
            "0123456789abcdef.sklh",
            "0123456789abcdeg.pack",
        ] {
            assert!(!StoreManifest::is_pack_name(bad), "{bad}");
        }
    }
}
