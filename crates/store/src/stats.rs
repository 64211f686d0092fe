//! Live server statistics: per-connection counters and the JSON snapshot
//! served for `Request::Stats`.
//!
//! Two sources feed a [`StatsSnapshot`]:
//!
//! * the process-global `sickle-obs` metric registry (counters, gauges and
//!   log₂ histograms update their atomics even with tracing disabled, so
//!   stats cost nothing extra on the serve path), and
//! * a per-server [`ConnRegistry`]: per-connection byte/request counters,
//!   attached to each live connection through an RAII [`ConnGuard`], plus
//!   the server's wake-up ledger.
//!
//! The snapshot is serialized with the vendored value-tree serde, so
//! `sickle-top` (or any other client) can deserialize it without the
//! server and client sharing a struct layout at the byte level — the wire
//! form is JSON behind `TAG_RESP_STATS`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};
use sickle_obs as obs;
use sickle_obs::MetricSnapshot;

use crate::manifest::StoreManifest;

/// Lock-free counters for one live connection.
#[derive(Default)]
pub struct ConnCounters {
    requests: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

impl ConnCounters {
    /// Records one served request with its frame sizes.
    pub fn record(&self, bytes_in: u64, bytes_out: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes_in, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes_out, Ordering::Relaxed);
    }
}

/// Registry of live connections; cheap to clone (shared interior).
#[derive(Clone, Default)]
pub struct ConnRegistry {
    inner: Arc<RegistryInner>,
}

#[derive(Default)]
struct RegistryInner {
    next_id: AtomicU64,
    total: AtomicU64,
    wakeups: AtomicU64,
    fruitless_wakeups: AtomicU64,
    open: Mutex<Vec<(u64, Arc<ConnCounters>)>>,
}

impl ConnRegistry {
    /// Registers a new connection, returning the RAII guard that owns its
    /// counters and deregisters on drop.
    pub fn register(&self) -> ConnGuard {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.inner.total.fetch_add(1, Ordering::Relaxed);
        let counters = Arc::new(ConnCounters::default());
        self.inner
            .open
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((id, Arc::clone(&counters)));
        ConnGuard {
            registry: self.clone(),
            id,
            counters,
        }
    }

    /// Records one worker wake-up (a readiness wait that returned) and
    /// whether it was `useful`: moved a byte, or accepted, closed or
    /// expired a connection.
    pub fn note_wakeup(&self, useful: bool) {
        self.inner.wakeups.fetch_add(1, Ordering::Relaxed);
        if !useful {
            self.inner.fruitless_wakeups.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Connections ever accepted.
    pub fn total(&self) -> u64 {
        self.inner.total.load(Ordering::Relaxed)
    }

    /// Connections currently open — the admission bound's input.
    pub fn open_count(&self) -> usize {
        self.inner
            .open
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Snapshot of every live connection's counters.
    pub fn live(&self) -> Vec<ConnStats> {
        self.inner
            .open
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(id, c)| ConnStats {
                id: *id,
                requests: c.requests.load(Ordering::Relaxed),
                bytes_in: c.bytes_in.load(Ordering::Relaxed),
                bytes_out: c.bytes_out.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// Owns one connection's counters; deregisters from the registry on drop.
pub struct ConnGuard {
    registry: ConnRegistry,
    id: u64,
    counters: Arc<ConnCounters>,
}

impl ConnGuard {
    /// This connection's registry id (also its stats row id).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The counters to record served requests against.
    pub fn counters(&self) -> &ConnCounters {
        &self.counters
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let mut open = self
            .registry
            .inner
            .open
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        open.retain(|(id, _)| *id != self.id);
    }
}

/// One live connection's row in a [`StatsSnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConnStats {
    /// Server-side connection id (monotone per accept).
    pub id: u64,
    /// Requests served on this connection.
    pub requests: u64,
    /// Request bytes read from this connection.
    pub bytes_in: u64,
    /// Response bytes written to this connection.
    pub bytes_out: u64,
}

/// Per-codec aggregate over a store's manifest: how many shards one codec
/// owns, what they cost on disk, and what they expand to when decoded.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CodecStats {
    /// Codec name as recorded in the manifest (`identity`, `f16`, ...).
    pub codec: String,
    /// Shards encoded with this codec.
    pub shards: u64,
    /// Points across those shards.
    pub points: u64,
    /// Bytes those shards occupy in the pack on disk.
    pub disk_bytes: u64,
    /// Bytes the decoded sets occupy resident (index + f64 features per
    /// row, from the manifest's feature count — an estimate, not a
    /// measurement, so it is comparable across codecs).
    pub decoded_bytes: u64,
    /// `decoded_bytes / disk_bytes` — the codec's effective compression.
    pub ratio: f64,
}

/// The structured answer to `Request::Stats`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Server process id (ties the snapshot to a trace track).
    pub pid: u64,
    /// Seconds since the server process's trace clock started.
    pub uptime_secs: f64,
    /// Connections currently open.
    pub connections_open: u64,
    /// Connections ever accepted.
    pub connections_total: u64,
    /// Requests served (all connections, lifetime).
    pub requests_total: u64,
    /// Arrivals shed with a `Busy` frame at the admission bound (lifetime).
    /// The overload test reconciles this against the busy retries its
    /// clients observed: every shed is counted on exactly one side of the
    /// wire by each party.
    pub requests_shed: u64,
    /// Request bytes read (lifetime).
    pub bytes_in: u64,
    /// Response bytes written (lifetime).
    pub bytes_out: u64,
    /// Block-cache hits (lifetime).
    pub cache_hits: u64,
    /// Block-cache misses (lifetime).
    pub cache_misses: u64,
    /// `hits / (hits + misses)`, 0 when no lookups yet.
    pub cache_hit_rate: f64,
    /// Every registered metric, with log-bucket p50/p95/p99 and ring-buffer
    /// rates (see [`MetricSnapshot`]).
    pub metrics: Vec<MetricSnapshot>,
    /// Worker wake-ups: readiness waits that returned, for any reason
    /// (this server only, lifetime; absent in older snapshots).
    #[serde(default)]
    pub wakeups: u64,
    /// Wake-ups that moved no byte and accepted, closed or expired
    /// nothing — timer ticks over a quiet server, mostly. The useful share
    /// of this layer's attempts is `1 - fruitless_wakeups / wakeups`.
    #[serde(default)]
    pub fruitless_wakeups: u64,
    /// Per-connection counters for live connections.
    pub connections: Vec<ConnStats>,
    /// Per-codec shard aggregates for the served store (empty when the
    /// server did not attach a manifest; absent in pre-codec snapshots).
    #[serde(default)]
    pub codecs: Vec<CodecStats>,
}

impl StatsSnapshot {
    /// Collects the current snapshot from the obs registry plus `conns`.
    pub fn collect(conns: &ConnRegistry) -> StatsSnapshot {
        let metrics = obs::snapshot();
        let value_of = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .unwrap_or(0.0)
        };
        let live = conns.live();
        let hits = value_of("store.cache.hit");
        let misses = value_of("store.cache.miss");
        let lookups = hits + misses;
        StatsSnapshot {
            pid: std::process::id() as u64,
            uptime_secs: obs::now_ns() as f64 / 1e9,
            connections_open: live.len() as u64,
            connections_total: conns.total(),
            requests_total: value_of("store.serve.requests") as u64,
            requests_shed: value_of("serve.shed") as u64,
            bytes_in: value_of("store.serve.bytes_in") as u64,
            bytes_out: value_of("store.serve.bytes_out") as u64,
            cache_hits: hits as u64,
            cache_misses: misses as u64,
            cache_hit_rate: if lookups > 0.0 { hits / lookups } else { 0.0 },
            metrics,
            wakeups: conns.inner.wakeups.load(Ordering::Relaxed),
            fruitless_wakeups: conns.inner.fruitless_wakeups.load(Ordering::Relaxed),
            connections: live,
            codecs: Vec::new(),
        }
    }

    /// Attaches per-codec shard aggregates computed from a store manifest.
    /// Decoded size is estimated as `points × (8 + 8 × dim)` — one u64
    /// index plus `dim` f64 features per row — so the ratio means the same
    /// thing for every codec regardless of what happens to be cached.
    pub fn with_manifest(mut self, manifest: &StoreManifest) -> StatsSnapshot {
        use std::collections::BTreeMap;
        let row_bytes = (8 + 8 * manifest.feature_names.len()) as u64;
        let mut by_codec: BTreeMap<String, CodecStats> = BTreeMap::new();
        for entry in &manifest.entries {
            let s = by_codec
                .entry(entry.codec.clone())
                .or_insert_with(|| CodecStats {
                    codec: entry.codec.clone(),
                    shards: 0,
                    points: 0,
                    disk_bytes: 0,
                    decoded_bytes: 0,
                    ratio: 0.0,
                });
            s.shards += 1;
            s.points += entry.points as u64;
            s.disk_bytes += entry.bytes as u64;
        }
        self.codecs = by_codec
            .into_values()
            .map(|mut s| {
                s.decoded_bytes = s.points * row_bytes;
                s.ratio = if s.disk_bytes > 0 {
                    s.decoded_bytes as f64 / s.disk_bytes as f64
                } else {
                    0.0
                };
                s
            })
            .collect();
        self
    }

    /// Convenience lookup into [`Self::metrics`] by metric name.
    pub fn metric(&self, name: &str) -> Option<&MetricSnapshot> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Serializes to the JSON wire form behind `TAG_RESP_STATS`.
    pub fn to_json(&self) -> Vec<u8> {
        // Cannot fail: the snapshot is strings, integers and floats in
        // structs and lists — no map with non-string keys, no fallible
        // `Serialize` impl — and serde_json writes non-finite floats as
        // `null` rather than erroring.
        serde_json::to_string(self)
            .expect("stats serialize")
            .into_bytes()
    }

    /// Parses the JSON wire form. Total on hostile input: returns an error
    /// string, never panics.
    pub fn from_json(bytes: &[u8]) -> Result<StatsSnapshot, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| format!("stats not UTF-8: {e}"))?;
        serde_json::from_str(text).map_err(|e| format!("bad stats JSON: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_tracks_live_connections_and_totals() {
        let reg = ConnRegistry::default();
        let a = reg.register();
        let b = reg.register();
        a.counters().record(10, 100);
        a.counters().record(5, 50);
        b.counters().record(1, 2);
        assert_eq!(reg.total(), 2);
        let live = reg.live();
        assert_eq!(live.len(), 2);
        let row_a = live.iter().find(|c| c.id == a.id()).unwrap();
        assert_eq!(row_a.requests, 2);
        assert_eq!(row_a.bytes_in, 15);
        assert_eq!(row_a.bytes_out, 150);
        drop(a);
        assert_eq!(reg.live().len(), 1, "guard drop deregisters");
        assert_eq!(reg.total(), 2, "totals survive disconnects");
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let reg = ConnRegistry::default();
        let guard = reg.register();
        guard.counters().record(64, 4096);
        let snap = StatsSnapshot::collect(&reg);
        assert_eq!(snap.connections_open, 1);
        let back = StatsSnapshot::from_json(&snap.to_json()).expect("roundtrip");
        assert_eq!(back, snap);
    }

    #[test]
    fn with_manifest_aggregates_per_codec() {
        use crate::manifest::{ShardEntry, StoreManifest};
        let mut m = StoreManifest::new("cfg", vec!["u".into(), "q".into()]);
        for (i, (codec, bytes)) in [("identity", 2400), ("f16", 600), ("identity", 2400)]
            .iter()
            .enumerate()
        {
            m.entries.push(ShardEntry {
                snapshot: 0,
                cube: i,
                offset: m.pack_bytes,
                bytes: *bytes,
                hash: format!("{i}"),
                points: 100,
                codec: codec.to_string(),
            });
            m.pack_bytes += bytes;
        }
        let snap = StatsSnapshot::collect(&ConnRegistry::default()).with_manifest(&m);
        assert_eq!(snap.codecs.len(), 2);
        let f16 = snap.codecs.iter().find(|c| c.codec == "f16").unwrap();
        let id = snap.codecs.iter().find(|c| c.codec == "identity").unwrap();
        // 2 features: 8 + 16 = 24 bytes/row decoded.
        assert_eq!(f16.shards, 1);
        assert_eq!(f16.decoded_bytes, 100 * 24);
        assert!((f16.ratio - 4.0).abs() < 1e-9);
        assert_eq!(id.shards, 2);
        assert_eq!(id.disk_bytes, 4800);
        // The augmented snapshot still roundtrips through the wire form.
        let back = StatsSnapshot::from_json(&snap.to_json()).expect("roundtrip");
        assert_eq!(back, snap);
    }

    #[test]
    fn pre_codec_snapshot_json_parses_with_empty_codecs() {
        // A snapshot serialized before the codecs field existed must still
        // parse (sickle-top against an older server).
        let mut snap = StatsSnapshot::collect(&ConnRegistry::default());
        snap.codecs.clear();
        let json = String::from_utf8(snap.to_json()).unwrap();
        let stripped = json.replacen(",\"codecs\":[]", "", 1).replacen(
            ",\"wakeups\":0,\"fruitless_wakeups\":0",
            "",
            1,
        );
        assert!(
            !stripped.contains("codecs") && !stripped.contains("wakeups"),
            "test must actually strip the fields"
        );
        let back = StatsSnapshot::from_json(stripped.as_bytes()).expect("parse");
        assert!(back.codecs.is_empty());
        assert_eq!((back.wakeups, back.fruitless_wakeups), (0, 0));
    }

    #[test]
    fn from_json_rejects_hostile_input_without_panicking() {
        assert!(StatsSnapshot::from_json(b"\xFF\xFE").is_err());
        assert!(StatsSnapshot::from_json(b"not json").is_err());
        assert!(StatsSnapshot::from_json(b"{}").is_err());
        assert!(StatsSnapshot::from_json(b"[1,2,3]").is_err());
    }
}
