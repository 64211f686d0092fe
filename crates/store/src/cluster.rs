//! Cluster-aware gateway over a fleet of store servers.
//!
//! A cluster is N `sickle-serve` processes, each holding the shard subset
//! a shared [`HashRing`] assigns it (with `R`-way replication, so every
//! `(snapshot, cube)` key lives on `R` distinct servers). The
//! [`ClusterClient`] presents the fleet as one logical store:
//!
//! - **Placement** — ingest, servers, and clients all build the same ring
//!   from the same member *names*, so owner lists agree across processes
//!   with no coordination service ([`partition_output`] is the ingest
//!   side).
//! - **Fan-out** — a batch request is split per owning member, each owner
//!   assembles only its keys (`GetTensors`, answered with the same
//!   `Batch` frame as `GetBatch`), and the client reassembles the rows in
//!   batch-key order. The assembled batch is **bit-identical**
//!   to what one server holding the whole store would return: both sides
//!   run the same `epoch_order` / `tensorize_set` code on the same
//!   canonical key order, and `f32`s cross the wire losslessly.
//! - **Failover** — a member whose transport dies (retries exhausted:
//!   refused, reset, timed out, or a `die` fault took the process) is
//!   marked down and its keys re-route to the next live replica on the
//!   ring. Nothing is re-fetched that already arrived, so a mid-epoch
//!   death costs one extra round-trip for the affected keys, not the
//!   epoch.
//! - **Recovery** — a mark-down expires after a jittered, per-member
//!   [`Backoff`] window ([`ClusterConfig::reprobe_base`] growing toward
//!   [`ClusterConfig::reprobe_cap`]); the next request that routes to the
//!   expired member doubles as its re-probe. A restarted server rejoins
//!   without any client restart, while a still-dead one costs at most one
//!   probe per window — the jitter keeps a fleet of clients from probing
//!   a corpse in lockstep.
//!
//! Definitive server answers (`NotFound`, `InvalidData`) are *not*
//! failover triggers: they mean the request or the data is wrong, and a
//! replica would say the same.

use std::collections::BTreeSet;
use std::io;
use std::time::{Duration, Instant};

use sickle_core::pipeline::SamplingOutput;

use crate::backoff::Backoff;
use crate::batching::{batch_keys, num_batches, Batch, BatchShape, BatchSpec};
use crate::client::{ClientConfig, StoreClient};
use crate::manifest::ShardKey;
use crate::ring::HashRing;
use crate::stats::StatsSnapshot;
use crate::store::set_key;

/// One server of the cluster: a stable name (its ring identity) and the
/// address it currently listens on. Names outlive restarts; addresses
/// (ephemeral ports) do not, which is why the ring hashes names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterMember {
    /// Stable ring identity (e.g. `"store-0"`).
    pub name: String,
    /// `host:port` the member listens on right now.
    pub addr: String,
}

impl ClusterMember {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, addr: impl Into<String>) -> Self {
        ClusterMember {
            name: name.into(),
            addr: addr.into(),
        }
    }
}

/// Cluster gateway tuning.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Distinct owners per key. `2` survives any single member death.
    pub replication: usize,
    /// Per-member transport tuning (each member's client mixes its address
    /// into the jitter seed, so one config still decollides retries).
    pub client: ClientConfig,
    /// First mark-down window after a member's transport dies. When it
    /// expires, the next request owned by the member doubles as a
    /// re-probe; each failed probe grows the window (decorrelated jitter,
    /// same scheme as transport retries) toward `reprobe_cap`.
    pub reprobe_base: Duration,
    /// Ceiling on the mark-down window between re-probes of a dead member.
    pub reprobe_cap: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replication: 2,
            client: ClientConfig::default(),
            reprobe_base: Duration::from_millis(250),
            reprobe_cap: Duration::from_secs(5),
        }
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The shard subset of `output` that `member` must hold under `ring` with
/// `replication`-way ownership — the ingest-side half of placement. Every
/// set is tagged with its canonical cube id so the filtered output ingests
/// under the same `(snapshot, cube)` keys as the full one (positions shift
/// when siblings are filtered out; tags do not).
pub fn partition_output(
    output: &SamplingOutput,
    ring: &HashRing,
    member: &str,
    replication: usize,
) -> SamplingOutput {
    let sets = output
        .sets
        .iter()
        .map(|snap_sets| {
            snap_sets
                .iter()
                .enumerate()
                .filter_map(|(position, set)| {
                    let key = set_key(set, position);
                    ring.owners(key, replication)
                        .contains(&member)
                        .then(|| set.clone().with_hypercube(key.cube))
                })
                .collect()
        })
        .collect();
    SamplingOutput {
        sets,
        stats: output.stats,
        config: output.config.clone(),
    }
}

/// Mark-down state for one member: ignored by routing until `until`, then
/// eligible for one re-probe. The per-member backoff survives across
/// probes so a persistently dead member is probed geometrically rarely.
struct DownState {
    until: Instant,
    backoff: Backoff,
}

/// A cluster of store servers behind one batch-fetching facade.
pub struct ClusterClient {
    ring: HashRing,
    /// Aligned with `ring.members()` order.
    clients: Vec<StoreClient>,
    /// `Some` while the member is marked down; index-aligned with
    /// `clients`.
    down: Vec<Option<DownState>>,
    reprobe_base: Duration,
    reprobe_cap: Duration,
    reprobe_seed: u64,
    replication: usize,
    keys: Vec<ShardKey>,
    feature_names: Vec<String>,
    config_hash: String,
    /// Rotating start offset for the per-round fan-out, seeded per client.
    /// Visiting members in a fixed order would convoy a fleet of clients:
    /// everyone queues on member 0 together, then moves to member 1
    /// together, and aggregate throughput collapses to one server at a
    /// time. The rotation decorrelates clients (different seeds) and
    /// rounds; reassembly is position-indexed, so visit order cannot
    /// affect the batch.
    rotation: usize,
}

impl ClusterClient {
    /// Connects to every member, verifies the fleet serves one dataset
    /// (identical `config_hash`), and unions the per-member manifests into
    /// the canonical key order batches are defined over.
    ///
    /// # Errors
    /// Transport errors reaching any member; `InvalidData` when members
    /// disagree on config hash or feature names, or when `members` is
    /// empty or duplicate-named.
    pub fn connect(members: &[ClusterMember], cfg: ClusterConfig) -> io::Result<Self> {
        if members.is_empty() {
            return Err(invalid("cluster needs at least one member".into()));
        }
        let names: Vec<&str> = members.iter().map(|m| m.name.as_str()).collect();
        {
            let mut uniq: Vec<&str> = names.clone();
            uniq.sort_unstable();
            uniq.dedup();
            if uniq.len() != members.len() {
                return Err(invalid("cluster member names must be unique".into()));
            }
        }
        let ring = HashRing::new(&names);
        // Ring order is sorted by name; align the client list with it.
        let mut clients = Vec::with_capacity(members.len());
        for name in ring.members() {
            let member = members
                .iter()
                .find(|m| &m.name == name)
                .expect("ring members come from the member list");
            clients.push(StoreClient::new(member.addr.clone(), cfg.client));
        }
        let mut keys = BTreeSet::new();
        let mut feature_names: Option<Vec<String>> = None;
        let mut config_hash: Option<String> = None;
        for (client, name) in clients.iter_mut().zip(ring.members()) {
            let manifest = client
                .manifest()
                .map_err(|e| io::Error::new(e.kind(), format!("member {name} manifest: {e}")))?;
            match &config_hash {
                None => config_hash = Some(manifest.config_hash.clone()),
                Some(h) if *h != manifest.config_hash => {
                    return Err(invalid(format!(
                        "member {name} serves config {} but the cluster serves {h}",
                        manifest.config_hash
                    )));
                }
                Some(_) => {}
            }
            match &feature_names {
                None => feature_names = Some(manifest.feature_names.clone()),
                Some(f) if *f != manifest.feature_names => {
                    return Err(invalid(format!("member {name} feature names disagree")));
                }
                Some(_) => {}
            }
            keys.extend(manifest.keys());
        }
        let down = (0..clients.len()).map(|_| None).collect();
        Ok(ClusterClient {
            ring,
            clients,
            down,
            reprobe_base: cfg.reprobe_base,
            reprobe_cap: cfg.reprobe_cap,
            reprobe_seed: cfg.client.seed,
            replication: cfg.replication.max(1),
            keys: keys.into_iter().collect(),
            feature_names: feature_names.expect("at least one member"),
            config_hash: config_hash.expect("at least one member"),
            rotation: cfg.client.seed as usize,
        })
    }

    /// Total samples (shard keys) across the cluster.
    pub fn n(&self) -> usize {
        self.keys.len()
    }

    /// Feature dimension.
    pub fn features(&self) -> usize {
        self.feature_names.len()
    }

    /// Feature column names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Config fingerprint the whole fleet agreed on at connect time.
    pub fn config_hash(&self) -> &str {
        &self.config_hash
    }

    /// Member names, in ring (sorted) order.
    pub fn members(&self) -> &[String] {
        self.ring.members()
    }

    /// Members currently marked down (failed over away from and not yet
    /// due for a re-probe). A member whose window expired no longer counts
    /// as down: the next request it owns will probe it.
    pub fn down_members(&self) -> Vec<&str> {
        let now = Instant::now();
        self.ring
            .members()
            .iter()
            .enumerate()
            .filter_map(|(i, name)| self.is_down_at(i, now).then_some(name.as_str()))
            .collect()
    }

    /// Sum of `Busy` frames absorbed across every member client.
    pub fn busy_retries(&self) -> u64 {
        self.clients.iter().map(StoreClient::busy_retries).sum()
    }

    /// Batches per epoch for `batch_size`.
    pub fn num_batches(&self, batch_size: usize) -> usize {
        num_batches(self.keys.len(), batch_size)
    }

    /// Fetches batch `index` of the epoch described by `spec`, fanning out
    /// per owning member and failing over to replicas as members die.
    ///
    /// # Errors
    /// `NotFound` past the last batch; `Other` once every replica of some
    /// key is down; definitive server errors as-is.
    pub fn batch(&mut self, spec: BatchSpec, index: usize) -> io::Result<Batch> {
        let _span = sickle_obs::span!("cluster.batch", index = index);
        let keys = batch_keys(&self.keys, spec, index).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "batch {index} out of range ({} batches per epoch)",
                    self.num_batches(spec.batch_size)
                ),
            )
        })?;
        let tokens = spec.tokens;
        let features = self.features();
        let mut inputs = vec![0.0f32; keys.len() * tokens * features];
        let mut targets = vec![0.0f32; keys.len() * features];
        let mut pending: Vec<usize> = (0..keys.len()).collect();
        while !pending.is_empty() {
            // Route every pending position to the first *live* owner of
            // its key. Grouping by member keeps the fan-out to one RPC per
            // owner per round.
            let mut per_member: Vec<Vec<usize>> = vec![Vec::new(); self.clients.len()];
            for &pos in &pending {
                let owner = self.first_live_owner(keys[pos]).ok_or_else(|| {
                    io::Error::other(format!(
                        "all {} replicas of snapshot {} cube {} are down",
                        self.replication, keys[pos].snapshot, keys[pos].cube
                    ))
                })?;
                per_member[owner].push(pos);
            }
            pending.clear();
            self.rotation = self.rotation.wrapping_add(1);
            let start = self.rotation % self.clients.len();
            for step in 0..per_member.len() {
                let member = (start + step) % per_member.len();
                let positions = std::mem::take(&mut per_member[member]);
                if positions.is_empty() {
                    continue;
                }
                let member_keys: Vec<ShardKey> = positions.iter().map(|&p| keys[p]).collect();
                match self.clients[member].tensors(tokens, &member_keys) {
                    Ok(part) => {
                        if self.down[member].take().is_some() {
                            // A marked member answered its re-probe: it is
                            // back (restarted, network healed) and resumes
                            // normal ownership.
                            sickle_obs::counter!("cluster.rejoin", 1usize);
                            sickle_obs::info!(
                                "cluster",
                                "member {} rejoined after mark-down",
                                self.ring.members()[member]
                            );
                        }
                        let want = BatchShape {
                            batch: positions.len(),
                            tokens,
                            features,
                            outputs: features,
                        };
                        if part.shape != want {
                            return Err(invalid(format!(
                                "member {} returned a mis-shaped batch",
                                self.ring.members()[member]
                            )));
                        }
                        for (i, &pos) in positions.iter().enumerate() {
                            let row = tokens * features;
                            inputs[pos * row..(pos + 1) * row]
                                .copy_from_slice(&part.inputs[i * row..(i + 1) * row]);
                            targets[pos * features..(pos + 1) * features]
                                .copy_from_slice(&part.targets[i * features..(i + 1) * features]);
                        }
                    }
                    Err(e) if is_definitive(&e) => return Err(e),
                    Err(e) => {
                        // Transport exhausted: the member is gone. Mark it
                        // down for a jittered re-probe window and re-route
                        // its keys next round.
                        let name = self.ring.members()[member].clone();
                        let _s = sickle_obs::span!("cluster.failover", member = member);
                        sickle_obs::counter!("cluster.failover", 1usize);
                        sickle_obs::warn!(
                            "cluster",
                            "member {name} down ({e}); failing over {} keys",
                            positions.len()
                        );
                        self.mark_down(member);
                        pending.extend(positions);
                    }
                }
            }
        }
        Ok(Batch {
            shape: BatchShape {
                batch: keys.len(),
                tokens,
                features,
                outputs: features,
            },
            inputs,
            targets,
        })
    }

    /// Streams a whole epoch.
    ///
    /// # Errors
    /// As [`Self::batch`].
    pub fn epoch(&mut self, spec: BatchSpec) -> io::Result<Vec<Batch>> {
        (0..self.num_batches(spec.batch_size))
            .map(|i| self.batch(spec, i))
            .collect()
    }

    /// Asks every live member to stop (`allow_shutdown` servers only),
    /// returning each member's final stats keyed by name. Down members are
    /// skipped — they already stopped, voluntarily or otherwise.
    pub fn shutdown_all(&mut self) -> Vec<(String, io::Result<StatsSnapshot>)> {
        let names: Vec<String> = self.ring.members().to_vec();
        let now = Instant::now();
        let live: Vec<usize> = (0..names.len())
            .filter(|&i| !self.is_down_at(i, now))
            .collect();
        live.into_iter()
            .map(|i| {
                let result = self.clients[i].shutdown_server();
                (names[i].clone(), result)
            })
            .collect()
    }

    fn first_live_owner(&self, key: ShardKey) -> Option<usize> {
        let members = self.ring.members();
        let now = Instant::now();
        self.ring
            .owners(key, self.replication)
            .into_iter()
            .filter_map(|name| members.iter().position(|m| m == name))
            .find(|&idx| !self.is_down_at(idx, now))
    }

    fn is_down_at(&self, member: usize, now: Instant) -> bool {
        self.down[member]
            .as_ref()
            .is_some_and(|state| now < state.until)
    }

    /// Marks `member` down for the next backoff window (growing the
    /// window if it was already marked).
    fn mark_down(&mut self, member: usize) {
        let mut state = self.down[member].take().unwrap_or_else(|| DownState {
            until: Instant::now(),
            backoff: Backoff::new(
                self.reprobe_seed ^ (member as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                self.reprobe_base,
                self.reprobe_cap,
            ),
        });
        state.until = Instant::now() + state.backoff.next_delay();
        self.down[member] = Some(state);
    }
}

/// True for errors that are the server's final word on the request itself
/// — a replica would answer identically, so failover is pointless.
fn is_definitive(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::NotFound | io::ErrorKind::InvalidData
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::small_output;

    #[test]
    fn partitions_cover_every_key_r_times() {
        let out = small_output(2, 8, 16);
        let ring = HashRing::new(&["a", "b", "c"]);
        let mut ownership = std::collections::HashMap::new();
        for name in ["a", "b", "c"] {
            let part = partition_output(&out, &ring, name, 2);
            for (snap, sets) in part.sets.iter().enumerate() {
                for set in sets {
                    let key = ShardKey {
                        snapshot: set.snapshot_index,
                        cube: set.hypercube.expect("partition tags cubes"),
                    };
                    assert_eq!(key.snapshot, snap);
                    *ownership.entry(key).or_insert(0usize) += 1;
                }
            }
        }
        assert_eq!(ownership.len(), 2 * 8, "every key is held somewhere");
        assert!(
            ownership.values().all(|&copies| copies == 2),
            "every key is held exactly R times: {ownership:?}"
        );
    }

    #[test]
    fn partition_respects_ring_ownership() {
        let out = small_output(1, 12, 8);
        let ring = HashRing::new(&["a", "b", "c"]);
        let part = partition_output(&out, &ring, "b", 2);
        for sets in &part.sets {
            for set in sets {
                let key = ShardKey {
                    snapshot: set.snapshot_index,
                    cube: set.hypercube.unwrap(),
                };
                assert!(ring.owners(key, 2).contains(&"b"), "b does not own {key:?}");
            }
        }
    }
}
