//! Consistent-hash ring placing `(snapshot, cube)` shards on servers.
//!
//! Each member contributes [`VNODES`] virtual points: the
//! FNV-1a hash of `"{name}#{vnode}"`, re-hashed once through FNV-1a of
//! its little-endian bytes (plain FNV avalanches poorly across the short
//! suffix changes between vnode strings, which clusters points and lets
//! one member own 2× its fair share; the second pass disperses them —
//! `ring_props.rs` pins the resulting balance);
//! a key hashes from its 16-byte LE `(snapshot, cube)` encoding and is
//! owned by the first `r` **distinct** members clockwise from its hash.
//! Placement therefore depends only on the member *names* and the key —
//! never on process identity, insertion order, or bind addresses (ports
//! are ephemeral; names are stable) — so an ingest process, N servers,
//! and every client all compute identical owner lists.
//!
//! Consistent hashing's minimal-disruption property holds exactly for the
//! primary owner: removing member `m` cannot change the primary of any key
//! whose primary was not `m` (the clockwise walk sees the same first
//! point), so at most the keys `m` owned — about `1/N` of them — move.
//! `ring_props.rs` asserts both the exact preservation and the `< 2/N`
//! statistical bound from the issue.

use sickle_field::io::fnv1a64;

use crate::manifest::ShardKey;

/// Virtual nodes per member: enough to keep the per-member load imbalance
/// within a few percent for single-digit member counts. A constant, not a
/// parameter: ingest, servers and clients must all build the same ring.
pub const VNODES: usize = 128;

/// A consistent-hash ring over named members.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// Member names in sorted order (the index space `points` refers to).
    members: Vec<String>,
    /// `(hash, member index)` sorted by hash; ties broken by member index
    /// so equal-hash collisions still place deterministically.
    points: Vec<(u64, u32)>,
}

/// The ring position of one shard key.
pub fn key_hash(key: ShardKey) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&(key.snapshot as u64).to_le_bytes());
    bytes[8..].copy_from_slice(&(key.cube as u64).to_le_bytes());
    fnv1a64(&bytes)
}

impl HashRing {
    /// Builds a ring with [`VNODES`] virtual points per member.
    ///
    /// # Panics
    /// Panics on an empty or duplicate-named member list.
    pub fn new<S: AsRef<str>>(members: &[S]) -> Self {
        assert!(!members.is_empty(), "hash ring needs at least one member");
        let mut names: Vec<String> = members.iter().map(|m| m.as_ref().to_string()).collect();
        names.sort_unstable();
        assert!(
            names.windows(2).all(|w| w[0] != w[1]),
            "hash ring member names must be unique"
        );
        let mut points = Vec::with_capacity(names.len() * VNODES);
        for (idx, name) in names.iter().enumerate() {
            for v in 0..VNODES {
                let h = fnv1a64(&fnv1a64(format!("{name}#{v}").as_bytes()).to_le_bytes());
                points.push((h, idx as u32));
            }
        }
        points.sort_unstable();
        HashRing {
            members: names,
            points,
        }
    }

    /// Member names, in the ring's canonical (sorted) order.
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// The first `r` distinct members clockwise from `key`'s ring position
    /// (fewer when the ring has fewer than `r` members). Element 0 is the
    /// primary owner; the rest are its replicas in failover order.
    pub fn owners(&self, key: ShardKey, r: usize) -> Vec<&str> {
        let want = r.min(self.members.len()).max(1);
        let h = key_hash(key);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let mut seen = vec![false; self.members.len()];
        let mut out = Vec::with_capacity(want);
        for i in 0..self.points.len() {
            let (_, m) = self.points[(start + i) % self.points.len()];
            if !seen[m as usize] {
                seen[m as usize] = true;
                out.push(self.members[m as usize].as_str());
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }

    /// The primary owner of `key`.
    pub fn primary(&self, key: ShardKey) -> &str {
        self.owners(key, 1)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(snapshot: usize, cube: usize) -> ShardKey {
        ShardKey { snapshot, cube }
    }

    #[test]
    fn placement_ignores_member_insertion_order() {
        let a = HashRing::new(&["beta", "alpha", "gamma"]);
        let b = HashRing::new(&["gamma", "beta", "alpha"]);
        for s in 0..4 {
            for c in 0..16 {
                assert_eq!(a.owners(key(s, c), 2), b.owners(key(s, c), 2));
            }
        }
    }

    #[test]
    fn owners_are_distinct_and_primary_first() {
        let ring = HashRing::new(&["s0", "s1", "s2"]);
        for c in 0..32 {
            let owners = ring.owners(key(0, c), 2);
            assert_eq!(owners.len(), 2);
            assert_ne!(owners[0], owners[1]);
            assert_eq!(owners[0], ring.primary(key(0, c)));
        }
    }

    #[test]
    fn replication_caps_at_member_count() {
        let ring = HashRing::new(&["only", "pair"]);
        assert_eq!(ring.owners(key(1, 1), 5).len(), 2);
        let solo = HashRing::new(&["only"]);
        assert_eq!(solo.owners(key(1, 1), 3), vec!["only"]);
    }

    #[test]
    fn load_spreads_across_members() {
        let ring = HashRing::new(&["s0", "s1", "s2"]);
        let mut counts = [0usize; 3];
        for s in 0..8 {
            for c in 0..64 {
                let p = ring.primary(key(s, c));
                let i = ring.members().iter().position(|m| m == p).unwrap();
                counts[i] += 1;
            }
        }
        // 512 keys over 3 members: every member carries real load.
        assert!(
            counts.iter().all(|&n| n > 512 / 10),
            "degenerate spread: {counts:?}"
        );
    }
}
