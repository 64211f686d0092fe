//! Deterministic batch assembly over shard keys.
//!
//! The serving plane's promise is **bit-identity**: a client streaming
//! batches for `(seed, batch_shape)` receives exactly the bytes an
//! in-memory trainer would build from the same sample sets. That holds
//! because both sides run the same three steps, in the same canonical
//! order:
//!
//! 1. sets sorted by `(snapshot, cube)` ([`ShardKey`] order, which the
//!    manifest enforces);
//! 2. an epoch permutation from [`epoch_order`] — `(0..n)` shuffled by
//!    `StdRng::seed_from_u64(seed)`, the very code
//!    `sickle_train::TensorData::batches` runs;
//! 3. per-set tensorization in [`assemble_batch`] — `tokens` feature rows
//!    at an even stride plus the set's [`column_means`] as targets, each
//!    set independent of every other so a batch only ever touches its own
//!    shards (the out-of-core property). The means are a pure function of
//!    the set: the server reads them from its cache, where they were
//!    computed once when the shard was decoded; local callers compute them
//!    in place. Same function, same bits.
//!
//! `f32` values cross the wire via `to_le_bytes`/`from_le_bytes`, which is
//! lossless, so equality is exact, not approximate.

use std::io;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sickle_field::SampleSet;

use crate::manifest::ShardKey;

/// What a client asks one batch stream to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchSpec {
    /// Epoch shuffle seed.
    pub seed: u64,
    /// Samples (sets) per batch.
    pub batch_size: usize,
    /// Tokens (strided feature rows) per sample.
    pub tokens: usize,
}

/// Shape metadata for one batch: `samples × tokens × features` inputs and
/// `samples × outputs` targets. Sequence models read `tokens` as timesteps.
/// (`sickle_train::BatchShape` is this type, re-exported.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchShape {
    /// Samples in the batch.
    pub batch: usize,
    /// Tokens per sample.
    pub tokens: usize,
    /// Features per token.
    pub features: usize,
    /// Output scalars per sample.
    pub outputs: usize,
}

/// One assembled batch: flat `f32` tensors plus shape metadata — the one
/// batch type, whether built in memory, answered by a server, or fed to a
/// model (`sickle_train::Batch` is this type, re-exported).
#[derive(Clone, Debug, PartialEq)]
pub struct Batch {
    /// Inputs, `batch * tokens * features` long.
    pub inputs: Vec<f32>,
    /// Targets, `batch * outputs` long.
    pub targets: Vec<f32>,
    /// Shape metadata.
    pub shape: BatchShape,
}

/// The epoch permutation for `n` samples under `seed`: byte-for-byte the
/// shuffle `sickle_train::TensorData::batches` performs with a fresh
/// `StdRng::seed_from_u64(seed)`.
pub fn epoch_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    order
}

/// Number of batches one epoch yields (`ceil(n / batch_size)`, with the
/// same `batch_size.max(1)` clamp the train loop applies).
pub fn num_batches(n: usize, batch_size: usize) -> usize {
    n.div_ceil(batch_size.max(1))
}

/// The sample positions (indices into the canonical key order) making up
/// batch `index` of the epoch, or `None` past the last batch.
pub fn batch_positions(n: usize, spec: BatchSpec, index: usize) -> Option<Vec<usize>> {
    let order = epoch_order(n, spec.seed);
    order
        .chunks(spec.batch_size.max(1))
        .nth(index)
        .map(<[usize]>::to_vec)
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A set's targets: the per-column mean of the whole set, summed in `f64`
/// in row order and rounded once to `f32`. A pure function of the decoded
/// set, so the store computes it once per residency and keeps it beside
/// the set ([`DecodedShard`](crate::cache::DecodedShard)); an empty set
/// yields NaNs, which no batch ever carries (the gather rejects it).
pub fn column_means(set: &SampleSet) -> Vec<f32> {
    let d = set.features.dim();
    let mut sums = vec![0.0f64; d];
    for row in set.features.data.chunks_exact(d) {
        for (s, &v) in sums.iter_mut().zip(row) {
            *s += v;
        }
    }
    let n = set.len() as f64;
    sums.iter().map(|s| (s / n) as f32).collect()
}

/// Appends one set's `tokens` feature rows at stride
/// `(t * len / tokens) % len` (the spread `reconstruction_data` uses, so
/// cluster-major samplers contribute representative tokens) to `out`.
fn gather_tokens(set: &SampleSet, tokens: usize, out: &mut Vec<f32>) -> io::Result<()> {
    if set.is_empty() {
        return Err(invalid(format!(
            "cannot tensorize empty sample set (snapshot {})",
            set.snapshot_index
        )));
    }
    if tokens == 0 {
        return Err(invalid("tokens must be positive".into()));
    }
    for t in 0..tokens {
        let row = set.features.row((t * set.len() / tokens) % set.len());
        out.extend(row.iter().map(|&v| v as f32));
    }
    Ok(())
}

/// Tensorizes one sample set: its `tokens` strided feature rows and its
/// [`column_means`] targets.
///
/// # Errors
/// `InvalidData` for an empty set or `tokens == 0`.
pub fn tensorize_set(set: &SampleSet, tokens: usize) -> io::Result<(Vec<f32>, Vec<f32>)> {
    let mut inputs = Vec::with_capacity(tokens * set.features.dim());
    gather_tokens(set, tokens, &mut inputs)?;
    Ok((inputs, column_means(set)))
}

/// The one batch assembler: for each `(set, targets)` pair, in batch
/// order, gathers the set's token rows and appends its targets, which must
/// be the set's [`column_means`]. The server passes the targets its cache
/// holds; [`batch_from_sets`] computes them on the spot.
///
/// # Errors
/// `InvalidData` for an empty batch, an empty set, `tokens == 0`, sets
/// whose feature dimensions disagree, or targets of the wrong length.
pub fn assemble_batch(pairs: &[(&SampleSet, &[f32])], tokens: usize) -> io::Result<Batch> {
    let (first, _) = pairs
        .first()
        .ok_or_else(|| invalid("cannot build an empty batch".into()))?;
    let features = first.features.dim();
    let mut inputs = Vec::with_capacity(pairs.len() * tokens * features);
    let mut targets = Vec::with_capacity(pairs.len() * features);
    for &(set, means) in pairs {
        if set.features.dim() != features || means.len() != features {
            return Err(invalid(format!(
                "feature dimension mismatch in batch: {} (targets {}) vs {}",
                set.features.dim(),
                means.len(),
                features
            )));
        }
        gather_tokens(set, tokens, &mut inputs)?;
        targets.extend_from_slice(means);
    }
    Ok(Batch {
        shape: BatchShape {
            batch: pairs.len(),
            tokens,
            features,
            outputs: features,
        },
        inputs,
        targets,
    })
}

/// Assembles one batch from already-fetched sets (in batch order),
/// computing each set's targets on the spot.
///
/// # Errors
/// As [`assemble_batch`].
pub fn batch_from_sets(sets: &[Arc<SampleSet>], tokens: usize) -> io::Result<Batch> {
    let means: Vec<Vec<f32>> = sets.iter().map(|set| column_means(set)).collect();
    let pairs: Vec<(&SampleSet, &[f32])> = sets
        .iter()
        .zip(&means)
        .map(|(set, m)| (&**set, &m[..]))
        .collect();
    assemble_batch(&pairs, tokens)
}

/// Convenience for tests and the in-memory comparison path: batch `index`
/// assembled directly from a slice of canonical-order sets.
///
/// # Errors
/// `InvalidData` past the last batch or on tensorization failure.
pub fn local_batch(sets: &[Arc<SampleSet>], spec: BatchSpec, index: usize) -> io::Result<Batch> {
    let positions = batch_positions(sets.len(), spec, index)
        .ok_or_else(|| invalid(format!("batch index {index} out of range")))?;
    let picked: Vec<Arc<SampleSet>> = positions.iter().map(|&p| Arc::clone(&sets[p])).collect();
    batch_from_sets(&picked, spec.tokens)
}

/// The shard keys batch `index` touches, in batch order. This is what the
/// server fetches (and what the prefetcher warms for `index + 1`).
pub fn batch_keys(keys: &[ShardKey], spec: BatchSpec, index: usize) -> Option<Vec<ShardKey>> {
    batch_positions(keys.len(), spec, index)
        .map(|positions| positions.into_iter().map(|p| keys[p]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fixture_set;

    fn spec(seed: u64, batch_size: usize, tokens: usize) -> BatchSpec {
        BatchSpec {
            seed,
            batch_size,
            tokens,
        }
    }

    #[test]
    fn epoch_order_is_seed_deterministic_permutation() {
        let a = epoch_order(17, 42);
        let b = epoch_order(17, 42);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..17).collect::<Vec<_>>());
        assert_ne!(epoch_order(17, 43), a, "different seed, different order");
    }

    #[test]
    fn batches_partition_the_epoch() {
        let n = 10;
        let s = spec(3, 4, 2);
        assert_eq!(num_batches(n, s.batch_size), 3);
        let mut seen: Vec<usize> = (0..3)
            .flat_map(|i| batch_positions(n, s, i).unwrap())
            .collect();
        assert!(batch_positions(n, s, 3).is_none());
        seen.sort_unstable();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn tensorize_strides_and_means() {
        let set = Arc::new(fixture_set(0, 0, 8));
        let (inputs, targets) = tensorize_set(&set, 4).unwrap();
        assert_eq!(inputs.len(), 4 * 2);
        assert_eq!(targets.len(), 2);
        // Token t reads row (t * 8 / 4) % 8 = 2t.
        for t in 0..4 {
            let row = set.features.row(2 * t);
            assert_eq!(inputs[t * 2], row[0] as f32);
            assert_eq!(inputs[t * 2 + 1], row[1] as f32);
        }
        // Targets are exact column means.
        let mean0: f64 = set.features.data.iter().step_by(2).sum::<f64>() / 8.0;
        assert_eq!(targets[0], mean0 as f32);
    }

    #[test]
    fn tensorize_rejects_empty_and_zero_tokens() {
        let set = Arc::new(fixture_set(0, 0, 8));
        assert!(tensorize_set(&set, 0).is_err());
    }

    #[test]
    fn assembler_takes_the_targets_it_is_given_and_checks_their_length() {
        let sets: Vec<Arc<SampleSet>> = (0..3).map(|c| Arc::new(fixture_set(0, c, 10))).collect();
        let means: Vec<Vec<f32>> = sets.iter().map(|s| column_means(s)).collect();
        let pairs: Vec<(&SampleSet, &[f32])> = sets
            .iter()
            .zip(&means)
            .map(|(s, m)| (&**s, &m[..]))
            .collect();
        let batch = assemble_batch(&pairs, 4).unwrap();
        assert_eq!(batch, batch_from_sets(&sets, 4).unwrap());
        assert_eq!(&batch.targets[2..4], &means[1][..]);
        assert_eq!(tensorize_set(&sets[1], 4).unwrap().1, means[1]);
        assert!(assemble_batch(&[(&*sets[0], &means[0][..1])], 4).is_err());
        assert!(assemble_batch(&[], 4).is_err());
    }

    #[test]
    fn local_batch_matches_manual_assembly() {
        let sets: Vec<Arc<SampleSet>> = (0..6).map(|c| Arc::new(fixture_set(0, c, 10))).collect();
        let s = spec(9, 4, 3);
        let batch = local_batch(&sets, s, 0).unwrap();
        assert_eq!(batch.shape.batch, 4);
        assert_eq!(batch.shape.tokens, 3);
        assert_eq!(batch.shape.features, 2);
        assert_eq!(batch.shape.outputs, 2);
        let positions = batch_positions(6, s, 0).unwrap();
        let (first_inputs, _) = tensorize_set(&sets[positions[0]], 3).unwrap();
        assert_eq!(&batch.inputs[..6], &first_inputs[..]);
        // Last (ragged) batch holds the remaining 2 sets.
        assert_eq!(local_batch(&sets, s, 1).unwrap().shape.batch, 2);
        assert!(local_batch(&sets, s, 2).is_err());
    }
}
