//! Dataset adapters: from sampler outputs and dense snapshots to batched
//! training tensors.
//!
//! All tensors are flat `f32` with explicit [`BatchShape`] metadata. Inputs
//! are laid out `[sample][token][feature]` (for token models) or
//! `[sample][timestep][feature]` (for sequence models); targets are
//! `[sample][output]`. Features and targets are standardized (zero mean,
//! unit variance over the training set) as the reference training scripts
//! do.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sickle_field::{SampleSet, Snapshot};

/// The batch a model consumes is the batch the serving plane assembles —
/// one type, so a streamed batch reaches the trainer without a copy.
pub use sickle_store::batching::{Batch, BatchShape};

/// A full in-memory dataset with per-sample granularity.
#[derive(Clone, Debug)]
pub struct TensorData {
    /// All inputs, `n * tokens * features`.
    pub inputs: Vec<f32>,
    /// All targets, `n * outputs`.
    pub targets: Vec<f32>,
    /// Number of samples.
    pub n: usize,
    /// Tokens per sample.
    pub tokens: usize,
    /// Features per token.
    pub features: usize,
    /// Outputs per sample.
    pub outputs: usize,
}

impl TensorData {
    /// Creates a dataset; validates divisibility.
    ///
    /// # Panics
    /// Panics if buffer lengths are inconsistent.
    pub fn new(
        inputs: Vec<f32>,
        targets: Vec<f32>,
        tokens: usize,
        features: usize,
        outputs: usize,
    ) -> Self {
        let per = tokens * features;
        assert!(per > 0 && outputs > 0, "degenerate shape");
        assert_eq!(
            inputs.len() % per,
            0,
            "input length not a multiple of tokens*features"
        );
        let n = inputs.len() / per;
        assert_eq!(targets.len(), n * outputs, "target length mismatch");
        TensorData {
            inputs,
            targets,
            n,
            tokens,
            features,
            outputs,
        }
    }

    /// Fits a [`Standardizer`] (per-feature and per-output z-score
    /// statistics) on this dataset without modifying it.
    pub fn fit_standardizer(&self) -> Standardizer {
        let stat = |values: &mut dyn Iterator<Item = f32>, count: usize| -> (f32, f32) {
            let vals: Vec<f32> = values.collect();
            let mean = vals.iter().map(|&v| v as f64).sum::<f64>() / count.max(1) as f64;
            let var =
                vals.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / count.max(1) as f64;
            (mean as f32, var.sqrt().max(1e-9) as f32)
        };
        let n_rows = self.inputs.len() / self.features.max(1);
        let mut in_mean = vec![0.0; self.features];
        let mut in_std = vec![1.0; self.features];
        for f in 0..self.features {
            let (m, s) = stat(
                &mut self.inputs.chunks_exact(self.features).map(|c| c[f]),
                n_rows,
            );
            in_mean[f] = m;
            in_std[f] = s;
        }
        let mut out_mean = vec![0.0; self.outputs];
        let mut out_std = vec![1.0; self.outputs];
        for o in 0..self.outputs {
            let (m, s) = stat(
                &mut self.targets.chunks_exact(self.outputs).map(|c| c[o]),
                self.n,
            );
            out_mean[o] = m;
            out_std[o] = s;
        }
        Standardizer {
            in_mean,
            in_std,
            out_mean,
            out_std,
        }
    }

    /// Standardizes inputs and targets in place (z-score per feature column
    /// and per output column over all samples); returns the target mean/std
    /// so predictions can be unscaled. For held-out data, fit a
    /// [`Standardizer`] on the *training* set and [`Standardizer::apply`]
    /// it instead.
    pub fn standardize(&mut self) -> (Vec<f32>, Vec<f32>) {
        let std = self.fit_standardizer();
        std.apply(self);
        (std.out_mean, std.out_std)
    }

    /// Splits into `(train, test)` with the given test fraction, shuffling
    /// deterministically under `seed` (the paper uses a 90:10 split).
    pub fn split(&self, test_frac: f64, seed: u64) -> (TensorData, TensorData) {
        let mut order: Vec<usize> = (0..self.n).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        order.shuffle(&mut rng);
        let n_test = ((self.n as f64 * test_frac).round() as usize)
            .clamp(1, self.n.saturating_sub(1).max(1));
        let (test_idx, train_idx) = order.split_at(n_test);
        (self.gather(train_idx), self.gather(test_idx))
    }

    /// Extracts the given sample indices into a new dataset.
    pub fn gather(&self, indices: &[usize]) -> TensorData {
        let per = self.tokens * self.features;
        let mut inputs = Vec::with_capacity(indices.len() * per);
        let mut targets = Vec::with_capacity(indices.len() * self.outputs);
        for &i in indices {
            inputs.extend_from_slice(&self.inputs[i * per..(i + 1) * per]);
            targets.extend_from_slice(&self.targets[i * self.outputs..(i + 1) * self.outputs]);
        }
        TensorData::new(inputs, targets, self.tokens, self.features, self.outputs)
    }

    /// Iterates over shuffled batches of up to `batch` samples.
    pub fn batches(&self, batch: usize, rng: &mut StdRng) -> Vec<Batch> {
        let mut order: Vec<usize> = (0..self.n).collect();
        order.shuffle(rng);
        order
            .chunks(batch.max(1))
            .map(|chunk| self.batch_of(chunk))
            .collect()
    }

    /// Builds one batch from explicit sample indices.
    pub fn batch_of(&self, indices: &[usize]) -> Batch {
        let d = self.gather(indices);
        Batch {
            shape: BatchShape {
                batch: d.n,
                tokens: d.tokens,
                features: d.features,
                outputs: d.outputs,
            },
            inputs: d.inputs,
            targets: d.targets,
        }
    }

    /// The whole dataset as a single batch.
    pub fn full_batch(&self) -> Batch {
        self.batch_of(&(0..self.n).collect::<Vec<_>>())
    }
}

/// Z-score statistics fitted on one dataset, applicable to another (the
/// train-fit / val-apply discipline).
#[derive(Clone, Debug)]
pub struct Standardizer {
    /// Per-feature means.
    pub in_mean: Vec<f32>,
    /// Per-feature standard deviations (floored at 1e-9).
    pub in_std: Vec<f32>,
    /// Per-output means.
    pub out_mean: Vec<f32>,
    /// Per-output standard deviations.
    pub out_std: Vec<f32>,
}

impl Standardizer {
    /// Applies the transform in place.
    ///
    /// # Panics
    /// Panics if the data's shape disagrees with the fitted statistics.
    pub fn apply(&self, data: &mut TensorData) {
        assert_eq!(data.features, self.in_mean.len(), "feature count mismatch");
        assert_eq!(data.outputs, self.out_mean.len(), "output count mismatch");
        for chunk in data.inputs.chunks_exact_mut(self.in_mean.len()) {
            for (v, (m, s)) in chunk.iter_mut().zip(self.in_mean.iter().zip(&self.in_std)) {
                *v = (*v - m) / s;
            }
        }
        for chunk in data.targets.chunks_exact_mut(self.out_mean.len()) {
            for (v, (m, s)) in chunk
                .iter_mut()
                .zip(self.out_mean.iter().zip(&self.out_std))
            {
                *v = (*v - m) / s;
            }
        }
    }
}

/// Builds the **sample-single** drag-prediction dataset (paper Fig. 6):
/// for each time window of length `window`, the input tokens are the
/// per-timestep feature vectors of `points_per_step` sampled points
/// (truncated/cycled to a fixed count so every window has equal width), and
/// the target is the drag at the window's last step.
///
/// # Panics
/// Panics if fewer snapshots than `window` or empty sample sets.
pub fn drag_windows(
    sets: &[SampleSet],
    drag: &[f64],
    window: usize,
    points_per_step: usize,
) -> TensorData {
    assert_eq!(
        sets.len(),
        drag.len(),
        "one sample set per snapshot required"
    );
    assert!(
        sets.len() >= window && window > 0,
        "not enough snapshots for window {window}"
    );
    let d = sets[0].features.dim();
    let feat_per_step = points_per_step * d;
    let mut inputs = Vec::new();
    let mut targets = Vec::new();
    for end in (window - 1)..sets.len() {
        for t in 0..window {
            let set = &sets[end + 1 - window + t];
            assert!(
                !set.is_empty(),
                "empty sample set at snapshot {}",
                end + 1 - window + t
            );
            for p in 0..points_per_step {
                let row = set.features.row(p % set.len());
                inputs.extend(row.iter().map(|&v| v as f32));
            }
        }
        targets.push(drag[end] as f32);
    }
    TensorData::new(inputs, targets, window, feat_per_step, 1)
}

/// Builds the **sample-full** reconstruction dataset (paper's
/// MLP-Transformer): each sample is one hypercube; input tokens are `tokens`
/// rows drawn with an even stride across the sampled set (so
/// selection-order-biased samplers like MaxEnt, which emit cluster-major,
/// contribute a representative spread), and the target is the dense
/// `target_var` over the whole cube.
pub fn reconstruction_data(
    sets: &[SampleSet],
    snapshots: &[Snapshot],
    tiling_edge: usize,
    target_var: &str,
    tokens: usize,
) -> TensorData {
    use sickle_field::Tiling;
    assert!(!sets.is_empty(), "no sample sets");
    let d = sets[0].features.dim();
    let mut inputs = Vec::new();
    let mut targets = Vec::new();
    let mut out_dim = 0;
    for set in sets {
        let snap = &snapshots[set.snapshot_index];
        let tiling = Tiling::cubic(snap.grid, tiling_edge);
        let cube = tiling.tile(set.hypercube.expect("sample set must carry hypercube id"));
        let dense = snap.expect_var(target_var);
        let cube_idx = cube.point_indices(&snap.grid);
        out_dim = cube_idx.len();
        assert!(!set.is_empty(), "empty sample set for cube {}", cube.id);
        for t in 0..tokens {
            let row = set
                .features
                .row((t * set.len() / tokens.max(1)) % set.len());
            inputs.extend(row.iter().map(|&v| v as f32));
        }
        targets.extend(cube_idx.iter().map(|&i| dense[i] as f32));
    }
    TensorData::new(inputs, targets, tokens, d, out_dim)
}

/// Builds the **full-full** dataset (paper's CNN-Transformer): each sample
/// is a dense hypercube of `input_vars`, patchified into `patch³` blocks
/// (Conv3D-equivalent tokens); the target is the dense `target_var` cube.
///
/// # Panics
/// Panics if `patch` does not divide the cube edge.
pub fn dense_cube_data(
    sets: &[SampleSet],
    snapshots: &[Snapshot],
    tiling_edge: usize,
    input_vars: &[String],
    target_var: &str,
    patch: usize,
) -> TensorData {
    use sickle_field::Tiling;
    assert!(!sets.is_empty(), "no sample sets");
    assert_eq!(
        tiling_edge % patch,
        0,
        "patch {patch} must divide cube edge {tiling_edge}"
    );
    let mut inputs = Vec::new();
    let mut targets = Vec::new();
    let mut tokens = 0;
    let mut feat = 0;
    let mut out_dim = 0;
    for set in sets {
        let snap = &snapshots[set.snapshot_index];
        let tiling = Tiling::cubic(snap.grid, tiling_edge);
        let cube = tiling.tile(set.hypercube.expect("sample set must carry hypercube id"));
        let cube_idx = cube.point_indices(&snap.grid);
        out_dim = cube_idx.len();
        let dense_in: Vec<&[f64]> = input_vars
            .iter()
            .map(|v| snap.expect_var(v.as_str()))
            .collect();
        let dense_out = snap.expect_var(target_var);
        // Patchify: cube edge e -> (e/patch)^3 patches of patch^3 points.
        let e = cube.edges.0;
        let ez = cube.edges.2;
        let pz = if ez == 1 { 1 } else { patch };
        let pc = (e / patch, e / patch, if ez == 1 { 1 } else { ez / patch });
        tokens = pc.0 * pc.1 * pc.2;
        feat = patch * patch * pz * input_vars.len();
        for px in 0..pc.0 {
            for py in 0..pc.1 {
                for pzz in 0..pc.2 {
                    for var in &dense_in {
                        for dx in 0..patch {
                            for dy in 0..patch {
                                for dz in 0..pz {
                                    let (x0, y0, z0) = cube.origin;
                                    let gi = snap.grid.idx(
                                        x0 + px * patch + dx,
                                        y0 + py * patch + dy,
                                        z0 + pzz * pz + dz,
                                    );
                                    inputs.push(var[gi] as f32);
                                }
                            }
                        }
                    }
                }
            }
        }
        targets.extend(cube_idx.iter().map(|&i| dense_out[i] as f32));
    }
    TensorData::new(inputs, targets, tokens, feat, out_dim)
}

/// A training dataset streamed from one `sickle-serve` endpoint instead of
/// held in memory.
///
/// Batches come back **bit-identical** to what [`TensorData::batches`]
/// would produce from the same sample sets and seed: the server runs the
/// same shuffle (`StdRng::seed_from_u64(seed)` over `0..n`), the same
/// chunking, and the same per-set tensorization, and `f32` values cross
/// the wire losslessly. Transient connection failures (including injected
/// `drop@conn:request` faults) are retried by the underlying
/// [`StoreClient`](sickle_store::StoreClient); since every batch fetch is a
/// pure read, retries cannot duplicate or lose samples.
pub struct RemoteDataset {
    client: sickle_store::StoreClient,
    /// Samples (shards) available on the server.
    pub n: usize,
    /// Tokens per sample requested from the server.
    pub tokens: usize,
    /// Features per token (from the server's manifest).
    pub features: usize,
    /// Fingerprint of the sampling configuration that produced the store.
    pub config_hash: String,
}

impl RemoteDataset {
    /// Connects to a serve endpoint and reads its manifest.
    ///
    /// # Errors
    /// Transport errors, or `InvalidData` for an empty store.
    pub fn connect(
        addr: impl Into<String>,
        tokens: usize,
        cfg: sickle_store::ClientConfig,
    ) -> std::io::Result<RemoteDataset> {
        let mut client = sickle_store::StoreClient::new(addr, cfg);
        let manifest = client.manifest()?;
        if manifest.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "remote store is empty",
            ));
        }
        Ok(RemoteDataset {
            client,
            n: manifest.len(),
            tokens,
            features: manifest.feature_names.len(),
            config_hash: manifest.config_hash,
        })
    }

    /// Number of batches one epoch yields at `batch_size`.
    pub fn num_batches(&self, batch_size: usize) -> usize {
        sickle_store::batching::num_batches(self.n, batch_size)
    }

    /// Fetches batch `index` of the epoch seeded by `seed`.
    ///
    /// # Errors
    /// `NotFound` past the last batch; transport errors after retries.
    pub fn batch(&mut self, seed: u64, batch_size: usize, index: usize) -> std::io::Result<Batch> {
        let _span = sickle_obs::span!("train.remote.batch", index = index, batch_size = batch_size);
        let spec = sickle_store::BatchSpec {
            seed,
            batch_size,
            tokens: self.tokens,
        };
        self.client.batch(spec, index)
    }

    /// Streams one full epoch, in epoch order — the drop-in replacement
    /// for `TensorData::batches(batch_size, StdRng::seed_from_u64(seed))`.
    ///
    /// # Errors
    /// Propagates the first failed fetch.
    pub fn epoch(&mut self, seed: u64, batch_size: usize) -> std::io::Result<Vec<Batch>> {
        let _span = sickle_obs::span!("train.remote.epoch", batch_size = batch_size);
        (0..self.num_batches(batch_size))
            .map(|i| self.batch(seed, batch_size, i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sickle_field::{FeatureMatrix, Grid3};

    fn tiny_set(snapshot_index: usize, n: usize, cube: usize) -> SampleSet {
        let features = FeatureMatrix::new(
            vec!["u".into(), "v".into()],
            (0..n * 2).map(|i| i as f64 * 0.1).collect(),
        );
        SampleSet::new(
            features,
            (0..n).collect(),
            snapshot_index as f64,
            snapshot_index,
        )
        .with_hypercube(cube)
    }

    #[test]
    fn tensor_data_shapes() {
        let d = TensorData::new(vec![0.0; 24], vec![0.0; 4], 3, 2, 1);
        assert_eq!(d.n, 4);
        let (train, test) = d.split(0.25, 1);
        assert_eq!(test.n, 1);
        assert_eq!(train.n, 3);
    }

    #[test]
    fn standardize_zero_mean_unit_var() {
        let mut d = TensorData::new(
            vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0],
            vec![100.0, 200.0, 300.0, 400.0],
            1,
            2,
            1,
        );
        let (tmean, tstd) = d.standardize();
        // Feature 0 mean over samples: 2.5 -> standardized sums to 0.
        let f0: f32 = d.inputs.iter().step_by(2).sum();
        assert!(f0.abs() < 1e-5);
        assert!((tmean[0] - 250.0).abs() < 1e-3);
        assert!(tstd[0] > 0.0);
        let tsum: f32 = d.targets.iter().sum();
        assert!(tsum.abs() < 1e-4);
    }

    #[test]
    fn batches_cover_all_samples() {
        let d = TensorData::new((0..40).map(|i| i as f32).collect(), vec![0.0; 10], 2, 2, 1);
        let mut rng = StdRng::seed_from_u64(0);
        let batches = d.batches(3, &mut rng);
        let total: usize = batches.iter().map(|b| b.shape.batch).sum();
        assert_eq!(total, 10);
        assert_eq!(batches[0].shape.tokens, 2);
        assert_eq!(batches[0].shape.features, 2);
    }

    #[test]
    fn drag_windows_shapes() {
        let sets: Vec<SampleSet> = (0..5).map(|s| tiny_set(s, 10, 0)).collect();
        let drag = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let d = drag_windows(&sets, &drag, 3, 4);
        // Windows ending at snapshots 2,3,4 -> 3 samples.
        assert_eq!(d.n, 3);
        assert_eq!(d.tokens, 3);
        assert_eq!(d.features, 4 * 2);
        assert_eq!(d.targets, vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn drag_windows_cycles_small_sets() {
        let sets: Vec<SampleSet> = (0..2).map(|s| tiny_set(s, 2, 0)).collect();
        let d = drag_windows(&sets, &[0.5, 1.5], 1, 5);
        assert_eq!(d.n, 2);
        // 5 points cycled from 2 available.
        assert_eq!(d.features, 10);
    }

    #[test]
    fn reconstruction_data_targets_are_dense_cube() {
        let grid = Grid3::new(8, 8, 8, 1.0, 1.0, 1.0);
        let snap = Snapshot::new(grid, 0.0).with_var("p", (0..512).map(|i| i as f64).collect());
        let set = tiny_set(0, 20, 0);
        let d = reconstruction_data(&[set], &[snap], 4, "p", 16);
        assert_eq!(d.n, 1);
        assert_eq!(d.tokens, 16);
        assert_eq!(d.outputs, 64); // 4^3 dense target
    }

    #[test]
    fn dense_cube_data_patchifies() {
        let grid = Grid3::new(8, 8, 8, 1.0, 1.0, 1.0);
        let snap = Snapshot::new(grid, 0.0)
            .with_var("u", (0..512).map(|i| i as f64 * 0.1).collect())
            .with_var("p", (0..512).map(|i| i as f64).collect());
        let set = tiny_set(0, 4, 0);
        let d = dense_cube_data(&[set], &[snap], 4, &["u".to_string()], "p", 2);
        assert_eq!(d.n, 1);
        assert_eq!(d.tokens, 8); // (4/2)^3
        assert_eq!(d.features, 8); // 2^3 * 1 var
        assert_eq!(d.outputs, 64);
        // All input values must come from the cube (first 4^3 block).
        assert!(d.inputs.iter().all(|&v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "not enough snapshots")]
    fn drag_windows_rejects_short_series() {
        let sets: Vec<SampleSet> = (0..2).map(|s| tiny_set(s, 4, 0)).collect();
        let _ = drag_windows(&sets, &[1.0, 2.0], 5, 2);
    }
}
