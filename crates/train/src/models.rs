//! The paper's model zoo (Table 2), implemented over `sickle-nn`.
//!
//! | Paper architecture | Here | Learning problem |
//! |---|---|---|
//! | LSTM (2 LSTM + 3 dense) | [`LstmModel`] | sample-single (drag) |
//! | MLP-Transformer (MLP enc → Transformer → decoder) | [`TokenTransformer`] with pooled decode | sample-full |
//! | CNN-Transformer (Conv3D enc → Transformer → Conv3D dec) | [`TokenTransformer`] with per-token decode over patch tokens (strided-conv ≡ patch embedding) | full-full |
//! | MATEY (multiscale adaptive) | [`MateyMini`]: variance-gated token pruning over patch tokens | foundation-model study (Fig. 9) |

use rand::rngs::StdRng;
use rand::SeedableRng;
use sickle_nn::layers::{Linear, Lstm, Mlp, TransformerBlock};
use sickle_nn::{ParamStore, Tape, Var};

use crate::data::Batch;

/// A trainable model: builds its forward graph on a tape per batch.
pub trait Model: Send {
    /// Model name for logs/tables.
    fn name(&self) -> &'static str;

    /// Builds the forward pass for a batch, returning predictions
    /// `(batch, outputs)`.
    fn forward_batch(&self, tape: &mut Tape, batch: &Batch) -> Var;

    /// Parameter store (immutable).
    fn store(&self) -> &ParamStore;

    /// Parameter store (mutable, for the optimizer and gradient accumulation).
    fn store_mut(&mut self) -> &mut ParamStore;

    /// Builds forward + MSE loss.
    fn loss_on_batch(&self, tape: &mut Tape, batch: &Batch) -> Var {
        let pred = self.forward_batch(tape, batch);
        tape.mse_loss(pred, &batch.targets)
    }

    /// Evaluation loss without recording gradients to the store.
    fn eval_loss(&self, batch: &Batch) -> f32 {
        let mut tape = Tape::new();
        let loss = self.loss_on_batch(&mut tape, batch);
        tape.value(loss)[0]
    }

    /// Evaluation loss on a caller-provided tape, reusing its arena (the
    /// steady-state variant of [`eval_loss`](Self::eval_loss)).
    fn eval_loss_with(&self, tape: &mut Tape, batch: &Batch) -> f32 {
        tape.reset();
        let loss = self.loss_on_batch(tape, batch);
        tape.value(loss)[0]
    }

    /// Runs inference and returns predictions.
    fn predict(&self, batch: &Batch) -> Vec<f32> {
        let mut tape = Tape::new();
        let pred = self.forward_batch(&mut tape, batch);
        tape.value(pred).to_vec()
    }

    /// Scalar parameter count (Eq. 3's `p`).
    fn num_params(&self) -> usize {
        self.store().num_scalars()
    }
}

/// Gathers timestep `t`'s feature matrix `(batch, features)` from a
/// `[sample][token][feature]` batch buffer.
fn timestep_leaf(tape: &mut Tape, batch: &Batch, t: usize) -> Var {
    let s = batch.shape;
    tape.leaf_with((s.batch, s.features), |buf| {
        for b in 0..s.batch {
            let off = (b * s.tokens + t) * s.features;
            buf[b * s.features..(b + 1) * s.features]
                .copy_from_slice(&batch.inputs[off..off + s.features]);
        }
    })
}

/// Extracts sample `b`'s token matrix `(tokens, features)`.
fn sample_tokens_leaf(tape: &mut Tape, batch: &Batch, b: usize) -> Var {
    let s = batch.shape;
    let off = b * s.tokens * s.features;
    tape.leaf_copy(
        &batch.inputs[off..off + s.tokens * s.features],
        (s.tokens, s.features),
    )
}

/// The paper's LSTM regressor: two stacked LSTM layers and a three-layer
/// dense head mapping the final hidden state to the global target.
#[derive(Clone, Debug)]
pub struct LstmModel {
    store: ParamStore,
    lstm1: Lstm,
    lstm2: Lstm,
    head: Mlp,
}

impl LstmModel {
    /// Builds the model for `features`-wide timesteps and `outputs` targets.
    pub fn new(features: usize, hidden: usize, outputs: usize, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let lstm1 = Lstm::new(&mut store, features, hidden, &mut rng);
        let lstm2 = Lstm::new(&mut store, hidden, hidden, &mut rng);
        let head = Mlp::new(&mut store, &[hidden, hidden, hidden / 2, outputs], &mut rng);
        LstmModel {
            store,
            lstm1,
            lstm2,
            head,
        }
    }
}

impl Model for LstmModel {
    fn name(&self) -> &'static str {
        "LSTM"
    }

    fn forward_batch(&self, tape: &mut Tape, batch: &Batch) -> Var {
        let xs: Vec<Var> = (0..batch.shape.tokens)
            .map(|t| timestep_leaf(tape, batch, t))
            .collect();
        let h1 = self.lstm1.forward_seq(tape, &self.store, &xs);
        let h2 = self.lstm2.forward_seq(tape, &self.store, &h1);
        let last = *h2.last().expect("non-empty sequence");
        self.head.forward(tape, &self.store, last)
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

/// How the transformer output is reduced to predictions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeMode {
    /// Mean-pool tokens, then one linear decode — the MLP-Transformer's
    /// dense-field head (sample-full).
    Pooled,
    /// Decode each token to its own output slice and flatten — the
    /// CNN-Transformer's patch decoder (full-full).
    PerToken,
}

/// MLP/CNN-Transformer: per-token encoder, learned positional embedding,
/// transformer blocks, linear decoder.
#[derive(Clone, Debug)]
pub struct TokenTransformer {
    store: ParamStore,
    embed: Mlp,
    pos: sickle_nn::ParamId,
    blocks: Vec<TransformerBlock>,
    decode: Linear,
    mode: DecodeMode,
    tokens: usize,
    outputs: usize,
    name: &'static str,
}

impl TokenTransformer {
    /// The paper's **MLP-Transformer** (sample-full): unstructured point
    /// tokens → pooled decode to the dense target of width `outputs`.
    pub fn mlp_transformer(
        tokens: usize,
        features: usize,
        dim: usize,
        depth: usize,
        outputs: usize,
        seed: u64,
    ) -> Self {
        Self::build(
            tokens,
            features,
            dim,
            depth,
            outputs,
            DecodeMode::Pooled,
            "MLP-Transformer",
            seed,
        )
    }

    /// The paper's **CNN-Transformer** (full-full): patch tokens (Conv3D ≡
    /// strided patch embedding) → per-token decode; `outputs` must equal
    /// `tokens * out_per_token`.
    pub fn cnn_transformer(
        tokens: usize,
        features: usize,
        dim: usize,
        depth: usize,
        outputs: usize,
        seed: u64,
    ) -> Self {
        assert_eq!(
            outputs % tokens,
            0,
            "outputs {outputs} not divisible by tokens {tokens}"
        );
        Self::build(
            tokens,
            features,
            dim,
            depth,
            outputs,
            DecodeMode::PerToken,
            "CNN-Transformer",
            seed,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        tokens: usize,
        features: usize,
        dim: usize,
        depth: usize,
        outputs: usize,
        mode: DecodeMode,
        name: &'static str,
        seed: u64,
    ) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let embed = Mlp::new(&mut store, &[features, dim, dim], &mut rng);
        let pos = store.xavier((tokens, dim), &mut rng);
        let blocks = (0..depth)
            .map(|_| TransformerBlock::new(&mut store, dim, &mut rng))
            .collect();
        let decode_out = match mode {
            DecodeMode::Pooled => outputs,
            DecodeMode::PerToken => outputs / tokens,
        };
        let decode = Linear::new(&mut store, dim, decode_out, &mut rng);
        TokenTransformer {
            store,
            embed,
            pos,
            blocks,
            decode,
            mode,
            tokens,
            outputs,
            name,
        }
    }

    /// Forward for one sample's token matrix → `(1, outputs)`.
    fn forward_sample(&self, tape: &mut Tape, x: Var) -> Var {
        let mut h = self.embed.forward(tape, &self.store, x);
        let pos = tape.param(&self.store, self.pos);
        h = tape.add(h, pos);
        for b in &self.blocks {
            h = b.forward(tape, &self.store, h);
        }
        match self.mode {
            DecodeMode::Pooled => {
                let inv = 1.0 / self.tokens as f32;
                let ones = tape.leaf_with((1, self.tokens), |buf| buf.fill(inv));
                let pooled = tape.matmul(ones, h);
                self.decode.forward(tape, &self.store, pooled)
            }
            DecodeMode::PerToken => {
                // (tokens, out/token): the row-major flat layout *is* the
                // sample's output vector, and both the MSE loss and the
                // sample stacking below operate on flat buffers, so no
                // physical reshape is needed.
                self.decode.forward(tape, &self.store, h)
            }
        }
    }
}

impl Model for TokenTransformer {
    fn name(&self) -> &'static str {
        self.name
    }

    fn forward_batch(&self, tape: &mut Tape, batch: &Batch) -> Var {
        assert_eq!(batch.shape.tokens, self.tokens, "token count mismatch");
        // A sample's prediction is `(1, outputs)` (pooled) or
        // `(tokens, outputs/tokens)` (per-token); either way its flat buffer
        // is the sample's output vector, so the stacked flat buffer is
        // sample-major — exactly what `mse_loss` against `[sample][output]`
        // targets expects.
        let pred = tape.per_sample(batch.shape.batch, |tape, b| {
            let x = sample_tokens_leaf(tape, batch, b);
            self.forward_sample(tape, x)
        });
        debug_assert_eq!(tape.value(pred).len(), batch.shape.batch * self.outputs);
        pred
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

/// MATEY-mini: a two-scale *adaptive* patch transformer. Every patch token
/// is embedded; the highest-variance fraction of tokens (`keep_frac`) runs
/// through the transformer stack (attention focuses compute on dynamically
/// active regions — the adaptive-tokenization idea of MATEY), while
/// low-variance tokens bypass it; all tokens are decoded per-token.
#[derive(Clone, Debug)]
pub struct MateyMini {
    store: ParamStore,
    embed: Mlp,
    pos: sickle_nn::ParamId,
    blocks: Vec<TransformerBlock>,
    decode: Linear,
    tokens: usize,
    outputs: usize,
    /// Fraction of tokens given full attention.
    pub keep_frac: f64,
}

impl MateyMini {
    /// Builds the model over patch tokens.
    pub fn new(
        tokens: usize,
        features: usize,
        dim: usize,
        depth: usize,
        outputs: usize,
        keep_frac: f64,
        seed: u64,
    ) -> Self {
        assert_eq!(
            outputs % tokens,
            0,
            "outputs {outputs} not divisible by tokens {tokens}"
        );
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let embed = Mlp::new(&mut store, &[features, dim, dim], &mut rng);
        let pos = store.xavier((tokens, dim), &mut rng);
        let blocks = (0..depth)
            .map(|_| TransformerBlock::new(&mut store, dim, &mut rng))
            .collect();
        let decode = Linear::new(&mut store, dim, outputs / tokens, &mut rng);
        MateyMini {
            store,
            embed,
            pos,
            blocks,
            decode,
            tokens,
            outputs,
            keep_frac,
        }
    }

    /// Indices of the highest-variance tokens for one sample.
    fn active_tokens(&self, batch: &Batch, b: usize) -> Vec<usize> {
        let s = batch.shape;
        let keep = ((s.tokens as f64 * self.keep_frac).ceil() as usize).clamp(1, s.tokens);
        let var: Vec<f64> = (0..s.tokens)
            .map(|t| {
                let off = (b * s.tokens + t) * s.features;
                let row = &batch.inputs[off..off + s.features];
                let mean = row.iter().map(|&v| v as f64).sum::<f64>() / s.features as f64;
                row.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / s.features as f64
            })
            .collect();
        // A stable sort of the token indices by falling variance: ties keep
        // token order.
        let mut idx: Vec<usize> = (0..s.tokens).collect();
        idx.sort_by(|&a, &b| {
            var[b]
                .partial_cmp(&var[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        idx.truncate(keep);
        idx.sort_unstable();
        idx
    }
}

impl Model for MateyMini {
    fn name(&self) -> &'static str {
        "MATEY-mini"
    }

    fn forward_batch(&self, tape: &mut Tape, batch: &Batch) -> Var {
        assert_eq!(batch.shape.tokens, self.tokens, "token count mismatch");
        let pred = tape.per_sample(batch.shape.batch, |tape, b| {
            let x = sample_tokens_leaf(tape, batch, b);
            let mut h = self.embed.forward(tape, &self.store, x);
            let pos = tape.param(&self.store, self.pos);
            h = tape.add(h, pos);
            // Adaptive split: active tokens get attention, passive ones
            // bypass. Gather via row concat of single-row slices is
            // expensive; instead run attention over the *contiguous*
            // active block when possible, else over all tokens.
            let active = self.active_tokens(batch, b);
            let mut ha = h;
            if active.len() == self.tokens {
                for blk in &self.blocks {
                    ha = blk.forward(tape, &self.store, ha);
                }
            } else {
                // Build the active sub-matrix by stacking row slices.
                let rows: Vec<Var> = active.iter().map(|&t| slice_row(tape, h, t)).collect();
                let mut sub = tape.concat_rows(&rows);
                for blk in &self.blocks {
                    sub = blk.forward(tape, &self.store, sub);
                }
                // Scatter refined rows back: passive rows keep h.
                let mut out_rows: Vec<Var> =
                    (0..self.tokens).map(|t| slice_row(tape, h, t)).collect();
                for (k, &t) in active.iter().enumerate() {
                    out_rows[t] = slice_row(tape, sub, k);
                }
                ha = tape.concat_rows(&out_rows);
            }
            self.decode.forward(tape, &self.store, ha)
        });
        debug_assert_eq!(tape.value(pred).len(), batch.shape.batch * self.outputs);
        pred
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

/// Extracts row `r` of `x (m, n)` as a `(1, n)` tensor. Implemented with the
/// existing ops: a one-hot row times the matrix (differentiable and exact).
fn slice_row(tape: &mut Tape, x: Var, r: usize) -> Var {
    let (m, _) = tape.shape(x);
    let sel = tape.leaf_with((1, m), |buf| buf[r] = 1.0);
    tape.matmul(sel, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{BatchShape, TensorData};
    use sickle_nn::optim::Adam;

    fn toy_batch(batch: usize, tokens: usize, features: usize, outputs: usize) -> Batch {
        let inputs: Vec<f32> = (0..batch * tokens * features)
            .map(|i| ((i * 37) % 19) as f32 * 0.05 - 0.4)
            .collect();
        let targets: Vec<f32> = (0..batch * outputs)
            .map(|i| ((i * 13) % 7) as f32 * 0.1)
            .collect();
        Batch {
            inputs,
            targets,
            shape: BatchShape {
                batch,
                tokens,
                features,
                outputs,
            },
        }
    }

    fn train_steps(model: &mut dyn Model, batch: &Batch, steps: usize, lr: f32) -> (f32, f32) {
        let mut opt = Adam::new(lr);
        let mut first = 0.0;
        let mut last = 0.0;
        for i in 0..steps {
            let mut tape = Tape::new();
            let loss = model.loss_on_batch(&mut tape, batch);
            let lv = tape.value(loss)[0];
            assert!(lv.is_finite(), "loss diverged at step {i}");
            if i == 0 {
                first = lv;
            }
            last = lv;
            tape.backward(loss);
            tape.accumulate_grads(model.store_mut());
            opt.step(model.store_mut());
            model.store_mut().zero_grads();
        }
        (first, last)
    }

    #[test]
    fn lstm_model_shapes_and_training() {
        let _serial = crate::flops_serial();
        let batch = toy_batch(4, 3, 6, 1);
        let mut model = LstmModel::new(6, 16, 1, 0);
        let mut tape = Tape::new();
        let pred = model.forward_batch(&mut tape, &batch);
        assert_eq!(tape.shape(pred), (4, 1));
        let (first, last) = train_steps(&mut model, &batch, 150, 0.01);
        assert!(last < 0.5 * first, "LSTM {first} -> {last}");
    }

    #[test]
    fn mlp_transformer_reconstructs() {
        let _serial = crate::flops_serial();
        let batch = toy_batch(3, 8, 4, 27);
        let mut model = TokenTransformer::mlp_transformer(8, 4, 16, 1, 27, 0);
        let mut tape = Tape::new();
        let pred = model.forward_batch(&mut tape, &batch);
        assert_eq!(tape.shape(pred).0 * tape.shape(pred).1, 3 * 27);
        let (first, last) = train_steps(&mut model, &batch, 120, 0.01);
        assert!(last < 0.5 * first, "MLP-T {first} -> {last}");
    }

    #[test]
    fn cnn_transformer_per_token_decode() {
        let _serial = crate::flops_serial();
        // tokens=8 patches, each decoding 8 outputs -> 64 total.
        let batch = toy_batch(2, 8, 8, 64);
        let mut model = TokenTransformer::cnn_transformer(8, 8, 16, 1, 64, 0);
        let mut tape = Tape::new();
        let pred = model.forward_batch(&mut tape, &batch);
        assert_eq!(tape.shape(pred).0 * tape.shape(pred).1, 2 * 64);
        let (first, last) = train_steps(&mut model, &batch, 120, 0.01);
        assert!(last < 0.6 * first, "CNN-T {first} -> {last}");
    }

    #[test]
    fn matey_mini_trains_with_pruning() {
        let _serial = crate::flops_serial();
        let batch = toy_batch(2, 8, 8, 64);
        let mut model = MateyMini::new(8, 8, 16, 1, 64, 0.5, 0);
        let mut tape = Tape::new();
        let pred = model.forward_batch(&mut tape, &batch);
        assert_eq!(tape.shape(pred).0 * tape.shape(pred).1, 2 * 64);
        let (first, last) = train_steps(&mut model, &batch, 120, 0.01);
        assert!(last < 0.7 * first, "MATEY {first} -> {last}");
    }

    #[test]
    fn matey_active_tokens_prefers_high_variance() {
        let mut batch = toy_batch(1, 4, 4, 16);
        // Token 2 gets huge variance.
        for f in 0..4 {
            batch.inputs[2 * 4 + f] = if f % 2 == 0 { 10.0 } else { -10.0 };
        }
        let model = MateyMini::new(4, 4, 8, 1, 16, 0.25, 0);
        let active = model.active_tokens(&batch, 0);
        assert_eq!(active, vec![2]);
    }

    #[test]
    fn eval_loss_matches_manual() {
        let _serial = crate::flops_serial();
        let batch = toy_batch(2, 3, 4, 1);
        let model = LstmModel::new(4, 8, 1, 1);
        let e1 = model.eval_loss(&batch);
        let e2 = model.eval_loss(&batch);
        assert_eq!(e1, e2, "eval must be deterministic");
        let preds = model.predict(&batch);
        let manual: f32 = preds
            .iter()
            .zip(&batch.targets)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f32>()
            / preds.len() as f32;
        assert!((manual - e1).abs() < 1e-6);
    }

    #[test]
    fn param_counts_are_substantial() {
        let m = TokenTransformer::mlp_transformer(16, 4, 32, 2, 64, 0);
        assert!(m.num_params() > 10_000, "params {}", m.num_params());
        let l = LstmModel::new(8, 32, 1, 0);
        assert!(l.num_params() > 5_000);
    }

    #[test]
    fn models_work_through_tensor_data_batches() {
        let _serial = crate::flops_serial();
        let d = TensorData::new(
            (0..5 * 3 * 4).map(|i| i as f32 * 0.01).collect(),
            (0..5).map(|i| i as f32 * 0.1).collect(),
            3,
            4,
            1,
        );
        let model = LstmModel::new(4, 8, 1, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        for b in d.batches(2, &mut rng) {
            let loss = model.eval_loss(&b);
            assert!(loss.is_finite());
        }
    }
}
