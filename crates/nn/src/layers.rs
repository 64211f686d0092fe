//! Neural-network layers built over the tape: Linear, LSTM, single-head
//! self-attention, and a pre-norm Transformer encoder block — the building
//! blocks of the paper's three architectures (Table 2).

use rand::rngs::StdRng;

use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};

/// Fully connected layer `y = x·W + b`.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weight `(in, out)`.
    pub w: ParamId,
    /// Bias `(1, out)`.
    pub b: ParamId,
    /// Input features.
    pub in_dim: usize,
    /// Output features.
    pub out_dim: usize,
}

impl Linear {
    /// Allocates a Xavier-initialized linear layer.
    pub fn new(store: &mut ParamStore, in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        Linear {
            w: store.xavier((in_dim, out_dim), rng),
            b: store.zeros((1, out_dim)),
            in_dim,
            out_dim,
        }
    }

    /// Applies the layer to `x (batch, in)` → `(batch, out)`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        let y = tape.matmul(x, w);
        tape.add_row(y, b)
    }
}

/// A single LSTM layer processing a sequence of `(batch, in)` matrices.
///
/// Gate layout follows the standard packed form: one `(in, 4·hidden)` input
/// projection and one `(hidden, 4·hidden)` recurrent projection, sliced into
/// input/forget/cell/output gates.
#[derive(Clone, Debug)]
pub struct Lstm {
    wx: ParamId,
    wh: ParamId,
    b: ParamId,
    /// Input features.
    pub in_dim: usize,
    /// Hidden size.
    pub hidden: usize,
}

impl Lstm {
    /// Allocates an LSTM layer (forget-gate bias initialized to 1, the
    /// standard trick for gradient flow at initialization).
    pub fn new(store: &mut ParamStore, in_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        let wx = store.xavier((in_dim, 4 * hidden), rng);
        let wh = store.xavier((hidden, 4 * hidden), rng);
        let mut bias = vec![0.0f32; 4 * hidden];
        for bf in bias.iter_mut().skip(hidden).take(hidden) {
            *bf = 1.0;
        }
        let b = store.alloc(bias, (1, 4 * hidden));
        Lstm {
            wx,
            wh,
            b,
            in_dim,
            hidden,
        }
    }

    /// Runs the sequence, returning hidden states per timestep (each
    /// `(batch, hidden)`).
    ///
    /// # Panics
    /// Panics on an empty sequence.
    pub fn forward_seq(&self, tape: &mut Tape, store: &ParamStore, xs: &[Var]) -> Vec<Var> {
        assert!(!xs.is_empty(), "LSTM needs at least one timestep");
        let batch = tape.shape(xs[0]).0;
        let h0 = tape.zeros((batch, self.hidden));
        let c0 = tape.zeros((batch, self.hidden));
        let wx = tape.param(store, self.wx);
        let wh = tape.param(store, self.wh);
        let b = tape.param(store, self.b);
        let mut h = h0;
        let mut c = c0;
        let mut out = Vec::with_capacity(xs.len());
        for &x in xs {
            let zx = tape.matmul(x, wx);
            let zh = tape.matmul(h, wh);
            let z = tape.add(zx, zh);
            let z = tape.add_row(z, b);
            let hs = self.hidden;
            let i_gate = {
                let s = tape.slice_cols(z, 0, hs);
                tape.sigmoid(s)
            };
            let f_gate = {
                let s = tape.slice_cols(z, hs, hs);
                tape.sigmoid(s)
            };
            let g_cell = {
                let s = tape.slice_cols(z, 2 * hs, hs);
                tape.tanh(s)
            };
            let o_gate = {
                let s = tape.slice_cols(z, 3 * hs, hs);
                tape.sigmoid(s)
            };
            let fc = tape.mul(f_gate, c);
            let ig = tape.mul(i_gate, g_cell);
            c = tape.add(fc, ig);
            let ct = tape.tanh(c);
            h = tape.mul(o_gate, ct);
            out.push(h);
        }
        out
    }

    /// Convenience: the final hidden state only.
    pub fn forward_last(&self, tape: &mut Tape, store: &ParamStore, xs: &[Var]) -> Var {
        *self
            .forward_seq(tape, store, xs)
            .last()
            .expect("non-empty sequence")
    }
}

/// Single-head scaled dot-product self-attention over one sequence
/// `(seq, dim)`.
#[derive(Clone, Debug)]
pub struct Attention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    /// Model dimension.
    pub dim: usize,
}

impl Attention {
    /// Allocates the four projections.
    pub fn new(store: &mut ParamStore, dim: usize, rng: &mut StdRng) -> Self {
        Attention {
            wq: Linear::new(store, dim, dim, rng),
            wk: Linear::new(store, dim, dim, rng),
            wv: Linear::new(store, dim, dim, rng),
            wo: Linear::new(store, dim, dim, rng),
            dim,
        }
    }

    /// Applies self-attention to `x (seq, dim)` → `(seq, dim)`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let q = self.wq.forward(tape, store, x);
        let k = self.wk.forward(tape, store, x);
        let v = self.wv.forward(tape, store, x);
        let scores = tape.matmul_nt(q, k);
        let scaled = tape.scale(scores, 1.0 / (self.dim as f32).sqrt());
        let attn = tape.softmax_rows(scaled);
        let ctx = tape.matmul(attn, v);
        self.wo.forward(tape, store, ctx)
    }
}

/// Pre-norm Transformer encoder block: `x + Attn(LN(x))`, then
/// `x + FF(LN(x))` with a GELU-free (tanh) two-layer feed-forward.
#[derive(Clone, Debug)]
pub struct TransformerBlock {
    attn: Attention,
    norm1_g: ParamId,
    norm1_b: ParamId,
    norm2_g: ParamId,
    norm2_b: ParamId,
    ff1: Linear,
    ff2: Linear,
    /// Model dimension.
    pub dim: usize,
}

impl TransformerBlock {
    /// Allocates one block with a feed-forward expansion factor of 2.
    pub fn new(store: &mut ParamStore, dim: usize, rng: &mut StdRng) -> Self {
        TransformerBlock {
            attn: Attention::new(store, dim, rng),
            norm1_g: store.alloc(vec![1.0; dim], (1, dim)),
            norm1_b: store.zeros((1, dim)),
            norm2_g: store.alloc(vec![1.0; dim], (1, dim)),
            norm2_b: store.zeros((1, dim)),
            ff1: Linear::new(store, dim, 2 * dim, rng),
            ff2: Linear::new(store, 2 * dim, dim, rng),
            dim,
        }
    }

    /// Applies the block to `x (seq, dim)`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let g1 = tape.param(store, self.norm1_g);
        let b1 = tape.param(store, self.norm1_b);
        let n1 = tape.layer_norm(x, g1, b1);
        let a = self.attn.forward(tape, store, n1);
        let x = tape.add(x, a);
        let g2 = tape.param(store, self.norm2_g);
        let b2 = tape.param(store, self.norm2_b);
        let n2 = tape.layer_norm(x, g2, b2);
        let h = self.ff1.forward(tape, store, n2);
        let h = tape.tanh(h);
        let h = self.ff2.forward(tape, store, h);
        tape.add(x, h)
    }
}

/// A plain multi-layer perceptron with tanh activations between layers.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[in, 64, 64, out]`.
    ///
    /// # Panics
    /// Panics with fewer than two widths.
    pub fn new(store: &mut ParamStore, widths: &[usize], rng: &mut StdRng) -> Self {
        assert!(
            widths.len() >= 2,
            "MLP needs at least input and output widths"
        );
        let layers = widths
            .windows(2)
            .map(|w| Linear::new(store, w[0], w[1], rng))
            .collect();
        Mlp { layers }
    }

    /// Forward pass; tanh between layers, linear output.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, mut x: Var) -> Var {
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(tape, store, x);
            if i + 1 < self.layers.len() {
                x = tape.tanh(x);
            }
        }
        x
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::SeedableRng;

    #[test]
    fn linear_learns_affine_map() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Linear::new(&mut store, 2, 1, &mut rng);
        let mut opt = Adam::new(0.05);
        let x_data = vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let y_data = [1.0f32, 3.0, 0.0, 2.0]; // y = 2*x0 - x1 + 1
        let mut last = f32::MAX;
        for _ in 0..300 {
            let mut tape = Tape::new();
            let x = tape.leaf(x_data.clone(), (4, 2));
            let y = layer.forward(&mut tape, &store, x);
            let loss = tape.mse_loss(y, &y_data);
            last = tape.value(loss)[0];
            tape.backward(loss);
            tape.accumulate_grads(&mut store);
            opt.step(&mut store);
            store.zero_grads();
        }
        assert!(last < 1e-3, "loss {last}");
    }

    #[test]
    fn lstm_learns_sequence_sum_sign() {
        // Predict the sum of a 3-step scalar sequence.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let lstm = Lstm::new(&mut store, 1, 8, &mut rng);
        let head = Linear::new(&mut store, 8, 1, &mut rng);
        let mut opt = Adam::new(0.02);
        let seqs: Vec<[f32; 3]> = vec![
            [0.1, 0.2, 0.3],
            [-0.5, 0.1, 0.1],
            [0.4, -0.2, 0.5],
            [-0.1, -0.3, -0.2],
        ];
        let targets: Vec<f32> = seqs.iter().map(|s| s.iter().sum()).collect();
        let mut last = f32::MAX;
        for _ in 0..400 {
            let mut tape = Tape::new();
            let xs: Vec<Var> = (0..3)
                .map(|t| {
                    let col: Vec<f32> = seqs.iter().map(|s| s[t]).collect();
                    tape.leaf(col, (4, 1))
                })
                .collect();
            let h = lstm.forward_last(&mut tape, &store, &xs);
            let y = head.forward(&mut tape, &store, h);
            let loss = tape.mse_loss(y, &targets);
            last = tape.value(loss)[0];
            tape.backward(loss);
            tape.accumulate_grads(&mut store);
            opt.step(&mut store);
            store.zero_grads();
        }
        assert!(last < 5e-3, "LSTM loss {last}");
    }

    #[test]
    fn lstm_hidden_states_have_correct_shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let lstm = Lstm::new(&mut store, 3, 5, &mut rng);
        let mut tape = Tape::new();
        let xs: Vec<Var> = (0..4).map(|_| tape.zeros((2, 3))).collect();
        let hs = lstm.forward_seq(&mut tape, &store, &xs);
        assert_eq!(hs.len(), 4);
        for h in hs {
            assert_eq!(tape.shape(h), (2, 5));
        }
    }

    #[test]
    fn attention_output_shape_and_grad_flow() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let attn = Attention::new(&mut store, 4, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf((0..20).map(|i| (i as f32 * 0.1).sin()).collect(), (5, 4));
        let y = attn.forward(&mut tape, &store, x);
        assert_eq!(tape.shape(y), (5, 4));
        let loss = tape.mse_loss(y, &[0.0; 20]);
        tape.backward(loss);
        tape.accumulate_grads(&mut store);
        let total_grad: f32 = store
            .iter()
            .map(|p| p.grad.iter().map(|g| g.abs()).sum::<f32>())
            .sum();
        assert!(total_grad > 0.0, "gradients must reach attention weights");
    }

    #[test]
    fn transformer_block_learns_identityish_task() {
        // Memorize a small mapping; mostly checks the full block trains
        // without NaN and the loss decreases.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let block = TransformerBlock::new(&mut store, 4, &mut rng);
        let head = Linear::new(&mut store, 4, 2, &mut rng);
        let mut opt = Adam::new(5e-3);
        let x_data: Vec<f32> = (0..16)
            .map(|i| ((i * 37) % 11) as f32 * 0.1 - 0.5)
            .collect();
        let y_data: Vec<f32> = (0..8).map(|i| ((i * 13) % 7) as f32 * 0.1).collect();
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..300 {
            let mut tape = Tape::new();
            let x = tape.leaf(x_data.clone(), (4, 4));
            let h = block.forward(&mut tape, &store, x);
            let y = head.forward(&mut tape, &store, h);
            let loss = tape.mse_loss(y, &y_data);
            let lv = tape.value(loss)[0];
            if it == 0 {
                first = lv;
            }
            last = lv;
            assert!(lv.is_finite(), "loss diverged at iter {it}");
            tape.backward(loss);
            tape.accumulate_grads(&mut store);
            opt.step(&mut store);
            store.zero_grads();
        }
        assert!(last < 0.3 * first, "transformer loss {first} -> {last}");
    }

    #[test]
    fn mlp_widths_and_param_count() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mlp = Mlp::new(&mut store, &[3, 8, 2], &mut rng);
        assert_eq!(mlp.out_dim(), 2);
        // params: 3*8 + 8 + 8*2 + 2 = 50
        assert_eq!(store.num_scalars(), 50);
        let mut tape = Tape::new();
        let x = tape.zeros((7, 3));
        let y = mlp.forward(&mut tape, &store, x);
        assert_eq!(tape.shape(y), (7, 2));
    }
}
