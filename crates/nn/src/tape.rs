//! The autograd tape: 2D `f32` tensors, forward ops, reverse-mode backward.
//!
//! All tensors are row-major matrices `(rows, cols)`; batched sequences are
//! expressed as one matrix per timestep (LSTM) or one per sample
//! (attention), which keeps every kernel a plain matrix op. Matmuls dispatch
//! to the cache-blocked kernels in [`crate::gemm`], `tanh`/`exp` to the
//! elementwise kernels in `sickle-simd`; every op records its FLOPs in
//! [`crate::flops`].
//!
//! ## Row reductions
//!
//! Every per-row reduction (softmax max, sum and backward dot; layer-norm
//! mean, variance and the two backward means) accumulates in [`LANES`] fixed
//! lanes — term `j` into lane `j % LANES` — combined in one fixed tree, not
//! in one serial chain whose every add waits on the last. The order is a
//! property of the row length alone, so results do not depend on the host,
//! the kernel switch or the thread count.
//!
//! ## Buffer arena
//!
//! The tape owns a length-keyed free-list of `Vec<f32>` buffers.
//! [`Tape::reset`] clears the graph and recycles every node's value and
//! gradient buffer (plus MSE target copies) into the free-list; subsequent
//! ops pop same-length buffers instead of allocating. Because a training
//! step replays the same graph shapes every batch, a tape reused via
//! `reset()` reaches a steady state where **no tensor-sized heap
//! allocation occurs** — enforced by `crates/train/tests/train_alloc.rs`.
//!
//! The arena contract: buffers handed out by the free-list contain stale
//! data, so every forward op fully overwrites its output, and `backward`
//! zeroes all gradients before seeding. [`Tape::leaf_with`] zero-fills
//! before invoking its initializer so sparse writes (one-hots, placement
//! matrices) stay correct.
//!
//! ## Child tapes
//!
//! [`Tape::per_sample`] builds each sample of a batch on a child tape of its
//! own, the children on the thread pool, and records their stacked outputs
//! as one node of the parent. [`Tape::backward`] hands every child its slice
//! of that node's gradient, runs the children's backward passes on the pool,
//! then adds each child's parameter gradients into the parent's leaves on
//! the calling thread, in sample order. Each child's arithmetic is fixed and
//! the merge order is too, so the result does not depend on the thread
//! count. The parent keeps its children across [`Tape::reset`], which keeps
//! their arenas warm.

use std::collections::HashMap;
use std::mem;

use rayon::prelude::*;

use crate::flops;
use crate::gemm;
use crate::params::{ParamId, ParamStore};

/// Handle to a tensor on the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug)]
enum Op {
    Leaf,
    MatMul {
        a: Var,
        b: Var,
    },
    /// `C = A · Bᵀ` where `B` is stored untransposed `(n, k)`.
    MatMulNT {
        a: Var,
        b: Var,
    },
    Add {
        a: Var,
        b: Var,
    },
    /// Adds a `(1, n)` row vector to every row of `a`.
    AddRow {
        a: Var,
        bias: Var,
    },
    Mul {
        a: Var,
        b: Var,
    },
    Scale {
        a: Var,
        c: f32,
    },
    Tanh {
        a: Var,
    },
    Sigmoid {
        a: Var,
    },
    SoftmaxRows {
        a: Var,
    },
    SliceCols {
        a: Var,
        start: usize,
    },
    ConcatRows {
        parts: Vec<Var>,
    },
    LayerNorm {
        a: Var,
        gamma: Var,
        beta: Var,
        /// Per-row `[mean, 1/σ]` as computed by the forward pass (`2·rows`
        /// floats from the arena), so backward recomputes neither.
        stats: Vec<f32>,
    },
    MeanAll {
        a: Var,
    },
    Mse {
        pred: Var,
        target: Vec<f32>,
    },
    /// The outputs of child tapes `first..first + outs.len()` stacked in
    /// order, child `b` contributing its node `outs[b]`.
    Children {
        first: usize,
        outs: Vec<Var>,
    },
}

struct Node {
    data: Vec<f32>,
    grad: Vec<f32>,
    shape: (usize, usize),
    op: Op,
}

/// A computation graph backed by a reusable buffer arena.
///
/// Create once, then [`reset`](Self::reset) between batches instead of
/// constructing a fresh tape — recycled buffers make steady-state steps
/// allocation-free.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// Length-keyed free-list of recycled buffers.
    free: HashMap<usize, Vec<Vec<f32>>>,
    /// The leaf each parameter is bound to on this tape, indexed by
    /// `ParamId` (see [`Tape::param`]); emptied by [`Tape::reset`].
    params: Vec<Option<Var>>,
    /// Per-sample child tapes (see [`Tape::per_sample`]), kept across
    /// [`Tape::reset`]; each is reset when it is next used.
    children: Vec<Tape>,
    /// How many of `children` the graph uses since the last reset.
    live_children: usize,
}

/// Returns a recycled buffer to the free-list.
fn recycle(free: &mut HashMap<usize, Vec<Vec<f32>>>, buf: Vec<f32>) {
    if buf.capacity() > 0 {
        free.entry(buf.len()).or_default().push(buf);
    }
}

/// Independent accumulators in every row reduction (one AVX2 register, two
/// SSE2 ones).
const LANES: usize = 8;

/// Folds one term per column of `rows` (equally long slices, read in step)
/// with `op`: the term of column `j` goes into lane `j % LANES`, and the
/// lanes are combined in a fixed tree. `identity` must be `op`'s.
#[inline(always)]
fn lane_reduce<const K: usize>(
    rows: [&[f32]; K],
    identity: f32,
    term: impl Fn([f32; K]) -> f32,
    op: impl Fn(f32, f32) -> f32,
) -> f32 {
    let n = rows[0].len();
    // One length check here lets the loop below run without any.
    let rows = rows.map(|r| &r[..n]);
    let mut acc = [identity; LANES];
    let mut j = 0;
    while j + LANES <= n {
        let block: [&[f32; LANES]; K] =
            rows.map(|r| r[j..j + LANES].try_into().expect("LANES-long slice"));
        for (l, a) in acc.iter_mut().enumerate() {
            *a = op(*a, term(block.map(|b| b[l])));
        }
        j += LANES;
    }
    for (l, a) in acc.iter_mut().enumerate().take(n - j) {
        *a = op(*a, term(rows.map(|r| r[j + l])));
    }
    op(
        op(op(acc[0], acc[4]), op(acc[2], acc[6])),
        op(op(acc[1], acc[5]), op(acc[3], acc[7])),
    )
}

/// `Σ_j term(column j)` in the fixed lane order of [`lane_reduce`].
#[inline(always)]
fn lane_sum<const K: usize>(rows: [&[f32]; K], term: impl Fn([f32; K]) -> f32) -> f32 {
    lane_reduce(rows, 0.0, term, |a, b| a + b)
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Clears the graph and recycles every buffer into the arena free-list.
    /// Child tapes are kept, arenas and all, for the next
    /// [`per_sample`](Self::per_sample).
    ///
    /// After a warm-up pass that populates the free-list, rebuilding a graph
    /// with the same tensor shapes performs no tensor-sized allocation.
    pub fn reset(&mut self) {
        let free = &mut self.free;
        for node in self.nodes.drain(..) {
            recycle(free, node.data);
            recycle(free, node.grad);
            match node.op {
                Op::Mse { target: buf, .. } | Op::LayerNorm { stats: buf, .. } => {
                    recycle(free, buf)
                }
                _ => {}
            }
        }
        self.params.fill(None);
        self.live_children = 0;
    }

    /// Pops a recycled buffer of exactly `len` elements, or allocates one.
    /// Contents are unspecified — callers must fully overwrite.
    fn take_buf(&mut self, len: usize) -> Vec<f32> {
        match self.free.get_mut(&len).and_then(|bufs| bufs.pop()) {
            Some(buf) => buf,
            None => vec![0.0; len],
        }
    }

    /// Like [`take_buf`](Self::take_buf) but zero-filled.
    fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_buf(len);
        buf.fill(0.0);
        buf
    }

    fn push(&mut self, data: Vec<f32>, shape: (usize, usize), op: Op) -> Var {
        debug_assert_eq!(data.len(), shape.0 * shape.1);
        // Gradient contents are stale until `backward` zeroes them.
        let grad = self.take_buf(data.len());
        self.nodes.push(Node {
            data,
            grad,
            shape,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// Creates a constant leaf tensor from an owned buffer (the buffer joins
    /// the arena on [`reset`](Self::reset); prefer
    /// [`leaf_copy`](Self::leaf_copy) or [`leaf_with`](Self::leaf_with) in
    /// steady-state loops).
    ///
    /// # Panics
    /// Panics if `data.len() != shape.0 * shape.1`.
    pub fn leaf(&mut self, data: Vec<f32>, shape: (usize, usize)) -> Var {
        assert_eq!(data.len(), shape.0 * shape.1, "leaf shape mismatch");
        self.push(data, shape, Op::Leaf)
    }

    /// Creates a leaf by copying `data` into an arena buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.0 * shape.1`.
    pub fn leaf_copy(&mut self, data: &[f32], shape: (usize, usize)) -> Var {
        assert_eq!(data.len(), shape.0 * shape.1, "leaf shape mismatch");
        let mut buf = self.take_buf(data.len());
        buf.copy_from_slice(data);
        self.push(buf, shape, Op::Leaf)
    }

    /// Creates a leaf whose zero-initialized arena buffer is filled in place
    /// by `init` (sparse writes are safe — untouched entries stay 0).
    pub fn leaf_with(&mut self, shape: (usize, usize), init: impl FnOnce(&mut [f32])) -> Var {
        let mut buf = self.take_zeroed(shape.0 * shape.1);
        init(&mut buf);
        self.push(buf, shape, Op::Leaf)
    }

    /// Creates a zero leaf (e.g. initial LSTM state).
    pub fn zeros(&mut self, shape: (usize, usize)) -> Var {
        let buf = self.take_zeroed(shape.0 * shape.1);
        self.push(buf, shape, Op::Leaf)
    }

    /// Binds a stored parameter into the tape as a leaf; gradients flow back
    /// to the store via [`accumulate_grads`](Self::accumulate_grads).
    ///
    /// A parameter has **one** leaf per tape: the first call copies its
    /// values in, every later call until the next [`reset`](Self::reset)
    /// returns that same leaf, so every use of it on this tape adds into one
    /// gradient. A model applied to a batch sample by sample does so through
    /// [`per_sample`](Self::per_sample): each sample binds the parameter on
    /// its own child tape, and the children's gradients are added into this
    /// tape's leaf in sample order by [`backward`](Self::backward).
    ///
    /// The table is keyed by `ParamId` alone, so a tape binds a single
    /// store, with unchanging values, between `reset`s — checked in debug
    /// builds.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let p = store.get(id);
        self.bind_param(id.0, &p.data, p.shape)
    }

    /// The leaf parameter `pid` is bound to, created from `values` on the
    /// first bind since the last reset.
    fn bind_param(&mut self, pid: usize, values: &[f32], shape: (usize, usize)) -> Var {
        if let Some(&Some(v)) = self.params.get(pid) {
            debug_assert!(
                // By bits: a diverged (NaN) parameter is still the same one.
                self.nodes[v.0]
                    .data
                    .iter()
                    .map(|x| x.to_bits())
                    .eq(values.iter().map(|x| x.to_bits())),
                "a tape binds one parameter store, unchanged, between resets"
            );
            return v;
        }
        let mut data = self.take_buf(values.len());
        data.copy_from_slice(values);
        let v = self.push(data, shape, Op::Leaf);
        if self.params.len() <= pid {
            self.params.resize(pid + 1, None);
        }
        self.params[pid] = Some(v);
        v
    }

    /// Shape of `v`.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].shape
    }

    /// Value buffer of `v`.
    pub fn value(&self, v: Var) -> &[f32] {
        &self.nodes[v.0].data
    }

    /// Gradient buffer of `v` (valid after [`backward`](Self::backward);
    /// stale arena contents before).
    pub fn grad(&self, v: Var) -> &[f32] {
        &self.nodes[v.0].grad
    }

    /// Number of nodes recorded.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    // ----- forward ops -----
    //
    // Every op writes its full output into an arena buffer (stale contents),
    // so no buffer may be only partially written.

    /// Matrix product `a (m,k) · b (k,n) → (m,n)`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (m, k) = self.shape(a);
        let (k2, n) = self.shape(b);
        assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
        let mut out = self.take_buf(m * n);
        gemm::matmul_into(
            &mut out,
            &self.nodes[a.0].data,
            &self.nodes[b.0].data,
            m,
            k,
            n,
            false,
        );
        flops::record((2 * m * k * n) as u64);
        self.push(out, (m, n), Op::MatMul { a, b })
    }

    /// Matrix product with transposed right factor: `a (m,k) · bᵀ` where `b`
    /// is stored `(n,k)` → `(m,n)`.
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let (m, k) = self.shape(a);
        let (n, k2) = self.shape(b);
        assert_eq!(k, k2, "matmul_nt inner dims {k} vs {k2}");
        let mut out = self.take_buf(m * n);
        gemm::matmul_nt_into(
            &mut out,
            &self.nodes[a.0].data,
            &self.nodes[b.0].data,
            m,
            k,
            n,
            false,
        );
        flops::record((2 * m * k * n) as u64);
        self.push(out, (m, n), Op::MatMulNT { a, b })
    }

    /// Elementwise sum (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.shape(a), self.shape(b), "add shape mismatch");
        let shape = self.shape(a);
        let mut out = self.take_buf(shape.0 * shape.1);
        for (o, (x, y)) in out
            .iter_mut()
            .zip(self.nodes[a.0].data.iter().zip(&self.nodes[b.0].data))
        {
            *o = x + y;
        }
        flops::record(out.len() as u64);
        self.push(out, shape, Op::Add { a, b })
    }

    /// Adds a `(1, n)` bias row to each row of `a (m, n)`.
    pub fn add_row(&mut self, a: Var, bias: Var) -> Var {
        let (m, n) = self.shape(a);
        assert_eq!(self.shape(bias), (1, n), "bias must be (1, {n})");
        let mut out = self.take_buf(m * n);
        {
            let adata = &self.nodes[a.0].data;
            let bdata = &self.nodes[bias.0].data;
            for (orow, irow) in out.chunks_exact_mut(n).zip(adata.chunks_exact(n)) {
                for ((o, &x), &bv) in orow.iter_mut().zip(irow).zip(bdata) {
                    *o = x + bv;
                }
            }
        }
        flops::record((m * n) as u64);
        self.push(out, (m, n), Op::AddRow { a, bias })
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.shape(a), self.shape(b), "mul shape mismatch");
        let shape = self.shape(a);
        let mut out = self.take_buf(shape.0 * shape.1);
        for (o, (x, y)) in out
            .iter_mut()
            .zip(self.nodes[a.0].data.iter().zip(&self.nodes[b.0].data))
        {
            *o = x * y;
        }
        flops::record(out.len() as u64);
        self.push(out, shape, Op::Mul { a, b })
    }

    /// Multiplication by a constant scalar.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let shape = self.shape(a);
        let mut out = self.take_buf(shape.0 * shape.1);
        for (o, x) in out.iter_mut().zip(&self.nodes[a.0].data) {
            *o = x * c;
        }
        flops::record(out.len() as u64);
        self.push(out, shape, Op::Scale { a, c })
    }

    /// Elementwise tanh.
    pub fn tanh(&mut self, a: Var) -> Var {
        let shape = self.shape(a);
        let mut out = self.take_buf(shape.0 * shape.1);
        out.copy_from_slice(&self.nodes[a.0].data);
        sickle_simd::tanh(&mut out);
        flops::record(4 * out.len() as u64);
        self.push(out, shape, Op::Tanh { a })
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let shape = self.shape(a);
        let mut out = self.take_buf(shape.0 * shape.1);
        for (o, x) in out.iter_mut().zip(&self.nodes[a.0].data) {
            *o = -x;
        }
        sickle_simd::exp(&mut out);
        for o in &mut out {
            *o = 1.0 / (1.0 + *o);
        }
        flops::record(4 * out.len() as u64);
        self.push(out, shape, Op::Sigmoid { a })
    }

    /// Row-wise softmax (numerically stabilized).
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let (m, n) = self.shape(a);
        let mut out = self.take_buf(m * n);
        for (orow, irow) in out
            .chunks_exact_mut(n)
            .zip(self.nodes[a.0].data.chunks_exact(n))
        {
            // `>` skips a NaN here; it still poisons the row through the
            // subtraction below.
            let max = lane_reduce(
                [irow],
                f32::NEG_INFINITY,
                |[x]| x,
                |m, x| if x > m { x } else { m },
            );
            for (o, &x) in orow.iter_mut().zip(irow) {
                *o = x - max;
            }
        }
        sickle_simd::exp(&mut out);
        for orow in out.chunks_exact_mut(n) {
            let inv = 1.0 / lane_sum([orow], |[e]| e);
            orow.iter_mut().for_each(|o| *o *= inv);
        }
        flops::record(5 * (m * n) as u64);
        self.push(out, (m, n), Op::SoftmaxRows { a })
    }

    /// Extracts columns `start..start+len` of `a`.
    pub fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let (m, n) = self.shape(a);
        assert!(
            start + len <= n,
            "slice {start}..{} out of {n} cols",
            start + len
        );
        let mut out = self.take_buf(m * len);
        if len > 0 {
            for (orow, irow) in out
                .chunks_exact_mut(len)
                .zip(self.nodes[a.0].data.chunks_exact(n))
            {
                orow.copy_from_slice(&irow[start..start + len]);
            }
        }
        self.push(out, (m, len), Op::SliceCols { a, start })
    }

    /// Stacks matrices with equal column counts vertically.
    ///
    /// # Panics
    /// Panics if `parts` is empty or column counts differ.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat of zero parts");
        let n = self.shape(parts[0]).1;
        let mut rows = 0;
        for &p in parts {
            let (m, pn) = self.shape(p);
            assert_eq!(pn, n, "concat column mismatch");
            rows += m;
        }
        let mut data = self.take_buf(rows * n);
        let mut off = 0;
        for &p in parts {
            let src = &self.nodes[p.0].data;
            data[off..off + src.len()].copy_from_slice(src);
            off += src.len();
        }
        self.push(
            data,
            (rows, n),
            Op::ConcatRows {
                parts: parts.to_vec(),
            },
        )
    }

    /// Builds `build(child, b)` for every sample `b` in `0..count`, each on a
    /// child tape of its own, the children on the thread pool, and returns
    /// their outputs stacked by rows in sample order as one node
    /// `(count·rows, cols)`.
    ///
    /// Every parameter a child binds is bound on this tape too, so its
    /// gradient reaches [`accumulate_grads`](Self::accumulate_grads) like
    /// any other: [`backward`](Self::backward) adds the children's gradients
    /// into this tape's leaf in sample order `0..count`. A child is reset
    /// before `build` runs on it, so it binds the same store as this tape.
    ///
    /// # Panics
    /// Panics if `count` is zero or the samples' outputs differ in shape.
    pub fn per_sample(
        &mut self,
        count: usize,
        build: impl Fn(&mut Tape, usize) -> Var + Sync,
    ) -> Var {
        assert!(count > 0, "per_sample of zero samples");
        let first = self.live_children;
        self.live_children += count;
        if self.children.len() < self.live_children {
            self.children.resize_with(self.live_children, Tape::new);
        }
        let mut children = mem::take(&mut self.children);
        let kids = &mut children[first..first + count];
        let outs: Vec<Var> = kids
            .par_iter_mut()
            .enumerate()
            .map(|(b, kid)| {
                kid.reset();
                build(kid, b)
            })
            .collect();

        let shape = kids[0].shape(outs[0]);
        let len = shape.0 * shape.1;
        let mut data = self.take_buf(count * len);
        for ((kid, &out), dst) in kids.iter().zip(&outs).zip(data.chunks_exact_mut(len)) {
            assert_eq!(kid.shape(out), shape, "per_sample outputs differ in shape");
            dst.copy_from_slice(kid.value(out));
            for (pid, bound) in kid.params.iter().enumerate() {
                if let Some(v) = *bound {
                    let leaf = &kid.nodes[v.0];
                    self.bind_param(pid, &leaf.data, leaf.shape);
                }
            }
        }
        self.children = children;
        self.push(
            data,
            (count * shape.0, shape.1),
            Op::Children { first, outs },
        )
    }

    /// Row-wise layer normalization with learnable `(1, n)` gain and bias.
    pub fn layer_norm(&mut self, a: Var, gamma: Var, beta: Var) -> Var {
        let (m, n) = self.shape(a);
        assert_eq!(self.shape(gamma), (1, n), "gamma must be (1, {n})");
        assert_eq!(self.shape(beta), (1, n), "beta must be (1, {n})");
        let eps = 1e-5;
        let mut out = self.take_buf(m * n);
        let mut stats = self.take_buf(2 * m);
        {
            let g = &self.nodes[gamma.0].data[..n];
            let b = &self.nodes[beta.0].data[..n];
            for ((orow, irow), stat) in out
                .chunks_exact_mut(n)
                .zip(self.nodes[a.0].data.chunks_exact(n))
                .zip(stats.chunks_exact_mut(2))
            {
                let mean = lane_sum([irow], |[x]| x) / n as f32;
                let var = lane_sum([irow], |[x]| (x - mean) * (x - mean)) / n as f32;
                let inv = 1.0 / (var + eps).sqrt();
                stat.copy_from_slice(&[mean, inv]);
                for j in 0..n {
                    orow[j] = g[j] * (irow[j] - mean) * inv + b[j];
                }
            }
        }
        flops::record(8 * (m * n) as u64);
        self.push(
            out,
            (m, n),
            Op::LayerNorm {
                a,
                gamma,
                beta,
                stats,
            },
        )
    }

    /// Mean over all elements → `(1, 1)`.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let data = &self.nodes[a.0].data;
        let (sum, len) = (data.iter().sum::<f32>(), data.len());
        let mut out = self.take_buf(1);
        out[0] = sum / len as f32;
        flops::record(len as u64);
        self.push(out, (1, 1), Op::MeanAll { a })
    }

    /// Mean-squared-error loss against a constant target → `(1, 1)`.
    ///
    /// # Panics
    /// Panics if target length differs from `pred`.
    pub fn mse_loss(&mut self, pred: Var, target: &[f32]) -> Var {
        assert_eq!(
            self.nodes[pred.0].data.len(),
            target.len(),
            "target length mismatch"
        );
        let mut tbuf = self.take_buf(target.len());
        tbuf.copy_from_slice(target);
        let loss = self.nodes[pred.0]
            .data
            .iter()
            .zip(target)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f32>()
            / target.len() as f32;
        let mut out = self.take_buf(1);
        out[0] = loss;
        flops::record(3 * target.len() as u64);
        self.push(out, (1, 1), Op::Mse { pred, target: tbuf })
    }

    // ----- backward -----

    /// Reverse-mode sweep seeding `d loss / d loss = 1`.
    ///
    /// # Panics
    /// Panics if `loss` is not a scalar.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(self.shape(loss), (1, 1), "backward needs a scalar loss");
        self.backward_from(loss, &[1.0]);
    }

    /// Reverse-mode sweep from `root`, whose gradient is seeded with `seed`.
    fn backward_from(&mut self, root: Var, seed: &[f32]) {
        for node in &mut self.nodes {
            node.grad.fill(0.0);
        }
        self.nodes[root.0].grad.copy_from_slice(seed);
        for i in (0..=root.0).rev() {
            self.step_back(i);
        }
    }

    /// Propagates node `i`'s gradient to its parents.
    ///
    /// Borrow discipline: the op is moved out of the node and restored at the
    /// end; each parent's gradient buffer is `mem::take`n, updated against
    /// immutable reads, and put back. Taking parents one at a time keeps
    /// aliased operands (`matmul(x, x)`, `concat_rows(&[s, s])`) correct.
    fn step_back(&mut self, i: usize) {
        let op = mem::replace(&mut self.nodes[i].op, Op::Leaf);
        let (m, n) = self.nodes[i].shape;
        match &op {
            Op::Leaf => {}
            Op::MatMul { a, b } => {
                let (am, ak) = self.nodes[a.0].shape;
                let dy = mem::take(&mut self.nodes[i].grad);
                // dA += dY · Bᵀ (B stored (ak, n) — the NT layout).
                let mut ga = mem::take(&mut self.nodes[a.0].grad);
                gemm::matmul_nt_into(&mut ga, &dy, &self.nodes[b.0].data, am, n, ak, true);
                self.nodes[a.0].grad = ga;
                // dB += Aᵀ · dY.
                let mut gb = mem::take(&mut self.nodes[b.0].grad);
                gemm::matmul_tn_into(&mut gb, &self.nodes[a.0].data, &dy, am, ak, n, true);
                self.nodes[b.0].grad = gb;
                self.nodes[i].grad = dy;
                flops::record((4 * am * ak * n) as u64);
            }
            Op::MatMulNT { a, b } => {
                let (am, ak) = self.nodes[a.0].shape;
                let (bn, _) = self.nodes[b.0].shape;
                let dy = mem::take(&mut self.nodes[i].grad);
                // C = A·Bᵀ: dA += dY·B ; dB += dYᵀ·A.
                let mut ga = mem::take(&mut self.nodes[a.0].grad);
                gemm::matmul_into(&mut ga, &dy, &self.nodes[b.0].data, am, bn, ak, true);
                self.nodes[a.0].grad = ga;
                let mut gb = mem::take(&mut self.nodes[b.0].grad);
                gemm::matmul_tn_into(&mut gb, &dy, &self.nodes[a.0].data, am, bn, ak, true);
                self.nodes[b.0].grad = gb;
                self.nodes[i].grad = dy;
                flops::record((4 * am * ak * bn) as u64);
            }
            Op::Add { a, b } => {
                for p in [a.0, b.0] {
                    let mut g = mem::take(&mut self.nodes[p].grad);
                    axpy(&mut g, &self.nodes[i].grad);
                    self.nodes[p].grad = g;
                }
            }
            Op::AddRow { a, bias } => {
                let mut ga = mem::take(&mut self.nodes[a.0].grad);
                axpy(&mut ga, &self.nodes[i].grad);
                self.nodes[a.0].grad = ga;
                let mut bg = mem::take(&mut self.nodes[bias.0].grad);
                for row in self.nodes[i].grad.chunks_exact(n) {
                    for (g, &d) in bg.iter_mut().zip(row) {
                        *g += d;
                    }
                }
                self.nodes[bias.0].grad = bg;
            }
            Op::Mul { a, b } => {
                let mut ga = mem::take(&mut self.nodes[a.0].grad);
                for ((g, &d), &bv) in ga
                    .iter_mut()
                    .zip(&self.nodes[i].grad)
                    .zip(&self.nodes[b.0].data)
                {
                    *g += d * bv;
                }
                self.nodes[a.0].grad = ga;
                let mut gb = mem::take(&mut self.nodes[b.0].grad);
                for ((g, &d), &av) in gb
                    .iter_mut()
                    .zip(&self.nodes[i].grad)
                    .zip(&self.nodes[a.0].data)
                {
                    *g += d * av;
                }
                self.nodes[b.0].grad = gb;
            }
            Op::Scale { a, c } => {
                let c = *c;
                let mut ga = mem::take(&mut self.nodes[a.0].grad);
                for (g, &d) in ga.iter_mut().zip(&self.nodes[i].grad) {
                    *g += d * c;
                }
                self.nodes[a.0].grad = ga;
            }
            Op::Tanh { a } => {
                let mut ga = mem::take(&mut self.nodes[a.0].grad);
                for ((g, &d), &yv) in ga
                    .iter_mut()
                    .zip(&self.nodes[i].grad)
                    .zip(&self.nodes[i].data)
                {
                    *g += d * (1.0 - yv * yv);
                }
                self.nodes[a.0].grad = ga;
            }
            Op::Sigmoid { a } => {
                let mut ga = mem::take(&mut self.nodes[a.0].grad);
                for ((g, &d), &yv) in ga
                    .iter_mut()
                    .zip(&self.nodes[i].grad)
                    .zip(&self.nodes[i].data)
                {
                    *g += d * yv * (1.0 - yv);
                }
                self.nodes[a.0].grad = ga;
            }
            Op::SoftmaxRows { a } => {
                let mut ga = mem::take(&mut self.nodes[a.0].grad);
                let y = &self.nodes[i].data;
                let dy = &self.nodes[i].grad;
                for r in 0..m {
                    let yr = &y[r * n..(r + 1) * n];
                    let dyr = &dy[r * n..(r + 1) * n];
                    let dot = lane_sum([yr, dyr], |[y, d]| y * d);
                    for j in 0..n {
                        ga[r * n + j] += yr[j] * (dyr[j] - dot);
                    }
                }
                self.nodes[a.0].grad = ga;
            }
            Op::SliceCols { a, start } => {
                let start = *start;
                let an = self.nodes[a.0].shape.1;
                let mut ga = mem::take(&mut self.nodes[a.0].grad);
                let dy = &self.nodes[i].grad;
                for r in 0..m {
                    for j in 0..n {
                        ga[r * an + start + j] += dy[r * n + j];
                    }
                }
                self.nodes[a.0].grad = ga;
            }
            Op::ConcatRows { parts } => {
                let mut off = 0;
                for &p in parts {
                    let (pm, pn) = self.nodes[p.0].shape;
                    let len = pm * pn;
                    let mut g = mem::take(&mut self.nodes[p.0].grad);
                    axpy(&mut g, &self.nodes[i].grad[off..off + len]);
                    self.nodes[p.0].grad = g;
                    off += len;
                }
            }
            Op::LayerNorm {
                a,
                gamma,
                beta,
                stats,
            } => {
                // Three alias-safe phases, one gradient buffer at a time.
                let mut gb = mem::take(&mut self.nodes[beta.0].grad);
                for row in self.nodes[i].grad.chunks_exact(n) {
                    for (g, &d) in gb.iter_mut().zip(row) {
                        *g += d;
                    }
                }
                self.nodes[beta.0].grad = gb;

                let mut gg = mem::take(&mut self.nodes[gamma.0].grad);
                {
                    let x = &self.nodes[a.0].data;
                    let dy = &self.nodes[i].grad;
                    for r in 0..m {
                        let xr = &x[r * n..(r + 1) * n];
                        let dyr = &dy[r * n..(r + 1) * n];
                        let (mean, inv) = (stats[2 * r], stats[2 * r + 1]);
                        for j in 0..n {
                            gg[j] += dyr[j] * (xr[j] - mean) * inv;
                        }
                    }
                }
                self.nodes[gamma.0].grad = gg;

                let mut ga = mem::take(&mut self.nodes[a.0].grad);
                {
                    let x = &self.nodes[a.0].data;
                    let g = &self.nodes[gamma.0].data[..n];
                    let dy = &self.nodes[i].grad;
                    for r in 0..m {
                        let xr = &x[r * n..(r + 1) * n];
                        let dyr = &dy[r * n..(r + 1) * n];
                        let (mean, inv) = (stats[2 * r], stats[2 * r + 1]);
                        let mean_gd = lane_sum([g, dyr], |[g, d]| g * d) / n as f32;
                        let mean_gdx =
                            lane_sum([g, dyr, xr], |[g, d, x]| g * d * ((x - mean) * inv))
                                / n as f32;
                        for j in 0..n {
                            let xhat = (xr[j] - mean) * inv;
                            ga[r * n + j] += inv * (g[j] * dyr[j] - mean_gd - xhat * mean_gdx);
                        }
                    }
                }
                self.nodes[a.0].grad = ga;
            }
            Op::MeanAll { a } => {
                let d = self.nodes[i].grad[0];
                let mut ga = mem::take(&mut self.nodes[a.0].grad);
                let len = ga.len() as f32;
                for g in ga.iter_mut() {
                    *g += d / len;
                }
                self.nodes[a.0].grad = ga;
            }
            Op::Mse { pred, target } => {
                let d = self.nodes[i].grad[0];
                let len = target.len() as f32;
                let mut gp = mem::take(&mut self.nodes[pred.0].grad);
                for ((g, &p), &t) in gp
                    .iter_mut()
                    .zip(&self.nodes[pred.0].data)
                    .zip(target.iter())
                {
                    *g += d * 2.0 * (p - t) / len;
                }
                self.nodes[pred.0].grad = gp;
            }
            Op::Children { first, outs } => {
                let kids = &mut self.children[*first..*first + outs.len()];
                let dy = &self.nodes[i].grad;
                let len = dy.len() / outs.len();
                kids.par_iter_mut()
                    .enumerate()
                    .for_each(|(b, kid)| kid.backward_from(outs[b], &dy[b * len..(b + 1) * len]));
                // The merge, on this thread in sample order: the sum does not
                // depend on which thread ran which child.
                for kid in kids.iter() {
                    for (pid, bound) in kid.params.iter().enumerate() {
                        if let Some(v) = *bound {
                            let leaf = self.params[pid].expect("bound by per_sample");
                            axpy(&mut self.nodes[leaf.0].grad, &kid.nodes[v.0].grad);
                        }
                    }
                }
            }
        }
        self.nodes[i].op = op;
    }

    /// Adds the gradient of every parameter-bound leaf into the store (the
    /// one the leaves were bound from): one pass per parameter, in `ParamId`
    /// order, on the calling thread, allocating nothing.
    pub fn accumulate_grads(&self, store: &mut ParamStore) {
        for (pid, bound) in self.params.iter().enumerate() {
            if let Some(v) = bound {
                axpy(&mut store.get_mut(ParamId(pid)).grad, &self.nodes[v.0].grad);
            }
        }
    }
}

fn axpy(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check helper: builds the graph twice with
    /// a perturbed input and compares the analytic gradient.
    fn grad_check<F>(input: Vec<f32>, shape: (usize, usize), f: F)
    where
        F: Fn(&mut Tape, Var) -> Var,
    {
        let mut tape = Tape::new();
        let x = tape.leaf(input.clone(), shape);
        let y = f(&mut tape, x);
        let loss = tape.mean_all(y);
        tape.backward(loss);
        let analytic = tape.grad(x).to_vec();

        let h = 1e-3f32;
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus[i] += h;
            let mut minus = input.clone();
            minus[i] -= h;
            let eval = |data: Vec<f32>| -> f32 {
                let mut t = Tape::new();
                let x = t.leaf(data, shape);
                let y = f(&mut t, x);
                let l = t.mean_all(y);
                t.value(l)[0]
            };
            let numeric = (eval(plus) - eval(minus)) / (2.0 * h);
            assert!(
                (analytic[i] - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "grad[{i}]: analytic {} vs numeric {numeric}",
                analytic[i]
            );
        }
    }

    #[test]
    fn matmul_forward_correct() {
        let mut t = Tape::new();
        let a = t.leaf(vec![1.0, 2.0, 3.0, 4.0], (2, 2));
        let b = t.leaf(vec![5.0, 6.0, 7.0, 8.0], (2, 2));
        let c = t.matmul(a, b);
        assert_eq!(t.value(c), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_nt_matches_manual_transpose() {
        let mut t = Tape::new();
        let a = t.leaf(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], (2, 3));
        // b stored (2,3), interpreted as transposed -> (3,2) effective.
        let b = t.leaf(vec![1.0, 0.0, 2.0, 0.0, 1.0, 1.0], (2, 3));
        let c = t.matmul_nt(a, b);
        // A (2x3) * B^T (3x2): row0 = [1*1+2*0+3*2, 1*0+2*1+3*1] = [7, 5]
        assert_eq!(t.value(c), &[7.0, 5.0, 16.0, 11.0]);
    }

    #[test]
    fn gradcheck_matmul() {
        grad_check(vec![0.5, -1.0, 2.0, 0.3, 1.1, -0.4], (2, 3), |t, x| {
            let w = t.leaf(vec![0.2, -0.5, 1.0, 0.7, -0.3, 0.4], (3, 2));
            t.matmul(x, w)
        });
    }

    #[test]
    fn gradcheck_matmul_nt() {
        grad_check(vec![0.5, -1.0, 2.0, 0.3], (2, 2), |t, x| {
            let w = t.leaf(vec![0.2, -0.5, 0.7, 0.9], (2, 2));
            t.matmul_nt(x, w)
        });
    }

    #[test]
    fn gradcheck_shared_operands() {
        // Aliased parents exercise the take-one-at-a-time backward paths.
        grad_check(vec![0.5, -1.0, 0.3, 0.8], (2, 2), |t, x| t.matmul(x, x));
        grad_check(vec![0.5, -1.0, 0.3, 0.8], (2, 2), |t, x| t.mul(x, x));
        grad_check(vec![0.5, -1.0, 0.3, 0.8], (2, 2), |t, x| t.matmul_nt(x, x));
    }

    #[test]
    fn gradcheck_activations() {
        let input = vec![0.5, -1.2, 2.0, -0.3, 0.9, 0.1];
        grad_check(input.clone(), (2, 3), |t, x| t.tanh(x));
        grad_check(input, (2, 3), |t, x| t.sigmoid(x));
    }

    #[test]
    fn gradcheck_softmax() {
        grad_check(vec![0.5, -1.2, 2.0, -0.3, 0.9, 0.1], (2, 3), |t, x| {
            let s = t.softmax_rows(x);
            // Weighted so the gradient is non-trivial per element.
            let w = t.leaf(vec![1.0, 2.0, 3.0, -1.0, 0.5, 1.5], (2, 3));
            t.mul(s, w)
        });
    }

    #[test]
    fn gradcheck_layer_norm() {
        grad_check(vec![0.5, -1.2, 2.0, -0.3, 0.9, 0.1], (2, 3), |t, x| {
            let g = t.leaf(vec![1.0, 0.8, 1.2], (1, 3));
            let b = t.leaf(vec![0.1, -0.1, 0.0], (1, 3));
            t.layer_norm(x, g, b)
        });
    }

    #[test]
    fn gradcheck_layer_norm_ragged_width() {
        // 11 columns: one full lane group plus a three-term remainder in
        // every row reduction, forward and backward.
        let input: Vec<f32> = (0..22).map(|i| ((i * 7) % 13) as f32 * 0.2 - 1.1).collect();
        grad_check(input, (2, 11), |t, x| {
            let g = t.leaf((0..11).map(|j| 0.7 + 0.05 * j as f32).collect(), (1, 11));
            let b = t.leaf((0..11).map(|j| 0.02 * j as f32 - 0.1).collect(), (1, 11));
            let y = t.layer_norm(x, g, b);
            // Weighted so the per-row means of dy are non-trivial.
            let w = t.leaf((0..22).map(|i| (i % 5) as f32 - 1.5).collect(), (2, 11));
            t.mul(y, w)
        });
    }

    #[test]
    fn lane_reduce_matches_serial_sums_at_every_length() {
        for n in 0..=33 {
            let xs: Vec<f32> = (0..n).map(|i| (i as f32 * 0.61).sin()).collect();
            let want: f64 = xs.iter().map(|&x| f64::from(x)).sum();
            let got = lane_sum([&xs], |[x]| x);
            assert!((f64::from(got) - want).abs() < 1e-5, "sum of {n}");
            let max = lane_reduce([&xs], f32::NEG_INFINITY, |[x]| x, f32::max);
            assert_eq!(max, xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max));
        }
    }

    #[test]
    fn a_parameter_has_one_leaf_per_tape_and_its_uses_share_a_gradient() {
        let mut store = ParamStore::new();
        let w = store.alloc(vec![2.0], (1, 1));
        let other = store.alloc(vec![5.0], (1, 1));
        let mut t = Tape::new();
        let w1 = t.param(&store, w);
        let o = t.param(&store, other);
        let w2 = t.param(&store, w);
        assert_eq!(w1, w2, "second bind returns the first leaf");
        assert_ne!(w1, o);
        // loss = (w·3 + w·4)² = 196 at w = 2; dL/dw = 2·14·7 = 196.
        let a = t.leaf(vec![3.0], (1, 1));
        let b = t.leaf(vec![4.0], (1, 1));
        let ya = t.mul(w1, a);
        let yb = t.mul(w2, b);
        let y = t.add(ya, yb);
        let loss = t.mse_loss(y, &[0.0]);
        t.backward(loss);
        t.accumulate_grads(&mut store);
        assert!((store.get(w).grad[0] - 196.0).abs() < 1e-3);
        assert_eq!(store.get(other).grad[0], 0.0);
        // A reset forgets the binding: new values are picked up.
        t.reset();
        store.get_mut(w).data[0] = -1.0;
        let w3 = t.param(&store, w);
        assert_eq!(t.value(w3), &[-1.0]);
    }

    /// `y_b = x_b·w + b` for three samples, on child tapes or on one tape.
    fn three_samples(t: &mut Tape, store: &ParamStore, per_sample: bool) -> Var {
        let (w, b) = (ParamId(0), ParamId(1));
        let sample = |t: &mut Tape, s: usize| {
            let x = t.leaf_copy(&[s as f32 - 1.0, 0.5 * s as f32 + 0.25], (1, 2));
            let (wv, bv) = (t.param(store, w), t.param(store, b));
            let y = t.matmul(x, wv);
            let y = t.add_row(y, bv);
            t.tanh(y)
        };
        if per_sample {
            t.per_sample(3, sample)
        } else {
            let ys: Vec<Var> = (0..3).map(|s| sample(t, s)).collect();
            t.concat_rows(&ys)
        }
    }

    #[test]
    fn per_sample_stacks_outputs_and_merges_parameter_gradients() {
        let mut grads = Vec::new();
        for per_sample in [false, true] {
            let mut store = ParamStore::new();
            store.alloc(vec![0.3, -0.7, 0.9, 0.2], (2, 2));
            store.alloc(vec![0.1, -0.2], (1, 2));
            let mut t = Tape::new();
            let y = three_samples(&mut t, &store, per_sample);
            assert_eq!(t.shape(y), (3, 2));
            let loss = t.mse_loss(y, &[0.5, -0.5, 0.0, 1.0, -1.0, 0.25]);
            t.backward(loss);
            t.accumulate_grads(&mut store);
            grads.push((t.value(y).to_vec(), store.flat_grads()));
        }
        let ((one_y, one_g), (kids_y, kids_g)) = (&grads[0], &grads[1]);
        assert_eq!(one_y, kids_y, "the forward pass is the same arithmetic");
        for (a, b) in one_g.iter().zip(kids_g) {
            assert!(
                (a - b).abs() <= 1e-6 * (1.0 + a.abs()),
                "{one_g:?} vs {kids_g:?}"
            );
        }
    }

    #[test]
    fn reset_keeps_the_child_tapes() {
        let mut store = ParamStore::new();
        store.alloc(vec![0.3, -0.7, 0.9, 0.2], (2, 2));
        store.alloc(vec![0.1, -0.2], (1, 2));
        let mut t = Tape::new();
        let y = three_samples(&mut t, &store, true);
        let first = t.value(y).to_vec();
        let buf = t.children[2].nodes[0].data.as_ptr();
        t.reset();
        assert_eq!((t.children.len(), t.live_children), (3, 0));
        let y = three_samples(&mut t, &store, true);
        assert_eq!(t.value(y), first);
        assert_eq!(t.children.len(), 3, "a reset tape reuses its children");
        let reused = t.children[2]
            .nodes
            .iter()
            .any(|n| n.data.as_ptr() == buf || n.grad.as_ptr() == buf);
        assert!(reused, "a child's arena survives the parent's reset");
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn a_panicking_sample_reaches_the_caller() {
        let mut t = Tape::new();
        t.per_sample(4, |t, b| {
            assert!(b != 3, "sample {b} panicked");
            t.zeros((1, 1))
        });
    }

    #[test]
    fn gradcheck_composite_mlp() {
        grad_check(vec![0.5, -1.0, 0.3, 0.8], (2, 2), |t, x| {
            let w1 = t.leaf(vec![0.4, -0.2, 0.1, 0.9], (2, 2));
            let b1 = t.leaf(vec![0.05, -0.05], (1, 2));
            let h = t.matmul(x, w1);
            let h = t.add_row(h, b1);
            let h = t.tanh(h);
            let w2 = t.leaf(vec![0.7, -0.6], (2, 1));
            t.matmul(h, w2)
        });
    }

    #[test]
    fn gradcheck_slice_and_concat() {
        grad_check(vec![0.5, -1.0, 0.3, 0.8, 0.2, -0.7], (2, 3), |t, x| {
            let a = t.slice_cols(x, 0, 2);
            let b = t.slice_cols(x, 1, 2);
            let s = t.add(a, b);
            t.concat_rows(&[s, s])
        });
    }

    #[test]
    fn mse_loss_and_gradient() {
        let mut t = Tape::new();
        let p = t.leaf(vec![1.0, 2.0], (1, 2));
        let loss = t.mse_loss(p, &[0.0, 0.0]);
        assert!((t.value(loss)[0] - 2.5).abs() < 1e-6);
        t.backward(loss);
        // d/dp mean((p-t)^2) = 2(p-t)/n = [1.0, 2.0]
        assert!((t.grad(p)[0] - 1.0).abs() < 1e-6);
        assert!((t.grad(p)[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn param_grads_flow_to_store() {
        let mut store = ParamStore::new();
        let w = store.alloc(vec![2.0], (1, 1));
        let mut t = Tape::new();
        let wv = t.param(&store, w);
        let x = t.leaf(vec![3.0], (1, 1));
        let y = t.mul(wv, x);
        let loss = t.mse_loss(y, &[0.0]); // loss = (2*3)^2 = 36, dL/dw = 2*6*3 = 36
        t.backward(loss);
        t.accumulate_grads(&mut store);
        assert!((store.get(w).grad[0] - 36.0).abs() < 1e-4);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut t = Tape::new();
        let x = t.leaf(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], (2, 3));
        let s = t.softmax_rows(x);
        for row in t.value(s).chunks_exact(3) {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn flops_are_recorded() {
        flops::reset();
        let mut t = Tape::new();
        let a = t.leaf(vec![1.0; 16], (4, 4));
        let b = t.leaf(vec![1.0; 16], (4, 4));
        let _ = t.matmul(a, b);
        assert!(flops::total() >= 2 * 4 * 4 * 4);
    }

    #[test]
    fn reset_reuses_buffers_and_stays_correct() {
        let mut t = Tape::new();
        let a = t.leaf(vec![1.0, 2.0, 3.0, 4.0], (2, 2));
        let b = t.leaf(vec![5.0, 6.0, 7.0, 8.0], (2, 2));
        let c = t.matmul(a, b);
        let ptr = t.value(c).as_ptr();
        t.reset();
        assert!(t.is_empty());
        // Rebuild with different values: recycled buffers must be fully
        // overwritten, and one must be reused for the same-shape product.
        let a = t.leaf_copy(&[1.0, 0.0, 0.0, 1.0], (2, 2));
        let b = t.leaf_copy(&[1.0, 2.0, 3.0, 4.0], (2, 2));
        let c = t.matmul(a, b);
        assert_eq!(t.value(c), &[1.0, 2.0, 3.0, 4.0]);
        let reused = [
            t.value(a).as_ptr(),
            t.value(b).as_ptr(),
            t.value(c).as_ptr(),
            t.grad(a).as_ptr(),
            t.grad(b).as_ptr(),
            t.grad(c).as_ptr(),
        ]
        .contains(&ptr);
        assert!(reused, "arena should recycle same-length buffers");
    }

    #[test]
    fn leaf_with_zeroes_recycled_buffers() {
        let mut t = Tape::new();
        let a = t.leaf(vec![7.0; 6], (2, 3));
        let _ = t.tanh(a);
        t.reset();
        let z = t.leaf_with((2, 3), |buf| buf[0] = 1.0);
        assert_eq!(t.value(z), &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let zz = t.zeros((2, 3));
        assert!(t.value(zz).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn reused_tape_training_matches_fresh_tapes() {
        // Two identical training loops — one fresh tape per step vs one
        // reset tape — must produce bit-identical parameters.
        let run = |reuse: bool| -> Vec<f32> {
            let mut store = ParamStore::new();
            let w = store.alloc(vec![0.5, -0.2, 0.1, 0.4], (2, 2));
            let mut opt = crate::optim::Sgd::new(0.1);
            let mut tape = Tape::new();
            for step in 0..10 {
                if reuse {
                    tape.reset();
                } else {
                    tape = Tape::new();
                }
                let x = tape.leaf_copy(&[1.0, 2.0, step as f32 * 0.1, -1.0], (2, 2));
                let wv = tape.param(&store, w);
                let y = tape.matmul(x, wv);
                let loss = tape.mse_loss(y, &[0.0, 1.0, -1.0, 0.5]);
                tape.backward(loss);
                tape.accumulate_grads(&mut store);
                opt.step(&mut store);
                store.zero_grads();
            }
            store.get(w).data.clone()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_shape_check() {
        let mut t = Tape::new();
        let a = t.leaf(vec![0.0; 6], (2, 3));
        let b = t.leaf(vec![0.0; 6], (2, 3));
        let _ = t.matmul(a, b);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let mut t = Tape::new();
        let a = t.leaf(vec![0.0; 4], (2, 2));
        t.backward(a);
    }
}
