//! Property tests for the GEMM kernels: every layout (NN, NT, TN), in both
//! overwrite and accumulate mode, must agree with a serial f64 triple-loop
//! reference to ≤ 1e-5 relative error — including ragged tail shapes that
//! exercise the micro-tile edge handling; the pack-free driver must agree
//! with the packed one *bitwise*, on every instruction-set tier the CPU
//! runs; and a NaN in either operand must reach the output through every
//! kernel and tier — and, one level up, a NaN activation the loss, through
//! each nonlinear tape op.

use proptest::prelude::*;
use sickle_nn::gemm::Tier;
use sickle_nn::{gemm, Tape, Var};

/// Deterministic pseudo-random fill (so fixed-shape tests need no RNG dep).
fn pseudo(seed: u64, len: usize, scale: f32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((state >> 33) as f32) / (1u64 << 31) as f32;
            (u - 0.5) * 2.0 * scale
        })
        .collect()
}

/// Serial triple-loop reference in f64 over strided operands:
/// `C[i][j] = (init) + Σ_l a[i·ars + l·acs] · b[l·brs + j·bcs]`.
#[allow(clippy::too_many_arguments)]
fn reference(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    ars: usize,
    acs: usize,
    b: &[f32],
    brs: usize,
    bcs: usize,
    init: &[f32],
    acc: bool,
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut s = if acc { init[i * n + j] as f64 } else { 0.0 };
            for l in 0..k {
                s += a[i * ars + l * acs] as f64 * b[l * brs + j * bcs] as f64;
            }
            out[i * n + j] = s as f32;
        }
    }
    out
}

fn assert_close(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        let tol = 1e-5 * w.abs().max(1.0);
        assert!(
            (g - w).abs() <= tol,
            "{what}: element {i}: got {g}, want {w} (tol {tol})"
        );
    }
}

/// Runs all three layouts for one (m, k, n) against the reference.
fn check_all_layouts(m: usize, k: usize, n: usize, seed: u64, acc: bool) {
    let scale = 0.1;
    let init = pseudo(seed ^ 0xC0FF_EE00, m * n, scale);

    // NN: A (m,k) · B (k,n).
    let a = pseudo(seed, m * k, scale);
    let b = pseudo(seed ^ 1, k * n, scale);
    let mut c = init.clone();
    gemm::matmul_into(&mut c, &a, &b, m, k, n, acc);
    let want = reference(m, k, n, &a, k, 1, &b, n, 1, &init, acc);
    assert_close(&c, &want, &format!("NN {m}x{k}x{n} acc={acc}"));

    // NT: A (m,k) · Bᵀ with B stored (n,k).
    let bt = pseudo(seed ^ 2, n * k, scale);
    let mut c = init.clone();
    gemm::matmul_nt_into(&mut c, &a, &bt, m, k, n, acc);
    let want = reference(m, k, n, &a, k, 1, &bt, 1, k, &init, acc);
    assert_close(&c, &want, &format!("NT {m}x{k}x{n} acc={acc}"));

    // TN: Aᵀ · B with A stored (m,k), B stored (m,n) → C (k,n).
    let bn = pseudo(seed ^ 3, m * n, scale);
    let init_tn = pseudo(seed ^ 0xC0FF_EE01, k * n, scale);
    let mut c = init_tn.clone();
    gemm::matmul_tn_into(&mut c, &a, &bn, m, k, n, acc);
    let want = reference(k, m, n, &a, 1, k, &bn, n, 1, &init_tn, acc);
    assert_close(&c, &want, &format!("TN {m}x{k}x{n} acc={acc}"));
}

/// Same shapes through the naive kernels — the references must satisfy the
/// identical contract.
fn check_naive_layouts(m: usize, k: usize, n: usize, seed: u64, acc: bool) {
    let scale = 0.1;
    let init = pseudo(seed ^ 0xC0FF_EE00, m * n, scale);
    let a = pseudo(seed, m * k, scale);
    let b = pseudo(seed ^ 1, k * n, scale);
    let mut c = init.clone();
    gemm::naive_matmul_into(&mut c, &a, &b, m, k, n, acc);
    let want = reference(m, k, n, &a, k, 1, &b, n, 1, &init, acc);
    assert_close(&c, &want, &format!("naive NN {m}x{k}x{n} acc={acc}"));

    let bt = pseudo(seed ^ 2, n * k, scale);
    let mut c = init.clone();
    gemm::naive_matmul_nt_into(&mut c, &a, &bt, m, k, n, acc);
    let want = reference(m, k, n, &a, k, 1, &bt, 1, k, &init, acc);
    assert_close(&c, &want, &format!("naive NT {m}x{k}x{n} acc={acc}"));

    let bn = pseudo(seed ^ 3, m * n, scale);
    let init_tn = pseudo(seed ^ 0xC0FF_EE01, k * n, scale);
    let mut c = init_tn.clone();
    gemm::naive_matmul_tn_into(&mut c, &a, &bn, m, k, n, acc);
    let want = reference(k, m, n, &a, 1, k, &bn, n, 1, &init_tn, acc);
    assert_close(&c, &want, &format!("naive TN {m}x{k}x{n} acc={acc}"));
}

#[test]
fn model_shapes_match_reference() {
    // The shapes the fig8 models actually run: MLP hidden layers, the LSTM
    // gate step (batch, features+hidden) × 4·hidden, and per-head attention
    // score/value products.
    let shapes = [
        (64, 32, 32),  // MLP hidden
        (64, 32, 64),  // MLP expand
        (8, 80, 256),  // LSTM gates
        (64, 8, 64),   // attention scores (per head)
        (64, 64, 8),   // attention values (per head)
        (4, 2048, 64), // token embedding on flattened cubes
    ];
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        check_all_layouts(m, k, n, 0x5151_0000 + i as u64, false);
        check_all_layouts(m, k, n, 0x5252_0000 + i as u64, true);
        check_naive_layouts(m, k, n, 0x5353_0000 + i as u64, false);
        check_naive_layouts(m, k, n, 0x5454_0000 + i as u64, true);
    }
}

#[test]
fn ragged_tail_shapes_match_reference() {
    // Primes and off-by-one sizes around MR = 6 / NR = 8 / KC boundaries.
    let shapes = [
        (1, 1, 1),
        (7, 13, 9),
        (6, 8, 8),
        (5, 7, 7),
        (13, 1, 17),
        (1, 300, 1),
        (11, 257, 23),
        (97, 3, 101),
    ];
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        check_all_layouts(m, k, n, 0x7171_0000 + i as u64, false);
        check_all_layouts(m, k, n, 0x7272_0000 + i as u64, true);
    }
}

/// The three layouts as `(m, k, n, ars, acs, brs, bcs, a_len, b_len)` over
/// logical `C (m,n) = A (m,k) · B (k,n)`, for stored dims `(m, k, n)`.
fn strided_layouts(m: usize, k: usize, n: usize) -> [[usize; 9]; 3] {
    [
        [m, k, n, k, 1, n, 1, m * k, k * n], // NN
        [m, k, n, k, 1, 1, k, m * k, n * k], // NT: B stored (n, k)
        [k, m, n, 1, k, n, 1, m * k, m * n], // TN: A stored (m, k), reduce over m
    ]
}

/// Pack-free and packed drivers on the same operands, all three layouts:
/// the results must be the same bits (same `k` order, same two accumulators),
/// whichever micro-tile edges the shape leaves ragged.
fn check_pack_free_bitwise(m: usize, k: usize, n: usize, seed: u64, acc: bool) {
    for (li, [lm, lk, ln, ars, acs, brs, bcs, a_len, b_len]) in
        strided_layouts(m, k, n).into_iter().enumerate()
    {
        let a = pseudo(seed ^ li as u64, a_len, 1.0);
        let b = pseudo(seed ^ 0xB0 ^ li as u64, b_len, 1.0);
        let init = pseudo(seed ^ 0xC0, lm * ln, 1.0);
        let mut packed = init.clone();
        gemm::gemm_packed(&mut packed, lm, lk, ln, &a, ars, acs, &b, brs, bcs, acc);
        let mut free = init.clone();
        gemm::gemm_pack_free(&mut free, lm, lk, ln, &a, ars, acs, &b, brs, bcs, acc);
        for (i, (p, f)) in packed.iter().zip(&free).enumerate() {
            assert_eq!(
                p.to_bits(),
                f.to_bits(),
                "layout {li} {lm}x{lk}x{ln} acc={acc} element {i}: packed {p} vs pack-free {f}"
            );
        }
    }
}

#[test]
fn pack_free_matches_packed_bitwise_on_edge_shapes() {
    // k = 1, odd k, m % 6 and n % 8 ragged and exact, B readable in place
    // (n % 8 == 0) and not, the model's own products, and k at the KC limit.
    let shapes = [
        (1, 1, 1),
        (6, 1, 8),
        (7, 1, 9),
        (5, 7, 7),
        (13, 3, 17),
        (12, 33, 16),
        (64, 32, 32),
        (64, 32, 64),
        (64, 64, 32),
        (64, 5, 32),
        (32, 64, 32),
        (37, 256, 24),
        (3, 255, 5),
    ];
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        check_pack_free_bitwise(m, k, n, 0x8181_0000 + i as u64, false);
        check_pack_free_bitwise(m, k, n, 0x8282_0000 + i as u64, true);
    }
}

/// The FMA tiers of the pack-free driver this CPU runs; the lines printed
/// say which ones a run covered. (Without FMA the packed driver runs the
/// portable tile, which no other tier matches bit for bit.)
fn fma_tiers() -> Vec<Tier> {
    [Tier::Avx512, Tier::Avx2]
        .into_iter()
        .filter(|&tier| {
            let runs = tier.available();
            let verdict = if runs {
                "checked"
            } else {
                "skipped: not supported by this CPU"
            };
            println!("pack-free tier {tier:?}: {verdict}");
            runs
        })
        .collect()
}

#[test]
fn pack_free_tiers_match_packed_bitwise() {
    // Each tier against the packed driver, whose 8-wide AVX2 tile every
    // tier's per-element sequence matches: rows across the 6- and 8-row
    // tiles, columns across the 8- and 16-wide panels (in place, masked,
    // and the 8-wide tail), `k` odd, even and at the `KC` limit.
    let tiers = fma_tiers();
    for m in 1..=13 {
        for n in [1, 5, 8, 15, 16, 17, 32, 33, 64] {
            for k in [1, 2, 5, 32, 255, 256] {
                let seed = ((m * 1000 + n) * 1000 + k) as u64;
                for acc in [false, true] {
                    for (li, [lm, lk, ln, ars, acs, brs, bcs, a_len, b_len]) in
                        strided_layouts(m, k, n).into_iter().enumerate()
                    {
                        let a = pseudo(seed ^ li as u64, a_len, 1.0);
                        let b = pseudo(seed ^ 0xB0 ^ li as u64, b_len, 1.0);
                        let init = pseudo(seed ^ 0xC0, lm * ln, 1.0);
                        let mut packed = init.clone();
                        gemm::gemm_packed(&mut packed, lm, lk, ln, &a, ars, acs, &b, brs, bcs, acc);
                        for &tier in &tiers {
                            let mut free = init.clone();
                            gemm::gemm_pack_free_with(
                                tier, &mut free, lm, lk, ln, &a, ars, acs, &b, brs, bcs, acc,
                            );
                            let same = packed
                                .iter()
                                .zip(&free)
                                .all(|(p, f)| p.to_bits() == f.to_bits());
                            assert!(same, "{tier:?} layout {li} {lm}x{lk}x{ln} acc={acc}: bits differ from packed");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn nan_reaches_the_output_through_every_pack_free_tier() {
    for tier in fma_tiers().into_iter().chain([Tier::Portable]) {
        for (m, k, n) in [
            (1, 1, 1),
            (13, 9, 17),
            (64, 32, 32),
            (8, 256, 33),
            (5, 3, 5),
        ] {
            for (li, [lm, lk, ln, ars, acs, brs, bcs, a_len, b_len]) in
                strided_layouts(m, k, n).into_iter().enumerate()
            {
                for acc in [false, true] {
                    for nan_in_a in [true, false] {
                        // The NaN-free operand is all zeros: `0 · NaN` is NaN.
                        let mut a = vec![0.0f32; a_len];
                        let mut b = vec![0.0f32; b_len];
                        if nan_in_a {
                            a[a_len / 2] = f32::NAN;
                        } else {
                            b[b_len / 2] = f32::NAN;
                        }
                        let mut c = vec![1.0f32; lm * ln];
                        gemm::gemm_pack_free_with(
                            tier, &mut c, lm, lk, ln, &a, ars, acs, &b, brs, bcs, acc,
                        );
                        assert!(
                            c.iter().any(|v| v.is_nan()),
                            "{tier:?} layout {li} {lm}x{lk}x{ln} acc={acc} nan_in_a={nan_in_a}: \
                             NaN did not reach C"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn nan_in_either_operand_reaches_the_output() {
    // A zero opposite the NaN is the case that matters: `0 · NaN` is NaN,
    // and a kernel that skips zero terms hides a diverged gradient. Shapes
    // cover the naive escapes (m < MR; reduction < 8) and the tiled drivers.
    type Kernel = fn(&mut [f32], &[f32], &[f32], usize, usize, usize, bool);
    for &(m, k, n) in &[
        (1, 32, 32),
        (4, 5, 3),
        (64, 32, 32),
        (13, 9, 17),
        (130, 300, 20),
    ] {
        // Per layout: the dispatching and the naive kernel, then the stored
        // lengths of A, B and C.
        let layouts: [(&str, [Kernel; 2], [usize; 3]); 3] = [
            (
                "NN",
                [gemm::matmul_into, gemm::naive_matmul_into],
                [m * k, k * n, m * n],
            ),
            (
                "NT",
                [gemm::matmul_nt_into, gemm::naive_matmul_nt_into],
                [m * k, n * k, m * n],
            ),
            (
                "TN",
                [gemm::matmul_tn_into, gemm::naive_matmul_tn_into],
                [m * k, m * n, k * n],
            ),
        ];
        for (name, kernels, [a_len, b_len, c_len]) in layouts {
            for (which, kernel) in kernels.into_iter().enumerate() {
                for acc in [false, true] {
                    for nan_in_a in [true, false] {
                        // The NaN-free operand is all zeros.
                        let mut a = vec![0.0f32; a_len];
                        let mut b = vec![0.0f32; b_len];
                        if nan_in_a {
                            a[a_len / 2] = f32::NAN;
                        } else {
                            b[b_len / 2] = f32::NAN;
                        }
                        let mut c = vec![1.0f32; c_len];
                        kernel(&mut c, &a, &b, m, k, n, acc);
                        assert!(
                            c.iter().any(|v| v.is_nan()),
                            "{name} kernel {which} {m}x{k}x{n} acc={acc} nan_in_a={nan_in_a}: \
                             NaN did not reach C"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn nan_activation_surfaces_as_non_finite_loss() {
    // The trainer's divergence check reads the loss: a NaN anywhere in
    // an activation must reach it through each nonlinear op.
    type Build = fn(&mut Tape, Var) -> Var;
    let ops: [(&str, Build); 3] = [
        ("tanh", |t, x| t.tanh(x)),
        ("softmax_rows", |t, x| t.softmax_rows(x)),
        ("layer_norm", |t, x| {
            let g = t.leaf(vec![1.0; 12], (1, 12));
            let b = t.leaf(vec![0.0; 12], (1, 12));
            t.layer_norm(x, g, b)
        }),
    ];
    for (name, build) in ops {
        let mut data: Vec<f32> = (0..36).map(|i| i as f32 * 0.1 - 1.0).collect();
        data[17] = f32::NAN;
        let mut t = Tape::new();
        let x = t.leaf(data, (3, 12));
        let y = build(&mut t, x);
        let loss = t.mse_loss(y, &[0.0; 36]);
        assert!(!t.value(loss)[0].is_finite(), "{name} swallowed a NaN");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_matches_reference_on_random_shapes(
        (m, k, n, seed, acc_bit) in (1usize..40, 1usize..40, 1usize..40, 0u64..u64::MAX, 0u8..2)
    ) {
        check_all_layouts(m, k, n, seed, acc_bit == 1);
    }

    #[test]
    fn pack_free_matches_packed_bitwise_on_random_shapes(
        (m, k, n, seed, acc_bit) in (1usize..40, 1usize..40, 1usize..40, 0u64..u64::MAX, 0u8..2)
    ) {
        check_pack_free_bitwise(m, k, n, seed, acc_bit == 1);
    }

    #[test]
    fn naive_matches_reference_on_random_shapes(
        (m, k, n, seed, acc_bit) in (1usize..24, 1usize..24, 1usize..24, 0u64..u64::MAX, 0u8..2)
    ) {
        check_naive_layouts(m, k, n, seed, acc_bit == 1);
    }
}
