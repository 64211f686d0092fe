//! Local re-simulation by diffusion relaxation.
//!
//! The "coarse + re-simulate" shard codec (see `sickle-codec`) persists only
//! a strided subset of each cube's rows and reconstructs the rest on read.
//! Reconstruction is a small boundary-value solve: the stored rows are
//! Dirichlet data, the missing rows are unknowns of a steady diffusion
//! (Laplace) problem on the cube's lattice, and a few Jacobi sweeps relax
//! the unknowns toward the harmonic interpolant. This mirrors Wu, Zaki &
//! Meneveau's database compression by local re-simulation, reduced to the
//! cheapest solver that still couples every spatial neighbor: the codec's
//! read path must cost microseconds, not solver time steps.
//!
//! [`seed_linear`] fills the unknowns first with the linear interpolant
//! along row order between the stored rows; then one of two topologies
//! relaxes them:
//!
//! - [`relax_lattice`] — full 3-D stencil for dense raster-ordered cubes
//!   (`PointMethod::Full` shards), where row `r` sits at lattice coordinate
//!   `(r / (ey*ez), (r / ez) % ey, r % ez)`.
//! - [`relax_chain`] — 1-D stencil along row order for sparse sets, where
//!   raster adjacency does not hold but neighboring rows are still the most
//!   correlated data available.
//!
//! Both relax every column of a set in one call: `values` is the set's
//! `n × k` row-major feature matrix and one mask covers all `k` columns.
//! The lattice kernel copies each column into a lattice with a `+0.0`
//! ghost border so its sweep is straight-line, vectorizable code; the
//! padding is exact (see [`relax_lattice`]). Both are deterministic: same
//! inputs, same sweeps, same bits out.

use std::ops::Range;

use sickle_simd::{fma_available, kernel, Kernel};

/// Columns of an `n`-row, row-major `values`, checked.
fn columns(values: &[f64], n: usize) -> usize {
    assert!(
        values.len().is_multiple_of(n),
        "{} values do not form {n}-row columns",
        values.len()
    );
    values.len().checked_div(n).unwrap_or(0)
}

/// Fills `dst` from column `c` of the `k`-column row-major `values`,
/// starting at row `first`.
fn gather(dst: &mut [f64], values: &[f64], k: usize, c: usize, first: usize) {
    for (d, row) in dst.iter_mut().zip(values[first * k..].chunks_exact(k)) {
        *d = row[c];
    }
}

/// Writes `src` into column `c` of `values`, starting at row `first`.
fn scatter(src: &[f64], values: &mut [f64], k: usize, c: usize, first: usize) {
    for (s, row) in src.iter().zip(values[first * k..].chunks_exact_mut(k)) {
        row[c] = *s;
    }
}

/// Seeds the rows strictly between consecutive entries of `known_rows`
/// (ascending row numbers) with the linear interpolant along row order:
/// row `r` between known rows `a < b` gets `va * (1 - t) + vb * t` per
/// column, `t = (r - a) / (b - a)` — the chain-harmonic solution, and a
/// good starting point for the lattice stencil too. `values` is row-major
/// with `k` columns; rows outside the first and last known row are left
/// as they are.
///
/// # Panics
/// Panics if `known_rows` is not ascending or names a row past the end of
/// `values`.
pub fn seed_linear(values: &mut [f64], k: usize, known_rows: &[usize]) {
    for w in known_rows.windows(2) {
        let (a, b) = (w[0], w[1]);
        let (head, tail) = values.split_at_mut(b * k);
        let (va, gap_rows) = head[a * k..].split_at_mut(k);
        let vb = &tail[..k];
        // The weight depends on the row alone: computed once per row.
        let gap = (b - a) as f64;
        for (j, row) in gap_rows.chunks_exact_mut(k.max(1)).enumerate() {
            let t = (j + 1) as f64 / gap;
            for ((v, &x), &y) in row.iter_mut().zip(&*va).zip(vb) {
                *v = x * (1.0 - t) + y * t;
            }
        }
    }
}

/// One Jacobi sweep's neighbor average on a chain: unknown `i` relaxes
/// toward the mean of `i-1` and `i+1` (one-sided at the ends).
fn chain_sweep(cur: &[f64], next: &mut [f64], known: &[bool]) {
    let n = cur.len();
    for i in 0..n {
        if known[i] {
            next[i] = cur[i];
            continue;
        }
        let mut sum = 0.0;
        let mut cnt = 0.0;
        if i > 0 {
            sum += cur[i - 1];
            cnt += 1.0;
        }
        if i + 1 < n {
            sum += cur[i + 1];
            cnt += 1.0;
        }
        next[i] = if cnt > 0.0 { sum / cnt } else { cur[i] };
    }
}

/// Relaxes the unknown rows of every column of `values` (row-major, one
/// row per entry of `known`) along the 1-D chain of row order, holding
/// `known` rows fixed as Dirichlet data. Callers seed the unknowns (e.g.
/// with a linear interpolant); `sweeps` Jacobi iterations then smooth them
/// toward the harmonic solution.
///
/// # Panics
/// Panics if `values.len()` is not a multiple of `known.len()`.
pub fn relax_chain(values: &mut [f64], known: &[bool], sweeps: usize) {
    let n = known.len();
    let k = columns(values, n);
    if sweeps == 0 {
        return;
    }
    let (mut cur, mut next) = (vec![0.0; n], vec![0.0; n]);
    for c in 0..k {
        gather(&mut cur, values, k, c, 0);
        for _ in 0..sweeps {
            chain_sweep(&cur, &mut next, known);
            std::mem::swap(&mut cur, &mut next);
        }
        scatter(&cur, values, k, c, 0);
    }
}

/// Relaxes the unknown rows of every column of `values` on a dense
/// `(ex, ey, ez)` raster-ordered lattice (x-major, z innermost — the order
/// `Hypercube::point_indices` emits), holding `known` rows fixed. `values`
/// is row-major, one row per lattice point. Each sweep replaces every
/// unknown with the mean of its face neighbors (3–6 of them at
/// faces/edges/corners), the classic Jacobi iteration for the discrete
/// Laplace equation with Dirichlet boundary data; a point with no
/// neighbors keeps its value.
///
/// # Kernel
/// Each column is copied into a lattice with a one-cell border of `+0.0`
/// ghosts, so every point reads all six neighbors with no bounds branch:
/// `0.0 + x− + x+ + y− + y+ + z− + z+`, divided by the point's real
/// neighbor count, then a mask select keeps the points that hold their
/// value (known, or no neighbors: divisor 0). A sweep is one straight-line
/// loop over the padded index range from the first interior point to the
/// last; the ghost cells inside that range have divisor 0 too, so they hold
/// their `+0.0`. The divisors are built once per call, not once per column
/// or sweep, and the two buffers swap between sweeps instead of copying.
///
/// This is bit-identical to summing only the real neighbors, in the same
/// order, starting from `+0.0`. In IEEE round-to-nearest that running sum
/// is never `−0.0`: it starts at `+0.0`, `+0.0 + −0.0 = +0.0`, and an exact
/// cancellation `a + (−a)` rounds to `+0.0`. Adding `+0.0` to any value
/// other than `−0.0` returns it unchanged (NaN stays NaN, ±∞ stays ±∞), so
/// every ghost term is an exact no-op; the divisor is the same count.
///
/// The sweep loop is compiled twice, like `sickle_simd`'s kernels: for the
/// baseline target ([`Kernel::Naive`]) and under `avx2,fma`
/// ([`Kernel::Optimized`], where the CPU has it), where LLVM runs it four
/// points to a vector. Every operation is a correctly rounded `+`, `/` or a
/// select, and Rust never reassociates or contracts them, so both builds
/// return the same bits.
///
/// # Panics
/// Panics if `known.len() != ex * ey * ez` or `values.len()` is not a
/// multiple of it.
pub fn relax_lattice(
    dims: (usize, usize, usize),
    values: &mut [f64],
    known: &[bool],
    sweeps: usize,
) {
    relax_lattice_with(dims, values, known, sweeps, kernel());
}

/// [`relax_lattice`] with an explicit kernel choice (parity tests; avoids
/// racing on the global switch).
fn relax_lattice_with(
    (ex, ey, ez): (usize, usize, usize),
    values: &mut [f64],
    known: &[bool],
    sweeps: usize,
    kernel: Kernel,
) {
    let n = ex * ey * ez;
    assert_eq!(n, known.len(), "lattice/mask size mismatch");
    let k = columns(values, n);
    if n == 0 || sweeps == 0 {
        return;
    }
    let (py, pz) = (ey + 2, ez + 2);
    // Real neighbors along one axis at coordinate `i` of extent `e`.
    let along = |i: usize, e: usize| usize::from(i > 0) + usize::from(i + 1 < e);
    // Every z-line as (padded start, first row); per padded cell, the
    // divisor: the real neighbor count of an unknown point, 0 at points
    // that hold their value and at ghosts.
    let mut lines = Vec::with_capacity(ex * ey);
    let mut div = vec![0.0f64; (ex + 2) * py * pz];
    for x in 0..ex {
        for y in 0..ey {
            let (p, i) = (((x + 1) * py + y + 1) * pz + 1, lines.len() * ez);
            lines.push((p, i));
            for z in 0..ez {
                if !known[i + z] {
                    div[p + z] = (along(x, ex) + along(y, ey) + along(z, ez)) as f64;
                }
            }
        }
    }
    let interior = lines[0].0..lines[lines.len() - 1].0 + ez;
    let relax = match kernel {
        Kernel::Naive => relax_portable,
        Kernel::Optimized => relax_optimized,
    };
    let mut cur = vec![0.0f64; div.len()];
    let mut next = cur.clone();
    for c in 0..k {
        for &(p, i) in &lines {
            gather(&mut cur[p..p + ez], values, k, c, i);
        }
        relax(
            &mut cur,
            &mut next,
            &div,
            interior.clone(),
            (py * pz, pz),
            sweeps,
        );
        for &(p, i) in &lines {
            scatter(&cur[p..p + ez], values, k, c, i);
        }
    }
}

/// `sweeps` ghost-padded Jacobi sweeps of one column over the padded index
/// range `interior`, with `(sx, sy)` the padded x and y strides; the result
/// is left in `cur`. Straight-line per point, so the loop vectorizes.
#[inline(always)]
fn relax(
    cur: &mut Vec<f64>,
    next: &mut Vec<f64>,
    div: &[f64],
    interior: Range<usize>,
    (sx, sy): (usize, usize),
    sweeps: usize,
) {
    let (lo, len) = (interior.start, interior.len());
    let div = &div[lo..lo + len];
    for _ in 0..sweeps {
        let c = &cur[lo..lo + len];
        let (xm, xp) = (&cur[lo - sx..][..len], &cur[lo + sx..][..len]);
        let (ym, yp) = (&cur[lo - sy..][..len], &cur[lo + sy..][..len]);
        let (zm, zp) = (&cur[lo - 1..][..len], &cur[lo + 1..][..len]);
        let out = &mut next[lo..lo + len];
        for i in 0..len {
            let sum = 0.0 + xm[i] + xp[i] + ym[i] + yp[i] + zm[i] + zp[i];
            let avg = sum / div[i];
            out[i] = if div[i] == 0.0 { c[i] } else { avg };
        }
        std::mem::swap(cur, next);
    }
}

/// [`relax`] compiled for the baseline target.
fn relax_portable(
    cur: &mut Vec<f64>,
    next: &mut Vec<f64>,
    div: &[f64],
    interior: Range<usize>,
    strides: (usize, usize),
    sweeps: usize,
) {
    relax(cur, next, div, interior, strides, sweeps);
}

/// The same sweeps compiled with AVX2 enabled.
///
/// # Safety
/// Caller must have verified `avx2` and `fma` CPU support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn relax_avx2(
    cur: &mut Vec<f64>,
    next: &mut Vec<f64>,
    div: &[f64],
    interior: Range<usize>,
    strides: (usize, usize),
    sweeps: usize,
) {
    relax(cur, next, div, interior, strides, sweeps);
}

/// The [`Kernel::Optimized`] arm: the AVX2 build where the CPU has it, else
/// the portable one.
fn relax_optimized(
    cur: &mut Vec<f64>,
    next: &mut Vec<f64>,
    div: &[f64],
    interior: Range<usize>,
    strides: (usize, usize),
    sweeps: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: avx2 + fma presence verified by `fma_available`.
        unsafe { relax_avx2(cur, next, div, interior, strides, sweeps) };
        return;
    }
    relax_portable(cur, next, div, interior, strides, sweeps);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-column, bounds-branching loop `relax_lattice` replaced: the
    /// reference the ghost-padded kernel must match bit for bit.
    fn relax_lattice_reference(
        (ex, ey, ez): (usize, usize, usize),
        values: &mut [f64],
        known: &[bool],
        sweeps: usize,
    ) {
        if values.is_empty() || sweeps == 0 {
            return;
        }
        let mut next = values.to_vec();
        let idx = |x: usize, y: usize, z: usize| (x * ey + y) * ez + z;
        for _ in 0..sweeps {
            for x in 0..ex {
                for y in 0..ey {
                    for z in 0..ez {
                        let i = idx(x, y, z);
                        if known[i] {
                            next[i] = values[i];
                            continue;
                        }
                        let mut sum = 0.0;
                        let mut cnt = 0.0;
                        if x > 0 {
                            sum += values[idx(x - 1, y, z)];
                            cnt += 1.0;
                        }
                        if x + 1 < ex {
                            sum += values[idx(x + 1, y, z)];
                            cnt += 1.0;
                        }
                        if y > 0 {
                            sum += values[idx(x, y - 1, z)];
                            cnt += 1.0;
                        }
                        if y + 1 < ey {
                            sum += values[idx(x, y + 1, z)];
                            cnt += 1.0;
                        }
                        if z > 0 {
                            sum += values[idx(x, y, z - 1)];
                            cnt += 1.0;
                        }
                        if z + 1 < ez {
                            sum += values[idx(x, y, z + 1)];
                            cnt += 1.0;
                        }
                        next[i] = if cnt > 0.0 { sum / cnt } else { values[i] };
                    }
                }
            }
            values.copy_from_slice(&next);
        }
    }

    /// Equal bits, or both NaN (Rust leaves NaN payloads unspecified).
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Values drawn mostly from [-4, 4], with -0.0, +0.0, ±inf and NaN
    /// mixed in at `special_pct` percent.
    fn draw(rng: &mut StdRng, special_pct: u32) -> f64 {
        if rng.gen_range(0..100u32) < special_pct {
            [-0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.gen_range(0..5usize)]
        } else {
            rng.gen_range(-4.0..4.0)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn ghost_padded_kernel_matches_reference_bits(
            (dims, cols, mask, sweeps, seed) in (
                (1usize..7, 1usize..7, 1usize..7),
                1usize..4,
                0u8..4,
                0usize..=12,
                0u64..u64::MAX,
            )
        ) {
            let (ex, ey, ez) = dims;
            let n = ex * ey * ez;
            let mut rng = StdRng::seed_from_u64(seed);
            // 0: random mask, 1: all known, 2: none known, 3: strided.
            let known: Vec<bool> = (0..n)
                .map(|i| match mask {
                    0 => rng.gen_range(0..3u32) == 0,
                    1 => true,
                    2 => false,
                    _ => i % 3 == 0,
                })
                .collect();
            let special_pct: u32 = [0, 5, 30][rng.gen_range(0..3usize)];
            let values: Vec<f64> = (0..n * cols).map(|_| draw(&mut rng, special_pct)).collect();
            let mut got = values.clone();
            relax_lattice(dims, &mut got, &known, sweeps);
            // `values` is row-major: column `c` is every `cols`-th entry.
            for c in 0..cols {
                let mut want: Vec<f64> = values.iter().skip(c).step_by(cols).copied().collect();
                relax_lattice_reference(dims, &mut want, &known, sweeps);
                let col = got.iter().skip(c).step_by(cols);
                for (i, (&g, &w)) in col.zip(&want).enumerate() {
                    prop_assert!(same(g, w), "{dims:?} col {c} point {i}: {g:e} vs {w:e}");
                }
            }
        }
    }

    #[test]
    fn portable_and_avx2_builds_agree() {
        let mut rng = StdRng::seed_from_u64(5);
        for dims in [(1, 1, 1), (2, 3, 5), (7, 1, 6), (16, 16, 16), (5, 9, 3)] {
            let n = dims.0 * dims.1 * dims.2;
            let known: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let values: Vec<f64> = (0..n * 5).map(|_| draw(&mut rng, 5)).collect();
            let mut naive = values.clone();
            let mut optimized = values;
            relax_lattice_with(dims, &mut naive, &known, 8, Kernel::Naive);
            relax_lattice_with(dims, &mut optimized, &known, 8, Kernel::Optimized);
            for (i, (&a, &b)) in naive.iter().zip(&optimized).enumerate() {
                assert!(same(a, b), "{dims:?} value {i}: {a:e} vs {b:e}");
            }
        }
    }

    #[test]
    fn seeding_is_the_row_order_interpolant() {
        let (k, rows) = (3, [0usize, 3, 6, 7, 9]);
        let mut v = vec![f64::NAN; 10 * k];
        for &r in &rows {
            for c in 0..k {
                v[r * k + c] = (r * 10 + c) as f64 * 0.3;
            }
        }
        seed_linear(&mut v, k, &rows);
        for w in rows.windows(2) {
            let (a, b) = (w[0], w[1]);
            for r in a + 1..b {
                let t = (r - a) as f64 / (b - a) as f64;
                for c in 0..k {
                    let want = v[a * k + c] * (1.0 - t) + v[b * k + c] * t;
                    assert_eq!(v[r * k + c].to_bits(), want.to_bits(), "row {r} col {c}");
                }
            }
        }
    }

    #[test]
    fn ghost_terms_never_flip_a_signed_zero() {
        // Every neighbor -0.0: the reference sums +0.0 + -0.0 + ... = +0.0,
        // so the unknowns become +0.0 / cnt = +0.0, at faces and corners
        // alike (the ghost cells must not change that).
        for dims in [(1, 1, 2), (2, 3, 1), (3, 3, 3), (1, 4, 2)] {
            let n = dims.0 * dims.1 * dims.2;
            let known: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
            let mut got = vec![-0.0; n];
            let mut want = got.clone();
            relax_lattice(dims, &mut got, &known, 3);
            relax_lattice_reference(dims, &mut want, &known, 3);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{dims:?}");
        }
    }

    #[test]
    fn chain_converges_to_linear_interpolant() {
        // Knowns at the ends of a 9-point chain; the harmonic solution in
        // 1-D is the straight line between them.
        let mut v = vec![0.0; 9];
        v[0] = 1.0;
        v[8] = 9.0;
        let mut known = vec![false; 9];
        known[0] = true;
        known[8] = true;
        relax_chain(&mut v, &known, 400);
        for (i, &x) in v.iter().enumerate() {
            assert!((x - (1.0 + i as f64)).abs() < 1e-6, "v[{i}] = {x}");
        }
    }

    #[test]
    fn knowns_are_never_touched() {
        let mut v = vec![5.0, 0.0, -3.0, 0.0, 7.0];
        let known = vec![true, false, true, false, true];
        relax_chain(&mut v, &known, 10);
        assert_eq!(v[0], 5.0);
        assert_eq!(v[2], -3.0);
        assert_eq!(v[4], 7.0);
    }

    #[test]
    fn lattice_respects_maximum_principle() {
        // Harmonic interpolants take values between the Dirichlet extremes.
        let e = 6;
        let n = e * e * e;
        let mut v = vec![0.0; n];
        let mut known = vec![false; n];
        for i in (0..n).step_by(7) {
            known[i] = true;
            v[i] = if i % 2 == 0 { -2.0 } else { 3.0 };
        }
        // Seed unknowns mid-range, then relax.
        for i in 0..n {
            if !known[i] {
                v[i] = 0.5;
            }
        }
        relax_lattice((e, e, e), &mut v, &known, 25);
        for (i, &x) in v.iter().enumerate() {
            assert!((-2.0..=3.0).contains(&x), "v[{i}] = {x} escaped bounds");
        }
    }

    #[test]
    fn lattice_reconstruction_beats_seed_error() {
        // Reconstruct a smooth field from a 7-strided subset: relaxation
        // must reduce the error of a constant-seed reconstruction a lot.
        // The stride is deliberately coprime with the edge so the knowns
        // scatter through the volume instead of aliasing onto one face.
        let e = 8;
        let n = e * e * e;
        let truth: Vec<f64> = (0..n)
            .map(|i| {
                let z = (i % e) as f64;
                let y = ((i / e) % e) as f64;
                let x = (i / (e * e)) as f64;
                (0.4 * x).sin() + (0.3 * y).cos() + 0.2 * z
            })
            .collect();
        let mut known = vec![false; n];
        for i in (0..n).step_by(7) {
            known[i] = true;
        }
        known[n - 1] = true;
        let mean = truth.iter().sum::<f64>() / n as f64;
        let mut recon: Vec<f64> = (0..n)
            .map(|i| if known[i] { truth[i] } else { mean })
            .collect();
        let seed_err: f64 = recon
            .iter()
            .zip(&truth)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        relax_lattice((e, e, e), &mut recon, &known, 40);
        let relaxed_err: f64 = recon
            .iter()
            .zip(&truth)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        assert!(
            relaxed_err < 0.2 * seed_err,
            "relaxation {relaxed_err} vs seed {seed_err}"
        );
    }

    #[test]
    fn deterministic_bits() {
        let mut a = vec![1.0, 0.0, 0.0, 4.0, 0.0, 2.0];
        let mut b = a.clone();
        let known = vec![true, false, false, true, false, true];
        relax_chain(&mut a, &known, 5);
        relax_chain(&mut b, &known, 5);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
    }
}
