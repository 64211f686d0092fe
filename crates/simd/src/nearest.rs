//! Nearest-centroid search — the assignment step of `sickle-core`'s
//! mini-batch k-means, in its fit, in `assign` and in MaxEnt's phase-1 fit
//! over cube summaries.
//!
//! One scalar formulation, written once (`search`): rows are taken in
//! blocks of [`BLOCK`], transposed so that each feature of the block is one
//! contiguous `[f64; BLOCK]`, and every centroid is visited in order. A
//! row's distance is `Σ_j (x_j − c_j)²` summed in feature order, and a
//! centroid replaces the row's best so far only when that distance is
//! strictly smaller — as a select, not a branch. So the block's lanes run
//! the same `−`, `*`, `+` and `<` as the serial search over one row,
//! independently of one another. Rust never contracts `a * b + c` into a
//! fused multiply-add and each of those operations is correctly rounded, so
//! the formulation has exactly one result per input however it is compiled.
//! It is compiled twice, like `simd::math`: for the baseline target and
//! under `#[target_feature(enable = "avx2,fma")]`, where LLVM runs the
//! block's lanes four to a vector. Portable ≡ AVX2 bit for bit by
//! construction, checked below.
//!
//! [`Kernel::Naive`] runs the portable build; [`Kernel::Optimized`] the AVX2
//! one where the CPU has it. Both return the serial search's labels and
//! distances exactly.

use crate::{fma_available, kernel, Kernel};

/// Rows searched together: four AVX2 vectors of `f64` per feature, enough
/// independent compare-and-select chains to hide their latency.
const BLOCK: usize = 16;

/// `2⁵²`: adding it to a whole number `0 ≤ c < 2⁵²` leaves `c` in the low
/// mantissa bits, so an integer subtract of the bit patterns reads it back
/// (no float→int conversion in the vector body).
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// For every row of `rows` (row-major, `dim` features each), writes the
/// index of the nearest of `centroids` (row-major, `dim` features each) to
/// `labels` and, when `dists` is given, the squared Euclidean distance to
/// it.
///
/// The result is exactly the serial search: centroids in order, distances
/// summed in feature order, a centroid taken only when strictly closer than
/// the best so far. A row whose every distance is NaN (a NaN feature, or
/// `inf − inf`) keeps label 0 at distance `+inf`. Both kernels and both
/// builds return the same bits.
///
/// # Panics
/// Panics if `dim == 0`, there is no centroid, `rows` or `centroids` is not
/// a whole number of `dim`-rows, or `labels` (or `dists`) does not have one
/// slot per row.
pub fn nearest_centroid(
    rows: &[f64],
    dim: usize,
    centroids: &[f64],
    labels: &mut [usize],
    dists: Option<&mut [f64]>,
) {
    nearest_centroid_with(rows, dim, centroids, labels, dists, kernel());
}

/// [`nearest_centroid`] with an explicit kernel choice (parity tests; avoids
/// racing on the global switch).
#[doc(hidden)]
pub fn nearest_centroid_with(
    rows: &[f64],
    dim: usize,
    centroids: &[f64],
    labels: &mut [usize],
    dists: Option<&mut [f64]>,
    kernel: Kernel,
) {
    assert!(dim > 0, "dimension must be positive");
    assert!(
        !centroids.is_empty() && centroids.len().is_multiple_of(dim),
        "centroids must be a non-empty whole number of rows"
    );
    assert!(centroids.len() / dim < 1 << 52, "too many centroids");
    assert_eq!(rows.len() % dim, 0, "rows length not a multiple of dim");
    assert_eq!(labels.len(), rows.len() / dim, "one label per row");
    if let Some(d) = &dists {
        assert_eq!(d.len(), labels.len(), "one distance per row");
    }
    match kernel {
        Kernel::Naive => search_portable(rows, dim, centroids, labels, dists),
        Kernel::Optimized => search_optimized(rows, dim, centroids, labels, dists),
    }
}

/// The search over all rows; callers have checked the shapes.
#[inline(always)]
fn search(
    rows: &[f64],
    dim: usize,
    centroids: &[f64],
    labels: &mut [usize],
    mut dists: Option<&mut [f64]>,
) {
    // `xt[j][r]`: feature `j` of the block's row `r`. Lanes past a short
    // last block hold stale values; they are computed and never stored.
    let mut xt = vec![[0.0f64; BLOCK]; dim];
    let cents = centroids.chunks_exact(dim);
    for (b, (block, labels)) in rows
        .chunks(BLOCK * dim)
        .zip(labels.chunks_mut(BLOCK))
        .enumerate()
    {
        let len = labels.len();
        for r in 0..len.min(BLOCK) {
            for (j, x) in xt.iter_mut().enumerate() {
                x[r] = block[r * dim + j];
            }
        }
        // Labels ride in `f64` lanes beside the distances, so one compare
        // mask selects both; the counter is exact far beyond any `k`.
        let mut best = [f64::INFINITY; BLOCK];
        let mut lab = [0.0f64; BLOCK];
        let mut c = 0.0;
        for cent in cents.clone() {
            let mut d = [0.0f64; BLOCK];
            for r in 0..BLOCK {
                let t = xt[0][r] - cent[0];
                d[r] = t * t;
            }
            for (x, &cj) in xt[1..].iter().zip(&cent[1..]) {
                for r in 0..BLOCK {
                    let t = x[r] - cj;
                    d[r] += t * t;
                }
            }
            for r in 0..BLOCK {
                let closer = d[r] < best[r];
                best[r] = if closer { d[r] } else { best[r] };
                lab[r] = if closer { c } else { lab[r] };
            }
            c += 1.0;
        }
        for (l, &c) in labels.iter_mut().zip(&lab) {
            *l = ((c + TWO_52).to_bits() - TWO_52.to_bits()) as usize;
        }
        if let Some(out) = dists.as_deref_mut() {
            out[b * BLOCK..b * BLOCK + len].copy_from_slice(&best[..len]);
        }
    }
}

/// The search compiled for the baseline target.
fn search_portable(
    rows: &[f64],
    dim: usize,
    centroids: &[f64],
    labels: &mut [usize],
    dists: Option<&mut [f64]>,
) {
    search(rows, dim, centroids, labels, dists);
}

/// The same search compiled with AVX2 enabled.
///
/// # Safety
/// Caller must have verified `avx2` and `fma` CPU support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn search_avx2(
    rows: &[f64],
    dim: usize,
    centroids: &[f64],
    labels: &mut [usize],
    dists: Option<&mut [f64]>,
) {
    search(rows, dim, centroids, labels, dists);
}

/// The [`Kernel::Optimized`] arm: the AVX2 build where the CPU has it, else
/// the portable one.
fn search_optimized(
    rows: &[f64],
    dim: usize,
    centroids: &[f64],
    labels: &mut [usize],
    dists: Option<&mut [f64]>,
) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: avx2 + fma presence verified by `fma_available`.
        unsafe { search_avx2(rows, dim, centroids, labels, dists) };
        return;
    }
    search_portable(rows, dim, centroids, labels, dists);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serial search, one row at a time, as k-means wrote it before the
    /// kernel existed.
    fn reference(rows: &[f64], dim: usize, centroids: &[f64]) -> (Vec<usize>, Vec<f64>) {
        rows.chunks(dim)
            .map(|row| {
                let mut best = 0;
                let mut best_d = f64::INFINITY;
                for (c, cent) in centroids.chunks(dim).enumerate() {
                    let d: f64 = row.iter().zip(cent).map(|(x, y)| (x - y) * (x - y)).sum();
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                (best, best_d)
            })
            .unzip()
    }

    type Search = fn(&[f64], usize, &[f64], &mut [usize], Option<&mut [f64]>);

    fn run(search: Search, rows: &[f64], dim: usize, centroids: &[f64]) -> (Vec<usize>, Vec<f64>) {
        let n = rows.len() / dim;
        let mut labels = vec![usize::MAX; n];
        let mut dists = vec![f64::NAN; n];
        search(rows, dim, centroids, &mut labels, Some(&mut dists));
        // Without distances the labels are the same.
        let mut alone = vec![usize::MAX; n];
        search(rows, dim, centroids, &mut alone, None);
        assert_eq!(alone, labels);
        (labels, dists)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A deterministic value stream with ties, signed zeros, NaN and ±inf.
    fn values(seed: u64, len: usize) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                match s % 23 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => 0.0,
                    4 => -0.0,
                    5 => 1.0,
                    _ => ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 8.0,
                }
            })
            .collect()
    }

    fn optimized_search(
        rows: &[f64],
        dim: usize,
        centroids: &[f64],
        labels: &mut [usize],
        dists: Option<&mut [f64]>,
    ) {
        nearest_centroid_with(rows, dim, centroids, labels, dists, Kernel::Optimized);
    }

    fn naive_search(
        rows: &[f64],
        dim: usize,
        centroids: &[f64],
        labels: &mut [usize],
        dists: Option<&mut [f64]>,
    ) {
        nearest_centroid_with(rows, dim, centroids, labels, dists, Kernel::Naive);
    }

    #[test]
    fn both_builds_match_the_serial_search_bit_for_bit() {
        // Every tail length up to three blocks, dims 1..=5, k up to 21. The
        // naive arm is the portable build; the optimized arm is the AVX2
        // build on a CPU that has it.
        let mut seed = 1;
        for dim in 1..=5 {
            for k in [1, 2, 3, 7, 20, 21] {
                for n in 0..=3 * BLOCK + 1 {
                    seed += 1;
                    let rows = values(seed, n * dim);
                    let cents = values(seed ^ 0xABCD, k * dim);
                    let (want_l, want_d) = reference(&rows, dim, &cents);
                    for search in [naive_search as Search, optimized_search] {
                        let (l, d) = run(search, &rows, dim, &cents);
                        assert_eq!(l, want_l, "labels dim {dim} k {k} n {n}");
                        assert_eq!(bits(&d), bits(&want_d), "dists dim {dim} k {k} n {n}");
                    }
                }
            }
        }
    }

    #[test]
    fn ties_nan_and_infinite_rows() {
        // Equidistant centroids go to the first; an all-NaN row and a row
        // that is infinitely far from every centroid keep label 0 at +inf;
        // a NaN centroid is never chosen.
        let cents = [f64::NAN, 1.0, -1.0, 3.0];
        let rows = [0.0, f64::NAN, f64::INFINITY, 2.0, -0.0, 1.0];
        let (labels, dists) = run(optimized_search, &rows, 1, &cents);
        assert_eq!(labels, vec![1, 0, 0, 1, 1, 1]);
        assert_eq!(dists[1], f64::INFINITY);
        assert_eq!(dists[2], f64::INFINITY);
        assert_eq!(dists[3], 1.0);
    }

    #[test]
    fn an_unaligned_window_of_a_larger_buffer() {
        let buf = values(99, 4 * (2 * BLOCK + 3) + 1);
        let rows = &buf[1..];
        let cents = values(7, 4 * 5);
        let (want_l, want_d) = reference(rows, 4, &cents);
        let (l, d) = run(optimized_search, rows, 4, &cents);
        assert_eq!(l, want_l);
        assert_eq!(bits(&d), bits(&want_d));
    }

    #[test]
    #[should_panic(expected = "one label per row")]
    fn rejects_a_short_label_buffer() {
        let mut labels = [0usize; 1];
        nearest_centroid(&[0.0, 1.0], 1, &[0.5], &mut labels, None);
    }
}
