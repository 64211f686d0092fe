//! Multi-dimensional real-to-complex FFTs storing only the Hermitian
//! half-spectrum.
//!
//! A real field is conjugate-symmetric in spectral space, so only the
//! coefficients with non-negative wavenumber along the contiguous axis are
//! stored: the last axis shrinks from `n` to `n/2 + 1`. This halves both the
//! arithmetic (the contiguous-axis transforms run at half length) and the
//! memory traffic of the remaining axis passes — the main win for a
//! pseudo-spectral solver whose fields are all real.
//!
//! Layout (matching [`crate::Fft3d`] on the leading axes): real
//! `index = (x * ny + y) * nz + z`, spectrum `index = (x * ny + y) * nzc + z`
//! with `nzc = nz/2 + 1`.
//!
//! ## Band-limited transforms
//!
//! A dealiasing solver only ever wants, and only ever holds, the modes with
//! `|kx|`, `|ky|` and `kz` at most some `kmax`. [`RealFft3d`] therefore has a
//! truncated pair that visits only the pencils such a spectrum can occupy:
//!
//! - [`RealFft3d::forward_truncated`] ≡ [`RealFft3d::forward`], then every
//!   mode outside the band set to zero — bit for bit inside the band;
//! - [`RealFft3d::inverse_truncated`] ≡ [`RealFft3d::inverse`] of a spectrum
//!   that is zero outside the band (the caller's obligation, checked in
//!   debug builds) — equal as `f64`s.
//!
//! Which pencils run is decided by index alone (the `Band` rule below), never
//! by looking at the data, so both kernels and both directions visit the
//! same set, and the full transforms are the `kmax >= n/2` case of the same
//! code.
//!
//! [`RealFft3d::map_truncated`] fuses the pair around a pointwise map: the
//! strided inverse passes of every input spectrum, then one pass over groups
//! of four z-rows that inverse-transforms each group's rows, maps them and
//! forward-transforms the outputs back into the same rows, then the strided
//! forward passes. It equals the three steps run on whole fields bit for
//! bit, while no physical field ever exists whole: the map runs on rows
//! still in cache, and the caller needs no physical-space buffers.
//!
//! All transforms write into caller-provided buffers and allocate no
//! field-sized scratch: the contiguous-axis passes run in groups of four
//! rows, row by row under [`Kernel::Naive`] (see [`RealFft::forward_into`])
//! and through a per-worker quad buffer of `nz/2` slots under
//! [`Kernel::Optimized`] (see [`RealFft::forward_rows_into`]); the strided
//! passes reuse the pencil machinery shared with the complex transforms.

use rayon::prelude::*;
use sickle_simd::Kernel;

use crate::complex::Complex;
use crate::nd::{transform_strided_with, Dir, SendPtr};
use crate::plan::{FftPlan, Quad};
use crate::real::RealFft;

/// Rows per group of the contiguous-axis passes: the quad kernel's width.
const GROUP: usize = 4;

/// Forward-transforms one group of up to [`GROUP`] contiguous real rows into
/// half-spectrum rows: under [`Kernel::Optimized`] an even number of them
/// through the quad kernel and a lone last row (an odd count) through the
/// single-row path, row by row under [`Kernel::Naive`]. `quad` holds `n/2`
/// slots.
fn group_forward(
    row: &RealFft,
    real: &[f64],
    spec: &mut [Complex],
    quad: &mut [Quad],
    kernel: Kernel,
) {
    let (n, nc) = (row.len(), row.spectrum_len());
    match kernel {
        Kernel::Naive => real
            .chunks(n)
            .zip(spec.chunks_mut(nc))
            .for_each(|(r, s)| row.forward_into(r, s)),
        Kernel::Optimized => {
            let rows = real.len() / (2 * n) * 2;
            let (r, lone_r) = real.split_at(rows * n);
            let (s, lone_s) = spec.split_at_mut(rows * nc);
            if rows > 0 {
                row.forward_rows_into(r, s, quad);
            }
            if !lone_r.is_empty() {
                row.forward_into(lone_r, lone_s);
            }
        }
    }
}

/// Inverse-transforms one group of up to [`GROUP`] half-spectrum rows back
/// to real rows (each scaled by `scale`), split between the kernels as in
/// [`group_forward`].
fn group_inverse(
    row: &RealFft,
    spec: &[Complex],
    real: &mut [f64],
    scale: f64,
    quad: &mut [Quad],
    kernel: Kernel,
) {
    let (n, nc) = (row.len(), row.spectrum_len());
    match kernel {
        Kernel::Naive => spec
            .chunks(nc)
            .zip(real.chunks_mut(n))
            .for_each(|(s, r)| row.inverse_into_scaled(s, r, scale)),
        Kernel::Optimized => {
            let rows = spec.len() / (2 * nc) * 2;
            let (s, lone_s) = spec.split_at(rows * nc);
            let (r, lone_r) = real.split_at_mut(rows * n);
            if rows > 0 {
                row.inverse_rows_into_scaled(s, r, quad, scale);
            }
            if !lone_s.is_empty() {
                row.inverse_into_scaled(lone_s, lone_r, scale);
            }
        }
    }
}

/// Forward-transforms contiguous real rows into half-spectrum rows, in
/// parallel over groups of [`GROUP`] rows (see [`group_forward`]).
fn rows_forward(row: &RealFft, real: &[f64], spec: &mut [Complex], kernel: Kernel) {
    let (n, nc) = (row.len(), row.spectrum_len());
    real.par_chunks(GROUP * n)
        .zip(spec.par_chunks_mut(GROUP * nc))
        .for_each_init(
            || vec![Quad::ZERO; n / 2],
            |quad, (r, s)| group_forward(row, r, s, quad, kernel),
        );
}

/// Inverse-transforms half-spectrum rows back to real rows (each scaled by
/// `scale`), in parallel over groups of [`GROUP`] rows (see
/// [`group_inverse`]).
fn rows_inverse(row: &RealFft, spec: &[Complex], real: &mut [f64], scale: f64, kernel: Kernel) {
    let (n, nc) = (row.len(), row.spectrum_len());
    spec.par_chunks(GROUP * nc)
        .zip(real.par_chunks_mut(GROUP * n))
        .for_each_init(
            || vec![Quad::ZERO; n / 2],
            |quad, (s, r)| group_inverse(row, s, r, scale, quad, kernel),
        );
}

/// The modes of an `(nx, ny, nz)` half-spectrum with `|kx|`, `|ky|` and `kz`
/// at most `kmax`. Along a two-sided axis of `n` points the kept indices are
/// `0..=kmax` and `n - kmax..n` — all of `0..n` once `2 kmax + 1 >= n`; along
/// z they are the first `zk` of each row's `nzc` coefficients.
#[derive(Clone, Copy)]
struct Band {
    kmax: usize,
    nx: usize,
    ny: usize,
    zk: usize,
    nzc: usize,
}

impl Band {
    /// Number of kept indices along a two-sided axis of `n` points.
    #[inline]
    fn count(&self, n: usize) -> usize {
        n.min(self.kmax.saturating_mul(2).saturating_add(1))
    }

    /// The `ord`-th kept index of such an axis, in increasing order.
    #[inline]
    fn index(&self, n: usize, ord: usize) -> usize {
        if ord <= self.kmax {
            ord
        } else {
            ord + n - self.count(n)
        }
    }

    /// Whether index `i < n` of such an axis is kept.
    #[inline]
    fn holds(&self, n: usize, i: usize) -> bool {
        i.min(n - i) <= self.kmax
    }

    /// How many leading coefficients of half-spectrum row `x * ny + y` are
    /// inside the band: `zk` where `kx` and `ky` are kept, none elsewhere.
    #[inline]
    fn kept_prefix(&self, row: usize) -> usize {
        if self.holds(self.nx, row / self.ny) && self.holds(self.ny, row % self.ny) {
            self.zk
        } else {
            0
        }
    }

    /// Whether the band is the whole spectrum.
    fn keeps_all(&self) -> bool {
        self.count(self.nx) == self.nx && self.count(self.ny) == self.ny && self.zk == self.nzc
    }
}

/// Plan for 3D real-to-complex FFTs of fixed shape `(nx, ny, nz)`.
#[derive(Clone, Debug)]
pub struct RealFft3d {
    nx: usize,
    ny: usize,
    nz: usize,
    row: RealFft,
    plan_x: FftPlan,
    plan_y: FftPlan,
}

impl RealFft3d {
    /// Creates a 3D real-FFT plan; all dimensions must be powers of two and
    /// `nz >= 2`.
    ///
    /// # Panics
    /// Panics if a dimension is not a power of two or `nz < 2`.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        RealFft3d {
            nx,
            ny,
            nz,
            row: RealFft::new(nz),
            plan_x: FftPlan::new(nx),
            plan_y: FftPlan::new(ny),
        }
    }

    /// Shape `(nx, ny, nz)` of the real field.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Number of real samples (`nx * ny * nz`).
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Returns true if the grid is degenerate.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stored coefficients along the contiguous axis (`nz/2 + 1`).
    pub fn nzc(&self) -> usize {
        self.row.spectrum_len()
    }

    /// Number of stored half-spectrum coefficients (`nx * ny * (nz/2 + 1)`).
    pub fn spectrum_len(&self) -> usize {
        self.nx * self.ny * self.nzc()
    }

    /// Forward transform: real field (`nx * ny * nz`) into the half-spectrum
    /// (`nx * ny * (nz/2 + 1)`).
    ///
    /// # Panics
    /// Panics on buffer length mismatch.
    pub fn forward(&self, real: &[f64], spec: &mut [Complex]) {
        self.forward_with(real, spec, sickle_simd::kernel());
    }

    /// Inverse transform back to a real field (normalized so that
    /// `inverse(forward(x)) == x`). **Destroys** `spec`, which doubles as the
    /// workspace for the strided passes — callers that need to keep the
    /// spectrum must copy it first.
    ///
    /// # Panics
    /// Panics on buffer length mismatch.
    pub fn inverse(&self, spec: &mut [Complex], real: &mut [f64]) {
        self.inverse_with(spec, real, sickle_simd::kernel());
    }

    /// [`Self::forward`] followed by zeroing every mode with `|kx|`, `|ky|`
    /// or `kz` above `kmax`: bit-identical to that inside the band, exact
    /// `0.0` outside, at the cost of only the pencils the band keeps.
    ///
    /// # Panics
    /// Panics on buffer length mismatch.
    pub fn forward_truncated(&self, real: &[f64], spec: &mut [Complex], kmax: usize) {
        self.forward_truncated_with(real, spec, kmax, sickle_simd::kernel());
    }

    /// [`Self::inverse`] for a spectrum that is zero at every mode with
    /// `|kx|`, `|ky|` or `kz` above `kmax` (checked in debug builds only):
    /// the same real field, `==` value for value, without transforming the
    /// pencils that hold nothing. **Destroys** `spec` like [`Self::inverse`].
    ///
    /// # Panics
    /// Panics on buffer length mismatch.
    pub fn inverse_truncated(&self, spec: &mut [Complex], real: &mut [f64], kmax: usize) {
        self.inverse_truncated_with(spec, real, kmax, sickle_simd::kernel());
    }

    /// [`Self::forward`] with an explicit kernel choice (parity tests and
    /// benches; avoids racing on the global switch).
    #[doc(hidden)]
    pub fn forward_with(&self, real: &[f64], spec: &mut [Complex], kernel: Kernel) {
        self.forward_truncated_with(real, spec, usize::MAX, kernel);
    }

    /// [`Self::inverse`] with an explicit kernel choice.
    #[doc(hidden)]
    pub fn inverse_with(&self, spec: &mut [Complex], real: &mut [f64], kernel: Kernel) {
        self.inverse_truncated_with(spec, real, usize::MAX, kernel);
    }

    fn assert_shapes(&self, real: &[f64], spec: &[Complex]) {
        assert_eq!(real.len(), self.len(), "real buffer shape mismatch");
        assert_eq!(
            spec.len(),
            self.spectrum_len(),
            "spectrum buffer shape mismatch"
        );
    }

    fn band(&self, kmax: usize) -> Band {
        let nzc = self.nzc();
        Band {
            kmax,
            nx: self.nx,
            ny: self.ny,
            zk: nzc.min(kmax.saturating_add(1)),
            nzc,
        }
    }

    /// The two strided passes over the pencils `band` occupies, in the
    /// order `dir` needs: y-pencils exist for every `x` (physical on one
    /// side of the pass) and `z < zk`; x-pencils for `ky` in the band and
    /// `z < zk`.
    fn strided_passes(&self, spec: &mut [Complex], band: Band, dir: Dir, kernel: Kernel) {
        let Band { ny, zk, nzc, .. } = band;
        let slab = ny * nzc;
        let y_pencils = |j: usize| (j / zk) * slab + j % zk;
        let x_pencils = |j: usize| band.index(ny, j / zk) * nzc + j % zk;
        let (plan_x, plan_y) = (&self.plan_x, &self.plan_y);
        let (ny_total, nx_total) = (self.nx * zk, band.count(ny) * zk);
        if dir == Dir::Forward {
            transform_strided_with(plan_y, spec, ny_total, y_pencils, nzc, dir, kernel);
        }
        transform_strided_with(plan_x, spec, nx_total, x_pencils, slab, dir, kernel);
        if dir == Dir::Inverse {
            transform_strided_with(plan_y, spec, ny_total, y_pencils, nzc, dir, kernel);
        }
    }

    /// Sets every mode of `spec` outside `band` to zero.
    fn zero_outside(spec: &mut [Complex], band: Band) {
        if !band.keeps_all() {
            spec.par_chunks_mut(band.nzc)
                .enumerate()
                .for_each(|(row, s)| s[band.kept_prefix(row)..].fill(Complex::ZERO));
        }
    }

    /// Checks, in debug builds only, that `spec` is zero outside `band`.
    fn debug_assert_banded(spec: &[Complex], band: Band) {
        // Serial on purpose: the check must fail on the calling thread.
        debug_assert!(
            spec.chunks(band.nzc)
                .enumerate()
                .all(|(row, s)| s[band.kept_prefix(row)..]
                    .iter()
                    .all(|c| *c == Complex::ZERO)),
            "spectrum is not zero outside the kmax = {} band",
            band.kmax
        );
    }

    /// [`Self::forward_truncated`] with an explicit kernel choice.
    #[doc(hidden)]
    pub fn forward_truncated_with(
        &self,
        real: &[f64],
        spec: &mut [Complex],
        kmax: usize,
        kernel: Kernel,
    ) {
        self.assert_shapes(real, spec);
        let band = self.band(kmax);
        // z axis: real-to-complex on contiguous rows, in parallel.
        rows_forward(&self.row, real, spec, kernel);
        self.strided_passes(spec, band, Dir::Forward, kernel);
        // Whatever the skipped pencils were left holding, and the out-of-band
        // ends of the pencils that ran, is outside the band: zero it.
        Self::zero_outside(spec, band);
    }

    /// [`Self::inverse_truncated`] with an explicit kernel choice.
    #[doc(hidden)]
    pub fn inverse_truncated_with(
        &self,
        spec: &mut [Complex],
        real: &mut [f64],
        kmax: usize,
        kernel: Kernel,
    ) {
        self.assert_shapes(real, spec);
        let band = self.band(kmax);
        Self::debug_assert_banded(spec, band);
        self.strided_passes(spec, band, Dir::Inverse, kernel);
        // z axis: complex-to-real rows; the x/y passes above skipped their
        // 1/(nx*ny) normalization, folded into the row repack here.
        rows_inverse(&self.row, spec, real, self.row_scale(), kernel);
    }

    /// The `1/(nx*ny)` normalization the strided inverse passes skip, folded
    /// into the inverse row transforms.
    fn row_scale(&self) -> f64 {
        1.0 / (self.nx * self.ny) as f64
    }

    /// Band-limited "inverse → pointwise map → forward" over `S` spectra,
    /// without any of their physical fields ever existing whole:
    ///
    /// 1. the strided inverse passes of [`Self::inverse_truncated`] run in
    ///    place on every spectrum;
    /// 2. one parallel pass over groups of up to four z-rows: each group's
    ///    rows of every spectrum are inverse-transformed into per-worker
    ///    scratch and handed to `f`, in spectrum order, as `count * nz` reals
    ///    each (`count` ≤ 4 rows); whatever `f` leaves in the first
    ///    `outputs` of them is forward-transformed back into the same rows
    ///    of the first `outputs` spectra;
    /// 3. the strided forward passes of [`Self::forward_truncated`], and its
    ///    zeroing outside the band, run on those `outputs` spectra.
    ///
    /// Every spectrum must be zero outside the `kmax` band (checked in debug
    /// builds only). The result equals, bit for bit, `inverse_truncated` of
    /// each spectrum, `f` over the whole fields, then `forward_truncated` of
    /// the first `outputs` of them: the rows are grouped, and split between
    /// the quad and the single-row paths, exactly as in those transforms,
    /// and a row's bits do not depend on its group. Spectra from `outputs`
    /// on are **destroyed** (they hold the strided passes' intermediate).
    ///
    /// `around` runs each of the three passes: it is handed which pass and a
    /// closure to call exactly once, so a caller can time them (pass
    /// `|_, run| run()` otherwise).
    ///
    /// # Panics
    /// Panics on a spectrum length mismatch or `outputs > S`.
    pub fn map_truncated<const S: usize>(
        &self,
        specs: [&mut [Complex]; S],
        outputs: usize,
        kmax: usize,
        f: impl Fn([&mut [f64]; S]) + Sync,
        around: impl FnMut(MapPass, &mut dyn FnMut()),
    ) {
        self.map_truncated_with(specs, outputs, kmax, sickle_simd::kernel(), f, around);
    }

    /// [`Self::map_truncated`] with an explicit kernel choice.
    #[doc(hidden)]
    pub fn map_truncated_with<const S: usize>(
        &self,
        mut specs: [&mut [Complex]; S],
        outputs: usize,
        kmax: usize,
        kernel: Kernel,
        f: impl Fn([&mut [f64]; S]) + Sync,
        mut around: impl FnMut(MapPass, &mut dyn FnMut()),
    ) {
        assert!(outputs <= S, "{outputs} outputs of {S} spectra");
        for spec in &specs {
            assert_eq!(
                spec.len(),
                self.spectrum_len(),
                "spectrum buffer shape mismatch"
            );
        }
        let band = self.band(kmax);
        for spec in &specs {
            Self::debug_assert_banded(spec, band);
        }
        around(MapPass::Inverse, &mut || {
            for spec in specs.iter_mut() {
                self.strided_passes(spec, band, Dir::Inverse, kernel);
            }
        });
        around(MapPass::Rows, &mut || {
            self.rows_map(&mut specs, outputs, kernel, &f)
        });
        around(MapPass::Forward, &mut || {
            for spec in specs[..outputs].iter_mut() {
                self.strided_passes(spec, band, Dir::Forward, kernel);
                Self::zero_outside(spec, band);
            }
        });
    }

    /// Step 2 of [`Self::map_truncated_with`]: the fused row pass.
    fn rows_map<const S: usize>(
        &self,
        specs: &mut [&mut [Complex]; S],
        outputs: usize,
        kernel: Kernel,
        f: &(impl Fn([&mut [f64]; S]) + Sync),
    ) {
        let (n, nc) = (self.nz, self.nzc());
        let rows = self.nx * self.ny;
        let scale = self.row_scale();
        let ptrs: [SendPtr; S] = specs.each_mut().map(|s| SendPtr(s.as_mut_ptr()));
        (0..rows.div_ceil(GROUP)).into_par_iter().for_each_init(
            || (vec![0.0; S * GROUP * n], vec![Quad::ZERO; n / 2]),
            |(real, quad), group| {
                let first = group * GROUP;
                let count = (rows - first).min(GROUP);
                // SAFETY: every spectrum holds `rows * nc` coefficients
                // (asserted by the caller), so rows `first..first + count`
                // are in bounds; groups partition the rows, so no other
                // worker touches them, and the spectra are distinct `&mut`
                // borrows, so no two of these slices overlap.
                let mut spec_rows: [&mut [Complex]; S] = ptrs.each_ref().map(|p| unsafe {
                    std::slice::from_raw_parts_mut(p.get().add(first * nc), count * nc)
                });
                let mut chunks = real.chunks_exact_mut(GROUP * n);
                let mut fields: [&mut [f64]; S] =
                    std::array::from_fn(|_| &mut chunks.next().expect("S chunks")[..count * n]);
                for (s, r) in spec_rows.iter().zip(fields.iter_mut()) {
                    group_inverse(&self.row, s, r, scale, quad, kernel);
                }
                f(fields.each_mut().map(|r| &mut **r));
                for (r, s) in fields.iter().zip(spec_rows.iter_mut()).take(outputs) {
                    group_forward(&self.row, r, s, quad, kernel);
                }
            },
        );
    }
}

/// The pass of [`RealFft3d::map_truncated`] that its `around` argument is
/// handed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapPass {
    /// The strided inverse passes, on every spectrum.
    Inverse,
    /// The row pass: inverse rows, the pointwise map, forward rows.
    Rows,
    /// The strided forward passes and the band zeroing, on the outputs.
    Forward,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nd::Fft3d;

    fn sample_field(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| ((i * 37 % 61) as f64) * 0.25 - 7.0 + (i as f64 * 0.13).sin())
            .collect()
    }

    #[test]
    fn rfft3d_roundtrip() {
        let (nx, ny, nz) = (4, 8, 16);
        let plan = RealFft3d::new(nx, ny, nz);
        let input = sample_field(nx * ny * nz);
        let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
        plan.forward(&input, &mut spec);
        let mut back = vec![0.0; nx * ny * nz];
        plan.inverse(&mut spec, &mut back);
        for (a, b) in input.iter().zip(&back) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn rfft3d_matches_complex_fft3d() {
        let (nx, ny, nz) = (8, 4, 8);
        let rplan = RealFft3d::new(nx, ny, nz);
        let cplan = Fft3d::new(nx, ny, nz);
        let input = sample_field(nx * ny * nz);
        let mut spec = vec![Complex::ZERO; rplan.spectrum_len()];
        rplan.forward(&input, &mut spec);
        let mut full: Vec<Complex> = input.iter().map(|&x| Complex::new(x, 0.0)).collect();
        cplan.forward(&mut full);
        let nzc = nz / 2 + 1;
        for x in 0..nx {
            for y in 0..ny {
                for z in 0..nzc {
                    let got = spec[(x * ny + y) * nzc + z];
                    let want = full[(x * ny + y) * nz + z];
                    assert!(
                        (got.re - want.re).abs() < 1e-9 && (got.im - want.im).abs() < 1e-9,
                        "({x},{y},{z}): {got:?} vs {want:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn rfft3d_hermitian_redundant_half_is_recoverable() {
        // The dropped modes are conj(X[-kx, -ky, -kz]); verify one of them.
        let (nx, ny, nz) = (4, 4, 8);
        let rplan = RealFft3d::new(nx, ny, nz);
        let cplan = Fft3d::new(nx, ny, nz);
        let input = sample_field(nx * ny * nz);
        let mut spec = vec![Complex::ZERO; rplan.spectrum_len()];
        rplan.forward(&input, &mut spec);
        let mut full: Vec<Complex> = input.iter().map(|&x| Complex::new(x, 0.0)).collect();
        cplan.forward(&mut full);
        let nzc = nz / 2 + 1;
        for (x, y, z) in [(1usize, 2usize, 5usize), (3, 1, 7), (0, 3, 6)] {
            let want = full[(x * ny + y) * nz + z];
            // X[x, y, z] = conj(X[(nx-x)%nx, (ny-y)%ny, nz-z]) for z > nz/2.
            let (mx, my, mz) = ((nx - x) % nx, (ny - y) % ny, nz - z);
            let got = spec[(mx * ny + my) * nzc + mz].conj();
            assert!(
                (got.re - want.re).abs() < 1e-9 && (got.im - want.im).abs() < 1e-9,
                "({x},{y},{z}): {got:?} vs {want:?}"
            );
        }
    }
}
