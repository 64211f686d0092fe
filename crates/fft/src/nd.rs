//! Multi-dimensional FFTs over row-major buffers, parallelized with rayon.
//!
//! Layout: `index = (x * ny + y) * nz + z` (z contiguous).
//!
//! Transforms along non-contiguous axes gather each pencil into a scratch
//! buffer, transform it, and scatter back; pencils are processed in parallel.
//! Under [`Kernel::Optimized`] rows and pencils go four at a time through
//! the quad kernel (the `plan` module), gathered bit-reversed into the lanes
//! of one [`Quad`] buffer; a last group of one to three pencils repeats its
//! last pencil in the unused lanes, and a lone last row keeps the
//! single-row path.

use rayon::prelude::*;
use sickle_simd::Kernel;

use crate::complex::Complex;
use crate::plan::{FftPlan, Quad};

/// Direction selector used internally by the axis kernels.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Dir {
    Forward,
    Inverse,
}

pub(crate) fn transform_contiguous_with(
    plan: &FftPlan,
    data: &mut [Complex],
    dir: Dir,
    kernel: Kernel,
) {
    let n = plan.len();
    match kernel {
        Kernel::Naive => data.par_chunks_mut(n).for_each(|row| match dir {
            Dir::Forward => plan.forward(row),
            Dir::Inverse => plan.inverse_unnormalized(row),
        }),
        // Rows go through the quad kernel four at a time, gathered from and
        // scattered back to their contiguous runs. A lone last row (an odd
        // row count) keeps the single-row path.
        Kernel::Optimized => data.par_chunks_mut(4 * n).for_each_init(
            || vec![Quad::ZERO; n],
            |scratch, rows| {
                let (quad, lone) = rows.split_at_mut(rows.len() / (2 * n) * (2 * n));
                if !quad.is_empty() {
                    match dir {
                        Dir::Forward => plan.forward_rows(quad, scratch),
                        Dir::Inverse => plan.inverse_rows_unnormalized(quad, scratch),
                    }
                }
                if !lone.is_empty() {
                    match dir {
                        Dir::Forward => plan.forward(lone),
                        Dir::Inverse => plan.inverse_unnormalized(lone),
                    }
                }
            },
        ),
    }
}

/// Shared-access wrapper for disjoint-index parallelism: the pencils of
/// [`transform_strided_with`] and the row groups of
/// `RealFft3d::map_truncated`, the only places the pointer is dereferenced.
pub(crate) struct SendPtr(pub(crate) *mut Complex);
// SAFETY: the pointer is only ever moved into those two loops' workers,
// each of which dereferences it at the indices it owns alone (a pencil, or
// a group of rows; see the contracts there); `Complex` itself is `Send`.
unsafe impl Send for SendPtr {}
// SAFETY: sharing `&SendPtr` across workers exposes only `get`; the accesses
// made through the returned pointer are to disjoint index sets, so no two
// threads touch the same element.
unsafe impl Sync for SendPtr {}
impl SendPtr {
    #[inline]
    pub(crate) fn get(&self) -> *mut Complex {
        self.0
    }
}

/// Transforms `total` pencils of `plan.len()` elements spaced `stride` apart;
/// pencil `j` starts at `base_of(j)`.
///
/// The caller picks the pencils by index: the complex transforms and the
/// keep-all real ones pass every pencil of the axis, the band-limited real
/// transforms only those the band rule keeps. Nothing here looks at the
/// data, so the same pencils are visited under both kernels and in both
/// directions.
///
/// Contract: `base_of` is a pure function; pencil `j` owns the indices
/// `base_of(j) + k * stride` for `k < plan.len()`, and the index sets of
/// distinct `j < total` are disjoint (every caller in this crate passes
/// distinct starts inside one period of `stride`, or distinct
/// `(slab, offset)` pairs with the pencil confined to its slab). That each
/// pencil lies inside `data` is asserted here.
pub(crate) fn transform_strided_with(
    plan: &FftPlan,
    data: &mut [Complex],
    total: usize,
    base_of: impl Fn(usize) -> usize + Sync,
    stride: usize,
    dir: Dir,
    kernel: Kernel,
) {
    let count = plan.len();
    // Up front and on the calling thread: a panic inside the parallel region
    // would strand the pool instead of failing.
    for j in 0..total {
        let last = base_of(j) + (count - 1) * stride;
        assert!(last < data.len(), "pencil {j} out of bounds");
    }
    let ptr = SendPtr(data.as_mut_ptr());
    match kernel {
        Kernel::Naive => (0..total).into_par_iter().for_each_init(
            || vec![Complex::ZERO; count],
            |scratch, j| {
                let base = base_of(j);
                let p = ptr.get();
                // SAFETY: `base + k * stride` for `k < count` is pencil `j`'s
                // own index set: in bounds by the assert above, and touched
                // by no other `j` (the contract), so this worker has
                // exclusive access to every element it reads.
                unsafe {
                    for (k, s) in scratch.iter_mut().enumerate() {
                        *s = *p.add(base + k * stride);
                    }
                }
                match dir {
                    Dir::Forward => plan.forward(scratch),
                    Dir::Inverse => plan.inverse_unnormalized(scratch),
                }
                // SAFETY: the same indices as the gather above, still owned
                // by this pencil alone.
                unsafe {
                    for (k, s) in scratch.iter().enumerate() {
                        *p.add(base + k * stride) = *s;
                    }
                }
            },
        ),
        // Pencils four at a time through the quad kernel: the gather and
        // scatter cost the same strided traffic as four single pencils, but
        // the transform in between runs on full vector lanes. The lanes are
        // independent, so a pencil's result does not depend on its partners;
        // a last group of one to three pencils repeats its last pencil in
        // the unused lanes and stores only its own.
        Kernel::Optimized => (0..total.div_ceil(4)).into_par_iter().for_each_init(
            || vec![Quad::ZERO; count],
            |scratch, q| {
                let lanes = (total - 4 * q).min(4);
                let bases: [usize; 4] = std::array::from_fn(|l| base_of(4 * q + l.min(lanes - 1)));
                let p = ptr.get();
                // SAFETY: group `q` owns pencils `4q..4q + lanes` and no
                // other group does; each is in bounds by the assert above
                // and disjoint from every other pencil by the contract, so
                // only this worker touches these elements, and it does so
                // through `p` alone. The scatter stores each pencil once.
                unsafe {
                    let pencils: [*mut Complex; 4] = bases.map(|b| p.add(b));
                    let src = pencils.map(|l| l.cast_const());
                    let dst = &pencils[..lanes];
                    plan.transform4(
                        scratch,
                        dir == Dir::Inverse,
                        Some((src, stride)),
                        Some((dst, stride)),
                    );
                }
            },
        ),
    }
}

/// Plan for 3D complex FFTs of fixed shape `(nx, ny, nz)`.
#[derive(Clone, Debug)]
pub struct Fft3d {
    nx: usize,
    ny: usize,
    nz: usize,
    plan_x: FftPlan,
    plan_y: FftPlan,
    plan_z: FftPlan,
}

impl Fft3d {
    /// Creates a 3D plan; all dimensions must be powers of two.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Fft3d {
            nx,
            ny,
            nz,
            plan_x: FftPlan::new(nx),
            plan_y: FftPlan::new(ny),
            plan_z: FftPlan::new(nz),
        }
    }

    /// Shape `(nx, ny, nz)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Returns true if the grid is degenerate.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn run(&self, data: &mut [Complex], dir: Dir, kernel: Kernel) {
        assert_eq!(data.len(), self.len(), "buffer shape mismatch");
        // z axis: contiguous rows.
        transform_contiguous_with(&self.plan_z, data, dir, kernel);
        // y axis: stride nz, one pencil per z in each of the nx slabs.
        let (nz, slab) = (self.nz, self.ny * self.nz);
        let pencils = |j: usize| (j / nz) * slab + j % nz;
        transform_strided_with(&self.plan_y, data, self.nx * nz, pencils, nz, dir, kernel);
        // x axis: stride ny*nz, one pencil per (y, z).
        transform_strided_with(&self.plan_x, data, slab, |j| j, slab, dir, kernel);
    }

    /// In-place forward 3D transform.
    pub fn forward(&self, data: &mut [Complex]) {
        self.run(data, Dir::Forward, sickle_simd::kernel());
    }

    /// In-place inverse 3D transform (normalized by the grid size).
    pub fn inverse(&self, data: &mut [Complex]) {
        self.inverse_with(data, sickle_simd::kernel());
    }

    /// [`Self::forward`] with an explicit kernel choice (parity tests and
    /// benches; avoids racing on the global switch).
    #[doc(hidden)]
    pub fn forward_with(&self, data: &mut [Complex], kernel: Kernel) {
        self.run(data, Dir::Forward, kernel);
    }

    /// [`Self::inverse`] with an explicit kernel choice.
    #[doc(hidden)]
    pub fn inverse_with(&self, data: &mut [Complex], kernel: Kernel) {
        self.run(data, Dir::Inverse, kernel);
        let scale = 1.0 / self.len() as f64;
        data.par_iter_mut().for_each(|v| *v = v.scale(scale));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(
                (x.re - y.re).abs() < tol && (x.im - y.im).abs() < tol,
                "{x:?} != {y:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "pencil 3 out of bounds")]
    fn strided_pass_refuses_a_pencil_outside_the_buffer() {
        // Four pencils of four elements, stride 4: the last start is one
        // past where a pencil still fits.
        let mut data = vec![Complex::ZERO; 16];
        let starts = |j: usize| if j == 3 { 4 } else { j };
        let plan = FftPlan::new(4);
        transform_strided_with(&plan, &mut data, 4, starts, 4, Dir::Forward, Kernel::Naive);
    }

    #[test]
    fn fft3d_roundtrip() {
        let (nx, ny, nz) = (4, 8, 16);
        let plan = Fft3d::new(nx, ny, nz);
        let input: Vec<Complex> = (0..nx * ny * nz)
            .map(|i| Complex::new(((i * 31) % 17) as f64 - 8.0, ((i * 13) % 11) as f64))
            .collect();
        let mut data = input.clone();
        plan.forward(&mut data);
        plan.inverse(&mut data);
        assert_close(&data, &input, 1e-9);
    }

    #[test]
    fn fft3d_single_mode_peak() {
        let (nx, ny, nz) = (8, 4, 4);
        let plan = Fft3d::new(nx, ny, nz);
        let tau = 2.0 * std::f64::consts::PI;
        let (kx, ky, kz) = (3usize, 1usize, 2usize);
        let mut data = Vec::with_capacity(nx * ny * nz);
        for x in 0..nx {
            for y in 0..ny {
                for z in 0..nz {
                    let phase = tau
                        * (kx as f64 * x as f64 / nx as f64
                            + ky as f64 * y as f64 / ny as f64
                            + kz as f64 * z as f64 / nz as f64);
                    data.push(Complex::from_polar_unit(phase));
                }
            }
        }
        plan.forward(&mut data);
        let total = (nx * ny * nz) as f64;
        for x in 0..nx {
            for y in 0..ny {
                for z in 0..nz {
                    let v = data[(x * ny + y) * nz + z].abs();
                    let expect = if (x, y, z) == (kx, ky, kz) {
                        total
                    } else {
                        0.0
                    };
                    assert!((v - expect).abs() < 1e-8, "({x},{y},{z}): {v}");
                }
            }
        }
    }

    #[test]
    fn fft3d_dc_of_constant_field() {
        let plan = Fft3d::new(4, 4, 4);
        let mut data = vec![Complex::new(2.5, 0.0); 64];
        plan.forward(&mut data);
        assert!((data[0].re - 160.0).abs() < 1e-9);
        for v in &data[1..] {
            assert!(v.abs() < 1e-9);
        }
    }
}
