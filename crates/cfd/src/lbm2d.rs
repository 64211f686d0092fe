//! D2Q9 lattice-Boltzmann solver for unsteady flow over a cylinder.
//!
//! This is the substrate for the paper's **OF2D** dataset (OpenFOAM 2D
//! laminar flow over a cylinder at Re ≈ 1267). The solver uses BGK collision,
//! half-way bounce-back on the cylinder, an equilibrium velocity inlet, a
//! zero-gradient outlet, and periodic crosswise boundaries; drag and lift on
//! the cylinder are measured by momentum exchange, giving the scalar
//! regression target the paper's LSTM surrogate predicts.
//!
//! The default Reynolds number is 150 — comfortably in the periodic
//! vortex-shedding regime that makes the dataset interesting for sampling
//! (a strongly anisotropic wake over a quiescent free stream), while staying
//! stable for the single-relaxation-time collision operator at modest grid
//! sizes. The paper's conclusions depend on the wake/free-stream contrast,
//! not the precise Re (see DESIGN.md).
//!
//! Distribution functions are stored cell-major (`f[cell * 9 + dir]`) so
//! collision is a perfectly parallel pass over cells and streaming reads are
//! local per cell.

use rayon::prelude::*;
use sickle_field::derived::vorticity_2d;
use sickle_field::{Grid3, Snapshot};
use sickle_simd::Kernel;

/// D2Q9 lattice x-velocities.
pub const EX: [i32; 9] = [0, 1, 0, -1, 0, 1, -1, -1, 1];
/// D2Q9 lattice y-velocities.
pub const EY: [i32; 9] = [0, 0, 1, 0, -1, 1, 1, -1, -1];
/// D2Q9 quadrature weights.
pub const W: [f64; 9] = [
    4.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
];
/// Index of the direction opposite to `i`.
pub const OPP: [usize; 9] = [0, 3, 4, 1, 2, 7, 8, 5, 6];

/// Configuration for the cylinder-flow solver.
#[derive(Clone, Copy, Debug)]
pub struct LbmConfig {
    /// Lattice points along the streamwise (x) direction.
    pub nx: usize,
    /// Lattice points along the crosswise (y) direction.
    pub ny: usize,
    /// Inlet velocity in lattice units (keep ≤ 0.15 for accuracy).
    pub u_inlet: f64,
    /// Reynolds number based on cylinder diameter.
    pub reynolds: f64,
    /// Cylinder diameter in lattice units.
    pub diameter: f64,
    /// Cylinder center as a fraction of the domain, e.g. (0.25, 0.5).
    pub center_frac: (f64, f64),
}

impl Default for LbmConfig {
    fn default() -> Self {
        LbmConfig {
            nx: 240,
            ny: 96,
            u_inlet: 0.1,
            reynolds: 150.0,
            diameter: 12.0,
            center_frac: (0.25, 0.5),
        }
    }
}

/// A running lattice-Boltzmann cylinder-flow simulation.
pub struct CylinderFlow {
    cfg: LbmConfig,
    /// Distribution functions, cell-major: `f[cell * 9 + dir]`.
    f: Vec<f64>,
    /// Scratch buffer for the streamed state.
    f_new: Vec<f64>,
    /// Solid mask (true inside the cylinder).
    solid: Vec<bool>,
    /// BGK relaxation time.
    tau: f64,
    /// Periodic `y - 1` neighbor per row (the fused kernel's replacement for
    /// per-population `rem_euclid`).
    ym: Vec<usize>,
    /// Periodic `y + 1` neighbor per row.
    yp: Vec<usize>,
    /// Per-x-slab momentum-exchange partials, reused every step so the fused
    /// pass allocates nothing; summed serially in x order, which keeps the
    /// reduction order identical to the naive path's per-slab collect.
    slab_forces: Vec<(f64, f64)>,
    /// True where column `x` contains at least one solid cell: columns whose
    /// 3-column neighborhood is all-fluid stream via branch-free rotated
    /// column copies.
    col_solid: Vec<bool>,
    step_count: usize,
    drag: f64,
    lift: f64,
}

/// BGK equilibrium distribution for direction `i`.
#[inline]
fn equilibrium(i: usize, rho: f64, u: f64, v: f64) -> f64 {
    let eu = EX[i] as f64 * u + EY[i] as f64 * v;
    let usq = u * u + v * v;
    W[i] * rho * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * usq)
}

/// Collides one x-slab of `f` into a direction-major (SoA) window slab
/// (`w[i * ny + y]`), leaving solid cells untouched (their window entries
/// are never read — solid sources stream via bounce-back). Quads of four
/// consecutive all-fluid cells go through the AVX2 path, which evaluates
/// the same FP expression sequence per lane and is therefore bit-identical
/// to the scalar collision.
fn collide_slab_into(f: &[f64], solid: &[bool], tau_inv: f64, ny: usize, x: usize, w: &mut [f64]) {
    let base = x * ny;
    let mut y = 0;
    #[cfg(target_arch = "x86_64")]
    if sickle_simd::fma_available() {
        while y + 4 <= ny {
            if solid[base + y..base + y + 4].iter().any(|&s| s) {
                for q in y..y + 4 {
                    if !solid[base + q] {
                        collide_cell_into(f, base + q, tau_inv, w, ny, q);
                    }
                }
            } else {
                // SAFETY: avx2 verified; cells base+y .. base+y+4 are in
                // bounds and all fluid; w holds 9*ny values.
                unsafe { collide_quad_avx2(f, base + y, tau_inv, w, ny, y) };
            }
            y += 4;
        }
    }
    for q in y..ny {
        if !solid[base + q] {
            collide_cell_into(f, base + q, tau_inv, w, ny, q);
        }
    }
}

/// Scalar BGK collision of cell `idx` into window row `y` (exact naive
/// expressions).
#[inline]
fn collide_cell_into(f: &[f64], idx: usize, tau_inv: f64, w: &mut [f64], ny: usize, y: usize) {
    let fc = &f[idx * 9..idx * 9 + 9];
    let mut rho = 0.0;
    let mut mu = 0.0;
    let mut mv = 0.0;
    for i in 0..9 {
        rho += fc[i];
        mu += fc[i] * EX[i] as f64;
        mv += fc[i] * EY[i] as f64;
    }
    let u = mu / rho;
    let v = mv / rho;
    for i in 0..9 {
        let fi = fc[i];
        w[i * ny + y] = fi + tau_inv * (equilibrium(i, rho, u, v) - fi);
    }
}

/// Four-cell BGK collision: cells `idx .. idx+4` (cell-major `f`) collide
/// into window rows `y .. y+4`. Every vector op mirrors the scalar
/// expression order — separate mul/add (no FMA contraction), the same
/// 9-term moment chains including the multiply-by-zero terms — so each lane
/// reproduces the scalar collision bit for bit. The gains come from doing
/// four cells per instruction and from the contiguous SoA stores.
///
/// # Safety
/// Caller must have verified `avx2` support; `f` must hold cells
/// `idx..idx+4` and `w` at least `9 * ny` values with `y + 4 <= ny`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn collide_quad_avx2(
    f: &[f64],
    idx: usize,
    tau_inv: f64,
    w: &mut [f64],
    ny: usize,
    y: usize,
) {
    use std::arch::x86_64::*;
    let p = f.as_ptr().add(idx * 9);
    // Direction i of cells 0..4 sits at f64 offsets i, i+9, i+18, i+27
    // (set_pd takes lanes high-to-low).
    let ld = |i: usize| _mm256_set_pd(*p.add(27 + i), *p.add(18 + i), *p.add(9 + i), *p.add(i));
    let fv = [
        ld(0),
        ld(1),
        ld(2),
        ld(3),
        ld(4),
        ld(5),
        ld(6),
        ld(7),
        ld(8),
    ];
    let zero = _mm256_setzero_pd();
    let mut rho = zero;
    let mut mu = zero;
    let mut mv = zero;
    for i in 0..9 {
        rho = _mm256_add_pd(rho, fv[i]);
        mu = _mm256_add_pd(mu, _mm256_mul_pd(fv[i], _mm256_set1_pd(EX[i] as f64)));
        mv = _mm256_add_pd(mv, _mm256_mul_pd(fv[i], _mm256_set1_pd(EY[i] as f64)));
    }
    let u = _mm256_div_pd(mu, rho);
    let v = _mm256_div_pd(mv, rho);
    let usq = _mm256_add_pd(_mm256_mul_pd(u, u), _mm256_mul_pd(v, v));
    let one = _mm256_set1_pd(1.0);
    let c3 = _mm256_set1_pd(3.0);
    let c45 = _mm256_set1_pd(4.5);
    let c15 = _mm256_set1_pd(1.5);
    let tinv = _mm256_set1_pd(tau_inv);
    let wp = w.as_mut_ptr();
    for i in 0..9 {
        let eu = _mm256_add_pd(
            _mm256_mul_pd(_mm256_set1_pd(EX[i] as f64), u),
            _mm256_mul_pd(_mm256_set1_pd(EY[i] as f64), v),
        );
        // ((1 + 3*eu) + (4.5*eu)*eu) - 1.5*usq, matching scalar associativity.
        let inner = _mm256_sub_pd(
            _mm256_add_pd(
                _mm256_add_pd(one, _mm256_mul_pd(c3, eu)),
                _mm256_mul_pd(_mm256_mul_pd(c45, eu), eu),
            ),
            _mm256_mul_pd(c15, usq),
        );
        let feq = _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(W[i]), rho), inner);
        let fi = fv[i];
        let res = _mm256_add_pd(fi, _mm256_mul_pd(tinv, _mm256_sub_pd(feq, fi)));
        _mm256_storeu_pd(wp.add(i * ny + y), res);
    }
}

impl CylinderFlow {
    /// Initializes the flow field at uniform inlet velocity with a tiny
    /// deterministic crosswise perturbation that triggers vortex shedding.
    ///
    /// # Panics
    /// Panics if the configuration yields an unstable relaxation time.
    pub fn new(cfg: LbmConfig) -> Self {
        let n = cfg.nx * cfg.ny;
        let nu = cfg.u_inlet * cfg.diameter / cfg.reynolds;
        let tau = 3.0 * nu + 0.5;
        assert!(
            tau > 0.505,
            "relaxation time {tau:.4} too close to 1/2; increase diameter or lower Re"
        );
        let cx = cfg.center_frac.0 * cfg.nx as f64;
        let cy = cfg.center_frac.1 * cfg.ny as f64;
        let r = cfg.diameter / 2.0;
        let mut solid = vec![false; n];
        for x in 0..cfg.nx {
            for y in 0..cfg.ny {
                let dx = x as f64 - cx;
                let dy = y as f64 - cy;
                if dx * dx + dy * dy <= r * r {
                    solid[x * cfg.ny + y] = true;
                }
            }
        }
        let mut f = vec![0.0; n * 9];
        for x in 0..cfg.nx {
            for y in 0..cfg.ny {
                let idx = x * cfg.ny + y;
                let pert = 1e-3 * ((y as f64 / cfg.ny as f64) * std::f64::consts::TAU).sin();
                for i in 0..9 {
                    f[idx * 9 + i] = equilibrium(i, 1.0, cfg.u_inlet, pert);
                }
            }
        }
        let f_new = f.clone();
        let col_solid: Vec<bool> = (0..cfg.nx)
            .map(|x| solid[x * cfg.ny..(x + 1) * cfg.ny].iter().any(|&s| s))
            .collect();
        CylinderFlow {
            cfg,
            f,
            f_new,
            solid,
            tau,
            ym: (0..cfg.ny).map(|y| (y + cfg.ny - 1) % cfg.ny).collect(),
            yp: (0..cfg.ny).map(|y| (y + 1) % cfg.ny).collect(),
            slab_forces: vec![(0.0, 0.0); cfg.nx],
            col_solid,
            step_count: 0,
            drag: 0.0,
            lift: 0.0,
        }
    }

    /// Configuration used to build this simulation.
    pub fn config(&self) -> &LbmConfig {
        &self.cfg
    }

    /// Number of completed time steps.
    pub fn steps(&self) -> usize {
        self.step_count
    }

    /// Kinematic viscosity implied by the configuration (lattice units).
    pub fn viscosity(&self) -> f64 {
        (self.tau - 0.5) / 3.0
    }

    /// Most recent drag force on the cylinder (lattice units).
    pub fn drag(&self) -> f64 {
        self.drag
    }

    /// Most recent lift force on the cylinder (lattice units).
    pub fn lift(&self) -> f64 {
        self.lift
    }

    /// Drag coefficient `2 F_x / (ρ u² D)` with `ρ = 1`.
    pub fn drag_coefficient(&self) -> f64 {
        2.0 * self.drag / (self.cfg.u_inlet * self.cfg.u_inlet * self.cfg.diameter)
    }

    /// Advances one time step: collide, stream with bounce-back (recording
    /// momentum exchange with the cylinder), then apply inlet/outlet.
    pub fn step(&mut self) {
        self.step_with(sickle_simd::kernel());
    }

    /// [`Self::step`] with an explicit kernel choice (parity tests and
    /// benches; avoids racing on the global switch). Both variants produce
    /// bit-identical fields: the fused kernel preserves the exact FP
    /// expression order of the naive collision, streaming, and force
    /// reduction.
    #[doc(hidden)]
    pub fn step_with(&mut self, kernel: Kernel) {
        match kernel {
            Kernel::Naive => self.collide_stream_naive(),
            Kernel::Optimized => self.collide_stream_fused(),
        }
        self.apply_inlet_outlet();
        self.step_count += 1;
    }

    /// Inlet (x = 0): equilibrium at `(u_inlet, 0)`, unit density;
    /// outlet (x = nx-1): zero-gradient copy from x = nx-2.
    fn apply_inlet_outlet(&mut self) {
        let (nx, ny) = (self.cfg.nx, self.cfg.ny);
        for y in 0..ny {
            let idx = y; // x = 0
            for i in 0..9 {
                self.f[idx * 9 + i] = equilibrium(i, 1.0, self.cfg.u_inlet, 0.0);
            }
        }
        for y in 0..ny {
            let dst = (nx - 1) * ny + y;
            let src = (nx - 2) * ny + y;
            for i in 0..9 {
                self.f[dst * 9 + i] = self.f[src * 9 + i];
            }
        }
    }

    /// The pre-optimization two-pass kernel: collide in place, then a
    /// separate streaming pass (kept as the measured baseline).
    fn collide_stream_naive(&mut self) {
        let (nx, ny) = (self.cfg.nx, self.cfg.ny);
        let tau_inv = 1.0 / self.tau;
        let solid = &self.solid;

        // --- Collision (parallel over cells). ---
        self.f.par_chunks_mut(9).enumerate().for_each(|(idx, fc)| {
            if solid[idx] {
                return;
            }
            let mut rho = 0.0;
            let mut mu = 0.0;
            let mut mv = 0.0;
            for i in 0..9 {
                rho += fc[i];
                mu += fc[i] * EX[i] as f64;
                mv += fc[i] * EY[i] as f64;
            }
            let u = mu / rho;
            let v = mv / rho;
            for (i, fi) in fc.iter_mut().enumerate() {
                *fi += tau_inv * (equilibrium(i, rho, u, v) - *fi);
            }
        });

        // --- Streaming (pull) with bounce-back; accumulate body force. ---
        let f = &self.f;
        let forces: Vec<(f64, f64)> = self
            .f_new
            .par_chunks_mut(ny * 9)
            .enumerate()
            .map(|(x, slab)| {
                let mut fx = 0.0;
                let mut fy = 0.0;
                for y in 0..ny {
                    let idx = x * ny + y;
                    let out = &mut slab[y * 9..y * 9 + 9];
                    if solid[idx] {
                        // Populations inside the solid are irrelevant; keep
                        // them at equilibrium rest for numerical hygiene.
                        out.copy_from_slice(&f[idx * 9..idx * 9 + 9]);
                        continue;
                    }
                    for (i, o) in out.iter_mut().enumerate() {
                        let sx = x as i32 - EX[i];
                        let sy = (y as i32 - EY[i]).rem_euclid(ny as i32) as usize;
                        if sx < 0 || sx >= nx as i32 {
                            // Off-grid along x: keep post-collision value;
                            // the boundary pass overwrites the whole column.
                            *o = f[idx * 9 + i];
                            continue;
                        }
                        let sidx = sx as usize * ny + sy;
                        if solid[sidx] {
                            // Half-way bounce-back: the population arriving
                            // from the solid is this cell's own opposite
                            // post-collision population. Momentum-exchange
                            // force on the body: 2 f_opp e_opp.
                            let fopp = f[idx * 9 + OPP[i]];
                            *o = fopp;
                            fx += 2.0 * fopp * EX[OPP[i]] as f64;
                            fy += 2.0 * fopp * EY[OPP[i]] as f64;
                        } else {
                            *o = f[sidx * 9 + i];
                        }
                    }
                }
                (fx, fy)
            })
            .collect();
        self.drag = forces.iter().map(|p| p.0).sum();
        self.lift = forces.iter().map(|p| p.1).sum();
        std::mem::swap(&mut self.f, &mut self.f_new);
    }

    /// The fused collide+stream kernel: bands of x-slabs collide into a
    /// band-local direction-major (SoA) window — quads of four fluid cells
    /// at a time through the AVX2 path — and the streaming pull reads
    /// post-collision values straight from the window. One read of `f` and
    /// one write of `f_new` replace the naive kernel's two full passes, and
    /// the precomputed `ym`/`yp` tables replace per-population `rem_euclid`.
    /// Band boundary slabs are collided redundantly by both neighbors, which
    /// is deterministic and therefore harmless.
    fn collide_stream_fused(&mut self) {
        /// X-slabs per band: window of `BAND + 2` SoA slabs stays L2-resident
        /// at the grid sizes used (ny ≤ 128) with 12.5% redundant collisions.
        const BAND: usize = 16;
        let (nx, ny) = (self.cfg.nx, self.cfg.ny);
        let tau_inv = 1.0 / self.tau;
        let solid = &self.solid;
        let f = &self.f;
        let ym = &self.ym;
        let yp = &self.yp;
        let col_solid = &self.col_solid;

        // Per-slab force partials land in the preallocated buffer through a
        // raw pointer: each band writes only its own slab range.
        struct SendPtr(*mut (f64, f64));
        unsafe impl Send for SendPtr {}
        unsafe impl Sync for SendPtr {}
        impl SendPtr {
            #[inline]
            fn get(&self) -> *mut (f64, f64) {
                self.0
            }
        }
        let fptr = SendPtr(self.slab_forces.as_mut_ptr());

        self.f_new
            .par_chunks_mut(BAND * ny * 9)
            .enumerate()
            .for_each_init(
                || vec![0.0f64; (BAND + 2) * 9 * ny],
                |wnd, (bi, band)| {
                    let x0 = bi * BAND;
                    let nslab = band.len() / (ny * 9);
                    let w_lo = x0.saturating_sub(1);
                    let w_hi = (x0 + nslab + 1).min(nx);
                    for x in w_lo..w_hi {
                        let wslab = &mut wnd[(x - w_lo) * 9 * ny..(x - w_lo + 1) * 9 * ny];
                        collide_slab_into(f, solid, tau_inv, ny, x, wslab);
                    }
                    for dx in 0..nslab {
                        let x = x0 + dx;
                        let out_slab = &mut band[dx * ny * 9..(dx + 1) * ny * 9];
                        let mut fx_acc = 0.0;
                        let mut fy_acc = 0.0;
                        let wx = x - w_lo;
                        // Fast path: no solid cell in this column or either
                        // x-neighbor — every population streams from fluid,
                        // so the pull is nine branch-free rotated column
                        // copies out of the SoA window (and no force terms,
                        // exactly as the per-cell loop would produce).
                        let near_solid = col_solid[x.max(1) - 1]
                            || col_solid[x]
                            || col_solid[(x + 1).min(nx - 1)];
                        if !near_solid {
                            for i in 0..9 {
                                let sx = x as i32 - EX[i];
                                let src_col = if sx < 0 || sx >= nx as i32 {
                                    // Off-grid along x: keep own
                                    // post-collision value (no y shift).
                                    &wnd[(wx * 9 + i) * ny..(wx * 9 + i + 1) * ny]
                                } else {
                                    &wnd[((sx as usize - w_lo) * 9 + i) * ny
                                        ..((sx as usize - w_lo) * 9 + i + 1) * ny]
                                };
                                let shift = if sx < 0 || sx >= nx as i32 { 0 } else { EY[i] };
                                match shift {
                                    // Pull from y-1 (periodic).
                                    1 => {
                                        out_slab[i] = src_col[ny - 1];
                                        for y in 1..ny {
                                            out_slab[y * 9 + i] = src_col[y - 1];
                                        }
                                    }
                                    // Pull from y+1 (periodic).
                                    -1 => {
                                        for y in 0..ny - 1 {
                                            out_slab[y * 9 + i] = src_col[y + 1];
                                        }
                                        out_slab[(ny - 1) * 9 + i] = src_col[0];
                                    }
                                    _ => {
                                        for y in 0..ny {
                                            out_slab[y * 9 + i] = src_col[y];
                                        }
                                    }
                                }
                            }
                            // SAFETY: slab x belongs to exactly one band.
                            unsafe { *fptr.get().add(x) = (0.0, 0.0) };
                            continue;
                        }
                        for y in 0..ny {
                            let idx = x * ny + y;
                            let out = &mut out_slab[y * 9..y * 9 + 9];
                            if solid[idx] {
                                // Populations inside the solid are irrelevant;
                                // keep the (un-collided) stored values, matching
                                // the naive pass.
                                out.copy_from_slice(&f[idx * 9..idx * 9 + 9]);
                                continue;
                            }
                            for (i, o) in out.iter_mut().enumerate() {
                                let sx = x as i32 - EX[i];
                                let sy = match EY[i] {
                                    1 => ym[y],
                                    -1 => yp[y],
                                    _ => y,
                                };
                                if sx < 0 || sx >= nx as i32 {
                                    // Off-grid along x: keep own post-collision
                                    // value; the boundary pass overwrites the
                                    // whole column.
                                    *o = wnd[(wx * 9 + i) * ny + y];
                                    continue;
                                }
                                let sxu = sx as usize;
                                if solid[sxu * ny + sy] {
                                    // Half-way bounce-back with momentum
                                    // exchange, reading own post-collision
                                    // opposite population from the window.
                                    let fopp = wnd[(wx * 9 + OPP[i]) * ny + y];
                                    *o = fopp;
                                    fx_acc += 2.0 * fopp * EX[OPP[i]] as f64;
                                    fy_acc += 2.0 * fopp * EY[OPP[i]] as f64;
                                } else {
                                    *o = wnd[((sxu - w_lo) * 9 + i) * ny + sy];
                                }
                            }
                        }
                        // SAFETY: slab x belongs to exactly one band.
                        unsafe { *fptr.get().add(x) = (fx_acc, fy_acc) };
                    }
                },
            );
        self.drag = self.slab_forces.iter().map(|p| p.0).sum();
        self.lift = self.slab_forces.iter().map(|p| p.1).sum();
        std::mem::swap(&mut self.f, &mut self.f_new);
    }

    /// Advances `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Computes the macroscopic fields `(rho, u, v)`.
    pub fn macroscopic(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let n = self.cfg.nx * self.cfg.ny;
        let mut rho = vec![1.0; n];
        let mut u = vec![0.0; n];
        let mut v = vec![0.0; n];
        rho.par_iter_mut()
            .zip(u.par_iter_mut().zip(v.par_iter_mut()))
            .enumerate()
            .for_each(|(idx, (r, (uu, vv)))| {
                if self.solid[idx] {
                    *r = 1.0;
                    *uu = 0.0;
                    *vv = 0.0;
                    return;
                }
                let fc = &self.f[idx * 9..idx * 9 + 9];
                let mut rr = 0.0;
                let mut mu = 0.0;
                let mut mv = 0.0;
                for i in 0..9 {
                    rr += fc[i];
                    mu += fc[i] * EX[i] as f64;
                    mv += fc[i] * EY[i] as f64;
                }
                *r = rr;
                *uu = mu / rr;
                *vv = mv / rr;
            });
        (rho, u, v)
    }

    /// Builds a [`Snapshot`] of the current state with variables
    /// `u, v, p, wz` (pressure from the lattice equation of state
    /// `p = ρ c_s² = ρ/3`, vorticity from central differences).
    pub fn snapshot(&self, time: f64) -> Snapshot {
        let grid = Grid3::new(
            self.cfg.nx,
            self.cfg.ny,
            1,
            self.cfg.nx as f64,
            self.cfg.ny as f64,
            1.0,
        );
        let (rho, u, v) = self.macroscopic();
        let p: Vec<f64> = rho.iter().map(|&r| r / 3.0).collect();
        let wz = vorticity_2d(&grid, &u, &v);
        Snapshot::new(grid, time)
            .with_var("u", u)
            .with_var("v", v)
            .with_var("p", p)
            .with_var("wz", wz)
    }

    /// Returns the total mass on the lattice (conserved by collision and
    /// interior streaming; boundaries exchange mass with the exterior).
    pub fn total_mass(&self) -> f64 {
        self.f.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> LbmConfig {
        LbmConfig {
            nx: 60,
            ny: 32,
            u_inlet: 0.1,
            reynolds: 60.0,
            diameter: 6.0,
            ..Default::default()
        }
    }

    #[test]
    fn equilibrium_moments_are_consistent() {
        // Zeroth and first moments of f_eq must recover rho and momentum.
        let (rho, u, v) = (1.1, 0.07, -0.03);
        let mut m0 = 0.0;
        let mut m1x = 0.0;
        let mut m1y = 0.0;
        for i in 0..9 {
            let fi = equilibrium(i, rho, u, v);
            m0 += fi;
            m1x += fi * EX[i] as f64;
            m1y += fi * EY[i] as f64;
        }
        assert!((m0 - rho).abs() < 1e-12);
        assert!((m1x - rho * u).abs() < 1e-12);
        assert!((m1y - rho * v).abs() < 1e-12);
    }

    #[test]
    fn opposite_directions_are_consistent() {
        for i in 0..9 {
            assert_eq!(EX[OPP[i]], -EX[i]);
            assert_eq!(EY[OPP[i]], -EY[i]);
            assert_eq!(OPP[OPP[i]], i);
        }
        assert!((W.iter().sum::<f64>() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn simulation_stays_finite_and_positive_drag() {
        let mut sim = CylinderFlow::new(tiny_config());
        sim.run(300);
        let (rho, u, _) = sim.macroscopic();
        assert!(rho.iter().all(|v| v.is_finite() && *v > 0.0));
        assert!(u.iter().all(|v| v.is_finite()));
        // After spin-up, the cylinder must feel a downstream (positive) drag.
        assert!(sim.drag() > 0.0, "drag {}", sim.drag());
    }

    #[test]
    fn wake_is_slower_than_free_stream() {
        let cfg = tiny_config();
        let mut sim = CylinderFlow::new(cfg);
        sim.run(400);
        let (_, u, _) = sim.macroscopic();
        let cx = (cfg.center_frac.0 * cfg.nx as f64) as usize;
        let cy = (cfg.center_frac.1 * cfg.ny as f64) as usize;
        let wake = u[(cx + 5) * cfg.ny + cy];
        let free = u[(cx + 5) * cfg.ny + 2];
        assert!(wake < free, "wake u {wake} should lag free-stream u {free}");
    }

    #[test]
    fn snapshot_has_expected_variables() {
        let mut sim = CylinderFlow::new(tiny_config());
        sim.run(10);
        let snap = sim.snapshot(1.0);
        assert_eq!(snap.names, vec!["u", "v", "p", "wz"]);
        assert_eq!(snap.grid.nz, 1);
        assert_eq!(snap.num_points(), 60 * 32);
    }

    #[test]
    fn vortex_shedding_produces_oscillating_lift() {
        // At Re = 150 the wake goes unsteady; lift must change sign over a
        // long window. This is the physical feature (periodic snapshots) the
        // paper's temporal-sampling discussion relies on.
        let cfg = LbmConfig {
            nx: 160,
            ny: 64,
            u_inlet: 0.1,
            reynolds: 150.0,
            diameter: 10.0,
            ..Default::default()
        };
        let mut sim = CylinderFlow::new(cfg);
        sim.run(2000);
        let mut lifts = Vec::new();
        for _ in 0..2000 {
            sim.step();
            lifts.push(sim.lift());
        }
        let max = lifts.iter().cloned().fold(f64::MIN, f64::max);
        let min = lifts.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max > 0.0 && min < 0.0,
            "lift range [{min}, {max}] not oscillating"
        );
    }

    #[test]
    fn interior_collision_conserves_mass() {
        // One collision pass must conserve total mass exactly (streaming and
        // boundaries exchange mass, so test via two sims differing by one
        // collision only is impractical; instead verify moments directly).
        let mut sim = CylinderFlow::new(tiny_config());
        let before: f64 = sim.total_mass();
        // A single step changes mass only through inlet/outlet cells.
        sim.step();
        let after = sim.total_mass();
        let rel = ((after - before) / before).abs();
        assert!(rel < 0.05, "mass drifted {rel}");
    }
}
