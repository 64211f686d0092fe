//! 3D incompressible pseudo-spectral Navier–Stokes solver.
//!
//! This is the reproduction-scale substrate for the paper's stratified
//! (**SST-P1F4**, **SST-P1F100**) and isotropic (**GESTS**) DNS datasets.
//! Like the GESTS code suite it mirrors, nonlinear terms are evaluated in
//! physical space and differentiation/time-evolution in wavenumber space,
//! with 2/3-rule dealiasing. Buoyancy follows the Boussinesq approximation:
//! a buoyancy scalar `b` is evolved with the flow, feeds back on the
//! gravity-aligned momentum component, and its restoring strength is set by
//! the Brunt–Väisälä frequency `N`.
//!
//! Time stepping is second-order Runge–Kutta (Heun) with explicit viscosity;
//! the solver enforces `ν k_max² Δt < 2` and an advective CFL check on
//! construction so misconfigured runs fail loudly instead of blowing up.
//!
//! ## Rotational-form advection
//!
//! Momentum advection is evaluated as `u × ω` with `ω̂ = i k × û`: three
//! inverse transforms for the vorticity, one pointwise cross product, three
//! forward transforms. It differs from the convective `−(u·∇)u` by the
//! gradient `∇(|u|²/2)`, which the Leray projection that ends every
//! right-hand side removes exactly, and on a state confined to the 2/3 band
//! neither form aliases into the band — so the two agree to rounding while
//! the convective form would need nine gradient transforms in place of the
//! three. The scalar has no such identity and keeps `−(u·∇)b`.
//!
//! All of a right-hand side's physical-space work is one
//! [`RealFft3d::map_truncated`] call: the band spectra of u, ω and (when
//! stratified) ∇b go to physical space a group of four z-rows at a time,
//! `u × ω` and `−(u·∇)b − N² u_g` are formed on those rows while they are in
//! cache, and only the four products come back. No physical field is ever
//! held whole.
//!
//! ## Half-spectrum storage, the band invariant and scratch arenas
//!
//! All evolved fields are real, so their spectra are Hermitian and only the
//! `kz >= 0` half is stored: each spectral field holds `n * n * (n/2 + 1)`
//! coefficients laid out as `(x * n + y) * nzc + z` with `nzc = n/2 + 1`
//! (see [`sickle_fft::RealFft3d`]). This halves the memory footprint and
//! roughly halves the transform cost per right-hand-side evaluation.
//!
//! **Every coefficient of the state with `|kx|`, `|ky|` or `kz` above
//! `kmax = n/3` is exactly zero**: the state is truncated where it enters
//! (`init_taylor_green`, `set_velocity`, `set_buoyancy`) and every
//! right-hand side leaves its band-limited forward transform that way. The
//! solver's transforms are therefore band-limited, skipping the pencils such
//! a spectrum cannot occupy, and its pointwise spectral operators touch
//! in-band modes only. That includes the RK2 stage arithmetic (`mid = state
//! + Δt k1`, `state += ½Δt k1 + ½Δt k2`) and the buoyancy feedback: one pass
//! per field over the in-band rows, which at 64³ are 30 % of the
//! half-spectrum, leaving the out-of-band coefficients at `+0.0`.
//!
//! The steady-state [`SpectralSolver::step`] performs **no field-sized heap
//! allocation**: the two RK stages, the midpoint state, and five (unstratified:
//! three) half-spectrum work buffers for ω and ∇b are preallocated once in
//! [`SpectralSolver::new`] and threaded through the right-hand-side
//! evaluation as a scratch arena (see `Scratch`); u, v, w and one gradient
//! component ride through the transform in the output stage's own buffers.
//! [`SpectralSolver::snapshot`] allocates the fields it returns and one set
//! of work buffers — it runs once per recorded frame, not once per step.
//!
//! Derivatives use a Nyquist-zeroed wavenumber line (`kd[n/2] = 0`): for a
//! real field the `+n/2` and `-n/2` contributions of an odd-order derivative
//! cancel under the real-part projection, so zeroing the bin reproduces the
//! full-complex pipeline exactly while keeping the stored half-spectrum
//! Hermitian-consistent.

#![allow(clippy::needless_range_loop)] // y/z index wavenumber tables in lockstep with chunks

use rayon::prelude::*;
use sickle_fft::{Complex, MapPass, RealFft3d};
use sickle_field::{Axis, Grid3, Snapshot};

/// Buoyancy treatment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Stratification {
    /// No active scalar: pure incompressible NS (isotropic turbulence).
    None,
    /// Boussinesq buoyancy with Brunt–Väisälä frequency `n_bv`, gravity
    /// along `gravity`.
    Boussinesq {
        /// Brunt–Väisälä frequency (restoring strength).
        n_bv: f64,
        /// Gravity axis.
        gravity: Axis,
    },
}

/// Deterministic large-scale forcing: modes with `|k| <= k_f` are rescaled
/// every step to hold their total energy at the initial value, the standard
/// trick for statistically stationary isotropic turbulence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Forcing {
    /// Forcing shell radius (in integer wavenumbers).
    pub k_f: f64,
}

/// Solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct SpectralConfig {
    /// Grid points per side (power of two; the domain is `[0, 2π)³`).
    pub n: usize,
    /// Kinematic viscosity.
    pub viscosity: f64,
    /// Buoyancy diffusivity (used when stratified).
    pub diffusivity: f64,
    /// Time step.
    pub dt: f64,
    /// Buoyancy treatment.
    pub stratification: Stratification,
    /// Optional large-scale forcing.
    pub forcing: Option<Forcing>,
}

impl Default for SpectralConfig {
    fn default() -> Self {
        SpectralConfig {
            n: 32,
            viscosity: 0.02,
            diffusivity: 0.02,
            dt: 0.01,
            stratification: Stratification::None,
            forcing: None,
        }
    }
}

/// Half-spectrum velocity (+ buoyancy) state: `n * n * (n/2 + 1)` complex
/// coefficients per component, laid out `(x * n + y) * nzc + z`.
#[derive(Clone)]
struct State {
    u: Vec<Complex>,
    v: Vec<Complex>,
    w: Vec<Complex>,
    b: Option<Vec<Complex>>,
}

impl State {
    fn zeros(slen: usize, stratified: bool) -> Self {
        State {
            u: vec![Complex::ZERO; slen],
            v: vec![Complex::ZERO; slen],
            w: vec![Complex::ZERO; slen],
            b: if stratified {
                Some(vec![Complex::ZERO; slen])
            } else {
                None
            },
        }
    }

    /// The evolved fields: `u`, `v`, `w`, then `b` when stratified.
    fn fields(&self) -> impl Iterator<Item = &Vec<Complex>> {
        [&self.u, &self.v, &self.w]
            .into_iter()
            .chain(self.b.as_ref())
    }

    /// [`Self::fields`], mutably.
    fn fields_mut(&mut self) -> impl Iterator<Item = &mut Vec<Complex>> {
        [&mut self.u, &mut self.v, &mut self.w]
            .into_iter()
            .chain(self.b.as_mut())
    }
}

/// Preallocated half-spectrum work buffers threaded through the
/// right-hand-side evaluation so that steady-state stepping never allocates
/// field-sized memory: the band spectra of the vorticity and, when
/// stratified, of two buoyancy-gradient components (the third rides in the
/// output state's `b`). No physical-space field is ever held whole.
struct Scratch {
    omega: [Vec<Complex>; 3],
    grad: Option<[Vec<Complex>; 2]>,
}

impl Scratch {
    fn new(slen: usize, stratified: bool) -> Self {
        let field = || vec![Complex::ZERO; slen];
        Scratch {
            omega: [field(), field(), field()],
            grad: stratified.then(|| [field(), field()]),
        }
    }
}

/// Immutable per-run context: configuration, transform plan, wavenumber
/// tables, and the dealiasing cutoff. Split from the mutable state so the
/// borrow checker can hand `rhs_into` the context, one state, the scratch
/// arena, and an output state simultaneously.
struct SolverCtx {
    cfg: SpectralConfig,
    rfft: RealFft3d,
    /// Integer wavenumber along each axis for each 1D index (`+n/2` at the
    /// Nyquist bin); used for `k²` magnitudes and shell masks.
    kline: Vec<f64>,
    /// Derivative wavenumbers: same as `kline` but zero at the Nyquist bin,
    /// so odd-order spectral derivatives of real fields stay Hermitian.
    kd: Vec<f64>,
    /// The 2/3-rule cutoff `n / 3`: modes with `|kx|`, `|ky|` or `kz` above
    /// it are dealiased away, and are exactly zero in every state.
    kmax: usize,
}

impl SolverCtx {
    #[inline]
    fn n(&self) -> usize {
        self.cfg.n
    }

    #[inline]
    fn nzc(&self) -> usize {
        self.cfg.n / 2 + 1
    }

    /// Whether 1D index `i` of a two-sided axis is inside the 2/3 band.
    #[inline]
    fn in_band(&self, i: usize) -> bool {
        i.min(self.n() - i) <= self.kmax
    }

    /// Fills the half-spectrum buffer `work` with a band-limited spectrum:
    /// `f(x, y, head)` writes the `kmax + 1` in-band coefficients of each
    /// in-band `(x, y)` row, and those of every other row are set to zero.
    /// The coefficients above `kmax` of every row are left as they are: each
    /// buffer filled here starts zeroed and every band transform leaves them
    /// zero (the inverse passes never touch them, the forward ones zero
    /// them), which the transforms check in debug builds.
    fn fill_band(&self, work: &mut [Complex], f: impl Fn(usize, usize, &mut [Complex]) + Sync) {
        let n = self.n();
        let nzc = self.nzc();
        work.par_chunks_mut(n * nzc)
            .enumerate()
            .for_each(|(x, slab)| {
                for (y, row) in slab.chunks_mut(nzc).enumerate() {
                    let head = &mut row[..=self.kmax];
                    if self.in_band(x) && self.in_band(y) {
                        f(x, y, head);
                    } else {
                        head.fill(Complex::ZERO);
                    }
                }
            });
    }

    /// The in-band coefficients of row `(x, y)` of a half-spectrum field.
    #[inline]
    fn band_row<'a>(&self, spec: &'a [Complex], x: usize, y: usize) -> &'a [Complex] {
        &spec[(x * self.n() + y) * self.nzc()..][..self.kmax + 1]
    }

    /// Runs `f` on each in-band coefficient of `dst` together with the same
    /// coefficient of every `src`: one pass over the in-band rows alone. The
    /// rest of `dst` is left as it is, which by the band invariant is zero.
    fn zip_band<const K: usize>(
        &self,
        dst: &mut [Complex],
        srcs: [&[Complex]; K],
        f: impl Fn(&mut Complex, [Complex; K]) + Sync,
    ) {
        let n = self.n();
        let nzc = self.nzc();
        dst.par_chunks_mut(n * nzc)
            .enumerate()
            .for_each(|(x, slab)| {
                if !self.in_band(x) {
                    return;
                }
                for y in (0..n).filter(|&y| self.in_band(y)) {
                    let rows = srcs.map(|s| self.band_row(s, x, y));
                    let head = &mut slab[y * nzc..][..self.kmax + 1];
                    for (z, d) in head.iter_mut().enumerate() {
                        f(d, rows.map(|r| r[z]));
                    }
                }
            });
    }

    /// Fills `work` with the band-limited `spec` (a copy of its band).
    fn fill_copy(&self, spec: &[Complex], work: &mut [Complex]) {
        self.fill_band(work, |x, y, head| {
            head.copy_from_slice(self.band_row(spec, x, y))
        });
    }

    /// Inverse-transforms the band-limited `spec` into `out`, going through
    /// the workspace `work` (the inverse destroys its spectral input).
    fn to_physical_into(&self, spec: &[Complex], work: &mut [Complex], out: &mut [f64]) {
        self.fill_copy(spec, work);
        self.rfft.inverse_truncated(work, out, self.kmax);
    }

    /// Forward-transforms `real` into `spec`, truncated to the 2/3 band: the
    /// one way a spectrum enters a state, which keeps the band invariant.
    fn to_spectral_into(&self, real: &[f64], spec: &mut [Complex]) {
        self.rfft.forward_truncated(real, spec, self.kmax);
    }

    /// Fills `work` with the spectral derivative of the band-limited `spec`
    /// along `axis`.
    fn fill_deriv(&self, spec: &[Complex], axis: Axis, work: &mut [Complex]) {
        let kd = &self.kd;
        self.fill_band(work, |x, y, head| {
            let src = self.band_row(spec, x, y);
            match axis {
                Axis::X | Axis::Y => {
                    let k = if axis == Axis::X { kd[x] } else { kd[y] };
                    for (c, s) in head.iter_mut().zip(src) {
                        *c = s.mul_i().scale(k);
                    }
                }
                Axis::Z => {
                    for (z, (c, s)) in head.iter_mut().zip(src).enumerate() {
                        *c = s.mul_i().scale(kd[z]);
                    }
                }
            }
        });
    }

    /// Spectral derivative of the band-limited `spec` along `axis`, written
    /// to `out` in physical space; `work` is the half-spectrum workspace.
    fn deriv_into(&self, spec: &[Complex], axis: Axis, work: &mut [Complex], out: &mut [f64]) {
        self.fill_deriv(spec, axis, work);
        self.rfft.inverse_truncated(work, out, self.kmax);
    }

    /// Fills `work` with component `comp` of the vorticity `ω̂ = i k × û` of
    /// `s`.
    fn fill_curl(&self, s: &State, comp: Axis, work: &mut [Complex]) {
        let kd = &self.kd;
        self.fill_band(work, |x, y, head| {
            let (kx, ky) = (kd[x], kd[y]);
            let (u, v, w) = (
                self.band_row(&s.u, x, y),
                self.band_row(&s.v, x, y),
                self.band_row(&s.w, x, y),
            );
            for (z, c) in head.iter_mut().enumerate() {
                let kz = kd[z];
                let cross = match comp {
                    Axis::X => w[z].scale(ky) - v[z].scale(kz),
                    Axis::Y => u[z].scale(kz) - w[z].scale(kx),
                    Axis::Z => v[z].scale(kx) - u[z].scale(ky),
                };
                *c = cross.mul_i();
            }
        });
    }

    /// Adds the viscous/diffusive term `r -= coeff * k² * f` over the band.
    /// `r` comes out of a truncated forward transform, so it already is zero
    /// everywhere else.
    fn damp(&self, r: &mut [Complex], f: &[Complex], coeff: f64) {
        let n = self.n();
        let nzc = self.nzc();
        let kline = &self.kline;
        r.par_chunks_mut(n * nzc)
            .enumerate()
            .for_each(|(x, chunk)| {
                if !self.in_band(x) {
                    return;
                }
                let kx = kline[x];
                for y in (0..n).filter(|&y| self.in_band(y)) {
                    let ky = kline[y];
                    let kxy2 = kx * kx + ky * ky;
                    let row = &mut chunk[y * nzc..][..self.kmax + 1];
                    for (z, (r, f)) in row.iter_mut().zip(self.band_row(f, x, y)).enumerate() {
                        *r -= f.scale(coeff * (kxy2 + (z * z) as f64));
                    }
                }
            });
    }

    /// Leray projection onto divergence-free fields, all three components,
    /// over the band (the fields are zero outside it, where the projection
    /// would be a no-op). Uses the derivative wavenumbers so the projected
    /// field is exactly divergence-free under the solver's own gradient
    /// operator.
    fn project3(&self, u: &mut [Complex], v: &mut [Complex], w: &mut [Complex]) {
        let n = self.n();
        let nzc = self.nzc();
        let kd = &self.kd;
        u.par_chunks_mut(n * nzc)
            .zip(v.par_chunks_mut(n * nzc).zip(w.par_chunks_mut(n * nzc)))
            .enumerate()
            .for_each(|(x, (us, (vs, ws)))| {
                if !self.in_band(x) {
                    return;
                }
                let kx = kd[x];
                for y in (0..n).filter(|&y| self.in_band(y)) {
                    let ky = kd[y];
                    let kxy2 = kx * kx + ky * ky;
                    // Only the kx = ky = 0 row holds the singular mode.
                    let z0 = usize::from(kxy2 == 0.0);
                    for z in z0..=self.kmax {
                        let kz = kd[z];
                        let i = y * nzc + z;
                        let dot = us[i].scale(kx) + vs[i].scale(ky) + ws[i].scale(kz);
                        let s = dot.scale(1.0 / (kxy2 + kz * kz));
                        us[i] -= s.scale(kx);
                        vs[i] -= s.scale(ky);
                        ws[i] -= s.scale(kz);
                    }
                }
            });
    }
}

/// The pseudo-spectral solver.
pub struct SpectralSolver {
    ctx: SolverCtx,
    state: State,
    /// RK2 stage buffers and midpoint state, preallocated once.
    k1: State,
    k2: State,
    mid: State,
    scratch: Scratch,
    time: f64,
    /// Target band energy for forcing (captured at init when forcing is on).
    band_energy: Option<f64>,
    steps: usize,
}

/// `(u, v, w) ← u × ω`, element by element, in place of the velocity: the
/// advection term in rotational form. The projection that ends every
/// right-hand side removes the gradient by which it differs from `−(u·∇)u`.
fn cross_in_place([u, v, w]: [&mut [f64]; 3], [ox, oy, oz]: [&mut [f64]; 3]) {
    for i in 0..u.len() {
        let (a, b, c) = (ox[i], oy[i], oz[i]);
        let (uu, vv, ww) = (u[i], v[i], w[i]);
        u[i] = vv * c - ww * b;
        v[i] = ww * a - uu * c;
        w[i] = uu * b - vv * a;
    }
}

impl SpectralSolver {
    /// Creates a solver with zero initial velocity.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two or the explicit time step is
    /// unstable for the configured viscosity.
    pub fn new(cfg: SpectralConfig) -> Self {
        assert!(
            sickle_fft::is_power_of_two(cfg.n),
            "grid size must be a power of two"
        );
        let n = cfg.n;
        let kmax = n / 3; // post-dealias maximum wavenumber along each axis
        let visc_limit = cfg.viscosity * (kmax * kmax) as f64 * cfg.dt;
        assert!(
            visc_limit < 2.0,
            "explicit viscous step unstable: nu*kmax^2*dt = {visc_limit:.3} >= 2"
        );
        let kline: Vec<f64> = (0..n)
            .map(|i| {
                if i <= n / 2 {
                    i as f64
                } else {
                    i as f64 - n as f64
                }
            })
            .collect();
        let kd: Vec<f64> = kline
            .iter()
            .enumerate()
            .map(|(i, &k)| if i == n / 2 { 0.0 } else { k })
            .collect();
        let slen = n * n * (n / 2 + 1);
        let stratified = matches!(cfg.stratification, Stratification::Boussinesq { .. });
        SpectralSolver {
            ctx: SolverCtx {
                cfg,
                rfft: RealFft3d::new(n, n, n),
                kline,
                kd,
                kmax,
            },
            state: State::zeros(slen, stratified),
            k1: State::zeros(slen, stratified),
            k2: State::zeros(slen, stratified),
            mid: State::zeros(slen, stratified),
            scratch: Scratch::new(slen, stratified),
            time: 0.0,
            band_energy: None,
            steps: 0,
        }
    }

    /// Grid describing the physical domain.
    pub fn grid(&self) -> Grid3 {
        Grid3::cube_2pi(self.ctx.cfg.n)
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Completed steps.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Configuration.
    pub fn config(&self) -> &SpectralConfig {
        &self.ctx.cfg
    }

    /// Initializes the classic Taylor–Green vortex (the SST ensemble's
    /// initial condition): `u = sin x cos y cos z`, `v = -cos x sin y cos z`,
    /// `w = 0`, optionally with a sinusoidal buoyancy perturbation.
    pub fn init_taylor_green(&mut self, amplitude: f64) {
        let n = self.ctx.cfg.n;
        let grid = self.grid();
        let fill = |buf: &mut [f64], f: &(dyn Fn(f64, f64, f64) -> f64 + Sync)| {
            buf.par_chunks_mut(n * n).enumerate().for_each(|(x, slab)| {
                for y in 0..n {
                    for z in 0..n {
                        let (px, py, pz) = grid.position(x, y, z);
                        slab[y * n + z] = f(px, py, pz);
                    }
                }
            });
        };
        // One physical buffer serves each field in turn.
        let mut phys = vec![0.0; n * n * n];
        let Self { ctx, state, .. } = self;
        fill(&mut phys, &|px, py, pz| {
            amplitude * px.sin() * py.cos() * pz.cos()
        });
        ctx.to_spectral_into(&phys, &mut state.u);
        fill(&mut phys, &|px, py, pz| {
            -amplitude * px.cos() * py.sin() * pz.cos()
        });
        ctx.to_spectral_into(&phys, &mut state.v);
        state.w.fill(Complex::ZERO);
        if let Some(b) = state.b.as_mut() {
            // Small buoyancy perturbation at the largest scale so the
            // stratified dynamics have something to act on.
            fill(&mut phys, &|px, _, _| 0.1 * amplitude * px.sin());
            ctx.to_spectral_into(&phys, b);
        }
        self.capture_band_energy();
    }

    /// Sets velocity directly from physical-space fields (e.g. from the
    /// synthetic-turbulence generator); the field is truncated to the 2/3
    /// band and projected to be divergence-free.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn set_velocity(&mut self, u: &[f64], v: &[f64], w: &[f64]) {
        let len = self.grid().len();
        assert!(
            u.len() == len && v.len() == len && w.len() == len,
            "field length mismatch"
        );
        let Self { ctx, state, .. } = self;
        ctx.to_spectral_into(u, &mut state.u);
        ctx.to_spectral_into(v, &mut state.v);
        ctx.to_spectral_into(w, &mut state.w);
        ctx.project3(&mut state.u, &mut state.v, &mut state.w);
        self.capture_band_energy();
    }

    /// Sets the buoyancy field from physical space, truncated to the 2/3
    /// band (stratified runs only).
    ///
    /// # Panics
    /// Panics if the solver is not stratified or on length mismatch.
    pub fn set_buoyancy(&mut self, b: &[f64]) {
        assert_eq!(b.len(), self.grid().len(), "field length mismatch");
        let spec = self.state.b.as_mut().expect("solver is not stratified");
        self.ctx.to_spectral_into(b, spec);
    }

    fn capture_band_energy(&mut self) {
        if let Some(forcing) = self.ctx.cfg.forcing {
            self.band_energy = Some(self.band_energy_value(forcing.k_f));
        }
    }

    /// Energy in modes `0 < |k| <= k_f`, summed over the half-spectrum with
    /// conjugate weights (interior `kz` bins stand for two full-spectrum
    /// modes).
    fn band_energy_value(&self, k_f: f64) -> f64 {
        let n = self.ctx.cfg.n;
        let nzc = self.ctx.nzc();
        let norm = (n as f64).powi(6);
        let kf2 = k_f * k_f;
        let (u, v, w) = (&self.state.u, &self.state.v, &self.state.w);
        let kline = &self.ctx.kline;
        let e: f64 = (0..n)
            .into_par_iter()
            .map(|x| {
                let kx = kline[x];
                let mut acc = 0.0;
                for y in 0..n {
                    let ky = kline[y];
                    for z in 0..nzc {
                        let kz = z as f64;
                        let k2 = kx * kx + ky * ky + kz * kz;
                        if k2 > 0.0 && k2 <= kf2 {
                            let wgt = if z == 0 || z == n / 2 { 1.0 } else { 2.0 };
                            let idx = (x * n + y) * nzc + z;
                            acc +=
                                wgt * (u[idx].norm_sqr() + v[idx].norm_sqr() + w[idx].norm_sqr());
                        }
                    }
                }
                acc
            })
            .sum();
        0.5 * e / norm
    }

    /// Computes the full right-hand side of the (projected) momentum and
    /// buoyancy equations for `s`, writing into the preallocated `out` state
    /// without any field-sized allocation.
    ///
    /// The band spectra of u, ω (and ∇b) are filled, then one
    /// [`RealFft3d::map_truncated`] takes them to physical space a group of
    /// rows at a time, forms the products there and brings them back: u, v
    /// and w ride in `out`'s own buffers and leave as `u × ω`, `∂ₓb` rides
    /// in `out.b` and leaves as the buoyancy product.
    fn rhs_into(ctx: &SolverCtx, s: &State, scr: &mut Scratch, out: &mut State) {
        let [ox, oy, oz] = &mut scr.omega;
        {
            let _fill = sickle_obs::span!("cfd.fill");
            ctx.fill_copy(&s.u, &mut out.u);
            ctx.fill_copy(&s.v, &mut out.v);
            ctx.fill_copy(&s.w, &mut out.w);
            ctx.fill_curl(s, Axis::X, ox);
            ctx.fill_curl(s, Axis::Y, oy);
            ctx.fill_curl(s, Axis::Z, oz);
            if let (Some(bh), Some(ob), Some([gy, gz])) =
                (s.b.as_ref(), out.b.as_mut(), scr.grad.as_mut())
            {
                ctx.fill_deriv(bh, Axis::X, ob);
                ctx.fill_deriv(bh, Axis::Y, gy);
                ctx.fill_deriv(bh, Axis::Z, gz);
            }
        }
        let around = |pass, run: &mut dyn FnMut()| {
            let _span = match pass {
                MapPass::Inverse => sickle_obs::span!("cfd.fft_inverse"),
                MapPass::Rows => sickle_obs::span!("cfd.rows"),
                MapPass::Forward => sickle_obs::span!("cfd.fft_forward"),
            };
            run();
        };
        let (u, v, w) = (&mut out.u, &mut out.v, &mut out.w);
        let stratified = (
            ctx.cfg.stratification,
            s.b.as_ref(),
            out.b.as_mut(),
            scr.grad.as_mut(),
        );
        match stratified {
            (Stratification::Boussinesq { n_bv, gravity }, Some(bh), Some(ob), Some([gy, gz])) => {
                // The gravity-aligned component's index among (u, v, w).
                let g = gravity as usize;
                ctx.rfft.map_truncated(
                    [u, v, w, ob, ox, oy, oz, gy, gz],
                    4,
                    ctx.kmax,
                    |[u, v, w, b, ox, oy, oz, gy, gz]| {
                        // db/dt = -(u . grad b) - N^2 u_g + kappa laplacian b,
                        // formed in place of db/dx.
                        for i in 0..u.len() {
                            let ug = [u[i], v[i], w[i]][g];
                            b[i] = -(u[i] * b[i] + v[i] * gy[i] + w[i] * gz[i]) - n_bv * n_bv * ug;
                        }
                        cross_in_place([u, v, w], [ox, oy, oz]);
                    },
                    around,
                );
                // Momentum feedback: + b along gravity.
                let _feedback = sickle_obs::span!("cfd.feedback");
                let target = match gravity {
                    Axis::X => &mut out.u,
                    Axis::Y => &mut out.v,
                    Axis::Z => &mut out.w,
                };
                ctx.zip_band(target, [bh], |t, [b]| *t += b);
            }
            _ => ctx.rfft.map_truncated(
                [u, v, w, ox, oy, oz],
                3,
                ctx.kmax,
                |[u, v, w, ox, oy, oz]| cross_in_place([u, v, w], [ox, oy, oz]),
                around,
            ),
        }

        // Viscous terms and projection (spectral space).
        let nu = ctx.cfg.viscosity;
        let kappa = ctx.cfg.diffusivity;
        {
            let _damp = sickle_obs::span!("cfd.damp");
            ctx.damp(&mut out.u, &s.u, nu);
            ctx.damp(&mut out.v, &s.v, nu);
            ctx.damp(&mut out.w, &s.w, nu);
            if let (Some(rb), Some(bh)) = (out.b.as_mut(), s.b.as_ref()) {
                ctx.damp(rb, bh, kappa);
            }
        }
        let _proj = sickle_obs::span!("cfd.projection");
        ctx.project3(&mut out.u, &mut out.v, &mut out.w);
    }

    /// Advances one RK2 (Heun) step and applies forcing if configured.
    /// Steady-state calls perform no field-sized heap allocation.
    ///
    /// The stage arithmetic runs over the in-band rows alone: every state
    /// and stage is zero outside the band (see the module docs), so there
    /// it would only add zeros.
    pub fn step(&mut self) {
        let _step = sickle_obs::span!("cfd.step", step = self.steps);
        let dt = self.ctx.cfg.dt;
        let Self {
            ctx,
            state,
            k1,
            k2,
            mid,
            scratch,
            ..
        } = self;
        Self::rhs_into(ctx, state, scratch, k1);
        {
            let _stage = sickle_obs::span!("cfd.stage");
            for (m, (s, k)) in mid.fields_mut().zip(state.fields().zip(k1.fields())) {
                ctx.zip_band(m, [s, k], |m, [s, k]| *m = s + k.scale(dt));
            }
        }
        Self::rhs_into(ctx, mid, scratch, k2);
        {
            let _stage = sickle_obs::span!("cfd.stage");
            let h = 0.5 * dt;
            for (s, (a, b)) in state.fields_mut().zip(k1.fields().zip(k2.fields())) {
                ctx.zip_band(s, [a, b], |s, [a, b]| {
                    *s += a.scale(h);
                    *s += b.scale(h);
                });
            }
        }
        if let (Some(f), Some(target)) = (self.ctx.cfg.forcing, self.band_energy) {
            let _forcing = sickle_obs::span!("cfd.forcing");
            let current = self.band_energy_value(f.k_f);
            if current > 1e-30 {
                let scale = (target / current).sqrt();
                let n = self.ctx.cfg.n;
                let nzc = self.ctx.nzc();
                let kline = &self.ctx.kline;
                let kf2 = f.k_f * f.k_f;
                let apply = |arr: &mut Vec<Complex>| {
                    arr.par_chunks_mut(n * nzc)
                        .enumerate()
                        .for_each(|(x, chunk)| {
                            let kx = kline[x];
                            for y in 0..n {
                                let ky = kline[y];
                                for z in 0..nzc {
                                    let kz = z as f64;
                                    let k2 = kx * kx + ky * ky + kz * kz;
                                    if k2 > 0.0 && k2 <= kf2 {
                                        let i = y * nzc + z;
                                        chunk[i] = chunk[i].scale(scale);
                                    }
                                }
                            }
                        });
                };
                apply(&mut self.state.u);
                apply(&mut self.state.v);
                apply(&mut self.state.w);
            }
        }
        self.time += dt;
        self.steps += 1;
    }

    /// Advances `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Total kinetic energy `0.5 <|u|²>` (volume-averaged), summed over the
    /// half-spectrum with conjugate weights.
    pub fn kinetic_energy(&self) -> f64 {
        let n = self.ctx.cfg.n;
        let nzc = self.ctx.nzc();
        let norm = (n as f64).powi(6);
        let (u, v, w) = (&self.state.u, &self.state.v, &self.state.w);
        let e: f64 = (0..n * n)
            .into_par_iter()
            .map(|row| {
                let mut acc = 0.0;
                for z in 0..nzc {
                    let wgt = if z == 0 || z == n / 2 { 1.0 } else { 2.0 };
                    let idx = row * nzc + z;
                    acc += wgt * (u[idx].norm_sqr() + v[idx].norm_sqr() + w[idx].norm_sqr());
                }
                acc
            })
            .sum();
        0.5 * e / norm
    }

    /// Maximum divergence magnitude in physical space (should be ~0).
    pub fn max_divergence(&self) -> f64 {
        let len = self.grid().len();
        let mut work = vec![Complex::ZERO; self.ctx.rfft.spectrum_len()];
        let mut deriv = |spec: &[Complex], axis: Axis| {
            let mut out = vec![0.0; len];
            self.ctx.deriv_into(spec, axis, &mut work, &mut out);
            out
        };
        let dudx = deriv(&self.state.u, Axis::X);
        let dvdy = deriv(&self.state.v, Axis::Y);
        let dwdz = deriv(&self.state.w, Axis::Z);
        (0..len)
            .map(|i| (dudx[i] + dvdy[i] + dwdz[i]).abs())
            .fold(0.0, f64::max)
    }

    /// Builds a snapshot with `u, v, w, p` (+ `r` when stratified). The
    /// pressure solves `∇²p = ∇·F` for the unprojected RHS `F`, exactly the
    /// diagnostic pressure of a spectral DNS. `F` is taken in convective
    /// form and its products are not dealiased, so `p` also carries the
    /// modes the stepping discards.
    pub fn snapshot(&self) -> Snapshot {
        let (ctx, s) = (&self.ctx, &self.state);
        let grid = self.grid();
        let len = grid.len();
        let slen = ctx.rfft.spectrum_len();
        let n = ctx.cfg.n;
        let nzc = ctx.nzc();
        // One half-spectrum workspace serves every state-derived inverse.
        let mut work = vec![Complex::ZERO; slen];
        let mut physical = |spec: &[Complex]| {
            let mut out = vec![0.0; len];
            ctx.to_physical_into(spec, &mut work, &mut out);
            out
        };
        let up = physical(&s.u);
        let vp = physical(&s.v);
        let wp = physical(&s.w);
        let r = s.b.as_deref().map(&mut physical);

        // The unprojected advection spectrum -(u . grad) u_i, one component
        // at a time so the three gradient buffers recycle.
        let (mut gx, mut gy, mut gz) = (vec![0.0; len], vec![0.0; len], vec![0.0; len]);
        let mut advect = |spec: &[Complex]| -> Vec<Complex> {
            ctx.deriv_into(spec, Axis::X, &mut work, &mut gx);
            ctx.deriv_into(spec, Axis::Y, &mut work, &mut gy);
            ctx.deriv_into(spec, Axis::Z, &mut work, &mut gz);
            let (gy, gz) = (&gy, &gz);
            gx.par_iter_mut().enumerate().for_each(|(i, o)| {
                *o = -(up[i] * *o + vp[i] * gy[i] + wp[i] * gz[i]);
            });
            let mut c = vec![Complex::ZERO; slen];
            ctx.rfft.forward(&gx, &mut c);
            c
        };
        let mut fu = advect(&s.u);
        let mut fv = advect(&s.v);
        let mut fw = advect(&s.w);
        if let (Some(bh), Stratification::Boussinesq { gravity, .. }) =
            (s.b.as_ref(), ctx.cfg.stratification)
        {
            let target = match gravity {
                Axis::X => &mut fu,
                Axis::Y => &mut fv,
                Axis::Z => &mut fw,
            };
            target
                .par_iter_mut()
                .zip(bh.par_iter())
                .for_each(|(t, &b)| *t += b);
        }
        // -k^2 p_hat = i k . F  =>  p_hat = -i (k . F) / k^2, written over F_u.
        let kd = &ctx.kd;
        let kline = &ctx.kline;
        fu.par_chunks_mut(n * nzc)
            .enumerate()
            .for_each(|(x, chunk)| {
                let kx = kd[x];
                for y in 0..n {
                    let ky = kd[y];
                    for z in 0..nzc {
                        let kz = kd[z];
                        let km = kline[x] * kline[x] + kline[y] * kline[y] + (z * z) as f64;
                        let gi = (x * n + y) * nzc + z;
                        let i = y * nzc + z;
                        chunk[i] = if km == 0.0 {
                            Complex::ZERO
                        } else {
                            let div = chunk[i].scale(kx) + fv[gi].scale(ky) + fw[gi].scale(kz);
                            div.mul_i().scale(-1.0 / km)
                        };
                    }
                }
            });
        let mut p = vec![0.0; len];
        ctx.rfft.inverse(&mut fu, &mut p);

        let mut snap = Snapshot::new(grid, self.time)
            .with_var("u", up)
            .with_var("v", vp)
            .with_var("w", wp)
            .with_var("p", p);
        if let Some(r) = r {
            snap.push_var("r", r);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sickle_fft::Fft3d;

    fn tg_solver(n: usize) -> SpectralSolver {
        let mut s = SpectralSolver::new(SpectralConfig {
            n,
            dt: 0.005,
            ..Default::default()
        });
        s.init_taylor_green(1.0);
        s
    }

    #[test]
    fn taylor_green_energy_decays() {
        let mut s = tg_solver(16);
        let e0 = s.kinetic_energy();
        assert!(e0 > 0.0);
        s.run(20);
        let e1 = s.kinetic_energy();
        assert!(e1 < e0, "energy must decay without forcing: {e0} -> {e1}");
        assert!(e1 > 0.0);
    }

    #[test]
    fn taylor_green_initial_energy_matches_theory() {
        // <u^2 + v^2>/2 for TG = 2 * (1/8) * A^2 / 2 = A^2 / 8.
        let s = tg_solver(16);
        let e = s.kinetic_energy();
        assert!((e - 0.125).abs() < 1e-6, "E = {e}");
    }

    #[test]
    fn velocity_stays_divergence_free() {
        let mut s = tg_solver(16);
        s.run(10);
        let div = s.max_divergence();
        let umax = 1.0;
        assert!(div < 1e-8 * umax * 16.0, "divergence {div}");
    }

    #[test]
    fn forcing_maintains_band_energy() {
        let mut cfg = SpectralConfig {
            n: 16,
            dt: 0.005,
            ..Default::default()
        };
        cfg.forcing = Some(Forcing { k_f: 2.0 });
        let mut s = SpectralSolver::new(cfg);
        s.init_taylor_green(1.0);
        let e0 = s.band_energy_value(2.0);
        s.run(30);
        let e1 = s.band_energy_value(2.0);
        assert!(
            (e1 - e0).abs() < 1e-8 * e0.max(1e-30) + 1e-12,
            "band energy {e0} -> {e1}"
        );
    }

    #[test]
    fn stratified_run_exchanges_energy_with_buoyancy() {
        let cfg = SpectralConfig {
            n: 16,
            dt: 0.005,
            stratification: Stratification::Boussinesq {
                n_bv: 2.0,
                gravity: Axis::Z,
            },
            ..Default::default()
        };
        let mut s = SpectralSolver::new(cfg);
        s.init_taylor_green(1.0);
        s.run(20);
        let snap = s.snapshot();
        let r = snap.expect_var("r");
        assert!(
            r.iter().any(|&v| v.abs() > 1e-8),
            "buoyancy field should evolve"
        );
        assert!(r.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn snapshot_contains_expected_variables() {
        let mut s = tg_solver(8);
        s.run(2);
        let snap = s.snapshot();
        assert_eq!(snap.names, vec!["u", "v", "w", "p"]);
        assert_eq!(snap.num_points(), 512);
        assert!(snap.expect_var("p").iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "unstable")]
    fn rejects_unstable_time_step() {
        let cfg = SpectralConfig {
            n: 64,
            viscosity: 0.1,
            dt: 0.5,
            ..Default::default()
        };
        let _ = SpectralSolver::new(cfg);
    }

    #[test]
    fn set_velocity_projects_to_divergence_free() {
        let mut s = SpectralSolver::new(SpectralConfig {
            n: 16,
            dt: 0.005,
            ..Default::default()
        });
        let grid = s.grid();
        // A compressible field: u = sin(x), rest zero has du/dx != 0.
        let mut u = vec![0.0; grid.len()];
        for x in 0..16 {
            for y in 0..16 {
                for z in 0..16 {
                    let (px, _, _) = grid.position(x, y, z);
                    u[grid.idx(x, y, z)] = px.sin();
                }
            }
        }
        let zeros = vec![0.0; grid.len()];
        s.set_velocity(&u, &zeros, &zeros);
        assert!(s.max_divergence() < 1e-8);
    }

    /// Every out-of-band coefficient of the state as raw bits; all must be
    /// those of `+0.0`.
    fn out_of_band_bits(s: &SpectralSolver) -> Vec<u64> {
        let (n, nzc) = (s.ctx.n(), s.ctx.nzc());
        let fields = [&s.state.u, &s.state.v, &s.state.w]
            .into_iter()
            .chain(s.state.b.as_ref());
        let mut bits = Vec::new();
        for f in fields {
            for x in 0..n {
                for y in 0..n {
                    for z in 0..nzc {
                        if !(s.ctx.in_band(x) && s.ctx.in_band(y) && z <= s.ctx.kmax) {
                            let c = f[(x * n + y) * nzc + z];
                            bits.extend([c.re.to_bits(), c.im.to_bits()]);
                        }
                    }
                }
            }
        }
        bits
    }

    /// Modes outside the 2/3 band have a zero right-hand side, so anything
    /// that lands there at an entry point would ride along frozen into every
    /// snapshot: the state must hold exact zeros there from the start.
    #[test]
    fn state_is_exactly_zero_outside_the_band() {
        let n = 16;
        let mut tg = SpectralSolver::new(SpectralConfig {
            n,
            dt: 0.005,
            stratification: Stratification::Boussinesq {
                n_bv: 2.0,
                gravity: Axis::Z,
            },
            ..Default::default()
        });
        tg.init_taylor_green(1.0);

        // A caller-supplied field carrying energy at k = n/2 - 1, well
        // outside the band, on top of a resolved mode.
        let mut high = SpectralSolver::new(SpectralConfig {
            n,
            dt: 0.005,
            ..Default::default()
        });
        let grid = high.grid();
        let khigh = (n / 2 - 1) as f64;
        let mut u = vec![0.0; grid.len()];
        let mut v = vec![0.0; grid.len()];
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    let (px, py, pz) = grid.position(x, y, z);
                    u[grid.idx(x, y, z)] = py.sin() + 0.5 * (khigh * pz).sin();
                    v[grid.idx(x, y, z)] = (2.0 * pz).cos() + 0.5 * (khigh * px).cos();
                }
            }
        }
        let w = vec![0.0; grid.len()];
        high.set_velocity(&u, &v, &w);
        // Only the resolved modes survive: <u²>/2 = 1/4 each.
        assert!((high.kinetic_energy() - 0.5).abs() < 1e-12);

        for (name, mut s) in [("taylor-green", tg), ("set_velocity", high)] {
            let outside = out_of_band_bits(&s);
            assert!(!outside.is_empty());
            assert!(outside.iter().all(|&b| b == 0), "{name}: after init");
            s.run(10);
            assert!(
                out_of_band_bits(&s).iter().all(|&b| b == 0),
                "{name}: after 10 steps"
            );
        }
    }

    #[test]
    fn set_buoyancy_truncates_to_the_band() {
        let n = 16;
        let mut s = SpectralSolver::new(SpectralConfig {
            n,
            stratification: Stratification::Boussinesq {
                n_bv: 1.0,
                gravity: Axis::Z,
            },
            ..Default::default()
        });
        let grid = s.grid();
        let b: Vec<f64> = (0..grid.len())
            .map(|i| (i as f64 * 0.37).sin()) // broadband
            .collect();
        s.set_buoyancy(&b);
        assert!(out_of_band_bits(&s).iter().all(|&bits| bits == 0));
        assert!(s
            .state
            .b
            .as_ref()
            .unwrap()
            .iter()
            .any(|c| c.norm_sqr() > 0.0));
    }

    /// Mean-square vorticity `<|ω|²> = Σ k² |û|²`, summed like
    /// [`SpectralSolver::kinetic_energy`].
    fn mean_square_vorticity(s: &SpectralSolver) -> f64 {
        let (n, nzc) = (s.ctx.n(), s.ctx.nzc());
        let kline = &s.ctx.kline;
        let mut acc = 0.0;
        for x in 0..n {
            for y in 0..n {
                for z in 0..nzc {
                    let k2 = kline[x] * kline[x] + kline[y] * kline[y] + (z * z) as f64;
                    let wgt = if z == 0 || z == n / 2 { 1.0 } else { 2.0 };
                    let i = (x * n + y) * nzc + z;
                    let e =
                        s.state.u[i].norm_sqr() + s.state.v[i].norm_sqr() + s.state.w[i].norm_sqr();
                    acc += wgt * k2 * e;
                }
            }
        }
        acc / (n as f64).powi(6)
    }

    /// Worst relative mismatch of the per-step energy budget
    /// `(E₁ − E₀)/Δt = −ν ½(<|ω|²>₀ + <|ω|²>₁)` on the 32³ Taylor–Green
    /// vortex over `0.2 <= t <= 0.3`.
    fn energy_budget_mismatch(dt: f64) -> f64 {
        let nu = 0.02;
        let mut s = SpectralSolver::new(SpectralConfig {
            n: 32,
            viscosity: nu,
            dt,
            ..Default::default()
        });
        s.init_taylor_green(1.0);
        s.run((0.2 / dt).round() as usize);
        let mut worst = 0.0f64;
        let (mut e0, mut z0) = (s.kinetic_energy(), mean_square_vorticity(&s));
        for _ in 0..(0.1 / dt).round() as usize {
            s.step();
            let (e1, z1) = (s.kinetic_energy(), mean_square_vorticity(&s));
            let (dedt, diss) = ((e1 - e0) / dt, -nu * 0.5 * (z0 + z1));
            worst = worst.max(((dedt - diss) / diss).abs());
            (e0, z0) = (e1, z1);
        }
        worst
    }

    /// Advection in either form only moves energy between modes, and the
    /// Galerkin truncation keeps that exact, so viscosity alone drains it:
    /// `dE/dt = −ν <|ω|²>`. Heun's method meets the trapezoidal form of that
    /// budget to second order in `Δt`.
    #[test]
    fn taylor_green_energy_budget_closes_to_second_order() {
        let coarse = energy_budget_mismatch(0.005);
        let fine = energy_budget_mismatch(0.0025);
        assert!(coarse < 1e-5, "budget mismatch {coarse:e} at dt = 0.005");
        let ratio = coarse / fine;
        assert!(
            (3.0..5.5).contains(&ratio),
            "halving dt took the mismatch {coarse:e} -> {fine:e} (x{ratio:.2}), not ~4x"
        );
    }

    /// Full-complex-spectrum RK2 reference (the pre-half-spectrum
    /// implementation, unstratified and unforced), used to pin the
    /// half-spectrum solver to the original algorithm.
    struct ComplexRef {
        n: usize,
        nu: f64,
        dt: f64,
        fft: Fft3d,
        kline: Vec<f64>,
        keep: Vec<bool>,
        u: Vec<Complex>,
        v: Vec<Complex>,
        w: Vec<Complex>,
    }

    impl ComplexRef {
        fn new(n: usize, nu: f64, dt: f64) -> Self {
            let kline: Vec<f64> = (0..n)
                .map(|i| {
                    if i <= n / 2 {
                        i as f64
                    } else {
                        i as f64 - n as f64
                    }
                })
                .collect();
            let cut = n as f64 / 3.0;
            let mut keep = vec![true; n * n * n];
            for x in 0..n {
                for y in 0..n {
                    for z in 0..n {
                        if kline[x].abs() > cut || kline[y].abs() > cut || kline[z].abs() > cut {
                            keep[(x * n + y) * n + z] = false;
                        }
                    }
                }
            }
            let len = n * n * n;
            ComplexRef {
                n,
                nu,
                dt,
                fft: Fft3d::new(n, n, n),
                kline,
                keep,
                u: vec![Complex::ZERO; len],
                v: vec![Complex::ZERO; len],
                w: vec![Complex::ZERO; len],
            }
        }

        fn init_taylor_green(&mut self, a: f64) {
            let n = self.n;
            let grid = Grid3::cube_2pi(n);
            for x in 0..n {
                for y in 0..n {
                    for z in 0..n {
                        let (px, py, pz) = grid.position(x, y, z);
                        let idx = (x * n + y) * n + z;
                        self.u[idx] = Complex::new(a * px.sin() * py.cos() * pz.cos(), 0.0);
                        self.v[idx] = Complex::new(-a * px.cos() * py.sin() * pz.cos(), 0.0);
                    }
                }
            }
            self.fft.forward(&mut self.u);
            self.fft.forward(&mut self.v);
        }

        fn to_phys(&self, f: &[Complex]) -> Vec<f64> {
            let mut c = f.to_vec();
            self.fft.inverse(&mut c);
            c.iter().map(|z| z.re).collect()
        }

        fn deriv(&self, f: &[Complex], axis: Axis) -> Vec<f64> {
            let n = self.n;
            let mut d = vec![Complex::ZERO; f.len()];
            for x in 0..n {
                for y in 0..n {
                    for z in 0..n {
                        let k = match axis {
                            Axis::X => self.kline[x],
                            Axis::Y => self.kline[y],
                            Axis::Z => self.kline[z],
                        };
                        let i = (x * n + y) * n + z;
                        d[i] = f[i].mul_i().scale(k);
                    }
                }
            }
            self.fft.inverse(&mut d);
            d.iter().map(|z| z.re).collect()
        }

        fn rhs(
            &self,
            u: &[Complex],
            v: &[Complex],
            w: &[Complex],
        ) -> (Vec<Complex>, Vec<Complex>, Vec<Complex>) {
            let n = self.n;
            let len = u.len();
            let up = self.to_phys(u);
            let vp = self.to_phys(v);
            let wp = self.to_phys(w);
            let advect = |f: &[Complex]| -> Vec<Complex> {
                let gx = self.deriv(f, Axis::X);
                let gy = self.deriv(f, Axis::Y);
                let gz = self.deriv(f, Axis::Z);
                let mut c: Vec<Complex> = (0..len)
                    .map(|i| Complex::new(-(up[i] * gx[i] + vp[i] * gy[i] + wp[i] * gz[i]), 0.0))
                    .collect();
                self.fft.forward(&mut c);
                c
            };
            let mut ru = advect(u);
            let mut rv = advect(v);
            let mut rw = advect(w);
            let damp = |r: &mut [Complex], f: &[Complex], coeff: f64| {
                for x in 0..n {
                    for y in 0..n {
                        for z in 0..n {
                            let i = (x * n + y) * n + z;
                            if !self.keep[i] {
                                r[i] = Complex::ZERO;
                                continue;
                            }
                            let k2 = self.kline[x] * self.kline[x]
                                + self.kline[y] * self.kline[y]
                                + self.kline[z] * self.kline[z];
                            r[i] -= f[i].scale(coeff * k2);
                        }
                    }
                }
            };
            damp(&mut ru, u, self.nu);
            damp(&mut rv, v, self.nu);
            damp(&mut rw, w, self.nu);
            // Leray projection.
            for x in 0..n {
                for y in 0..n {
                    for z in 0..n {
                        let (kx, ky, kz) = (self.kline[x], self.kline[y], self.kline[z]);
                        let k2 = kx * kx + ky * ky + kz * kz;
                        if k2 == 0.0 {
                            continue;
                        }
                        let i = (x * n + y) * n + z;
                        let dot = ru[i].scale(kx) + rv[i].scale(ky) + rw[i].scale(kz);
                        let s = dot.scale(1.0 / k2);
                        ru[i] -= s.scale(kx);
                        rv[i] -= s.scale(ky);
                        rw[i] -= s.scale(kz);
                    }
                }
            }
            (ru, rv, rw)
        }

        fn step(&mut self) {
            let dt = self.dt;
            let (k1u, k1v, k1w) = self.rhs(&self.u, &self.v, &self.w);
            let mid = |s: &[Complex], k: &[Complex]| -> Vec<Complex> {
                s.iter().zip(k).map(|(a, b)| *a + b.scale(dt)).collect()
            };
            let (mu, mv, mw) = (mid(&self.u, &k1u), mid(&self.v, &k1v), mid(&self.w, &k1w));
            let (k2u, k2v, k2w) = self.rhs(&mu, &mv, &mw);
            let upd = |s: &mut [Complex], k1: &[Complex], k2: &[Complex]| {
                for i in 0..s.len() {
                    s[i] += k1[i].scale(0.5 * dt) + k2[i].scale(0.5 * dt);
                }
            };
            upd(&mut self.u, &k1u, &k2u);
            upd(&mut self.v, &k1v, &k2v);
            upd(&mut self.w, &k1w, &k2w);
        }
    }

    #[test]
    fn half_spectrum_step_matches_complex_reference() {
        // Five RK2 steps on the 32^3 Taylor-Green vortex must agree with the
        // original full-complex-spectrum implementation, which advects in
        // convective form, to near machine precision in every physical
        // velocity sample.
        let n = 32;
        let (nu, dt) = (0.02, 0.005);
        let mut solver = SpectralSolver::new(SpectralConfig {
            n,
            viscosity: nu,
            dt,
            ..Default::default()
        });
        solver.init_taylor_green(1.0);
        let mut reference = ComplexRef::new(n, nu, dt);
        reference.init_taylor_green(1.0);

        solver.run(5);
        for _ in 0..5 {
            reference.step();
        }

        let snap = solver.snapshot();
        for (name, refspec) in [
            ("u", &reference.u),
            ("v", &reference.v),
            ("w", &reference.w),
        ] {
            let got = snap.expect_var(name);
            let want = reference.to_phys(refspec);
            let mut worst = 0.0f64;
            for (a, b) in got.iter().zip(&want) {
                worst = worst.max((a - b).abs());
            }
            assert!(worst < 1e-8, "component {name}: max |Δ| = {worst:e}");
        }
    }
}
