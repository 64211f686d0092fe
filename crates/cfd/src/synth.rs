//! Spectral synthetic-turbulence generator.
//!
//! Generates statistically realistic velocity/scalar fields of any
//! power-of-two size in one shot, by filling wavenumber space with random
//! phases under a prescribed energy spectrum and inverse-transforming. This
//! is how the reproduction manufactures the *large* datasets the scalability
//! experiments need (the paper's SST-P1F100 is 5 TB; time-stepping a DNS to
//! that size is out of scope, but its sampling-relevant statistics —
//! spectrum shape, anisotropy, layering — are reproducible directly).
//!
//! Anisotropy model: stratified turbulence concentrates energy in "pancake"
//! modes with large gravity-aligned wavenumber components and suppresses the
//! gravity-aligned velocity component. `anisotropy = 0` gives isotropic
//! fields (the GESTS analogue); larger values give increasingly layered
//! fields (the SST analogue).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use sickle_fft::{Complex, Fft3d};
use sickle_field::{Axis, Grid3, Snapshot};

/// Energy spectrum shapes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SpectrumKind {
    /// `E(k) ∝ k⁴ exp(−2 (k/k_peak)²)` — the classic low-Re DNS initial
    /// spectrum, peaked at `k_peak`.
    PeakedK4 {
        /// Wavenumber of peak energy.
        k_peak: f64,
    },
    /// `E(k) ∝ k^(−5/3)` between `k_min` and `k_max` — an inertial-range
    /// (Kolmogorov) spectrum for developed turbulence.
    Kolmogorov {
        /// Low-wavenumber cutoff.
        k_min: f64,
        /// High-wavenumber cutoff.
        k_max: f64,
    },
}

impl SpectrumKind {
    /// Unnormalized spectral energy density at wavenumber magnitude `k`.
    pub fn energy(&self, k: f64) -> f64 {
        match *self {
            SpectrumKind::PeakedK4 { k_peak } => {
                if k <= 0.0 {
                    0.0
                } else {
                    k.powi(4) * (-2.0 * (k / k_peak).powi(2)).exp()
                }
            }
            SpectrumKind::Kolmogorov { k_min, k_max } => {
                if k < k_min || k > k_max {
                    0.0
                } else {
                    k.powf(-5.0 / 3.0)
                }
            }
        }
    }
}

/// Synthetic-field configuration.
#[derive(Clone, Copy, Debug)]
pub struct SynthConfig {
    /// Points per side along x.
    pub nx: usize,
    /// Points per side along y.
    pub ny: usize,
    /// Points per side along z.
    pub nz: usize,
    /// Spectrum shape.
    pub spectrum: SpectrumKind,
    /// Target rms of each velocity component.
    pub urms: f64,
    /// Anisotropy strength (0 = isotropic; 2–5 = strongly layered).
    pub anisotropy: f64,
    /// Gravity axis toward which anisotropy aligns.
    pub gravity: Axis,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            nx: 32,
            ny: 32,
            nz: 32,
            spectrum: SpectrumKind::PeakedK4 { k_peak: 4.0 },
            urms: 1.0,
            anisotropy: 0.0,
            gravity: Axis::Z,
        }
    }
}

fn kline(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            if i <= n / 2 {
                i as f64
            } else {
                i as f64 - n as f64
            }
        })
        .collect()
}

/// Fills one spectral field with random phases shaped by the spectrum and an
/// anisotropy weighting, inverse transforms it, and returns the (real-part)
/// physical field rescaled to `target_rms`.
fn shaped_field(
    fft: &Fft3d,
    cfg: &SynthConfig,
    rng: &mut StdRng,
    target_rms: f64,
    layering: f64,
) -> Vec<f64> {
    let (nx, ny, nz) = (cfg.nx, cfg.ny, cfg.nz);
    let (kx, ky, kz) = (kline(nx), kline(ny), kline(nz));
    let g = cfg.gravity.index();
    let mut spec = vec![Complex::ZERO; nx * ny * nz];
    // Random phases are drawn sequentially for determinism; amplitude
    // shaping is the expensive part and is data-parallel free (cheap anyway).
    for x in 0..nx {
        for y in 0..ny {
            for z in 0..nz {
                let kv = [kx[x], ky[y], kz[z]];
                let k = (kv[0] * kv[0] + kv[1] * kv[1] + kv[2] * kv[2]).sqrt();
                if k == 0.0 {
                    continue;
                }
                // Isotropic shell amplitude: |u_hat|^2 ~ E(k) / (4 pi k^2).
                let mut amp =
                    (cfg.spectrum.energy(k) / (4.0 * std::f64::consts::PI * k * k)).sqrt();
                if layering > 0.0 {
                    // Weight toward modes with large gravity-aligned
                    // wavenumber fraction => thin horizontal layers.
                    let frac = kv[g].abs() / k;
                    amp *= 1.0 + layering * frac * frac;
                }
                let phase = rng.gen::<f64>() * std::f64::consts::TAU;
                let gauss: f64 = {
                    // Box-Muller for a Gaussian amplitude factor.
                    let u1: f64 = rng.gen::<f64>().max(1e-12);
                    let u2: f64 = rng.gen();
                    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
                };
                spec[(x * ny + y) * nz + z] =
                    Complex::from_polar_unit(phase).scale(amp * gauss.abs());
            }
        }
    }
    let mut field = spec;
    fft.inverse(&mut field);
    let mut phys: Vec<f64> = field.par_iter().map(|z| z.re).collect();
    // Rescale to the requested rms (zero-mean by construction up to the
    // missing k=0 mode).
    let mean = phys.par_iter().sum::<f64>() / phys.len() as f64;
    let var = phys
        .par_iter()
        .map(|v| (v - mean) * (v - mean))
        .sum::<f64>()
        / phys.len() as f64;
    if var > 0.0 {
        let s = target_rms / var.sqrt();
        phys.par_iter_mut().for_each(|v| *v = (*v - mean) * s);
    }
    phys
}

/// Generates a synthetic turbulence snapshot with variables `u, v, w`
/// (+ `r`, a layered density-perturbation field, when `anisotropy > 0`).
///
/// The same `seed` always produces the same field.
pub fn generate(cfg: &SynthConfig, seed: u64) -> Snapshot {
    let grid = Grid3::new(
        cfg.nx,
        cfg.ny,
        cfg.nz,
        2.0 * std::f64::consts::PI,
        2.0 * std::f64::consts::PI,
        2.0 * std::f64::consts::PI,
    );
    let fft = Fft3d::new(cfg.nx, cfg.ny, cfg.nz);
    let mut rng = StdRng::seed_from_u64(seed);
    // The gravity-aligned velocity component is suppressed by stratification.
    let wsupp = 1.0 / (1.0 + cfg.anisotropy);
    let rms = [cfg.urms, cfg.urms, cfg.urms];
    let mut comps: Vec<Vec<f64>> = Vec::with_capacity(3);
    for (i, &r) in rms.iter().enumerate() {
        let target = if i == cfg.gravity.index() {
            r * wsupp
        } else {
            r
        };
        comps.push(shaped_field(&fft, cfg, &mut rng, target, cfg.anisotropy));
    }
    let w = comps.pop().unwrap();
    let v = comps.pop().unwrap();
    let u = comps.pop().unwrap();
    let mut snap = Snapshot::new(grid, 0.0)
        .with_var("u", u)
        .with_var("v", v)
        .with_var("w", w);
    if cfg.anisotropy > 0.0 {
        // Density perturbation: strongly layered scalar, heavier tails than
        // the velocities (intermittency of stratified density fields).
        let mut r = shaped_field(&fft, cfg, &mut rng, 1.0, 2.0 * cfg.anisotropy);
        r.par_iter_mut()
            .for_each(|v| *v = v.signum() * v.abs().powf(1.3));
        snap.push_var("r", r);
    }
    snap
}

/// Radially binned energy spectrum of a scalar field: returns `E(k)` for
/// integer shells `k = 1..k_max`, used to validate generated spectra.
pub fn measured_spectrum(grid: &Grid3, f: &[f64]) -> Vec<f64> {
    let fft = Fft3d::new(grid.nx, grid.ny, grid.nz);
    let mut spec: Vec<Complex> = f.iter().map(|&v| Complex::new(v, 0.0)).collect();
    fft.forward(&mut spec);
    let norm = (grid.len() as f64).powi(2);
    let (kx, ky, kz) = (kline(grid.nx), kline(grid.ny), kline(grid.nz));
    let kmax = grid.nx.min(grid.ny).min(grid.nz) / 2;
    let mut e = vec![0.0; kmax + 1];
    for x in 0..grid.nx {
        for y in 0..grid.ny {
            for z in 0..grid.nz {
                let k = (kx[x] * kx[x] + ky[y] * ky[y] + kz[z] * kz[z])
                    .sqrt()
                    .round() as usize;
                if k >= 1 && k <= kmax {
                    e[k] += spec[(x * grid.ny + y) * grid.nz + z].norm_sqr() / norm;
                }
            }
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use sickle_field::SummaryStats;

    #[test]
    fn deterministic_under_seed() {
        let cfg = SynthConfig::default();
        let bits = |snap: &Snapshot, var: &str| -> Vec<u64> {
            snap.expect_var(var).iter().map(|x| x.to_bits()).collect()
        };
        let a = generate(&cfg, 42);
        // Repeated on the shared pool: the rms rescale sums in parallel,
        // and its last bits must not depend on which chunk finished first.
        for call in 0..20 {
            let b = generate(&cfg, 42);
            for var in &a.names {
                assert_eq!(bits(&a, var), bits(&b, var), "{var}, call {call}");
            }
        }
        let c = generate(&cfg, 43);
        assert_ne!(a.expect_var("u"), c.expect_var("u"));
    }

    #[test]
    fn isotropic_has_no_density_var() {
        let snap = generate(&SynthConfig::default(), 1);
        assert_eq!(snap.names, vec!["u", "v", "w"]);
    }

    #[test]
    fn stratified_adds_density() {
        let cfg = SynthConfig {
            anisotropy: 3.0,
            ..Default::default()
        };
        let snap = generate(&cfg, 1);
        assert_eq!(snap.names, vec!["u", "v", "w", "r"]);
    }

    #[test]
    fn rms_matches_target() {
        let cfg = SynthConfig {
            urms: 2.5,
            ..Default::default()
        };
        let snap = generate(&cfg, 7);
        let s = SummaryStats::of(snap.expect_var("u"));
        assert!((s.std() - 2.5).abs() < 1e-9, "std {}", s.std());
        assert!(s.mean().abs() < 1e-9);
    }

    #[test]
    fn vertical_velocity_suppressed_when_stratified() {
        let cfg = SynthConfig {
            anisotropy: 4.0,
            gravity: Axis::Z,
            ..Default::default()
        };
        let snap = generate(&cfg, 3);
        let sw = SummaryStats::of(snap.expect_var("w")).std();
        let su = SummaryStats::of(snap.expect_var("u")).std();
        assert!(sw < 0.5 * su, "w rms {sw} vs u rms {su}");
    }

    #[test]
    fn spectrum_peaks_near_k_peak() {
        let cfg = SynthConfig {
            nx: 64,
            ny: 64,
            nz: 64,
            spectrum: SpectrumKind::PeakedK4 { k_peak: 6.0 },
            ..Default::default()
        };
        let snap = generate(&cfg, 11);
        let e = measured_spectrum(&snap.grid, snap.expect_var("u"));
        let peak = e
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!((3..=9).contains(&peak), "spectrum peak at k = {peak}");
    }

    #[test]
    fn anisotropy_creates_layering() {
        // Gravity-axis gradients of the density field should dominate
        // horizontal ones when layered.
        use sickle_field::derived::partial;
        let cfg = SynthConfig {
            anisotropy: 4.0,
            gravity: Axis::Z,
            ..Default::default()
        };
        let snap = generate(&cfg, 5);
        let r = snap.expect_var("r");
        let gz = SummaryStats::of(&partial(&snap.grid, r, Axis::Z)).std();
        let gx = SummaryStats::of(&partial(&snap.grid, r, Axis::X)).std();
        assert!(
            gz > 1.3 * gx,
            "vertical gradient rms {gz} vs horizontal {gx}"
        );
    }

    #[test]
    fn kolmogorov_spectrum_shape() {
        let s = SpectrumKind::Kolmogorov {
            k_min: 2.0,
            k_max: 16.0,
        };
        assert_eq!(s.energy(1.0), 0.0);
        assert_eq!(s.energy(20.0), 0.0);
        assert!(s.energy(4.0) > s.energy(8.0));
    }
}
