//! Derived turbulence quantities via central finite differences on periodic
//! grids.
//!
//! These supply the K-means cluster variables of Table 1: vorticity (`wz`) for
//! OF2D, potential vorticity (`pv`) for SST-P1F4, enstrophy for GESTS, and
//! the dissipation rate used as a GESTS input feature.

use rayon::prelude::*;

use crate::grid::{Axis, Grid3};

/// Central-difference partial derivative of `f` along `axis` with periodic
/// wrapping.
///
/// # Panics
/// Panics if `f.len() != grid.len()`.
pub fn partial(grid: &Grid3, f: &[f64], axis: Axis) -> Vec<f64> {
    assert_eq!(f.len(), grid.len(), "field length mismatch");
    let (dx, dy, dz) = grid.spacing();
    let h2 = match axis {
        Axis::X => 2.0 * dx,
        Axis::Y => 2.0 * dy,
        Axis::Z => 2.0 * dz,
    };
    let (ny, nz) = (grid.ny, grid.nz);
    let mut out = vec![0.0; f.len()];
    out.par_chunks_mut(ny * nz)
        .enumerate()
        .for_each(|(x, slab)| {
            for y in 0..ny {
                for z in 0..nz {
                    let (xi, yi, zi) = (x as isize, y as isize, z as isize);
                    let (ip, im) = match axis {
                        Axis::X => (
                            grid.periodic_idx(xi + 1, yi, zi),
                            grid.periodic_idx(xi - 1, yi, zi),
                        ),
                        Axis::Y => (
                            grid.periodic_idx(xi, yi + 1, zi),
                            grid.periodic_idx(xi, yi - 1, zi),
                        ),
                        Axis::Z => (
                            grid.periodic_idx(xi, yi, zi + 1),
                            grid.periodic_idx(xi, yi, zi - 1),
                        ),
                    };
                    slab[y * nz + z] = (f[ip] - f[im]) / h2;
                }
            }
        });
    out
}

/// z-component of vorticity for planar (`nz == 1`) flow: `wz = dv/dx - du/dy`.
///
/// # Panics
/// Panics if the grid is not planar or lengths mismatch.
pub fn vorticity_2d(grid: &Grid3, u: &[f64], v: &[f64]) -> Vec<f64> {
    assert_eq!(grid.nz, 1, "vorticity_2d requires nz == 1");
    let dvdx = partial(grid, v, Axis::X);
    let dudy = partial(grid, u, Axis::Y);
    dvdx.into_par_iter().zip(dudy).map(|(a, b)| a - b).collect()
}

/// Full vorticity vector `(wx, wy, wz) = curl(u, v, w)`.
pub fn vorticity_3d(
    grid: &Grid3,
    u: &[f64],
    v: &[f64],
    w: &[f64],
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let dwdy = partial(grid, w, Axis::Y);
    let dvdz = partial(grid, v, Axis::Z);
    let dudz = partial(grid, u, Axis::Z);
    let dwdx = partial(grid, w, Axis::X);
    let dvdx = partial(grid, v, Axis::X);
    let dudy = partial(grid, u, Axis::Y);
    let wx: Vec<f64> = dwdy.par_iter().zip(&dvdz).map(|(a, b)| a - b).collect();
    let wy: Vec<f64> = dudz.par_iter().zip(&dwdx).map(|(a, b)| a - b).collect();
    let wz: Vec<f64> = dvdx.par_iter().zip(&dudy).map(|(a, b)| a - b).collect();
    (wx, wy, wz)
}

/// Pointwise enstrophy `Ω = 0.5 * |ω|²` from the vorticity components.
pub fn enstrophy(wx: &[f64], wy: &[f64], wz: &[f64]) -> Vec<f64> {
    wx.par_iter()
        .zip(wy.par_iter().zip(wz.par_iter()))
        .map(|(&a, (&b, &c))| 0.5 * (a * a + b * b + c * c))
        .collect()
}

/// Pointwise kinetic-energy dissipation rate `ε = 2 ν S_ij S_ij` where `S`
/// is the strain-rate tensor.
pub fn dissipation(grid: &Grid3, u: &[f64], v: &[f64], w: &[f64], nu: f64) -> Vec<f64> {
    let dudx = partial(grid, u, Axis::X);
    let dudy = partial(grid, u, Axis::Y);
    let dudz = partial(grid, u, Axis::Z);
    let dvdx = partial(grid, v, Axis::X);
    let dvdy = partial(grid, v, Axis::Y);
    let dvdz = partial(grid, v, Axis::Z);
    let dwdx = partial(grid, w, Axis::X);
    let dwdy = partial(grid, w, Axis::Y);
    let dwdz = partial(grid, w, Axis::Z);
    (0..u.len())
        .into_par_iter()
        .map(|i| {
            let sxx = dudx[i];
            let syy = dvdy[i];
            let szz = dwdz[i];
            let sxy = 0.5 * (dudy[i] + dvdx[i]);
            let sxz = 0.5 * (dudz[i] + dwdx[i]);
            let syz = 0.5 * (dvdz[i] + dwdy[i]);
            2.0 * nu
                * (sxx * sxx + syy * syy + szz * szz + 2.0 * (sxy * sxy + sxz * sxz + syz * syz))
        })
        .collect()
}

/// Ertel potential vorticity `q = ω · ∇ρ` (up to the constant background
/// factor), the cluster variable the paper uses for SST-P1F4.
///
/// One pass over the grid with no field-sized temporaries, bit-identical to
/// composing [`vorticity_3d`] and [`partial`]: the same central differences
/// and the same `wx·rx + wy·ry + wz·rz` association, with the periodic
/// neighbour rows resolved once per `(x, y)` row instead of per point.
///
/// # Panics
/// Panics if any field's length differs from `grid.len()`.
pub fn potential_vorticity(grid: &Grid3, u: &[f64], v: &[f64], w: &[f64], rho: &[f64]) -> Vec<f64> {
    for f in [u, v, w, rho] {
        assert_eq!(f.len(), grid.len(), "field length mismatch");
    }
    let (nx, ny, nz) = (grid.nx, grid.ny, grid.nz);
    let (dx, dy, dz) = grid.spacing();
    let (hx, hy, hz) = (2.0 * dx, 2.0 * dy, 2.0 * dz);
    let mut out = vec![0.0; grid.len()];
    out.par_chunks_mut(ny * nz)
        .enumerate()
        .for_each(|(x, slab)| {
            let (xp, xm) = ((x + 1) % nx, (x + nx - 1) % nx);
            for (y, q) in slab.chunks_mut(nz).enumerate() {
                let (yp, ym) = ((y + 1) % ny, (y + ny - 1) % ny);
                // Offsets of this row and of its four neighbour rows.
                let row = |x: usize, y: usize| (x * ny + y) * nz;
                let (o, oxp, oxm, oyp, oym) =
                    (row(x, y), row(xp, y), row(xm, y), row(x, yp), row(x, ym));
                // d/dx and d/dy read the same z of a neighbouring row, d/dz
                // the neighbouring z of this one.
                let ddx = |f: &[f64], z: usize| (f[oxp + z] - f[oxm + z]) / hx;
                let ddy = |f: &[f64], z: usize| (f[oyp + z] - f[oym + z]) / hy;
                let ddz = |f: &[f64], zp: usize, zm: usize| (f[o + zp] - f[o + zm]) / hz;
                for (z, q) in q.iter_mut().enumerate() {
                    let (zp, zm) = ((z + 1) % nz, (z + nz - 1) % nz);
                    let wx = ddy(w, z) - ddz(v, zp, zm);
                    let wy = ddz(u, zp, zm) - ddx(w, z);
                    let wz = ddx(v, z) - ddy(u, z);
                    *q = wx * ddx(rho, z) + wy * ddy(rho, z) + wz * ddz(rho, zp, zm);
                }
            }
        });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    fn sine_field(grid: &Grid3, k: f64, axis: Axis) -> Vec<f64> {
        let mut f = vec![0.0; grid.len()];
        for x in 0..grid.nx {
            for y in 0..grid.ny {
                for z in 0..grid.nz {
                    let (px, py, pz) = grid.position(x, y, z);
                    let c = match axis {
                        Axis::X => px,
                        Axis::Y => py,
                        Axis::Z => pz,
                    };
                    f[grid.idx(x, y, z)] = (k * c).sin();
                }
            }
        }
        f
    }

    #[test]
    fn partial_of_sine_is_cosine() {
        let grid = Grid3::new(64, 4, 4, TAU, TAU, TAU);
        let f = sine_field(&grid, 1.0, Axis::X);
        let d = partial(&grid, &f, Axis::X);
        for x in 0..grid.nx {
            let (px, _, _) = grid.position(x, 0, 0);
            let got = d[grid.idx(x, 0, 0)];
            // Second-order accuracy: error ~ (dx^2)/6 * max|f'''|
            assert!(
                (got - px.cos()).abs() < 2e-3,
                "x={x}: {got} vs {}",
                px.cos()
            );
        }
    }

    #[test]
    fn partial_of_constant_is_zero() {
        let grid = Grid3::new(8, 8, 8, 1.0, 1.0, 1.0);
        let f = vec![3.5; grid.len()];
        for axis in [Axis::X, Axis::Y, Axis::Z] {
            assert!(partial(&grid, &f, axis).iter().all(|&v| v.abs() < 1e-14));
        }
    }

    #[test]
    fn solid_body_rotation_vorticity() {
        // u = -y', v = x' about the domain center has wz = 2 in the interior.
        let grid = Grid3::new(32, 32, 1, 1.0, 1.0, 1.0);
        let mut u = vec![0.0; grid.len()];
        let mut v = vec![0.0; grid.len()];
        for x in 0..grid.nx {
            for y in 0..grid.ny {
                let (px, py) = (x as f64 / 32.0 - 0.5, y as f64 / 32.0 - 0.5);
                u[grid.idx(x, y, 0)] = -py;
                v[grid.idx(x, y, 0)] = px;
            }
        }
        let wz = vorticity_2d(&grid, &u, &v);
        // Check interior points only (periodic wrap corrupts the boundary).
        for x in 4..28 {
            for y in 4..28 {
                assert!((wz[grid.idx(x, y, 0)] - 2.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn taylor_green_enstrophy_positive() {
        let grid = Grid3::cube_2pi(16);
        let mut u = vec![0.0; grid.len()];
        let mut v = vec![0.0; grid.len()];
        let w = vec![0.0; grid.len()];
        for x in 0..16 {
            for y in 0..16 {
                for z in 0..16 {
                    let (px, py, pz) = grid.position(x, y, z);
                    u[grid.idx(x, y, z)] = px.sin() * py.cos() * pz.cos();
                    v[grid.idx(x, y, z)] = -px.cos() * py.sin() * pz.cos();
                }
            }
        }
        let (wx, wy, wz) = vorticity_3d(&grid, &u, &v, &w);
        let ens = enstrophy(&wx, &wy, &wz);
        assert!(ens.iter().all(|&e| e >= 0.0));
        assert!(ens.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn dissipation_of_shear_flow() {
        // u = sin(y): S_xy = cos(y)/2, eps = 2*nu*(2*Sxy^2) = nu*cos^2(y).
        let grid = Grid3::new(4, 64, 4, TAU, TAU, TAU);
        let mut u = vec![0.0; grid.len()];
        for x in 0..grid.nx {
            for y in 0..grid.ny {
                for z in 0..grid.nz {
                    let (_, py, _) = grid.position(x, y, z);
                    u[grid.idx(x, y, z)] = py.sin();
                }
            }
        }
        let v = vec![0.0; grid.len()];
        let w = vec![0.0; grid.len()];
        let nu = 0.01;
        let eps = dissipation(&grid, &u, &v, &w, nu);
        for y in 0..grid.ny {
            let (_, py, _) = grid.position(0, y, 0);
            let expect = nu * py.cos().powi(2);
            let got = eps[grid.idx(0, y, 0)];
            assert!((got - expect).abs() < 1e-3, "y={y}: {got} vs {expect}");
        }
    }

    #[test]
    fn potential_vorticity_is_bit_identical_to_the_composed_form() {
        // Non-cubic, with unequal spacings, and a planar grid whose z
        // neighbours wrap onto the point itself.
        for grid in [
            Grid3::new(6, 4, 8, 1.0, 2.0, TAU),
            Grid3::new(5, 7, 1, TAU, 1.5, 1.0),
        ] {
            let field = |seed: f64| -> Vec<f64> {
                (0..grid.len())
                    .map(|i| (i as f64 * 0.731 + seed).sin() * 3.0 + (i as f64 * 1.93).cos())
                    .collect()
            };
            let (u, v, w, rho) = (field(0.1), field(2.3), field(4.7), field(9.2));
            let (wx, wy, wz) = vorticity_3d(&grid, &u, &v, &w);
            let (rx, ry, rz) = (
                partial(&grid, &rho, Axis::X),
                partial(&grid, &rho, Axis::Y),
                partial(&grid, &rho, Axis::Z),
            );
            let pv = potential_vorticity(&grid, &u, &v, &w, &rho);
            for i in 0..grid.len() {
                let want = wx[i] * rx[i] + wy[i] * ry[i] + wz[i] * rz[i];
                assert_eq!(pv[i].to_bits(), want.to_bits(), "{grid:?} point {i}");
            }
        }
    }

    #[test]
    fn potential_vorticity_zero_without_stratification() {
        let grid = Grid3::cube_2pi(8);
        let u = sine_field(&grid, 1.0, Axis::Y);
        let v = sine_field(&grid, 1.0, Axis::Z);
        let w = sine_field(&grid, 1.0, Axis::X);
        let rho = vec![1.0; grid.len()]; // uniform density -> zero gradient
        let pv = potential_vorticity(&grid, &u, &v, &w, &rho);
        assert!(pv.iter().all(|&q| q.abs() < 1e-12));
    }
}
