//! Hypercube tiling of snapshots (the paper's phase-1 spatial decomposition).
//!
//! Dense snapshots are partitioned into non-overlapping cubes of edge `s`
//! (the paper uses 32³; "full" baselines train on fully dense cubes of this
//! size). Tiles cover the grid completely when the dimensions divide evenly;
//! otherwise trailing partial tiles are dropped, as in the reference
//! implementation which slices `nxsl`-sized windows.

use serde::{Deserialize, Serialize};

use crate::grid::Grid3;
use crate::points::FeatureMatrix;
use crate::snapshot::Snapshot;

/// One axis-aligned tile of a grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hypercube {
    /// Tile id within its tiling (row-major over tile coordinates).
    pub id: usize,
    /// Starting grid indices `(x0, y0, z0)`.
    pub origin: (usize, usize, usize),
    /// Edge lengths in points `(ex, ey, ez)`; `ez = 1` for 2D data.
    pub edges: (usize, usize, usize),
}

impl Hypercube {
    /// Number of points in the cube.
    pub fn len(&self) -> usize {
        self.edges.0 * self.edges.1 * self.edges.2
    }

    /// Returns true for a degenerate cube.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat grid indices of every point in the cube, in row-major cube order.
    pub fn point_indices(&self, grid: &Grid3) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.len());
        for run in self.runs(grid) {
            out.extend(run);
        }
        out
    }

    /// The cube as flat index ranges of `grid`, one per `(x, y)` column: `z`
    /// is contiguous in memory, so each is a plain slice of a variable.
    /// Concatenated in order they are [`Self::point_indices`].
    pub fn runs<'g>(&self, grid: &'g Grid3) -> impl Iterator<Item = std::ops::Range<usize>> + 'g {
        let (x0, y0, z0) = self.origin;
        let (ex, ey, ez) = self.edges;
        (x0..x0 + ex)
            .flat_map(move |x| (y0..y0 + ey).map(move |y| (x, y)))
            .map(move |(x, y)| {
                let start = grid.idx(x, y, z0);
                start..start + ez
            })
    }
}

/// A complete tiling of a grid into equal hypercubes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Tiling {
    /// The tiled grid.
    pub grid: Grid3,
    /// Tile edge lengths `(ex, ey, ez)`.
    pub edges: (usize, usize, usize),
    /// Tile counts along each axis.
    pub counts: (usize, usize, usize),
}

impl Tiling {
    /// Tiles `grid` with cubes of edges `(ex, ey, ez)`.
    ///
    /// Trailing points that do not fill a complete tile are excluded (the
    /// reference implementation slices whole windows only).
    ///
    /// # Panics
    /// Panics if any edge is zero or exceeds the grid extent.
    pub fn new(grid: Grid3, edges: (usize, usize, usize)) -> Self {
        let (ex, ey, ez) = edges;
        assert!(ex > 0 && ey > 0 && ez > 0, "tile edges must be positive");
        assert!(
            ex <= grid.nx && ey <= grid.ny && ez <= grid.nz,
            "tile edges {edges:?} exceed grid ({}, {}, {})",
            grid.nx,
            grid.ny,
            grid.nz
        );
        let counts = (grid.nx / ex, grid.ny / ey, grid.nz / ez);
        Tiling {
            grid,
            edges,
            counts,
        }
    }

    /// Tiles with a cubic edge (`s`, `s`, `s` clamped to 1 along z for 2D
    /// grids where `nz == 1`).
    pub fn cubic(grid: Grid3, s: usize) -> Self {
        let ez = if grid.nz == 1 { 1 } else { s };
        Tiling::new(grid, (s, s, ez))
    }

    /// Total number of tiles.
    pub fn len(&self) -> usize {
        self.counts.0 * self.counts.1 * self.counts.2
    }

    /// Returns true if the grid is smaller than one tile.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th tile (row-major over tile coordinates).
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn tile(&self, i: usize) -> Hypercube {
        assert!(
            i < self.len(),
            "tile {i} out of range ({} tiles)",
            self.len()
        );
        let (cx, cy, cz) = self.counts;
        let tz = i % cz;
        let rest = i / cz;
        let ty = rest % cy;
        let tx = rest / cy;
        debug_assert!(tx < cx);
        Hypercube {
            id: i,
            origin: (tx * self.edges.0, ty * self.edges.1, tz * self.edges.2),
            edges: self.edges,
        }
    }

    /// Iterator over all tiles.
    pub fn tiles(&self) -> impl Iterator<Item = Hypercube> + '_ {
        (0..self.len()).map(|i| self.tile(i))
    }

    /// Extracts the feature rows of every point in tile `i` from `snap`,
    /// using the given variables (by name).
    ///
    /// Returns `(features, point_indices)`.
    pub fn extract(
        &self,
        snap: &Snapshot,
        tile_id: usize,
        var_names: &[String],
    ) -> (FeatureMatrix, Vec<usize>) {
        let cube = self.tile(tile_id);
        let vidx = snap.var_indices(var_names);
        let indices = cube.point_indices(&self.grid);
        let mut features = FeatureMatrix::with_capacity(var_names.to_vec(), indices.len());
        let mut row = vec![0.0; vidx.len()];
        for &p in &indices {
            snap.gather_point(&vidx, p, &mut row);
            features.push_row(&row);
        }
        (features, indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid3;

    #[test]
    fn exact_tiling_covers_grid() {
        let g = Grid3::new(8, 8, 8, 1.0, 1.0, 1.0);
        let t = Tiling::cubic(g, 4);
        assert_eq!(t.len(), 8);
        let mut seen = vec![false; g.len()];
        for cube in t.tiles() {
            for i in cube.point_indices(&g) {
                assert!(!seen[i], "point {i} covered twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "tiling must cover every point");
    }

    #[test]
    fn runs_are_the_cube_columns_in_order() {
        let g = Grid3::new(10, 9, 12, 1.0, 1.0, 1.0);
        let t = Tiling::new(g, (3, 4, 5));
        for cube in t.tiles() {
            let (x0, y0, z0) = cube.origin;
            let want: Vec<_> = (0..3)
                .flat_map(|dx| (0..4).map(move |dy| (dx, dy)))
                .map(|(dx, dy)| {
                    let start = g.idx(x0 + dx, y0 + dy, z0);
                    start..start + 5
                })
                .collect();
            assert_eq!(cube.runs(&g).collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn partial_tiles_dropped() {
        let g = Grid3::new(10, 10, 10, 1.0, 1.0, 1.0);
        let t = Tiling::cubic(g, 4);
        assert_eq!(t.counts, (2, 2, 2));
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn two_dimensional_tiling() {
        let g = Grid3::new(8, 8, 1, 1.0, 1.0, 1.0);
        let t = Tiling::cubic(g, 4);
        assert_eq!(t.counts, (2, 2, 1));
        assert_eq!(t.tile(0).edges, (4, 4, 1));
        assert_eq!(t.tile(0).len(), 16);
    }

    #[test]
    fn tile_ids_roundtrip() {
        let g = Grid3::new(8, 12, 16, 1.0, 1.0, 1.0);
        let t = Tiling::new(g, (4, 4, 4));
        for i in 0..t.len() {
            assert_eq!(t.tile(i).id, i);
        }
        assert_eq!(t.len(), 2 * 3 * 4);
    }

    #[test]
    fn extract_pulls_correct_values() {
        let g = Grid3::new(4, 4, 1, 1.0, 1.0, 1.0);
        let data: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let snap = Snapshot::new(g, 0.0).with_var("u", data);
        let t = Tiling::cubic(g, 2);
        let (features, idx) = t.extract(&snap, 0, &["u".to_string()]);
        assert_eq!(features.len(), 4);
        // Tile 0 covers x in 0..2, y in 0..2 -> flat indices 0,1,4,5.
        assert_eq!(idx, vec![0, 1, 4, 5]);
        assert_eq!(features.column(0), vec![0.0, 1.0, 4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "exceed grid")]
    fn rejects_oversized_tile() {
        let g = Grid3::new(4, 4, 4, 1.0, 1.0, 1.0);
        let _ = Tiling::cubic(g, 8);
    }
}
