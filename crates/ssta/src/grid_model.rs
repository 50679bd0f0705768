//! The grid-based spatial correlation model with PCA (paper Sec. 2.1,
//! following Chang & Sapatnekar [5]) — the *ad hoc* baseline the
//! kernel/KLE approach replaces.
//!
//! The die is divided into a `g x g` grid; every cell gets one RV per
//! parameter, with the inter-cell correlation matrix sampled from the
//! kernel at cell centers. PCA (eigendecomposition of that matrix, paper
//! eq. 1) extracts `r` uncorrelated components. This is a *discrete* KLE
//! with a fixed, arbitrary discretisation — the comparison sampler for
//! the paper's "how good is grid-free?" question.

use crate::samplers::{dot_lanes, into_param};
use crate::{GateFieldSampler, SstaError, LANES};
use klest_geometry::{Point2, Rect};
use klest_kernels::CovarianceKernel;
use klest_linalg::{Matrix, SymmetricEigen};
use klest_sta::ParamVector;

/// Grid-PCA sampler: Algorithm 1's accuracy model with Algorithm 2's
/// dimensionality, at the cost of grid-discretisation artefacts (every
/// gate in a cell is perfectly correlated; cell size is a free knob the
/// model gives no way to choose — the paper's criticism).
#[derive(Debug, Clone)]
pub struct GridPcaSampler {
    /// `N_nodes x r` map from principal components to per-gate values.
    gathered: Matrix,
    /// Grid resolution (cells per side).
    grid: usize,
    /// Fraction of grid-model variance the retained components capture.
    variance_captured: f64,
}

impl GridPcaSampler {
    /// Builds the sampler: `grid x grid` cells over `die`, correlation
    /// from `kernel` at cell centers, PCA truncated to `rank`
    /// components.
    ///
    /// # Errors
    ///
    /// - [`SstaError::InvalidConfig`] for a zero grid or rank larger than
    ///   the cell count,
    /// - [`SstaError::Linalg`] if the grid correlation matrix is not
    ///   factorable (possible for kernels that are invalid on lattices —
    ///   one of the grid model's documented failure modes).
    pub fn new<K: CovarianceKernel + ?Sized>(
        kernel: &K,
        die: Rect,
        grid: usize,
        rank: usize,
        locations: &[Point2],
    ) -> Result<Self, SstaError> {
        if grid == 0 {
            return Err(SstaError::InvalidConfig {
                name: "grid",
                value: "0".into(),
            });
        }
        let cells = grid * grid;
        if rank == 0 || rank > cells {
            return Err(SstaError::InvalidConfig {
                name: "rank",
                value: format!("{rank} (grid has {cells} cells)"),
            });
        }
        // Cell centers.
        let centers: Vec<Point2> = (0..cells)
            .map(|c| {
                let (i, j) = (c % grid, c / grid);
                die.lerp(
                    (i as f64 + 0.5) / grid as f64,
                    (j as f64 + 0.5) / grid as f64,
                )
            })
            .collect();
        // Correlation matrix + PCA.
        let corr = Matrix::from_fn(cells, cells, |i, j| kernel.eval(centers[i], centers[j]));
        let eig = SymmetricEigen::new(&corr)?;
        let total: f64 = eig.eigenvalues().iter().map(|l| l.max(0.0)).sum();
        let head: f64 = eig.eigenvalues()[..rank].iter().map(|l| l.max(0.0)).sum();
        // Per-cell loading matrix: cell value = Σ_j sqrt(λ_j) v_j[cell] ξ_j.
        let mut loadings = Matrix::zeros(cells, rank);
        for j in 0..rank {
            let lam = eig.eigenvalues()[j].max(0.0);
            let s = lam.sqrt();
            for i in 0..cells {
                loadings[(i, j)] = s * eig.eigenvectors()[(i, j)];
            }
        }
        // Gather per gate through its containing cell.
        let bbox = die.bbox();
        let mut gathered = Matrix::zeros(locations.len(), rank);
        for (row, p) in locations.iter().enumerate() {
            let fx = ((p.x - bbox.min.x) / bbox.width()).clamp(0.0, 1.0);
            let fy = ((p.y - bbox.min.y) / bbox.height()).clamp(0.0, 1.0);
            let i = ((fx * grid as f64) as usize).min(grid - 1);
            let j = ((fy * grid as f64) as usize).min(grid - 1);
            let cell = j * grid + i;
            gathered.row_mut(row).copy_from_slice(loadings.row(cell));
        }
        Ok(GridPcaSampler {
            gathered,
            grid,
            variance_captured: if total > 0.0 { head / total } else { 0.0 },
        })
    }

    /// Grid resolution (cells per side).
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// PCA rank `r`.
    pub fn rank(&self) -> usize {
        self.gathered.cols()
    }

    /// Fraction of the grid model's variance the retained components
    /// capture.
    pub fn variance_captured(&self) -> f64 {
        self.variance_captured
    }

    /// The linear map for `B` lanes: one dot product per gate, each row
    /// of the gathered loadings read once per block.
    fn correlate<const B: usize>(&self, xi: &[[f64; B]], mut put: impl FnMut(usize, [f64; B])) {
        for i in 0..self.gathered.rows() {
            put(i, dot_lanes(self.gathered.row(i), xi));
        }
    }
}

impl GateFieldSampler for GridPcaSampler {
    fn node_count(&self) -> usize {
        self.gathered.rows()
    }

    fn random_dims(&self) -> usize {
        self.gathered.cols()
    }

    fn correlate_into(&self, xi: &[f64], out: &mut [f64]) {
        self.correlate(xi.as_chunks().0, |i, [v]| out[i] = v);
    }

    fn correlate_lanes(&self, xi: &[[f64; LANES]], param: usize, out: &mut [[ParamVector; LANES]]) {
        self.correlate(xi, into_param(out, param));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NormalSource;
    use klest_kernels::GaussianKernel;
    use klest_rng::{SeedableRng, StdRng};

    fn probe_locations() -> Vec<Point2> {
        vec![
            Point2::new(-0.8, -0.8),
            Point2::new(-0.75, -0.75), // same cell as above for coarse grids
            Point2::new(0.8, 0.8),
            Point2::new(0.0, 0.0),
        ]
    }

    #[test]
    fn shapes_and_metadata() {
        let kernel = GaussianKernel::new(2.0);
        let locs = probe_locations();
        let s = GridPcaSampler::new(&kernel, Rect::unit_die(), 8, 20, &locs).unwrap();
        assert_eq!(s.grid(), 8);
        assert_eq!(s.rank(), 20);
        assert_eq!(s.node_count(), 4);
        assert_eq!(s.random_dims(), 20);
        assert!(s.variance_captured() > 0.5);
        assert!(s.variance_captured() <= 1.0 + 1e-12);
    }

    #[test]
    fn same_cell_gates_perfectly_correlated() {
        // The grid model's discretisation artefact: both probes fall in
        // one cell of a coarse grid, so their values are identical.
        let kernel = GaussianKernel::new(2.0);
        let locs = probe_locations();
        let s = GridPcaSampler::new(&kernel, Rect::unit_die(), 4, 16, &locs).unwrap();
        let mut normals = NormalSource::new(StdRng::seed_from_u64(3));
        let mut out = vec![0.0; 4];
        for _ in 0..5 {
            s.sample_into(&mut normals, &mut out);
            assert_eq!(out[0], out[1], "same-cell gates must coincide");
            assert_ne!(out[0], out[2], "far cells must differ");
        }
    }

    #[test]
    fn correlation_approximates_kernel_between_cells() {
        let kernel = GaussianKernel::new(1.0);
        let locs = vec![Point2::new(-0.5, -0.5), Point2::new(0.5, 0.5)];
        let s = GridPcaSampler::new(&kernel, Rect::unit_die(), 10, 100, &locs).unwrap();
        let mut normals = NormalSource::new(StdRng::seed_from_u64(17));
        let mut out = vec![0.0; 2];
        let (mut s01, mut s00, mut s11) = (0.0, 0.0, 0.0);
        let n = 6000;
        for _ in 0..n {
            s.sample_into(&mut normals, &mut out);
            s01 += out[0] * out[1];
            s00 += out[0] * out[0];
            s11 += out[1] * out[1];
        }
        let corr = s01 / (s00 * s11).sqrt();
        let expected = kernel.eval(locs[0], locs[1]);
        assert!((corr - expected).abs() < 0.08, "{corr} vs {expected}");
    }

    #[test]
    fn invalid_configs_rejected() {
        let kernel = GaussianKernel::new(1.0);
        let locs = probe_locations();
        assert!(matches!(
            GridPcaSampler::new(&kernel, Rect::unit_die(), 0, 1, &locs),
            Err(SstaError::InvalidConfig { name: "grid", .. })
        ));
        assert!(matches!(
            GridPcaSampler::new(&kernel, Rect::unit_die(), 2, 5, &locs),
            Err(SstaError::InvalidConfig { name: "rank", .. })
        ));
        assert!(matches!(
            GridPcaSampler::new(&kernel, Rect::unit_die(), 2, 0, &locs),
            Err(SstaError::InvalidConfig { name: "rank", .. })
        ));
    }

    #[test]
    fn full_rank_grid_matches_kernel_at_centers_exactly() {
        // With rank = cells, PCA is exact at cell centers: the model's
        // only remaining error is the discretisation itself.
        let kernel = GaussianKernel::new(2.0);
        // Put probes exactly at two cell centers of a 4x4 grid.
        let die = Rect::unit_die();
        let a = die.lerp(0.125, 0.125);
        let b = die.lerp(0.625, 0.375);
        let s = GridPcaSampler::new(&kernel, die, 4, 16, &[a, b]).unwrap();
        assert!((s.variance_captured() - 1.0).abs() < 1e-12);
        let mut normals = NormalSource::new(StdRng::seed_from_u64(5));
        let mut out = vec![0.0; 2];
        let (mut s01, mut s00, mut s11) = (0.0, 0.0, 0.0);
        for _ in 0..8000 {
            s.sample_into(&mut normals, &mut out);
            s01 += out[0] * out[1];
            s00 += out[0] * out[0];
            s11 += out[1] * out[1];
        }
        let corr = s01 / (s00 * s11).sqrt();
        let expected = kernel.eval(a, b);
        assert!((corr - expected).abs() < 0.05, "{corr} vs {expected}");
    }
}
