//! Tensor-product rectangular mesh for the 2-D device cross-section.
//!
//! Coordinates follow the device convention: `x` runs laterally from the
//! source contact to the drain contact; `y` runs vertically, negative
//! into the gate oxide and positive into the silicon bulk (`y = 0` is the
//! Si/SiO₂ interface).

/// Material occupying a mesh node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Material {
    /// Crystalline silicon (carries dopants and carriers).
    Silicon,
    /// Gate oxide (charge-free dielectric).
    Oxide,
}

/// Electrical boundary condition attached to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// Interior or Neumann (reflecting) node.
    Interior,
    /// Ohmic source contact.
    Source,
    /// Ohmic drain contact.
    Drain,
    /// Gate contact (on top of the oxide).
    Gate,
    /// Substrate (bulk) contact at the bottom.
    Substrate,
}

/// A rectangular tensor-product mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct Mesh {
    /// x-coordinates of the grid lines, cm, ascending.
    pub xs: Vec<f64>,
    /// y-coordinates of the grid lines, cm, ascending (negative = oxide).
    pub ys: Vec<f64>,
    /// Node material, row-major (`idx = j*nx + i`).
    pub material: Vec<Material>,
    /// Node boundary condition, row-major.
    pub boundary: Vec<Boundary>,
}

impl Mesh {
    /// Number of grid lines in x.
    pub fn nx(&self) -> usize {
        self.xs.len()
    }

    /// Number of grid lines in y.
    pub fn ny(&self) -> usize {
        self.ys.len()
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.nx() * self.ny()
    }

    /// Whether the mesh has no nodes.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty() || self.ys.is_empty()
    }

    /// Flat index of node `(i, j)`.
    #[inline]
    pub fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.nx() && j < self.ny());
        j * self.nx() + i
    }

    /// Coordinates of node `(i, j)` in cm.
    #[inline]
    pub fn coords(&self, i: usize, j: usize) -> (f64, f64) {
        (self.xs[i], self.ys[j])
    }

    /// Control-volume half-widths around grid line `k` of `axis`:
    /// `0.5·(h_left + h_right)` with one-sided widths at the ends.
    pub fn dual_width(axis: &[f64], k: usize) -> f64 {
        let n = axis.len();
        let left = if k > 0 { axis[k] - axis[k - 1] } else { 0.0 };
        let right = if k + 1 < n {
            axis[k + 1] - axis[k]
        } else {
            0.0
        };
        0.5 * (left + right)
    }
}

/// Numbering of the mesh nodes in rows `j0..ny` (every column) as the
/// unknowns of a banded system. The numbering runs along the shorter
/// axis of that block, so the half-bandwidth is its shorter side. On
/// both device meshes that is the depth: the whole mesh is 17–19 rows
/// deep and the silicon 14–15, against 38–59 columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandOrder {
    nx: usize,
    j0: usize,
    rows: usize,
}

impl BandOrder {
    /// The numbering of rows `j0..mesh.ny()`.
    pub fn new(mesh: &Mesh, j0: usize) -> Self {
        Self {
            nx: mesh.nx(),
            j0,
            rows: mesh.ny() - j0,
        }
    }

    /// Number of unknowns.
    pub fn unknowns(&self) -> usize {
        self.nx * self.rows
    }

    /// Half-bandwidth of a five-point stencil in this numbering.
    pub fn bandwidth(&self) -> usize {
        self.nx.min(self.rows)
    }

    /// Unknown index of node `(i, j)`.
    #[inline]
    pub fn local(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.nx && j >= self.j0 && j < self.j0 + self.rows);
        let jj = j - self.j0;
        if self.rows <= self.nx {
            i * self.rows + jj
        } else {
            jj * self.nx + i
        }
    }
}

/// Builds a 1-D axis that is uniformly fine inside `[fine_lo, fine_hi]`
/// (spacing `h_fine`) and geometrically coarsened toward `lo`/`hi`
/// outside it. Returns ascending, de-duplicated coordinates.
///
/// # Panics
///
/// Panics unless `lo ≤ fine_lo < fine_hi ≤ hi` and `h_fine > 0`.
pub fn graded_axis(lo: f64, hi: f64, fine_lo: f64, fine_hi: f64, h_fine: f64) -> Vec<f64> {
    assert!(lo <= fine_lo && fine_lo < fine_hi && fine_hi <= hi);
    assert!(h_fine > 0.0);
    let mut pts = Vec::new();

    // Coarsening region [lo, fine_lo): march from fine_lo toward lo with
    // geometric growth, then reverse.
    let grow = 1.35;
    let mut left = Vec::new();
    let mut pos = fine_lo;
    let mut h = h_fine;
    while pos > lo + 1e-12 {
        h *= grow;
        pos = (pos - h).max(lo);
        left.push(pos);
    }
    left.reverse();
    pts.extend(left);

    // Fine region [fine_lo, fine_hi].
    let n_fine = ((fine_hi - fine_lo) / h_fine).round().max(1.0) as usize;
    for k in 0..=n_fine {
        pts.push(fine_lo + (fine_hi - fine_lo) * k as f64 / n_fine as f64);
    }

    // Coarsening region (fine_hi, hi].
    let mut pos = fine_hi;
    let mut h = h_fine;
    while pos < hi - 1e-12 {
        h *= grow;
        pos = (pos + h).min(hi);
        pts.push(pos);
    }

    // De-duplicate near-coincident points.
    pts.dedup_by(|a, b| (*a - *b).abs() < 1e-13);
    pts
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_engine::rng::SplitMix64;

    #[test]
    fn graded_axis_covers_interval() {
        let axis = graded_axis(0.0, 10.0, 4.0, 6.0, 0.25);
        assert!((axis[0] - 0.0).abs() < 1e-12);
        assert!((axis[axis.len() - 1] - 10.0).abs() < 1e-12);
        for w in axis.windows(2) {
            assert!(w[1] > w[0], "axis must ascend");
        }
    }

    #[test]
    fn graded_axis_fine_region_uniform() {
        let axis = graded_axis(0.0, 10.0, 4.0, 6.0, 0.25);
        let fine: Vec<f64> = axis
            .iter()
            .cloned()
            .filter(|&x| (4.0..=6.0).contains(&x))
            .collect();
        assert_eq!(fine.len(), 9);
        for w in fine.windows(2) {
            assert!((w[1] - w[0] - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn dual_widths_sum_to_span() {
        let axis = graded_axis(0.0, 5.0, 2.0, 3.0, 0.1);
        let total: f64 = (0..axis.len()).map(|k| Mesh::dual_width(&axis, k)).sum();
        assert!((total - 5.0).abs() < 1e-9);
    }

    #[test]
    fn idx_round_trip() {
        let mesh = Mesh {
            xs: vec![0.0, 1.0, 2.0],
            ys: vec![0.0, 1.0],
            material: vec![Material::Silicon; 6],
            boundary: vec![Boundary::Interior; 6],
        };
        assert_eq!(mesh.idx(2, 1), 5);
        assert_eq!(mesh.len(), 6);
        assert_eq!(mesh.coords(1, 1), (1.0, 1.0));
    }

    #[test]
    fn graded_axis_always_sorted() {
        let mut rng = SplitMix64::new(0x9ad3);
        for _ in 0..256 {
            let span = 1.0 + 99.0 * rng.next_f64();
            let fine_lo = span * (0.1 + 0.3 * rng.next_f64());
            let fine_hi = span * (0.5 + 0.4 * rng.next_f64());
            let axis = graded_axis(0.0, span, fine_lo, fine_hi, span / 100.0);
            assert!(
                axis.windows(2).all(|w| w[1] > w[0]),
                "unsorted axis for span {span}, fine [{fine_lo}, {fine_hi}]"
            );
            assert!(axis.len() >= 3);
        }
    }

    #[test]
    fn band_order_numbers_along_the_short_axis() {
        let mesh = |nx: usize, ny: usize| Mesh {
            xs: (0..nx).map(|k| k as f64).collect(),
            ys: (0..ny).map(|k| k as f64).collect(),
            material: vec![Material::Silicon; nx * ny],
            boundary: vec![Boundary::Interior; nx * ny],
        };
        // (nx, ny, j0, expected half-bandwidth): the two device meshes'
        // Poisson and silicon blocks, a wide-and-shallow and a
        // tall-and-narrow block, and a square one.
        for (nx, ny, j0, bw) in [
            (38, 17, 0, 17),
            (38, 17, 3, 14),
            (59, 19, 4, 15),
            (3, 9, 0, 3),
            (4, 4, 0, 4),
        ] {
            let m = mesh(nx, ny);
            let order = BandOrder::new(&m, j0);
            assert_eq!(order.bandwidth(), bw);
            assert_eq!(order.unknowns(), nx * (ny - j0));
            let mut seen = vec![false; order.unknowns()];
            for j in j0..ny {
                for i in 0..nx {
                    let k = order.local(i, j);
                    assert!(!seen[k], "({i},{j}) reuses unknown {k}");
                    seen[k] = true;
                    // Every five-point neighbour stays inside the band.
                    if i + 1 < nx {
                        assert!(order.local(i + 1, j).abs_diff(k) <= bw);
                    }
                    if j + 1 < ny {
                        assert!(order.local(i, j + 1).abs_diff(k) <= bw);
                    }
                }
            }
        }
    }
}
