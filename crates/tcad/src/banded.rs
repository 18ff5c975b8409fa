//! Banded LU solver (no pivoting): the crate's one linear solver, used
//! for both halves of the Gummel loop.
//!
//! Both systems number their unknowns along the mesh's shorter axis
//! (see [`crate::mesh::BandOrder`]), so the half-bandwidth is the
//! depth of the meshed region rather than its lateral node count. The
//! drift-diffusion continuity matrix is an irreducibly diagonally
//! dominant M-matrix, and the Poisson Newton Jacobian is the negative of
//! one (a finite-volume Laplacian whose diagonal the carrier term only
//! strengthens), so elimination without pivoting is stable for both. A
//! direct solve also side-steps the enormous dynamic range of carrier
//! densities (1e2…1e20 cm⁻³) that makes iterative residual tests
//! unreliable for the continuity system.
//!
//! [`BandedMatrix::factor`] and [`BandedMatrix::solve`] are the one
//! factorization path and the one substitution path. The split lets a
//! factorization serve more than one right-hand side: the Gummel loop's
//! Poisson solves factor the Jacobian at a bias point's first iteration
//! and after any iteration whose residual rose, and every other Newton
//! step is a chord step that runs only the `O(n·bw)` substitutions on
//! those factors (see [`crate::poisson`]). A factorization followed by a
//! solve keeps the bits of the fused elimination it replaced.

#![allow(clippy::needless_range_loop)] // indexed loops mirror the textbook algorithms

/// A square banded matrix with half-bandwidth `bw` (entries `(i, j)` with
/// `|i − j| ≤ bw`), stored row-major as `n × (2·bw + 1)`.
#[derive(Debug, Clone, PartialEq)]
pub struct BandedMatrix {
    n: usize,
    bw: usize,
    data: Vec<f64>,
}

/// Error from a zero (or denormal) pivot during factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroPivotError {
    /// Row at which elimination failed.
    pub row: usize,
}

impl core::fmt::Display for ZeroPivotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "zero pivot at row {}", self.row)
    }
}

impl std::error::Error for ZeroPivotError {}

impl BandedMatrix {
    /// Creates a zero matrix.
    pub fn zeros(n: usize, bw: usize) -> Self {
        Self {
            n,
            bw,
            data: vec![0.0; n * (2 * bw + 1)],
        }
    }

    /// Turns the matrix into an `n × n` zero matrix of half-bandwidth
    /// `bw`, reusing its storage: no allocation when `n·(2·bw + 1)`
    /// entries fit in what the matrix has held before.
    pub(crate) fn reset(&mut self, n: usize, bw: usize) {
        self.n = n;
        self.bw = bw;
        self.data.clear();
        self.data.resize(n * (2 * bw + 1), 0.0);
    }

    /// Matrix dimension.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is 0×0.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn slot(&self, row: usize, col: usize) -> Option<usize> {
        let (lo, hi) = (row.saturating_sub(self.bw), (row + self.bw).min(self.n - 1));
        if col < lo || col > hi {
            return None;
        }
        Some(row * (2 * self.bw + 1) + (col + self.bw - row))
    }

    /// Reads entry `(row, col)` (zero outside the band).
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.slot(row, col).map_or(0.0, |s| self.data[s])
    }

    /// Writes entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the entry lies outside the band.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        let s = self.slot(row, col).expect("entry outside band");
        self.data[s] = value;
    }

    /// Adds to entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the entry lies outside the band.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        let s = self.slot(row, col).expect("entry outside band");
        self.data[s] += value;
    }

    /// Zeros an entire row (used to impose Dirichlet rows).
    pub fn clear_row(&mut self, row: usize) {
        let start = row * (2 * self.bw + 1);
        self.data[start..start + 2 * self.bw + 1].fill(0.0);
    }

    /// `y = A·x`.
    pub fn mul_vec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        for row in 0..self.n {
            let lo = row.saturating_sub(self.bw);
            let hi = (row + self.bw).min(self.n - 1);
            let mut acc = 0.0;
            for col in lo..=hi {
                acc += self.get(row, col) * x[col];
            }
            y[row] = acc;
        }
    }

    /// Factors the matrix in place by banded LU without pivoting. The
    /// upper band becomes `U` (diagonal included); each entry of the
    /// lower band becomes the multiplier that eliminated it, so the
    /// unit lower factor `L` holds the row operations that [`Self::solve`]
    /// replays on a right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`ZeroPivotError`] if a pivot magnitude falls below
    /// 1e-300; the matrix then holds a partial factorization that
    /// [`Self::solve`] must not use.
    pub fn factor(&mut self) -> Result<(), ZeroPivotError> {
        let (n, bw) = (self.n, self.bw);
        let w = 2 * bw + 1;
        // Row `r` is the slice `data[r·w..(r+1)·w]` and its slot `s`
        // holds column `r + s − bw`: the diagonal sits at slot `bw`, and
        // column `k` of row `k + d` at slot `bw − d`, where the
        // multiplier is stored once the column is eliminated (no later
        // step reads column `k` of a row below the pivot again).
        for k in 0..n {
            let reach = bw.min(n - 1 - k);
            let (head, tail) = self.data.split_at_mut((k + 1) * w);
            let pivot_row = &head[k * w..];
            let pivot = pivot_row[bw];
            if pivot.abs() < 1e-300 {
                return Err(ZeroPivotError { row: k });
            }
            let upper = &pivot_row[bw + 1..=bw + reach];
            for (d, row) in (1..=reach).zip(tail.chunks_exact_mut(w)) {
                let factor = row[bw - d] / pivot;
                row[bw - d] = factor;
                if factor == 0.0 {
                    continue;
                }
                for (a, u) in row[bw + 1 - d..=bw + reach - d].iter_mut().zip(upper) {
                    *a -= factor * u;
                }
            }
        }
        Ok(())
    }

    /// Solves `A·x = b` in place with the factors of [`Self::factor`]:
    /// `b` becomes `x`. The forward substitution subtracts the
    /// multipliers in the order the elimination applied them, so a
    /// solve right after a factorization has the bits of an elimination
    /// that carries the right-hand side along, and every later solve
    /// with the same factors costs `O(n·bw)` instead of `O(n·bw²)`.
    ///
    /// The matrix must hold the factors of a successful
    /// [`Self::factor`]; on an unfactored matrix the result is
    /// meaningless.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n);
        let (n, bw) = (self.n, self.bw);
        let w = 2 * bw + 1;
        // Forward substitution, `L·y = b`, row by row: row `i` subtracts
        // its multipliers left to right, the order in which the
        // elimination reached it, and each `b[j]` it reads is final.
        for (i, row) in self.data.chunks_exact(w).enumerate() {
            let reach = bw.min(i);
            let (y, rest) = b.split_at_mut(i);
            let mut acc = rest[0];
            for (l, yj) in row[bw - reach..bw].iter().zip(&y[i - reach..]) {
                if *l != 0.0 {
                    acc -= l * yj;
                }
            }
            rest[0] = acc;
        }
        // Back substitution, `U·x = y`: `b[k + 1..]` already holds
        // `x[k + 1..]`.
        for (k, row) in self.data.chunks_exact(w).enumerate().rev() {
            let reach = bw.min(n - 1 - k);
            let (head, x) = b.split_at_mut(k + 1);
            let mut acc = head[k];
            for (a, xc) in row[bw + 1..=bw + reach].iter().zip(&x[..reach]) {
                acc -= a * xc;
            }
            head[k] = acc / row[bw];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_engine::rng::SplitMix64;

    /// The fused elimination this module shipped before the split into
    /// [`BandedMatrix::factor`] and [`BandedMatrix::solve`], kept as the
    /// bit-level reference: it carries `b` through the elimination and
    /// overwrites the matrix without storing the multipliers.
    fn solve_in_place(m: &mut BandedMatrix, b: &mut [f64]) -> Result<(), ZeroPivotError> {
        assert_eq!(b.len(), m.n);
        let (n, bw) = (m.n, m.bw);
        let w = 2 * bw + 1;
        for k in 0..n {
            let reach = bw.min(n - 1 - k);
            let (head, tail) = m.data.split_at_mut((k + 1) * w);
            let pivot_row = &head[k * w..];
            let pivot = pivot_row[bw];
            if pivot.abs() < 1e-300 {
                return Err(ZeroPivotError { row: k });
            }
            let upper = &pivot_row[bw + 1..=bw + reach];
            for (d, row) in (1..=reach).zip(tail.chunks_exact_mut(w)) {
                let factor = row[bw - d] / pivot;
                if factor == 0.0 {
                    continue;
                }
                for (a, u) in row[bw + 1 - d..=bw + reach - d].iter_mut().zip(upper) {
                    *a -= factor * u;
                }
                b[k + d] -= factor * b[k];
            }
        }
        for (k, row) in m.data.chunks_exact(w).enumerate().rev() {
            let reach = bw.min(n - 1 - k);
            let (head, x) = b.split_at_mut(k + 1);
            let mut acc = head[k];
            for (a, xc) in row[bw + 1..=bw + reach].iter().zip(&x[..reach]) {
                acc -= a * xc;
            }
            head[k] = acc / row[bw];
        }
        Ok(())
    }

    /// Factors a copy of `m` and solves `m·x = b` in place.
    fn factor_solve(m: &BandedMatrix, b: &mut [f64]) -> Result<(), ZeroPivotError> {
        let mut lu = m.clone();
        lu.factor()?;
        lu.solve(b);
        Ok(())
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Uniform sample in `[lo, hi)`.
    fn uniform(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * rng.next_f64()
    }

    /// A random row-diagonally-dominant banded matrix: every in-band
    /// off-diagonal uniform in `[-1, 1)`, each diagonal its row's
    /// off-diagonal magnitude sum plus `[0.5, 1.5)` with a random sign.
    /// Rows listed in `dirichlet` are identity rows, as contacts are.
    fn random_dominant(
        rng: &mut SplitMix64,
        n: usize,
        bw: usize,
        dirichlet: &[usize],
    ) -> BandedMatrix {
        let mut m = BandedMatrix::zeros(n, bw);
        for i in 0..n {
            if dirichlet.contains(&i) {
                m.set(i, i, 1.0);
                continue;
            }
            let mut diag = uniform(rng, 0.5, 1.5);
            for j in i.saturating_sub(bw)..=(i + bw).min(n - 1) {
                if i != j {
                    let v = uniform(rng, -1.0, 1.0);
                    m.set(i, j, v);
                    diag += v.abs();
                }
            }
            let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
            m.set(i, i, sign * diag);
        }
        m
    }

    /// Reference solve: dense Gaussian elimination with partial pivoting.
    fn dense_solve(m: &BandedMatrix, b: &[f64]) -> Vec<f64> {
        let n = m.len();
        let mut a: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| m.get(i, j)).collect())
            .collect();
        let mut b = b.to_vec();
        for k in 0..n {
            let p = (k..n)
                .max_by(|&r, &s| a[r][k].abs().total_cmp(&a[s][k].abs()))
                .unwrap();
            a.swap(k, p);
            b.swap(k, p);
            let (top, below) = a.split_at_mut(k + 1);
            let pivot = &top[k];
            for (r, row) in (k + 1..n).zip(below) {
                let f = row[k] / pivot[k];
                for (x, p) in row[k..].iter_mut().zip(&pivot[k..]) {
                    *x -= f * p;
                }
                b[r] -= f * b[k];
            }
        }
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let tail: f64 = (k + 1..n).map(|c| a[k][c] * x[c]).sum();
            x[k] = (b[k] - tail) / a[k][k];
        }
        x
    }

    #[test]
    fn tridiagonal_poisson() {
        // -u'' = 1 on 5 interior points, h = 1: u = x(6-x)/2 at x=1..5.
        let n = 5;
        let mut m = BandedMatrix::zeros(n, 1);
        for i in 0..n {
            m.set(i, i, 2.0);
            if i > 0 {
                m.set(i, i - 1, -1.0);
            }
            if i + 1 < n {
                m.set(i, i + 1, -1.0);
            }
        }
        let mut x = vec![1.0; n];
        factor_solve(&m, &mut x).unwrap();
        let want = [2.5, 4.0, 4.5, 4.0, 2.5];
        for (got, w) in x.iter().zip(want) {
            assert!((got - w).abs() < 1e-10, "{got} vs {w}");
        }
    }

    #[test]
    fn wide_band_matches_grid_laplacian() {
        // 3x3 grid Laplacian (bw = 3) with Dirichlet boundary folded in:
        // solve and verify A·x = b.
        let n = 9;
        let bw = 3;
        let mut m = BandedMatrix::zeros(n, bw);
        for i in 0..n {
            m.set(i, i, 4.0);
            if i % 3 != 0 {
                m.set(i, i - 1, -1.0);
            }
            if i % 3 != 2 {
                m.set(i, i + 1, -1.0);
            }
            if i >= 3 {
                m.set(i, i - 3, -1.0);
            }
            if i + 3 < n {
                m.set(i, i + 3, -1.0);
            }
        }
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut x = b.clone();
        factor_solve(&m, &mut x).unwrap();
        let mut check = vec![0.0; n];
        m.mul_vec(&x, &mut check);
        for (c, w) in check.iter().zip(&b) {
            assert!((c - w).abs() < 1e-9);
        }
    }

    #[test]
    fn dirichlet_row_pins_value() {
        let n = 4;
        let mut m = BandedMatrix::zeros(n, 1);
        for i in 0..n {
            m.set(i, i, 2.0);
            if i > 0 {
                m.set(i, i - 1, -1.0);
            }
            if i + 1 < n {
                m.set(i, i + 1, -1.0);
            }
        }
        m.clear_row(0);
        m.set(0, 0, 1.0);
        let mut x = vec![7.0, 0.0, 0.0, 0.0];
        factor_solve(&m, &mut x).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn zero_pivot_detected() {
        let mut m = BandedMatrix::zeros(3, 1);
        assert_eq!(m.factor(), Err(ZeroPivotError { row: 0 }));
    }

    #[test]
    fn a_reset_matrix_solves_as_a_fresh_one() {
        // The storage of a larger, factored system is reused for a
        // smaller one: the stale factors must not leak into its solve.
        let mut rng = SplitMix64::new(0x5e7);
        let mut reused = random_dominant(&mut rng, 40, 6, &[3]);
        reused.factor().unwrap();
        let fresh = random_dominant(&mut rng, 25, 4, &[0, 24]);
        reused.reset(25, 4);
        for i in 0..25usize {
            for j in i.saturating_sub(4)..=(i + 4).min(24) {
                reused.set(i, j, fresh.get(i, j));
            }
        }
        let rhs: Vec<f64> = (0..25).map(|_| uniform(&mut rng, -3.0, 3.0)).collect();
        let (mut x_reused, mut x_fresh) = (rhs.clone(), rhs);
        factor_solve(&reused, &mut x_reused).unwrap();
        factor_solve(&fresh, &mut x_fresh).unwrap();
        assert_eq!(bits(&x_reused), bits(&x_fresh));
    }

    #[test]
    fn out_of_band_reads_zero() {
        let m = BandedMatrix::zeros(5, 1);
        assert_eq!(m.get(0, 4), 0.0);
    }

    #[test]
    fn solves_random_dominant_banded() {
        for case in 0..256 {
            let mut rng = SplitMix64::stream(0xba2d, case);
            let (n, bw) = (10, 2);
            let m = random_dominant(&mut rng, n, bw, &[]);
            let rhs: Vec<f64> = (0..n).map(|_| uniform(&mut rng, -3.0, 3.0)).collect();
            let mut x = rhs.clone();
            factor_solve(&m, &mut x).unwrap();
            let mut check = vec![0.0; n];
            m.mul_vec(&x, &mut check);
            for (c, w) in check.iter().zip(&rhs) {
                assert!((c - w).abs() < 1e-8, "case {case}: {c} vs {w}");
            }
        }
    }

    #[test]
    fn matches_dense_elimination_at_mesh_bandwidths() {
        // The bandwidths the two Gummel systems use on the coarse and
        // standard meshes, plus the tridiagonal extreme.
        for bw in [1, 14, 15, 17, 19] {
            for case in 0..8 {
                let mut rng = SplitMix64::stream(bw as u64, case);
                let n = bw + 1 + (rng.next_u64() % (4 * bw as u64 + 8)) as usize;
                let dirichlet: Vec<usize> = (0..n).filter(|_| rng.next_f64() < 0.15).collect();
                let m = random_dominant(&mut rng, n, bw, &dirichlet);
                let rhs: Vec<f64> = (0..n).map(|_| uniform(&mut rng, -3.0, 3.0)).collect();
                let want = dense_solve(&m, &rhs);
                let mut x = rhs.clone();
                factor_solve(&m, &mut x).unwrap();
                for (k, (got, w)) in x.iter().zip(&want).enumerate() {
                    assert!(
                        (got - w).abs() <= 1e-12 * w.abs().max(1.0),
                        "bw {bw}, case {case}, row {k}: {got} vs {w}"
                    );
                }
                for &k in &dirichlet {
                    assert_eq!(x[k], rhs[k], "identity row {k} must pin its value");
                }
                let mut check = vec![0.0; n];
                m.mul_vec(&x, &mut check);
                for (k, (c, r)) in check.iter().zip(&rhs).enumerate() {
                    assert!(
                        (c - r).abs() <= 1e-12 * r.abs().max(1.0),
                        "bw {bw}, case {case}, row {k}: A·x = {c} vs b = {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn factor_then_solve_keeps_the_bits_of_the_fused_elimination() {
        // The matrices of `matches_dense_elimination_at_mesh_bandwidths`,
        // contact rows included, each factored once and then solved for
        // several right-hand sides, as the chord steps reuse a factor.
        for bw in [1, 14, 15, 17, 19] {
            for case in 0..8 {
                let mut rng = SplitMix64::stream(bw as u64, case);
                let n = bw + 1 + (rng.next_u64() % (4 * bw as u64 + 8)) as usize;
                let dirichlet: Vec<usize> = (0..n).filter(|_| rng.next_f64() < 0.15).collect();
                let m = random_dominant(&mut rng, n, bw, &dirichlet);
                let mut lu = m.clone();
                lu.factor().unwrap();
                for rhs_case in 0..4 {
                    let rhs: Vec<f64> = (0..n).map(|_| uniform(&mut rng, -3.0, 3.0)).collect();
                    let mut fused = rhs.clone();
                    solve_in_place(&mut m.clone(), &mut fused).unwrap();
                    let mut split = rhs;
                    lu.solve(&mut split);
                    assert_eq!(
                        bits(&split),
                        bits(&fused),
                        "bw {bw}, case {case}, right-hand side {rhs_case}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_zero_pivot_fails_the_factorization_at_the_fused_row() {
        let mut rng = SplitMix64::new(0x2e70);
        // An empty row, and a row that elimination cancels exactly: the
        // second row of [[1, 1], [1, 1]] leaves a zero pivot behind.
        let mut empty = random_dominant(&mut rng, 30, 5, &[0, 29]);
        empty.clear_row(17);
        let mut cancelling = random_dominant(&mut rng, 12, 3, &[]);
        cancelling.clear_row(4);
        cancelling.clear_row(5);
        for (i, j) in [(4, 4), (4, 5), (5, 4), (5, 5)] {
            cancelling.set(i, j, 1.0);
        }
        for (m, row) in [(empty, 17), (cancelling, 5)] {
            let mut fused = m.clone();
            let want = solve_in_place(&mut fused, &mut vec![1.0; m.len()]);
            assert_eq!(want, Err(ZeroPivotError { row }));
            assert_eq!(m.clone().factor(), want);
        }
    }
}
