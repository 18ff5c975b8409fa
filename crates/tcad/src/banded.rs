//! Banded symmetric LDLᵀ solver (no pivoting): the crate's one linear
//! solver, used for both halves of the Gummel loop.
//!
//! Both systems number their unknowns along the mesh's shorter axis
//! (see [`crate::mesh::BandOrder`]), so the half-bandwidth is the
//! depth of the meshed region rather than its lateral node count. Both
//! are symmetric once each Dirichlet neighbour's column is folded into
//! the right-hand side: the Poisson Newton Jacobian is a finite-volume
//! Laplacian plus a diagonal carrier term, and the Scharfetter–Gummel
//! continuity matrix is symmetric in the Slotboom variable (see
//! [`crate::continuity`]). Each is (the negative of) an irreducibly
//! diagonally dominant M-matrix, so elimination without pivoting is
//! stable. A direct solve also side-steps the enormous dynamic range of
//! carrier densities (1e2…1e20 cm⁻³) that makes iterative residual
//! tests unreliable for the continuity system.
//!
//! [`SymBandedMatrix`] keeps only the upper band, `n × (bw + 1)`
//! entries, half the storage of a general band, and
//! [`SymBandedMatrix::factor`] eliminates only that half: about
//! `n·bw²/2` multiply-adds against `n·bw²` for a banded LU.
//! [`SymBandedMatrix::solve`] runs the substitutions on those factors,
//! so a factorization can serve more than one right-hand side: the
//! Gummel loop's Poisson solves factor the Jacobian at a bias point's
//! first iteration and after any iteration whose residual rose, and
//! every other Newton step is a chord step that runs only the
//! `O(n·bw)` substitutions (see [`crate::poisson`]). The unit tests
//! keep the banded LU this solver replaced as the reference it must
//! agree with.

#![allow(clippy::needless_range_loop)] // indexed loops mirror the textbook algorithms

/// A square symmetric banded matrix with half-bandwidth `bw` (entries
/// `(i, j)` with `|i − j| ≤ bw`). Only the upper band is stored, row-major
/// as `n × (bw + 1)`: slot `s` of row `r` holds entry `(r, r + s)`, and
/// `(r + s, r)` is the same entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SymBandedMatrix {
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

impl SymBandedMatrix {
    /// Creates a zero matrix.
    pub fn zeros(n: usize, bw: usize) -> Self {
        Self {
            n,
            bw,
            data: vec![0.0; n * (bw + 1)],
        }
    }

    /// Turns the matrix into an `n × n` zero matrix of half-bandwidth
    /// `bw`, reusing its storage: no allocation when `n·(bw + 1)`
    /// entries fit in what the matrix has held before.
    pub(crate) fn reset(&mut self, n: usize, bw: usize) {
        self.n = n;
        self.bw = bw;
        self.data.clear();
        self.data.resize(n * (bw + 1), 0.0);
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
        let (lo, hi) = (row.min(col), row.max(col));
        (hi - lo <= self.bw && hi < self.n).then(|| lo * (self.bw + 1) + (hi - lo))
    }

    /// Reads entry `(row, col)` (zero outside the band).
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.slot(row, col).map_or(0.0, |s| self.data[s])
    }

    /// Writes entry `(row, col)`, which is also entry `(col, row)`.
    ///
    /// # Panics
    ///
    /// Panics if the entry lies outside the band.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        let s = self.slot(row, col).expect("entry outside band");
        self.data[s] = value;
    }

    /// Adds to entry `(row, col)`, which is also entry `(col, row)`.
    ///
    /// # Panics
    ///
    /// Panics if the entry lies outside the band.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        let s = self.slot(row, col).expect("entry outside band");
        self.data[s] += value;
    }

    /// `y = A·x`.
    pub fn mul_vec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        for row in 0..self.n {
            let lo = row.saturating_sub(self.bw);
            let hi = (row + self.bw).min(self.n - 1);
            y[row] = (lo..=hi).map(|col| self.get(row, col) * x[col]).sum();
        }
    }

    /// Factors the matrix in place as `A = Uᵀ·D·U` without pivoting,
    /// `U` unit upper triangular and `D` diagonal. Each diagonal slot
    /// becomes the reciprocal pivot `1/d_k`, and each off-diagonal slot
    /// `(k, k + d)` the multiplier `u_{k,k+d}` that eliminated entry
    /// `(k + d, k)`, which [`Self::solve`] replays on a right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`ZeroPivotError`] if a pivot magnitude falls below
    /// 1e-300; the matrix then holds a partial factorization that
    /// [`Self::solve`] must not use.
    pub fn factor(&mut self) -> Result<(), ZeroPivotError> {
        let (n, bw) = (self.n, self.bw);
        let w = bw + 1;
        for k in 0..n {
            let reach = bw.min(n - 1 - k);
            let (head, tail) = self.data.split_at_mut((k + 1) * w);
            let pivot_row = &mut head[k * w..];
            let pivot = pivot_row[0];
            if pivot.abs() < 1e-300 {
                return Err(ZeroPivotError { row: k });
            }
            let inv = 1.0 / pivot;
            pivot_row[0] = inv;
            // Row `k + d` loses `u·(row k)` from its diagonal on: its
            // slot `e − d` is column `k + e`, for `e` in `d..=reach`.
            // The multiplier overwrites its slot only after the update,
            // which reads the slot's unscaled value.
            for (d, row) in (1..=reach).zip(tail.chunks_exact_mut(w)) {
                let a = pivot_row[d];
                if a == 0.0 {
                    continue;
                }
                let u = a * inv;
                for (x, p) in row[..=reach - d].iter_mut().zip(&pivot_row[d..=reach]) {
                    *x -= u * p;
                }
                pivot_row[d] = u;
            }
        }
        Ok(())
    }

    /// Solves `A·x = b` in place with the factors of [`Self::factor`]:
    /// `b` becomes `x`. The forward substitution `Uᵀ·y = b` subtracts
    /// each multiplier in the order the elimination applied it, and the
    /// back substitution computes `x_k = y_k/d_k − Σ u_{k,k+d}·x_{k+d}`;
    /// each costs `O(n·bw)`.
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
        let w = bw + 1;
        // Forward substitution, column by column: once `b[k]` is final,
        // row `k`'s multipliers carry it into the rows below.
        for (k, row) in self.data.chunks_exact(w).enumerate() {
            let reach = bw.min(n - 1 - k);
            let (head, below) = b.split_at_mut(k + 1);
            let y = head[k];
            for (bi, u) in below[..reach].iter_mut().zip(&row[1..=reach]) {
                *bi -= u * y;
            }
        }
        // Diagonal scaling and back substitution, `D·U·x = y`:
        // `b[k + 1..]` already holds `x[k + 1..]`.
        for (k, row) in self.data.chunks_exact(w).enumerate().rev() {
            let reach = bw.min(n - 1 - k);
            let (head, x) = b.split_at_mut(k + 1);
            let mut acc = head[k] * row[0];
            for (u, xc) in row[1..=reach].iter().zip(&x[..reach]) {
                acc -= u * xc;
            }
            head[k] = acc;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use subvt_engine::rng::SplitMix64;

    /// The banded LU without pivoting that this module shipped before
    /// the symmetric factorization, kept as the reference the LDLᵀ must
    /// agree with: a general band stored row-major as `n × (2·bw + 1)`.
    #[derive(Debug, Clone)]
    pub(crate) struct BandedLu {
        n: usize,
        bw: usize,
        data: Vec<f64>,
    }

    impl BandedLu {
        pub(crate) fn zeros(n: usize, bw: usize) -> Self {
            Self {
                n,
                bw,
                data: vec![0.0; n * (2 * bw + 1)],
            }
        }

        fn slot(&self, row: usize, col: usize) -> usize {
            assert!(row.abs_diff(col) <= self.bw && row.max(col) < self.n);
            row * (2 * self.bw + 1) + (col + self.bw - row)
        }

        pub(crate) fn set(&mut self, row: usize, col: usize, value: f64) {
            let s = self.slot(row, col);
            self.data[s] = value;
        }

        pub(crate) fn add(&mut self, row: usize, col: usize, value: f64) {
            let s = self.slot(row, col);
            self.data[s] += value;
        }

        /// Both triangles of a symmetric matrix.
        fn from_symmetric(m: &SymBandedMatrix) -> Self {
            let mut lu = Self::zeros(m.n, m.bw);
            for i in 0..m.n {
                for j in i.saturating_sub(m.bw)..=(i + m.bw).min(m.n - 1) {
                    lu.set(i, j, m.get(i, j));
                }
            }
            lu
        }

        /// Banded LU in place: the upper band becomes `U`, each lower
        /// slot the multiplier that eliminated it.
        pub(crate) fn factor(&mut self) -> Result<(), ZeroPivotError> {
            let (n, bw) = (self.n, self.bw);
            let w = 2 * bw + 1;
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

        /// Forward substitution in the elimination's order, then back
        /// substitution, on the factors of [`Self::factor`].
        pub(crate) fn solve(&self, b: &mut [f64]) {
            assert_eq!(b.len(), self.n);
            let (n, bw) = (self.n, self.bw);
            let w = 2 * bw + 1;
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

    /// The fused elimination that preceded [`BandedLu::factor`] and
    /// [`BandedLu::solve`]: it carries `b` through the elimination and
    /// overwrites the matrix without storing the multipliers.
    fn solve_in_place(m: &mut BandedLu, b: &mut [f64]) -> Result<(), ZeroPivotError> {
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
    fn factor_solve(m: &SymBandedMatrix, b: &mut [f64]) -> Result<(), ZeroPivotError> {
        let mut ldlt = m.clone();
        ldlt.factor()?;
        ldlt.solve(b);
        Ok(())
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Uniform sample in `[lo, hi)`.
    fn uniform(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * rng.next_f64()
    }

    /// A random symmetric row-diagonally-dominant banded matrix: every
    /// in-band off-diagonal uniform in `[-1, 1)`, each diagonal its
    /// row's off-diagonal magnitude sum plus `[0.5, 1.5)` with a random
    /// sign. Rows listed in `dirichlet` are identity rows whose column
    /// is folded away, as the solvers fold their contacts.
    fn random_dominant(
        rng: &mut SplitMix64,
        n: usize,
        bw: usize,
        dirichlet: &[usize],
    ) -> SymBandedMatrix {
        let mut m = SymBandedMatrix::zeros(n, bw);
        for i in 0..n {
            for j in i + 1..=(i + bw).min(n - 1) {
                let v = uniform(rng, -1.0, 1.0);
                if !dirichlet.contains(&i) && !dirichlet.contains(&j) {
                    m.set(i, j, v);
                }
            }
        }
        for i in 0..n {
            if dirichlet.contains(&i) {
                m.set(i, i, 1.0);
                continue;
            }
            let lo = i.saturating_sub(bw);
            let off: f64 = (lo..=(i + bw).min(n - 1))
                .filter(|&j| j != i)
                .map(|j| m.get(i, j).abs())
                .sum();
            let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
            m.set(i, i, sign * (off + uniform(rng, 0.5, 1.5)));
        }
        m
    }

    /// Zeros row `row` and, the matrix being symmetric, its column.
    fn clear_row_and_column(m: &mut SymBandedMatrix, row: usize) {
        for col in row.saturating_sub(m.bw)..=(row + m.bw).min(m.n - 1) {
            m.set(row, col, 0.0);
        }
    }

    /// The random systems of the agreement tests: at the bandwidths the
    /// two Gummel systems use on the coarse and standard meshes, plus
    /// the tridiagonal extreme, with about 15 % Dirichlet rows.
    fn mesh_bandwidth_cases(
    ) -> impl Iterator<Item = (String, SymBandedMatrix, Vec<usize>, SplitMix64)> {
        [1, 14, 15, 17, 19].into_iter().flat_map(|bw| {
            (0..8).map(move |case| {
                let mut rng = SplitMix64::stream(bw as u64, case);
                let n = bw + 1 + (rng.next_u64() % (4 * bw as u64 + 8)) as usize;
                let dirichlet: Vec<usize> = (0..n).filter(|_| rng.next_f64() < 0.15).collect();
                let m = random_dominant(&mut rng, n, bw, &dirichlet);
                (format!("bw {bw}, case {case}"), m, dirichlet, rng)
            })
        })
    }

    /// Reference solve: dense Gaussian elimination with partial pivoting.
    fn dense_solve(m: &SymBandedMatrix, b: &[f64]) -> Vec<f64> {
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
        let mut m = SymBandedMatrix::zeros(n, 1);
        for i in 0..n {
            m.set(i, i, 2.0);
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
        let mut m = SymBandedMatrix::zeros(n, bw);
        for i in 0..n {
            m.set(i, i, 4.0);
            if i % 3 != 2 {
                m.set(i, i + 1, -1.0);
            }
            if i + 3 < n {
                m.set(i, i + 3, -1.0);
            }
        }
        assert_eq!(m.get(4, 3), -1.0, "the lower triangle mirrors the upper");
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
        // A 1-D Laplacian whose node 0 is pinned at 7: its row is the
        // identity and its column is folded into node 1's right-hand
        // side, which keeps the system symmetric.
        let n = 4;
        let mut m = SymBandedMatrix::zeros(n, 1);
        for i in 0..n {
            m.set(i, i, 2.0);
            if i + 1 < n {
                m.set(i, i + 1, -1.0);
            }
        }
        clear_row_and_column(&mut m, 0);
        m.set(0, 0, 1.0);
        let mut x = vec![7.0, 7.0, 0.0, 0.0];
        factor_solve(&m, &mut x).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        // Nodes 1..3 and a grounded node 4: linear from 7 to 0.
        for (k, want) in [(1, 5.25), (2, 3.5), (3, 1.75)] {
            assert!((x[k] - want).abs() < 1e-12, "node {k}: {}", x[k]);
        }
    }

    #[test]
    fn zero_pivot_detected() {
        let mut m = SymBandedMatrix::zeros(3, 1);
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
            for j in i..=(i + 4).min(24) {
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
        let m = SymBandedMatrix::zeros(5, 1);
        assert_eq!(m.get(0, 4), 0.0);
        assert_eq!(m.get(4, 0), 0.0);
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
        for (case, m, dirichlet, mut rng) in mesh_bandwidth_cases() {
            let n = m.len();
            let rhs: Vec<f64> = (0..n).map(|_| uniform(&mut rng, -3.0, 3.0)).collect();
            let want = dense_solve(&m, &rhs);
            let mut x = rhs.clone();
            factor_solve(&m, &mut x).unwrap();
            for (k, (got, w)) in x.iter().zip(&want).enumerate() {
                assert!(
                    (got - w).abs() <= 1e-12 * w.abs().max(1.0),
                    "{case}, row {k}: {got} vs {w}"
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
                    "{case}, row {k}: A·x = {c} vs b = {r}"
                );
            }
        }
    }

    #[test]
    fn ldlt_agrees_with_the_lu_reference_at_mesh_bandwidths() {
        // Each matrix is factored once and solved for several
        // right-hand sides, as the chord steps reuse a factorization.
        for (case, m, _, mut rng) in mesh_bandwidth_cases() {
            let n = m.len();
            let mut ldlt = m.clone();
            ldlt.factor().unwrap();
            let mut lu = BandedLu::from_symmetric(&m);
            lu.factor().unwrap();
            for rhs_case in 0..4 {
                let rhs: Vec<f64> = (0..n).map(|_| uniform(&mut rng, -3.0, 3.0)).collect();
                let (mut x, mut want) = (rhs.clone(), rhs);
                ldlt.solve(&mut x);
                lu.solve(&mut want);
                for (k, (got, w)) in x.iter().zip(&want).enumerate() {
                    assert!(
                        (got - w).abs() <= 1e-12 * w.abs().max(1.0),
                        "{case}, right-hand side {rhs_case}, row {k}: {got} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn factor_then_solve_keeps_the_bits_of_the_fused_elimination() {
        // The LU reference itself: its factor and solve reproduce the
        // fused elimination bit for bit, for several right-hand sides
        // per factorization.
        for (case, m, _, mut rng) in mesh_bandwidth_cases() {
            let n = m.len();
            let mut lu = BandedLu::from_symmetric(&m);
            lu.factor().unwrap();
            for rhs_case in 0..4 {
                let rhs: Vec<f64> = (0..n).map(|_| uniform(&mut rng, -3.0, 3.0)).collect();
                let mut fused = rhs.clone();
                solve_in_place(&mut BandedLu::from_symmetric(&m), &mut fused).unwrap();
                let mut split = rhs;
                lu.solve(&mut split);
                assert_eq!(
                    bits(&split),
                    bits(&fused),
                    "{case}, right-hand side {rhs_case}"
                );
            }
        }
    }

    #[test]
    fn a_zero_pivot_fails_the_factorization_at_the_fused_row() {
        let mut rng = SplitMix64::new(0x2e70);
        // An empty row, and a pair of rows that elimination cancels
        // exactly: the second row of [[1, 1], [1, 1]] leaves a zero
        // pivot behind.
        let mut empty = random_dominant(&mut rng, 30, 5, &[0, 29]);
        clear_row_and_column(&mut empty, 17);
        let mut cancelling = random_dominant(&mut rng, 12, 3, &[]);
        clear_row_and_column(&mut cancelling, 4);
        clear_row_and_column(&mut cancelling, 5);
        for (i, j) in [(4, 4), (4, 5), (5, 5)] {
            cancelling.set(i, j, 1.0);
        }
        for (m, row) in [(empty, 17), (cancelling, 5)] {
            let mut fused = BandedLu::from_symmetric(&m);
            let want = solve_in_place(&mut fused, &mut vec![1.0; m.len()]);
            assert_eq!(want, Err(ZeroPivotError { row }));
            assert_eq!(BandedLu::from_symmetric(&m).factor(), want);
            assert_eq!(m.clone().factor(), want);
        }
    }
}
