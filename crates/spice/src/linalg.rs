//! Dense linear algebra for the MNA solver.
//!
//! Circuit matrices in this workspace are small (tens of unknowns), so a
//! dense LU with partial pivoting is both the simplest and the fastest
//! appropriate choice. The PDE systems of `subvt-tcad` use that crate's
//! banded LU instead.
//!
//! The factorization is split out as [`LuFactors`] so Newton iterations
//! and sweep/sample points can reuse work: factor once, re-solve for any
//! number of right-hand sides, and — because consecutive solves share the
//! matrix *structure* and change only values — re-factor with the cached
//! pivot order instead of searching for pivots again. A cached-pivot
//! refactorization is rejected (so the caller falls back to a full
//! factorization) whenever a remembered pivot no longer dominates its
//! column, which keeps the reuse numerically safe.

#![allow(clippy::needless_range_loop)] // indexed loops mirror the textbook algorithms

/// A dense, row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Matrix dimension.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is 0×0 (paired with [`DenseMatrix::len`] per
    /// the usual container contract).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Reads entry `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.n + col]
    }

    /// Writes entry `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        self.data[row * self.n + col] = value;
    }

    /// An `n × n` zero matrix with one spare entry past its `n²`: the
    /// sink where a stamp plan drops the entries of ground's row and
    /// column.
    pub(crate) fn with_sink(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n + 1],
        }
    }

    /// The entries, row-major, then the sink of a [`DenseMatrix::with_sink`]
    /// matrix.
    pub(crate) fn entries_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Copies another matrix of the same dimension into this one without
    /// reallocating. A sink entry is not copied.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn copy_from(&mut self, other: &DenseMatrix) {
        assert_eq!(self.n, other.n, "dimension mismatch in copy_from");
        let n2 = self.n * self.n;
        self.data[..n2].copy_from_slice(&other.data[..n2]);
    }
}

/// Error from a singular (or numerically singular) system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrixError {
    /// Elimination column at which no usable pivot was found. Columns are
    /// not permuted, so this is also the index of the unknown whose
    /// equation set has no independent pivot.
    pub column: usize,
}

impl core::fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "matrix is singular at elimination column {}",
            self.column
        )
    }
}

impl std::error::Error for SingularMatrixError {}

/// Pivots below this magnitude are treated as numerically singular.
const PIVOT_MIN_ABS: f64 = 1e-300;

/// A cached pivot must be at least this fraction of its column's largest
/// remaining entry for a value-only refactorization to be accepted
/// (threshold pivoting — the classic fast-SPICE reuse guard).
const CACHED_PIVOT_MIN_RATIO: f64 = 0.1;

/// A reusable LU factorization with partial (row) pivoting.
///
/// Three entry points, in decreasing cost order:
///
/// 1. [`LuFactors::factor`] — full factorization with a fresh pivot
///    search.
/// 2. [`LuFactors::refactor_cached`] — value-only refactorization
///    reusing the pivot permutation cached by the last successful
///    [`LuFactors::factor`]; rejected when a cached pivot is degenerate.
/// 3. [`LuFactors::solve`] (or [`LuFactors::solve_into`]) —
///    forward/back substitution for a new right-hand side against the
///    current factors.
#[derive(Debug, Clone, Default)]
pub struct LuFactors {
    n: usize,
    /// Combined storage: `U` on and above the diagonal (in permuted row
    /// order), the `L` multipliers strictly below it.
    lu: DenseMatrix,
    /// `perm[col]` is the original row index eliminated at column `col`.
    perm: Vec<usize>,
    factored: bool,
}

impl Default for DenseMatrix {
    fn default() -> Self {
        DenseMatrix::zeros(0)
    }
}

impl LuFactors {
    /// Creates an empty workspace; the first [`LuFactors::factor`] sizes
    /// it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a factorization is currently held.
    pub fn is_factored(&self) -> bool {
        self.factored
    }

    /// Dimension of the held factorization (0 before the first factor).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the workspace is empty (no factorization sized yet).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Copies `a` into the workspace, resizing if the dimension changed.
    fn load(&mut self, a: &DenseMatrix) {
        if self.n != a.len() {
            self.n = a.len();
            self.lu = a.clone();
            self.perm = (0..self.n).collect();
        } else {
            self.lu.copy_from(a);
        }
    }

    /// Eliminates column `col` using pivot row `perm[col]`, storing the
    /// multipliers in place of the eliminated entries.
    fn eliminate(&mut self, col: usize) {
        let n = self.n;
        let prow = self.perm[col];
        let data = &mut self.lu.data;
        let pivot = data[prow * n + col];
        for &row in &self.perm[col + 1..] {
            let (p, r) = row_pair(data, n, prow, row);
            let factor = r[col] / pivot;
            if factor == 0.0 {
                continue;
            }
            r[col] = factor;
            for (v, &u) in r[col + 1..].iter_mut().zip(&p[col + 1..]) {
                *v -= factor * u;
            }
        }
    }

    /// Full factorization of `a` with a fresh partial-pivot search. The
    /// pivot permutation is cached for later
    /// [`LuFactors::refactor_cached`] calls.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when a pivot below `1e-300` is
    /// encountered; the workspace is left unfactored.
    pub fn factor(&mut self, a: &DenseMatrix) -> Result<(), SingularMatrixError> {
        self.load(a);
        self.factored = false;
        let n = self.n;
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i;
        }
        for col in 0..n {
            let mut best = col;
            let mut best_val = self.lu.get(self.perm[col], col).abs();
            for (r, &p) in self.perm.iter().enumerate().skip(col + 1) {
                let v = self.lu.get(p, col).abs();
                if v > best_val {
                    best = r;
                    best_val = v;
                }
            }
            if best_val < PIVOT_MIN_ABS {
                return Err(SingularMatrixError { column: col });
            }
            self.perm.swap(col, best);
            self.eliminate(col);
        }
        self.factored = true;
        Ok(())
    }

    /// Value-only refactorization reusing the cached pivot order.
    ///
    /// Intended for matrices that share structure with the last
    /// [`LuFactors::factor`] call — consecutive Newton iterations, sweep
    /// points, Monte-Carlo samples — where values drift but the dominant
    /// entries stay put. The pivot *search* (and its data movement) is
    /// skipped entirely.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when no factorization is cached,
    /// the dimension changed, or a cached pivot no longer passes the
    /// threshold-pivoting guard (it fell below `1e-300`, or below
    /// [`CACHED_PIVOT_MIN_RATIO`] of its column's largest remaining
    /// entry). Callers should respond with a full [`LuFactors::factor`].
    pub fn refactor_cached(&mut self, a: &DenseMatrix) -> Result<(), SingularMatrixError> {
        if !self.factored || self.n != a.len() {
            return Err(SingularMatrixError { column: 0 });
        }
        self.lu.copy_from(a);
        self.factored = false;
        let n = self.n;
        for col in 0..n {
            let pivot = self.lu.get(self.perm[col], col).abs();
            let mut col_max = pivot;
            for r in (col + 1)..n {
                col_max = col_max.max(self.lu.get(self.perm[r], col).abs());
            }
            if pivot < PIVOT_MIN_ABS || pivot < CACHED_PIVOT_MIN_RATIO * col_max {
                return Err(SingularMatrixError { column: col });
            }
            self.eliminate(col);
        }
        self.factored = true;
        Ok(())
    }

    /// Solves `A·x = b` against the held factors. `b` is overwritten with
    /// forward-substitution scratch.
    ///
    /// # Panics
    ///
    /// Panics if no factorization is held or `b.len()` differs from the
    /// factored dimension.
    pub fn solve(&self, b: &mut [f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// [`LuFactors::solve`] into a caller-owned `x`, so a Newton loop
    /// solves without allocating.
    ///
    /// # Panics
    ///
    /// Panics if no factorization is held or `b` or `x` is not of the
    /// factored dimension.
    pub fn solve_into(&self, b: &mut [f64], x: &mut [f64]) {
        assert!(self.factored, "solve() requires a successful factor()");
        let n = self.n;
        assert_eq!(b.len(), n, "rhs length must match matrix dimension");
        assert_eq!(x.len(), n, "solution length must match matrix dimension");
        let lu = &self.lu.data;

        // Forward substitution: replay the stored multipliers in the
        // exact order the fused elimination applied them.
        for col in 0..n {
            let prow = self.perm[col];
            for &row in &self.perm[col + 1..] {
                let factor = lu[row * n + col];
                if factor == 0.0 {
                    continue;
                }
                b[row] -= factor * b[prow];
            }
        }

        // Back substitution.
        for col in (0..n).rev() {
            let row = self.perm[col];
            let u = &lu[row * n..][..n];
            let mut sum = b[row];
            for (a, xk) in u[col + 1..].iter().zip(&x[col + 1..]) {
                sum -= a * xk;
            }
            x[col] = sum / u[col];
        }
    }
}

/// Rows `p` (read) and `r` (written) of a row-major matrix with `n`
/// columns, `p != r`.
fn row_pair(data: &mut [f64], n: usize, p: usize, r: usize) -> (&[f64], &mut [f64]) {
    if p < r {
        let (head, tail) = data.split_at_mut(r * n);
        (&head[p * n..][..n], &mut tail[..n])
    } else {
        let (head, tail) = data.split_at_mut(p * n);
        (&tail[..n], &mut head[r * n..][..n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_engine::rng::SplitMix64;

    /// The one-shot factor-and-solve the split paths are checked against.
    fn solve_in_place(a: &DenseMatrix, b: &mut [f64]) -> Result<Vec<f64>, SingularMatrixError> {
        let mut lu = LuFactors::new();
        lu.factor(a)?;
        Ok(lu.solve(b))
    }

    fn from_rows(rows: &[&[f64]]) -> DenseMatrix {
        let n = rows.len();
        let mut m = DenseMatrix::zeros(n);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n);
            for (j, &v) in row.iter().enumerate() {
                m.set(i, j, v);
            }
        }
        m
    }

    /// Uniform in [-1, 1).
    fn signed(rng: &mut SplitMix64) -> f64 {
        rng.next_f64() * 2.0 - 1.0
    }

    /// A random diagonally-dominant matrix with an MNA-like shape: a
    /// strongly dominant "conductance" block plus off-diagonal coupling.
    fn mna_shaped(n: usize, rng: &mut SplitMix64) -> DenseMatrix {
        let mut a = DenseMatrix::zeros(n);
        for i in 0..n {
            let mut dominance = 1.0;
            for j in 0..n {
                if i != j {
                    let v = signed(rng);
                    a.set(i, j, v);
                    dominance += v.abs();
                }
            }
            a.set(i, i, dominance);
        }
        a
    }

    fn rand_rhs(n: usize, rng: &mut SplitMix64) -> Vec<f64> {
        (0..n).map(|_| signed(rng) * 10.0).collect()
    }

    #[test]
    fn solves_identity() {
        let a = from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let mut b = vec![3.0, -4.0];
        let x = solve_in_place(&a, &mut b).unwrap();
        assert_eq!(x, vec![3.0, -4.0]);
    }

    #[test]
    fn solves_2x2_requiring_pivot() {
        // First pivot is zero; partial pivoting must handle it.
        let a = from_rows(&[&[0.0, 2.0], &[1.0, 1.0]]);
        let mut b = vec![4.0, 3.0];
        let x = solve_in_place(&a, &mut b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solves_3x3_hand_case() {
        let a = from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let mut b = vec![8.0, -11.0, -3.0];
        let x = solve_in_place(&a, &mut b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
        assert!((x[2] + 1.0).abs() < 1e-10);
    }

    #[test]
    fn rejects_singular() {
        let a = from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let mut b = vec![1.0, 2.0];
        assert!(solve_in_place(&a, &mut b).is_err());
        let mut lu = LuFactors::new();
        assert!(lu.factor(&a).is_err());
        assert!(!lu.is_factored());
    }

    #[test]
    fn len_and_is_empty_agree() {
        assert!(DenseMatrix::zeros(0).is_empty());
        let m = DenseMatrix::zeros(3);
        assert!(!m.is_empty());
        assert_eq!(m.len(), 3);
        let lu = LuFactors::new();
        assert!(lu.is_empty());
        assert_eq!(lu.len(), 0);
    }

    #[test]
    fn stamp_accumulates() {
        let mut m = DenseMatrix::with_sink(2);
        m.entries_mut()[0] += 1.0;
        m.entries_mut()[0] += 2.5;
        m.entries_mut()[4] += 7.0;
        assert_eq!(m.get(0, 0), 3.5);
        // The sink is not an entry: a copy leaves it behind.
        let mut plain = DenseMatrix::zeros(2);
        plain.copy_from(&m);
        assert_eq!(plain, from_rows(&[&[3.5, 0.0], &[0.0, 0.0]]));
    }

    #[test]
    fn factor_then_solve_is_bitwise_identical_to_solve_in_place() {
        // Property sweep: over random general and MNA-shaped systems, the
        // split factor/solve path must reproduce the fused solve exactly
        // (same arithmetic in the same order → identical bits, which is
        // stronger than the 1e-12 the spec asks for).
        let mut rng = SplitMix64::new(0x5eed_cafe_f00d);
        for trial in 0..40 {
            let n = 1 + (trial % 9);
            let a = if trial % 2 == 0 {
                mna_shaped(n, &mut rng)
            } else {
                // General (possibly pivot-requiring) random matrix.
                let mut m = DenseMatrix::zeros(n);
                for i in 0..n {
                    for j in 0..n {
                        m.set(i, j, signed(&mut rng) * 3.0);
                    }
                }
                m
            };
            let rhs = rand_rhs(n, &mut rng);

            let mut b_fused = rhs.clone();
            let fused = match solve_in_place(&a, &mut b_fused) {
                Ok(x) => x,
                Err(_) => continue, // random matrix degenerate — skip
            };

            let mut lu = LuFactors::new();
            lu.factor(&a).unwrap();
            let mut b_split = rhs.clone();
            let split = lu.solve(&mut b_split);

            for (f, s) in fused.iter().zip(&split) {
                assert_eq!(f.to_bits(), s.to_bits(), "trial {trial}");
            }
        }
    }

    #[test]
    fn factor_once_resolves_many_rhs() {
        let mut rng = SplitMix64::new(0xabcd_1234);
        let n = 7;
        let a = mna_shaped(n, &mut rng);
        let mut lu = LuFactors::new();
        lu.factor(&a).unwrap();
        for _ in 0..10 {
            let rhs = rand_rhs(n, &mut rng);
            let mut b = rhs.clone();
            let x = lu.solve(&mut b);
            let mut b_ref = rhs.clone();
            let x_ref = solve_in_place(&a, &mut b_ref).unwrap();
            for (got, want) in x.iter().zip(&x_ref) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn cached_pivot_refactor_matches_full_pivoting() {
        // Diagonally-dominant MNA-shaped matrices keep their pivot order
        // under value drift, so the cached-pivot refactorization must
        // agree with a fresh full-pivoting factorization to 1e-12.
        let mut rng = SplitMix64::new(0x00c0_ffee);
        for trial in 0..25 {
            let n = 2 + (trial % 7);
            let a0 = mna_shaped(n, &mut rng);
            let mut lu = LuFactors::new();
            lu.factor(&a0).unwrap();

            // Drift every value by a few percent, preserving dominance.
            let mut a1 = a0.clone();
            for i in 0..n {
                for j in 0..n {
                    let scale = 1.0 + 0.05 * signed(&mut rng);
                    a1.set(i, j, a0.get(i, j) * scale);
                }
            }
            lu.refactor_cached(&a1)
                .expect("dominant pivots must be reusable");

            let rhs = rand_rhs(n, &mut rng);
            let mut b = rhs.clone();
            let x_cached = lu.solve(&mut b);
            let mut b_ref = rhs.clone();
            let x_full = solve_in_place(&a1, &mut b_ref).unwrap();
            for (c, f) in x_cached.iter().zip(&x_full) {
                let scale = f.abs().max(1.0);
                assert!(
                    (c - f).abs() <= 1e-12 * scale,
                    "trial {trial}: cached {c} vs full {f}"
                );
            }
        }
    }

    #[test]
    fn cached_pivot_rejected_when_dominance_moves() {
        // Factor with row 0 dominant in column 0, then hand the cached
        // pivots a matrix where row 1 dominates: the threshold guard must
        // reject the reuse instead of silently amplifying error.
        let a0 = from_rows(&[&[10.0, 1.0], &[1.0, 10.0]]);
        let mut lu = LuFactors::new();
        lu.factor(&a0).unwrap();
        let a1 = from_rows(&[&[0.01, 1.0], &[10.0, 10.0]]);
        assert!(lu.refactor_cached(&a1).is_err());
        // And a full factor recovers.
        lu.factor(&a1).unwrap();
        let mut b = vec![1.0, 2.0];
        let x = lu.solve(&mut b);
        assert!((0.01 * x[0] + 1.0 * x[1] - 1.0).abs() < 1e-10);
        assert!((10.0 * x[0] + 10.0 * x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn refactor_without_factor_is_rejected() {
        let a = from_rows(&[&[1.0]]);
        let mut lu = LuFactors::new();
        assert!(lu.refactor_cached(&a).is_err());
        lu.factor(&a).unwrap();
        // Dimension change also invalidates the cached pivots.
        let bigger = from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert!(lu.refactor_cached(&bigger).is_err());
        lu.factor(&bigger).unwrap();
        let mut b = vec![5.0, 6.0];
        assert_eq!(lu.solve(&mut b), vec![5.0, 6.0]);
    }

    #[test]
    fn residual_small_for_diagonally_dominant() {
        // Property: a diagonally dominant 5×5 system solves to a residual
        // below 1e-8 for any off-diagonal entries in [-1, 1) and any
        // right-hand side in [-10, 10).
        let n = 5;
        for case in 0..256 {
            let mut rng = SplitMix64::stream(0xd0_1a97, case);
            let a = mna_shaped(n, &mut rng);
            let rhs = rand_rhs(n, &mut rng);
            let mut b = rhs.clone();
            let x = solve_in_place(&a, &mut b).unwrap();
            for i in 0..n {
                let ax: f64 = (0..n).map(|j| a.get(i, j) * x[j]).sum();
                assert!((ax - rhs[i]).abs() < 1e-8, "case {case}, row {i}");
            }
        }
    }
}
