//! Small numerical toolbox: special functions, root finding, minimization
//! and grid helpers shared across the workspace.
//!
//! Nothing here is device-specific; it exists because the workspace takes
//! no numerical dependencies (there is no established Rust TCAD/SPICE
//! ecosystem to lean on).

/// Error function `erf(x)`, via the Abramowitz & Stegun 7.1.26 rational
/// approximation (|error| ≤ 1.5e-7), extended to negative arguments by
/// odd symmetry.
///
/// # Examples
///
/// ```
/// use subvt_physics::math::erf;
/// assert!((erf(0.0)).abs() < 1e-6);
/// assert!((erf(1.0) - 0.8427).abs() < 1e-3);
/// assert!((erf(-1.0) + 0.8427).abs() < 1e-3);
/// ```
pub fn erf(x: f64) -> f64 {
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;

    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Numerically safe `ln(1 + e^x)` (softplus), avoiding overflow for large
/// `x` and underflow for very negative `x`.
pub fn softplus(x: f64) -> f64 {
    if x > 35.0 {
        x
    } else if x < -35.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// The EKV interpolation function `F(v) = ln²(1 + e^{v/2})`, which tends to
/// `e^v` in weak inversion (`v ≪ 0`) and `(v/2)²` in strong inversion.
pub fn ekv_f(v: f64) -> f64 {
    let s = softplus(v / 2.0);
    s * s
}

/// Numerically safe logistic `σ(x) = 1 / (1 + e^{−x})`, evaluated through
/// the non-overflowing branch for each sign.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// `(softplus(x), σ(x))` bit for bit as [`softplus`] and [`sigmoid`]
/// compute them, sharing their `e^x` for `x < 0`. Only on `[0, 35]`,
/// where the softplus needs `e^x` and the sigmoid's non-overflowing
/// branch needs `e^{−x}`, does it take two exponentials.
pub fn softplus_sigmoid(x: f64) -> (f64, f64) {
    if x > 35.0 {
        (x, 1.0 / (1.0 + (-x).exp()))
    } else if x >= 0.0 {
        (x.exp().ln_1p(), 1.0 / (1.0 + (-x).exp()))
    } else {
        let e = x.exp();
        let s = if x < -35.0 { e } else { e.ln_1p() };
        (s, e / (1.0 + e))
    }
}

/// `(F(v), F'(v))` for the EKV function [`ekv_f`], the value bit for bit
/// as `ekv_f` computes it. Since `F(v) = s(v/2)²` with `s` the softplus
/// and `s'(x) = σ(x)`, `F'(v) = s(v/2)·σ(v/2)`, which tends to `e^v` in
/// weak inversion and `v/2` in strong inversion.
pub fn ekv_f_with_prime(v: f64) -> (f64, f64) {
    let (s, sigma) = softplus_sigmoid(v / 2.0);
    (s * s, s * sigma)
}

/// Result of a bracketing root search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Root {
    /// Abscissa of the root.
    pub x: f64,
    /// Residual `f(x)` at the returned abscissa.
    pub residual: f64,
    /// Iterations consumed.
    pub iterations: usize,
}

/// Error raised when a bracketing solver is given a bad bracket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BracketError;

impl core::fmt::Display for BracketError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "function does not change sign over the given bracket")
    }
}

impl std::error::Error for BracketError {}

/// Finds a root of `f` in `[a, b]` by bisection.
///
/// Robust (always converges for a valid bracket) and accurate to `tol` in
/// `x`. Used where the target function is cheap, monotone, and possibly
/// non-smooth (e.g. table-driven interpolants).
///
/// # Errors
///
/// Returns [`BracketError`] if `f(a)` and `f(b)` have the same sign.
pub fn bisect<F: FnMut(f64) -> f64>(
    mut f: F,
    a: f64,
    b: f64,
    tol: f64,
    max_iter: usize,
) -> Result<Root, BracketError> {
    let (mut lo, mut hi) = (a.min(b), a.max(b));
    let (mut flo, fhi) = (f(lo), f(hi));
    if flo == 0.0 {
        return Ok(Root {
            x: lo,
            residual: 0.0,
            iterations: 0,
        });
    }
    if fhi == 0.0 {
        return Ok(Root {
            x: hi,
            residual: 0.0,
            iterations: 0,
        });
    }
    if flo.signum() == fhi.signum() {
        return Err(BracketError);
    }
    let mut iterations = 0;
    while hi - lo > tol && iterations < max_iter {
        let mid = 0.5 * (lo + hi);
        let fmid = f(mid);
        iterations += 1;
        if fmid == 0.0 {
            return Ok(Root {
                x: mid,
                residual: 0.0,
                iterations,
            });
        }
        if fmid.signum() == flo.signum() {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
    let x = 0.5 * (lo + hi);
    Ok(Root {
        x,
        residual: f(x),
        iterations,
    })
}

/// Finds a root of `f` in `[a, b]` by Brent's method (inverse quadratic
/// interpolation with bisection fallback). Converges superlinearly on
/// smooth functions; used for threshold-voltage and bias solves.
///
/// # Errors
///
/// Returns [`BracketError`] if `f(a)` and `f(b)` have the same sign.
pub fn brent<F: FnMut(f64) -> f64>(
    mut f: F,
    a: f64,
    b: f64,
    tol: f64,
    max_iter: usize,
) -> Result<Root, BracketError> {
    let (mut a, mut b) = (a, b);
    let (mut fa, mut fb) = (f(a), f(b));
    if fa == 0.0 {
        return Ok(Root {
            x: a,
            residual: 0.0,
            iterations: 0,
        });
    }
    if fb == 0.0 {
        return Ok(Root {
            x: b,
            residual: 0.0,
            iterations: 0,
        });
    }
    if fa.signum() == fb.signum() {
        return Err(BracketError);
    }
    if fa.abs() < fb.abs() {
        core::mem::swap(&mut a, &mut b);
        core::mem::swap(&mut fa, &mut fb);
    }
    let (mut c, mut fc) = (a, fa);
    let mut d = b - a;
    let mut mflag = true;
    let mut iterations = 0;

    while iterations < max_iter && fb != 0.0 && (b - a).abs() > tol {
        let mut s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant.
            b - fb * (b - a) / (fb - fa)
        };

        let lo = (3.0 * a + b) / 4.0;
        let cond = !((lo..=b).contains(&s) || (b..=lo).contains(&s))
            || (mflag && (s - b).abs() >= (b - c).abs() / 2.0)
            || (!mflag && (s - b).abs() >= (c - d).abs() / 2.0)
            || (mflag && (b - c).abs() < tol)
            || (!mflag && (c - d).abs() < tol);
        if cond {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }

        let fs = f(s);
        iterations += 1;
        d = c;
        c = b;
        fc = fb;
        if fa.signum() != fs.signum() {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            core::mem::swap(&mut a, &mut b);
            core::mem::swap(&mut fa, &mut fb);
        }
    }
    Ok(Root {
        x: b,
        residual: fb,
        iterations,
    })
}

/// Result of a 1-D minimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Minimum {
    /// Abscissa of the minimum.
    pub x: f64,
    /// Function value at the minimum.
    pub value: f64,
    /// Iterations consumed.
    pub iterations: usize,
}

/// Golden-section search for the minimum of a unimodal `f` on `[a, b]`.
///
/// Used by the sub-V_th flow to locate the energy-optimal `L_poly`
/// (paper Fig. 8). Tolerant of flat minima: returns the midpoint of the
/// final bracket.
pub fn golden_section<F: FnMut(f64) -> f64>(
    mut f: F,
    a: f64,
    b: f64,
    tol: f64,
    max_iter: usize,
) -> Minimum {
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let (mut a, mut b) = (a.min(b), a.max(b));
    let mut c = b - (b - a) * INV_PHI;
    let mut d = a + (b - a) * INV_PHI;
    let mut fc = f(c);
    let mut fd = f(d);
    let mut iterations = 0;
    while (b - a).abs() > tol && iterations < max_iter {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * INV_PHI;
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * INV_PHI;
            fd = f(d);
        }
        iterations += 1;
    }
    let x = 0.5 * (a + b);
    Minimum {
        x,
        value: f(x),
        iterations,
    }
}

/// `n` evenly spaced samples covering `[start, stop]` inclusive.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn linspace(start: f64, stop: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linspace needs at least two points");
    let step = (stop - start) / (n - 1) as f64;
    (0..n).map(|i| start + step * i as f64).collect()
}

/// `n` logarithmically spaced samples covering `[start, stop]` inclusive.
///
/// # Panics
///
/// Panics if `n < 2` or either bound is non-positive.
pub fn logspace(start: f64, stop: f64, n: usize) -> Vec<f64> {
    assert!(start > 0.0 && stop > 0.0, "logspace needs positive bounds");
    linspace(start.ln(), stop.ln(), n)
        .into_iter()
        .map(f64::exp)
        .collect()
}

/// Trapezoidal integration of samples `y` over abscissae `x`.
///
/// # Panics
///
/// Panics if the slices differ in length or have fewer than two points.
pub fn trapz(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "trapz needs matching slices");
    assert!(x.len() >= 2, "trapz needs at least two samples");
    x.windows(2)
        .zip(y.windows(2))
        .map(|(xs, ys)| 0.5 * (ys[0] + ys[1]) * (xs[1] - xs[0]))
        .sum()
}

/// The largest magnitude among `values` (0 when empty), propagating
/// NaN: one NaN anywhere makes the result NaN, so a convergence check
/// `max_abs(..) < tol` fails and an `is_finite` guard sees it. (A plain
/// `fold(0.0, f64::max)` drops a NaN, because `f64::max` returns the
/// other operand.) On finite data the result is the `f64::max` fold's,
/// bit for bit.
///
/// # Examples
///
/// ```
/// use subvt_physics::math::max_abs;
/// assert_eq!(max_abs([1.0, -3.0, 2.0]), 3.0);
/// assert_eq!(max_abs([]), 0.0);
/// assert!(max_abs([1.0, f64::NAN, 2.0]).is_nan());
/// ```
pub fn max_abs(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(0.0, |max, v| {
        let v = v.abs();
        if v > max || v.is_nan() {
            v
        } else {
            max
        }
    })
}

/// Linear interpolation of `(xs, ys)` at `x`, clamping outside the range.
///
/// # Panics
///
/// Panics if the slices differ in length, are empty, or `xs` is not sorted
/// ascending (debug builds only for the sortedness check).
pub fn interp1(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    assert_eq!(xs.len(), ys.len(), "interp1 needs matching slices");
    assert!(!xs.is_empty(), "interp1 needs at least one sample");
    debug_assert!(xs.windows(2).all(|w| w[0] <= w[1]), "xs must be sorted");
    if x <= xs[0] {
        return ys[0];
    }
    if x >= xs[xs.len() - 1] {
        return ys[ys.len() - 1];
    }
    let idx = xs.partition_point(|&v| v < x);
    let (x0, x1) = (xs[idx - 1], xs[idx]);
    let (y0, y1) = (ys[idx - 1], ys[idx]);
    if x1 == x0 {
        y0
    } else {
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_engine::rng::SplitMix64;

    #[test]
    fn erf_reference_values() {
        // Abramowitz & Stegun table values.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204999),
            (1.0, 0.8427008),
            (2.0, 0.9953223),
            (3.0, 0.9999779),
        ];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 2e-6, "erf({x})");
            assert!((erf(-x) + want).abs() < 2e-6, "erf(-{x})");
        }
    }

    #[test]
    fn max_abs_keeps_the_fold_bits_on_finite_data_and_propagates_nan() {
        let mut rng = SplitMix64::new(0x3a7f);
        for len in [1, 2, 7, 64] {
            let mut v: Vec<f64> = (0..len).map(|_| -1.0e3 + 2.0e3 * rng.next_f64()).collect();
            v[len / 2] = -0.0;
            let fold = v.iter().fold(0.0f64, |acc, x| acc.max(x.abs()));
            assert_eq!(max_abs(v.iter().copied()).to_bits(), fold.to_bits());
            v[len - 1] = f64::NAN;
            assert!(max_abs(v.iter().copied()).is_nan(), "len {len}");
        }
        assert!(max_abs([f64::NAN, 1.0, f64::INFINITY]).is_nan());
        assert_eq!(max_abs([-f64::INFINITY, 1.0]), f64::INFINITY);
    }

    #[test]
    fn softplus_limits() {
        assert!((softplus(100.0) - 100.0).abs() < 1e-9);
        assert!(softplus(-100.0) < 1e-40);
        assert!((softplus(0.0) - (2.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn ekv_f_asymptotes() {
        // Weak inversion: F(v) → e^v.
        let v = -12.0;
        assert!((ekv_f(v) / v.exp() - 1.0).abs() < 5e-3);
        // Strong inversion: F(v) → (v/2)².
        let v = 40.0;
        assert!((ekv_f(v) / (v / 2.0_f64).powi(2) - 1.0).abs() < 0.2);
    }

    #[test]
    fn sigmoid_symmetry_and_limits() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        assert!((sigmoid(40.0) - 1.0).abs() < 1e-15);
        assert!(sigmoid(-745.0) >= 0.0); // no underflow panic, stays finite
        for x in [-8.0, -1.5, 0.0, 0.3, 2.0, 9.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-14, "σ({x})");
        }
    }

    #[test]
    fn ekv_f_prime_matches_central_difference() {
        let h = 1e-6;
        for v in [-30.0, -8.0, -1.0, 0.0, 0.5, 2.0, 10.0, 60.0] {
            let num = (ekv_f(v + h) - ekv_f(v - h)) / (2.0 * h);
            let (value, ana) = ekv_f_with_prime(v);
            assert_eq!(value.to_bits(), ekv_f(v).to_bits(), "F({v})");
            let scale = num.abs().max(1e-12);
            assert!(
                ((ana - num) / scale).abs() < 1e-6,
                "F'({v}): analytic {ana} vs numeric {num}"
            );
        }
    }

    #[test]
    fn bisect_finds_sqrt2() {
        let root = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12, 200).unwrap();
        assert!((root.x - 2.0_f64.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn brent_finds_cos_root() {
        let root = brent(|x| x.cos(), 1.0, 2.0, 1e-14, 100).unwrap();
        assert!((root.x - core::f64::consts::FRAC_PI_2).abs() < 1e-10);
    }

    #[test]
    fn brent_rejects_bad_bracket() {
        assert_eq!(
            brent(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 100),
            Err(BracketError)
        );
    }

    #[test]
    fn golden_section_quadratic() {
        let min = golden_section(|x| (x - 1.3).powi(2) + 0.5, -4.0, 6.0, 1e-10, 300);
        assert!((min.x - 1.3).abs() < 1e-7);
        assert!((min.value - 0.5).abs() < 1e-12);
    }

    #[test]
    fn linspace_endpoints_and_spacing() {
        let xs = linspace(0.0, 1.0, 5);
        assert_eq!(xs, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn logspace_is_geometric() {
        let xs = logspace(1.0, 100.0, 3);
        assert!((xs[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn trapz_linear_exact() {
        let x = linspace(0.0, 2.0, 9);
        let y: Vec<f64> = x.iter().map(|&v| 3.0 * v).collect();
        assert!((trapz(&x, &y) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn interp1_clamps_and_interpolates() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 10.0, 40.0];
        assert_eq!(interp1(&xs, &ys, -1.0), 0.0);
        assert_eq!(interp1(&xs, &ys, 3.0), 40.0);
        assert!((interp1(&xs, &ys, 0.5) - 5.0).abs() < 1e-12);
        assert!((interp1(&xs, &ys, 1.5) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn softplus_sigmoid_matches_both_functions_bit_for_bit() {
        let mut rng = SplitMix64::new(0x5f5e);
        let edges = [
            -35.0,
            35.0,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
        ];
        let nudged = edges
            .iter()
            .flat_map(|&e: &f64| [e, e.next_up(), e.next_down()]);
        let random = (0..4096).map(|_| -80.0 + 160.0 * rng.next_f64());
        for x in nudged.chain(random) {
            let (s, g) = softplus_sigmoid(x);
            assert_eq!(s.to_bits(), softplus(x).to_bits(), "softplus({x:e})");
            assert_eq!(g.to_bits(), sigmoid(x).to_bits(), "sigmoid({x:e})");
        }
    }

    #[test]
    fn erf_is_odd_and_bounded() {
        let mut rng = SplitMix64::new(0xe2f0);
        for _ in 0..1024 {
            let x = -6.0 + 12.0 * rng.next_f64();
            assert!((erf(x) + erf(-x)).abs() < 1e-12, "erf({x}) not odd");
            assert!(erf(x).abs() <= 1.0 + 1e-12, "|erf({x})| > 1");
        }
    }

    #[test]
    fn erf_is_monotone() {
        let mut rng = SplitMix64::new(0xe2f1);
        for _ in 0..1024 {
            let a = -4.0 + 8.0 * rng.next_f64();
            let d = 1e-3 + (1.0 - 1e-3) * rng.next_f64();
            assert!(erf(a + d) >= erf(a), "erf falls from {a} to {}", a + d);
        }
    }

    #[test]
    fn brent_matches_bisect() {
        let mut rng = SplitMix64::new(0xb7e4);
        for _ in 0..256 {
            let c = -0.9 + 1.8 * rng.next_f64();
            let f = |x: f64| x * x * x - c;
            let rb = brent(f, -2.0, 2.0, 1e-13, 200).unwrap();
            let ri = bisect(f, -2.0, 2.0, 1e-13, 200).unwrap();
            assert!((rb.x - ri.x).abs() < 1e-9, "c = {c}: {} vs {}", rb.x, ri.x);
        }
    }

    #[test]
    fn golden_section_brackets_parabola() {
        let mut rng = SplitMix64::new(0x601d);
        for _ in 0..256 {
            let center = -5.0 + 10.0 * rng.next_f64();
            let min = golden_section(|x| (x - center).powi(2), -10.0, 10.0, 1e-9, 400);
            assert!((min.x - center).abs() < 1e-6, "center {center}: {}", min.x);
        }
    }

    #[test]
    fn interp1_within_hull() {
        let mut rng = SplitMix64::new(0x1e71);
        let xs = [0.0, 1.0, 2.0];
        let ys = [1.0, -1.0, 5.0];
        for _ in 0..1024 {
            let x = 2.0 * rng.next_f64();
            let v = interp1(&xs, &ys, x);
            assert!((-1.0..=5.0).contains(&v), "interp1({x}) = {v}");
        }
    }
}
