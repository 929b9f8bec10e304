//! Linear convolution and convolution-matrix construction.
//!
//! The least-squares channel estimator of the paper (Eq. 4) is built on the
//! convolution matrix `Xᵏ` of the known reference samples (Eq. 5): a
//! `(N + M − 1) × N` Toeplitz matrix whose columns are shifted copies of the
//! reference signal.  The same construction, applied to an estimated channel
//! `ĥ`, yields the matrix `Hᵏ` used to design the zero-forcing equalizer
//! (Eq. 6–7).
//!
//! The receiver never materialises that matrix:
//! [`convolution_normal_equations`] forms its least-squares normal
//! equations from the Toeplitz structure, and every linear convolution (the
//! channel simulator, FIR filtering, the equalizer) runs through one
//! windowed kernel, [`convolve_window`].  Both are bit-identical to the
//! dense matrix ([`convolution_matrix`]) and the scatter loop
//! ([`crate::reference::convolve_full`]) they replace, which stay as the
//! references the property tests compare against.

use crate::cmatrix::CMatrix;
use crate::complex::Complex;
use crate::cvec::CVec;
use crate::solve::SolveError;

/// Builds the `(M + N − 1) × N` convolution (Toeplitz) matrix of the
/// reference signal `x` for an `N`-tap FIR estimate, exactly as in Eq. 5 of
/// the paper.  No production path builds it; it is the dense reference for
/// [`convolution_normal_equations`].
///
/// `M = x.len()` is the number of reference samples. Column `j` contains `x`
/// delayed by `j` samples. Multiplying this matrix by an `N`-tap channel
/// vector yields the full linear convolution `x * h`.
///
/// # Panics
/// Panics if `x` is empty or `n_taps == 0`.
pub fn convolution_matrix(x: &[Complex], n_taps: usize) -> CMatrix {
    assert!(!x.is_empty(), "convolution_matrix: empty reference signal");
    assert!(n_taps > 0, "convolution_matrix: zero taps requested");
    let m = x.len();
    let rows = m + n_taps - 1;
    let mut out = CMatrix::zeros(rows, n_taps);
    for (i, &xi) in x.iter().enumerate() {
        for j in 0..n_taps {
            out[(i + j, j)] = xi;
        }
    }
    out
}

/// Full linear convolution of `x` and `h`, returning `x.len() + h.len() - 1`
/// samples.
pub fn convolve_full(x: &[Complex], h: &[Complex]) -> CVec {
    if x.is_empty() || h.is_empty() {
        return CVec::zeros(0);
    }
    convolve_window(x, h, 0, x.len() + h.len() - 1)
}

/// "Same-length" convolution: convolves `x` with `h` and returns exactly
/// `x.len()` samples starting at the given `delay` offset into the full
/// convolution.
///
/// This models what a receiver sees after a channel with `delay` pre-cursor
/// samples: the output is aligned so that `out[k]` corresponds to `x[k]`
/// passed through the tap at index `delay`.
pub fn convolve(x: &[Complex], h: &[Complex], delay: usize) -> CVec {
    convolve_window(x, h, delay, x.len())
}

/// A window of the full linear convolution of `x` and `h`: the `len`
/// samples `full[start..start + len]`, where positions past the end of the
/// full convolution are zero.
///
/// Every output sample is bit-identical to the textbook scatter loop
/// ([`crate::reference::convolve_full`]), which adds `x[i]·h[j]` into
/// `out[i + j]` for ascending `i`, skipping samples `x[i]` that are exactly
/// zero.  The loops here run tap-outer (taps in *descending* order) and
/// sample-inner over split re/im lanes, so each output still receives its
/// terms in ascending input index while the inner loop vectorises.  The
/// zero-skip is reproduced where it matters: a zero sample times a finite
/// tap adds a signed zero, which cannot change an accumulator that started
/// at `+0.0`, but a zero sample times a non-finite tap would add NaN, so
/// taps that are not finite take a loop that skips zero samples.
pub fn convolve_window(x: &[Complex], h: &[Complex], start: usize, len: usize) -> CVec {
    let mut re = vec![0.0; len];
    let mut im = vec![0.0; len];
    if !x.is_empty() && !h.is_empty() {
        // The window reads only the samples x[lo..hi].
        let lo = start.saturating_sub(h.len() - 1).min(x.len());
        let hi = start.saturating_add(len).min(x.len());
        let (x_re, x_im) = split_lanes(&x[lo..hi], 0, 0);
        for (j, &tap) in h.iter().enumerate().rev() {
            // Output offsets k whose input index start + k - j lies in lo..hi.
            let k_lo = (lo + j).saturating_sub(start);
            let k_hi = (hi + j).saturating_sub(start).min(len);
            if k_lo >= k_hi {
                continue;
            }
            let i_lo = start + k_lo - j - lo;
            let i_hi = i_lo + (k_hi - k_lo);
            accumulate_tap(
                &mut re[k_lo..k_hi],
                &mut im[k_lo..k_hi],
                &x_re[i_lo..i_hi],
                &x_im[i_lo..i_hi],
                tap,
            );
        }
    }
    CVec(
        re.into_iter()
            .zip(im)
            .map(|(r, i)| Complex::new(r, i))
            .collect(),
    )
}

/// `out[k] += x[k] · tap` over split lanes, with the product written out as
/// [`Complex`]'s `Mul` forms it (sample first, tap second).
fn accumulate_tap(
    out_re: &mut [f64],
    out_im: &mut [f64],
    x_re: &[f64],
    x_im: &[f64],
    tap: Complex,
) {
    let n = out_re.len();
    let (out_im, x_re, x_im) = (&mut out_im[..n], &x_re[..n], &x_im[..n]);
    let (h_re, h_im) = (tap.re, tap.im);
    if tap.is_finite() {
        for k in 0..n {
            out_re[k] += x_re[k] * h_re - x_im[k] * h_im;
            out_im[k] += x_re[k] * h_im + x_im[k] * h_re;
        }
    } else {
        for k in 0..n {
            if x_re[k] == 0.0 && x_im[k] == 0.0 {
                continue;
            }
            out_re[k] += x_re[k] * h_re - x_im[k] * h_im;
            out_im[k] += x_re[k] * h_im + x_im[k] * h_re;
        }
    }
}

/// The least-squares normal equations `(XᴴX, Xᴴy)` of the convolution
/// matrix `X = convolution_matrix(x, n_taps)` (Eq. 4–5), built without
/// materialising `X`.
///
/// `X` is Toeplitz, so its Gram matrix is too: entry `(i, i + d)` is the
/// same sum as entry `(0, d)`, and entry `(i + d, i)` the same as `(d, 0)`.
/// The two sums differ only by products of two structural zeros, which add
/// `+0.0` to an accumulator that never holds `-0.0`.  So the sums of the
/// first row and the first column (2N − 1 distinct entries), each taken
/// over every row of `X` in order (structural zeros times samples
/// included, exactly as the dense product forms them), give a Gram matrix
/// bit-identical to `X.gram()`, and `Xᴴy` is bit-identical to
/// `X.hermitian_matvec(y)`.  The cost drops from about `N²·(M + N − 1)`
/// complex products to `3N·(M + N − 1)`, and the sums are vectorised across
/// lags.
///
/// # Errors
/// Returns [`SolveError::DimensionMismatch`] when `x` is empty, `n_taps` is
/// zero or `y.len() != x.len() + n_taps - 1`.
pub fn convolution_normal_equations(
    x: &[Complex],
    n_taps: usize,
    y: &[Complex],
) -> Result<(CMatrix, CVec), SolveError> {
    if x.is_empty() || n_taps == 0 || y.len() != x.len() + n_taps - 1 {
        return Err(SolveError::DimensionMismatch);
    }
    let n = n_taps;
    let p = n - 1;
    // Lane m of row k of X is column p - m: X[k][p - m] = padded[k + m].
    let (pad_re, pad_im) = split_lanes(x, p, p);
    let mut row = (vec![0.0; n], vec![0.0; n]);
    let mut col = (vec![0.0; n], vec![0.0; n]);
    let mut rhs = (vec![0.0; n], vec![0.0; n]);
    for (k, yk) in y.iter().enumerate() {
        let (w_re, w_im) = (&pad_re[k..k + n], &pad_im[k..k + n]);
        // X[k][0], and its conjugate for the first-row sums.
        let (a_re, a_im) = (pad_re[k + p], pad_im[k + p]);
        let (ca_re, ca_im) = (a_re, -a_im);
        for m in 0..n {
            // First row, lag p - m: conj(X[k][0]) · X[k][p - m].
            row.0[m] += ca_re * w_re[m] - ca_im * w_im[m];
            row.1[m] += ca_re * w_im[m] + ca_im * w_re[m];
            // First column, lag p - m: conj(X[k][p - m]) · X[k][0].
            let (c_re, c_im) = (w_re[m], -w_im[m]);
            col.0[m] += c_re * a_re - c_im * a_im;
            col.1[m] += c_re * a_im + c_im * a_re;
            // Right-hand side, tap p - m: conj(X[k][p - m]) · y[k].
            rhs.0[m] += c_re * yk.re - c_im * yk.im;
            rhs.1[m] += c_re * yk.im + c_im * yk.re;
        }
    }
    let lag = |lanes: &(Vec<f64>, Vec<f64>), d: usize| Complex::new(lanes.0[p - d], lanes.1[p - d]);
    let mut gram = CMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            gram[(i, j)] = if j >= i {
                lag(&row, j - i)
            } else {
                lag(&col, i - j)
            };
        }
    }
    let rhs = CVec((0..n).map(|j| lag(&rhs, j)).collect());
    Ok((gram, rhs))
}

/// Splits `x` into separate real and imaginary lanes, with `front` and
/// `back` zeros around it.
fn split_lanes(x: &[Complex], front: usize, back: usize) -> (Vec<f64>, Vec<f64>) {
    let len = front + x.len() + back;
    let mut re = vec![0.0; len];
    let mut im = vec![0.0; len];
    for ((r, i), z) in re[front..].iter_mut().zip(&mut im[front..]).zip(x) {
        *r = z.re;
        *i = z.im;
    }
    (re, im)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    #[test]
    fn matrix_shape_matches_eq5() {
        // M = 3 reference samples, N = 3 taps -> (3+3-1) x 3 = 5 x 3.
        let x = [c(1.0, 0.0), c(2.0, 0.0), c(3.0, 0.0)];
        let m = convolution_matrix(&x, 3);
        assert_eq!(m.rows(), 5);
        assert_eq!(m.cols(), 3);
        // First column is x followed by zeros; diagonal structure as in Eq. 5.
        assert_eq!(m[(0, 0)], c(1.0, 0.0));
        assert_eq!(m[(1, 0)], c(2.0, 0.0));
        assert_eq!(m[(2, 0)], c(3.0, 0.0));
        assert_eq!(m[(0, 1)], Complex::ZERO);
        assert_eq!(m[(1, 1)], c(1.0, 0.0));
        assert_eq!(m[(4, 2)], c(3.0, 0.0));
        assert_eq!(m[(0, 2)], Complex::ZERO);
    }

    #[test]
    fn matrix_times_taps_equals_convolution() {
        let x = [c(1.0, 0.5), c(-2.0, 1.0), c(0.25, -0.75), c(3.0, 0.0)];
        let h = [c(0.5, 0.0), c(0.0, 1.0), c(-1.0, 0.25)];
        let m = convolution_matrix(&x, h.len());
        let via_matrix = m.matvec(&CVec(h.to_vec()));
        let direct = convolve_full(&x, &h);
        assert_eq!(via_matrix.len(), direct.len());
        assert!(via_matrix.squared_error(&direct) < 1e-24);
    }

    #[test]
    fn convolution_with_unit_impulse_is_identity() {
        let x = [c(1.0, 1.0), c(2.0, -1.0), c(3.0, 0.5)];
        let h = [Complex::ONE];
        let y = convolve_full(&x, &h);
        assert_eq!(y.as_slice(), &x);
    }

    #[test]
    fn convolution_with_delayed_impulse_shifts() {
        let x = [c(1.0, 0.0), c(2.0, 0.0)];
        let h = [Complex::ZERO, Complex::ZERO, Complex::ONE];
        let y = convolve_full(&x, &h);
        assert_eq!(y.len(), 4);
        assert_eq!(y[0], Complex::ZERO);
        assert_eq!(y[1], Complex::ZERO);
        assert_eq!(y[2], c(1.0, 0.0));
        assert_eq!(y[3], c(2.0, 0.0));
    }

    #[test]
    fn convolution_is_commutative() {
        let x = [c(1.0, 0.5), c(-2.0, 1.0), c(0.25, -0.75)];
        let h = [c(0.5, 0.0), c(0.0, 1.0)];
        let a = convolve_full(&x, &h);
        let b = convolve_full(&h, &x);
        assert!(a.squared_error(&b) < 1e-24);
    }

    #[test]
    fn same_length_convolution_aligns_on_delay() {
        let x = [c(1.0, 0.0), c(2.0, 0.0), c(3.0, 0.0)];
        let h = [Complex::ZERO, Complex::ONE]; // pure one-sample delay
        let y = convolve(&x, &h, 1);
        // Aligned on the delayed tap, the output should equal the input.
        assert!(y.squared_error(&CVec(x.to_vec())) < 1e-24);
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        assert_eq!(convolve_full(&[], &[Complex::ONE]).len(), 0);
        assert_eq!(convolve_full(&[Complex::ONE], &[]).len(), 0);
    }
}
