//! Reference implementations of the structured receiver kernels.
//!
//! The property tests in `crates/dsp/tests/receiver_kernels.rs` assert
//! that the kernels in [`crate::convolution`] are *bit-identical* to these
//! originals across randomized lengths, windows and sample values.  The
//! dense least-squares reference is
//! `least_squares(&convolution_matrix(x, n_taps), y)`
//! ([`crate::solve::least_squares`], [`crate::convolution::convolution_matrix`]).
//! No production path calls them; keep them small and obviously correct,
//! and do not optimise them.

use crate::complex::Complex;
use crate::cvec::CVec;

/// Full linear convolution of `x` and `h` by the scatter loop: `x[i]·h[j]`
/// is added into `out[i + j]` for ascending `i`, skipping samples `x[i]`
/// that are exactly zero.
pub fn convolve_full(x: &[Complex], h: &[Complex]) -> CVec {
    if x.is_empty() || h.is_empty() {
        return CVec::zeros(0);
    }
    let n = x.len() + h.len() - 1;
    let mut out = CVec::zeros(n);
    for (i, &xi) in x.iter().enumerate() {
        if xi == Complex::ZERO {
            continue;
        }
        for (j, &hj) in h.iter().enumerate() {
            out[i + j] += xi * hj;
        }
    }
    out
}
