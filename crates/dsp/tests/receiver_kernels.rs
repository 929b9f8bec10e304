//! Property tests pinning the structured receiver kernels to the dense and
//! scatter-loop references in `vvd_dsp::reference` — *bit-identical*, not
//! approximately equal — across randomized lengths, windows and sample
//! values, including exact ±0, subnormals and non-finite values.
//!
//! These are the proofs behind the receiver-DSP guarantee: the windowed
//! convolution and the Toeplitz normal equations never change a single bit
//! of any result, which is why every evaluation and serving golden survives
//! the rewrite unchanged.
//!
//! Cases come from a fixed-seed SplitMix64 stream, so every run checks the
//! same cases and a failure message names the case that broke.

use vvd_dsp::convolution::{convolution_matrix, convolution_normal_equations, convolve_window};
use vvd_dsp::solve::{convolution_least_squares, least_squares, SolveError};
use vvd_dsp::{convolve, convolve_full, reference, CVec, Complex, FirFilter};

/// Number of randomized cases per property.
const CASES: u64 = 400;

/// SplitMix64: a tiny, dependency-free deterministic generator.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// One component: mostly ordinary values, with exact zeros of both
    /// signs, subnormals and small integers (which produce exact
    /// cancellations) mixed in.
    fn component(&mut self) -> f64 {
        match self.below(16) {
            0 => 0.0,
            1 => -0.0,
            2 => self.unit() * 1e-310,
            3 => (self.below(5) as f64) - 2.0,
            _ => self.unit() * 3.0,
        }
    }

    /// A complex value; one in eight is exactly zero (of either sign).
    fn sample(&mut self) -> Complex {
        match self.below(8) {
            0 => {
                let s = |g: &mut Gen| if g.below(2) == 0 { 0.0 } else { -0.0 };
                Complex::new(s(self), s(self))
            }
            _ => Complex::new(self.component(), self.component()),
        }
    }

    /// A non-finite value, or an ordinary one.
    fn maybe_non_finite(&mut self) -> Complex {
        match self.below(6) {
            0 => Complex::new(f64::INFINITY, self.component()),
            1 => Complex::new(self.component(), f64::NEG_INFINITY),
            2 => Complex::new(f64::NAN, 0.0),
            _ => self.sample(),
        }
    }

    fn samples(&mut self, n: usize) -> Vec<Complex> {
        (0..n).map(|_| self.sample()).collect()
    }
}

/// Bit equality of two scalars, where any NaN equals any NaN: Rust does not
/// pin NaN payloads, so "bit-identical" means every non-NaN bit matches and
/// NaN appears in the same places.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_same(got: &[Complex], want: &[Complex], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            same(g.re, w.re) && same(g.im, w.im),
            "{what}: sample {k}: got {g:?}, want {w:?}"
        );
    }
}

/// `full[start..start + len]` of the reference convolution, zero past its end.
fn reference_window(x: &[Complex], h: &[Complex], start: usize, len: usize) -> Vec<Complex> {
    let full = reference::convolve_full(x, h);
    (start..start + len)
        .map(|n| full.0.get(n).copied().unwrap_or(Complex::ZERO))
        .collect()
}

#[test]
fn windowed_convolution_is_bit_identical_to_the_scatter_loop() {
    for case in 0..CASES {
        let mut g = Gen::new(case);
        let (m, l) = (g.below(300), g.below(40));
        let x = g.samples(m);
        let mut h = g.samples(l);
        // Some filters carry whole runs of zero taps, as delay lines do.
        if g.below(4) == 0 {
            for tap in h.iter_mut().filter(|_| g.below(2) == 0) {
                *tap = Complex::ZERO;
            }
        }
        let span = x.len() + h.len() + 8;
        let (start, len) = (g.below(span), g.below(span));
        let what = format!(
            "case {case}: M={} L={} window {start}+{len}",
            x.len(),
            h.len()
        );
        assert_same(
            convolve_window(&x, &h, start, len).as_slice(),
            &reference_window(&x, &h, start, len),
            &what,
        );
        assert_same(
            convolve_full(&x, &h).as_slice(),
            reference::convolve_full(&x, &h).as_slice(),
            &what,
        );
        let delay = g.below(h.len() + 2);
        assert_same(
            convolve(&x, &h, delay).as_slice(),
            &reference_window(&x, &h, delay, x.len()),
            &what,
        );
    }
}

#[test]
fn fir_filtering_routes_through_the_windowed_kernel_bit_identically() {
    for case in 0..CASES / 4 {
        let mut g = Gen::new(1_000 + case);
        let (m, l) = (1 + g.below(500), 1 + g.below(24));
        let x = g.samples(m);
        let f = FirFilter::from_taps(&g.samples(l));
        let taps = f.taps().as_slice();
        assert_same(
            f.filter_full(&x).as_slice(),
            reference::convolve_full(&x, taps).as_slice(),
            &format!("case {case}: filter_full"),
        );
        let cursor = g.below(taps.len());
        assert_same(
            f.filter_aligned(&x, cursor).as_slice(),
            &reference_window(&x, taps, cursor, x.len()),
            &format!("case {case}: filter_aligned"),
        );
    }
}

#[test]
fn non_finite_tap_next_to_an_exact_zero_sample_is_skipped() {
    // The scatter loop never forms 0·∞ (it skips the zero sample), so the
    // output stays finite where the kernel's plain loop would add NaN.
    let x = [
        Complex::new(1.0, 0.5),
        Complex::ZERO,
        Complex::new(-0.0, 0.0),
        Complex::new(2.0, -1.0),
    ];
    let h = [Complex::new(0.25, 0.0), Complex::new(f64::INFINITY, 0.0)];
    let got = convolve_full(&x, &h);
    assert_same(
        got.as_slice(),
        reference::convolve_full(&x, &h).as_slice(),
        "fixed",
    );
    // out[2] = x[1]·h[1] + x[2]·h[0]: both samples are zero, so nothing is added.
    assert_eq!(got[2], Complex::ZERO);
    assert!(got[1].re.is_infinite());

    for case in 0..CASES {
        let mut g = Gen::new(2_000 + case);
        let m = g.below(60);
        let x: Vec<Complex> = (0..m)
            .map(|_| {
                if g.below(8) == 0 {
                    g.maybe_non_finite()
                } else {
                    g.sample()
                }
            })
            .collect();
        let l = 1 + g.below(12);
        let h: Vec<Complex> = (0..l).map(|_| g.maybe_non_finite()).collect();
        let span = x.len() + h.len() + 4;
        let (start, len) = (g.below(span), g.below(span));
        assert_same(
            convolve_window(&x, &h, start, len).as_slice(),
            &reference_window(&x, &h, start, len),
            &format!("case {case}"),
        );
    }
}

/// Observations `y = x * h + noise` for a random `n_taps` channel.
fn observation(g: &mut Gen, x: &[Complex], n_taps: usize) -> Vec<Complex> {
    let h = g.samples(n_taps);
    let mut y = reference::convolve_full(x, &h).0;
    for v in &mut y {
        *v += Complex::new(g.unit(), g.unit()).scale(1e-3);
    }
    y
}

fn assert_normal_equations_match(x: &[Complex], n_taps: usize, y: &[Complex], what: &str) {
    let dense = convolution_matrix(x, n_taps);
    let (gram, rhs) = convolution_normal_equations(x, n_taps, y).expect("valid dimensions");
    assert_same(gram.data(), dense.gram().data(), &format!("{what}: gram"));
    assert_same(
        rhs.as_slice(),
        dense.hermitian_matvec(&CVec(y.to_vec())).as_slice(),
        &format!("{what}: rhs"),
    );
}

#[test]
fn toeplitz_least_squares_is_bit_identical_to_the_dense_fit() {
    for case in 0..CASES {
        let mut g = Gen::new(3_000 + case);
        let n_taps = 1 + g.below(24);
        // Tall systems, plus the square X of a one-sample reference and
        // references shorter than the filter.
        let m = match g.below(6) {
            0 => 1,
            1 => 1 + g.below(n_taps),
            _ => n_taps + g.below(250),
        };
        let mut x = g.samples(m);
        // Real references make the imaginary lag sums cancel to exactly
        // zero, where conj(row) and the column sum differ in the sign of
        // that zero: the lower triangle must come from the column sums.
        let real = g.below(4) == 0;
        if real {
            x.iter_mut().for_each(|v| v.im = 0.0);
        }
        let y = observation(&mut g, &x, n_taps);
        let what = format!("case {case}: M={m} N={n_taps} real={real}");
        assert_normal_equations_match(&x, n_taps, &y, &what);
        let got = convolution_least_squares(&x, n_taps, &y);
        let want = least_squares(&convolution_matrix(&x, n_taps), &CVec(y.clone()));
        match (&got, &want) {
            (Ok(a), Ok(b)) => assert_same(a.as_slice(), b.as_slice(), &what),
            _ => assert_eq!(got, want, "{what}"),
        }
    }
}

#[test]
fn toeplitz_normal_equations_match_with_non_finite_references() {
    // A non-finite sample times a structural zero is NaN in the dense
    // product; the Toeplitz sums form those products too.
    for case in 0..CASES / 4 {
        let mut g = Gen::new(4_000 + case);
        let n_taps = 1 + g.below(8);
        let m = 1 + g.below(30);
        let x: Vec<Complex> = (0..m)
            .map(|_| {
                if g.below(6) == 0 {
                    g.maybe_non_finite()
                } else {
                    g.sample()
                }
            })
            .collect();
        let y: Vec<Complex> = (0..x.len() + n_taps - 1)
            .map(|_| {
                if g.below(10) == 0 {
                    g.maybe_non_finite()
                } else {
                    g.sample()
                }
            })
            .collect();
        assert_normal_equations_match(&x, n_taps, &y, &format!("case {case}"));
    }
}

#[test]
fn least_squares_on_degenerate_references_is_a_typed_error() {
    let y = [Complex::ONE; 4];
    assert_eq!(
        convolution_least_squares(&[], 4, &y),
        Err(SolveError::DimensionMismatch)
    );
    assert_eq!(
        convolution_least_squares(&[Complex::ONE; 4], 0, &y),
        Err(SolveError::DimensionMismatch)
    );
    // The observation must cover the whole convolution support.
    assert_eq!(
        convolution_least_squares(&[Complex::ONE; 2], 2, &y),
        Err(SolveError::DimensionMismatch)
    );
    // An all-zero reference is singular, as in the dense fit.
    assert_eq!(
        convolution_least_squares(&[Complex::ZERO; 3], 2, &y),
        Err(SolveError::Singular)
    );
    assert_eq!(
        least_squares(
            &convolution_matrix(&[Complex::ZERO; 3], 2),
            &CVec(y.to_vec())
        ),
        Err(SolveError::Singular)
    );
}
