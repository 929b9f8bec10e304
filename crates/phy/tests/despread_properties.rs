//! Property tests pinning the receiver's one-pass PSDU decode to the
//! two-pass `ChipDecisions` accounting it replaced: same symbols, same
//! symbol, chip and CRC outcomes, on random soft chips with exact ties and
//! on random (also truncated) waveforms.
//!
//! Cases come from a fixed-seed SplitMix64 stream, so every run checks the
//! same cases and a failure message names the case that broke.

use vvd_dsp::Complex;
use vvd_phy::crc::check_fcs;
use vvd_phy::pn::chip_sequence_bipolar;
use vvd_phy::symbols::symbols_to_octets;
use vvd_phy::{
    despread_and_score, modulate_frame, ChipDecisions, DecodeOutcome, ModulatedFrame, PhyConfig,
    PsduBuilder, Receiver,
};

/// Number of randomized cases per property.
const CASES: u64 = 300;

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

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A soft chip.  Half the draws come from a small grid of exact values,
    /// so correlations tie exactly between PN sequences.
    fn soft_chip(&mut self) -> f64 {
        match self.below(2) {
            0 => [-1.0, -0.5, 0.0, -0.0, 0.5, 1.0][self.below(6)],
            _ => (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0,
        }
    }
}

/// One 32-chip block: grid or uniform chips, or the midpoint of two PN
/// sequences (which correlates exactly equally with both), or all zeros.
fn block(g: &mut Gen) -> Vec<f64> {
    match g.below(4) {
        0 | 1 => {
            let a = chip_sequence_bipolar(g.below(16) as u8);
            let b = chip_sequence_bipolar(g.below(16) as u8);
            a.iter().zip(&b).map(|(x, y)| (x + y) * 0.5).collect()
        }
        2 => vec![0.0; 32],
        _ => (0..32).map(|_| g.soft_chip()).collect(),
    }
}

/// `true` when the block's best correlation is reached by two or more
/// PN sequences.
fn is_tie(block: &[f64]) -> bool {
    let corr: Vec<f64> = (0..16u8)
        .map(|s| {
            let seq = chip_sequence_bipolar(s);
            seq.iter().zip(block).map(|(a, b)| a * b).sum()
        })
        .collect();
    let best = corr.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    corr.iter().filter(|c| **c == best).count() > 1
}

/// The two-pass decode: demodulate every PPDU chip, then despread the PSDU
/// once for the symbols and again for the symbol errors.
fn two_pass_decode(rx: &Receiver, waveform: &[Complex], tx: &ModulatedFrame) -> DecodeOutcome {
    let decisions = ChipDecisions {
        soft_chips: rx.demodulate(waveform, tx.n_chips()),
        reference_chips: tx.chips.clone(),
        psdu_chip_offset: tx.psdu_chip_offset(),
    };
    let octets = symbols_to_octets(&decisions.psdu_symbols());
    DecodeOutcome {
        crc_ok: octets.len() == tx.frame.psdu.len() && check_fcs(&octets),
        chip_errors: decisions.psdu_chip_errors(),
        chip_count: decisions.psdu_chip_count(),
        symbol_errors: decisions.psdu_symbol_errors(&tx.frame.psdu_symbols()),
    }
}

#[test]
fn one_pass_despread_matches_the_two_pass_decisions() {
    let mut ties = 0;
    for case in 0..CASES {
        let mut g = Gen::new(case);
        let n_blocks = g.below(12);
        let mut soft: Vec<f64> = Vec::new();
        for _ in 0..n_blocks {
            soft.extend(block(&mut g));
        }
        // A trailing partial block, which despreading ignores.
        let partial = g.below(40) % 32;
        soft.extend((0..partial).map(|_| g.soft_chip()));
        let n_reference = g.below(14);
        let reference: Vec<u8> = (0..n_reference).map(|_| g.below(16) as u8).collect();
        let decisions = ChipDecisions {
            soft_chips: soft.clone(),
            reference_chips: Vec::new(),
            psdu_chip_offset: 0,
        };
        let (symbols, errors) = despread_and_score(&soft, &reference);
        assert_eq!(symbols, decisions.psdu_symbols(), "case {case}: symbols");
        assert_eq!(
            errors,
            decisions.psdu_symbol_errors(&reference),
            "case {case}: symbol errors"
        );
        ties += soft.chunks_exact(32).filter(|b| is_tie(b)).count();
    }
    assert!(
        ties >= CASES as usize,
        "only {ties} exact ties were generated"
    );
    // An all-zero block ties every sequence at 0 and must despread to
    // symbol 0, the first maximum.
    assert_eq!(despread_and_score(&[0.0; 32], &[5]), (vec![0], 1));
}

#[test]
fn psdu_decode_matches_the_full_waveform_two_pass_decode() {
    let mut crc_ok = [0usize; 2];
    for case in 0..CASES / 3 {
        let mut g = Gen::new(10_000 + case);
        let cfg = PhyConfig::short_packets(4 + g.below(20));
        let tx = modulate_frame(&cfg, &PsduBuilder::new(&cfg).build(case as u16));
        let rx = Receiver::new(cfg);
        // The clean waveform plus chip-grid noise, sometimes truncated
        // inside the SHR or the PSDU, sometimes longer than the packet.
        let len = match g.below(4) {
            0 => g.below(tx.waveform.len()),
            1 => tx.waveform.len() + g.below(64),
            _ => tx.waveform.len(),
        };
        let noise = [0.0, 0.3, 0.9][g.below(3)];
        let waveform: Vec<Complex> = (0..len)
            .map(|k| {
                let clean = tx.waveform.0.get(k).copied().unwrap_or(Complex::ZERO);
                clean + Complex::new(g.soft_chip(), g.soft_chip()).scale(noise)
            })
            .collect();
        let outcome = rx.decode_aligned(&waveform, &tx);
        assert_eq!(
            outcome,
            two_pass_decode(&rx, &waveform, &tx),
            "case {case}: len {len} of {}, noise {noise}",
            tx.waveform.len()
        );
        crc_ok[usize::from(outcome.crc_ok)] += 1;
    }
    assert!(crc_ok[0] > 0 && crc_ok[1] > 0, "outcomes {crc_ok:?}");
}
