//! Pseudo-noise spreading sequences of the 2.4 GHz O-QPSK PHY.
//!
//! Each 4-bit data symbol is mapped onto one of 16 nearly-orthogonal 32-chip
//! sequences (IEEE 802.15.4-2003, Table 24).  Symbols 1–7 are the symbol-0
//! sequence cyclically right-shifted by 4 chips per step; symbols 8–15 are
//! the corresponding sequence with every odd-indexed chip inverted
//! (equivalent to conjugating the O-QPSK constellation).  The receiver
//! despreads by correlating the received soft chips with all 16 sequences
//! and picking the maximum — the error-correcting redundancy the paper's
//! chip-error-rate discussion (Sec. 6.2) relies on.

use crate::config::CHIPS_PER_SYMBOL;

/// Chip sequence for data symbol 0 (IEEE 802.15.4-2003 Table 24),
/// chip c0 first.
const SYMBOL0: [u8; CHIPS_PER_SYMBOL] = [
    1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0,
];

/// Returns the 32-chip sequence (as 0/1 values) for a 4-bit symbol.
///
/// # Panics
/// Panics if `symbol >= 16`.
pub const fn chip_sequence(symbol: u8) -> [u8; CHIPS_PER_SYMBOL] {
    assert!(symbol < 16, "data symbols are 4 bits");
    let base_shift = (symbol as usize % 8) * 4;
    let mut chips = [0u8; CHIPS_PER_SYMBOL];
    let mut i = 0;
    while i < CHIPS_PER_SYMBOL {
        // Cyclic right shift by base_shift: output[i] = SYMBOL0[(i - shift) mod 32]
        let src = (i + CHIPS_PER_SYMBOL - base_shift) % CHIPS_PER_SYMBOL;
        chips[i] = SYMBOL0[src];
        // Symbols 8-15 invert the odd-indexed chips (the Q-rail chips).
        if symbol >= 8 && i % 2 == 1 {
            chips[i] ^= 1;
        }
        i += 1;
    }
    chips
}

/// All 16 sequences mapped to antipodal values (`0 → -1.0`, `1 → +1.0`),
/// indexed by symbol value; built once, at compile time.
const BIPOLAR: [[f64; CHIPS_PER_SYMBOL]; 16] = {
    let mut out = [[0.0; CHIPS_PER_SYMBOL]; 16];
    let mut s = 0;
    while s < 16 {
        let chips = chip_sequence(s as u8);
        let mut i = 0;
        while i < CHIPS_PER_SYMBOL {
            out[s][i] = if chips[i] == 1 { 1.0 } else { -1.0 };
            i += 1;
        }
        s += 1;
    }
    out
};

/// Returns the chip sequence mapped to antipodal values (`0 → -1.0`,
/// `1 → +1.0`), the form used for modulation and correlation.
///
/// # Panics
/// Panics if `symbol >= 16`.
pub fn chip_sequence_bipolar(symbol: u8) -> [f64; CHIPS_PER_SYMBOL] {
    assert!(symbol < 16, "data symbols are 4 bits");
    BIPOLAR[symbol as usize]
}

/// Correlates a block of 32 soft chip values against every PN sequence and
/// returns the index of the best match (the despread symbol).  Ties go to
/// the lowest symbol value.
///
/// # Panics
/// Panics if `soft_chips.len() != 32`.
pub fn best_matching_symbol(soft_chips: &[f64]) -> u8 {
    assert_eq!(soft_chips.len(), CHIPS_PER_SYMBOL, "one symbol is 32 chips");
    let mut best_sym = 0u8;
    let mut best_corr = f64::NEG_INFINITY;
    for (sym, seq) in (0u8..).zip(&BIPOLAR) {
        let corr: f64 = seq.iter().zip(soft_chips.iter()).map(|(a, b)| a * b).sum();
        if corr > best_corr {
            best_corr = corr;
            best_sym = sym;
        }
    }
    best_sym
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sequences_are_distinct() {
        for a in 0..16u8 {
            for b in (a + 1)..16u8 {
                assert_ne!(
                    chip_sequence(a),
                    chip_sequence(b),
                    "symbols {a} and {b} collide"
                );
            }
        }
    }

    #[test]
    fn sequences_are_balanced_enough() {
        // Each sequence has 16 ones and 16 zeros (a property of the standard's
        // quasi-orthogonal set, preserved by rotation and odd-chip inversion).
        for s in 0..16u8 {
            let ones: u32 = chip_sequence(s).iter().map(|&c| c as u32).sum();
            assert_eq!(ones, 16, "symbol {s} is unbalanced");
        }
    }

    #[test]
    fn cross_correlation_is_low() {
        // Normalised cross-correlation between different sequences must be
        // well below the autocorrelation peak of 32.  For the standard set the
        // worst case is 8/32 within the same "half" of the alphabet; the
        // conjugated half can reach slightly higher against its own base but
        // remains far from 32.
        for a in 0..16u8 {
            let sa = chip_sequence_bipolar(a);
            for b in 0..16u8 {
                if a == b {
                    continue;
                }
                let sb = chip_sequence_bipolar(b);
                let corr: f64 = sa.iter().zip(sb.iter()).map(|(x, y)| x * y).sum();
                assert!(
                    corr.abs() <= 20.0,
                    "symbols {a},{b} correlate too strongly: {corr}"
                );
            }
        }
    }

    #[test]
    fn autocorrelation_is_maximal() {
        for s in 0..16u8 {
            let seq = chip_sequence_bipolar(s);
            let corr: f64 = seq.iter().map(|x| x * x).sum();
            assert_eq!(corr, 32.0);
        }
    }

    #[test]
    fn despreading_clean_chips_recovers_symbol() {
        for s in 0..16u8 {
            let chips = chip_sequence_bipolar(s);
            assert_eq!(best_matching_symbol(&chips), s);
        }
    }

    #[test]
    fn despreading_tolerates_chip_errors() {
        // Flip 6 of 32 chips: correlation margin should still pick the right
        // symbol for the standard sequence set.
        for s in 0..16u8 {
            let mut chips = chip_sequence_bipolar(s);
            for k in [1usize, 7, 13, 19, 23, 29] {
                chips[k] = -chips[k];
            }
            assert_eq!(best_matching_symbol(&chips), s, "symbol {s} misdecoded");
        }
    }

    #[test]
    fn symbol0_matches_standard_table() {
        let expected: [u8; 32] = [
            1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1,
            1, 1, 0,
        ];
        assert_eq!(chip_sequence(0), expected);
    }

    #[test]
    fn rotation_property_of_symbols_1_to_7() {
        // Symbol k (k < 8) is symbol 0 cyclically right-shifted by 4k chips.
        for k in 1..8u8 {
            let rotated = chip_sequence(k);
            let base = chip_sequence(0);
            for i in 0..32 {
                assert_eq!(rotated[i], base[(i + 32 - 4 * k as usize) % 32]);
            }
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_symbol_panics() {
        let _ = chip_sequence(16);
    }
}
