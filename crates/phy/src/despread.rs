//! Despreading: soft chips → symbols → octets, plus chip/symbol error
//! accounting.
//!
//! After equalization the receiver demodulates soft chip values and
//! correlates every 32-chip block against the 16 PN sequences (maximum-
//! likelihood detection over the quasi-orthogonal alphabet).  The paper's
//! two error metrics hang off this step: the chip error rate is computed on
//! the hard chip decisions *before* despreading, and the packet error rate
//! on the CRC after despreading.

use crate::config::CHIPS_PER_SYMBOL;
use crate::pn::best_matching_symbol;
use crate::symbols::{chips_to_symbols, count_chip_errors, symbols_to_octets};

/// Soft chip decisions for one received PPDU together with the reference
/// chip stream of the transmitted PPDU.
///
/// [`crate::Receiver::decode_aligned`] scores packets in one pass
/// ([`despread_and_score`]); this two-pass accounting is the reference the
/// property tests in `crates/phy/tests/despread_properties.rs` compare it
/// against.
#[derive(Debug, Clone)]
pub struct ChipDecisions {
    /// Soft chip values recovered by the matched filter (one per chip).
    pub soft_chips: Vec<f64>,
    /// The transmitted antipodal chip stream (reference for error counting).
    pub reference_chips: Vec<f64>,
    /// Index of the first PSDU chip within the streams.
    pub psdu_chip_offset: usize,
}

impl ChipDecisions {
    /// Despreads the PSDU portion into symbols.
    pub fn psdu_symbols(&self) -> Vec<u8> {
        despread_symbols(&self.soft_chips[self.psdu_chip_offset.min(self.soft_chips.len())..])
    }

    /// Despreads the PSDU portion into octets.
    pub fn psdu_octets(&self) -> Vec<u8> {
        symbols_to_octets(&self.psdu_symbols())
    }

    /// Number of chip errors over the PSDU chips (hard decisions), the
    /// numerator of the paper's CER metric.
    pub fn psdu_chip_errors(&self) -> usize {
        let off = self.psdu_chip_offset;
        if off >= self.soft_chips.len() || off >= self.reference_chips.len() {
            return self.reference_chips.len().saturating_sub(off);
        }
        count_chip_errors(&self.reference_chips[off..], &self.soft_chips[off..])
    }

    /// Number of PSDU chips considered by the CER metric.
    pub fn psdu_chip_count(&self) -> usize {
        self.reference_chips
            .len()
            .saturating_sub(self.psdu_chip_offset)
    }

    /// Chip error rate over the PSDU.
    pub fn chip_error_rate(&self) -> f64 {
        let n = self.psdu_chip_count();
        if n == 0 {
            0.0
        } else {
            self.psdu_chip_errors() as f64 / n as f64
        }
    }

    /// Number of despread PSDU symbols that differ from the reference
    /// symbols.
    pub fn psdu_symbol_errors(&self, reference_symbols: &[u8]) -> usize {
        let decoded = self.psdu_symbols();
        reference_symbols
            .iter()
            .zip(decoded.iter())
            .filter(|(a, b)| a != b)
            .count()
            + reference_symbols.len().saturating_sub(decoded.len())
    }
}

/// Despreads a soft chip stream and scores it against the transmitted
/// symbols in one pass: returns the despread symbols (whole 32-chip blocks
/// only) and the number of symbol errors, counted as
/// [`ChipDecisions::psdu_symbol_errors`] counts them (mismatches, plus
/// reference symbols with no despread counterpart).
pub fn despread_and_score(soft_chips: &[f64], reference_symbols: &[u8]) -> (Vec<u8>, usize) {
    let blocks = soft_chips.chunks_exact(CHIPS_PER_SYMBOL);
    let mut symbols = Vec::with_capacity(blocks.len());
    let mut errors = reference_symbols.len().saturating_sub(blocks.len());
    for (k, block) in blocks.enumerate() {
        let symbol = best_matching_symbol(block);
        errors += usize::from(reference_symbols.get(k).is_some_and(|&r| r != symbol));
        symbols.push(symbol);
    }
    (symbols, errors)
}

/// Despreads a soft chip stream into 4-bit symbols (whole 32-chip blocks
/// only).
pub fn despread_symbols(soft_chips: &[f64]) -> Vec<u8> {
    chips_to_symbols(soft_chips)
}

/// Convenience: the number of whole symbols available in a chip stream.
pub fn symbols_available(n_chips: usize) -> usize {
    n_chips / CHIPS_PER_SYMBOL
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::symbols_to_chips;

    fn decisions_for(symbols: &[u8], psdu_offset_symbols: usize) -> ChipDecisions {
        let chips = symbols_to_chips(symbols);
        ChipDecisions {
            soft_chips: chips.clone(),
            reference_chips: chips,
            psdu_chip_offset: psdu_offset_symbols * CHIPS_PER_SYMBOL,
        }
    }

    #[test]
    fn clean_decisions_have_zero_errors() {
        let symbols = vec![0x1, 0x2, 0x3, 0x4, 0x5, 0x6];
        let d = decisions_for(&symbols, 2);
        assert_eq!(d.psdu_chip_errors(), 0);
        assert_eq!(d.chip_error_rate(), 0.0);
        assert_eq!(d.psdu_symbols(), &symbols[2..]);
        assert_eq!(d.psdu_symbol_errors(&symbols[2..]), 0);
    }

    #[test]
    fn chip_errors_are_counted_only_over_psdu() {
        let symbols = vec![0x0, 0xF, 0xA, 0x5];
        let mut d = decisions_for(&symbols, 1);
        // Corrupt chips in the header (before the PSDU offset) and two in the
        // PSDU.
        d.soft_chips[0] = -d.soft_chips[0];
        d.soft_chips[40] = -d.soft_chips[40];
        d.soft_chips[41] = -d.soft_chips[41];
        assert_eq!(d.psdu_chip_errors(), 2);
        assert_eq!(d.psdu_chip_count(), 3 * 32);
    }

    #[test]
    fn moderate_chip_errors_do_not_cause_symbol_errors() {
        let symbols = vec![0x3, 0x7, 0xC];
        let mut d = decisions_for(&symbols, 0);
        for idx in [1usize, 9, 17, 25, 33, 41, 49, 57, 65, 73, 81, 89] {
            d.soft_chips[idx] = -d.soft_chips[idx];
        }
        assert!(d.psdu_chip_errors() > 0);
        assert_eq!(
            d.psdu_symbol_errors(&symbols),
            0,
            "PN redundancy should absorb 4 flips/symbol"
        );
    }

    #[test]
    fn truncated_soft_chips_count_as_errors() {
        let symbols = vec![0x1, 0x2, 0x3];
        let chips = symbols_to_chips(&symbols);
        let d = ChipDecisions {
            soft_chips: chips[..32].to_vec(),
            reference_chips: chips,
            psdu_chip_offset: 64,
        };
        assert_eq!(d.psdu_chip_errors(), 32);
    }

    #[test]
    fn symbols_available_rounds_down() {
        assert_eq!(symbols_available(0), 0);
        assert_eq!(symbols_available(63), 1);
        assert_eq!(symbols_available(64), 2);
    }
}
