//! # vvd-phy
//!
//! A from-scratch IEEE 802.15.4 (2.4 GHz O-QPSK DSSS) physical layer used by
//! the Veni Vidi Dixi reproduction.
//!
//! The paper's measurement setup transmits 127-byte 802.15.4 packets every
//! 100 ms from a Zolertia RE-Mote and captures the raw baseband waveform with
//! a USRP sniffer.  This crate rebuilds the relevant parts of that PHY in
//! sample-domain simulation:
//!
//! * the 16 × 32-chip pseudo-noise spreading sequences and the
//!   4-bit-symbol → chip mapping ([`pn`], [`symbols`]),
//! * PPDU framing — preamble, SFD, PHR and a CRC-16 FCS over the payload
//!   ([`frame`], [`crc`]),
//! * half-sine-shaped Offset-QPSK modulation at a configurable integer
//!   number of samples per chip ([`oqpsk`], [`modulator`]),
//! * the receiver side: preamble detection, frame synchronisation, mean
//!   phase-offset correction, matched-filter chip demodulation and PN-
//!   correlation despreading back to bits ([`receiver`], [`despread`]).
//!
//! The crate knows nothing about propagation — the channel simulator
//! (`vvd-channel`) distorts the waveform produced here, and the estimation
//! crate (`vvd-estimation`) equalizes it before it is handed back to the
//! receiver for despreading.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
pub mod crc;
pub mod despread;
pub mod frame;
pub mod modulator;
pub mod oqpsk;
pub mod pn;
pub mod receiver;
pub mod symbols;

pub use config::PhyConfig;
pub use despread::{despread_and_score, despread_symbols, ChipDecisions};
pub use frame::{Frame, PsduBuilder};
pub use modulator::{modulate_frame, ModulatedFrame};
pub use receiver::{DecodeOutcome, Receiver, SyncResult};
