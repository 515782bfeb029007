//! Payload integrity on the simulated wire.
//!
//! A message carries its `f64` values; when a fault plan is active the
//! sender stamps it with the FNV-1a checksum of their little-endian bytes,
//! exactly what a byte-level wire would carry, and the receiver checks
//! it, so an injected corruption (see [`crate::fault`]) surfaces as a
//! typed, diagnosable error naming the offending message instead of
//! silently different numbers.

use std::fmt;

/// Why a received payload — a message or a checkpoint shard — failed its
/// check. Embedded in
/// [`crate::SimError::PayloadCorrupt`] and reachable through
/// [`std::error::Error::source`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The payload length is not a multiple of the 8-byte element size.
    RaggedLength {
        /// Observed payload length in bytes.
        len: usize,
    },
    /// The envelope checksum does not match the received bytes.
    ChecksumMismatch {
        /// Checksum the sender stamped on the envelope.
        expected: u64,
        /// Checksum of the bytes as received.
        found: u64,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::RaggedLength { len } => {
                write!(f, "payload length {len} is not a multiple of 8")
            }
            DecodeError::ChecksumMismatch { expected, found } => {
                write!(f, "checksum mismatch: envelope says {expected:#018x}, bytes hash to {found:#018x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// FNV-1a hash of a byte buffer; the envelope checksum used to detect
/// in-transit corruption when a fault plan is active.
pub fn checksum(bytes: &[u8]) -> u64 {
    fnv1a(bytes.iter().copied())
}

/// [`checksum`] of the little-endian bytes of `values`, with byte
/// `flip.0` of them XOR-ed with `flip.1`: the checksum a receiver finds
/// on a payload the wire corrupted.
pub(crate) fn checksum_f64s(values: &[f64], flip: Option<(usize, u8)>) -> u64 {
    let (at, mask) = flip.unwrap_or((usize::MAX, 0));
    let bytes = values.iter().flat_map(|v| v.to_le_bytes()).enumerate();
    fnv1a(bytes.map(|(i, b)| if i == at { b ^ mask } else { b }))
}

/// FNV-1a hash of a byte stream.
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_detects_any_single_byte_flip() {
        let values = [1.5f64, -2.25, 1e300];
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let sum = checksum(&bytes);
        assert_eq!(checksum_f64s(&values, None), sum, "the values' bytes are what is summed");
        for i in 0..bytes.len() {
            for mask in [1u8, 0x80, 0xFF] {
                let mut flipped = bytes.clone();
                flipped[i] ^= mask;
                assert_ne!(checksum(&flipped), sum, "flip at byte {i} mask {mask:#x}");
                assert_eq!(checksum_f64s(&values, Some((i, mask))), checksum(&flipped));
            }
        }
        assert_eq!(checksum(&bytes), sum, "checksum is a pure function");
    }
}
