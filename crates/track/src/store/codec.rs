//! Deterministic binary serialization for store records.
//!
//! The workspace's vendored `serde` is an offline API stand-in whose
//! derives expand to nothing, so the on-disk format is hand-rolled
//! here: fixed-width little-endian fields, `f64` as raw IEEE-754 bits
//! (`to_bits`/`from_bits`, so every time round-trips bit-exactly), and
//! a one-byte record tag. Encoding the same record always yields the
//! same bytes — the property the store's bit-identical replay gate and
//! per-record CRCs both rest on.
//!
//! Layout (all integers little-endian):
//!
//! | record | tag | payload |
//! |---|---|---|
//! | [`Record::Read`] | `1` | `time_s:u64` `reader:u64` `antenna:u64` `tag:u64` `epc:[u8;12]` |
//! | [`Record::Observation`] | `2` | `object:u64` `zone:u64` `time_s:u64` `inferred:u8` |
//! | [`Record::Transition`] | `3` | `object:u64` `has_from:u8` `from:u64` `to:u64` `time_s:u64` |
//!
//! Decoding is total: every malformed input maps to a typed
//! [`CodecError`], never a panic, and trailing bytes are an error so a
//! frame's length can never silently hide data.

use crate::constraints::ZoneObservation;
use crate::registry::ObjectHandle;
use crate::stream::ZoneTransition;
use rfid_gen2::Epc96;
use rfid_sim::ReadEvent;
use std::fmt;

/// One durable store record: the three event kinds the zone-history
/// log can carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Record {
    /// A raw reader observation.
    Read(ReadEvent),
    /// A mapped per-object zone observation.
    Observation(ZoneObservation),
    /// A zone transition emitted by the tracker.
    Transition(ZoneTransition),
}

impl Record {
    /// The event time carried by the record, used by the store to
    /// enforce time-ordered appends.
    #[must_use]
    pub fn time_s(&self) -> f64 {
        match self {
            Record::Read(read) => read.time_s,
            Record::Observation(observation) => observation.time_s,
            Record::Transition(transition) => transition.time_s,
        }
    }
}

/// A typed decoding failure. Every variant names what the bytes failed
/// to be — corruption surfaces as an error value, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the field at byte `offset`.
    Truncated {
        /// Byte offset of the field that ran past the end.
        offset: usize,
        /// Total payload length.
        len: usize,
    },
    /// The leading record tag byte is not a known record kind.
    UnknownTag(u8),
    /// A structurally invalid field (non-boolean flag byte, EPC wider
    /// than 96 bits, an integer exceeding the platform `usize`).
    Malformed(&'static str),
    /// The payload continued past the end of the record.
    TrailingBytes {
        /// Number of undecoded bytes left over.
        extra: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { offset, len } => {
                write!(
                    f,
                    "record truncated: field at byte {offset} in {len}-byte payload"
                )
            }
            CodecError::UnknownTag(tag) => write!(f, "unknown record tag {tag}"),
            CodecError::Malformed(what) => write!(f, "malformed record: {what}"),
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after record")
            }
        }
    }
}

impl std::error::Error for CodecError {}

const TAG_READ: u8 = 1;
const TAG_OBSERVATION: u8 = 2;
const TAG_TRANSITION: u8 = 3;

/// Appends the canonical encoding of `record` to `out`.
pub fn encode_record(record: &Record, out: &mut Vec<u8>) {
    match record {
        Record::Read(read) => {
            out.push(TAG_READ);
            out.extend_from_slice(&read.time_s.to_bits().to_le_bytes());
            out.extend_from_slice(&(read.reader as u64).to_le_bytes());
            out.extend_from_slice(&(read.antenna as u64).to_le_bytes());
            out.extend_from_slice(&(read.tag as u64).to_le_bytes());
            // Epc96 is 96 bits by construction; the low 12 bytes of the
            // u128 carry it exactly.
            out.extend_from_slice(&read.epc.to_u128().to_le_bytes()[..12]);
        }
        Record::Observation(observation) => {
            out.push(TAG_OBSERVATION);
            out.extend_from_slice(&(observation.object.index() as u64).to_le_bytes());
            out.extend_from_slice(&(observation.zone as u64).to_le_bytes());
            out.extend_from_slice(&observation.time_s.to_bits().to_le_bytes());
            out.push(u8::from(observation.inferred));
        }
        Record::Transition(transition) => {
            out.push(TAG_TRANSITION);
            out.extend_from_slice(&(transition.object.index() as u64).to_le_bytes());
            out.push(u8::from(transition.from.is_some()));
            out.extend_from_slice(&(transition.from.unwrap_or(0) as u64).to_le_bytes());
            out.extend_from_slice(&(transition.to as u64).to_le_bytes());
            out.extend_from_slice(&transition.time_s.to_bits().to_le_bytes());
        }
    }
}

/// A cursor over an immutable payload; every read is bounds-checked
/// into a typed error.
struct Reader<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, offset: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.offset.checked_add(n).ok_or(CodecError::Truncated {
            offset: self.offset,
            len: self.bytes.len(),
        })?;
        if end > self.bytes.len() {
            return Err(CodecError::Truncated {
                offset: self.offset,
                len: self.bytes.len(),
            });
        }
        let slice = &self.bytes[self.offset..end];
        self.offset = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(raw))
    }

    fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Malformed("index exceeds usize"))
    }

    fn f64_bits(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed("flag byte is not 0 or 1")),
        }
    }

    fn epc(&mut self) -> Result<Epc96, CodecError> {
        let mut raw = [0u8; 16];
        raw[..12].copy_from_slice(self.take(12)?);
        // 12 bytes can only encode 96 bits, so `from_u128` cannot panic.
        Ok(Epc96::from_u128(u128::from_le_bytes(raw)))
    }

    fn finish(self) -> Result<(), CodecError> {
        let extra = self.bytes.len() - self.offset;
        if extra == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes { extra })
        }
    }
}

/// Decodes one record from a complete payload. The payload must hold
/// exactly one record; anything else is a typed [`CodecError`].
pub fn decode_record(payload: &[u8]) -> Result<Record, CodecError> {
    let mut reader = Reader::new(payload);
    let record = match reader.u8()? {
        TAG_READ => Record::Read(ReadEvent {
            time_s: reader.f64_bits()?,
            reader: reader.usize()?,
            antenna: reader.usize()?,
            tag: reader.usize()?,
            epc: reader.epc()?,
        }),
        TAG_OBSERVATION => Record::Observation(ZoneObservation {
            object: ObjectHandle::from_index(reader.usize()?),
            zone: reader.usize()?,
            time_s: reader.f64_bits()?,
            inferred: reader.bool()?,
        }),
        TAG_TRANSITION => {
            let object = ObjectHandle::from_index(reader.usize()?);
            let has_from = reader.bool()?;
            let from = reader.usize()?;
            Record::Transition(ZoneTransition {
                object,
                from: has_from.then_some(from),
                to: reader.usize()?,
                time_s: reader.f64_bits()?,
            })
        }
        tag => return Err(CodecError::UnknownTag(tag)),
    };
    reader.finish()?;
    Ok(record)
}

/// The CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`)
/// slicing-by-8 tables, built at compile time so the checksum is a pure
/// function of the bytes. `CRC_TABLES[0]` is the classic bytewise table;
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so one lookup per table advances the CRC over eight bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`: the per-record integrity check framing
/// every store append and campaign checkpoint. Eight bytes per step
/// (slicing-by-8), then the bytewise loop over the last `len % 8`; the
/// result equals the bytewise CRC exactly, so the on-disk format does
/// not depend on which loop computed it.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = u32::MAX;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_records() -> Vec<Record> {
        let object = ObjectHandle::from_index(7);
        vec![
            Record::Read(ReadEvent {
                time_s: 1.25,
                reader: 3,
                antenna: 1,
                tag: 9,
                epc: Epc96::from_u128((1 << 95) | 0xDEAD_BEEF),
            }),
            Record::Observation(ZoneObservation {
                object,
                zone: 4,
                time_s: -0.0,
                inferred: true,
            }),
            Record::Transition(ZoneTransition {
                object,
                from: None,
                to: 2,
                time_s: 3.5,
            }),
            Record::Transition(ZoneTransition {
                object,
                from: Some(2),
                to: 0,
                time_s: 4.0,
            }),
        ]
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        for record in sample_records() {
            let mut bytes = Vec::new();
            encode_record(&record, &mut bytes);
            let decoded = decode_record(&bytes).expect("round trip");
            let mut re_encoded = Vec::new();
            encode_record(&decoded, &mut re_encoded);
            assert_eq!(bytes, re_encoded, "{record:?}");
            assert_eq!(decoded.time_s().to_bits(), record.time_s().to_bits());
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        for record in sample_records() {
            let mut bytes = Vec::new();
            encode_record(&record, &mut bytes);
            for cut in 0..bytes.len() {
                let err = decode_record(&bytes[..cut]).expect_err("truncated");
                assert!(
                    matches!(err, CodecError::Truncated { .. } | CodecError::Malformed(_)),
                    "cut={cut}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_and_bad_tags_are_rejected() {
        let mut bytes = Vec::new();
        encode_record(&sample_records()[1], &mut bytes);
        bytes.push(0);
        assert_eq!(
            decode_record(&bytes),
            Err(CodecError::TrailingBytes { extra: 1 })
        );
        assert_eq!(decode_record(&[200]), Err(CodecError::UnknownTag(200)));
        assert!(decode_record(&[]).is_err());
    }

    /// The bytewise table loop `crc32` replaced: the reference the
    /// sliced loop must agree with on every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &byte in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
        // Longer than one eight-byte step, with a remainder.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    proptest! {
        /// The sliced CRC equals the bytewise reference for every
        /// length in `0..=64` at every start offset within an
        /// eight-byte word, over arbitrary bytes.
        #[test]
        fn crc32_matches_the_bytewise_reference(
            bytes in proptest::collection::vec(any::<u8>(), 72),
        ) {
            for start in 0..8 {
                for len in 0..=64 {
                    let slice = &bytes[start..start + len];
                    prop_assert_eq!(
                        crc32(slice),
                        crc32_bytewise(slice),
                        "start {} len {}", start, len
                    );
                }
            }
        }
    }
}
