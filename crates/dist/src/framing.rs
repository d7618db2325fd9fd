//! Length-prefixed, CRC-framed byte messages — the wire form of the
//! reliability layer [`crate::link`] uses in-process, factored out
//! so other subsystems (the `cc19-serve` TCP front end) can reuse the
//! exact framing instead of reinventing it.
//!
//! Layout of one frame on the wire (all integers little-endian):
//!
//! ```text
//! magic  b"CC19"          4 bytes
//! kind   u8               1 byte   (caller-defined message type)
//! seq    u64              8 bytes  (caller-defined sequence number)
//! len    u32              4 bytes  (payload length in bytes)
//! crc    u32              4 bytes  (CRC-32 of the payload)
//! payload [u8; len]
//! ```
//!
//! The CRC covers the payload only — the same property the in-process
//! transport relies on: a corrupted payload is detected and rejected
//! rather than silently consumed. [`WireFrame::read_from`] returns
//! `io::ErrorKind::InvalidData` for a bad magic, an oversized length, or
//! a CRC mismatch, so stream consumers can drop the connection instead
//! of desynchronizing.

use std::io::{self, Read, Write};

use cc19_nn::checkpoint::crc32;

/// Frame preamble, used to detect stream desynchronization early.
pub const MAGIC: [u8; 4] = *b"CC19";

/// Upper bound on a payload — large enough for any CT volume this
/// workspace produces, small enough that a garbage length prefix cannot
/// drive a multi-gigabyte allocation.
pub const MAX_PAYLOAD: usize = 256 << 20;

/// CRC-32 of an `f32` payload's little-endian bytes — the checksum every
/// `Vec<f32>` frame on a [`crate::link`] carries.
pub fn crc32_f32s(payload: &[f32]) -> u32 {
    let mut bytes = Vec::with_capacity(payload.len() * 4);
    for v in payload {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    crc32(&bytes)
}

/// Append a `u32`-length-prefixed section to a payload under
/// construction. Sections let a payload carry optional, independently
/// sized blocks (the serve cluster's trace-span block rides its reply
/// frames this way) without disturbing the bytes that follow them —
/// [`take_section`] splits them back off exactly.
pub fn put_section(out: &mut Vec<u8>, section: &[u8]) {
    out.extend_from_slice(&(section.len() as u32).to_le_bytes());
    out.extend_from_slice(section);
}

/// Split a `u32`-length-prefixed section off the front of `payload`,
/// returning `(section, rest)`. Errors with `InvalidData` on a
/// truncated prefix or a length that overruns the payload, so a
/// malformed frame is rejected instead of mis-split.
pub fn take_section(payload: &[u8]) -> io::Result<(&[u8], &[u8])> {
    if payload.len() < 4 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "truncated section prefix"));
    }
    let (head, rest) = payload.split_at(4);
    let len = u32::from_le_bytes(head.try_into().unwrap_or([0; 4])) as usize;
    if len > rest.len() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "section overruns payload"));
    }
    Ok(rest.split_at(len))
}

/// One framed byte message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    /// Caller-defined message type (request/response/… discriminant).
    pub kind: u8,
    /// Caller-defined sequence number.
    pub seq: u64,
    /// Opaque payload; integrity-checked by CRC-32.
    pub payload: Vec<u8>,
}

impl WireFrame {
    /// New frame over the given payload.
    pub fn new(kind: u8, seq: u64, payload: Vec<u8>) -> Self {
        WireFrame { kind, seq, payload }
    }

    /// Serialize into a standalone byte buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(21 + self.payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(self.kind);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Write the frame to a stream (single `write_all` of the encoding).
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.encode())
    }

    /// Read one frame from a stream, validating magic, length bound, and
    /// payload CRC.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<WireFrame> {
        let mut head = [0u8; 21];
        r.read_exact(&mut head)?;
        if head[..4] != MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad frame magic"));
        }
        let kind = head[4];
        let seq = u64::from_le_bytes(head[5..13].try_into().unwrap());
        let len = u32::from_le_bytes(head[13..17].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(head[17..21].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "frame payload too large"));
        }
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload)?;
        if crc32(&payload) != crc {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "frame CRC mismatch"));
        }
        Ok(WireFrame { kind, seq, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_a_stream() {
        let frames = vec![
            WireFrame::new(1, 0, vec![]),
            WireFrame::new(2, 7, vec![0xAB; 300]),
            WireFrame::new(0, u64::MAX, (0u16..512).flat_map(|v| v.to_le_bytes()).collect()),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            f.write_to(&mut wire).unwrap();
        }
        let mut cursor = &wire[..];
        for f in &frames {
            assert_eq!(&WireFrame::read_from(&mut cursor).unwrap(), f);
        }
    }

    #[test]
    fn corruption_is_detected() {
        let mut wire = WireFrame::new(3, 1, vec![1, 2, 3, 4]).encode();
        let last = wire.len() - 1;
        wire[last] ^= 0x40; // flip a payload bit
        let err = WireFrame::read_from(&mut &wire[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut wire = WireFrame::new(3, 1, vec![9]).encode();
        wire[0] = b'X';
        let err = WireFrame::read_from(&mut &wire[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_length_is_rejected_before_allocating() {
        let mut wire = WireFrame::new(0, 0, vec![]).encode();
        wire[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = WireFrame::read_from(&mut &wire[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn sections_roundtrip_and_reject_overruns() {
        let mut payload = Vec::new();
        put_section(&mut payload, b"trace-block");
        payload.extend_from_slice(b"tail bytes");
        let (section, rest) = take_section(&payload).unwrap();
        assert_eq!(section, b"trace-block");
        assert_eq!(rest, b"tail bytes");

        let mut empty = Vec::new();
        put_section(&mut empty, b"");
        let (section, rest) = take_section(&empty).unwrap();
        assert!(section.is_empty() && rest.is_empty());

        assert!(take_section(&[1, 2]).is_err(), "truncated prefix");
        let mut overrun = Vec::new();
        put_section(&mut overrun, b"abcd");
        overrun.truncate(6); // length says 4, only 2 bytes remain
        assert!(take_section(&overrun).is_err(), "overrunning length");
    }

    #[test]
    fn f32_crc_matches_byte_crc() {
        let vals = [1.5f32, -0.25, f32::MIN_POSITIVE];
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(crc32_f32s(&vals), cc19_nn::checkpoint::crc32(&bytes));
    }
}
