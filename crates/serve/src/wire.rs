//! TCP front end over the CRC-framed wire protocol from
//! [`cc19_dist::framing`] (one shared framing layer for training traffic
//! and serving traffic — same magic, same integrity guarantee).
//!
//! One frame per message; the server echoes the request frame's `seq` in
//! its response, so a client can pipeline requests over one connection
//! and match answers. Frame kinds:
//!
//! | kind | direction | payload |
//! |------|-----------|---------|
//! | [`KIND_REQUEST`] | client → server | `[priority u8][has_deadline u8][deadline_micros u64][d u32][h u32][w u32][f32-LE × d·h·w]` |
//! | [`KIND_RESPONSE_OK`] | server → client | `[id u64][probability f64-bits u64][positive u8][t_queue nanos u64]` |
//! | [`KIND_RESPONSE_REJECT`] | server → client | structured [`Rejected`] (see [`encode_reject`]) |
//! | [`KIND_RESPONSE_FAIL`] | server → client | `[id u64][utf-8 error]` |
//!
//! The probability crosses the wire as raw `f64` bits, so the remote
//! answer is *bit-identical* to the in-process one — the serving
//! acceptance criterion holds across the TCP boundary too.

use std::io::{self, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

use cc19_dist::framing::{take_section, WireFrame};
use cc19_tensor::Tensor;
use computecovid19::Diagnosis;

use crate::request::{Priority, Rejected, ServeRequest};
use crate::server::Client;

/// Client → server diagnosis request.
pub const KIND_REQUEST: u8 = 1;
/// Server → client accepted-and-diagnosed response.
pub const KIND_RESPONSE_OK: u8 = 2;
/// Server → client synchronous admission rejection.
pub const KIND_RESPONSE_REJECT: u8 = 3;
/// Server → client stage-failure response (accepted but errored).
pub const KIND_RESPONSE_FAIL: u8 = 4;

/// Outcome of one remote diagnosis call, mirroring the in-process
/// `submit` + `wait` pair.
pub type WireOutcome = Result<(u64, Diagnosis), Rejected>;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Little-endian reader over one serve or cluster payload. Every read
/// errors with `InvalidData` instead of running past the end, and
/// [`Cursor::finish`] rejects leftover bytes, so a payload decodes only
/// if its layout accounts for every byte.
pub(crate) struct Cursor<'a>(pub(crate) &'a [u8]);

impl<'a> Cursor<'a> {
    pub(crate) fn u8(&mut self) -> io::Result<u8> {
        let b = *self.0.first().ok_or_else(|| invalid("truncated payload"))?;
        self.0 = &self.0[1..];
        Ok(b)
    }

    pub(crate) fn u32(&mut self) -> io::Result<u32> {
        let b = self.take(4)?.try_into().map_err(|_| invalid("truncated u32"))?;
        Ok(u32::from_le_bytes(b))
    }

    pub(crate) fn u64(&mut self) -> io::Result<u64> {
        let b = self.take(8)?.try_into().map_err(|_| invalid("truncated u64"))?;
        Ok(u64::from_le_bytes(b))
    }

    pub(crate) fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.0.len() < n {
            return Err(invalid("truncated payload"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    /// A `u32`-length-prefixed section ([`take_section`]).
    pub(crate) fn section(&mut self) -> io::Result<&'a [u8]> {
        let (section, rest) = take_section(self.0)?;
        self.0 = rest;
        Ok(section)
    }

    /// Every byte not yet read, for a nested decoder that finishes it.
    pub(crate) fn rest(self) -> &'a [u8] {
        self.0
    }

    /// Every byte not yet read, as a UTF-8 message.
    pub(crate) fn rest_utf8(self) -> io::Result<String> {
        Ok(std::str::from_utf8(self.0).map_err(|_| invalid("non-UTF-8 message"))?.to_owned())
    }

    /// End of the payload: errors if any byte is left unread.
    pub(crate) fn finish(self) -> io::Result<()> {
        match self.0.len() {
            0 => Ok(()),
            n => Err(invalid(format!("{n} trailing bytes after the payload"))),
        }
    }
}

/// Encode a [`ServeRequest`] payload.
pub fn encode_request(req: &ServeRequest) -> Vec<u8> {
    let dims = req.volume.dims();
    let mut out = Vec::with_capacity(2 + 8 + 12 + req.volume.data().len() * 4);
    out.push(req.priority.code());
    out.push(req.deadline.is_some() as u8);
    out.extend_from_slice(&req.deadline.unwrap_or(Duration::ZERO).as_micros().to_le_bytes()[..8]);
    for i in 0..3 {
        out.extend_from_slice(&(*dims.get(i).unwrap_or(&0) as u32).to_le_bytes());
    }
    for v in req.volume.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode a [`ServeRequest`] payload.
pub fn decode_request(payload: &[u8]) -> io::Result<ServeRequest> {
    let mut c = Cursor(payload);
    let priority =
        Priority::from_code(c.u8()?).ok_or_else(|| invalid("unknown priority code"))?;
    let has_deadline = c.u8()? != 0;
    let micros = c.u64()?;
    let deadline = has_deadline.then(|| Duration::from_micros(micros));
    let (d, h, w) = (c.u32()? as usize, c.u32()? as usize, c.u32()? as usize);
    let bytes = d
        .checked_mul(h)
        .and_then(|v| v.checked_mul(w))
        .and_then(|v| v.checked_mul(4))
        .ok_or_else(|| invalid("volume extent overflow"))?;
    let raw = c.take(bytes)?;
    c.finish()?;
    // chunks_exact(4) yields exactly-4-byte slices, so the array indexing
    // cannot go out of bounds.
    let data: Vec<f32> =
        raw.chunks_exact(4).map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])).collect();
    let volume = Tensor::from_vec([d, h, w], data).map_err(|e| invalid(e.to_string()))?;
    Ok(ServeRequest { volume, priority, deadline })
}

/// Encode an OK response payload.
pub fn encode_ok(id: u64, d: &Diagnosis) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 8 + 1 + 8);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&d.probability.to_bits().to_le_bytes());
    out.push(d.positive as u8);
    out.extend_from_slice(&(d.t_queue.as_nanos() as u64).to_le_bytes());
    out
}

/// Decode an OK response payload.
pub fn decode_ok(payload: &[u8]) -> io::Result<(u64, Diagnosis)> {
    let mut c = Cursor(payload);
    let id = c.u64()?;
    let probability = f64::from_bits(c.u64()?);
    let positive = c.u8()? != 0;
    let t_queue = Duration::from_nanos(c.u64()?);
    c.finish()?;
    Ok((id, Diagnosis { probability, positive, t_queue }))
}

/// Encode a [`Rejected`] payload (structured, so the client reconstructs
/// the exact rejection, not just a message).
pub fn encode_reject(why: &Rejected) -> Vec<u8> {
    let mut out = vec![why.code()];
    match why {
        Rejected::QueueFull { depth, bound } => {
            out.extend_from_slice(&(*depth as u64).to_le_bytes());
            out.extend_from_slice(&(*bound as u64).to_le_bytes());
        }
        Rejected::DeadlineImpossible { deadline, est_service } => {
            out.extend_from_slice(&(deadline.as_nanos() as u64).to_le_bytes());
            out.extend_from_slice(&(est_service.as_nanos() as u64).to_le_bytes());
        }
        Rejected::Invalid(msg) => out.extend_from_slice(msg.as_bytes()),
        Rejected::ShuttingDown => {}
    }
    out
}

/// Decode a [`Rejected`] payload.
pub fn decode_reject(payload: &[u8]) -> io::Result<Rejected> {
    let mut c = Cursor(payload);
    let why = match c.u8()? {
        0 => Rejected::QueueFull { depth: c.u64()? as usize, bound: c.u64()? as usize },
        1 => Rejected::DeadlineImpossible {
            deadline: Duration::from_nanos(c.u64()?),
            est_service: Duration::from_nanos(c.u64()?),
        },
        2 => return Ok(Rejected::Invalid(c.rest_utf8()?)),
        3 => Rejected::ShuttingDown,
        code => return Err(invalid(format!("unknown reject code {code}"))),
    };
    c.finish()?;
    Ok(why)
}

fn handle_connection(stream: TcpStream, client: Client) {
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        let frame = match WireFrame::read_from(&mut reader) {
            Ok(f) => f,
            Err(_) => return, // EOF or corrupt stream: drop the connection
        };
        let seq = frame.seq;
        if frame.kind != KIND_REQUEST {
            let payload = encode_reject(&Rejected::Invalid(format!(
                "unexpected frame kind {}",
                frame.kind
            )));
            if WireFrame::new(KIND_RESPONSE_REJECT, seq, payload).write_to(&mut writer).is_err() {
                return;
            }
            continue;
        }
        let reply = match decode_request(&frame.payload) {
            Ok(req) => match client.submit(req) {
                // Blocking per-request turnaround: a connection carries
                // one request in flight at a time, which keeps the
                // server loop trivially exactly-once. Concurrency comes
                // from multiple connections.
                Ok(pending) => {
                    let id = pending.id();
                    match pending.wait() {
                        Some(resp) => match resp.result {
                            Ok(d) => WireFrame::new(KIND_RESPONSE_OK, seq, encode_ok(resp.id, &d)),
                            Err(msg) => {
                                let mut p = resp.id.to_le_bytes().to_vec();
                                p.extend_from_slice(msg.as_bytes());
                                WireFrame::new(KIND_RESPONSE_FAIL, seq, p)
                            }
                        },
                        None => {
                            let mut p = id.to_le_bytes().to_vec();
                            p.extend_from_slice(b"server terminated before reply");
                            WireFrame::new(KIND_RESPONSE_FAIL, seq, p)
                        }
                    }
                }
                Err(why) => WireFrame::new(KIND_RESPONSE_REJECT, seq, encode_reject(&why)),
            },
            Err(e) => WireFrame::new(
                KIND_RESPONSE_REJECT,
                seq,
                encode_reject(&Rejected::Invalid(e.to_string())),
            ),
        };
        if reply.write_to(&mut writer).is_err() {
            return;
        }
    }
}

/// Accept loop: serve every connection on `listener` against an
/// in-process [`Client`], one handler thread per connection. Blocks for
/// the life of the listener — run it in a spawned thread:
///
/// ```ignore
/// let listener = TcpListener::bind("127.0.0.1:0")?;
/// let addr = listener.local_addr()?;
/// std::thread::spawn(move || serve_on(listener, server.client()));
/// ```
pub fn serve_on(listener: TcpListener, client: Client) -> io::Result<()> {
    for stream in listener.incoming() {
        let stream = stream?;
        let client = client.clone();
        std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || handle_connection(stream, client))
            .map_err(io::Error::other)?;
    }
    Ok(())
}

/// Blocking TCP client for the serve wire protocol.
pub struct TcpServeClient {
    stream: TcpStream,
    seq: u64,
}

impl TcpServeClient {
    /// Connect to a server started with [`serve_on`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpServeClient { stream, seq: 0 })
    }

    /// Submit one study and block for its outcome. `Ok(Err(_))` is a
    /// typed admission rejection; `Err(_)` is a transport or stage
    /// failure. A volume that is not a non-empty `(D, H, W)` is rejected
    /// here, as in-process submission rejects it: the wire carries
    /// exactly three dims.
    pub fn diagnose(&mut self, req: &ServeRequest) -> io::Result<WireOutcome> {
        // Shape only: with a zero service estimate no deadline fails the
        // screen, which the server applies itself.
        if let Err(why) = req.screen(Duration::ZERO) {
            return Ok(Err(why));
        }
        let seq = self.seq;
        self.seq += 1;
        WireFrame::new(KIND_REQUEST, seq, encode_request(req)).write_to(&mut self.stream)?;
        self.stream.flush()?;
        let frame = WireFrame::read_from(&mut self.stream)?;
        if frame.seq != seq {
            return Err(invalid(format!("response seq {} for request {seq}", frame.seq)));
        }
        match frame.kind {
            KIND_RESPONSE_OK => decode_ok(&frame.payload).map(Ok),
            KIND_RESPONSE_REJECT => decode_reject(&frame.payload).map(Err),
            KIND_RESPONSE_FAIL => {
                let mut c = Cursor(&frame.payload);
                let id = c.u64()?;
                Err(io::Error::other(format!("request {id} failed: {}", c.rest_utf8()?)))
            }
            kind => Err(invalid(format!("unknown response kind {kind}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    fn sample_request() -> ServeRequest {
        let data: Vec<f32> = (0..2 * 3 * 4).map(|i| i as f32 * 0.5 - 3.0).collect();
        ServeRequest {
            volume: Tensor::from_vec([2, 3, 4], data).unwrap(),
            priority: Priority::Urgent,
            deadline: Some(Duration::from_millis(250)),
        }
    }

    #[test]
    fn request_roundtrips_bit_exact() {
        let req = sample_request();
        let back = decode_request(&encode_request(&req)).unwrap();
        assert_eq!(back.priority, req.priority);
        assert_eq!(back.deadline, req.deadline);
        assert_eq!(back.volume.dims(), req.volume.dims());
        assert_eq!(back.volume.data(), req.volume.data());
    }

    #[test]
    fn ok_response_roundtrips_probability_bits() {
        let d = Diagnosis {
            probability: 0.123456789012345,
            positive: false,
            t_queue: Duration::from_micros(7),
        };
        let (id, back) = decode_ok(&encode_ok(99, &d)).unwrap();
        assert_eq!(id, 99);
        assert_eq!(back.probability.to_bits(), d.probability.to_bits());
        assert_eq!(back.positive, d.positive);
        assert_eq!(back.t_queue, d.t_queue);
    }

    #[test]
    fn every_reject_variant_roundtrips() {
        let all = [
            Rejected::QueueFull { depth: 64, bound: 64 },
            Rejected::DeadlineImpossible {
                deadline: Duration::from_millis(1),
                est_service: Duration::from_millis(8),
            },
            Rejected::Invalid("rank mismatch".into()),
            Rejected::ShuttingDown,
        ];
        for why in all {
            assert_eq!(decode_reject(&encode_reject(&why)).unwrap(), why);
        }
    }

    #[test]
    fn truncated_payloads_error_instead_of_panicking() {
        let full = encode_request(&sample_request());
        for cut in [0, 1, 5, 10, full.len() - 1] {
            assert!(decode_request(&full[..cut]).is_err(), "cut at {cut} must fail");
        }
        // Dims (2^31, 2^31, 2) pass the extent product (2^63 voxels) but
        // not its byte count.
        let mut huge = full[..10].to_vec();
        for dim in [1u32 << 31, 1 << 31, 2] {
            huge.extend_from_slice(&dim.to_le_bytes());
        }
        assert_eq!(decode_request(&huge).unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert!(decode_ok(&[0u8; 10]).is_err());
        assert!(decode_reject(&[]).is_err());
        // A byte past the layout is an error too: a rank-4 volume
        // encodes its first three dims and then every voxel.
        let d = Diagnosis { probability: 0.5, positive: true, t_queue: Duration::ZERO };
        let rank4 = ServeRequest::routine(Tensor::zeros([1, 2, 3, 4]));
        let long_ok = [encode_ok(1, &d), vec![0]].concat();
        let long_reject = [encode_reject(&Rejected::ShuttingDown), vec![0]].concat();
        for long in [[full, vec![0]].concat(), encode_request(&rank4)] {
            assert_eq!(decode_request(&long).unwrap_err().kind(), io::ErrorKind::InvalidData);
        }
        assert_eq!(decode_ok(&long_ok).unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(decode_reject(&long_reject).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }
}
