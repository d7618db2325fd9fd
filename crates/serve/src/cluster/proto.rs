//! Cluster wire protocol: the messages the router and worker nodes
//! exchange over reliable [`cc19_dist::link`] byte links.
//!
//! Payload layouts reuse the serve TCP wire encoders ([`crate::wire`])
//! so probabilities keep crossing process boundaries as raw `f64` bits —
//! the cluster inherits the bit-identity guarantee of the single-node
//! wire. Framing integrity (CRC, sequencing, retransmit) lives a layer
//! below, in the byte link itself.
//!
//! | kind | direction | payload |
//! |------|-----------|---------|
//! | `1` dispatch | router → worker | `[req_id u64][trace ctx 3×u64][encoded ServeRequest]` |
//! | `2` shutdown | router → worker | empty (drain and exit) |
//! | `1` reply-ok | worker → router | `[span section][encode_ok(req_id, diagnosis)]` |
//! | `2` reply-fail | worker → router | `[req_id u64][span section][utf-8 error]` |
//! | `3` reply-reject | worker → router | `[req_id u64][encode_reject]` |
//!
//! Dispatch frames carry the router-minted [`TraceCtx`] so the worker's
//! local span subtree records under the right trace id; `Ok`/`Fail`
//! replies ship that subtree back in a `u32`-length-prefixed *span
//! section* ([`cc19_dist::framing::put_section`]) ahead of the existing
//! payload, and the router grafts it under its dispatch span
//! (DESIGN.md §17). A locally rejected dispatch records no spans, so
//! reject replies stay section-free.

use std::io;

use cc19_dist::framing::put_section;
use cc19_obs::{SpanRecord, SpanStatus, TraceCtx};

use computecovid19::Diagnosis;

use crate::request::{Rejected, ServeRequest};
use crate::wire::{self, Cursor};

const KIND_DISPATCH: u8 = 1;
const KIND_SHUTDOWN: u8 = 2;

const REPLY_OK: u8 = 1;
const REPLY_FAIL: u8 = 2;
const REPLY_REJECT: u8 = 3;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Router → worker message.
#[derive(Debug)]
pub(crate) enum Dispatch {
    /// Serve this study and reply with `req_id`.
    Request {
        /// Router-assigned cluster request id.
        req_id: u64,
        /// Router-minted trace context of the dispatch span; the
        /// worker's local span subtree links under it.
        ctx: TraceCtx,
        /// The study.
        req: ServeRequest,
    },
    /// Drain outstanding work, then exit.
    Shutdown,
}

/// Worker → router message.
#[derive(Debug)]
pub(crate) enum Reply {
    /// Diagnosis completed; `spans` is the worker-local span subtree.
    Ok { req_id: u64, diagnosis: Diagnosis, spans: Vec<SpanRecord> },
    /// Accepted locally but a stage failed; partial spans still ship.
    Fail { req_id: u64, message: String, spans: Vec<SpanRecord> },
    /// The worker's local admission turned the dispatch away.
    Rejected { req_id: u64, why: Rejected },
}

impl Reply {
    /// The cluster request id this reply answers.
    pub(crate) fn req_id(&self) -> u64 {
        match self {
            Reply::Ok { req_id, .. } | Reply::Fail { req_id, .. } | Reply::Rejected { req_id, .. } => {
                *req_id
            }
        }
    }
}

/// Serialize a span subtree: `[count u32]` then, per record, five `u64`
/// fields, a status code byte, and a length-prefixed UTF-8 path.
fn encode_spans(spans: &[SpanRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + spans.len() * 64);
    out.extend_from_slice(&(spans.len() as u32).to_le_bytes());
    for s in spans {
        out.extend_from_slice(&s.trace_id.to_le_bytes());
        out.extend_from_slice(&s.span_id.to_le_bytes());
        out.extend_from_slice(&s.parent_id.to_le_bytes());
        out.extend_from_slice(&s.start_ns.to_le_bytes());
        out.extend_from_slice(&s.end_ns.to_le_bytes());
        out.push(s.status.code());
        out.extend_from_slice(&(s.path.len() as u32).to_le_bytes());
        out.extend_from_slice(s.path.as_bytes());
    }
    out
}

fn decode_spans(block: &[u8]) -> io::Result<Vec<SpanRecord>> {
    let mut c = Cursor(block);
    let count = c.u32()?;
    let mut out = Vec::with_capacity((count as usize).min(1024));
    for _ in 0..count {
        let (trace_id, span_id, parent_id) = (c.u64()?, c.u64()?, c.u64()?);
        let (start_ns, end_ns) = (c.u64()?, c.u64()?);
        let status =
            SpanStatus::from_code(c.u8()?).ok_or_else(|| invalid("unknown span status code"))?;
        let len = c.u32()? as usize;
        let path = std::str::from_utf8(c.take(len)?)
            .map_err(|_| invalid("non-UTF-8 span path"))?
            .to_owned();
        out.push(SpanRecord { trace_id, span_id, parent_id, path, start_ns, end_ns, status });
    }
    c.finish()?;
    Ok(out)
}

pub(crate) fn encode_dispatch(req_id: u64, ctx: TraceCtx, req: &ServeRequest) -> Vec<u8> {
    let body = wire::encode_request(req);
    let mut out = Vec::with_capacity(33 + body.len());
    out.push(KIND_DISPATCH);
    out.extend_from_slice(&req_id.to_le_bytes());
    out.extend_from_slice(&ctx.trace_id.to_le_bytes());
    out.extend_from_slice(&ctx.span_id.to_le_bytes());
    out.extend_from_slice(&ctx.parent_id.to_le_bytes());
    out.extend_from_slice(&body);
    out
}

pub(crate) fn encode_shutdown() -> Vec<u8> {
    vec![KIND_SHUTDOWN]
}

pub(crate) fn decode_dispatch(payload: &[u8]) -> io::Result<Dispatch> {
    let mut c = Cursor(payload);
    match c.u8()? {
        KIND_DISPATCH => {
            let req_id = c.u64()?;
            let ctx = TraceCtx { trace_id: c.u64()?, span_id: c.u64()?, parent_id: c.u64()? };
            Ok(Dispatch::Request { req_id, ctx, req: wire::decode_request(c.rest())? })
        }
        KIND_SHUTDOWN => {
            c.finish()?;
            Ok(Dispatch::Shutdown)
        }
        other => Err(invalid(format!("unknown dispatch kind {other}"))),
    }
}

pub(crate) fn encode_reply_ok(req_id: u64, d: &Diagnosis, spans: &[SpanRecord]) -> Vec<u8> {
    let mut out = vec![REPLY_OK];
    put_section(&mut out, &encode_spans(spans));
    out.extend_from_slice(&wire::encode_ok(req_id, d));
    out
}

pub(crate) fn encode_reply_fail(req_id: u64, message: &str, spans: &[SpanRecord]) -> Vec<u8> {
    let mut out = vec![REPLY_FAIL];
    out.extend_from_slice(&req_id.to_le_bytes());
    put_section(&mut out, &encode_spans(spans));
    out.extend_from_slice(message.as_bytes());
    out
}

pub(crate) fn encode_reply_rejected(req_id: u64, why: &Rejected) -> Vec<u8> {
    let mut out = vec![REPLY_REJECT];
    out.extend_from_slice(&req_id.to_le_bytes());
    out.extend_from_slice(&wire::encode_reject(why));
    out
}

pub(crate) fn decode_reply(payload: &[u8]) -> io::Result<Reply> {
    let mut c = Cursor(payload);
    match c.u8()? {
        REPLY_OK => {
            let spans = decode_spans(c.section()?)?;
            let (req_id, diagnosis) = wire::decode_ok(c.rest())?;
            Ok(Reply::Ok { req_id, diagnosis, spans })
        }
        REPLY_FAIL => {
            let req_id = c.u64()?;
            let spans = decode_spans(c.section()?)?;
            Ok(Reply::Fail { req_id, message: c.rest_utf8()?, spans })
        }
        REPLY_REJECT => {
            let req_id = c.u64()?;
            Ok(Reply::Rejected { req_id, why: wire::decode_reject(c.rest())? })
        }
        other => Err(invalid(format!("unknown reply kind {other}"))),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::request::Priority;
    use cc19_tensor::Tensor;
    use std::time::Duration;

    fn sample_ctx() -> TraceCtx {
        TraceCtx { trace_id: 9, span_id: 2, parent_id: 1 }
    }

    fn sample_spans() -> Vec<SpanRecord> {
        vec![
            SpanRecord {
                trace_id: 9,
                span_id: 1,
                parent_id: 0,
                path: "serve.request".to_string(),
                start_ns: 1_000,
                end_ns: 9_000,
                status: SpanStatus::Ok,
            },
            SpanRecord {
                trace_id: 9,
                span_id: 2,
                parent_id: 1,
                path: "serve.queue".to_string(),
                start_ns: 1_000,
                end_ns: 2_000,
                status: SpanStatus::Redispatched,
            },
        ]
    }

    #[test]
    fn dispatch_roundtrips_bit_exact() {
        let req = ServeRequest {
            volume: Tensor::from_vec([1, 2, 2], vec![1.5, -2.0, 0.25, 9.0]).unwrap(),
            priority: Priority::Urgent,
            deadline: Some(Duration::from_millis(40)),
        };
        match decode_dispatch(&encode_dispatch(77, sample_ctx(), &req)).unwrap() {
            Dispatch::Request { req_id, ctx, req: back } => {
                assert_eq!(req_id, 77);
                assert_eq!(ctx, sample_ctx());
                assert_eq!(back.priority, req.priority);
                assert_eq!(back.deadline, req.deadline);
                assert_eq!(back.volume.data(), req.volume.data());
            }
            other => panic!("wrong decode: {other:?}"),
        }
        assert!(matches!(decode_dispatch(&encode_shutdown()).unwrap(), Dispatch::Shutdown));
    }

    #[test]
    fn replies_roundtrip_probability_bits_and_reasons() {
        let d = Diagnosis {
            probability: 0.987654321234,
            positive: true,
            t_queue: Duration::from_micros(3),
        };
        match decode_reply(&encode_reply_ok(5, &d, &sample_spans())).unwrap() {
            Reply::Ok { req_id, diagnosis, spans } => {
                assert_eq!(req_id, 5);
                assert_eq!(diagnosis.probability.to_bits(), d.probability.to_bits());
                assert_eq!(spans, sample_spans(), "span subtree survives the wire");
            }
            other => panic!("wrong decode: {other:?}"),
        }
        match decode_reply(&encode_reply_fail(6, "stage exploded", &[])).unwrap() {
            Reply::Fail { req_id, message, spans } => {
                assert_eq!((req_id, message.as_str()), (6, "stage exploded"));
                assert!(spans.is_empty());
            }
            other => panic!("wrong decode: {other:?}"),
        }
        let why = Rejected::QueueFull { depth: 9, bound: 9 };
        match decode_reply(&encode_reply_rejected(7, &why)).unwrap() {
            Reply::Rejected { req_id, why: back } => assert_eq!((req_id, back), (7, why)),
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_error_instead_of_panicking() {
        assert!(decode_dispatch(&[]).is_err());
        assert!(decode_dispatch(&[KIND_DISPATCH, 1, 2]).is_err());
        assert!(decode_reply(&[]).is_err());
        assert!(decode_reply(&[REPLY_FAIL, 0, 1]).is_err());
        assert!(decode_reply(&[9]).is_err());
        // A byte past the layout is an error too.
        let req = ServeRequest::routine(Tensor::zeros([1, 2, 2]));
        let d = Diagnosis { probability: 0.5, positive: false, t_queue: Duration::ZERO };
        let mut long_spans = vec![REPLY_OK];
        put_section(&mut long_spans, &[encode_spans(&sample_spans()), vec![0]].concat());
        long_spans.extend_from_slice(&wire::encode_ok(5, &d));
        for long in [encode_dispatch(1, sample_ctx(), &req), encode_shutdown()] {
            let long = [long, vec![0]].concat();
            assert_eq!(decode_dispatch(&long).unwrap_err().kind(), io::ErrorKind::InvalidData);
        }
        for long in [
            [encode_reply_ok(5, &d, &sample_spans()), vec![0]].concat(),
            [encode_reply_rejected(7, &Rejected::ShuttingDown), vec![0]].concat(),
            long_spans,
        ] {
            assert_eq!(decode_reply(&long).unwrap_err().kind(), io::ErrorKind::InvalidData);
        }
    }
}
