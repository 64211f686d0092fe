//! Length-prefixed binary wire protocol for the serving plane.
//!
//! Every message is one frame:
//!
//! ```text
//! +--------+----------------+------------------+
//! | tag u8 | len u32 LE     | payload (len B)  |
//! +--------+----------------+------------------+
//! ```
//!
//! Request tags: `0x01` Manifest, `0x03` GetBatch, `0x04` Stats, `0x05`
//! Shutdown, `0x06` GetTensors (a keyed fetch: an explicit key list
//! tensorized in order). `0x02` is unassigned and refused like any
//! unknown tag.
//! Response tags: `0x81` Manifest (JSON), `0x83` Batch (f32 tensors — the
//! answer to both `GetBatch` and `GetTensors`, sample `i` being request
//! key `i`), `0x84` Stats (JSON), `0xEE` Error (kind byte + UTF-8 message).
//! A response is encoded once, whole frame included, into one buffer
//! ([`Response::encode_frame`]).
//!
//! An overloaded server answers (or greets, at accept time) with an error
//! frame of kind [`WireErrorKind::Busy`] instead of silently dropping the
//! connection: backpressure is explicit on the wire, and clients treat it
//! as retry-after-jitter rather than a failure.
//!
//! ## Trace-context trailer
//!
//! A request payload may carry an optional 17-byte trailer after its fixed
//! fields: one magic byte [`TRACE_MAGIC`] followed by a 16-byte
//! [`TraceContext`] (client trace id + open span id, both LE u64). The
//! trailer is strictly additive: [`Request::encode`] never writes one, a
//! server that does not understand it would reject the frame the same way
//! it rejects any trailing garbage, and [`Request::decode`] (which all
//! current servers route through) accepts-and-ignores it. Parsing is
//! deterministic — an empty remainder means no context, exactly 17 bytes
//! starting with the magic mean a context, anything else is `InvalidData`.
//!
//! Frames are capped at [`MAX_FRAME`], and request, response and batch
//! payloads are read through `sickle_field::io::Reader`, the one bounded
//! cursor every binary decoder shares: a count in a payload is
//! overflow-checked and bounded by the bytes actually present before it
//! sizes anything, because a network peer is the canonical untrusted
//! source. The `decode_fuzz` suite attacks each frame kind with the shared
//! harness (`sickle_field::io::attack`): every strict prefix, every
//! single-bit flip and noise behind every tag.

use std::io::{self, Read, Write};

use bytes::BufMut;
use sickle_field::io::{invalid, Reader};
use sickle_obs::TraceContext;

use crate::batching::{Batch, BatchShape, BatchSpec};
use crate::manifest::ShardKey;

/// Hard ceiling on one frame's payload (256 MiB).
pub const MAX_FRAME: usize = 1 << 28;

/// Bytes of a frame header on the wire (tag + `u32` length prefix).
pub(crate) const FRAME_HEADER: usize = 5;

/// Bytes of a `Batch` payload's shape header (`b, t, f, o` as `u32`).
const BATCH_HEADER: usize = 16;

/// Request tag: fetch the store manifest.
pub const TAG_REQ_MANIFEST: u8 = 0x01;
/// Request tag: fetch one assembled batch.
pub const TAG_REQ_BATCH: u8 = 0x03;
/// Request tag: fetch a live metrics snapshot.
pub const TAG_REQ_STATS: u8 = 0x04;
/// Request tag: ask the server to stop (honored only when
/// `ServeConfig::allow_shutdown` is set).
pub const TAG_REQ_SHUTDOWN: u8 = 0x05;
/// Request tag: assemble a batch from an explicit list of shard keys.
pub const TAG_REQ_TENSORS: u8 = 0x06;
/// Response tag: manifest JSON.
pub const TAG_RESP_MANIFEST: u8 = 0x81;
/// Response tag: assembled batch tensors.
pub const TAG_RESP_BATCH: u8 = 0x83;
/// Response tag: stats snapshot JSON.
pub const TAG_RESP_STATS: u8 = 0x84;
/// Response tag: error.
pub const TAG_RESP_ERROR: u8 = 0xEE;

/// Ceiling on keys per `GetTensors` request — far above any sane batch
/// size, low enough that a hostile count cannot size an allocation.
pub const MAX_TENSOR_KEYS: usize = 65_536;

/// First byte of the optional trace-context trailer. Deliberately not a
/// valid request tag, so a sliced/misframed payload cannot alias one.
pub const TRACE_MAGIC: u8 = 0x7C;

/// Total trailer size: magic byte + encoded [`TraceContext`].
pub const TRACE_TRAILER_LEN: usize = 1 + TraceContext::WIRE_LEN;

/// A client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// The store manifest, as JSON.
    Manifest,
    /// Batch `index` of the epoch described by `spec`.
    GetBatch {
        /// Epoch seed / batch size / tokens per sample.
        spec: BatchSpec,
        /// Zero-based batch index within the epoch.
        index: u64,
    },
    /// Assemble a batch from these shards, in order — a keyed fetch for a
    /// caller that picks the samples itself instead of naming an epoch
    /// batch. Answered with the same `Batch` frame as `GetBatch`.
    GetTensors {
        /// Tokens (strided feature rows) per sample.
        tokens: u32,
        /// The shards to tensorize, in the order they should come back.
        keys: Vec<ShardKey>,
    },
    /// A live metrics snapshot (JSON [`crate::stats::StatsSnapshot`]).
    Stats,
    /// Stop the server after responding (final stats snapshot). Honored
    /// only when the server was started with `allow_shutdown`.
    Shutdown,
}

impl Request {
    /// Serializes to `(tag, payload)` without a trace-context trailer —
    /// the frame an un-instrumented (or pre-telemetry) client sends.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        self.encode_traced(None)
    }

    /// Serializes to `(tag, payload)`, appending the 17-byte trace-context
    /// trailer when `ctx` is given.
    pub fn encode_traced(&self, ctx: Option<TraceContext>) -> (u8, Vec<u8>) {
        let (tag, mut p) = match self {
            Request::Manifest => (TAG_REQ_MANIFEST, Vec::new()),
            Request::GetBatch { spec, index } => {
                let mut p = Vec::with_capacity(24 + TRACE_TRAILER_LEN);
                p.put_u64_le(spec.seed);
                p.put_u32_le(spec.batch_size as u32);
                p.put_u32_le(spec.tokens as u32);
                p.put_u64_le(*index);
                (TAG_REQ_BATCH, p)
            }
            Request::GetTensors { tokens, keys } => {
                let mut p = Vec::with_capacity(8 + keys.len() * 16 + TRACE_TRAILER_LEN);
                p.put_u32_le(*tokens);
                p.put_u32_le(keys.len() as u32);
                for key in keys {
                    p.put_u64_le(key.snapshot as u64);
                    p.put_u64_le(key.cube as u64);
                }
                (TAG_REQ_TENSORS, p)
            }
            Request::Stats => (TAG_REQ_STATS, Vec::new()),
            Request::Shutdown => (TAG_REQ_SHUTDOWN, Vec::new()),
        };
        if let Some(ctx) = ctx {
            p.push(TRACE_MAGIC);
            p.extend_from_slice(&ctx.encode());
        }
        (tag, p)
    }

    /// Parses a request frame, ignoring any trace-context trailer — the
    /// "server that ignores telemetry" half of backward compatibility.
    ///
    /// # Errors
    /// `InvalidData` for unknown tags, truncated or oversized payloads.
    pub fn decode(tag: u8, payload: &[u8]) -> io::Result<Request> {
        Self::decode_with_context(tag, payload).map(|(req, _)| req)
    }

    /// Parses a request frame together with its optional trace-context
    /// trailer. The remainder after the request's fixed fields must be
    /// empty (no context) or exactly [`TRACE_TRAILER_LEN`] bytes starting
    /// with [`TRACE_MAGIC`]; anything else is rejected.
    ///
    /// # Errors
    /// `InvalidData` for unknown tags, truncated or oversized payloads,
    /// and malformed trailers.
    pub fn decode_with_context(
        tag: u8,
        payload: &[u8],
    ) -> io::Result<(Request, Option<TraceContext>)> {
        let mut r = Reader::new(payload, "request");
        let req = match tag {
            TAG_REQ_MANIFEST => Request::Manifest,
            TAG_REQ_BATCH => {
                r.context("GetBatch request");
                let seed = r.u64()?;
                let batch_size = r.u32()? as usize;
                let tokens = r.u32()? as usize;
                let index = r.u64()?;
                Request::GetBatch {
                    spec: BatchSpec {
                        seed,
                        batch_size,
                        tokens,
                    },
                    index,
                }
            }
            TAG_REQ_TENSORS => {
                r.context("GetTensors request");
                let tokens = r.u32()?;
                let count = r.u32()?;
                if count as usize > MAX_TENSOR_KEYS {
                    return Err(invalid(format!(
                        "GetTensors asks for {count} keys, cap is {MAX_TENSOR_KEYS}"
                    )));
                }
                let mut raw = Reader::new(r.slice(count.into(), 16)?, "GetTensors keys");
                let mut word = || {
                    usize::try_from(raw.u64()?)
                        .map_err(|_| invalid("GetTensors key overflows usize"))
                };
                let mut keys = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    keys.push(ShardKey {
                        snapshot: word()?,
                        cube: word()?,
                    });
                }
                Request::GetTensors { tokens, keys }
            }
            TAG_REQ_STATS => Request::Stats,
            TAG_REQ_SHUTDOWN => Request::Shutdown,
            other => return Err(invalid(format!("unknown request tag {other:#04x}"))),
        };
        let ctx = match r.rest() {
            [] => None,
            [TRACE_MAGIC, context @ ..] if context.len() == TraceContext::WIRE_LEN => Some(
                TraceContext::decode(context)
                    .ok_or_else(|| invalid("malformed trace-context trailer"))?,
            ),
            _ => return Err(invalid("trailing bytes after request")),
        };
        Ok((req, ctx))
    }
}

/// Wire error kinds, a coarse projection of [`io::ErrorKind`] that
/// round-trips the retry-relevant distinctions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireErrorKind {
    /// Anything without a dedicated code.
    Other = 0,
    /// The requested shard or batch does not exist.
    NotFound = 1,
    /// The request (or stored data) was malformed.
    InvalidData = 2,
    /// The server is over its admission bound; retry after backing off.
    /// Explicit backpressure — the server sheds load with this frame, never
    /// by silently dropping the connection.
    Busy = 3,
}

impl WireErrorKind {
    fn from_u8(v: u8) -> WireErrorKind {
        match v {
            1 => WireErrorKind::NotFound,
            2 => WireErrorKind::InvalidData,
            3 => WireErrorKind::Busy,
            _ => WireErrorKind::Other,
        }
    }

    fn from_io(kind: io::ErrorKind) -> WireErrorKind {
        match kind {
            io::ErrorKind::NotFound => WireErrorKind::NotFound,
            io::ErrorKind::InvalidData => WireErrorKind::InvalidData,
            io::ErrorKind::WouldBlock => WireErrorKind::Busy,
            _ => WireErrorKind::Other,
        }
    }

    /// The matching [`io::ErrorKind`] on the client side.
    pub fn to_io(self) -> io::ErrorKind {
        match self {
            WireErrorKind::NotFound => io::ErrorKind::NotFound,
            WireErrorKind::InvalidData => io::ErrorKind::InvalidData,
            WireErrorKind::Busy => io::ErrorKind::WouldBlock,
            WireErrorKind::Other => io::ErrorKind::Other,
        }
    }
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Manifest JSON bytes.
    Manifest(Vec<u8>),
    /// One assembled batch (sample `i` is key `i` of the request's batch).
    Batch(Batch),
    /// Stats snapshot JSON bytes ([`crate::stats::StatsSnapshot`]).
    Stats(Vec<u8>),
    /// The request failed; the error is a *response*, so the connection
    /// stays usable for the next request.
    Error {
        /// Coarse error kind for client-side mapping.
        kind: WireErrorKind,
        /// Human-readable message.
        message: String,
    },
}

impl Response {
    /// Wraps a server-side failure as an error response.
    pub fn from_error(err: &io::Error) -> Response {
        Response::Error {
            kind: WireErrorKind::from_io(err.kind()),
            message: err.to_string(),
        }
    }

    /// Encodes the whole frame — tag, `u32` LE payload length, payload —
    /// into one buffer allocated once at its final size: the one response
    /// encoder, whose bytes the server writes as they are. Tensors go
    /// straight from `f32` to LE bytes. Keeping the payload within
    /// [`MAX_FRAME`] is the caller's part (the server sizes a batch before
    /// building it); [`read_frame`] refuses anything larger.
    pub fn encode_frame(&self) -> Vec<u8> {
        let (tag, len) = match self {
            Response::Manifest(json) => (TAG_RESP_MANIFEST, json.len()),
            Response::Batch(b) => (
                TAG_RESP_BATCH,
                BATCH_HEADER + 4 * (b.inputs.len() + b.targets.len()),
            ),
            Response::Stats(json) => (TAG_RESP_STATS, json.len()),
            Response::Error { message, .. } => (TAG_RESP_ERROR, 1 + message.len()),
        };
        let mut out = Vec::with_capacity(FRAME_HEADER + len);
        out.put_u8(tag);
        out.put_u32_le(len as u32);
        match self {
            Response::Manifest(json) | Response::Stats(json) => out.put_slice(json),
            Response::Batch(b) => {
                let s = b.shape;
                for dim in [s.batch, s.tokens, s.features, s.outputs] {
                    out.put_u32_le(dim as u32);
                }
                put_f32s(&mut out, &b.inputs);
                put_f32s(&mut out, &b.targets);
            }
            Response::Error { kind, message } => {
                out.put_u8(*kind as u8);
                out.put_slice(message.as_bytes());
            }
        }
        out
    }

    /// Parses a response frame.
    ///
    /// # Errors
    /// `InvalidData` for unknown tags or payloads whose counts disagree
    /// with the bytes present.
    pub fn decode(tag: u8, payload: &[u8]) -> io::Result<Response> {
        match tag {
            TAG_RESP_MANIFEST => Ok(Response::Manifest(payload.to_vec())),
            TAG_RESP_BATCH => decode_batch(payload),
            TAG_RESP_STATS => Ok(Response::Stats(payload.to_vec())),
            TAG_RESP_ERROR => {
                let mut r = Reader::new(payload, "error response");
                let kind = WireErrorKind::from_u8(r.u8()?);
                Ok(Response::Error {
                    kind,
                    message: String::from_utf8_lossy(r.rest()).into_owned(),
                })
            }
            other => Err(invalid(format!("unknown response tag {other:#04x}"))),
        }
    }
}

/// Payload bytes of a `Batch` frame of this shape: the shape header, then
/// `batch·tokens·features` inputs and `batch·outputs` targets as `f32`.
/// `None` when the count overflows. The server sizes a batch with it before
/// building one; the decoder checks a frame's bytes against it.
pub(crate) fn batch_payload_len(shape: BatchShape) -> Option<usize> {
    let inputs = shape
        .batch
        .checked_mul(shape.tokens)?
        .checked_mul(shape.features)?;
    let targets = shape.batch.checked_mul(shape.outputs)?;
    inputs
        .checked_add(targets)?
        .checked_mul(4)?
        .checked_add(BATCH_HEADER)
}

fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
    let start = out.len();
    out.resize(start + 4 * values.len(), 0);
    for (dst, v) in out[start..].chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

fn get_f32s(r: &mut Reader<'_>, count: usize) -> io::Result<Vec<f32>> {
    let values = r.chunks::<4>(count as u64)?;
    Ok(values.iter().map(|&b| f32::from_le_bytes(b)).collect())
}

fn decode_batch(payload: &[u8]) -> io::Result<Response> {
    let mut r = Reader::new(payload, "batch header");
    let shape = BatchShape {
        batch: r.u32()? as usize,
        tokens: r.u32()? as usize,
        features: r.u32()? as usize,
        outputs: r.u32()? as usize,
    };
    let total = batch_payload_len(shape).ok_or_else(|| invalid("batch payload size overflows"))?;
    if payload.len() != total {
        return Err(invalid(format!(
            "batch payload holds {} bytes, shape requires {total}",
            payload.len()
        )));
    }
    // The shape fits `total`, so neither count can overflow.
    Ok(Response::Batch(Batch {
        inputs: get_f32s(&mut r, shape.batch * shape.tokens * shape.features)?,
        targets: get_f32s(&mut r, shape.batch * shape.outputs)?,
        shape,
    }))
}

/// Writes one frame as one buffer in one write, as every response leaves:
/// under `TCP_NODELAY` a header written on its own can reach the peer
/// alone, waking a server worker on a frame it cannot answer yet.
///
/// # Errors
/// `InvalidData` if the payload exceeds [`MAX_FRAME`]; otherwise I/O
/// errors from the writer.
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(invalid(format!(
            "frame of {} bytes exceeds MAX_FRAME",
            payload.len()
        )));
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.put_u8(tag);
    frame.put_u32_le(payload.len() as u32);
    frame.put_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame, returning `(tag, payload)`.
///
/// # Errors
/// `UnexpectedEof` on a closed peer, `InvalidData` on an oversized length
/// prefix, otherwise I/O errors from the reader.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    let mut header = [0u8; FRAME_HEADER];
    r.read_exact(&mut header)?;
    let tag = header[0];
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
    if len > MAX_FRAME {
        return Err(invalid(format!("frame length {len} exceeds MAX_FRAME")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok((tag, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `words` as consecutive little-endian `u32`s.
    fn u32s(words: &[u32]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    fn roundtrip_request(req: Request) {
        let (tag, payload) = req.encode();
        assert_eq!(Request::decode(tag, &payload).unwrap(), req);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Manifest);
        roundtrip_request(Request::GetBatch {
            spec: BatchSpec {
                seed: 0xDEAD_BEEF,
                batch_size: 32,
                tokens: 64,
            },
            index: 7,
        });
        roundtrip_request(Request::GetTensors {
            tokens: 16,
            keys: vec![
                ShardKey {
                    snapshot: 0,
                    cube: 5,
                },
                ShardKey {
                    snapshot: 2,
                    cube: 0,
                },
            ],
        });
        roundtrip_request(Request::GetTensors {
            tokens: 1,
            keys: Vec::new(),
        });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn trace_trailer_roundtrips_on_every_request() {
        let ctx = TraceContext {
            trace_id: 0xABCD_EF01_2345_6789,
            span_id: (4242u64 << 32) + 17,
        };
        for req in [
            Request::Manifest,
            Request::GetBatch {
                spec: BatchSpec {
                    seed: 9,
                    batch_size: 4,
                    tokens: 8,
                },
                index: 0,
            },
            Request::GetTensors {
                tokens: 4,
                keys: vec![ShardKey {
                    snapshot: 1,
                    cube: 3,
                }],
            },
            Request::Stats,
            Request::Shutdown,
        ] {
            let (tag, payload) = req.encode_traced(Some(ctx));
            // Traced decode sees the context.
            let (decoded, got) = Request::decode_with_context(tag, &payload).unwrap();
            assert_eq!(decoded, req);
            assert_eq!(got, Some(ctx));
            // Untraced decode (a server that ignores telemetry) still
            // parses the same request.
            assert_eq!(Request::decode(tag, &payload).unwrap(), req);
            // And an untraced frame decodes with no context.
            let (tag, payload) = req.encode();
            assert_eq!(
                Request::decode_with_context(tag, &payload).unwrap(),
                (req, None)
            );
        }
    }
    #[test]
    fn malformed_trace_trailers_are_rejected() {
        let ctx = TraceContext {
            trace_id: 7,
            span_id: 9,
        };
        let (tag, good) = Request::Stats.encode_traced(Some(ctx));
        assert_eq!(good.len(), TRACE_TRAILER_LEN);
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(Request::decode_with_context(tag, &bad).is_err());
        // Truncated trailer.
        assert!(Request::decode_with_context(tag, &good[..good.len() - 1]).is_err());
        // Trailer with extra byte.
        let mut long = good.clone();
        long.push(0);
        assert!(Request::decode_with_context(tag, &long).is_err());
        // On a payload-bearing request too.
        let (tag, mut p) = Request::GetTensors {
            tokens: 2,
            keys: vec![ShardKey {
                snapshot: 0,
                cube: 0,
            }],
        }
        .encode_traced(Some(ctx));
        p.truncate(p.len() - 3);
        assert!(Request::decode_with_context(tag, &p).is_err());
    }

    /// Encodes `resp` with the one encoder, then reads it back the way a
    /// client does: `read_frame`, then `Response::decode`.
    fn over_the_wire(resp: &Response) -> Response {
        let frame = resp.encode_frame();
        let mut wire = &frame[..];
        let (tag, payload) = read_frame(&mut wire).unwrap();
        assert!(wire.is_empty(), "the frame is read whole");
        Response::decode(tag, &payload).unwrap()
    }

    #[test]
    fn responses_roundtrip() {
        let batch = Batch {
            inputs: vec![1.5, -2.25, f32::MIN_POSITIVE, 0.1],
            targets: vec![0.5, -0.5],
            shape: BatchShape {
                batch: 2,
                tokens: 1,
                features: 2,
                outputs: 1,
            },
        };
        let empty = Batch {
            inputs: Vec::new(),
            targets: Vec::new(),
            shape: BatchShape {
                batch: 0,
                tokens: 3,
                features: 2,
                outputs: 2,
            },
        };
        for resp in [
            Response::Manifest(b"{\"version\":1}".to_vec()),
            Response::Batch(batch),
            Response::Batch(empty),
            Response::Stats(b"{\"requests\":12}".to_vec()),
            Response::Error {
                kind: WireErrorKind::NotFound,
                message: "no shard".into(),
            },
            Response::Error {
                kind: WireErrorKind::Busy,
                message: "admission bound reached".into(),
            },
        ] {
            assert_eq!(over_the_wire(&resp), resp);
        }
    }

    #[test]
    fn batch_floats_are_bit_exact_across_the_wire() {
        let inputs = vec![0.1f32, 1.0 / 3.0, f32::EPSILON, -0.0];
        let targets = vec![f32::NAN, f32::from_bits(0xFFC0_0001)];
        let resp = Response::Batch(Batch {
            inputs: inputs.clone(),
            targets: targets.clone(),
            shape: BatchShape {
                batch: 1,
                tokens: 2,
                features: 2,
                outputs: 2,
            },
        });
        // The frame, by hand: tag, length, `b, t, f, o`, then LE tensors.
        let mut want = [&[TAG_RESP_BATCH][..], &u32s(&[16 + 4 * 6, 1, 2, 2, 2])].concat();
        for v in inputs.iter().chain(&targets) {
            want.put_slice(&v.to_le_bytes());
        }
        assert_eq!(resp.encode_frame(), want);
        // NaN != NaN, so the decoded tensors are compared bit for bit.
        match over_the_wire(&resp) {
            Response::Batch(b) => {
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&b.inputs), bits(&inputs));
                assert_eq!(bits(&b.targets), bits(&targets));
            }
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn frame_io_roundtrips_and_rejects_oversize() {
        let mut wire = Vec::new();
        write_frame(&mut wire, TAG_REQ_MANIFEST, &[]).unwrap();
        write_frame(&mut wire, TAG_RESP_STATS, &[9, 9, 9]).unwrap();
        let mut cursor = &wire[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), (TAG_REQ_MANIFEST, vec![]));
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            (TAG_RESP_STATS, vec![9, 9, 9])
        );
        assert!(read_frame(&mut cursor).is_err(), "EOF is an error");

        for len in [MAX_FRAME as u32 + 1, u32::MAX] {
            let bad = [&[TAG_RESP_STATS][..], &len.to_le_bytes()].concat();
            assert!(
                read_frame(&mut &bad[..]).is_err(),
                "oversize {len} rejected"
            );
        }
    }

    #[test]
    fn a_request_frame_leaves_in_one_write() {
        /// Records the length of every `write` call.
        struct Writes(Vec<usize>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let (tag, payload) = Request::GetBatch {
            spec: BatchSpec {
                seed: 3,
                batch_size: 4,
                tokens: 8,
            },
            index: 1,
        }
        .encode_traced(Some(TraceContext {
            trace_id: 1,
            span_id: 2,
        }));
        let mut w = Writes(Vec::new());
        write_frame(&mut w, tag, &payload).unwrap();
        assert_eq!(w.0, [FRAME_HEADER + payload.len()]);
    }

    #[test]
    fn hostile_batch_header_is_error_not_abort() {
        // Counts claiming far more data than present must fail cleanly.
        assert!(decode_batch(&u32s(&[u32::MAX; 4])).is_err());
        // Shape/payload disagreement is rejected, not padded.
        let q = [u32s(&[1, 1, 2, 1]), vec![0; 4]].concat(); // needs 12 bytes, has 4
        assert!(decode_batch(&q).is_err());
    }

    #[test]
    fn malformed_requests_are_rejected() {
        // 0x02 is unassigned, so it is refused like any unknown tag.
        for tag in [0x55, 0x02] {
            let err = Request::decode(tag, &[0u8; 16]).unwrap_err();
            assert!(err.to_string().contains("unknown request tag"), "{err}");
        }
        assert!(Request::decode(TAG_REQ_BATCH, &[0u8; 8]).is_err());
        assert!(
            Request::decode(TAG_REQ_BATCH, &[0u8; 25]).is_err(),
            "trailing bytes"
        );
    }

    #[test]
    fn hostile_tensors_frames_are_errors_not_aborts() {
        // Request claiming far more keys than bytes present.
        assert!(Request::decode(TAG_REQ_TENSORS, &u32s(&[8, u32::MAX])).is_err());
        // `MAX_TENSOR_KEYS` keys are read; one more is refused even with
        // its bytes present.
        let keys = |count: u32| [u32s(&[8, count]), vec![0; 16 * count as usize]].concat();
        assert!(Request::decode(TAG_REQ_TENSORS, &keys(MAX_TENSOR_KEYS as u32)).is_ok());
        assert!(Request::decode(TAG_REQ_TENSORS, &keys(MAX_TENSOR_KEYS as u32 + 1)).is_err());
        // The answer is a `Batch` frame: counts that disagree with the
        // payload are rejected, not padded.
        let r = [u32s(&[1, 2, 2, 2]), vec![0; 8]].concat(); // needs (4+2)*4 = 24 bytes, has 8
        assert!(Response::decode(TAG_RESP_BATCH, &r).is_err());
        // `batch = 0` is well-formed only with no payload: the other counts
        // cannot overflow, or smuggle bytes in, behind it.
        let mut z = u32s(&[0, u32::MAX, u32::MAX, u32::MAX]);
        match Response::decode(TAG_RESP_BATCH, &z) {
            Ok(Response::Batch(b)) => assert!(b.inputs.is_empty() && b.targets.is_empty()),
            other => panic!("expected an empty batch, got {other:?}"),
        }
        z.put_slice(&[0u8; 4]);
        assert!(Response::decode(TAG_RESP_BATCH, &z).is_err());
    }

    #[test]
    fn busy_round_trips_as_retryable_would_block() {
        assert_eq!(WireErrorKind::Busy.to_io(), io::ErrorKind::WouldBlock);
        assert_eq!(
            WireErrorKind::from_io(io::ErrorKind::WouldBlock),
            WireErrorKind::Busy
        );
        let busy = Response::Error {
            kind: WireErrorKind::Busy,
            message: "shed".into(),
        };
        match over_the_wire(&busy) {
            Response::Error { kind, .. } => assert_eq!(kind, WireErrorKind::Busy),
            other => panic!("expected error frame, got {other:?}"),
        }
    }
}
