//! Length-prefixed binary wire protocol for the socket runtime.
//!
//! Every frame is `u32 length (big-endian) | u8 tag | body`. The body
//! layout is fixed per tag — no self-describing serialization, mirroring
//! the compact messages the AQuA gateways exchange.

use std::io::{self, Read, Write};

use aqua_core::aqua;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Maximum accepted frame body size (1 MiB) — defends against corrupt
/// length prefixes.
pub const MAX_FRAME: u32 = 1 << 20;

/// A protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → replica: service this request.
    Request {
        /// Client-local sequence number.
        seq: u64,
        /// Invoked method.
        method: u32,
        /// Opaque argument bytes.
        payload: Bytes,
    },
    /// Replica → client: the reply with piggybacked performance data.
    Reply {
        /// Sequence number this answers.
        seq: u64,
        /// The servicing replica.
        replica: u64,
        /// Service duration `ts` in nanoseconds.
        service_ns: u64,
        /// Queuing delay `tq` in nanoseconds.
        queue_ns: u64,
        /// Outstanding requests left in the queue.
        queue_len: u32,
        /// Invoked method (echoed for per-method classification).
        method: u32,
        /// Opaque result bytes.
        payload: Bytes,
    },
    /// Replica → subscriber: pushed performance update.
    PerfUpdate {
        /// The publishing replica.
        replica: u64,
        /// Service duration `ts` in nanoseconds.
        service_ns: u64,
        /// Queuing delay `tq` in nanoseconds.
        queue_ns: u64,
        /// Outstanding requests left in the queue.
        queue_len: u32,
        /// Method the measurements belong to.
        method: u32,
    },
    /// Client → replica: identify and subscribe to performance updates.
    Hello {
        /// An arbitrary client identifier (diagnostics only).
        client: u64,
    },
}

const TAG_REQUEST: u8 = 1;
const TAG_REPLY: u8 = 2;
const TAG_PERF: u8 = 3;
const TAG_HELLO: u8 = 4;

impl Frame {
    /// Encodes the frame (length prefix included).
    pub fn encode(&self) -> Bytes {
        let mut body = BytesMut::with_capacity(64);
        match self {
            Frame::Request {
                seq,
                method,
                payload,
            } => {
                body.put_u8(TAG_REQUEST);
                body.put_u64(*seq);
                body.put_u32(*method);
                body.put_u32(payload.len() as u32);
                body.put_slice(payload);
            }
            Frame::Reply {
                seq,
                replica,
                service_ns,
                queue_ns,
                queue_len,
                method,
                payload,
            } => {
                body.put_u8(TAG_REPLY);
                body.put_u64(*seq);
                body.put_u64(*replica);
                body.put_u64(*service_ns);
                body.put_u64(*queue_ns);
                body.put_u32(*queue_len);
                body.put_u32(*method);
                body.put_u32(payload.len() as u32);
                body.put_slice(payload);
            }
            Frame::PerfUpdate {
                replica,
                service_ns,
                queue_ns,
                queue_len,
                method,
            } => {
                body.put_u8(TAG_PERF);
                body.put_u64(*replica);
                body.put_u64(*service_ns);
                body.put_u64(*queue_ns);
                body.put_u32(*queue_len);
                body.put_u32(*method);
            }
            Frame::Hello { client } => {
                body.put_u8(TAG_HELLO);
                body.put_u64(*client);
            }
        }
        let mut out = BytesMut::with_capacity(4 + body.len());
        out.put_u32(body.len() as u32);
        out.extend_from_slice(&body);
        out.freeze()
    }

    /// Appends the frame's wire encoding (length prefix included) to a
    /// caller-owned buffer, byte-identical to [`Frame::encode`] but with
    /// no per-frame allocation. The send hot path batches frames into one
    /// reusable buffer per writer and flushes them with a single write.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        let body_len = (self.encoded_len() - 4) as u32;
        out.extend_from_slice(&body_len.to_be_bytes());
        match self {
            Frame::Request {
                seq,
                method,
                payload,
            } => {
                out.push(TAG_REQUEST);
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(&method.to_be_bytes());
                out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
                out.extend_from_slice(payload);
            }
            Frame::Reply {
                seq,
                replica,
                service_ns,
                queue_ns,
                queue_len,
                method,
                payload,
            } => {
                out.push(TAG_REPLY);
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(&replica.to_be_bytes());
                out.extend_from_slice(&service_ns.to_be_bytes());
                out.extend_from_slice(&queue_ns.to_be_bytes());
                out.extend_from_slice(&queue_len.to_be_bytes());
                out.extend_from_slice(&method.to_be_bytes());
                out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
                out.extend_from_slice(payload);
            }
            Frame::PerfUpdate {
                replica,
                service_ns,
                queue_ns,
                queue_len,
                method,
            } => {
                out.push(TAG_PERF);
                out.extend_from_slice(&replica.to_be_bytes());
                out.extend_from_slice(&service_ns.to_be_bytes());
                out.extend_from_slice(&queue_ns.to_be_bytes());
                out.extend_from_slice(&queue_len.to_be_bytes());
                out.extend_from_slice(&method.to_be_bytes());
            }
            Frame::Hello { client } => {
                out.push(TAG_HELLO);
                out.extend_from_slice(&client.to_be_bytes());
            }
        }
    }

    /// Bytes this frame occupies on the wire (length prefix included),
    /// without encoding it. Used by the wire-level byte counters.
    pub fn encoded_len(&self) -> usize {
        let body = match self {
            Frame::Request { payload, .. } => 1 + 8 + 4 + 4 + payload.len(),
            Frame::Reply { payload, .. } => 1 + 8 * 4 + 4 + 4 + 4 + payload.len(),
            Frame::PerfUpdate { .. } => 1 + 8 * 3 + 4 + 4,
            Frame::Hello { .. } => 1 + 8,
        };
        4 + body
    }

    /// Decodes a frame body (without the length prefix).
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] on unknown tags or truncated
    /// bodies.
    pub fn decode(mut body: Bytes) -> io::Result<Frame> {
        fn need(body: &Bytes, n: usize) -> io::Result<()> {
            if body.remaining() < n {
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "truncated frame body",
                ))
            } else {
                Ok(())
            }
        }
        need(&body, 1)?;
        let tag = body.get_u8();
        match tag {
            TAG_REQUEST => {
                need(&body, 8 + 4 + 4)?;
                let seq = body.get_u64();
                let method = body.get_u32();
                let len = body.get_u32() as usize;
                need(&body, len)?;
                let payload = body.split_to(len);
                Ok(Frame::Request {
                    seq,
                    method,
                    payload,
                })
            }
            TAG_REPLY => {
                need(&body, 8 * 4 + 4 + 4 + 4)?;
                let seq = body.get_u64();
                let replica = body.get_u64();
                let service_ns = body.get_u64();
                let queue_ns = body.get_u64();
                let queue_len = body.get_u32();
                let method = body.get_u32();
                let len = body.get_u32() as usize;
                need(&body, len)?;
                let payload = body.split_to(len);
                Ok(Frame::Reply {
                    seq,
                    replica,
                    service_ns,
                    queue_ns,
                    queue_len,
                    method,
                    payload,
                })
            }
            TAG_PERF => {
                need(&body, 8 * 3 + 4 + 4)?;
                Ok(Frame::PerfUpdate {
                    replica: body.get_u64(),
                    service_ns: body.get_u64(),
                    queue_ns: body.get_u64(),
                    queue_len: body.get_u32(),
                    method: body.get_u32(),
                })
            }
            TAG_HELLO => {
                need(&body, 8)?;
                Ok(Frame::Hello {
                    client: body.get_u64(),
                })
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown frame tag {other}"),
            )),
        }
    }

    /// Decodes a frame body (without the length prefix) from a borrowed
    /// slice. Only the payload bytes are copied (straight into their
    /// `Bytes`); headers are parsed in place. This is the reactor's
    /// zero-intermediate-copy decode: the reassembly buffer is read
    /// directly, with no per-frame `Vec` in between.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] on unknown tags or truncated
    /// bodies, exactly like [`Frame::decode`].
    pub fn decode_body(body: &[u8]) -> io::Result<Frame> {
        fn truncated() -> io::Error {
            io::Error::new(io::ErrorKind::InvalidData, "truncated frame body")
        }
        fn take<'a>(body: &'a [u8], pos: &mut usize, n: usize) -> io::Result<&'a [u8]> {
            let end = pos.checked_add(n).ok_or_else(truncated)?;
            let s = body.get(*pos..end).ok_or_else(truncated)?;
            *pos = end;
            Ok(s)
        }
        fn get_u8(body: &[u8], pos: &mut usize) -> io::Result<u8> {
            Ok(take(body, pos, 1)?[0])
        }
        fn get_u32(body: &[u8], pos: &mut usize) -> io::Result<u32> {
            let s = take(body, pos, 4)?;
            Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
        }
        fn get_u64(body: &[u8], pos: &mut usize) -> io::Result<u64> {
            let s = take(body, pos, 8)?;
            Ok(u64::from_be_bytes([
                s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
            ]))
        }
        let pos = &mut 0usize;
        match get_u8(body, pos)? {
            TAG_REQUEST => {
                let seq = get_u64(body, pos)?;
                let method = get_u32(body, pos)?;
                let len = get_u32(body, pos)? as usize;
                let payload = Bytes::copy_from_slice(take(body, pos, len)?);
                Ok(Frame::Request {
                    seq,
                    method,
                    payload,
                })
            }
            TAG_REPLY => {
                let seq = get_u64(body, pos)?;
                let replica = get_u64(body, pos)?;
                let service_ns = get_u64(body, pos)?;
                let queue_ns = get_u64(body, pos)?;
                let queue_len = get_u32(body, pos)?;
                let method = get_u32(body, pos)?;
                let len = get_u32(body, pos)? as usize;
                let payload = Bytes::copy_from_slice(take(body, pos, len)?);
                Ok(Frame::Reply {
                    seq,
                    replica,
                    service_ns,
                    queue_ns,
                    queue_len,
                    method,
                    payload,
                })
            }
            TAG_PERF => Ok(Frame::PerfUpdate {
                replica: get_u64(body, pos)?,
                service_ns: get_u64(body, pos)?,
                queue_ns: get_u64(body, pos)?,
                queue_len: get_u32(body, pos)?,
                method: get_u32(body, pos)?,
            }),
            TAG_HELLO => Ok(Frame::Hello {
                client: get_u64(body, pos)?,
            }),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unknown frame tag",
            )),
        }
    }

    /// Writes one frame to a stream.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.encode())
    }

    /// Reads one frame from a stream (blocking).
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::UnexpectedEof`] on a cleanly closed peer,
    /// [`io::ErrorKind::InvalidData`] on oversized or malformed frames, and
    /// propagates other I/O errors.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Frame> {
        let mut len_buf = [0u8; 4];
        r.read_exact(&mut len_buf)?;
        let len = u32::from_be_bytes(len_buf);
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds the {MAX_FRAME} cap"),
            ));
        }
        let mut body = vec![0u8; len as usize];
        r.read_exact(&mut body)?;
        Frame::decode(Bytes::from(body))
    }
}

/// How many bytes one read attempts to pull in, at least. A read that
/// returns fewer has emptied the socket.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Incremental frame reassembly for nonblocking streams.
///
/// The reactor hands each connection's raw reads to one assembler; frames
/// may arrive split at arbitrary byte boundaries (including mid-header)
/// across any number of `read` calls. Complete frames are decoded straight
/// out of the reassembly buffer via [`Frame::decode_body`] — only payload
/// bytes are copied, there is no per-frame intermediate buffer.
#[derive(Debug)]
pub struct FrameAssembler {
    /// Growable reassembly storage; `start..end` holds pending bytes.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Default for FrameAssembler {
    fn default() -> Self {
        FrameAssembler::new()
    }
}

impl FrameAssembler {
    /// An empty assembler with one read-chunk of capacity.
    pub fn new() -> FrameAssembler {
        FrameAssembler {
            buf: vec![0u8; READ_CHUNK],
            start: 0,
            end: 0,
        }
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// Appends raw bytes directly (test harnesses and in-memory feeds).
    pub fn extend(&mut self, data: &[u8]) {
        self.make_room(data.len());
        self.buf[self.end..self.end + data.len()].copy_from_slice(data);
        self.end += data.len();
    }

    /// Performs one `read` into the reassembly buffer. Returns the byte
    /// count (`0` means EOF). `WouldBlock` surfaces as an error for the
    /// caller's readiness loop to catch.
    ///
    /// # Errors
    ///
    /// Propagates the reader's I/O errors, including `WouldBlock`.
    pub fn read_from<R: Read>(&mut self, r: &mut R) -> io::Result<usize> {
        self.make_room(READ_CHUNK);
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Compacts pending bytes to the front and/or grows the buffer until
    /// at least `want` spare bytes follow `end`.
    fn make_room(&mut self, want: usize) {
        if self.buf.len() - self.end >= want {
            return;
        }
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.buf.len() - self.end < want {
            self.buf.resize(self.end + want, 0);
        }
    }

    /// Pops the next complete frame, or `None` if more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] on an oversized length
    /// prefix or a malformed body; the stream is unrecoverable after an
    /// error (framing is lost) and the connection should be closed.
    #[aqua::hot_path]
    pub fn next_frame(&mut self) -> io::Result<Option<Frame>> {
        let pending = &self.buf[self.start..self.end];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([pending[0], pending[1], pending[2], pending[3]]);
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame length prefix exceeds the cap",
            ));
        }
        let total = 4 + len as usize;
        if pending.len() < total {
            return Ok(None);
        }
        let frame = Frame::decode_body(&pending[4..total])?;
        self.start += total;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let encoded = frame.encode();
        assert_eq!(encoded.len(), frame.encoded_len(), "{frame:?}");
        let mut cursor = std::io::Cursor::new(encoded.to_vec());
        let decoded = Frame::read_from(&mut cursor).expect("decodes");
        assert_eq!(decoded, frame);
    }

    #[test]
    fn request_roundtrip() {
        roundtrip(Frame::Request {
            seq: 42,
            method: 7,
            payload: Bytes::from_static(b"hello world"),
        });
    }

    #[test]
    fn reply_roundtrip() {
        roundtrip(Frame::Reply {
            seq: 1,
            replica: 3,
            service_ns: 1_000_000,
            queue_ns: 42,
            queue_len: 9,
            method: 2,
            payload: Bytes::from_static(b"result"),
        });
    }

    #[test]
    fn perf_and_hello_roundtrip() {
        roundtrip(Frame::PerfUpdate {
            replica: 5,
            service_ns: 9,
            queue_ns: 8,
            queue_len: 7,
            method: 0,
        });
        roundtrip(Frame::Hello { client: 77 });
    }

    #[test]
    fn empty_payload_roundtrip() {
        roundtrip(Frame::Request {
            seq: 0,
            method: 0,
            payload: Bytes::new(),
        });
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut body = BytesMut::new();
        body.put_u8(99);
        assert_eq!(
            Frame::decode(body.freeze()).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn truncated_body_rejected() {
        let mut body = BytesMut::new();
        body.put_u8(1); // request tag but nothing else
        assert_eq!(
            Frame::decode(body.freeze()).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut data = Vec::new();
        data.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        let mut cursor = std::io::Cursor::new(data);
        assert_eq!(
            Frame::read_from(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn eof_surfaces_as_unexpected_eof() {
        let mut cursor = std::io::Cursor::new(Vec::<u8>::new());
        assert_eq!(
            Frame::read_from(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn encode_into_is_byte_identical_to_encode() {
        let frames = [
            Frame::Request {
                seq: 42,
                method: 7,
                payload: Bytes::from_static(b"hello world"),
            },
            Frame::Reply {
                seq: 1,
                replica: 3,
                service_ns: 1_000_000,
                queue_ns: 42,
                queue_len: 9,
                method: 2,
                payload: Bytes::from_static(b"result"),
            },
            Frame::PerfUpdate {
                replica: 5,
                service_ns: 9,
                queue_ns: 8,
                queue_len: 7,
                method: 0,
            },
            Frame::Hello { client: 77 },
            Frame::Request {
                seq: 0,
                method: 0,
                payload: Bytes::new(),
            },
        ];
        // Per-frame equality plus the batched form: appending the whole
        // batch into one reusable buffer must equal the concatenation of
        // the allocating encodes — the framing is unchanged.
        let mut batch = Vec::new();
        let mut concat = Vec::new();
        for frame in &frames {
            let mut single = Vec::new();
            frame.encode_into(&mut single);
            assert_eq!(single, frame.encode().to_vec(), "{frame:?}");
            assert_eq!(single.len(), frame.encoded_len(), "{frame:?}");
            frame.encode_into(&mut batch);
            concat.extend_from_slice(&frame.encode());
        }
        assert_eq!(batch, concat);
        // And the batch decodes back to the same frames.
        let mut cursor = std::io::Cursor::new(batch);
        for frame in &frames {
            assert_eq!(&Frame::read_from(&mut cursor).unwrap(), frame);
        }
    }

    #[test]
    fn frames_stream_back_to_back() {
        let frames = vec![
            Frame::Hello { client: 1 },
            Frame::Request {
                seq: 2,
                method: 0,
                payload: Bytes::from_static(b"x"),
            },
        ];
        let mut buf = Vec::new();
        for f in &frames {
            f.write_to(&mut buf).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for f in &frames {
            assert_eq!(&Frame::read_from(&mut cursor).unwrap(), f);
        }
    }

    #[test]
    fn decode_body_matches_decode() {
        let frames = [
            Frame::Request {
                seq: 42,
                method: 7,
                payload: Bytes::from_static(b"hello world"),
            },
            Frame::Reply {
                seq: 1,
                replica: 3,
                service_ns: 1_000_000,
                queue_ns: 42,
                queue_len: 9,
                method: 2,
                payload: Bytes::from_static(b"result"),
            },
            Frame::PerfUpdate {
                replica: 5,
                service_ns: 9,
                queue_ns: 8,
                queue_len: 7,
                method: 0,
            },
            Frame::Hello { client: 77 },
        ];
        for frame in &frames {
            let encoded = frame.encode();
            let body = &encoded.as_slice()[4..];
            assert_eq!(&Frame::decode_body(body).unwrap(), frame);
        }
        // Truncation and unknown tags fail like the owned decoder.
        assert_eq!(
            Frame::decode_body(&[TAG_REQUEST]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        assert_eq!(
            Frame::decode_body(&[99]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        assert_eq!(
            Frame::decode_body(&[]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn assembler_reassembles_byte_by_byte() {
        let frames = vec![
            Frame::Hello { client: 9 },
            Frame::Request {
                seq: 1,
                method: 2,
                payload: Bytes::from_static(b"split me"),
            },
            Frame::PerfUpdate {
                replica: 1,
                service_ns: 2,
                queue_ns: 3,
                queue_len: 4,
                method: 5,
            },
        ];
        let mut stream = Vec::new();
        for f in &frames {
            f.encode_into(&mut stream);
        }
        let mut asm = FrameAssembler::new();
        let mut decoded = Vec::new();
        for byte in stream {
            asm.extend(&[byte]);
            while let Some(f) = asm.next_frame().unwrap() {
                decoded.push(f);
            }
        }
        assert_eq!(decoded, frames);
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn assembler_rejects_oversized_prefix() {
        let mut asm = FrameAssembler::new();
        asm.extend(&(MAX_FRAME + 1).to_be_bytes());
        assert_eq!(
            asm.next_frame().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn assembler_reads_from_a_stream() {
        let frame = Frame::Request {
            seq: 7,
            method: 0,
            payload: Bytes::from_static(b"reader"),
        };
        let mut cursor = std::io::Cursor::new(frame.encode().to_vec());
        let mut asm = FrameAssembler::new();
        assert!(asm.next_frame().unwrap().is_none());
        let n = asm.read_from(&mut cursor).unwrap();
        assert_eq!(n, frame.encoded_len());
        assert_eq!(asm.next_frame().unwrap(), Some(frame));
        assert_eq!(asm.read_from(&mut cursor).unwrap(), 0, "EOF");
    }
}
