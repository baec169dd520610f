//! Property tests for the wire protocol: roundtrips, and robustness of the
//! decoders against arbitrary bytes (they must reject, never panic).

use aqua_runtime::wire::{Frame, FrameAssembler, MAX_FRAME};
use bytes::Bytes;
use proptest::prelude::*;

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (
            any::<u64>(),
            any::<u32>(),
            prop::collection::vec(any::<u8>(), 0..512)
        )
            .prop_map(|(seq, method, payload)| Frame::Request {
                seq,
                method,
                payload: Bytes::from(payload),
            }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            prop::collection::vec(any::<u8>(), 0..512),
        )
            .prop_map(
                |(seq, replica, service_ns, queue_ns, queue_len, method, payload)| Frame::Reply {
                    seq,
                    replica,
                    service_ns,
                    queue_ns,
                    queue_len,
                    method,
                    payload: Bytes::from(payload),
                }
            ),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(replica, service_ns, queue_ns, queue_len, method)| {
                Frame::PerfUpdate {
                    replica,
                    service_ns,
                    queue_ns,
                    queue_len,
                    method,
                }
            }),
        any::<u64>().prop_map(|client| Frame::Hello { client }),
    ]
}

/// Frame bodies (no length prefix): arbitrary bytes, and valid bodies cut
/// short or with one byte overwritten, which reach every tag's checks.
fn arb_body() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..256),
        (arb_frame(), any::<usize>()).prop_map(|(frame, cut)| {
            let body = &frame.encode()[4..];
            body[..cut % (body.len() + 1)].to_vec()
        }),
        (arb_frame(), any::<usize>(), any::<u8>()).prop_map(|(frame, at, byte)| {
            let mut body = frame.encode()[4..].to_vec();
            let at = at % body.len();
            body[at] = byte;
            body
        }),
    ]
}

/// A stream segment for the assembler, and whether it is one whole frame.
fn arb_segment() -> impl Strategy<Value = (bool, Vec<u8>)> {
    prop_oneof![
        arb_frame().prop_map(|frame| (true, frame.encode().to_vec())),
        prop::collection::vec(any::<u8>(), 0..64).prop_map(|bytes| (false, bytes)),
    ]
}

proptest! {
    #[test]
    fn every_frame_roundtrips(frame in arb_frame()) {
        let encoded = frame.encode();
        let mut cursor = std::io::Cursor::new(encoded.to_vec());
        let decoded = Frame::read_from(&mut cursor).expect("own encoding decodes");
        prop_assert_eq!(decoded, frame);
        prop_assert_eq!(
            cursor.position() as usize,
            cursor.get_ref().len(),
            "no trailing bytes"
        );
    }

    #[test]
    fn frames_stream_without_framing_errors(frames in prop::collection::vec(arb_frame(), 1..20)) {
        let mut buf = Vec::new();
        for f in &frames {
            f.write_to(&mut buf).expect("vec write");
        }
        let mut cursor = std::io::Cursor::new(buf);
        for f in &frames {
            prop_assert_eq!(&Frame::read_from(&mut cursor).expect("streamed"), f);
        }
    }

    #[test]
    fn arbitrary_bodies_never_panic(body in arb_body()) {
        // Both decoders must produce a frame or a clean error, and the
        // same one: `decode_body` is what the reactor and the server run
        // on hostile input, `decode` the reference it is checked against.
        match (Frame::decode(Bytes::copy_from_slice(&body)), Frame::decode_body(&body)) {
            (Ok(reference), Ok(frame)) => prop_assert_eq!(frame, reference),
            (Err(reference), Err(error)) => prop_assert_eq!(error.kind(), reference.kind()),
            (reference, borrowed) => prop_assert!(
                false,
                "decode gave {reference:?} but decode_body {borrowed:?} on {body:?}"
            ),
        }
    }

    #[test]
    fn the_assembler_survives_arbitrary_streams(
        segments in prop::collection::vec(arb_segment(), 0..8),
        oversized in MAX_FRAME + 1..=u32::MAX,
        at in any::<usize>(),
        cuts in prop::collection::vec(1usize..64, 0..64),
    ) {
        // Hostile bytes in arbitrary chunks, with a length prefix above the
        // cap somewhere: the assembler yields frames until it needs more
        // bytes or fails with `InvalidData`, and never panics. When only
        // whole frames precede the oversized prefix, it must fail there.
        let mut segments = segments;
        let at = at % (segments.len() + 1);
        let framed_up_to_it = segments[..at].iter().all(|(whole, _)| *whole);
        segments.insert(at, (false, oversized.to_be_bytes().to_vec()));
        let stream: Vec<u8> = segments.into_iter().flat_map(|(_, bytes)| bytes).collect();
        let mut assembler = FrameAssembler::new();
        let mut failed = false;
        let mut offset = 0usize;
        let mut cuts = cuts.into_iter();
        while offset < stream.len() && !failed {
            let chunk = cuts.next().unwrap_or(usize::MAX).min(stream.len() - offset);
            assembler.extend(&stream[offset..offset + chunk]);
            offset += chunk;
            loop {
                match assembler.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(error) => {
                        prop_assert_eq!(error.kind(), std::io::ErrorKind::InvalidData);
                        failed = true;
                        break;
                    }
                }
            }
        }
        prop_assert!(failed || !framed_up_to_it, "the oversized prefix was accepted");
    }

    #[test]
    fn truncated_encodings_error_cleanly(frame in arb_frame(), cut in 0usize..100) {
        let encoded = frame.encode();
        if cut >= encoded.len() {
            return Ok(());
        }
        // Truncate the stream mid-frame: reading must error, not panic or
        // hang (cursor EOF).
        let mut cursor = std::io::Cursor::new(encoded[..cut].to_vec());
        prop_assert!(Frame::read_from(&mut cursor).is_err());
    }

    #[test]
    fn assembler_decodes_across_arbitrary_chunk_boundaries(
        frames in prop::collection::vec(arb_frame(), 1..12),
        cuts in prop::collection::vec(1usize..64, 0..64),
    ) {
        // Concatenate the stream, then feed it to the incremental decoder
        // in arbitrary-sized chunks — splits land mid-header, mid-length-
        // prefix, and mid-payload. The assembler must reproduce exactly
        // the original frame sequence regardless of chunking.
        let mut stream = Vec::new();
        for f in &frames {
            f.write_to(&mut stream).expect("vec write");
        }
        let mut assembler = FrameAssembler::new();
        let mut decoded = Vec::new();
        let mut offset = 0usize;
        let mut cuts = cuts.into_iter();
        while offset < stream.len() {
            let chunk = cuts.next().unwrap_or(usize::MAX).min(stream.len() - offset);
            assembler.extend(&stream[offset..offset + chunk]);
            offset += chunk;
            while let Some(frame) = assembler.next_frame().expect("clean stream") {
                decoded.push(frame);
            }
        }
        prop_assert_eq!(decoded, frames);
        prop_assert_eq!(assembler.pending(), 0, "no leftover bytes");
    }

    #[test]
    fn corrupted_tag_is_rejected(frame in arb_frame(), tag in 5u8..255) {
        let encoded = frame.encode().to_vec();
        let mut corrupted = encoded.clone();
        corrupted[4] = tag; // the tag byte follows the 4-byte length prefix
        let mut cursor = std::io::Cursor::new(corrupted);
        prop_assert!(Frame::read_from(&mut cursor).is_err());
    }
}
