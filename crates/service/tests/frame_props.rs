//! Property tests for the wire-framing state machine
//! ([`dsp_service::codec::FrameBuffer`]) — what the reactor puts directly
//! in the byte path, fed from edge-triggered drains of whatever size the
//! kernel hands over; the properties here hold for *any* chunking.

use dsp_service::codec::{FrameBuffer, FrameError, DEFAULT_MAX_FRAME};
use proptest::prelude::*;

/// Feed `bytes` split at the given cut points and collect every frame.
fn frames_from_chunks(chunks: &[&[u8]], max_frame: usize) -> Result<Vec<String>, FrameError> {
    let mut fb = FrameBuffer::new(max_frame);
    let mut out = Vec::new();
    for chunk in chunks {
        fb.push(chunk);
        while let Some(frame) = fb.next_frame()? {
            out.push(frame);
        }
    }
    Ok(out)
}

/// A newline-free ASCII line, as bytes (the protocol's frame payload
/// alphabet is a superset; newline-free is the invariant that matters).
fn line_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(b' '..0x7f, 0..65)
}

fn ascii(line: Vec<u8>) -> String {
    String::from_utf8(line).expect("printable ASCII")
}

fn ascii_lines(lines: Vec<Vec<u8>>) -> Vec<String> {
    lines.into_iter().map(ascii).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Splitting the byte stream at ANY single boundary yields exactly
    /// the same frames as feeding it whole — the reassembly invariant,
    /// exercised at every byte offset of the message.
    #[test]
    fn frames_survive_a_split_at_every_byte_boundary(lines in proptest::collection::vec(line_strategy(), 1..5)) {
        let lines = ascii_lines(lines);
        let mut stream = Vec::new();
        for line in &lines {
            stream.extend_from_slice(line.as_bytes());
            stream.push(b'\n');
        }
        let whole = frames_from_chunks(&[stream.as_slice()], 0).expect("clean stream");
        prop_assert_eq!(&whole, &lines);
        for cut in 0..=stream.len() {
            let (head, tail) = stream.split_at(cut);
            let split = frames_from_chunks(&[head, tail], 0).expect("clean stream");
            prop_assert_eq!(&split, &lines, "split at byte {}", cut);
        }
    }

    /// Pipelined frames arriving in one burst pop in order, and an
    /// unterminated tail stays buffered (no phantom frame).
    #[test]
    fn pipelined_frames_pop_in_order_and_partials_stay_buffered(
        lines in proptest::collection::vec(line_strategy(), 1..6),
        partial in line_strategy(),
    ) {
        let (lines, partial) = (ascii_lines(lines), ascii(partial));
        let mut stream = Vec::new();
        for line in &lines {
            stream.extend_from_slice(line.as_bytes());
            stream.push(b'\n');
        }
        stream.extend_from_slice(partial.as_bytes());
        let mut fb = FrameBuffer::new(0);
        fb.push(&stream);
        let mut popped = Vec::new();
        while let Some(frame) = fb.next_frame().expect("clean stream") {
            popped.push(frame);
        }
        prop_assert_eq!(&popped, &lines);
        prop_assert_eq!(fb.pending(), partial.len());
        // The tail completes once its newline lands.
        fb.push(b"\n");
        prop_assert_eq!(fb.next_frame().expect("clean stream"), Some(partial));
    }

    /// Arbitrary re-chunking never changes the frame sequence: feeding
    /// the same stream in random-sized pieces equals feeding it whole.
    #[test]
    fn arbitrary_chunking_is_invisible(
        lines in proptest::collection::vec(line_strategy(), 1..6),
        cuts in proptest::collection::vec(0usize..512, 0..8),
    ) {
        let lines = ascii_lines(lines);
        let mut stream = Vec::new();
        for line in &lines {
            stream.extend_from_slice(line.as_bytes());
            stream.push(b'\n');
        }
        let mut offsets: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
        offsets.sort_unstable();
        let mut chunks: Vec<&[u8]> = Vec::new();
        let mut prev = 0usize;
        for &off in &offsets {
            chunks.push(&stream[prev..off]);
            prev = off;
        }
        chunks.push(&stream[prev..]);
        let rechunked = frames_from_chunks(&chunks, 0).expect("clean stream");
        prop_assert_eq!(&rechunked, &lines);
    }

    /// The oversized-frame limit fires for any frame over the limit —
    /// whether the newline has arrived (complete frame too large) or
    /// not (unterminated growth) — and never fires below it.
    #[test]
    fn oversized_frames_are_rejected_exactly_at_the_limit(
        limit in 8usize..128,
        excess in 1usize..64,
        terminated in proptest::bool::ANY,
    ) {
        // A frame exactly at the limit passes.
        let mut ok = vec![b'x'; limit];
        ok.push(b'\n');
        let fits = frames_from_chunks(&[ok.as_slice()], limit).expect("at-limit frame is legal");
        prop_assert_eq!(fits.len(), 1);

        // A frame over the limit is a protocol error, terminated or not.
        let mut big = vec![b'y'; limit + excess];
        if terminated {
            big.push(b'\n');
        }
        let err = frames_from_chunks(&[big.as_slice()], limit).expect_err("over-limit frame must fail");
        match err {
            FrameError::Oversized { size, limit: reported } => {
                prop_assert_eq!(reported, limit);
                prop_assert!(size > limit, "size {} must exceed limit {}", size, limit);
            }
            FrameError::Utf8 => prop_assert!(false, "wrong error kind"),
        }
    }

    /// The default limit is in force when the knob is 0: a frame just
    /// under it passes, and byte totals below the limit never error.
    #[test]
    fn zero_limit_means_the_default_limit(len in 0usize..4096) {
        let mut stream = vec![b'z'; len];
        stream.push(b'\n');
        prop_assert!(len < DEFAULT_MAX_FRAME);
        let frames = frames_from_chunks(&[stream.as_slice()], 0).expect("under default limit");
        prop_assert_eq!(frames.len(), 1);
    }
}
