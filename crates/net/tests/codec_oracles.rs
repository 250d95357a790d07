//! Oracles for the fast paths of the frame codec.
//!
//! * The table-sliced `crc32` must equal the byte-at-a-time
//!   `crc32_bytewise` on every length and every start alignment.
//! * The `FrameDecoder`, driven through a reader that returns short
//!   reads, `WouldBlock` and `Interrupted` in random order, with `feed`
//!   calls mixed in, must hand out exactly the frames `Frame::from_bytes`
//!   decodes from each frame's bytes, and its `buffered` and `mid_frame`
//!   must agree with the bytes delivered and drained at every step.

use std::io::{self, Read};

use imt_net::wire::{crc32, crc32_bytewise, Frame, FrameDecoder, FrameKind};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #[test]
    fn sliced_crc_equals_the_bytewise_oracle(
        bytes in vec(any::<u8>(), 0..=4112),
        start in 0usize..16,
        len in 0usize..=4096,
    ) {
        let start = start.min(bytes.len());
        let end = (start + len).min(bytes.len());
        let slice = &bytes[start..end];
        prop_assert_eq!(crc32(slice), crc32_bytewise(slice), "start {} len {}", start, slice.len());
    }
}

/// What the scripted reader does on its next `read` call.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Return up to this many bytes (the stream's end reads as EOF).
    Bytes(usize),
    WouldBlock,
    Interrupted,
}

/// A reader over one byte stream that follows a script, cycling it.
struct ScriptedReader {
    stream: Vec<u8>,
    pos: usize,
    script: Vec<Step>,
    next: usize,
}

impl Read for ScriptedReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let step = self.script[self.next % self.script.len()];
        self.next += 1;
        match step {
            Step::WouldBlock => Err(io::ErrorKind::WouldBlock.into()),
            Step::Interrupted => Err(io::ErrorKind::Interrupted.into()),
            Step::Bytes(n) => {
                let n = n.min(buf.len()).min(self.stream.len() - self.pos);
                buf[..n].copy_from_slice(&self.stream[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
    }
}

/// How the test delivers the next bytes to the decoder.
#[derive(Debug, Clone, Copy)]
enum Delivery {
    /// `fill_from` the scripted reader.
    Fill,
    /// `feed` this many bytes taken from the same stream.
    Feed(usize),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1usize..40).prop_map(Step::Bytes),
        (40usize..5000).prop_map(Step::Bytes),
        Just(Step::WouldBlock),
        Just(Step::Interrupted),
    ]
}

fn delivery() -> impl Strategy<Value = Delivery> {
    prop_oneof![
        Just(Delivery::Fill),
        Just(Delivery::Fill),
        (0usize..200).prop_map(Delivery::Feed),
    ]
}

proptest! {
    #[test]
    fn decoder_yields_from_bytes_frames_under_any_read_pattern(
        frames in vec((any::<bool>(), any::<u64>(), vec(any::<u8>(), 0..3000)), 1..8),
        script in vec(step(), 1..24),
        deliveries in vec(delivery(), 1..24),
    ) {
        let mut stream = Vec::new();
        let mut expected = Vec::new();
        for (response, id, payload) in frames {
            let kind = if response { FrameKind::Response } else { FrameKind::Request };
            let bytes = Frame::new(kind, id, payload).expect("under cap").to_bytes();
            expected.push((bytes.len(), Frame::from_bytes(&bytes).expect("well-formed")));
            stream.extend_from_slice(&bytes);
        }
        let total = stream.len();
        // One sizeable read per script cycle and one fill per delivery
        // cycle keep every run moving toward the end of the stream.
        let mut script = script;
        script.push(Step::Bytes(512));
        let mut deliveries = deliveries;
        deliveries.push(Delivery::Fill);
        let mut reader = ScriptedReader { stream, pos: 0, script, next: 0 };
        let mut decoder = FrameDecoder::new();
        let mut got = 0usize;
        let mut drained = 0usize;
        let mut rounds = 0usize;
        while got < expected.len() {
            rounds += 1;
            prop_assert!(rounds < 1_000_000, "no progress: {} of {} bytes read", reader.pos, total);
            match deliveries[rounds % deliveries.len()] {
                Delivery::Fill => match decoder.fill_from(&mut reader) {
                    Ok(0) => prop_assert_eq!(reader.pos, total, "EOF before the stream's end"),
                    Ok(_) => {}
                    Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
                },
                Delivery::Feed(n) => {
                    let n = n.min(total - reader.pos);
                    decoder.feed(&reader.stream[reader.pos..reader.pos + n]);
                    reader.pos += n;
                }
            }
            prop_assert_eq!(decoder.buffered(), reader.pos - drained);
            prop_assert_eq!(decoder.mid_frame(), reader.pos > drained);
            while let Some(view) = decoder.next_frame().expect("well-formed stream") {
                let (len, frame) = &expected[got];
                prop_assert_eq!(&view.to_frame(), frame, "frame {}", got);
                got += 1;
                drained += len;
            }
            prop_assert_eq!(decoder.buffered(), reader.pos - drained);
            prop_assert_eq!(decoder.mid_frame(), reader.pos > drained);
        }
        prop_assert_eq!(drained, total);
        prop_assert!(!decoder.mid_frame());
    }
}
