//! Golden frames: one request frame and one completed-response frame,
//! pinned byte for byte. The response carries both per-lane vectors and
//! stdout, so its payload is long enough to exercise every path of the
//! table-sliced CRC. Any change to the header layout, the payload
//! encoding or the checksum fails here before it reaches a peer; a
//! change meant to alter the wire must bump `WIRE_VERSION` and re-pin.

use imt_core::eval::Evaluation;
use imt_net::msg::{NetCompleted, NetFaultSummary, NetRequest, NetResponse};
use imt_net::wire::{Frame, FrameDecoder, FrameKind};

/// The 95-byte request frame for [`request`], id 42.
const GOLDEN_REQUEST: &str = concat!(
    "494d545749524531010001002a000000000000004300000079f32a7c06000000",
    "676f6c64656e030000006666740005000000000000000000000000fa00000008",
    "00000031303a6275733a330600000070617269747900000000000100000000",
);

/// The 744-byte response frame for [`response`], id 42.
const GOLDEN_RESPONSE: &str = concat!(
    "494d545749524531010002002a00000000000000cc020000575c376c07000000",
    "00000000030000006666740500000000000000dc05000000000000be0a000000",
    "00000001000000000000000000000000000000000140e2010000000000b0c400",
    "0000000000b08f00000000000020000000e8030000000000000d040000000000",
    "00320400000000000057040000000000007c04000000000000a1040000000000",
    "00c604000000000000eb04000000000000100500000000000035050000000000",
    "005a050000000000007f05000000000000a405000000000000c9050000000000",
    "00ee05000000000000130600000000000038060000000000005d060000000000",
    "008206000000000000a706000000000000cc06000000000000f1060000000000",
    "0016070000000000003b07000000000000600700000000000085070000000000",
    "00aa07000000000000cf07000000000000f40700000000000019080000000000",
    "003e08000000000000630800000000000020000000bc02000000000000d90200",
    "0000000000f602000000000000130300000000000030030000000000004d0300",
    "00000000006a030000000000008703000000000000a403000000000000c10300",
    "0000000000de03000000000000fb030000000000001804000000000000350400",
    "000000000052040000000000006f040000000000008c04000000000000a90400",
    "0000000000c604000000000000e30400000000000000050000000000001d0500",
    "00000000003a0500000000000057050000000000007405000000000000910500",
    "0000000000ae05000000000000cb05000000000000e805000000000000050600",
    "000000000022060000000000003f060000000000000000000000000000a08601",
    "0000000000a05b0000000000000000000021000000666674206f6b3a20382070",
    "6f696e74730a636865636b73756d203078356565640a01110000000000000001",
    "0300000000000000030000000000000002000000000000000b00000000000000",
    "0000000000a04440",
);

fn request() -> NetRequest {
    let mut request = NetRequest::new("fft", false)
        .with_tenant("golden")
        .with_block_size(5);
    request.fault_plan = "10:bus:3".into();
    request.protection = "parity".into();
    request.deadline_ms = 250;
    request
}

fn response() -> NetResponse {
    let per_lane_baseline: Vec<u64> = (0..32u64).map(|lane| 1_000 + 37 * lane).collect();
    let per_lane_encoded: Vec<u64> = (0..32u64).map(|lane| 700 + 29 * lane).collect();
    NetResponse {
        id: 7,
        kernel: "fft".into(),
        block_size: 5,
        outcome: Ok(NetCompleted {
            evaluation: Evaluation {
                fetches: 123_456,
                baseline_transitions: per_lane_baseline.iter().sum(),
                encoded_transitions: per_lane_encoded.iter().sum(),
                per_lane_baseline,
                per_lane_encoded,
                decode_mismatches: 0,
                decoded_fetches: 100_000,
                passthrough_fetches: 23_456,
                exit_code: 0,
                stdout: "fft ok: 8 points\nchecksum 0x5eed\n".into(),
            },
            replay_path: true,
            encoded_blocks: 17,
            fault: Some(NetFaultSummary {
                injected: 3,
                detected: 3,
                corrected: 2,
                degraded_fetches: 11,
                retained_reduction_percent: 41.25,
            }),
        }),
        queue_ns: 1_500,
        service_ns: 2_750,
        batch_size: 1,
        worker: 0,
        missed_deadline: false,
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex digits"))
        .collect()
}

#[test]
fn request_frame_is_byte_identical_to_the_golden_one() {
    let frame = Frame::new(FrameKind::Request, 42, request().encode()).expect("under cap");
    assert_eq!(hex(&frame.to_bytes()), GOLDEN_REQUEST);
    let golden = unhex(GOLDEN_REQUEST);
    let decoded = Frame::from_bytes(&golden).expect("golden frame decodes");
    assert_eq!(decoded, frame);
    assert_eq!(NetRequest::decode(&decoded.payload), Ok(request()));
}

#[test]
fn completed_response_frame_is_byte_identical_to_the_golden_one() {
    let frame = Frame::new(FrameKind::Response, 42, response().encode()).expect("under cap");
    assert_eq!(hex(&frame.to_bytes()), GOLDEN_RESPONSE);
    let golden = unhex(GOLDEN_RESPONSE);
    let decoded = Frame::from_bytes(&golden).expect("golden frame decodes");
    assert_eq!(decoded, frame);
    assert_eq!(NetResponse::decode(&decoded.payload), Ok(response()));
}

#[test]
fn the_stream_decoder_reads_both_golden_frames_back() {
    let mut stream = unhex(GOLDEN_REQUEST);
    stream.extend_from_slice(&unhex(GOLDEN_RESPONSE));
    let mut decoder = FrameDecoder::new();
    let mut got = Vec::new();
    for piece in stream.chunks(61) {
        decoder.feed(piece);
        while let Some(view) = decoder.next_frame().expect("golden stream") {
            got.push(view.to_frame());
        }
    }
    assert!(!decoder.mid_frame());
    let kinds: Vec<FrameKind> = got.iter().map(|f| f.kind).collect();
    assert_eq!(kinds, [FrameKind::Request, FrameKind::Response]);
    assert_eq!(NetRequest::decode(&got[0].payload), Ok(request()));
    assert_eq!(NetResponse::decode(&got[1].payload), Ok(response()));
}
