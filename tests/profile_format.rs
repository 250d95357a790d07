//! Property tests for the `IMTEPROF` fetch-edge profile serialisation.
//!
//! The profile cache persists [`FetchEdgeProfile`]s to disk and reads
//! them back across runs, so `from_bytes` is fed whatever a previous
//! process — or a corrupted filesystem — left behind. The contract under
//! test: round-trips are exact, and *any* malformed input (truncation,
//! header bit-flips, version skew, garbage) yields a typed
//! [`EdgeProfileFormatError`] — never a panic, never a silently wrong
//! profile.

use imt::sim::edge::{
    EdgeProfileFormatError, FetchEdgeProfile, FetchEdgeRecorder, PROFILE_FORMAT_VERSION,
};
use imt::sim::FetchSink;
use proptest::prelude::*;

const TEXT_BASE: u32 = 0x1000;

/// Builds a profile by driving a recorder with an arbitrary fetch walk.
///
/// `steps` holds jump offsets: from instruction `i` the walk visits
/// `(i + step) % text_len`, so it produces a mix of sequential edges
/// (step 1) and arbitrary non-sequential edges — the same shapes real
/// control flow produces, without needing a runnable program.
fn profile_from_walk(
    text_len: usize,
    start: usize,
    steps: &[usize],
    stdout: &str,
) -> FetchEdgeProfile {
    let mut recorder = FetchEdgeRecorder::new(TEXT_BASE, text_len);
    let mut index = start % text_len;
    recorder.on_fetch(TEXT_BASE + 4 * index as u32, 0);
    for &step in steps {
        index = (index + step) % text_len;
        recorder.on_fetch(TEXT_BASE + 4 * index as u32, 0);
    }
    recorder.finish(0, stdout.to_string())
}

fn stdout_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<bool>(), 0..24).prop_map(|bits| {
        bits.into_iter()
            .map(|b| if b { 'x' } else { '\n' })
            .collect()
    })
}

proptest! {
    /// Any recorded profile round-trips bit-exactly through bytes.
    #[test]
    fn roundtrip_is_exact(
        text_len in 1usize..40,
        start in 0usize..40,
        steps in proptest::collection::vec(0usize..40, 0..120),
        stdout in stdout_strategy(),
    ) {
        let profile = profile_from_walk(text_len, start, &steps, &stdout);
        let bytes = profile.to_bytes();
        let back = FetchEdgeProfile::from_bytes(&bytes);
        prop_assert_eq!(back, Ok(profile));
    }

    /// Every strict prefix of a valid serialisation is rejected with a
    /// typed error — truncation can never panic or half-parse.
    #[test]
    fn every_truncation_is_a_typed_error(
        text_len in 1usize..16,
        steps in proptest::collection::vec(0usize..16, 0..40),
    ) {
        let profile = profile_from_walk(text_len, 0, &steps, "out\n");
        let bytes = profile.to_bytes();
        for cut in 0..bytes.len() {
            let result = FetchEdgeProfile::from_bytes(&bytes[..cut]);
            prop_assert!(
                result.is_err(),
                "prefix of {cut}/{} bytes parsed successfully",
                bytes.len()
            );
        }
    }

    /// A single bit-flip anywhere in the 12-byte magic+version header is
    /// always rejected (the payload region may legitimately still parse,
    /// but the header is fully covered).
    #[test]
    fn header_bit_flips_are_rejected(
        text_len in 1usize..16,
        steps in proptest::collection::vec(0usize..16, 0..40),
        byte in 0usize..12,
        bit in 0u32..8,
    ) {
        let profile = profile_from_walk(text_len, 0, &steps, "");
        let mut bytes = profile.to_bytes();
        bytes[byte] ^= 1 << bit;
        let result = FetchEdgeProfile::from_bytes(&bytes);
        prop_assert!(result.is_err(), "header corruption at byte {byte} bit {bit} accepted");
        let detail = result.unwrap_err().detail;
        prop_assert!(
            detail == "bad magic" || detail == "unsupported format version",
            "unexpected detail {detail:?} for a header flip"
        );
    }

    /// Arbitrary bit-flips anywhere in the stream either fail with a
    /// typed error or decode to *some* structurally valid profile — they
    /// never panic, and neither does reading the profile back. (Payload
    /// flips can be semantically silent; structural integrity is what the
    /// format layer owes its callers.)
    #[test]
    fn arbitrary_bit_flips_never_panic(
        text_len in 1usize..16,
        steps in proptest::collection::vec(0usize..16, 0..40),
        flips in proptest::collection::vec((0usize..4096, 0u32..8), 1..8),
        stdout in stdout_strategy(),
    ) {
        let profile = profile_from_walk(text_len, 0, &steps, &stdout);
        let mut bytes = profile.to_bytes();
        for (pos, bit) in flips {
            let pos = pos % bytes.len();
            bytes[pos] ^= 1 << bit;
        }
        // Either outcome is fine; reaching the end without a panic is the
        // property.
        if let Ok(profile) = FetchEdgeProfile::from_bytes(&bytes) {
            let counts = profile.per_index_counts();
            prop_assert_eq!(counts.len(), profile.text_len());
            let _ = profile.edges().count();
        }
    }

    /// Random byte soup never panics the parser.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = FetchEdgeProfile::from_bytes(&bytes);
    }
}

/// A future format version is refused up front, not misparsed.
#[test]
fn version_mismatch_is_a_typed_error() {
    let profile = profile_from_walk(8, 0, &[1, 1, 3, 1], "hello\n");
    let mut bytes = profile.to_bytes();
    let next = (PROFILE_FORMAT_VERSION + 1).to_le_bytes();
    bytes[8..12].copy_from_slice(&next);
    assert_eq!(
        FetchEdgeProfile::from_bytes(&bytes),
        Err(EdgeProfileFormatError {
            detail: "unsupported format version"
        })
    );
}

/// The empty input is the smallest truncation; it gets the truncation error.
#[test]
fn empty_input_is_rejected() {
    let err = FetchEdgeProfile::from_bytes(&[]).unwrap_err();
    assert_eq!(err.detail, "truncated");
}

/// Trailing bytes after a well-formed profile are an error: a cache file
/// with appended junk is corrupt, not "valid plus extras".
#[test]
fn trailing_bytes_are_rejected() {
    let profile = profile_from_walk(4, 0, &[1, 1, 2], "");
    let mut bytes = profile.to_bytes();
    bytes.push(0);
    assert_eq!(
        FetchEdgeProfile::from_bytes(&bytes),
        Err(EdgeProfileFormatError {
            detail: "trailing bytes"
        })
    );
}

/// An out-of-range seed index (the first post-header field that carries
/// an invariant) is caught even when lengths are self-consistent.
#[test]
fn out_of_range_seed_is_rejected() {
    let profile = profile_from_walk(4, 2, &[1], "");
    let mut bytes = profile.to_bytes();
    // Bytes 16..20 hold the seed index (after magic, version, text_len).
    bytes[16..20].copy_from_slice(&100u32.to_le_bytes());
    assert_eq!(
        FetchEdgeProfile::from_bytes(&bytes).unwrap_err().detail,
        "seed index out of range"
    );
}

/// Byte offset of the fetch count: after magic, version, text_len, seed.
const FETCHES_AT: usize = 20;

/// Byte offset of `seq[i]` in a profile with an empty stdout: magic,
/// version, text_len, seed, fetches, exit code and stdout length first.
fn seq_offset(i: usize) -> usize {
    8 + 4 + 4 + 4 + 8 + 4 + 4 + 8 * i
}

fn set_u64(bytes: &mut [u8], at: usize, value: u64) {
    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
}

/// No fetch follows the last instruction sequentially. A weight there
/// would make `per_index_counts` and replay index past the text, so it is
/// rejected even when the fetch count is adjusted to match.
#[test]
fn sequential_edge_out_of_the_last_instruction_is_rejected() {
    let profile = profile_from_walk(4, 0, &[1, 1, 1], "");
    let mut bytes = profile.to_bytes();
    set_u64(&mut bytes, seq_offset(3), 1);
    set_u64(&mut bytes, FETCHES_AT, profile.fetches() + 1);
    assert_eq!(
        FetchEdgeProfile::from_bytes(&bytes).unwrap_err().detail,
        "sequential edge out of the last instruction"
    );
}

/// Every fetch but the seed is the destination of exactly one edge, so
/// the weights sum to `fetches − 1`, or to zero with no seed and no
/// fetches; a sum that overflows is rejected the same way.
#[test]
fn weights_that_do_not_account_for_every_fetch_are_rejected() {
    const DETAIL: &str = "edge weights do not sum to fetches - 1";
    let profile = profile_from_walk(4, 0, &[1, 1, 2], "");
    let bytes = profile.to_bytes();

    let mut extra_fetch = bytes.clone();
    set_u64(&mut extra_fetch, FETCHES_AT, profile.fetches() + 1);
    assert_eq!(
        FetchEdgeProfile::from_bytes(&extra_fetch)
            .unwrap_err()
            .detail,
        DETAIL
    );

    let mut heavier_edge = bytes.clone();
    set_u64(&mut heavier_edge, seq_offset(0), 2);
    assert_eq!(
        FetchEdgeProfile::from_bytes(&heavier_edge)
            .unwrap_err()
            .detail,
        DETAIL
    );

    let mut overflow = bytes;
    set_u64(&mut overflow, seq_offset(0), u64::MAX);
    set_u64(&mut overflow, FETCHES_AT, u64::MAX);
    assert_eq!(
        FetchEdgeProfile::from_bytes(&overflow).unwrap_err().detail,
        DETAIL
    );

    let mut unseeded = FetchEdgeRecorder::new(TEXT_BASE, 4)
        .finish(0, String::new())
        .to_bytes();
    set_u64(&mut unseeded, FETCHES_AT, 1);
    assert_eq!(
        FetchEdgeProfile::from_bytes(&unseeded).unwrap_err().detail,
        DETAIL
    );
}
