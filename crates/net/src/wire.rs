//! The frame layer: a versioned, length-prefixed, checksummed envelope.
//!
//! Every message on an imt-net connection is one *frame*:
//!
//! | offset | size | field | notes |
//! |-------:|-----:|-------|-------|
//! | 0      | 8    | magic `IMTWIRE1` | rejects non-protocol peers immediately |
//! | 8      | 2    | version (u16 LE) | [`WIRE_VERSION`]; mismatch is typed, not a panic |
//! | 10     | 1    | kind | [`FrameKind`]: request or response |
//! | 11     | 1    | reserved | must be 0 |
//! | 12     | 8    | request id (u64 LE) | correlates a response to its request |
//! | 20     | 4    | payload length (u32 LE) | bounded by [`MAX_FRAME_BYTES`] **before** any allocation |
//! | 24     | 4    | payload CRC-32 (u32 LE) | detects corruption the length fields miss |
//! | 28     | n    | payload | [`crate::msg`] body |
//!
//! The decode discipline is the same one `imt_sim::edge`'s `IMTEPROF`
//! format established: every declared length is checked against both the
//! hard cap and the bytes actually present before a single byte is
//! allocated, and every malformed input maps to a typed [`WireError`] —
//! never a panic, never an allocation sized by attacker-controlled
//! numbers.

use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic: fixed 8 bytes, version-independent.
pub const MAGIC: [u8; 8] = *b"IMTWIRE1";

/// Protocol version carried in every frame header.
pub const WIRE_VERSION: u16 = 1;

/// Fixed header size in bytes (everything before the payload).
pub const HEADER_BYTES: usize = 28;

/// Hard cap on a frame's declared payload length. A header declaring
/// more is refused with [`WireError::FrameTooLarge`] before any
/// allocation happens — the declared length never sizes a buffer until
/// it has passed this check.
pub const MAX_FRAME_BYTES: usize = 4 * 1024 * 1024;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: one [`crate::msg::NetRequest`].
    Request,
    /// Server → client: one [`crate::msg::NetResponse`].
    Response,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
        }
    }

    fn from_byte(b: u8) -> Result<FrameKind, WireError> {
        match b {
            1 => Ok(FrameKind::Request),
            2 => Ok(FrameKind::Response),
            other => Err(WireError::UnknownFrameKind { kind: other }),
        }
    }
}

/// Every way a frame or payload can fail to decode. Corrupt input maps
/// here — by construction the codec has no panicking path and no
/// allocation sized by unvalidated input.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The first 8 bytes were not [`MAGIC`] — not an imt-net peer.
    BadMagic,
    /// The peer speaks a version this build does not.
    UnsupportedVersion {
        /// The version the frame declared.
        got: u16,
    },
    /// The frame kind byte named no known kind.
    UnknownFrameKind {
        /// The byte received.
        kind: u8,
    },
    /// The header's reserved byte was non-zero.
    ReservedNonZero,
    /// The declared payload length exceeds the protocol cap.
    FrameTooLarge {
        /// Bytes the header declared.
        declared: u64,
        /// The cap ([`MAX_FRAME_BYTES`]).
        limit: u64,
    },
    /// The stream ended before the declared bytes arrived (truncated
    /// frame or mid-frame disconnect).
    Truncated,
    /// The payload arrived but its CRC-32 does not match the header.
    ChecksumMismatch {
        /// CRC the header declared.
        declared: u32,
        /// CRC of the bytes received.
        computed: u32,
    },
    /// The payload's internal structure is invalid (bad tag, bounded
    /// length exceeded, non-UTF-8 string, trailing bytes).
    Malformed {
        /// What was wrong, for operators.
        detail: String,
    },
    /// The underlying socket failed (reset, refused, timeout).
    Io {
        /// The `std::io::ErrorKind`, stringified for comparability.
        kind: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad magic: not an imt-net frame"),
            WireError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported wire version {got} (this build speaks {WIRE_VERSION})"
                )
            }
            WireError::UnknownFrameKind { kind } => write!(f, "unknown frame kind {kind}"),
            WireError::ReservedNonZero => write!(f, "reserved header byte is non-zero"),
            WireError::FrameTooLarge { declared, limit } => {
                write!(
                    f,
                    "declared payload of {declared} bytes exceeds the {limit}-byte frame cap"
                )
            }
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::ChecksumMismatch { declared, computed } => write!(
                f,
                "payload checksum mismatch (header {declared:#010x}, computed {computed:#010x})"
            ),
            WireError::Malformed { detail } => write!(f, "malformed payload: {detail}"),
            WireError::Io { kind } => write!(f, "socket error: {kind}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io {
                kind: e.kind().to_string(),
            }
        }
    }
}

impl WireError {
    /// Shorthand for [`WireError::Malformed`].
    pub(crate) fn malformed(detail: impl Into<String>) -> WireError {
        WireError::Malformed {
            detail: detail.into(),
        }
    }
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected), slicing-by-16
// ---------------------------------------------------------------------

/// Bytes [`crc32`] folds per step.
const CRC_SLICES: usize = 16;

/// `tables[0]` is the classic byte-at-a-time table; `tables[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so one step can look up
/// sixteen bytes independently and XOR the results.
fn crc32_tables() -> &'static [[u32; 256]; CRC_SLICES] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; CRC_SLICES]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; CRC_SLICES];
        for (i, slot) in tables[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        for k in 1..CRC_SLICES {
            for i in 0..256 {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            }
        }
        tables
    })
}

/// CRC-32 (IEEE) over `bytes` — the payload checksum carried in every
/// frame header. Sixteen bytes a step through [`crc32_tables`]; the
/// value is [`crc32_bytewise`]'s.
pub fn crc32(bytes: &[u8]) -> u32 {
    let tables = crc32_tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut steps = bytes.chunks_exact(CRC_SLICES);
    for step in &mut steps {
        let head = crc ^ u32::from_le_bytes([step[0], step[1], step[2], step[3]]);
        let mut next = 0;
        for (i, &b) in head.to_le_bytes().iter().chain(&step[4..]).enumerate() {
            next ^= tables[CRC_SLICES - 1 - i][b as usize];
        }
        crc = next;
    }
    for &b in steps.remainder() {
        crc = (crc >> 8) ^ tables[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// The same CRC-32 one table lookup per byte: the plain reference that
/// [`crc32`] is tested and timed against.
pub fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let table = &crc32_tables()[0];
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Frame encode / decode
// ---------------------------------------------------------------------

/// One decoded frame: the envelope plus the raw payload bytes, verified
/// against the header checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload is.
    pub kind: FrameKind,
    /// The correlation id the client assigned.
    pub request_id: u64,
    /// The verified payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a frame, refusing payloads over [`MAX_FRAME_BYTES`] so a
    /// local bug cannot emit a frame no peer would accept.
    ///
    /// # Errors
    ///
    /// [`WireError::FrameTooLarge`] when the payload exceeds the cap.
    pub fn new(kind: FrameKind, request_id: u64, payload: Vec<u8>) -> Result<Frame, WireError> {
        if payload.len() > MAX_FRAME_BYTES {
            return Err(WireError::FrameTooLarge {
                declared: payload.len() as u64,
                limit: MAX_FRAME_BYTES as u64,
            });
        }
        Ok(Frame {
            kind,
            request_id,
            payload,
        })
    }

    /// Serialises the frame (header + payload) into one buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES + self.payload.len());
        Frame::encode_parts_into(self.kind, self.request_id, &self.payload, &mut out)
            .expect("Frame::new already enforced the cap");
        out
    }

    /// Appends one encoded frame (header + payload) to `out` without
    /// allocating beyond `out`'s own growth — the buffer-reuse encode
    /// path. Callers that keep `out` across frames pay zero allocations
    /// per frame once its capacity has warmed up.
    ///
    /// # Errors
    ///
    /// [`WireError::FrameTooLarge`] when the payload exceeds the cap —
    /// the same refusal [`Frame::new`] makes, so a local bug cannot emit
    /// a frame no peer would accept.
    pub fn encode_parts_into(
        kind: FrameKind,
        request_id: u64,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        if payload.len() > MAX_FRAME_BYTES {
            return Err(WireError::FrameTooLarge {
                declared: payload.len() as u64,
                limit: MAX_FRAME_BYTES as u64,
            });
        }
        out.reserve(HEADER_BYTES + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        out.push(kind.to_byte());
        out.push(0); // reserved
        out.extend_from_slice(&request_id.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        Ok(())
    }

    /// Writes the frame to `w` and flushes.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] / [`WireError::Truncated`] on socket failure.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), WireError> {
        w.write_all(&self.to_bytes())?;
        w.flush()?;
        Ok(())
    }

    /// Reads one frame from `r`, validating header fields in order and
    /// bounding the payload allocation by the checked declared length.
    ///
    /// # Errors
    ///
    /// Every corrupt, truncated, oversized, or version-mismatched input
    /// maps to its typed [`WireError`]; socket failures map to
    /// [`WireError::Io`].
    pub fn read_from(r: &mut impl Read) -> Result<Frame, WireError> {
        match Frame::read_or_eof(r)? {
            Some(frame) => Ok(frame),
            None => Err(WireError::Truncated),
        }
    }

    /// Like [`Frame::read_from`], but a clean EOF *at a frame boundary*
    /// (zero header bytes read) returns `Ok(None)` — the orderly-close
    /// signal a server loop needs to tell "peer hung up between
    /// requests" apart from "peer died mid-frame".
    ///
    /// # Errors
    ///
    /// As [`Frame::read_from`]; EOF after at least one header byte is
    /// [`WireError::Truncated`].
    pub fn read_or_eof(r: &mut impl Read) -> Result<Option<Frame>, WireError> {
        let mut header = [0u8; HEADER_BYTES];
        let mut filled = 0;
        while filled < HEADER_BYTES {
            match r.read(&mut header[filled..]) {
                Ok(0) if filled == 0 => return Ok(None),
                Ok(0) => return Err(WireError::Truncated),
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        Frame::parse_header(&header).and_then(|(kind, request_id, len, declared_crc)| {
            // `len` is ≤ MAX_FRAME_BYTES here, so this allocation is
            // bounded by the protocol cap, not by peer-declared data.
            let mut payload = vec![0u8; len];
            r.read_exact(&mut payload)?;
            let computed = crc32(&payload);
            if computed != declared_crc {
                return Err(WireError::ChecksumMismatch {
                    declared: declared_crc,
                    computed,
                });
            }
            Ok(Some(Frame {
                kind,
                request_id,
                payload,
            }))
        })
    }

    /// Decodes a frame from a complete in-memory buffer, refusing
    /// trailing bytes (a stream reader instead leaves them for the next
    /// frame).
    ///
    /// # Errors
    ///
    /// As [`Frame::read_from`], plus [`WireError::Malformed`] for
    /// trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Frame, WireError> {
        if bytes.len() < HEADER_BYTES {
            return Err(WireError::Truncated);
        }
        let (kind, request_id, len, declared_crc) = Frame::parse_header(&bytes[..HEADER_BYTES])?;
        let rest = &bytes[HEADER_BYTES..];
        if rest.len() < len {
            return Err(WireError::Truncated);
        }
        if rest.len() > len {
            return Err(WireError::malformed(format!(
                "{} trailing bytes after the declared payload",
                rest.len() - len
            )));
        }
        let computed = crc32(rest);
        if computed != declared_crc {
            return Err(WireError::ChecksumMismatch {
                declared: declared_crc,
                computed,
            });
        }
        Ok(Frame {
            kind,
            request_id,
            payload: rest.to_vec(),
        })
    }

    /// Validates the fixed header; returns `(kind, request_id,
    /// payload_len, crc)` with `payload_len` already checked against
    /// [`MAX_FRAME_BYTES`].
    fn parse_header(header: &[u8]) -> Result<(FrameKind, u64, usize, u32), WireError> {
        debug_assert_eq!(header.len(), HEADER_BYTES);
        if header[..8] != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = u16::from_le_bytes([header[8], header[9]]);
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion { got: version });
        }
        let kind = FrameKind::from_byte(header[10])?;
        if header[11] != 0 {
            return Err(WireError::ReservedNonZero);
        }
        let mut id = [0u8; 8];
        id.copy_from_slice(&header[12..20]);
        let request_id = u64::from_le_bytes(id);
        let len = u32::from_le_bytes([header[20], header[21], header[22], header[23]]) as u64;
        if len > MAX_FRAME_BYTES as u64 {
            return Err(WireError::FrameTooLarge {
                declared: len,
                limit: MAX_FRAME_BYTES as u64,
            });
        }
        let crc = u32::from_le_bytes([header[24], header[25], header[26], header[27]]);
        Ok((kind, request_id, len as usize, crc))
    }
}

// ---------------------------------------------------------------------
// Incremental (non-blocking) frame decoding
// ---------------------------------------------------------------------

/// A borrowed view of one decoded frame. The payload points into the
/// [`FrameDecoder`]'s reused buffer, so the steady-state decode path
/// allocates nothing per frame; call [`FrameView::to_frame`] only when
/// an owned [`Frame`] is actually needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameView<'a> {
    /// What the payload is.
    pub kind: FrameKind,
    /// The correlation id the client assigned.
    pub request_id: u64,
    /// The verified payload bytes (CRC already checked).
    pub payload: &'a [u8],
}

impl FrameView<'_> {
    /// Copies the view into an owned [`Frame`].
    pub fn to_frame(&self) -> Frame {
        Frame {
            kind: self.kind,
            request_id: self.request_id,
            payload: self.payload.to_vec(),
        }
    }
}

/// Incremental frame decoder for non-blocking readers: feed it whatever
/// bytes the socket produced, then drain complete frames. This is the
/// reactor's half of the codec — a blocking reader can keep using
/// [`Frame::read_or_eof`].
///
/// The validation discipline is identical to the blocking path: the
/// header's declared length is checked against [`MAX_FRAME_BYTES`] the
/// moment the header is complete — *before* the decoder waits for (or
/// buffers toward) the payload — so a hostile length never sizes
/// anything. A partial frame is simply "not yet" ([`Ok(None)`] from
/// [`FrameDecoder::next_frame`]); whether a dangling partial at EOF is
/// [`WireError::Truncated`] is the connection owner's call, via
/// [`FrameDecoder::mid_frame`].
///
/// The internal buffer is retained and compacted across frames, so a
/// long-lived connection decodes in steady state with zero allocations
/// per frame (the zero-alloc test in `tests/alloc_reuse.rs` pins this).
/// Its read window stays initialised too: it is zeroed once, when the
/// buffer grows, so a read costs the bytes it brings and not the
/// window's size.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Received bytes live in `buf[start..end]`; `buf[end..]` is the
    /// read window [`FrameDecoder::fill_from`] reads into.
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted away on the next feed/fill.
    start: usize,
    /// End of the received bytes.
    end: usize,
}

/// Bytes [`FrameDecoder::fill_from`] asks the reader for per call.
const DECODER_READ_CHUNK: usize = 64 * 1024;

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Bytes buffered but not yet drained as frames.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// True when the buffer holds a *partial* frame — the signal that an
    /// EOF here is [`WireError::Truncated`], not an orderly close.
    pub fn mid_frame(&self) -> bool {
        self.buffered() > 0
    }

    /// Drops the consumed prefix, reusing the buffer's capacity.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }

    /// Appends raw socket bytes to the decode buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.compact();
        let end = self.end + bytes.len();
        if end <= self.buf.len() {
            self.buf[self.end..end].copy_from_slice(bytes);
        } else {
            self.buf.truncate(self.end);
            self.buf.extend_from_slice(bytes);
        }
        self.end = end;
    }

    /// Reads once from `r` directly into the buffer (at most
    /// [`DECODER_READ_CHUNK`] bytes), returning how many bytes arrived.
    /// `Ok(0)` is EOF. The caller decides what `WouldBlock` means — a
    /// non-blocking reactor treats it as "drained", a blocking reader
    /// with a timeout treats it as the timeout.
    ///
    /// # Errors
    ///
    /// Propagates the reader's `io::Error` (except `Interrupted`, which
    /// is retried internally).
    pub fn fill_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        self.compact();
        let window_end = self.end + DECODER_READ_CHUNK;
        if self.buf.len() < window_end {
            // Zero only the growth; the window beyond `end` already holds
            // initialised (stale) bytes that the read overwrites.
            self.buf.resize(window_end, 0);
        }
        loop {
            match r.read(&mut self.buf[self.end..window_end]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Drains the next complete frame, if one is fully buffered.
    ///
    /// Returns `Ok(None)` when more bytes are needed. The returned view
    /// borrows the internal buffer; it stays valid until the next call
    /// that mutates the decoder.
    ///
    /// # Errors
    ///
    /// Every malformed header or checksum mismatch is the same typed
    /// [`WireError`] the blocking path produces; after an error the
    /// stream is unsynchronised and the connection must be dropped.
    pub fn next_frame(&mut self) -> Result<Option<FrameView<'_>>, WireError> {
        if self.buffered() < HEADER_BYTES {
            return Ok(None);
        }
        let header = &self.buf[self.start..self.start + HEADER_BYTES];
        let (kind, request_id, len, declared_crc) = Frame::parse_header(header)?;
        if self.buffered() < HEADER_BYTES + len {
            return Ok(None);
        }
        let payload_start = self.start + HEADER_BYTES;
        let payload = &self.buf[payload_start..payload_start + len];
        let computed = crc32(payload);
        if computed != declared_crc {
            return Err(WireError::ChecksumMismatch {
                declared: declared_crc,
                computed,
            });
        }
        self.start = payload_start + len;
        let payload = &self.buf[payload_start..payload_start + len];
        Ok(Some(FrameView {
            kind,
            request_id,
            payload,
        }))
    }
}

// ---------------------------------------------------------------------
// Payload reader/writer primitives
// ---------------------------------------------------------------------

/// Little-endian payload writer — the counterpart of [`Reader`].
#[derive(Debug, Default)]
pub(crate) struct Writer {
    out: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Writer {
        Writer::default()
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn i32(&mut self, v: i32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// u32 length prefix + UTF-8 bytes.
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.out.extend_from_slice(s.as_bytes());
    }

    /// u32 count prefix + words.
    pub(crate) fn u64_slice(&mut self, v: &[u64]) {
        self.u32(v.len() as u32);
        for &word in v {
            self.out.extend_from_slice(&word.to_le_bytes());
        }
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.out
    }
}

/// Bounded little-endian payload reader. Every length read from the
/// stream is validated against the bytes *actually present* before any
/// allocation — the `IMTEPROF` discipline.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::malformed(format!(
                "needed {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut w = [0u8; 8];
        w.copy_from_slice(b);
        Ok(u64::from_le_bytes(w))
    }

    pub(crate) fn i32(&mut self) -> Result<i32, WireError> {
        let b = self.take(4)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, WireError> {
        let b = self.take(8)?;
        let mut w = [0u8; 8];
        w.copy_from_slice(b);
        Ok(f64::from_le_bytes(w))
    }

    /// Length-prefixed UTF-8 string; the declared length is bounded by
    /// the bytes present before `take` slices (no allocation on lies).
    pub(crate) fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        if self.remaining() < len {
            return Err(WireError::malformed(format!(
                "string declares {len} bytes, {} remain",
                self.remaining()
            )));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::malformed("string is not valid UTF-8"))
    }

    /// Count-prefixed u64 vector; the declared count is bounded by the
    /// bytes present (count × 8) before the vector is allocated.
    pub(crate) fn u64_vec(&mut self) -> Result<Vec<u64>, WireError> {
        let count = self.u32()? as usize;
        if self.remaining() < count.saturating_mul(8) {
            return Err(WireError::malformed(format!(
                "u64 vector declares {count} words, {} bytes remain",
                self.remaining()
            )));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    /// Rejects trailing bytes — a complete payload must consume exactly.
    pub(crate) fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::malformed(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Frame {
        Frame::new(FrameKind::Request, 42, b"hello wire".to_vec()).expect("under cap")
    }

    #[test]
    fn round_trips_through_bytes_and_streams() {
        let f = frame();
        let bytes = f.to_bytes();
        assert_eq!(Frame::from_bytes(&bytes).expect("decodes"), f);
        let mut cursor = io::Cursor::new(bytes);
        assert_eq!(Frame::read_from(&mut cursor).expect("decodes"), f);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" — the standard check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_truncation_is_typed_not_a_panic() {
        let bytes = frame().to_bytes();
        for keep in 0..bytes.len() {
            let err = Frame::from_bytes(&bytes[..keep]).expect_err("truncated");
            assert!(
                matches!(err, WireError::Truncated),
                "prefix of {keep} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_version_kind_reserved_are_typed() {
        let mut bytes = frame().to_bytes();
        bytes[0] ^= 0xFF;
        assert_eq!(Frame::from_bytes(&bytes), Err(WireError::BadMagic));

        let mut bytes = frame().to_bytes();
        bytes[8] = 0x7F;
        assert!(matches!(
            Frame::from_bytes(&bytes),
            Err(WireError::UnsupportedVersion { .. })
        ));

        let mut bytes = frame().to_bytes();
        bytes[10] = 200;
        assert_eq!(
            Frame::from_bytes(&bytes),
            Err(WireError::UnknownFrameKind { kind: 200 })
        );

        let mut bytes = frame().to_bytes();
        bytes[11] = 1;
        assert_eq!(Frame::from_bytes(&bytes), Err(WireError::ReservedNonZero));
    }

    #[test]
    fn oversized_declared_length_is_refused_before_allocation() {
        let mut bytes = frame().to_bytes();
        bytes[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Frame::from_bytes(&bytes),
            Err(WireError::FrameTooLarge {
                declared: u64::from(u32::MAX),
                limit: MAX_FRAME_BYTES as u64,
            })
        );
        // The stream path refuses at the same point: feed only a header
        // so a non-refusal would block or over-allocate.
        let mut cursor = io::Cursor::new(bytes[..HEADER_BYTES].to_vec());
        assert!(matches!(
            Frame::read_from(&mut cursor),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn payload_corruption_fails_the_checksum() {
        let mut bytes = frame().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            Frame::from_bytes(&bytes),
            Err(WireError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let mut bytes = frame().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Frame::from_bytes(&bytes),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn frame_new_refuses_oversized_payloads() {
        let err =
            Frame::new(FrameKind::Request, 0, vec![0; MAX_FRAME_BYTES + 1]).expect_err("over cap");
        assert!(matches!(err, WireError::FrameTooLarge { .. }));
    }

    #[test]
    fn decoder_drains_pipelined_frames_across_arbitrary_chunking() {
        let frames: Vec<Frame> = (0..5)
            .map(|i| {
                Frame::new(FrameKind::Response, i, format!("payload {i}").into_bytes())
                    .expect("under cap")
            })
            .collect();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.to_bytes());
        }
        // Feed in every chunk size from 1 byte to the whole stream.
        for chunk in [1usize, 3, 7, HEADER_BYTES, HEADER_BYTES + 1, stream.len()] {
            let mut decoder = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                decoder.feed(piece);
                while let Some(view) = decoder.next_frame().expect("well-formed stream") {
                    got.push(view.to_frame());
                }
            }
            assert_eq!(got, frames, "chunk size {chunk}");
            assert!(!decoder.mid_frame(), "chunk size {chunk} left residue");
        }
    }

    #[test]
    fn decoder_is_bounded_before_allocation_and_typed_on_corruption() {
        let good = frame().to_bytes();

        // Oversize declared length: refused the moment the header is
        // complete, without waiting for (or buffering toward) a payload.
        let mut oversize = good.clone();
        oversize[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut decoder = FrameDecoder::new();
        decoder.feed(&oversize[..HEADER_BYTES]);
        assert!(matches!(
            decoder.next_frame(),
            Err(WireError::FrameTooLarge { .. })
        ));

        // Bad magic: typed immediately.
        let mut decoder = FrameDecoder::new();
        decoder.feed(b"NOTWIRE!rest of garbage that is long enough to hold a header");
        assert_eq!(decoder.next_frame().unwrap_err(), WireError::BadMagic);

        // Payload corruption: typed checksum mismatch.
        let mut corrupt = good.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 1;
        let mut decoder = FrameDecoder::new();
        decoder.feed(&corrupt);
        assert!(matches!(
            decoder.next_frame(),
            Err(WireError::ChecksumMismatch { .. })
        ));

        // A dangling partial frame is visible to the connection owner.
        let mut decoder = FrameDecoder::new();
        decoder.feed(&good[..HEADER_BYTES + 2]);
        assert_eq!(decoder.next_frame().expect("incomplete, not error"), None);
        assert!(decoder.mid_frame());
    }

    #[test]
    fn decoder_fill_from_reads_and_signals_eof() {
        let bytes = frame().to_bytes();
        let mut cursor = io::Cursor::new(bytes);
        let mut decoder = FrameDecoder::new();
        let n = decoder.fill_from(&mut cursor).expect("read ok");
        assert!(n > 0);
        let view = decoder.next_frame().expect("decodes").expect("complete");
        assert_eq!(view.to_frame(), frame());
        assert_eq!(decoder.fill_from(&mut cursor).expect("eof ok"), 0);
        assert!(!decoder.mid_frame());
    }

    #[test]
    fn encode_parts_into_matches_to_bytes_and_enforces_cap() {
        let f = frame();
        let mut out = Vec::new();
        Frame::encode_parts_into(f.kind, f.request_id, &f.payload, &mut out).expect("under cap");
        assert_eq!(out, f.to_bytes());
        // Appends rather than clears, so one buffer can batch frames.
        Frame::encode_parts_into(f.kind, f.request_id, &f.payload, &mut out).expect("under cap");
        assert_eq!(out.len(), 2 * f.to_bytes().len());
        let big = vec![0u8; MAX_FRAME_BYTES + 1];
        assert!(matches!(
            Frame::encode_parts_into(FrameKind::Request, 0, &big, &mut out),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn reader_bounds_every_declared_length() {
        // String declaring more bytes than present.
        let mut w = Writer::new();
        w.u32(1000);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.str(), Err(WireError::Malformed { .. })));

        // u64 vector declaring more words than present.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.u64_vec(), Err(WireError::Malformed { .. })));
    }
}
