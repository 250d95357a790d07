//! The encoder arena: pluggable bus-encoding schemes behind one trait.
//!
//! The paper's TT/BBIT transformation is one point in the low-power
//! instruction-bus encoding design space. This module defines the
//! [`Encoder`] trait — stored image, decode proof, full-simulation bus
//! model and hardware cost, plus a serializable [`SchemeDescriptor`] —
//! and implements it for four schemes:
//!
//! * [`EncodedProgram`] — the paper's TT/BBIT transformation, as
//!   [`crate::encode_program`] and [`crate::pipeline::select`] build it.
//! * [`GrayScheme`] — memoryless Gray word sequencing
//!   (`w ^ (w >> 1)`), zero storage, a 31-XOR restore ripple.
//! * [`LowWeightScheme`] — a Chee & Colbourn-style memoryless
//!   low-weight codebook: a small CAM maps the hottest words to
//!   light codewords guaranteed absent from the text.
//! * [`BusInvertScheme`] — Stan & Burleson bus-invert: memory is
//!   untouched, the drive decision depends on the live bus state.
//!
//! One set of evaluators in [`crate::eval`] scores every scheme: full
//! simulation ([`crate::eval::evaluate`]), closed-form replay
//! ([`crate::eval::ReplayBasis::replay`]) and the router between them
//! ([`crate::eval::evaluate_auto`]).
//!
//! ## Replay classes
//!
//! The replay engine scores any **static** stored image closed-form:
//! transitions are `Σ weight(e)·popcount(stored[src] ^ stored[dst])`
//! over the recorded edge multiset. What distinguishes schemes is
//! decoder state, captured by [`ReplayClass`]:
//!
//! * `Memoryless` — the stored word is a pure function of the original
//!   word; decode verification is per-word.
//! * `BlockState` — per-block decoder state (TT/BBIT); replayable when
//!   the profile enters no index its [`DecodeProof`] marks
//!   sequential-only.
//! * `CycleState` — the driven bus depends on unbounded fetch history
//!   (bus-invert); **never** replayable. Replay refuses it with
//!   [`CoreError::ReplayInfeasible`], and [`crate::eval::evaluate_auto`]
//!   routes it to full simulation.
//!
//! ## Per-lane auto-selection
//!
//! Nothing stops different bus lines using different τ families — the
//! decode of a TT lane, a Gray lane and a passthrough lane are mutually
//! independent given the PC-driven walker state. [`auto_select`] solves
//! the exact multiple-choice knapsack over a shared bit budget
//! ([`crate::hardware::HardwareBudget`]-style storage bits): per lane it
//! picks the best of {baseline, Gray, TT-lane}, charges the TT fixed
//! cost (BBIT + E/CT columns) once if any lane uses TT, and then takes
//! the better of that composite and the best affordable whole-bus
//! scheme — so the winner is ≥ every single affordable scheme by
//! construction. Word-level schemes (the CAM codebook, bus-invert's
//! majority vote) cannot decode from a lane subset and only compete
//! whole-bus.

use imt_bitcode::businvert::BusInvertState;
use imt_bitcode::gray::{gray_image, ungray_word};
use imt_bitcode::lowweight::LowWeightBook;
use imt_isa::program::Program;
use imt_sim::edge::FetchEdgeProfile;

use crate::error::CoreError;
use crate::eval::{evaluate_auto, DecodeCheck, EvalNeeds, EvalPath, Evaluation};
use crate::hardware::FetchDecoder;
use crate::pipeline::{encode_program, EncodedProgram, BUS_WIDTH};
use crate::EncoderConfig;

/// How a scheme's dynamic cost can be scored from a recorded profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayClass {
    /// Stored word = pure function of the original word. Decode
    /// verification is per-word; transitions replay closed-form.
    Memoryless,
    /// Per-block decoder state (TT/BBIT). Replayable under the
    /// single-entry check of [`crate::eval::ReplayBasis::replay`].
    BlockState,
    /// The driven bus depends on unbounded cycle history. Never
    /// replayable from a stateless edge profile — full simulation only.
    CycleState,
}

/// Hardware cost of a built scheme instance, in the same currency as
/// [`crate::hardware::HardwareBudget`]: storage bits are what the
/// budget constrains; extra lines and gate counts are reported
/// alongside for the Pareto fronts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchemeCost {
    /// Table/CAM storage bits (counted against the shared budget).
    pub storage_bits: u64,
    /// Extra bus lines beyond the 32 data lanes (bus-invert's invert
    /// line). Their transitions are charged to the scheme's totals.
    pub extra_lines: u32,
    /// Restore-logic gate estimate (NAND2-equivalents).
    pub restore_gates: u64,
}

/// Which scheme to build — the request-level surface carried by
/// `imt-serve` / `imt-net` (defaulting to [`SchemeSpec::TtBbit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeSpec {
    /// The paper's TT/BBIT transformation (the default everywhere).
    TtBbit,
    /// Gray word sequencing.
    Gray,
    /// Memoryless low-weight codebook with this many CAM entries.
    LowWeight {
        /// Maximum CAM entries.
        entries: usize,
    },
    /// Bus-invert coding.
    BusInvert,
}

impl SchemeSpec {
    /// Default CAM size for [`SchemeSpec::LowWeight`].
    pub const DEFAULT_LOW_WEIGHT_ENTRIES: usize = 16;

    /// The wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            SchemeSpec::TtBbit => "tt",
            SchemeSpec::Gray => "gray",
            SchemeSpec::LowWeight { .. } => "lowweight",
            SchemeSpec::BusInvert => "businvert",
        }
    }

    /// Parses a wire/CLI name; the empty string is the TT/BBIT default.
    pub fn parse(name: &str) -> Option<SchemeSpec> {
        match name {
            "" | "tt" | "ttbbit" => Some(SchemeSpec::TtBbit),
            "gray" => Some(SchemeSpec::Gray),
            "lowweight" => Some(SchemeSpec::LowWeight {
                entries: SchemeSpec::DEFAULT_LOW_WEIGHT_ENTRIES,
            }),
            "businvert" => Some(SchemeSpec::BusInvert),
            _ => None,
        }
    }

    /// Every buildable scheme, in arena display order.
    pub const ALL: [SchemeSpec; 4] = [
        SchemeSpec::TtBbit,
        SchemeSpec::Gray,
        SchemeSpec::LowWeight {
            entries: SchemeSpec::DEFAULT_LOW_WEIGHT_ENTRIES,
        },
        SchemeSpec::BusInvert,
    ];
}

/// What a passed decode proof establishes, per text index: the two facts
/// replay needs to count from a stateless edge profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeProof {
    /// Fetches of this index are served by restore logic: members of a
    /// TT/BBIT block, or memoryless words stored differently from the
    /// original.
    pub decoded: Vec<bool>,
    /// This index restores correctly only when fetched right after its
    /// predecessor: the interior of a TT/BBIT block. No index of a
    /// memoryless image is.
    pub sequential_only: Vec<bool>,
}

/// The receiver-side model one full simulation drives its fetches through
/// ([`Encoder::bus_model`]), in its power-on state.
// One per evaluation, owned by its sink; boxing the decoder would put a
// pointer chase on every run of the hot path to save stack bytes.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum BusModel {
    /// A static image: each stored word is driven as it is and restores
    /// to the word at the same text index here.
    Memoryless(Vec<u32>),
    /// The TT/BBIT fetch decoder: stored words are driven as they are and
    /// restored through the tables (per-block state).
    Decoder(FetchDecoder),
    /// Bus-invert drive logic: each stored word is driven plain or
    /// complemented against the live bus (per-cycle state), and the
    /// invert line's transitions are charged to the scheme.
    BusInvert(BusInvertState),
}

/// A built encoding of one program: the arena's pluggable surface.
///
/// Implementations are built by [`build_scheme`] (TT/BBIT also by
/// [`crate::encode_program`] and [`crate::pipeline::select`]) and do not
/// change afterwards. Every evaluator in [`crate::eval`] takes a
/// `&dyn Encoder`: replay prices [`Encoder::stored_image`] under the
/// facts of [`Encoder::verify_decode`], and full simulation drives each
/// run through a fresh [`Encoder::bus_model`].
pub trait Encoder {
    /// Scheme name (matches [`SchemeSpec::name`]).
    fn name(&self) -> &'static str;

    /// How this scheme's dynamic cost can be scored.
    fn replay_class(&self) -> ReplayClass;

    /// Serializable description of this built instance.
    fn descriptor(&self) -> SchemeDescriptor;

    /// Hardware cost of this built instance.
    fn cost(&self) -> SchemeCost;

    /// The stored instruction-memory image (same length as the program
    /// text). Schemes that leave memory untouched (bus-invert) return
    /// the original text.
    fn stored_image(&self) -> &[u32];

    /// Per-word restore of a static image. The TT/BBIT and bus-invert
    /// implementors keep the identity default: their restore is their
    /// [`Encoder::bus_model`].
    fn decode_word(&self, stored: u32) -> u32 {
        stored
    }

    /// Statically proves that the stored image restores to
    /// `program.text` exactly. The default proves a static image word by
    /// word through [`Encoder::decode_word`].
    ///
    /// # Errors
    ///
    /// [`CoreError::DecodeMismatch`] on the first word that fails, and
    /// [`CoreError::TableImage`] if the image length is wrong.
    fn verify_decode(&self, program: &Program) -> Result<DecodeProof, CoreError> {
        let stored = self.stored_image();
        if stored.len() != program.text.len() {
            return Err(CoreError::TableImage {
                detail: "stored image length differs from the program text",
            });
        }
        for (index, (&expected, &stored)) in program.text.iter().zip(stored).enumerate() {
            let decoded = self.decode_word(stored);
            if decoded != expected {
                return Err(CoreError::DecodeMismatch {
                    pc: program.text_base + 4 * index as u32,
                    decoded,
                    expected,
                });
            }
        }
        Ok(DecodeProof {
            decoded: program
                .text
                .iter()
                .zip(stored)
                .map(|(o, s)| o != s)
                .collect(),
            sequential_only: vec![false; stored.len()],
        })
    }

    /// The bus model full simulation drives, in its power-on state. The
    /// default drives the stored image as it is and restores each word
    /// through [`Encoder::decode_word`].
    fn bus_model(&self) -> BusModel {
        BusModel::Memoryless(
            self.stored_image()
                .iter()
                .map(|&stored| self.decode_word(stored))
                .collect(),
        )
    }
}

/// Builds a scheme instance over `program`, using the per-index fetch
/// counts `per_index` where the scheme is profile-guided (TT/BBIT block
/// selection, codebook heat ranking).
///
/// # Errors
///
/// Whatever [`encode_program`] reports for the TT/BBIT scheme; the
/// other schemes are total.
pub fn build_scheme(
    spec: SchemeSpec,
    program: &Program,
    per_index: &[u64],
    config: &EncoderConfig,
) -> Result<Box<dyn Encoder>, CoreError> {
    match spec {
        SchemeSpec::TtBbit => Ok(Box::new(encode_program(program, per_index, config)?)),
        SchemeSpec::Gray => Ok(Box::new(GrayScheme::new(program))),
        SchemeSpec::LowWeight { entries } => {
            Ok(Box::new(LowWeightScheme::new(program, per_index, entries)))
        }
        SchemeSpec::BusInvert => Ok(Box::new(BusInvertScheme::new(program))),
    }
}

/// [`evaluate_auto`] in its former arena signature, scheme first and
/// mutable. `imt_benchmark` calls it, and that harness changes only with
/// the benchmark itself.
///
/// # Errors
///
/// As [`evaluate_auto`].
pub fn evaluate_scheme_auto(
    scheme: &mut dyn Encoder,
    program: &Program,
    max_steps: u64,
    profile: Option<&FetchEdgeProfile>,
    needs: EvalNeeds,
) -> Result<(Evaluation, EvalPath), CoreError> {
    evaluate_auto(program, scheme, max_steps, profile, needs)
}

/// The paper's TT/BBIT transformation: its stored image is the encoded
/// text, its decode proof the span walk, and its bus model the hardware
/// [`FetchDecoder`] over its tables.
impl Encoder for EncodedProgram {
    fn name(&self) -> &'static str {
        "tt"
    }

    fn replay_class(&self) -> ReplayClass {
        ReplayClass::BlockState
    }

    fn descriptor(&self) -> SchemeDescriptor {
        let config = &self.config;
        SchemeDescriptor::TtBbit {
            block_size: config.block_size() as u32,
            overlap: match config.overlap() {
                imt_bitcode::block::OverlapHistory::Stored => 0,
                imt_bitcode::block::OverlapHistory::Decoded => 1,
            },
            transform_mask: config.transforms().mask(),
            tt_capacity: config.tt_capacity() as u32,
            bbit_capacity: config.bbit_capacity() as u32,
        }
    }

    fn cost(&self) -> SchemeCost {
        let budget = crate::hardware::HardwareBudget::of_schedule(self);
        SchemeCost {
            storage_bits: budget.total_bits(),
            extra_lines: 0,
            restore_gates: budget.restore_gates,
        }
    }

    fn stored_image(&self) -> &[u32] {
        &self.text
    }

    /// The span walk: each scheduled block's fetch sequence once through
    /// the hardware decoder, then the words outside every block, which
    /// must hold the originals (they pass through the decoder untouched).
    /// A BBIT hit resets the decoder and blocks are strictly sequential
    /// inside, so one walk per block witnesses every traversal that
    /// enters the block at its start.
    fn verify_decode(&self, program: &Program) -> Result<DecodeProof, CoreError> {
        let text_len = program.text.len();
        if self.text.len() != text_len {
            return Err(CoreError::TableImage {
                detail: "encoded image length differs from the program text",
            });
        }
        let mut decoded = vec![false; text_len];
        let mut block_start = vec![false; text_len];
        let mut check = DecodeCheck::default();
        let restored = walk_spans(self, &self.text, |start, end, restored| {
            decoded[start..end].fill(true);
            block_start[start] = true;
            let pc = self.text_base + 4 * start as u32;
            check.run(pc, restored, &program.text[start..end]);
            check.result()
        })?;
        check.run(self.text_base, &restored, &program.text);
        check.result()?;
        let sequential_only = decoded
            .iter()
            .zip(&block_start)
            .map(|(&decoded, &start)| decoded && !start)
            .collect();
        Ok(DecodeProof {
            decoded,
            sequential_only,
        })
    }

    fn bus_model(&self) -> BusModel {
        BusModel::Decoder(fetch_decoder(self))
    }
}

/// The unprotected fetch decoder over `encoded`'s tables, in its
/// power-on state.
fn fetch_decoder(encoded: &EncodedProgram) -> FetchDecoder {
    FetchDecoder::new(
        &encoded.tt,
        &encoded.bbit,
        BUS_WIDTH,
        encoded.config.block_size(),
        encoded.config.overlap(),
    )
}

/// The TT/BBIT span walk: restores `image` through the hardware fetch
/// decoder along every scheduled block, each entered at its start PC, and
/// hands `visit` each block's index range and restored words right after
/// walking it. Words outside every block pass through. Returns the
/// restored image.
///
/// # Errors
///
/// [`CoreError::TableImage`] if a block leaves the image; whatever
/// `visit` returns.
fn walk_spans(
    encoded: &EncodedProgram,
    image: &[u32],
    mut visit: impl FnMut(usize, usize, &[u32]) -> Result<(), CoreError>,
) -> Result<Vec<u32>, CoreError> {
    let mut decoder = fetch_decoder(encoded);
    let mut restored = image.to_vec();
    for (start_pc, end_pc) in decoder.scheduled_spans() {
        let start = pc_to_index(start_pc, encoded.text_base, image.len())?;
        let end = pc_to_index(end_pc.wrapping_sub(4), encoded.text_base, image.len())? + 1;
        decoder.reset();
        decoder.restore_run(start_pc, &image[start..end], &mut restored[start..end]);
        visit(start, end, &restored[start..end])?;
    }
    Ok(restored)
}

fn pc_to_index(pc: u32, text_base: u32, text_len: usize) -> Result<usize, CoreError> {
    let offset = pc.wrapping_sub(text_base);
    let index = (offset / 4) as usize;
    if pc < text_base || !offset.is_multiple_of(4) || index >= text_len {
        return Err(CoreError::TableImage {
            detail: "scheduled span outside the text image",
        });
    }
    Ok(index)
}

/// Gray word sequencing: stored word `w ^ (w >> 1)`, restored by the
/// MSB-down XOR ripple. Zero storage bits, no decoder state.
#[derive(Debug, Clone)]
pub struct GrayScheme {
    image: Vec<u32>,
}

impl GrayScheme {
    /// Gray-encodes the whole text image.
    pub fn new(program: &Program) -> GrayScheme {
        GrayScheme {
            image: gray_image(&program.text),
        }
    }
}

impl Encoder for GrayScheme {
    fn name(&self) -> &'static str {
        "gray"
    }

    fn replay_class(&self) -> ReplayClass {
        ReplayClass::Memoryless
    }

    fn descriptor(&self) -> SchemeDescriptor {
        SchemeDescriptor::Gray
    }

    fn cost(&self) -> SchemeCost {
        SchemeCost {
            storage_bits: 0,
            extra_lines: 0,
            // One XOR (≈4 NAND2) per lane except the passthrough MSB.
            restore_gates: 4 * (BUS_WIDTH as u64 - 1),
        }
    }

    fn stored_image(&self) -> &[u32] {
        &self.image
    }

    fn decode_word(&self, stored: u32) -> u32 {
        ungray_word(stored)
    }
}

/// Memoryless low-weight codebook: a small CAM over the hottest words.
#[derive(Debug, Clone)]
pub struct LowWeightScheme {
    book: LowWeightBook,
    image: Vec<u32>,
}

impl LowWeightScheme {
    /// Builds the codebook from per-index fetch heat and encodes the
    /// image through it.
    pub fn new(program: &Program, per_index: &[u64], entries: usize) -> LowWeightScheme {
        let book = LowWeightBook::build(&program.text, per_index, entries);
        let image = program.text.iter().map(|&w| book.encode_word(w)).collect();
        LowWeightScheme { book, image }
    }

    /// The built codebook.
    pub fn book(&self) -> &LowWeightBook {
        &self.book
    }
}

impl Encoder for LowWeightScheme {
    fn name(&self) -> &'static str {
        "lowweight"
    }

    fn replay_class(&self) -> ReplayClass {
        ReplayClass::Memoryless
    }

    fn descriptor(&self) -> SchemeDescriptor {
        SchemeDescriptor::LowWeight {
            pairs: self.book.pairs().to_vec(),
        }
    }

    fn cost(&self) -> SchemeCost {
        SchemeCost {
            storage_bits: self.book.storage_bits(),
            extra_lines: 0,
            // One 32-bit comparator (≈2 NAND2/bit) per CAM entry.
            restore_gates: self.book.pairs().len() as u64 * 64,
        }
    }

    fn stored_image(&self) -> &[u32] {
        &self.image
    }

    fn decode_word(&self, stored: u32) -> u32 {
        self.book.decode_word(stored)
    }
}

/// Bus-invert coding: memory untouched, the drive decision depends on
/// the live bus state — the arena's canonical [`ReplayClass::CycleState`]
/// scheme.
#[derive(Debug, Clone)]
pub struct BusInvertScheme {
    text: Vec<u32>,
}

impl BusInvertScheme {
    /// Wraps the program text (stored unchanged).
    pub fn new(program: &Program) -> BusInvertScheme {
        BusInvertScheme {
            text: program.text.clone(),
        }
    }
}

impl Encoder for BusInvertScheme {
    fn name(&self) -> &'static str {
        "businvert"
    }

    fn replay_class(&self) -> ReplayClass {
        ReplayClass::CycleState
    }

    fn descriptor(&self) -> SchemeDescriptor {
        SchemeDescriptor::BusInvert {
            width: BUS_WIDTH as u8,
        }
    }

    fn cost(&self) -> SchemeCost {
        SchemeCost {
            storage_bits: 0,
            extra_lines: 1,
            // Majority comparator + conditional complement, ≈6 NAND2/lane.
            restore_gates: 6 * BUS_WIDTH as u64,
        }
    }

    fn stored_image(&self) -> &[u32] {
        &self.text
    }

    fn bus_model(&self) -> BusModel {
        BusModel::BusInvert(BusInvertState::new())
    }
}

// ---------------------------------------------------------------------
// Scheme descriptors: versioned, magic-prefixed, typed-error parsing.
// ---------------------------------------------------------------------

/// Magic prefix of a serialized [`SchemeDescriptor`].
pub const SCHEME_MAGIC: [u8; 8] = *b"IMTSCHEM";

/// Current descriptor format version.
pub const SCHEME_FORMAT_VERSION: u32 = 1;

/// Largest CAM the low-weight descriptor accepts — a format-level
/// invariant, far above anything the arena builds.
pub const MAX_LOW_WEIGHT_PAIRS: usize = 4096;

/// A malformed serialized scheme descriptor. Every parse failure is one
/// of these — truncation, bit flips and version mismatches are typed
/// errors, never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeFormatError {
    /// What was wrong.
    pub detail: &'static str,
}

impl std::fmt::Display for SchemeFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed scheme descriptor: {}", self.detail)
    }
}

impl std::error::Error for SchemeFormatError {}

/// Serializable description of a built scheme instance: enough to name
/// the scheme and reconstruct its parameters on the other side of a
/// file or wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemeDescriptor {
    /// TT/BBIT encoder parameters.
    TtBbit {
        /// Block size `k`.
        block_size: u32,
        /// 0 = stored-overlap history, 1 = decoded-overlap history.
        overlap: u8,
        /// [`imt_bitcode::TransformSet`] mask.
        transform_mask: u16,
        /// TT capacity (entries).
        tt_capacity: u32,
        /// BBIT capacity (entries).
        bbit_capacity: u32,
    },
    /// Gray sequencing (no parameters).
    Gray,
    /// Low-weight codebook contents, hottest first.
    LowWeight {
        /// `(original, codeword)` CAM pairs.
        pairs: Vec<(u32, u32)>,
    },
    /// Bus-invert over this many data lines.
    BusInvert {
        /// Data-bus width (1..=63).
        width: u8,
    },
    /// A per-lane composite (see [`auto_select`]): one tag per bus
    /// lane, 0 = baseline, 1 = TT, 2 = Gray.
    Composite {
        /// Per-lane choices, lane 0 first.
        lanes: [u8; 32],
    },
}

impl SchemeDescriptor {
    /// Scheme name this descriptor describes.
    pub fn scheme_name(&self) -> &'static str {
        match self {
            SchemeDescriptor::TtBbit { .. } => "tt",
            SchemeDescriptor::Gray => "gray",
            SchemeDescriptor::LowWeight { .. } => "lowweight",
            SchemeDescriptor::BusInvert { .. } => "businvert",
            SchemeDescriptor::Composite { .. } => "auto",
        }
    }

    /// Serializes to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(&SCHEME_MAGIC);
        out.extend_from_slice(&SCHEME_FORMAT_VERSION.to_le_bytes());
        match self {
            SchemeDescriptor::TtBbit {
                block_size,
                overlap,
                transform_mask,
                tt_capacity,
                bbit_capacity,
            } => {
                out.push(0);
                out.extend_from_slice(&block_size.to_le_bytes());
                out.push(*overlap);
                out.extend_from_slice(&transform_mask.to_le_bytes());
                out.extend_from_slice(&tt_capacity.to_le_bytes());
                out.extend_from_slice(&bbit_capacity.to_le_bytes());
            }
            SchemeDescriptor::Gray => out.push(1),
            SchemeDescriptor::LowWeight { pairs } => {
                out.push(2);
                out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
                for &(orig, code) in pairs {
                    out.extend_from_slice(&orig.to_le_bytes());
                    out.extend_from_slice(&code.to_le_bytes());
                }
            }
            SchemeDescriptor::BusInvert { width } => {
                out.push(3);
                out.push(*width);
            }
            SchemeDescriptor::Composite { lanes } => {
                out.push(4);
                out.extend_from_slice(lanes);
            }
        }
        out
    }

    /// Parses the versioned binary format.
    ///
    /// # Errors
    ///
    /// [`SchemeFormatError`] naming the first thing wrong: bad magic,
    /// unsupported version, truncation, out-of-range fields, unknown
    /// scheme tags, or trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<SchemeDescriptor, SchemeFormatError> {
        let mut r = DescReader { bytes, at: 0 };
        let magic = r.take(8)?;
        if magic != SCHEME_MAGIC {
            return Err(SchemeFormatError {
                detail: "bad magic",
            });
        }
        let version = r.u32()?;
        if version != SCHEME_FORMAT_VERSION {
            return Err(SchemeFormatError {
                detail: "unsupported scheme format version",
            });
        }
        let descriptor = match r.u8()? {
            0 => {
                let block_size = r.u32()?;
                let overlap = r.u8()?;
                let transform_mask = r.u16()?;
                let tt_capacity = r.u32()?;
                let bbit_capacity = r.u32()?;
                if !(2..=32).contains(&block_size) {
                    return Err(SchemeFormatError {
                        detail: "block size outside 2..=32",
                    });
                }
                if overlap > 1 {
                    return Err(SchemeFormatError {
                        detail: "overlap tag outside 0..=1",
                    });
                }
                if transform_mask & 0x1000 == 0 {
                    // Transform::IDENTITY (table 0b1100) must be present,
                    // as EncoderConfig::with_transforms enforces.
                    return Err(SchemeFormatError {
                        detail: "transform set without identity",
                    });
                }
                if tt_capacity > 1 << 20 || bbit_capacity > 1 << 20 {
                    return Err(SchemeFormatError {
                        detail: "table capacity implausibly large",
                    });
                }
                SchemeDescriptor::TtBbit {
                    block_size,
                    overlap,
                    transform_mask,
                    tt_capacity,
                    bbit_capacity,
                }
            }
            1 => SchemeDescriptor::Gray,
            2 => {
                let count = r.u32()? as usize;
                if count > MAX_LOW_WEIGHT_PAIRS {
                    return Err(SchemeFormatError {
                        detail: "codebook implausibly large",
                    });
                }
                let mut pairs = Vec::with_capacity(count);
                for _ in 0..count {
                    let orig = r.u32()?;
                    let code = r.u32()?;
                    if orig == code {
                        return Err(SchemeFormatError {
                            detail: "codebook pair maps a word to itself",
                        });
                    }
                    pairs.push((orig, code));
                }
                SchemeDescriptor::LowWeight { pairs }
            }
            3 => {
                let width = r.u8()?;
                if !(1..=63).contains(&width) {
                    return Err(SchemeFormatError {
                        detail: "bus width outside 1..=63",
                    });
                }
                SchemeDescriptor::BusInvert { width }
            }
            4 => {
                let raw = r.take(32)?;
                let mut lanes = [0u8; 32];
                lanes.copy_from_slice(raw);
                if lanes.iter().any(|&tag| tag > 2) {
                    return Err(SchemeFormatError {
                        detail: "composite lane tag outside 0..=2",
                    });
                }
                SchemeDescriptor::Composite { lanes }
            }
            _ => {
                return Err(SchemeFormatError {
                    detail: "unknown scheme tag",
                })
            }
        };
        if r.at != bytes.len() {
            return Err(SchemeFormatError {
                detail: "trailing bytes",
            });
        }
        Ok(descriptor)
    }
}

struct DescReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> DescReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SchemeFormatError> {
        let end = self.at.checked_add(n).ok_or(SchemeFormatError {
            detail: "truncated scheme descriptor",
        })?;
        if end > self.bytes.len() {
            return Err(SchemeFormatError {
                detail: "truncated scheme descriptor",
            });
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SchemeFormatError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SchemeFormatError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, SchemeFormatError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

// ---------------------------------------------------------------------
// Per-lane auto-selection under a shared hardware budget.
// ---------------------------------------------------------------------

/// What one bus lane runs in a composite selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneChoice {
    /// Unencoded passthrough (0 bits).
    Baseline,
    /// The lane's column of the TT/BBIT image (per-lane control bits,
    /// plus the shared fixed cost once).
    Tt,
    /// The lane's column of the Gray image (0 bits, one XOR).
    Gray,
}

impl LaneChoice {
    /// Descriptor tag (see [`SchemeDescriptor::Composite`]).
    pub fn tag(self) -> u8 {
        match self {
            LaneChoice::Baseline => 0,
            LaneChoice::Tt => 1,
            LaneChoice::Gray => 2,
        }
    }
}

/// Per-lane transition counts and TT storage prices feeding
/// [`auto_select`].
#[derive(Debug, Clone)]
pub struct LaneCosts {
    /// Per-lane baseline transitions (32 entries).
    pub baseline: Vec<u64>,
    /// Per-lane transitions of the TT/BBIT image (32 entries).
    pub tt: Vec<u64>,
    /// Per-lane transitions of the Gray image (32 entries).
    pub gray: Vec<u64>,
    /// Storage bits charged per lane that uses TT (control bits ×
    /// TT entries used).
    pub tt_lane_bits: u64,
    /// Storage bits charged once if *any* lane uses TT (BBIT entries
    /// plus the E/CT columns of the TT).
    pub tt_fixed_bits: u64,
}

/// A whole-bus competitor in the auto-selection (schemes whose decode
/// cannot be restricted to a lane subset).
#[derive(Debug, Clone)]
pub struct WholeBusCandidate {
    /// Scheme name.
    pub name: &'static str,
    /// Storage bits (counted against the budget).
    pub storage_bits: u64,
    /// Total encoded transitions, extra lines included.
    pub transitions: u64,
}

/// The auto-selector's answer: either a per-lane composite or a
/// whole-bus scheme, whichever transitions least within budget.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoSelection {
    /// Per-lane choices (meaningful when `whole_bus` is `None`).
    pub lanes: Vec<LaneChoice>,
    /// Winning whole-bus scheme, if one beat the composite.
    pub whole_bus: Option<&'static str>,
    /// Storage bits the winner consumes (≤ the budget).
    pub bits_used: u64,
    /// Predicted total transitions of the winner.
    pub transitions: u64,
    /// Total baseline transitions (for reduction arithmetic).
    pub baseline_transitions: u64,
}

impl AutoSelection {
    /// Percentage of bus transitions eliminated by the selection.
    pub fn reduction_percent(&self) -> f64 {
        if self.baseline_transitions == 0 {
            return 0.0;
        }
        (self.baseline_transitions as f64 - self.transitions as f64)
            / self.baseline_transitions as f64
            * 100.0
    }

    /// The composite's descriptor (whole-bus winners are described by
    /// their own scheme's descriptor).
    pub fn descriptor(&self) -> SchemeDescriptor {
        let mut lanes = [0u8; 32];
        for (slot, choice) in lanes.iter_mut().zip(&self.lanes) {
            *slot = choice.tag();
        }
        SchemeDescriptor::Composite { lanes }
    }
}

/// Splits a TT/BBIT schedule's storage bill into the per-lane price and
/// the fixed overhead for [`LaneCosts`]: each lane that keeps its TT
/// column pays `tt_entries × ⌈log₂ transforms⌉` control bits; the BBIT
/// and the E/CT delimiter columns are charged once if any lane does.
/// Returns `(tt_lane_bits, tt_fixed_bits)`; the two satisfy
/// `tt_fixed_bits + 32 × tt_lane_bits == HardwareBudget::total_bits()`.
pub fn tt_lane_split(encoded: &EncodedProgram) -> (u64, u64) {
    let budget = crate::hardware::HardwareBudget::of_schedule(encoded);
    let transforms = encoded.config.transforms().len();
    let control_bits = u64::from(usize::BITS - transforms.saturating_sub(1).leading_zeros());
    let tt_lane_bits = budget.tt_entries as u64 * control_bits;
    let tt_fixed_bits = budget.total_bits() - BUS_WIDTH as u64 * tt_lane_bits;
    (tt_lane_bits, tt_fixed_bits)
}

/// Exact multiple-choice knapsack over the per-lane options, compared
/// against every affordable whole-bus candidate. Ties prefer the
/// composite, then fewer storage bits.
///
/// The composite side runs the bit-budget DP twice — once without TT
/// lanes (no fixed cost) and once with the TT fixed cost pre-charged —
/// and keeps the better; whole-bus candidates with `storage_bits` over
/// budget are excluded. The result never exceeds `budget_bits`.
pub fn auto_select(
    costs: &LaneCosts,
    whole_bus: &[WholeBusCandidate],
    budget_bits: u64,
) -> AutoSelection {
    let baseline_transitions: u64 = costs.baseline.iter().sum();
    // Pass 1: no TT anywhere — every option is free, pick per-lane min.
    let free: Vec<LaneChoice> = costs
        .baseline
        .iter()
        .zip(&costs.gray)
        .map(|(&base, &gray)| {
            if gray < base {
                LaneChoice::Gray
            } else {
                LaneChoice::Baseline
            }
        })
        .collect();
    let free_transitions: u64 = free
        .iter()
        .zip(costs.baseline.iter().zip(&costs.gray))
        .map(|(choice, (&base, &gray))| match choice {
            LaneChoice::Gray => gray,
            _ => base,
        })
        .sum();
    let mut best_lanes = free;
    let mut best_transitions = free_transitions;
    let mut best_bits = 0u64;

    // Pass 2: TT active — pay the fixed cost, then a 0/1 choice per
    // lane between the free floor and the TT column, solved exactly by
    // a dense DP over the remaining bit budget.
    if budget_bits >= costs.tt_fixed_bits && costs.tt_lane_bits > 0 {
        let cap_bits = budget_bits - costs.tt_fixed_bits;
        // Beyond 32 TT lanes there is nothing left to buy.
        let cap = usize::try_from(cap_bits.min(32 * costs.tt_lane_bits)).unwrap_or(usize::MAX);
        let lane_bits = usize::try_from(costs.tt_lane_bits).unwrap_or(usize::MAX);
        if lane_bits <= cap {
            let lanes = costs.baseline.len();
            // dp[c] = min transitions achievable with ≤ c bits.
            let mut dp = vec![0u64; cap + 1];
            let mut picked = vec![vec![false; cap + 1]; lanes];
            for (lane, lane_picked) in picked.iter_mut().enumerate() {
                let floor = costs.baseline[lane].min(costs.gray[lane]);
                let tt = costs.tt[lane];
                let prev = dp.clone();
                for c in 0..=cap {
                    let without = prev[c] + floor;
                    let with = if c >= lane_bits {
                        prev[c - lane_bits].saturating_add(tt)
                    } else {
                        u64::MAX
                    };
                    if with < without {
                        dp[c] = with;
                        lane_picked[c] = true;
                    } else {
                        dp[c] = without;
                    }
                }
            }
            let mut lanes_choice = Vec::with_capacity(lanes);
            let mut c = cap;
            for lane in (0..lanes).rev() {
                if picked[lane][c] {
                    lanes_choice.push(LaneChoice::Tt);
                    c -= lane_bits;
                } else if costs.gray[lane] < costs.baseline[lane] {
                    lanes_choice.push(LaneChoice::Gray);
                } else {
                    lanes_choice.push(LaneChoice::Baseline);
                }
            }
            lanes_choice.reverse();
            let tt_lanes = lanes_choice
                .iter()
                .filter(|&&ch| ch == LaneChoice::Tt)
                .count() as u64;
            if tt_lanes > 0 && dp[cap] < best_transitions {
                best_lanes = lanes_choice;
                best_transitions = dp[cap];
                best_bits = costs.tt_fixed_bits + tt_lanes * costs.tt_lane_bits;
            }
        }
    }

    // Whole-bus candidates: strictly better transitions win (composite
    // preferred on ties).
    let mut selection = AutoSelection {
        lanes: best_lanes,
        whole_bus: None,
        bits_used: best_bits,
        transitions: best_transitions,
        baseline_transitions,
    };
    for candidate in whole_bus {
        if candidate.storage_bits <= budget_bits && candidate.transitions < selection.transitions {
            selection.whole_bus = Some(candidate.name);
            selection.bits_used = candidate.storage_bits;
            selection.transitions = candidate.transitions;
        }
    }
    selection
}

/// Assembles the composite stored image: each lane's column comes from
/// its chosen donor image.
pub fn composite_image(
    text: &[u32],
    tt_image: &[u32],
    gray: &[u32],
    lanes: &[LaneChoice],
) -> Vec<u32> {
    let mut tt_mask = 0u32;
    let mut gray_mask = 0u32;
    for (lane, choice) in lanes.iter().enumerate() {
        match choice {
            LaneChoice::Tt => tt_mask |= 1 << lane,
            LaneChoice::Gray => gray_mask |= 1 << lane,
            LaneChoice::Baseline => {}
        }
    }
    text.iter()
        .zip(tt_image.iter().zip(gray))
        .map(|(&orig, (&tt, &g))| {
            (orig & !(tt_mask | gray_mask)) | (tt & tt_mask) | (g & gray_mask)
        })
        .collect()
}

/// Statically verifies that the composite image decodes to the original
/// text through the real hardware models: TT lanes run the TT/BBIT span
/// walk (the donor's own decode proof) over the *composite* words
/// (per-lane decode is lane-local given the PC-driven walker), Gray lanes
/// ripple from the already-restored higher lane, baseline lanes pass
/// through.
///
/// Sound under the same precondition as the donor's replay: every
/// dynamic entry into a scheduled block lands on its start PC, which
/// the donor TT evaluation has already checked against the profile.
///
/// # Errors
///
/// [`CoreError::DecodeMismatch`] on the first word that fails;
/// [`CoreError::TableImage`] on length mismatches.
pub fn verify_composite_decode(
    program: &Program,
    encoded: &EncodedProgram,
    composite: &[u32],
    lanes: &[LaneChoice],
) -> Result<(), CoreError> {
    let text_len = program.text.len();
    if composite.len() != text_len {
        return Err(CoreError::TableImage {
            detail: "composite image length differs from the program text",
        });
    }
    // TT-decode every composite word along the span walk; outside spans
    // the decoder passes words through untouched.
    let tt_decoded = walk_spans(encoded, composite, |_, _, _| Ok(()))?;
    for index in 0..text_len {
        let stored = composite[index];
        let mut decoded = 0u32;
        for lane in (0..lanes.len().min(32)).rev() {
            let bit = match lanes[lane] {
                LaneChoice::Tt => (tt_decoded[index] >> lane) & 1,
                LaneChoice::Baseline => (stored >> lane) & 1,
                LaneChoice::Gray => {
                    let higher = if lane == 31 {
                        0
                    } else {
                        (decoded >> (lane + 1)) & 1
                    };
                    ((stored >> lane) & 1) ^ higher
                }
            };
            decoded |= bit << lane;
        }
        if decoded != program.text[index] {
            return Err(CoreError::DecodeMismatch {
                pc: program.text_base + 4 * index as u32,
                decoded,
                expected: program.text[index],
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, evaluate_replay, weighted_transitions, FullSimReason};
    use imt_isa::asm::assemble;
    use proptest::prelude::*;

    const LOOP_PROGRAM: &str = r#"
            .text
    main:   li   $t0, 500
    loop:   xor  $t1, $t1, $t0
            sll  $t2, $t1, 3
            srl  $t3, $t1, 7
            addu $t4, $t2, $t3
            subu $t5, $t3, $t2
            and  $t6, $t4, $t5
            addiu $t0, $t0, -1
            bgtz $t0, loop
            move $a0, $t6
            li   $v0, 1
            syscall
            li   $v0, 10
            syscall
    "#;

    const MAX_STEPS: u64 = 10_000_000;

    fn fixture() -> (Program, FetchEdgeProfile) {
        let program = assemble(LOOP_PROGRAM).expect("assembly failed");
        let profile = FetchEdgeProfile::record(&program, MAX_STEPS).expect("record failed");
        (program, profile)
    }

    #[test]
    fn bus_invert_replay_is_refused() {
        let (program, profile) = fixture();
        let scheme = BusInvertScheme::new(&program);
        let err = evaluate_replay(&program, &scheme, &profile)
            .expect_err("cycle-state replay must be refused");
        assert!(
            matches!(err, CoreError::ReplayInfeasible { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn bus_invert_auto_routes_to_full_sim() {
        let (program, profile) = fixture();
        let scheme = BusInvertScheme::new(&program);
        let (eval, path) = evaluate_auto(
            &program,
            &scheme,
            MAX_STEPS,
            Some(&profile),
            EvalNeeds::transitions_only(),
        )
        .expect("full sim succeeds");
        assert_eq!(path, EvalPath::FullSim(FullSimReason::ReplayInfeasible));
        assert_eq!(eval.decode_mismatches, 0);
        // Bus-invert never *adds* data transitions; with the invert line
        // charged it stays within one flip per word of baseline.
        assert!(eval.encoded_transitions <= eval.baseline_transitions + eval.fetches);
        // The invert line is the only extra line, and it switched.
        assert!(eval.extra_line_transitions() > 0);
    }

    #[test]
    fn memoryless_schemes_replay_equals_full_sim() {
        let (program, profile) = fixture();
        let per_index = profile.per_index_counts();
        for spec in [
            SchemeSpec::Gray,
            SchemeSpec::LowWeight {
                entries: SchemeSpec::DEFAULT_LOW_WEIGHT_ENTRIES,
            },
        ] {
            let scheme = build_scheme(spec, &program, &per_index, &EncoderConfig::default())
                .expect("build succeeds");
            let replayed =
                evaluate_replay(&program, scheme.as_ref(), &profile).expect("replay succeeds");
            let full = evaluate(&program, scheme.as_ref(), MAX_STEPS).expect("full sim succeeds");
            assert_eq!(replayed, full, "{}", spec.name());
            assert_eq!(replayed.extra_line_transitions(), 0, "{}", spec.name());
        }
    }

    #[test]
    fn tt_built_by_the_registry_is_the_pipeline_encoding() {
        let (program, profile) = fixture();
        let per_index = profile.per_index_counts();
        let config = EncoderConfig::default();
        let built = build_scheme(SchemeSpec::TtBbit, &program, &per_index, &config)
            .expect("build succeeds");
        let encoded = encode_program(&program, &per_index, &config).expect("encode succeeds");
        assert_eq!(built.stored_image(), encoded.stored_image());
        assert_eq!(built.descriptor(), encoded.descriptor());
        assert_eq!(built.cost(), encoded.cost());
        assert_eq!(
            evaluate_replay(&program, built.as_ref(), &profile),
            evaluate_replay(&program, &encoded, &profile)
        );
    }

    #[test]
    fn decode_proofs_mark_what_replay_needs() {
        let (program, profile) = fixture();
        let per_index = profile.per_index_counts();
        let encoded = encode_program(&program, &per_index, &EncoderConfig::default())
            .expect("encode succeeds");
        let proof = encoded.verify_decode(&program).expect("TT decodes");
        let hot = &encoded.report.encoded[0];
        let start = (hot.start_pc - encoded.text_base) as usize / 4;
        // A block's start may be entered from anywhere; its interior only
        // from its predecessor. Every member decodes through the TT.
        assert!(proof.decoded[start] && !proof.sequential_only[start]);
        assert!(proof.decoded[start + 1] && proof.sequential_only[start + 1]);
        assert!(!proof.decoded[0] && !proof.sequential_only[0]);

        let gray = GrayScheme::new(&program);
        let proof = gray.verify_decode(&program).expect("gray decodes");
        assert!(proof.sequential_only.iter().all(|&only| !only));
        for (index, &decoded) in proof.decoded.iter().enumerate() {
            assert_eq!(decoded, gray.stored_image()[index] != program.text[index]);
        }
    }

    #[test]
    fn composite_decodes_and_scores_exactly() {
        let (program, profile) = fixture();
        let per_index = profile.per_index_counts();
        let config = EncoderConfig::default();
        let encoded = encode_program(&program, &per_index, &config).expect("encode succeeds");
        let tt_eval = evaluate_replay(&program, &encoded, &profile).expect("replay succeeds");
        let gray = GrayScheme::new(&program);
        let (_, gray_lanes) = weighted_transitions(gray.stored_image(), &profile);
        let budget = crate::hardware::HardwareBudget::of_schedule(&encoded);
        let (tt_lane_bits, tt_fixed_bits) = tt_lane_split(&encoded);
        assert_eq!(
            tt_fixed_bits + BUS_WIDTH as u64 * tt_lane_bits,
            budget.total_bits()
        );
        let costs = LaneCosts {
            baseline: tt_eval.per_lane_baseline.clone(),
            tt: tt_eval.per_lane_encoded.clone(),
            gray: gray_lanes,
            tt_lane_bits,
            tt_fixed_bits,
        };
        let selection = auto_select(&costs, &[], budget.total_bits());
        assert!(selection.bits_used <= budget.total_bits());
        let composite = composite_image(
            &program.text,
            &encoded.text,
            gray.stored_image(),
            &selection.lanes,
        );
        verify_composite_decode(&program, &encoded, &composite, &selection.lanes)
            .expect("composite decodes");
        let (measured, _) = weighted_transitions(&composite, &profile);
        assert_eq!(measured, selection.transitions, "DP prediction is exact");
        // With the full budget the composite is at least as good as the
        // whole-bus TT image.
        assert!(selection.transitions <= tt_eval.encoded_transitions);
    }

    #[test]
    fn knapsack_budget_zero_buys_only_free_lanes() {
        let costs = LaneCosts {
            baseline: vec![100; 32],
            tt: vec![10; 32],
            gray: vec![120; 32],
            tt_lane_bits: 3,
            tt_fixed_bits: 50,
        };
        let selection = auto_select(&costs, &[], 0);
        assert_eq!(selection.bits_used, 0);
        assert!(selection.lanes.iter().all(|&c| c == LaneChoice::Baseline));
        assert_eq!(selection.transitions, 3200);
    }

    #[test]
    fn knapsack_budget_for_exactly_one_lane() {
        let mut baseline = vec![100u64; 32];
        baseline[7] = 500; // lane 7 has the biggest TT gain
        let costs = LaneCosts {
            baseline,
            tt: vec![10; 32],
            gray: vec![u64::MAX >> 1; 32],
            tt_lane_bits: 3,
            tt_fixed_bits: 50,
        };
        let selection = auto_select(&costs, &[], 53);
        assert_eq!(selection.bits_used, 53);
        let tt_lanes: Vec<usize> = selection
            .lanes
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == LaneChoice::Tt)
            .map(|(l, _)| l)
            .collect();
        assert_eq!(tt_lanes, vec![7]);
    }

    #[test]
    fn knapsack_all_lanes_affordable_takes_every_win() {
        let costs = LaneCosts {
            baseline: vec![100; 32],
            tt: vec![10; 32],
            gray: vec![90; 32],
            tt_lane_bits: 3,
            tt_fixed_bits: 50,
        };
        let selection = auto_select(&costs, &[], 1_000_000);
        assert!(selection.lanes.iter().all(|&c| c == LaneChoice::Tt));
        assert_eq!(selection.bits_used, 50 + 32 * 3);
        assert_eq!(selection.transitions, 320);
    }

    #[test]
    fn whole_bus_candidate_wins_only_when_strictly_better_and_affordable() {
        let costs = LaneCosts {
            baseline: vec![100; 32],
            tt: vec![50; 32],
            gray: vec![100; 32],
            tt_lane_bits: 3,
            tt_fixed_bits: 50,
        };
        let cheap_win = WholeBusCandidate {
            name: "lowweight",
            storage_bits: 10,
            transitions: 1_000,
        };
        let unaffordable = WholeBusCandidate {
            name: "huge",
            storage_bits: 10_000,
            transitions: 0,
        };
        let selection = auto_select(&costs, &[cheap_win, unaffordable], 200);
        assert_eq!(selection.whole_bus, Some("lowweight"));
        assert_eq!(selection.bits_used, 10);
        assert_eq!(selection.transitions, 1_000);
    }

    proptest! {
        #[test]
        fn selection_never_exceeds_budget(
            baseline in proptest::collection::vec(0u64..10_000, 32),
            tt in proptest::collection::vec(0u64..10_000, 32),
            gray in proptest::collection::vec(0u64..10_000, 32),
            tt_bits in (1u64..64, 0u64..512),
            budget in 0u64..4096,
            wb in (0u64..4096, 0u64..100_000),
        ) {
            let (tt_lane_bits, tt_fixed_bits) = tt_bits;
            let costs = LaneCosts { baseline, tt, gray, tt_lane_bits, tt_fixed_bits };
            let candidate = WholeBusCandidate {
                name: "wb", storage_bits: wb.0, transitions: wb.1,
            };
            let selection = auto_select(&costs, &[candidate], budget);
            prop_assert!(selection.bits_used <= budget);
            // The free floor is always available, so the selection can
            // never be worse than it.
            let floor: u64 = costs.baseline.iter().zip(&costs.gray)
                .map(|(&b, &g)| b.min(g)).sum();
            prop_assert!(selection.transitions <= floor);
        }
    }

    #[test]
    fn descriptor_round_trips() {
        let descriptors = [
            SchemeDescriptor::TtBbit {
                block_size: 5,
                overlap: 0,
                transform_mask: imt_bitcode::TransformSet::CANONICAL_EIGHT.mask(),
                tt_capacity: 16,
                bbit_capacity: 16,
            },
            SchemeDescriptor::Gray,
            SchemeDescriptor::LowWeight {
                pairs: vec![(0xDEAD_BEEF, 1), (0xFFFF_0000, 2)],
            },
            SchemeDescriptor::BusInvert { width: 32 },
            SchemeDescriptor::Composite { lanes: [1; 32] },
        ];
        for descriptor in descriptors {
            let bytes = descriptor.to_bytes();
            let back = SchemeDescriptor::from_bytes(&bytes).expect("round trip parses");
            assert_eq!(back, descriptor);
        }
    }

    #[test]
    fn descriptor_rejects_bad_magic_and_version() {
        let mut bytes = SchemeDescriptor::Gray.to_bytes();
        bytes[0] ^= 1;
        assert_eq!(
            SchemeDescriptor::from_bytes(&bytes)
                .expect_err("bad magic")
                .detail,
            "bad magic"
        );
        let mut bytes = SchemeDescriptor::Gray.to_bytes();
        bytes[8] = 99;
        assert_eq!(
            SchemeDescriptor::from_bytes(&bytes)
                .expect_err("bad version")
                .detail,
            "unsupported scheme format version"
        );
    }
}
