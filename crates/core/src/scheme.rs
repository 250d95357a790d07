//! The encoder arena: pluggable bus-encoding schemes behind one trait.
//!
//! The paper's TT/BBIT transformation is one point in the low-power
//! instruction-bus encoding design space. This module defines the
//! [`Encoder`] trait — encode, decode, hardware cost, transition delta,
//! plus a serializable [`SchemeDescriptor`] — and implements four
//! competitors behind it:
//!
//! * [`TtBbitScheme`] — the paper's scheme, wrapping the existing
//!   [`crate::encode_program`] / [`crate::eval::evaluate_replay`] pipeline unchanged,
//!   so every number it reports stays byte-identical to the committed
//!   results.
//! * [`GrayScheme`] — memoryless Gray word sequencing
//!   (`w ^ (w >> 1)`), zero storage, a 31-XOR restore ripple.
//! * [`LowWeightScheme`] — a Chee & Colbourn-style memoryless
//!   low-weight codebook: a small CAM maps the hottest words to
//!   light codewords guaranteed absent from the text.
//! * [`BusInvertScheme`] — Stan & Burleson bus-invert: memory is
//!   untouched, the drive decision depends on the live bus state.
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
//! * `BlockState` — per-block decoder state (TT/BBIT); replayable under
//!   the single-entry span check of [`crate::eval::evaluate_replay`].
//! * `CycleState` — the driven bus depends on unbounded fetch history
//!   (bus-invert); **never** replayable. [`evaluate_scheme_replay`]
//!   refuses with [`CoreError::ReplayInfeasible`], and
//!   [`evaluate_scheme_auto`] routes to full simulation.
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

use std::borrow::Borrow;

use imt_bitcode::businvert::BusInvertState;
use imt_bitcode::gray::{gray_image, ungray_word};
use imt_bitcode::lowweight::LowWeightBook;
use imt_isa::program::Program;
use imt_sim::bus::DataBusMonitor;
use imt_sim::cpu::{Cpu, FetchSink};
use imt_sim::edge::FetchEdgeProfile;

use crate::error::CoreError;
use crate::eval::{
    evaluate, pc_to_index, route, run_buffer, verify_spans, DecodeCheck, EvalNeeds, EvalPath,
    Evaluation, ReplayBasis,
};
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
    /// single-entry span check of [`crate::eval::evaluate_replay`].
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

/// One full-simulation fetch through a scheme's bus model: what the
/// receiver restores, what physically sits on the data lines, and any
/// extra-control-line activity this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimFetch {
    /// The word the core sees after restore.
    pub restored: u32,
    /// Physical data-line state after this drive (a monitor over these
    /// reproduces the scheme's data transitions exactly).
    pub driven: u32,
    /// Transitions on extra control lines (invert line) this cycle.
    pub extra_transitions: u64,
}

/// A built encoding of one program: the arena's pluggable surface.
///
/// Implementations are constructed by [`build_scheme`]. Evaluation goes
/// through [`evaluate_scheme_replay`] / [`evaluate_scheme_full`] /
/// [`evaluate_scheme_auto`], which route on [`Encoder::replay_class`]
/// and [`Encoder::as_tt`] — the TT/BBIT implementor delegates to the
/// original [`evaluate`] / [`crate::eval::evaluate_replay`] pipeline unchanged, so
/// its numbers stay byte-identical to the pre-arena results.
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

    /// Per-word restore for [`ReplayClass::Memoryless`] schemes. Block-
    /// and cycle-state schemes keep the identity default; their decode
    /// is verified by their own paths ([`crate::eval::evaluate_replay`]'s span walk,
    /// the full-simulation drive model).
    fn decode_word(&self, stored: u32) -> u32 {
        stored
    }

    /// Statically verify that the stored image restores to
    /// `program.text` exactly.
    ///
    /// # Errors
    ///
    /// [`CoreError::DecodeMismatch`] on the first word that fails, and
    /// [`CoreError::TableImage`] if the image length is wrong.
    fn verify_decode(&self, program: &Program) -> Result<(), CoreError> {
        if self.stored_image().len() != program.text.len() {
            return Err(CoreError::TableImage {
                detail: "stored image length differs from the program text",
            });
        }
        for (index, (&expected, &stored)) in
            program.text.iter().zip(self.stored_image()).enumerate()
        {
            let decoded = self.decode_word(stored);
            if decoded != expected {
                return Err(CoreError::DecodeMismatch {
                    pc: program.text_base + 4 * index as u32,
                    decoded,
                    expected,
                });
            }
        }
        Ok(())
    }

    /// Full-simulation fetch hook, stateful across a run ([`Encoder::reset`]
    /// returns to power-on state). The default models a static image:
    /// the stored word is driven as-is and restored per-word. Only
    /// cycle-state schemes override it; the TT/BBIT implementor never
    /// reaches it (evaluation routes through [`Encoder::as_tt`]).
    fn sim_fetch(&mut self, pc: u32, stored: u32) -> SimFetch {
        let _ = pc;
        SimFetch {
            restored: self.decode_word(stored),
            driven: stored,
            extra_transitions: 0,
        }
    }

    /// Full-simulation hook for a straight-line run of fetches from `pc`,
    /// `pc + 4`, …: writes each fetch's [`SimFetch::restored`] and
    /// [`SimFetch::driven`] word and returns the run's extra-line
    /// transitions. Must equal [`Encoder::sim_fetch`] on each fetch in
    /// order, which the default does; all three slices have one word per
    /// fetch. Full simulation makes one dynamic call per run here; the
    /// default's loop is compiled per scheme and calls `sim_fetch`
    /// statically.
    fn sim_run(
        &mut self,
        pc: u32,
        stored: &[u32],
        restored: &mut [u32],
        driven: &mut [u32],
    ) -> u64 {
        let mut extra = 0;
        for (i, ((&stored, restored), driven)) in
            stored.iter().zip(restored).zip(driven).enumerate()
        {
            let step = self.sim_fetch(pc.wrapping_add(4 * i as u32), stored);
            (*restored, *driven) = (step.restored, step.driven);
            extra += step.extra_transitions;
        }
        extra
    }

    /// Returns the bus model to power-on state.
    fn reset(&mut self);

    /// The TT/BBIT instance behind this scheme, when it is one — the
    /// evaluation routers delegate to the original (byte-identical)
    /// pipeline evaluators for it.
    fn as_tt(&self) -> Option<&EncodedProgram> {
        None
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
        SchemeSpec::TtBbit => Ok(Box::new(TtBbitScheme::new(encode_program(
            program, per_index, config,
        )?))),
        SchemeSpec::Gray => Ok(Box::new(GrayScheme::new(program))),
        SchemeSpec::LowWeight { entries } => {
            Ok(Box::new(LowWeightScheme::new(program, per_index, entries)))
        }
        SchemeSpec::BusInvert => Ok(Box::new(BusInvertScheme::new(program))),
    }
}

/// The paper's TT/BBIT transformation behind the arena trait: a thin
/// wrapper over [`EncodedProgram`] whose evaluation delegates to the
/// original pipeline evaluators (see [`Encoder::as_tt`]).
#[derive(Debug, Clone)]
pub struct TtBbitScheme {
    encoded: EncodedProgram,
}

impl TtBbitScheme {
    /// Wraps an already-encoded program.
    pub fn new(encoded: EncodedProgram) -> TtBbitScheme {
        TtBbitScheme { encoded }
    }

    /// The wrapped pipeline output.
    pub fn encoded(&self) -> &EncodedProgram {
        &self.encoded
    }
}

impl Encoder for TtBbitScheme {
    fn name(&self) -> &'static str {
        "tt"
    }

    fn replay_class(&self) -> ReplayClass {
        ReplayClass::BlockState
    }

    fn descriptor(&self) -> SchemeDescriptor {
        let config = &self.encoded.config;
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
        let budget = crate::hardware::HardwareBudget::of_schedule(&self.encoded);
        SchemeCost {
            storage_bits: budget.total_bits(),
            extra_lines: 0,
            restore_gates: budget.restore_gates,
        }
    }

    fn stored_image(&self) -> &[u32] {
        &self.encoded.text
    }

    fn verify_decode(&self, program: &Program) -> Result<(), CoreError> {
        // The span walk of the replay evaluator is the decode proof.
        verify_spans(program, &self.encoded).map(drop)
    }

    fn reset(&mut self) {}

    fn as_tt(&self) -> Option<&EncodedProgram> {
        Some(&self.encoded)
    }
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

    fn reset(&mut self) {}
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

    fn reset(&mut self) {}
}

/// Bus-invert coding: memory untouched, the drive decision depends on
/// the live bus state — the arena's canonical [`ReplayClass::CycleState`]
/// scheme.
#[derive(Debug, Clone)]
pub struct BusInvertScheme {
    text: Vec<u32>,
    state: BusInvertState,
}

impl BusInvertScheme {
    /// Wraps the program text (stored unchanged).
    pub fn new(program: &Program) -> BusInvertScheme {
        BusInvertScheme {
            text: program.text.clone(),
            state: BusInvertState::new(),
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

    // Inlined into the default `sim_run`, which full simulation calls
    // once per run: that loop is then one drive loop.
    #[inline]
    fn sim_fetch(&mut self, _pc: u32, stored: u32) -> SimFetch {
        let step = self.state.drive(stored);
        SimFetch {
            restored: BusInvertState::restore(&step),
            driven: step.bus,
            extra_transitions: step.invert_transitions,
        }
    }

    fn reset(&mut self) {
        self.state = BusInvertState::new();
    }
}

/// What a scheme evaluation reports: the common currency every arena
/// row is priced in. `encoded_transitions` includes any extra control
/// lines ([`SchemeEvaluation::extra_line_transitions`]), so per-lane
/// data counts sum to `encoded_transitions - extra_line_transitions`.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeEvaluation {
    /// Instructions fetched.
    pub fetches: u64,
    /// Transitions the unencoded bus would have had.
    pub baseline_transitions: u64,
    /// Transitions under the scheme, extra control lines included.
    pub encoded_transitions: u64,
    /// Per-data-lane baseline transitions (32 entries).
    pub per_lane_baseline: Vec<u64>,
    /// Per-data-lane encoded transitions (32 entries).
    pub per_lane_encoded: Vec<u64>,
    /// Transitions on extra control lines (bus-invert's invert line).
    pub extra_line_transitions: u64,
    /// Fetches whose stored word differed from the original (served by
    /// the restore logic rather than passing through).
    pub decoded_fetches: u64,
    /// Decode failures (always 0 on a successful evaluation — a
    /// mismatch is a typed error, never a silently wrong number).
    pub decode_mismatches: u64,
    /// Program exit code (behaviour must be unchanged).
    pub exit_code: i32,
    /// Program stdout (behaviour must be unchanged).
    pub stdout: String,
}

impl SchemeEvaluation {
    /// Percentage of bus transitions eliminated.
    pub fn reduction_percent(&self) -> f64 {
        if self.baseline_transitions == 0 {
            return 0.0;
        }
        (self.baseline_transitions as f64 - self.encoded_transitions as f64)
            / self.baseline_transitions as f64
            * 100.0
    }

    fn from_evaluation(eval: Evaluation) -> SchemeEvaluation {
        SchemeEvaluation {
            fetches: eval.fetches,
            baseline_transitions: eval.baseline_transitions,
            encoded_transitions: eval.encoded_transitions,
            per_lane_baseline: eval.per_lane_baseline,
            per_lane_encoded: eval.per_lane_encoded,
            extra_line_transitions: 0,
            decoded_fetches: eval.decoded_fetches,
            decode_mismatches: eval.decode_mismatches,
            exit_code: eval.exit_code,
            stdout: eval.stdout,
        }
    }

    /// Maps into the pipeline [`Evaluation`] shape carried by the serve
    /// and wire layers. `decoded_fetches`/`passthrough_fetches` keep the
    /// stored-word-differs convention; extra-line transitions stay
    /// folded into `encoded_transitions`.
    pub fn to_evaluation(&self) -> Evaluation {
        Evaluation {
            fetches: self.fetches,
            baseline_transitions: self.baseline_transitions,
            encoded_transitions: self.encoded_transitions,
            per_lane_baseline: self.per_lane_baseline.clone(),
            per_lane_encoded: self.per_lane_encoded.clone(),
            decode_mismatches: self.decode_mismatches,
            decoded_fetches: self.decoded_fetches,
            passthrough_fetches: self.fetches - self.decoded_fetches,
            exit_code: self.exit_code,
            stdout: self.stdout.clone(),
        }
    }
}

/// Scores `scheme` closed-form over a recorded edge profile.
///
/// This builds the profile's [`ReplayBasis`] and runs
/// [`evaluate_scheme_replay_with`] once.
///
/// # Errors
///
/// [`CoreError::ReplayInfeasible`] for [`ReplayClass::CycleState`]
/// schemes — their bus state depends on fetch *order*, which the edge
/// multiset does not witness — and whatever [`crate::eval::evaluate_replay`] reports
/// for the TT/BBIT scheme (including its own infeasibility check).
/// Memoryless schemes report [`CoreError::ProfileLength`] on a profile
/// for different text and [`CoreError::DecodeMismatch`] if the image
/// fails its per-word restore proof.
pub fn evaluate_scheme_replay(
    scheme: &dyn Encoder,
    program: &Program,
    profile: &FetchEdgeProfile,
) -> Result<SchemeEvaluation, CoreError> {
    if let Some(refusal) = replay_refusal(scheme, program) {
        return Err(refusal);
    }
    evaluate_scheme_replay_with(scheme, program, &ReplayBasis::new(program, profile)?)
}

/// [`evaluate_scheme_replay`] against a prebuilt [`ReplayBasis`]: the
/// TT/BBIT scheme goes through [`ReplayBasis::replay`], a memoryless
/// scheme is proven word by word and priced over the basis's edges.
///
/// # Errors
///
/// As [`evaluate_scheme_replay`]; [`CoreError::ProfileLength`] also when
/// `program` is not the length of the program the basis was built for.
pub fn evaluate_scheme_replay_with(
    scheme: &dyn Encoder,
    program: &Program,
    basis: &ReplayBasis,
) -> Result<SchemeEvaluation, CoreError> {
    if let Some(refusal) = replay_refusal(scheme, program) {
        return Err(refusal);
    }
    if let Some(encoded) = scheme.as_tt() {
        return Ok(SchemeEvaluation::from_evaluation(
            basis.replay(program, encoded)?,
        ));
    }
    basis.check_program(program)?;
    scheme.verify_decode(program)?;
    let stored = scheme.stored_image();
    let (encoded_transitions, per_lane_encoded) = basis.transitions(stored);
    let decoded_fetches: u64 = basis
        .per_index()
        .iter()
        .zip(program.text.iter().zip(stored))
        .filter(|&(_, (&orig, &s))| orig != s)
        .map(|(&count, _)| count)
        .sum();
    Ok(SchemeEvaluation::from_evaluation(basis.evaluation(
        encoded_transitions,
        per_lane_encoded,
        decoded_fetches,
    )))
}

/// Why `scheme` can never be replayed, whatever the profile: cycle-state
/// schemes depend on fetch order, and a block-state scheme is replayable
/// only as the TT/BBIT image.
fn replay_refusal(scheme: &dyn Encoder, program: &Program) -> Option<CoreError> {
    if scheme.as_tt().is_some() {
        return None;
    }
    match scheme.replay_class() {
        ReplayClass::CycleState => Some(CoreError::ReplayInfeasible {
            pc: program.text_base,
        }),
        ReplayClass::BlockState => Some(CoreError::TableImage {
            detail: "block-state scheme without a TT/BBIT image",
        }),
        ReplayClass::Memoryless => None,
    }
}

struct SchemeSink<'a> {
    scheme: &'a mut dyn Encoder,
    stored: &'a [u32],
    text_base: u32,
    baseline: DataBusMonitor,
    driven: DataBusMonitor,
    extra: u64,
    decoded_fetches: u64,
    check: DecodeCheck,
    /// The current run's restored and driven words.
    restored: Vec<u32>,
    driven_words: Vec<u32>,
}

impl FetchSink for SchemeSink<'_> {
    fn on_fetch(&mut self, pc: u32, word: u32) {
        self.on_run(pc, std::slice::from_ref(&word));
    }

    /// Slices the stored image once per run and hands it to the scheme's
    /// run-level bus model and the run-level bus counters; every fetch is
    /// still restored and checked.
    #[inline]
    fn on_run(&mut self, pc: u32, words: &[u32]) {
        self.baseline.observe_run(words);
        let first = ((pc - self.text_base) / 4) as usize;
        let stored = &self.stored[first..first + words.len()];
        let restored = run_buffer(&mut self.restored, words.len());
        let driven = run_buffer(&mut self.driven_words, words.len());
        self.extra += self.scheme.sim_run(pc, stored, restored, driven);
        self.driven.observe_run(driven);
        self.decoded_fetches += stored.iter().zip(words).filter(|(s, w)| s != w).count() as u64;
        self.check.run(pc, restored, words);
    }
}

/// Scores `scheme` by full simulation, verifying the restore on every
/// fetch — the only sound path for [`ReplayClass::CycleState`] schemes.
///
/// # Errors
///
/// [`CoreError::Sim`] if the program faults or exceeds `max_steps`;
/// [`CoreError::DecodeMismatch`] if the restore is ever wrong.
pub fn evaluate_scheme_full(
    scheme: &mut dyn Encoder,
    program: &Program,
    max_steps: u64,
) -> Result<SchemeEvaluation, CoreError> {
    if let Some(encoded) = scheme.as_tt() {
        return Ok(SchemeEvaluation::from_evaluation(evaluate(
            program, encoded, max_steps,
        )?));
    }
    scheme.reset();
    let stored = scheme.stored_image().to_vec();
    let mut cpu = Cpu::new(program)?;
    let mut sink = SchemeSink {
        scheme,
        stored: &stored,
        text_base: program.text_base,
        baseline: DataBusMonitor::new(BUS_WIDTH),
        driven: DataBusMonitor::new(BUS_WIDTH),
        extra: 0,
        decoded_fetches: 0,
        check: DecodeCheck::default(),
        restored: Vec::new(),
        driven_words: Vec::new(),
    };
    let summary = cpu.run_with_sink(max_steps, &mut sink)?;
    sink.check.result()?;
    Ok(SchemeEvaluation {
        fetches: summary.instructions,
        baseline_transitions: sink.baseline.total_transitions(),
        encoded_transitions: sink.driven.total_transitions() + sink.extra,
        per_lane_baseline: sink.baseline.per_lane(),
        per_lane_encoded: sink.driven.per_lane(),
        extra_line_transitions: sink.extra,
        decoded_fetches: sink.decoded_fetches,
        decode_mismatches: sink.check.mismatches,
        exit_code: summary.exit_code,
        stdout: cpu.stdout().to_string(),
    })
}

/// Scheme-aware analogue of [`crate::eval::evaluate_auto`]: replays when
/// the scheme and the needs allow it, and routes everything else —
/// including every [`ReplayClass::CycleState`] scheme — to full
/// simulation with a typed reason. A per-cycle-state scheme can never be
/// silently scored by the stateless replay path.
///
/// A [`ReplayBasis`] is built from `profile` only when the route reaches
/// replay.
///
/// # Errors
///
/// Whatever the chosen path reports (other than
/// [`CoreError::ReplayInfeasible`], which falls back to full
/// simulation).
pub fn evaluate_scheme_auto(
    scheme: &mut dyn Encoder,
    program: &Program,
    max_steps: u64,
    profile: Option<&FetchEdgeProfile>,
    needs: EvalNeeds,
) -> Result<(SchemeEvaluation, EvalPath), CoreError> {
    let refusal = replay_refusal(scheme, program);
    let basis = profile.map(|profile| {
        move || match refusal {
            Some(refusal) => Err(refusal),
            None => ReplayBasis::new(program, profile),
        }
    });
    route_scheme(scheme, program, max_steps, basis, needs)
}

/// [`evaluate_scheme_auto`] with the replay basis already built: the same
/// route, with `basis` standing in for the profile it was built from.
///
/// # Errors
///
/// As [`evaluate_scheme_auto`].
pub fn evaluate_scheme_auto_with(
    scheme: &mut dyn Encoder,
    program: &Program,
    max_steps: u64,
    basis: Option<&ReplayBasis>,
    needs: EvalNeeds,
) -> Result<(SchemeEvaluation, EvalPath), CoreError> {
    let refusal = replay_refusal(scheme, program);
    let basis = basis.map(|basis| {
        move || match refusal {
            Some(refusal) => Err(refusal),
            None => Ok(basis),
        }
    });
    route_scheme(scheme, program, max_steps, basis, needs)
}

fn route_scheme<B: Borrow<ReplayBasis>>(
    scheme: &mut dyn Encoder,
    program: &Program,
    max_steps: u64,
    basis: Option<impl FnOnce() -> Result<B, CoreError>>,
    needs: EvalNeeds,
) -> Result<(SchemeEvaluation, EvalPath), CoreError> {
    route(
        scheme,
        needs,
        basis,
        |scheme, basis| evaluate_scheme_replay_with(&**scheme, program, basis),
        |scheme| evaluate_scheme_full(&mut **scheme, program, max_steps),
    )
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
/// text through the real hardware models: TT lanes run the
/// [`FetchDecoder`] span walk over the *composite* words (per-lane
/// decode is lane-local given the PC-driven walker), Gray lanes ripple
/// from the already-restored higher lane, baseline lanes pass through.
///
/// Sound under the same precondition as [`crate::eval::evaluate_replay`]: every
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
    let mut tt_decoded = composite.to_vec();
    let mut decoder = FetchDecoder::new(
        &encoded.tt,
        &encoded.bbit,
        BUS_WIDTH,
        encoded.config.block_size(),
        encoded.config.overlap(),
    );
    for (start_pc, end_pc) in decoder.scheduled_spans() {
        let start = pc_to_index(start_pc, encoded.text_base, text_len)?;
        let end = pc_to_index(end_pc.wrapping_sub(4), encoded.text_base, text_len)? + 1;
        decoder.reset();
        decoder.restore_run(
            start_pc,
            &composite[start..end],
            &mut tt_decoded[start..end],
        );
    }
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
    use crate::eval::{evaluate_auto, evaluate_replay, weighted_transitions, FullSimReason};
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
        let err = evaluate_scheme_replay(&scheme, &program, &profile)
            .expect_err("cycle-state replay must be refused");
        assert!(
            matches!(err, CoreError::ReplayInfeasible { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn bus_invert_auto_routes_to_full_sim() {
        let (program, profile) = fixture();
        let mut scheme = BusInvertScheme::new(&program);
        let (eval, path) = evaluate_scheme_auto(
            &mut scheme,
            &program,
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
            let mut scheme = build_scheme(spec, &program, &per_index, &EncoderConfig::default())
                .expect("build succeeds");
            let replayed = evaluate_scheme_replay(scheme.as_ref(), &program, &profile)
                .expect("replay succeeds");
            let full = evaluate_scheme_full(scheme.as_mut(), &program, MAX_STEPS)
                .expect("full sim succeeds");
            assert_eq!(replayed, full, "{}", spec.name());
        }
    }

    #[test]
    fn tt_under_the_trait_is_bit_identical_to_the_pipeline() {
        let (program, profile) = fixture();
        let per_index = profile.per_index_counts();
        let config = EncoderConfig::default();
        let scheme = build_scheme(SchemeSpec::TtBbit, &program, &per_index, &config)
            .expect("build succeeds");
        let via_trait =
            evaluate_scheme_replay(scheme.as_ref(), &program, &profile).expect("replay succeeds");
        let encoded = encode_program(&program, &per_index, &config).expect("encode succeeds");
        let (direct, path) = evaluate_auto(
            &program,
            &encoded,
            MAX_STEPS,
            Some(&profile),
            EvalNeeds::transitions_only(),
        )
        .expect("direct eval succeeds");
        assert_eq!(path, EvalPath::Replay);
        assert_eq!(via_trait, SchemeEvaluation::from_evaluation(direct));
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
