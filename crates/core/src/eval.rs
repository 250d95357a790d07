//! Dynamic evaluation: score an encoder against a real execution.
//!
//! This is the experiment of the paper's §8, for every scheme behind the
//! [`Encoder`] trait: run the program on the simulated core, stream every
//! fetch through two bus monitors — one fed the original words, one fed
//! what the scheme drives — and through the scheme's receiver-side
//! [`BusModel`] (for TT/BBIT, the [`crate::hardware::FetchDecoder`]
//! hardware model), checking bit-for-bit that the restored stream equals
//! the original instruction stream. An encoding that restores incorrectly
//! can therefore never report savings.
//!
//! The core hands the evaluation sink one straight-line run at a time. The
//! sink slices the stored image once per run; both monitors count the run
//! in one pass ([`DataBusMonitor::observe_run`]), the TT decoder restores
//! it segment by segment ([`crate::hardware::FetchDecoder::restore_run`])
//! and bus-invert drives it in one loop, so every fetch is still restored
//! and compared. The per-fetch pieces ([`DataBusMonitor::observe`],
//! [`crate::hardware::FetchDecoder::on_fetch`],
//! [`imt_bitcode::businvert::BusInvertState::drive`] and
//! [`Encoder::decode_word`]) stay as the reference that
//! `tests/run_stepped_eval.rs` pins the run path to.
//!
//! Two evaluation paths produce bit-identical [`Evaluation`]s:
//!
//! * [`evaluate`] — full simulation, O(dynamic fetches);
//! * [`evaluate_replay`] — closed-form replay over a recorded
//!   [`FetchEdgeProfile`], O(static edges): the transition totals are
//!   `Σ_edges weight(e) · popcount(stored[src] ^ stored[dst])`, and the
//!   restore is proven once statically ([`Encoder::verify_decode`]):
//!   per word for a memoryless image, once per scheduled block for
//!   TT/BBIT (sound because blocks are single-entry and a BBIT hit resets
//!   the decoder, so every traversal decodes identically). Cycle-state
//!   schemes (bus-invert) are refused.
//!
//! [`evaluate_auto`] picks between them from a typed [`EvalNeeds`]:
//! anything beyond data-bus transition counts (icache, timing, address
//! bus) requires the full simulator and is routed there explicitly.

use std::borrow::Borrow;

use imt_bitcode::businvert::BusInvertState;
use imt_isa::program::Program;
use imt_sim::bus::DataBusMonitor;
use imt_sim::cpu::{Cpu, FetchSink};
use imt_sim::edge::FetchEdgeProfile;

use crate::error::CoreError;
use crate::pipeline::BUS_WIDTH;
use crate::scheme::{BusModel, Encoder, ReplayClass};

/// Result of scoring one encoding against a run of its program.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Instructions fetched (= executed).
    pub fetches: u64,
    /// Total bus transitions with the original image — the paper's `#TR`.
    pub baseline_transitions: u64,
    /// Total bus transitions with the encoding, extra control lines
    /// included ([`Evaluation::extra_line_transitions`]).
    pub encoded_transitions: u64,
    /// Per-line baseline transitions.
    pub per_lane_baseline: Vec<u64>,
    /// Per-data-line encoded transitions.
    pub per_lane_encoded: Vec<u64>,
    /// Fetches whose restored word differed from the original (must be 0;
    /// also surfaced as an error by [`evaluate`]).
    pub decode_mismatches: u64,
    /// Fetches served by restore logic: for TT/BBIT, those decoded
    /// through an active schedule; for the other schemes, those whose
    /// stored word differs from the original.
    pub decoded_fetches: u64,
    /// Fetches that passed through untouched.
    pub passthrough_fetches: u64,
    /// Exit code of the simulated program.
    pub exit_code: i32,
    /// Everything the program printed.
    pub stdout: String,
}

impl Evaluation {
    /// Percentage of bus transitions eliminated (the paper's
    /// `Reduction(%)` rows in Figure 6); negative when the encoding adds
    /// transitions.
    pub fn reduction_percent(&self) -> f64 {
        if self.baseline_transitions == 0 {
            return 0.0;
        }
        (self.baseline_transitions as f64 - self.encoded_transitions as f64)
            / self.baseline_transitions as f64
            * 100.0
    }

    /// Transitions on extra control lines (bus-invert's invert line): the
    /// part of `encoded_transitions` no data lane carries.
    pub fn extra_line_transitions(&self) -> u64 {
        self.encoded_transitions
            .saturating_sub(self.per_lane_encoded.iter().sum::<u64>())
    }

    /// A copy, under the name of the former arena result's conversion.
    /// `imt_benchmark` calls it, and that harness changes only with the
    /// benchmark itself.
    pub fn to_evaluation(&self) -> Evaluation {
        self.clone()
    }
}

/// The decode check of full simulation and of the TT/BBIT span walk:
/// counts restored words that differ from the original and keeps the
/// first as the error.
#[derive(Debug, Default)]
pub(crate) struct DecodeCheck {
    pub(crate) mismatches: u64,
    first: Option<(u32, u32, u32)>,
}

impl DecodeCheck {
    /// Checks a run: `decoded[i]` against `expected[i]`, fetched from
    /// `pc + 4*i`.
    #[inline]
    pub(crate) fn run(&mut self, pc: u32, decoded: &[u32], expected: &[u32]) {
        if decoded == expected {
            return;
        }
        for (i, (&decoded, &expected)) in decoded.iter().zip(expected).enumerate() {
            if decoded != expected {
                self.mismatches += 1;
                let pc = pc.wrapping_add(4 * i as u32);
                self.first.get_or_insert((pc, decoded, expected));
            }
        }
    }

    /// [`CoreError::DecodeMismatch`] for the first failed fetch, if any.
    pub(crate) fn result(&self) -> Result<(), CoreError> {
        match self.first {
            Some((pc, decoded, expected)) => Err(CoreError::DecodeMismatch {
                pc,
                decoded,
                expected,
            }),
            None => Ok(()),
        }
    }
}

/// `buffer`'s first `len` words, growing it if needed: per-run scratch
/// space the sink reuses across runs.
fn run_buffer(buffer: &mut Vec<u32>, len: usize) -> &mut [u32] {
    if buffer.len() < len {
        buffer.resize(len, 0);
    }
    &mut buffer[..len]
}

struct EvalSink<'a> {
    stored: &'a [u32],
    text_base: u32,
    bus: BusModel,
    baseline: DataBusMonitor,
    encoded: DataBusMonitor,
    /// Transitions on extra control lines.
    extra: u64,
    /// Fetches whose stored word differs from the original: the decoded
    /// count of every bus model but the TT decoder, which keeps its own.
    differing: u64,
    check: DecodeCheck,
    /// The current run's restored and driven words.
    restored: Vec<u32>,
    driven: Vec<u32>,
}

impl FetchSink for EvalSink<'_> {
    fn on_fetch(&mut self, pc: u32, word: u32) {
        self.on_run(pc, std::slice::from_ref(&word));
    }

    /// Slices the stored image once per run and hands it to the bus model
    /// and the run-level bus counters; every fetch is still restored and
    /// checked.
    #[inline]
    fn on_run(&mut self, pc: u32, words: &[u32]) {
        let first = ((pc - self.text_base) / 4) as usize;
        let range = first..first + words.len();
        let stored = &self.stored[range.clone()];
        let (driven, restored): (&[u32], &[u32]) = match &mut self.bus {
            BusModel::Memoryless(image) => {
                self.differing += differing(stored, words);
                (stored, &image[range])
            }
            BusModel::Decoder(decoder) => {
                let restored = run_buffer(&mut self.restored, words.len());
                decoder.restore_run(pc, stored, restored);
                (stored, restored)
            }
            BusModel::BusInvert(state) => {
                let restored = run_buffer(&mut self.restored, words.len());
                let driven = run_buffer(&mut self.driven, words.len());
                self.extra += drive_inverted(state, stored, restored, driven);
                self.differing += differing(stored, words);
                (driven, restored)
            }
        };
        self.baseline.observe_run(words);
        self.encoded.observe_run(driven);
        self.check.run(pc, restored, words);
    }
}

/// Drives a run through bus-invert: writes each word's restored and
/// driven form and returns the invert line's transitions. Taking the
/// drive state and both outputs as separate `&mut` borrows lets the
/// state stay in registers across the loop; inside the sink, stores to
/// its buffers could alias it.
fn drive_inverted(
    state: &mut BusInvertState,
    stored: &[u32],
    restored: &mut [u32],
    driven: &mut [u32],
) -> u64 {
    let mut extra = 0;
    for ((&stored, restored), driven) in stored.iter().zip(restored).zip(driven) {
        let step = state.drive(stored);
        (*restored, *driven) = (BusInvertState::restore(&step), step.bus);
        extra += step.invert_transitions;
    }
    extra
}

/// How many of `stored` differ from the original `words`.
fn differing(stored: &[u32], words: &[u32]) -> u64 {
    stored.iter().zip(words).filter(|(s, w)| s != w).count() as u64
}

/// Runs `program` for up to `max_steps` instructions against `encoder`'s
/// stored image, driving every fetch through its bus model and verifying
/// the restore on every fetch — the only sound path for
/// [`ReplayClass::CycleState`] encoders.
///
/// # Errors
///
/// [`CoreError::TableImage`] if the stored image is not as long as the
/// program text, as replay refuses it;
/// [`CoreError::Sim`] if the program faults or exceeds `max_steps`;
/// [`CoreError::DecodeMismatch`] if the bus model ever restores a word
/// incorrectly (the evaluation numbers would be meaningless).
pub fn evaluate(
    program: &Program,
    encoder: &dyn Encoder,
    max_steps: u64,
) -> Result<Evaluation, CoreError> {
    let _span = imt_obs::span!("core.evaluate");
    if encoder.stored_image().len() != program.text.len() {
        return Err(CoreError::TableImage {
            detail: "encoded image length differs from the program text",
        });
    }
    let mut cpu = Cpu::new(program)?;
    let mut sink = EvalSink {
        stored: encoder.stored_image(),
        text_base: program.text_base,
        bus: encoder.bus_model(),
        baseline: DataBusMonitor::new(BUS_WIDTH),
        encoded: DataBusMonitor::new(BUS_WIDTH),
        extra: 0,
        differing: 0,
        check: DecodeCheck::default(),
        restored: Vec::new(),
        driven: Vec::new(),
    };
    let summary = cpu.run_with_sink(max_steps, &mut sink)?;
    sink.check.result()?;
    let (decoded_fetches, passthrough_fetches) = match &sink.bus {
        BusModel::Decoder(decoder) => (decoder.decoded_fetches(), decoder.passthrough_fetches()),
        _ => (sink.differing, summary.instructions - sink.differing),
    };
    let evaluation = Evaluation {
        fetches: summary.instructions,
        baseline_transitions: sink.baseline.total_transitions(),
        encoded_transitions: sink.encoded.total_transitions() + sink.extra,
        per_lane_baseline: sink.baseline.per_lane(),
        per_lane_encoded: sink.encoded.per_lane(),
        decode_mismatches: sink.check.mismatches,
        decoded_fetches,
        passthrough_fetches,
        exit_code: summary.exit_code,
        stdout: cpu.stdout().to_string(),
    };
    if imt_obs::enabled() {
        publish_eval_obs(&evaluation);
    }
    Ok(evaluation)
}

/// Replays a recorded fetch-edge profile against `encoder`'s stored image
/// in closed form — O(distinct edges) instead of O(dynamic fetches) — and
/// returns an [`Evaluation`] bit-identical to [`evaluate`]'s on the same
/// program.
///
/// The transition totals (total *and* per lane) are weighted sums over
/// the edge multiset of each edge's XOR word ([`weighted_transitions`]).
/// The restore is proven once statically ([`Encoder::verify_decode`]),
/// and the profile is checked to enter no index the proof marks
/// sequential-only (a TT/BBIT block's interior) — so the proof witnesses
/// every dynamic traversal, and a corrupted image or table is still
/// refused.
///
/// This builds the profile's [`ReplayBasis`] and runs
/// [`ReplayBasis::replay`] once; callers that score many encodings of one
/// program keep the basis.
///
/// # Errors
///
/// [`CoreError::ProfileLength`] if the profile covers a different text
/// length; [`CoreError::TableImage`] if the stored image is malformed;
/// [`CoreError::DecodeMismatch`] if the restore fails its proof;
/// [`CoreError::ReplayInfeasible`] for a [`ReplayClass::CycleState`]
/// encoder, or if the profile enters an encoded block mid-stream (fall
/// back to [`evaluate`]).
pub fn evaluate_replay(
    program: &Program,
    encoder: &dyn Encoder,
    profile: &FetchEdgeProfile,
) -> Result<Evaluation, CoreError> {
    ReplayBasis::new(program, profile)?.replay(program, encoder)
}

/// Everything replay needs from one (program, fetch-edge profile) pair
/// that no encoding changes: the edge multiset in scoring form, the
/// baseline totals (whole bus and per lane), the per-index fetch counts,
/// the indices the profile enters non-sequentially, and the run's
/// behaviour. Built once per recorded profile; every encoding of the
/// program is then scored against it by [`ReplayBasis::replay`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayBasis {
    text_len: usize,
    /// The weighted edges `(src, dst, weight)`, in profile order.
    edges: Vec<(usize, usize, u64)>,
    /// The seed, then every edge target not reached from its predecessor,
    /// in profile order without repeats: the fetches that can enter a span.
    entries: Vec<usize>,
    baseline_transitions: u64,
    per_lane_baseline: Vec<u64>,
    per_index: Vec<u64>,
    fetches: u64,
    exit_code: i32,
    stdout: String,
}

impl ReplayBasis {
    /// Scores `program`'s own text over `profile` and keeps what every
    /// later replay needs.
    ///
    /// # Errors
    ///
    /// [`CoreError::ProfileLength`] if the profile covers a different text
    /// length.
    pub fn new(program: &Program, profile: &FetchEdgeProfile) -> Result<ReplayBasis, CoreError> {
        let _span = imt_obs::span!("core.replay_basis");
        let text_len = program.text.len();
        if profile.text_len() != text_len {
            return Err(CoreError::ProfileLength {
                text_len,
                profile_len: profile.text_len(),
            });
        }
        let edges: Vec<_> = profile.edges().collect();
        let (baseline_transitions, per_lane_baseline) =
            lane_transitions(&program.text, edges.iter().copied());
        let mut seen = vec![false; text_len];
        let jumps = edges
            .iter()
            .filter(|&&(src, dst, _)| src + 1 != dst)
            .map(|&(_, dst, _)| dst);
        let entries = profile
            .seed_index()
            .into_iter()
            .chain(jumps)
            .filter(|&index| !std::mem::replace(&mut seen[index], true))
            .collect();
        Ok(ReplayBasis {
            text_len,
            edges,
            entries,
            baseline_transitions,
            per_lane_baseline,
            per_index: profile.per_index_counts(),
            fetches: profile.fetches(),
            exit_code: profile.exit_code(),
            stdout: profile.stdout().to_string(),
        })
    }

    /// Per-instruction execution counts of the recorded run (identical to
    /// [`FetchEdgeProfile::per_index_counts`]).
    pub fn per_index(&self) -> &[u64] {
        &self.per_index
    }

    /// [`evaluate_replay`] against this basis: the same refusal, decode
    /// proof and single-entry check and the same [`Evaluation`], with the
    /// baseline already counted.
    ///
    /// # Errors
    ///
    /// As [`evaluate_replay`]; [`CoreError::ProfileLength`] also when
    /// `program` is not the length of the program the basis was built for.
    pub fn replay(
        &self,
        program: &Program,
        encoder: &dyn Encoder,
    ) -> Result<Evaluation, CoreError> {
        let _span = imt_obs::span!("core.evaluate_replay");
        refuse_cycle_state(program, encoder)?;
        if program.text.len() != self.text_len {
            return Err(CoreError::ProfileLength {
                text_len: program.text.len(),
                profile_len: self.text_len,
            });
        }
        let proof = encoder.verify_decode(program)?;

        // The soundness precondition: the profile never enters an index
        // whose restore depends on its predecessor (single-entry basic
        // blocks). The recorded edges witness every entry, so this is
        // checkable exactly.
        if let Some(&index) = self
            .entries
            .iter()
            .find(|&&index| proof.sequential_only[index])
        {
            return Err(CoreError::ReplayInfeasible {
                pc: program.text_base + 4 * index as u32,
            });
        }

        // Closed-form transition counts over the weighted edge multiset.
        let (encoded_transitions, per_lane_encoded) =
            lane_transitions(encoder.stored_image(), self.edges.iter().copied());

        // Every fetch of an index the proof marks decoded goes through the
        // restore logic (block entries always via the BBIT'd start PC,
        // interiors always sequential — both just verified), so the
        // decoded/passthrough split follows from the per-index counts.
        let decoded_fetches: u64 = self
            .per_index
            .iter()
            .zip(&proof.decoded)
            .filter(|&(_, &decoded)| decoded)
            .map(|(&count, _)| count)
            .sum();

        let evaluation = Evaluation {
            fetches: self.fetches,
            baseline_transitions: self.baseline_transitions,
            encoded_transitions,
            per_lane_baseline: self.per_lane_baseline.clone(),
            per_lane_encoded,
            decode_mismatches: 0,
            decoded_fetches,
            passthrough_fetches: self.fetches - decoded_fetches,
            exit_code: self.exit_code,
            stdout: self.stdout.clone(),
        };
        if imt_obs::enabled() {
            imt_obs::counter!("core.eval.replays").inc();
            publish_eval_obs(&evaluation);
        }
        Ok(evaluation)
    }
}

/// [`CoreError::ReplayInfeasible`] for a [`ReplayClass::CycleState`]
/// encoder: its bus state depends on fetch *order*, which the edge
/// multiset does not witness, whatever the profile.
fn refuse_cycle_state(program: &Program, encoder: &dyn Encoder) -> Result<(), CoreError> {
    match encoder.replay_class() {
        ReplayClass::CycleState => Err(CoreError::ReplayInfeasible {
            pc: program.text_base,
        }),
        ReplayClass::Memoryless | ReplayClass::BlockState => Ok(()),
    }
}

/// Total and per-lane weighted transitions of `words` over the profile's
/// edge multiset: each edge's weight is added to every lane its XOR word
/// has set, one set bit at a time, and the total is the lanes' sum.
///
/// Public because the scheme arena ([`crate::scheme`]) prices assembled
/// images that no encoder stores — the per-lane composites — in the same
/// closed-form currency. A [`ReplayBasis`] keeps the edges, so replay
/// does not re-read the profile.
pub fn weighted_transitions(words: &[u32], profile: &FetchEdgeProfile) -> (u64, Vec<u64>) {
    lane_transitions(words, profile.edges())
}

fn lane_transitions(
    words: &[u32],
    edges: impl IntoIterator<Item = (usize, usize, u64)>,
) -> (u64, Vec<u64>) {
    let mut per_lane = vec![0u64; BUS_WIDTH];
    for (src, dst, weight) in edges {
        let mut diff = words[src] ^ words[dst];
        while diff != 0 {
            per_lane[diff.trailing_zeros() as usize] += weight;
            diff &= diff - 1;
        }
    }
    (per_lane.iter().sum(), per_lane)
}

/// What an evaluation's caller needs beyond data-bus transition counts.
/// Replay covers transitions only; everything else requires the full
/// simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalNeeds {
    /// Instruction-cache statistics (hit rates, hierarchy traffic).
    pub icache: bool,
    /// Front-end timing (redirect bubbles, stall cycles).
    pub timing: bool,
    /// Address-bus transition counts.
    pub address_bus: bool,
}

impl EvalNeeds {
    /// Data-bus transition counts only — the replay-eligible need set.
    pub const fn transitions_only() -> EvalNeeds {
        EvalNeeds {
            icache: false,
            timing: false,
            address_bus: false,
        }
    }

    /// Why these needs force full simulation, if they do.
    pub fn full_sim_reason(self) -> Option<FullSimReason> {
        if self.icache {
            Some(FullSimReason::Icache)
        } else if self.timing {
            Some(FullSimReason::Timing)
        } else if self.address_bus {
            Some(FullSimReason::AddressBus)
        } else {
            None
        }
    }
}

/// Why [`evaluate_auto`] took the full-simulation path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FullSimReason {
    /// Instruction-cache statistics were requested.
    Icache,
    /// Front-end timing was requested.
    Timing,
    /// Address-bus statistics were requested.
    AddressBus,
    /// No fetch-edge profile was supplied.
    NoProfile,
    /// Replay cannot score this encoding over this profile
    /// ([`CoreError::ReplayInfeasible`]): a cycle-state encoder, or a
    /// profile that enters an encoded block mid-stream.
    ReplayInfeasible,
}

/// Which path [`evaluate_auto`] took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalPath {
    /// Closed-form replay over the edge profile.
    Replay,
    /// Full simulation, and why.
    FullSim(FullSimReason),
}

/// Evaluates via replay when `needs` and the encoder allow it and a
/// profile is available, falling back to full simulation otherwise — the
/// two paths return bit-identical [`Evaluation`]s, so callers choose on
/// cost, not result. A [`ReplayClass::CycleState`] encoder always goes to
/// full simulation, so it can never be silently scored by the stateless
/// replay path.
///
/// A [`ReplayBasis`] is built from `profile` only when the route reaches
/// replay.
///
/// # Errors
///
/// As [`evaluate`] / [`evaluate_replay`] (a replay-infeasible encoder or
/// profile is not an error: it falls back to full simulation).
pub fn evaluate_auto(
    program: &Program,
    encoder: &dyn Encoder,
    max_steps: u64,
    profile: Option<&FetchEdgeProfile>,
    needs: EvalNeeds,
) -> Result<(Evaluation, EvalPath), CoreError> {
    let basis = profile.map(|profile| move || ReplayBasis::new(program, profile));
    route(program, encoder, max_steps, needs, basis)
}

/// [`evaluate_auto`] with the replay basis already built: the same route,
/// with `basis` standing in for the profile it was built from.
///
/// # Errors
///
/// As [`evaluate_auto`].
pub fn evaluate_auto_with(
    program: &Program,
    encoder: &dyn Encoder,
    max_steps: u64,
    basis: Option<&ReplayBasis>,
    needs: EvalNeeds,
) -> Result<(Evaluation, EvalPath), CoreError> {
    let basis = basis.map(|basis| move || Ok(basis));
    route(program, encoder, max_steps, needs, basis)
}

/// The route both auto evaluators take: full simulation when `needs`
/// demand it or no basis can be had; otherwise replay over the basis
/// (obtained only now, and not at all for a cycle-state encoder), falling
/// back to full simulation when replay is infeasible.
fn route<B: Borrow<ReplayBasis>>(
    program: &Program,
    encoder: &dyn Encoder,
    max_steps: u64,
    needs: EvalNeeds,
    basis: Option<impl FnOnce() -> Result<B, CoreError>>,
) -> Result<(Evaluation, EvalPath), CoreError> {
    let full = |reason| {
        Ok((
            evaluate(program, encoder, max_steps)?,
            EvalPath::FullSim(reason),
        ))
    };
    if let Some(reason) = needs.full_sim_reason() {
        return full(reason);
    }
    let Some(basis) = basis else {
        return full(FullSimReason::NoProfile);
    };
    let replayed = refuse_cycle_state(program, encoder)
        .and_then(|()| basis())
        .and_then(|basis| basis.borrow().replay(program, encoder));
    match replayed {
        Ok(evaluation) => Ok((evaluation, EvalPath::Replay)),
        Err(CoreError::ReplayInfeasible { .. }) => full(FullSimReason::ReplayInfeasible),
        Err(e) => Err(e),
    }
}

/// Publishes one evaluation under the thread's current context label:
/// labelled transition gauges plus a structured `eval` event carrying the
/// per-lane breakdown and the extra-line transitions (validated
/// lanes-plus-extra-equals-total by `imt obs check`). Both evaluation
/// paths publish the same metrics, including the bus gauges
/// [`DataBusMonitor::publish_obs`] would emit.
fn publish_eval_obs(eval: &Evaluation) {
    use imt_obs::json::Json;
    let label = imt_obs::current_label();
    imt_obs::counter!("core.eval.runs").inc();
    imt_obs::counter!("core.eval.fetches").add(eval.fetches);
    imt_obs::gauge_labeled("core.eval.baseline_transitions", &label).set(eval.baseline_transitions);
    imt_obs::gauge_labeled("core.eval.encoded_transitions", &label).set(eval.encoded_transitions);
    for (suffix, words, transitions) in [
        ("baseline", eval.fetches, eval.baseline_transitions),
        ("encoded", eval.fetches, eval.encoded_transitions),
    ] {
        let bus_label = format!("{label}/{suffix}");
        imt_obs::gauge_labeled("sim.bus.words", &bus_label).set(words);
        imt_obs::gauge_labeled("sim.bus.transitions", &bus_label).set(transitions);
    }
    imt_obs::event(
        "eval",
        label,
        Json::obj(vec![
            ("fetches", Json::U64(eval.fetches)),
            ("baseline_transitions", Json::U64(eval.baseline_transitions)),
            ("encoded_transitions", Json::U64(eval.encoded_transitions)),
            (
                "extra_line_transitions",
                Json::U64(eval.extra_line_transitions()),
            ),
            ("reduction_percent", Json::F64(eval.reduction_percent())),
            ("decoded_fetches", Json::U64(eval.decoded_fetches)),
            ("passthrough_fetches", Json::U64(eval.passthrough_fetches)),
            (
                "per_lane_baseline",
                Json::Arr(
                    eval.per_lane_baseline
                        .iter()
                        .map(|&t| Json::U64(t))
                        .collect(),
                ),
            ),
            (
                "per_lane_encoded",
                Json::Arr(
                    eval.per_lane_encoded
                        .iter()
                        .map(|&t| Json::U64(t))
                        .collect(),
                ),
            ),
        ]),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncoderConfig;
    use crate::pipeline::{encode_program, EncodedProgram};
    use imt_bitcode::block::OverlapHistory;
    use imt_bitcode::TransformSet;
    use imt_isa::asm::assemble;

    fn pipeline(source: &str, config: &EncoderConfig) -> (Program, EncodedProgram) {
        let program = assemble(source).expect("assembly failed");
        let mut cpu = Cpu::new(&program).expect("load failed");
        cpu.run(10_000_000).expect("run failed");
        let profile = cpu.profile().to_vec();
        let encoded = encode_program(&program, &profile, config).expect("encode failed");
        (program, encoded)
    }

    const LOOP_PROGRAM: &str = r#"
            .text
    main:   li   $t0, 1000
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

    #[test]
    fn reduces_transitions_and_decodes_exactly() {
        for k in [4usize, 5, 6, 7] {
            for overlap in [OverlapHistory::Stored, OverlapHistory::Decoded] {
                let config = EncoderConfig::default()
                    .with_block_size(k)
                    .unwrap()
                    .with_overlap(overlap);
                let (program, encoded) = pipeline(LOOP_PROGRAM, &config);
                let eval = evaluate(&program, &encoded, 10_000_000).unwrap();
                assert_eq!(eval.decode_mismatches, 0, "k={k} {overlap:?}");
                assert!(
                    eval.encoded_transitions < eval.baseline_transitions,
                    "k={k} {overlap:?}: {} >= {}",
                    eval.encoded_transitions,
                    eval.baseline_transitions
                );
                // The loop dominates: nearly all fetches decode through TT.
                assert!(eval.decoded_fetches > eval.passthrough_fetches);
                assert!(eval.reduction_percent() > 5.0, "k={k} {overlap:?}");
            }
        }
    }

    #[test]
    fn program_behaviour_is_unchanged() {
        let (program, encoded) = pipeline(LOOP_PROGRAM, &EncoderConfig::default());
        let eval = evaluate(&program, &encoded, 10_000_000).unwrap();
        // The decoded stream drives the same execution: same output as a
        // plain run of the original.
        let mut plain = Cpu::new(&program).unwrap();
        plain.run(10_000_000).unwrap();
        assert_eq!(eval.stdout, plain.stdout());
        assert_eq!(eval.exit_code, 0);
    }

    #[test]
    fn empty_schedule_changes_nothing() {
        let config = EncoderConfig::default().with_tt_capacity(0);
        let (program, encoded) = pipeline(LOOP_PROGRAM, &config);
        let eval = evaluate(&program, &encoded, 10_000_000).unwrap();
        assert_eq!(eval.baseline_transitions, eval.encoded_transitions);
        assert_eq!(eval.reduction_percent(), 0.0);
        assert_eq!(eval.decoded_fetches, 0);
        assert_eq!(eval.passthrough_fetches, eval.fetches);
    }

    #[test]
    fn all_sixteen_transforms_do_no_worse_than_eight() {
        let base = EncoderConfig::default();
        let (program, encoded8) = pipeline(LOOP_PROGRAM, &base);
        let config16 = base.with_transforms(TransformSet::ALL_SIXTEEN).unwrap();
        let (_, encoded16) = pipeline(LOOP_PROGRAM, &config16);
        let eval8 = evaluate(&program, &encoded8, 10_000_000).unwrap();
        let eval16 = evaluate(&program, &encoded16, 10_000_000).unwrap();
        assert!(eval16.encoded_transitions <= eval8.encoded_transitions);
    }

    #[test]
    fn per_lane_totals_are_consistent() {
        let (program, encoded) = pipeline(LOOP_PROGRAM, &EncoderConfig::default());
        let eval = evaluate(&program, &encoded, 10_000_000).unwrap();
        assert_eq!(
            eval.per_lane_baseline.iter().sum::<u64>(),
            eval.baseline_transitions
        );
        assert_eq!(
            eval.per_lane_encoded.iter().sum::<u64>(),
            eval.encoded_transitions
        );
    }

    #[test]
    fn corrupted_schedules_are_caught_not_measured() {
        // The verification spine's negative path: flip one transform in
        // the TT and the evaluation must refuse with DecodeMismatch
        // instead of reporting bogus savings.
        let (program, mut encoded) = pipeline(LOOP_PROGRAM, &EncoderConfig::default());
        let mut tt = crate::hardware::TransformationTable::new();
        for (i, entry) in encoded.tt.entries().iter().enumerate() {
            let mut entry = entry.clone();
            if i == 0 {
                // Corrupt one lane's transform on the first entry.
                entry.lane_transforms[3] =
                    if entry.lane_transforms[3] == imt_bitcode::Transform::NOT_X {
                        imt_bitcode::Transform::XOR
                    } else {
                        imt_bitcode::Transform::NOT_X
                    };
            }
            tt.push(entry);
        }
        encoded.tt = tt;
        let err = evaluate(&program, &encoded, 10_000_000).unwrap_err();
        assert!(
            matches!(err, crate::CoreError::DecodeMismatch { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn corrupted_image_is_caught_too() {
        // Same, for a bit flipped in the stored memory image.
        let (program, mut encoded) = pipeline(LOOP_PROGRAM, &EncoderConfig::default());
        let hot = encoded.report.encoded[0].clone();
        let index = (hot.start_pc - encoded.text_base) as usize / 4 + 1;
        encoded.text[index] ^= 1 << 7;
        let err = evaluate(&program, &encoded, 10_000_000).unwrap_err();
        assert!(matches!(err, crate::CoreError::DecodeMismatch { .. }));
    }

    fn record(program: &Program) -> FetchEdgeProfile {
        FetchEdgeProfile::record(program, 10_000_000).expect("recording failed")
    }

    #[test]
    fn replay_is_bit_identical_to_full_simulation() {
        for k in [4usize, 5, 6, 7] {
            for overlap in [OverlapHistory::Stored, OverlapHistory::Decoded] {
                let config = EncoderConfig::default()
                    .with_block_size(k)
                    .unwrap()
                    .with_overlap(overlap);
                let (program, encoded) = pipeline(LOOP_PROGRAM, &config);
                let profile = record(&program);
                let full = evaluate(&program, &encoded, 10_000_000).unwrap();
                let replay = evaluate_replay(&program, &encoded, &profile).unwrap();
                // Full struct equality: totals, all 32 lanes, fetch split,
                // behaviour — nothing may drift between the paths.
                assert_eq!(replay, full, "k={k} {overlap:?}");
            }
        }
    }

    #[test]
    fn replay_handles_branchy_control_flow() {
        let source = r#"
            .text
    main:   li   $t0, 400
    loop:   andi $t1, $t0, 1
            beq  $t1, $zero, even
    odd:    xor  $t2, $t2, $t0
            b    next
    even:   addu $t3, $t3, $t0
    next:   addiu $t0, $t0, -1
            bgtz $t0, loop
            li   $v0, 10
            syscall
    "#;
        let (program, encoded) = pipeline(source, &EncoderConfig::default());
        let profile = record(&program);
        let full = evaluate(&program, &encoded, 10_000_000).unwrap();
        let replay = evaluate_replay(&program, &encoded, &profile).unwrap();
        assert_eq!(replay, full);
    }

    #[test]
    fn replay_refuses_a_corrupted_image() {
        // The regression guard for the replay path: a bit flipped in the
        // stored image must surface as DecodeMismatch, exactly as the
        // full-simulation path refuses it — replay must never be a way to
        // report savings from an image that would not decode.
        let (program, mut encoded) = pipeline(LOOP_PROGRAM, &EncoderConfig::default());
        let profile = record(&program);
        let hot = encoded.report.encoded[0].clone();
        let index = (hot.start_pc - encoded.text_base) as usize / 4 + 1;
        encoded.text[index] ^= 1 << 7;
        let err = evaluate_replay(&program, &encoded, &profile).unwrap_err();
        assert!(matches!(err, crate::CoreError::DecodeMismatch { .. }));
    }

    #[test]
    fn both_paths_refuse_a_truncated_image_with_the_same_typed_error() {
        let (program, mut encoded) = pipeline(LOOP_PROGRAM, &EncoderConfig::default());
        let profile = record(&program);
        encoded.text.pop();
        let expected = crate::CoreError::TableImage {
            detail: "encoded image length differs from the program text",
        };
        assert_eq!(
            evaluate(&program, &encoded, 10_000_000),
            Err(expected.clone())
        );
        assert_eq!(evaluate_replay(&program, &encoded, &profile), Err(expected));
    }

    #[test]
    fn replay_refuses_a_corrupted_schedule() {
        let (program, mut encoded) = pipeline(LOOP_PROGRAM, &EncoderConfig::default());
        let profile = record(&program);
        let mut tt = crate::hardware::TransformationTable::new();
        for (i, entry) in encoded.tt.entries().iter().enumerate() {
            let mut entry = entry.clone();
            if i == 0 {
                entry.lane_transforms[3] =
                    if entry.lane_transforms[3] == imt_bitcode::Transform::NOT_X {
                        imt_bitcode::Transform::XOR
                    } else {
                        imt_bitcode::Transform::NOT_X
                    };
            }
            tt.push(entry);
        }
        encoded.tt = tt;
        let err = evaluate_replay(&program, &encoded, &profile).unwrap_err();
        assert!(matches!(err, crate::CoreError::DecodeMismatch { .. }));
    }

    #[test]
    fn replay_refuses_an_untouched_word_changed_outside_any_span() {
        // Outside every scheduled block the stored image must equal the
        // original — fetched or not, the replay check is total.
        let (program, mut encoded) = pipeline(LOOP_PROGRAM, &EncoderConfig::default());
        let profile = record(&program);
        let last = encoded.text.len() - 1;
        encoded.text[last] ^= 1;
        let err = evaluate_replay(&program, &encoded, &profile).unwrap_err();
        assert!(matches!(err, crate::CoreError::DecodeMismatch { .. }));
    }

    #[test]
    fn replay_rejects_a_profile_for_a_different_program() {
        let (program, encoded) = pipeline(LOOP_PROGRAM, &EncoderConfig::default());
        let other = assemble("    .text\nmain: li $v0, 10\n    syscall\n").unwrap();
        let profile = record(&other);
        let err = evaluate_replay(&program, &encoded, &profile).unwrap_err();
        assert!(matches!(err, crate::CoreError::ProfileLength { .. }));
    }

    #[test]
    fn evaluate_auto_routes_and_reports_its_path() {
        let (program, encoded) = pipeline(LOOP_PROGRAM, &EncoderConfig::default());
        let profile = record(&program);
        let needs = EvalNeeds::transitions_only();

        let (via_replay, path) =
            evaluate_auto(&program, &encoded, 10_000_000, Some(&profile), needs).unwrap();
        assert_eq!(path, EvalPath::Replay);

        let (via_sim, path) = evaluate_auto(&program, &encoded, 10_000_000, None, needs).unwrap();
        assert_eq!(path, EvalPath::FullSim(FullSimReason::NoProfile));
        assert_eq!(via_replay, via_sim);

        let icache = EvalNeeds {
            icache: true,
            ..EvalNeeds::default()
        };
        let (_, path) =
            evaluate_auto(&program, &encoded, 10_000_000, Some(&profile), icache).unwrap();
        assert_eq!(path, EvalPath::FullSim(FullSimReason::Icache));
    }

    #[test]
    fn branchy_loop_with_two_blocks_decodes_exactly() {
        // A loop whose body alternates between two basic blocks exercises
        // BBIT re-lookup at both block entries every iteration.
        let source = r#"
            .text
    main:   li   $t0, 400
    loop:   andi $t1, $t0, 1
            beq  $t1, $zero, even
    odd:    xor  $t2, $t2, $t0
            b    next
    even:   addu $t3, $t3, $t0
    next:   addiu $t0, $t0, -1
            bgtz $t0, loop
            li   $v0, 10
            syscall
    "#;
        let (program, encoded) = pipeline(source, &EncoderConfig::default());
        let eval = evaluate(&program, &encoded, 10_000_000).unwrap();
        assert_eq!(eval.decode_mismatches, 0);
        assert!(eval.encoded_transitions <= eval.baseline_transitions);
        assert!(encoded.report.encoded.len() >= 2);
    }
}
