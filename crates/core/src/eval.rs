//! Dynamic evaluation: replay a real execution against the encoded image.
//!
//! This is the experiment of the paper's §8: run the program on the
//! simulated core, stream every fetch through two bus monitors — one fed
//! the original words, one fed the encoded image — and, crucially, through
//! the [`crate::hardware::FetchDecoder`] hardware model,
//! checking bit-for-bit that the decoded stream equals the original
//! instruction stream. A schedule that decodes incorrectly can therefore
//! never report savings.
//!
//! Two evaluation paths produce bit-identical [`Evaluation`]s:
//!
//! * [`evaluate`] — full simulation, O(dynamic fetches);
//! * [`evaluate_replay`] — closed-form replay over a recorded
//!   [`FetchEdgeProfile`], O(static edges): the transition totals are
//!   `Σ_edges weight(e) · popcount(stored[src] ^ stored[dst])`, and the
//!   decoder is verified once per scheduled block instead of once per
//!   dynamic traversal (sound because blocks are single-entry and a BBIT
//!   hit resets the decoder, so every traversal decodes identically).
//!
//! [`evaluate_auto`] picks between them from a typed [`EvalNeeds`]:
//! anything beyond data-bus transition counts (icache, timing, address
//! bus) requires the full simulator and is routed there explicitly.

use imt_bitcode::simd;
use imt_bitcode::slice::BitMatrix;
use imt_isa::program::Program;
use imt_sim::bus::DataBusMonitor;
use imt_sim::cpu::{Cpu, FetchSink};
use imt_sim::edge::FetchEdgeProfile;

use crate::error::CoreError;
use crate::hardware::FetchDecoder;
use crate::pipeline::{EncodedProgram, BUS_WIDTH};

/// Result of replaying a program against its encoded image.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Instructions fetched (= executed).
    pub fetches: u64,
    /// Total bus transitions with the original image — the paper's `#TR`.
    pub baseline_transitions: u64,
    /// Total bus transitions with the encoded image.
    pub encoded_transitions: u64,
    /// Per-line baseline transitions.
    pub per_lane_baseline: Vec<u64>,
    /// Per-line encoded transitions.
    pub per_lane_encoded: Vec<u64>,
    /// Fetches whose decoded word differed from the original (must be 0;
    /// also surfaced as an error by [`evaluate`]).
    pub decode_mismatches: u64,
    /// Fetches decoded through an active TT schedule.
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
    /// `Reduction(%)` rows in Figure 6).
    pub fn reduction_percent(&self) -> f64 {
        if self.baseline_transitions == 0 {
            return 0.0;
        }
        (self.baseline_transitions - self.encoded_transitions) as f64
            / self.baseline_transitions as f64
            * 100.0
    }
}

struct EvalSink<'a> {
    encoded_text: &'a [u32],
    text_base: u32,
    baseline: DataBusMonitor,
    encoded: DataBusMonitor,
    decoder: FetchDecoder,
    mismatches: u64,
    first_mismatch: Option<(u32, u32, u32)>,
}

impl FetchSink for EvalSink<'_> {
    #[inline]
    fn on_fetch(&mut self, pc: u32, word: u32) {
        self.baseline.observe(word as u64);
        let index = ((pc - self.text_base) / 4) as usize;
        let stored = self.encoded_text[index];
        self.encoded.observe(stored as u64);
        let decoded = self.decoder.on_fetch(pc, stored);
        if decoded != word {
            self.mismatches += 1;
            self.first_mismatch.get_or_insert((pc, decoded, word));
        }
    }
}

/// Replays `program` for up to `max_steps` instructions against its
/// encoded image, verifying the fetch decoder on every fetch.
///
/// # Errors
///
/// [`CoreError::Sim`] if the program faults or exceeds `max_steps`;
/// [`CoreError::DecodeMismatch`] if the hardware model ever restores a
/// word incorrectly (the evaluation numbers would be meaningless).
pub fn evaluate(
    program: &Program,
    encoded: &EncodedProgram,
    max_steps: u64,
) -> Result<Evaluation, CoreError> {
    let _span = imt_obs::span!("core.evaluate");
    let mut cpu = Cpu::new(program)?;
    let mut sink = EvalSink {
        encoded_text: &encoded.text,
        text_base: encoded.text_base,
        baseline: DataBusMonitor::new(BUS_WIDTH),
        encoded: DataBusMonitor::new(BUS_WIDTH),
        decoder: FetchDecoder::new(
            &encoded.tt,
            &encoded.bbit,
            BUS_WIDTH,
            encoded.config.block_size(),
            encoded.config.overlap(),
        ),
        mismatches: 0,
        first_mismatch: None,
    };
    let summary = cpu.run_with_sink(max_steps, &mut sink)?;
    if let Some((pc, decoded, expected)) = sink.first_mismatch {
        return Err(CoreError::DecodeMismatch {
            pc,
            decoded,
            expected,
        });
    }
    let evaluation = Evaluation {
        fetches: summary.instructions,
        baseline_transitions: sink.baseline.total_transitions(),
        encoded_transitions: sink.encoded.total_transitions(),
        per_lane_baseline: sink.baseline.per_lane(),
        per_lane_encoded: sink.encoded.per_lane(),
        decode_mismatches: sink.mismatches,
        decoded_fetches: sink.decoder.decoded_fetches(),
        passthrough_fetches: sink.decoder.passthrough_fetches(),
        exit_code: summary.exit_code,
        stdout: cpu.stdout().to_string(),
    };
    if imt_obs::enabled() {
        publish_eval_obs(&evaluation);
    }
    Ok(evaluation)
}

/// Replays a recorded fetch-edge profile against the encoded image in
/// closed form — O(distinct edges) instead of O(dynamic fetches) — and
/// returns an [`Evaluation`] bit-identical to [`evaluate`]'s on the same
/// program.
///
/// The transition totals (total *and* per lane) are weighted XOR+popcount
/// sums over the edge multiset; the per-lane breakdown reuses the
/// lane-transposed popcount machinery of [`imt_bitcode::packed`]. The
/// decode check walks every scheduled block once through the real
/// [`FetchDecoder`]: a BBIT hit resets the decoder state, blocks are
/// strictly sequential inside, and the profile is checked to contain no
/// mid-block entries — so one walk per block witnesses every dynamic
/// traversal, and a corrupted image or table is still refused.
///
/// # Errors
///
/// [`CoreError::ProfileLength`] if the profile covers a different text
/// length; [`CoreError::TableImage`] if the encoded image is malformed;
/// [`CoreError::DecodeMismatch`] if the hardware model restores any word
/// incorrectly; [`CoreError::ReplayInfeasible`] if the profile enters an
/// encoded block mid-stream (fall back to [`evaluate`]).
pub fn evaluate_replay(
    program: &Program,
    encoded: &EncodedProgram,
    profile: &FetchEdgeProfile,
) -> Result<Evaluation, CoreError> {
    let _span = imt_obs::span!("core.evaluate_replay");
    let text_len = program.text.len();
    if profile.text_len() != text_len {
        return Err(CoreError::ProfileLength {
            text_len,
            profile_len: profile.text_len(),
        });
    }
    if encoded.text.len() != text_len {
        return Err(CoreError::TableImage {
            detail: "encoded image length differs from the program text",
        });
    }

    // Static decode verification: walk each scheduled block's fetch
    // sequence once through the hardware model.
    let mut decoder = FetchDecoder::new(
        &encoded.tt,
        &encoded.bbit,
        BUS_WIDTH,
        encoded.config.block_size(),
        encoded.config.overlap(),
    );
    let mut in_span = vec![false; text_len];
    let mut span_start = vec![false; text_len];
    for (start_pc, end_pc) in decoder.scheduled_spans() {
        let start = pc_to_index(start_pc, encoded.text_base, text_len)?;
        let end = pc_to_index(end_pc.wrapping_sub(4), encoded.text_base, text_len)? + 1;
        span_start[start] = true;
        decoder.reset();
        for (index, inside) in in_span.iter_mut().enumerate().take(end).skip(start) {
            *inside = true;
            let pc = encoded.text_base + 4 * index as u32;
            let decoded = decoder.on_fetch(pc, encoded.text[index]);
            if decoded != program.text[index] {
                return Err(CoreError::DecodeMismatch {
                    pc,
                    decoded,
                    expected: program.text[index],
                });
            }
        }
    }
    // Outside every scheduled block the image must be the original words
    // (they pass through the decoder untouched).
    for (index, _) in in_span.iter().enumerate().filter(|&(_, &inside)| !inside) {
        if encoded.text[index] != program.text[index] {
            return Err(CoreError::DecodeMismatch {
                pc: encoded.text_base + 4 * index as u32,
                decoded: encoded.text[index],
                expected: program.text[index],
            });
        }
    }

    // The soundness precondition: every dynamic entry into a scheduled
    // block lands on its start PC (single-entry basic blocks). The
    // recorded edges witness every entry, so this is checkable exactly.
    let interior = |index: usize| in_span[index] && !span_start[index];
    if let Some(seed) = profile.seed_index() {
        if interior(seed) {
            return Err(CoreError::ReplayInfeasible {
                pc: encoded.text_base + 4 * seed as u32,
            });
        }
    }
    for (src, dst, _) in profile.edges() {
        if interior(dst) && src + 1 != dst {
            return Err(CoreError::ReplayInfeasible {
                pc: encoded.text_base + 4 * dst as u32,
            });
        }
    }

    // Closed-form transition counts over the weighted edge multiset.
    let (baseline_total, per_lane_baseline) = weighted_transitions(&program.text, profile);
    let (encoded_total, per_lane_encoded) = weighted_transitions(&encoded.text, profile);

    // Every fetch of a scheduled index decodes through the TT (entries are
    // always via the BBIT'd start PC, interiors always sequential — both
    // just verified), so the decoded/passthrough split follows from the
    // per-index counts.
    let per_index = profile.per_index_counts();
    let decoded_fetches: u64 = per_index
        .iter()
        .zip(&in_span)
        .filter(|&(_, &inside)| inside)
        .map(|(&count, _)| count)
        .sum();

    let evaluation = Evaluation {
        fetches: profile.fetches(),
        baseline_transitions: baseline_total,
        encoded_transitions: encoded_total,
        per_lane_baseline,
        per_lane_encoded,
        decode_mismatches: 0,
        decoded_fetches,
        passthrough_fetches: profile.fetches() - decoded_fetches,
        exit_code: profile.exit_code(),
        stdout: profile.stdout().to_string(),
    };
    if imt_obs::enabled() {
        imt_obs::counter!("core.eval.replays").inc();
        publish_eval_obs(&evaluation);
    }
    Ok(evaluation)
}

pub(crate) fn pc_to_index(pc: u32, text_base: u32, text_len: usize) -> Result<usize, CoreError> {
    let offset = pc.wrapping_sub(text_base);
    let index = (offset / 4) as usize;
    if pc < text_base || !offset.is_multiple_of(4) || index >= text_len {
        return Err(CoreError::TableImage {
            detail: "scheduled span outside the text image",
        });
    }
    Ok(index)
}

/// Total and per-lane weighted transitions of `words` over the profile's
/// edge multiset.
///
/// The total is a direct weighted popcount. The per-lane breakdown uses
/// the bit-sliced machinery of [`BitMatrix`]: one tile-transpose pass
/// turns the per-edge XOR words into one bitset per bus lane and each
/// edge weight into one bitset per weight bit, then
/// `per_lane[l] = Σ_b 2^b · popcount(lane_l & weight_plane_b)` — pure
/// word-wide AND+popcount, no per-bit or per-lane extraction loops.
///
/// Public because the scheme arena ([`crate::scheme`]) prices every
/// static stored image — Gray, codebook, per-lane composites — in the
/// same closed-form currency.
pub fn weighted_transitions(words: &[u32], profile: &FetchEdgeProfile) -> (u64, Vec<u64>) {
    let mut diffs = Vec::with_capacity(profile.distinct_edges());
    let mut weights = Vec::with_capacity(profile.distinct_edges());
    let mut total = 0u64;
    for (src, dst, weight) in profile.edges() {
        let diff = u64::from(words[src] ^ words[dst]);
        total += weight * u64::from(diff.count_ones());
        diffs.push(diff);
        weights.push(weight);
    }
    let mut per_lane = vec![0u64; BUS_WIDTH];
    let weight_bits = 64 - weights.iter().fold(0u64, |acc, &w| acc | w).leading_zeros();
    if weight_bits > 0 && !diffs.is_empty() {
        let path = simd::active_path();
        let lanes = BitMatrix::from_words(&diffs, BUS_WIDTH, path);
        let planes = BitMatrix::from_words(&weights, weight_bits as usize, path);
        for (lane, slot) in per_lane.iter_mut().enumerate() {
            let lane_diffs = lanes.lane_row(lane);
            let mut sum = 0u64;
            for bit in 0..planes.lanes() {
                let overlap: u64 = lane_diffs
                    .iter()
                    .zip(planes.lane_row(bit))
                    .map(|(&d, &p)| u64::from((d & p).count_ones()))
                    .sum();
                sum += overlap << bit;
            }
            *slot = sum;
        }
    }
    debug_assert_eq!(per_lane.iter().sum::<u64>(), total);
    (total, per_lane)
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
    /// The profile enters an encoded block mid-stream
    /// ([`CoreError::ReplayInfeasible`]).
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

/// Evaluates via replay when `needs` allow it and a profile is available,
/// falling back to full simulation otherwise — the two paths return
/// bit-identical [`Evaluation`]s, so callers choose on cost, not result.
///
/// # Errors
///
/// As [`evaluate`] / [`evaluate_replay`] (a replay-infeasible profile is
/// not an error: it falls back to full simulation).
pub fn evaluate_auto(
    program: &Program,
    encoded: &EncodedProgram,
    max_steps: u64,
    profile: Option<&FetchEdgeProfile>,
    needs: EvalNeeds,
) -> Result<(Evaluation, EvalPath), CoreError> {
    if let Some(reason) = needs.full_sim_reason() {
        return Ok((
            evaluate(program, encoded, max_steps)?,
            EvalPath::FullSim(reason),
        ));
    }
    let Some(profile) = profile else {
        return Ok((
            evaluate(program, encoded, max_steps)?,
            EvalPath::FullSim(FullSimReason::NoProfile),
        ));
    };
    match evaluate_replay(program, encoded, profile) {
        Ok(evaluation) => Ok((evaluation, EvalPath::Replay)),
        Err(CoreError::ReplayInfeasible { .. }) => Ok((
            evaluate(program, encoded, max_steps)?,
            EvalPath::FullSim(FullSimReason::ReplayInfeasible),
        )),
        Err(e) => Err(e),
    }
}

/// Publishes one evaluation under the thread's current context label:
/// labelled transition gauges plus a structured `eval` event carrying the
/// per-lane breakdown (validated lane-sum-equals-total by `imt obs check`).
/// Both evaluation paths publish the same metrics, including the bus
/// gauges [`DataBusMonitor::publish_obs`] would emit.
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
    use crate::pipeline::encode_program;
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
