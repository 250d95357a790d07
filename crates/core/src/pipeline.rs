//! The application-specific encoding pipeline: profile → hot loops →
//! capacity-constrained block selection → encoded memory image + TT/BBIT
//! contents.
//!
//! Encoding runs in three stages, each keyed on less than the one before:
//!
//! * [`ProgramAnalysis`] — the CFG, block weights and hot loops of one
//!   (program, per-index profile); no configuration reaches it;
//! * [`PreparedCodec`] — each candidate block's sliced encoding, stored
//!   words and static transition counts under one [`CodecSettings`]
//!   (block size, transform set, overlap, chain strategy), filled as
//!   blocks are first needed; the TT/BBIT capacities never change it;
//! * [`select`] — the capacity-constrained selection and image assembly,
//!   the only stage the TT/BBIT capacities, `max_loops` and
//!   `include_called_functions` reach.
//!
//! [`encode_program`] runs all three once. A server keeps the analysis
//! per warmed kernel and the codec per codec setting, and runs only
//! [`select`] per request.

use std::sync::OnceLock;

use imt_bitcode::block::OverlapHistory;
use imt_bitcode::lanes::{width_mask, word_transitions};
use imt_bitcode::par::par_map;
use imt_bitcode::slice::{encode_words_sliced, SlicedEncoding};
use imt_bitcode::stream::{ChainStrategy, StreamCodec, StreamCodecConfig};
use imt_bitcode::TransformSet;
use imt_cfg::{block_weights, hot_loops, BlockId, Cfg, HotLoop};
use imt_isa::program::Program;

use crate::config::EncoderConfig;
use crate::error::CoreError;
use crate::hardware::{Bbit, BbitEntry, TransformationTable, TtEntry};

/// Bus width of the instruction data path.
pub const BUS_WIDTH: usize = 32;

/// Per-block outcome of the selection and encoding pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedBlockInfo {
    /// The basic block in the program's CFG.
    pub block: BlockId,
    /// Address of its first instruction.
    pub start_pc: u32,
    /// Instructions in the block.
    pub instructions: usize,
    /// Index of its first Transformation Table entry.
    pub tt_first: usize,
    /// Number of TT entries it consumes (= blocks per bit line).
    pub tt_count: usize,
    /// Static within-block bus transitions of the original words.
    pub original_transitions: u64,
    /// Static within-block bus transitions of the encoded words.
    pub encoded_transitions: u64,
    /// Profiled fetches from this block.
    pub fetch_weight: u64,
}

/// Why a hot-loop basic block was left unencoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemotionReason {
    /// Not enough free Transformation Table entries.
    TtCapacity,
    /// Not enough free BBIT entries.
    BbitCapacity,
    /// Encoding would not remove any transitions (e.g. a 1-instruction
    /// block); spending table entries on it is pointless.
    NoSaving,
    /// The block never executed in the profile.
    ColdBlock,
}

impl DemotionReason {
    /// A short stable name (used as a metric label suffix).
    pub fn name(self) -> &'static str {
        match self {
            DemotionReason::TtCapacity => "tt-capacity",
            DemotionReason::BbitCapacity => "bbit-capacity",
            DemotionReason::NoSaving => "no-saving",
            DemotionReason::ColdBlock => "cold-block",
        }
    }
}

/// Summary of the region-selection pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionReport {
    /// Hot loops that contributed candidate blocks.
    pub loops_considered: usize,
    /// Blocks encoded, in selection (weight) order.
    pub encoded: Vec<EncodedBlockInfo>,
    /// Hot-loop blocks left as-is, with the reason.
    pub demoted: Vec<(BlockId, DemotionReason)>,
    /// TT entries allocated.
    pub tt_used: usize,
    /// BBIT entries allocated.
    pub bbit_used: usize,
}

/// A program with its hot region encoded: the memory image, the table
/// contents the fetch hardware needs, and the selection report.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedProgram {
    /// The full text image as stored in instruction memory: encoded words
    /// inside selected blocks, original words elsewhere.
    pub text: Vec<u32>,
    /// The Transformation Table contents.
    pub tt: TransformationTable,
    /// The BBIT contents.
    pub bbit: Bbit,
    /// The configuration the schedule was built with.
    pub config: EncoderConfig,
    /// What was selected and why.
    pub report: RegionReport,
    /// Base address of `text[0]`.
    pub text_base: u32,
}

impl EncodedProgram {
    /// Static transitions eliminated inside encoded blocks.
    pub fn static_saved_transitions(&self) -> u64 {
        self.report
            .encoded
            .iter()
            .map(|b| b.original_transitions - b.encoded_transitions)
            .sum()
    }
}

/// Runs the full pipeline: CFG recovery, hot-loop ranking, greedy
/// capacity-constrained selection, per-block lane encoding.
///
/// `profile` is the per-instruction execution count from
/// [`imt_sim::Cpu::profile`] (or any estimate of the same shape — a static
/// all-ones profile selects by loop structure alone).
///
/// Blocks are considered hottest-first across the top
/// [`EncoderConfig::max_loops`] loops; each consumes one BBIT entry and as
/// many TT entries as its instruction count requires at the configured
/// block size. Blocks that do not fit, never ran, or save nothing are
/// demoted to pass-through (the paper's identity treatment of infrequent
/// blocks, §7.2).
///
/// This is the three stages run once each: [`ProgramAnalysis::new`],
/// [`PreparedCodec::new`] and [`select`]. Callers that encode one program
/// many times keep the first two and call only [`select`].
///
/// # Errors
///
/// [`CoreError::ProfileLength`] if the profile does not cover the text;
/// [`CoreError::Cfg`] if the text is empty or malformed;
/// [`CoreError::Codec`] only on internal misuse (widths are fixed here).
pub fn encode_program(
    program: &Program,
    profile: &[u64],
    config: &EncoderConfig,
) -> Result<EncodedProgram, CoreError> {
    let analysis = ProgramAnalysis::new(program, profile)?;
    let codec = PreparedCodec::new(&analysis, CodecSettings::of(config))?;
    select(&analysis, &codec, config)
}

/// What encoding learns from a program and its per-index profile alone:
/// the text, the CFG, the block weights and the hot loops. No part of an
/// [`EncoderConfig`] reaches it, so one analysis serves every
/// configuration of the same (program, profile).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramAnalysis {
    text: Vec<u32>,
    text_base: u32,
    /// Content hash of the text and its base: a [`PreparedCodec`] is valid
    /// for exactly the analyses that share it.
    fingerprint: u64,
    cfg: Cfg,
    weights: Vec<u64>,
    loops: Vec<HotLoop>,
}

impl ProgramAnalysis {
    /// Recovers the CFG and ranks the loops of `program` under `profile`.
    ///
    /// # Errors
    ///
    /// [`CoreError::ProfileLength`] if the profile does not cover the text;
    /// [`CoreError::Cfg`] if the text is empty or malformed.
    pub fn new(program: &Program, profile: &[u64]) -> Result<ProgramAnalysis, CoreError> {
        let _span = imt_obs::span!("core.analyse");
        if profile.len() < program.text.len() {
            return Err(CoreError::ProfileLength {
                text_len: program.text.len(),
                profile_len: profile.len(),
            });
        }
        let cfg = Cfg::build(program)?;
        let weights = block_weights(&cfg, profile);
        let loops = hot_loops(&cfg, profile);
        Ok(ProgramAnalysis {
            text: program.text.clone(),
            text_base: program.text_base,
            fingerprint: text_fingerprint(&program.text, program.text_base),
            cfg,
            weights,
            loops,
        })
    }

    /// The loops `config` considers (those with any fetch weight, at most
    /// [`EncoderConfig::max_loops`]) and its candidate blocks: the union
    /// of their bodies, hottest first. With `include_called_functions`,
    /// the bodies of functions called from inside those loops join the
    /// candidate set (§7.2's alternative).
    fn candidates(&self, config: &EncoderConfig) -> (usize, Vec<BlockId>) {
        let top: Vec<_> = self
            .loops
            .iter()
            .filter(|l| l.fetch_weight > 0)
            .take(config.max_loops())
            .collect();
        let mut candidates: Vec<BlockId> = Vec::new();
        for l in &top {
            for &b in &l.natural_loop.body {
                if !candidates.contains(&b) {
                    candidates.push(b);
                }
            }
            if config.include_called_functions() {
                for callee in self.cfg.called_functions(&l.natural_loop.body) {
                    for b in self.cfg.reachable_from(callee) {
                        if !candidates.contains(&b) {
                            candidates.push(b);
                        }
                    }
                }
            }
        }
        candidates.sort_by_key(|b| std::cmp::Reverse(self.weights[b.0]));
        (top.len(), candidates)
    }
}

/// FNV-1a over the text words and their base address.
fn text_fingerprint(text: &[u32], text_base: u32) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &word in std::iter::once(&text_base).chain(text) {
        hash = (hash ^ u64::from(word)).wrapping_mul(PRIME);
    }
    hash
}

/// The part of an [`EncoderConfig`] a block's encoding depends on: block
/// size, transform set, overlap semantics and chain strategy. The TT and
/// BBIT capacities, `max_loops` and `include_called_functions` only steer
/// [`select`], so they are not part of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodecSettings {
    block_size: usize,
    transforms: TransformSet,
    overlap: OverlapHistory,
    strategy: ChainStrategy,
}

impl CodecSettings {
    /// The codec half of `config`.
    pub fn of(config: &EncoderConfig) -> CodecSettings {
        CodecSettings {
            block_size: config.block_size(),
            transforms: config.transforms(),
            overlap: config.overlap(),
            strategy: config.strategy(),
        }
    }
}

/// One candidate block through the codec: its sliced encoding, the words
/// memory stores, and the static within-block transitions before and
/// after.
#[derive(Debug)]
struct PreparedBlock {
    encoding: SlicedEncoding,
    encoded_words: Vec<u32>,
    original_transitions: u64,
    encoded_transitions: u64,
}

/// A codec setting applied to one program's blocks: each block's encoding,
/// computed the first time a [`select`] needs it and kept for every later
/// one. A block's encoding depends only on its words and the
/// [`CodecSettings`], so a prepared codec serves every configuration with
/// those settings — whatever its TT/BBIT capacities — on any analysis of
/// the same program. Shareable across threads: a block slot is filled
/// once, and a racing fill computes the same value.
#[derive(Debug)]
pub struct PreparedCodec {
    settings: CodecSettings,
    codec: StreamCodec,
    fingerprint: u64,
    /// One slot per CFG block, filled on first use.
    blocks: Vec<OnceLock<Result<PreparedBlock, CoreError>>>,
}

impl PreparedCodec {
    /// An empty codec for `settings` over `analysis`'s program; blocks are
    /// encoded as [`select`] first needs them.
    ///
    /// # Errors
    ///
    /// [`CoreError::Codec`] if the settings do not form a valid codec.
    pub fn new(
        analysis: &ProgramAnalysis,
        settings: CodecSettings,
    ) -> Result<PreparedCodec, CoreError> {
        let codec = StreamCodec::new(
            StreamCodecConfig::block_size(settings.block_size)?
                .with_transforms(settings.transforms)?
                .with_overlap(settings.overlap)
                .with_strategy(settings.strategy),
        );
        Ok(PreparedCodec {
            settings,
            codec,
            fingerprint: analysis.fingerprint,
            blocks: (0..analysis.cfg.blocks().len())
                .map(|_| OnceLock::new())
                .collect(),
        })
    }

    /// Encodes every block of `candidates` not encoded yet. Encoding a
    /// block depends only on its own words, so they encode in parallel.
    fn prepare(&self, analysis: &ProgramAnalysis, candidates: &[BlockId]) {
        let missing: Vec<BlockId> = candidates
            .iter()
            .copied()
            .filter(|b| self.blocks[b.0].get().is_none())
            .collect();
        if missing.is_empty() {
            return;
        }
        let _span = imt_obs::span!("core.prepare_candidates");
        let prepared = par_map(&missing, 1, |_, &block_id| {
            self.encode_block(analysis, block_id)
        });
        for (block_id, block) in missing.into_iter().zip(prepared) {
            // A racing `select` may have filled the slot first; both
            // computed the same value.
            let _ = self.blocks[block_id.0].set(block);
        }
    }

    /// `block_id`'s encoding, computing it now if no `prepare` did.
    fn block(
        &self,
        analysis: &ProgramAnalysis,
        block_id: BlockId,
    ) -> Result<&PreparedBlock, CoreError> {
        self.blocks[block_id.0]
            .get_or_init(|| self.encode_block(analysis, block_id))
            .as_ref()
            .map_err(Clone::clone)
    }

    fn encode_block(
        &self,
        analysis: &ProgramAnalysis,
        block_id: BlockId,
    ) -> Result<PreparedBlock, CoreError> {
        let words = &analysis.text[analysis.cfg.block(block_id).range()];
        let wide: Vec<u64> = words.iter().map(|&w| w as u64).collect();
        let encoding = encode_words_sliced(&wide, BUS_WIDTH, &self.codec)?;
        let bus_mask = width_mask(BUS_WIDTH);
        Ok(PreparedBlock {
            encoded_words: encoding.words().iter().map(|&w| w as u32).collect(),
            original_transitions: word_transitions(&wide, bus_mask),
            encoded_transitions: word_transitions(encoding.words(), bus_mask),
            encoding,
        })
    }
}

/// The per-configuration stage: picks the blocks `config`'s TT and BBIT
/// capacities admit, in candidate (weight) order, and assembles the
/// memory image and table contents from `codec`'s block encodings,
/// encoding any candidate `codec` has not seen yet.
///
/// The selection is serial in candidate order, so the TT/BBIT allocation
/// — and thus the whole image — is the same however the codec was filled.
///
/// # Errors
///
/// [`CoreError::StageMismatch`] if `codec` was prepared for another
/// program or other [`CodecSettings`] than `config`'s;
/// [`CoreError::Codec`] only on internal misuse (widths are fixed here).
pub fn select(
    analysis: &ProgramAnalysis,
    codec: &PreparedCodec,
    config: &EncoderConfig,
) -> Result<EncodedProgram, CoreError> {
    let _span = imt_obs::span!("core.encode_program");
    if codec.fingerprint != analysis.fingerprint {
        return Err(CoreError::StageMismatch {
            detail: "prepared codec belongs to another program",
        });
    }
    if codec.settings != CodecSettings::of(config) {
        return Err(CoreError::StageMismatch {
            detail: "prepared codec has other codec settings than the configuration",
        });
    }
    let (loops_considered, candidates) = analysis.candidates(config);
    let hot: Vec<BlockId> = candidates
        .iter()
        .copied()
        .filter(|b| analysis.weights[b.0] > 0)
        .collect();
    codec.prepare(analysis, &hot);

    let mut text = analysis.text.clone();
    let mut tt = TransformationTable::new();
    let mut bbit = Bbit::new();
    let mut encoded = Vec::new();
    let mut demoted = Vec::new();

    for block_id in candidates {
        let weight = analysis.weights[block_id.0];
        if weight == 0 {
            demoted.push((block_id, DemotionReason::ColdBlock));
            continue;
        }
        let prepared = codec.block(analysis, block_id)?;
        if prepared.encoded_transitions >= prepared.original_transitions {
            demoted.push((block_id, DemotionReason::NoSaving));
            continue;
        }
        let tt_count = prepared.encoding.block_count();
        if tt.len() + tt_count > config.tt_capacity() {
            demoted.push((block_id, DemotionReason::TtCapacity));
            continue;
        }
        if bbit.len() + 1 > config.bbit_capacity() {
            demoted.push((block_id, DemotionReason::BbitCapacity));
            continue;
        }

        // Commit: TT entries (one per block position, shared across lanes),
        // BBIT entry, and the encoded words in the memory image.
        let tt_first = tt.len();
        for position in 0..tt_count {
            let lane_transforms = (0..BUS_WIDTH)
                .map(|lane| prepared.encoding.transform(position, lane))
                .collect();
            tt.push(TtEntry {
                lane_transforms,
                end: position + 1 == tt_count,
                covers: prepared.encoding.block_len(position),
            });
        }
        let block = analysis.cfg.block(block_id);
        let start_pc = analysis.cfg.block_address(block_id);
        bbit.push(BbitEntry {
            pc: start_pc,
            tt_index: tt_first,
        });
        text[block.range()].copy_from_slice(&prepared.encoded_words);
        encoded.push(EncodedBlockInfo {
            block: block_id,
            start_pc,
            instructions: block.len,
            tt_first,
            tt_count,
            original_transitions: prepared.original_transitions,
            encoded_transitions: prepared.encoded_transitions,
            fetch_weight: weight,
        });
    }

    let report = RegionReport {
        loops_considered,
        encoded,
        demoted,
        tt_used: tt.len(),
        bbit_used: bbit.len(),
    };
    if imt_obs::enabled() {
        publish_report_obs(&report);
    }
    Ok(EncodedProgram {
        text,
        tt,
        bbit,
        config: *config,
        report,
        text_base: analysis.text_base,
    })
}

/// Publishes one selection pass into the registry under the thread's
/// current context label. Gauges (idempotent set), not counters, so a
/// re-run of the same labelled region overwrites instead of accumulating
/// — manifests stay deterministic under the parallel experiment grids.
fn publish_report_obs(report: &RegionReport) {
    let label = imt_obs::current_label();
    imt_obs::counter!("core.encode.runs").inc();
    imt_obs::gauge_labeled("core.encode.blocks_encoded", &label).set(report.encoded.len() as u64);
    imt_obs::gauge_labeled("core.encode.tt_used", &label).set(report.tt_used as u64);
    imt_obs::gauge_labeled("core.encode.bbit_used", &label).set(report.bbit_used as u64);
    let original: u64 = report.encoded.iter().map(|b| b.original_transitions).sum();
    let encoded: u64 = report.encoded.iter().map(|b| b.encoded_transitions).sum();
    imt_obs::gauge_labeled("core.encode.static_original_transitions", &label).set(original);
    imt_obs::gauge_labeled("core.encode.static_encoded_transitions", &label).set(encoded);
    imt_obs::gauge_labeled("core.encode.static_saved_transitions", &label).set(original - encoded);
    for reason in [
        DemotionReason::TtCapacity,
        DemotionReason::BbitCapacity,
        DemotionReason::NoSaving,
        DemotionReason::ColdBlock,
    ] {
        let n = report.demoted.iter().filter(|(_, r)| *r == reason).count();
        if n > 0 {
            let sub = if label.is_empty() {
                reason.name().to_string()
            } else {
                format!("{label}/{}", reason.name())
            };
            imt_obs::gauge_labeled("core.encode.demoted", &sub).set(n as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imt_isa::asm::assemble;
    use imt_sim::Cpu;

    fn profiled(source: &str) -> (Program, Vec<u64>) {
        let program = assemble(source).expect("assembly failed");
        let mut cpu = Cpu::new(&program).expect("load failed");
        cpu.run(10_000_000).expect("run failed");
        let profile = cpu.profile().to_vec();
        (program, profile)
    }

    const LOOP_PROGRAM: &str = r#"
            .text
    main:   li   $t0, 200
    loop:   xor  $t1, $t1, $t0
            sll  $t2, $t1, 3
            srl  $t3, $t1, 7
            addu $t4, $t2, $t3
            addiu $t0, $t0, -1
            bgtz $t0, loop
            li   $v0, 10
            syscall
    "#;

    #[test]
    fn encodes_the_hot_loop() {
        let (program, profile) = profiled(LOOP_PROGRAM);
        let encoded = encode_program(&program, &profile, &EncoderConfig::default()).unwrap();
        assert_eq!(encoded.report.encoded.len(), 1);
        let info = &encoded.report.encoded[0];
        assert_eq!(info.instructions, 6); // the loop body block
        assert!(info.encoded_transitions < info.original_transitions);
        assert_eq!(encoded.report.bbit_used, 1);
        assert_eq!(encoded.report.tt_used, info.tt_count);
        // 6 instructions at k = 5: blocks of 5 + 1 → 2 TT entries.
        assert_eq!(info.tt_count, 2);
        assert!(encoded.tt.entries()[1].end);
        assert_eq!(encoded.tt.entries()[1].covers, 1);
        // The image outside the loop is untouched.
        assert_eq!(encoded.text[0], program.text[0]);
        assert_eq!(encoded.text[7], program.text[7]);
        // The image inside the loop differs somewhere.
        assert_ne!(&encoded.text[1..7], &program.text[1..7]);
    }

    #[test]
    fn capacity_zero_encodes_nothing() {
        let (program, profile) = profiled(LOOP_PROGRAM);
        let config = EncoderConfig::default().with_tt_capacity(0);
        let encoded = encode_program(&program, &profile, &config).unwrap();
        assert!(encoded.report.encoded.is_empty());
        assert_eq!(encoded.text, program.text);
        assert!(encoded
            .report
            .demoted
            .iter()
            .any(|(_, r)| *r == DemotionReason::TtCapacity));
    }

    #[test]
    fn bbit_capacity_limits_block_count() {
        // Two hot loops → two candidate blocks; BBIT of 1 takes only the
        // hottest.
        let source = r#"
            .text
    main:   li   $t0, 300
    loop1:  xor  $t1, $t1, $t0
            addiu $t0, $t0, -1
            bgtz $t0, loop1
            li   $t0, 100
    loop2:  sll  $t2, $t0, 2
            addiu $t0, $t0, -1
            bgtz $t0, loop2
            li   $v0, 10
            syscall
    "#;
        let (program, profile) = profiled(source);
        let config = EncoderConfig::default()
            .with_bbit_capacity(1)
            .with_max_loops(4);
        let encoded = encode_program(&program, &profile, &config).unwrap();
        assert_eq!(encoded.report.encoded.len(), 1);
        // loop1 runs 300 times and must win.
        assert_eq!(encoded.report.encoded[0].fetch_weight, 900);
        assert!(encoded
            .report
            .demoted
            .iter()
            .any(|(_, r)| *r == DemotionReason::BbitCapacity));
    }

    #[test]
    fn profile_length_is_validated() {
        let (program, _) = profiled(LOOP_PROGRAM);
        let err = encode_program(&program, &[0, 1], &EncoderConfig::default()).unwrap_err();
        assert!(matches!(err, CoreError::ProfileLength { .. }));
    }

    #[test]
    fn no_loops_means_no_encoding() {
        let (program, profile) = profiled(".text\nmain: li $t0, 1\nli $v0, 10\nsyscall\n");
        let encoded = encode_program(&program, &profile, &EncoderConfig::default()).unwrap();
        assert!(encoded.report.encoded.is_empty());
        assert_eq!(encoded.text, program.text);
        assert_eq!(encoded.static_saved_transitions(), 0);
    }

    #[test]
    fn called_functions_join_the_region_when_asked() {
        // A hot loop whose body calls a helper: by default the helper
        // passes through (the paper's default, §7.2); with
        // `with_called_functions(true)` it is encoded too.
        let source = r#"
            .text
    main:   li   $s0, 300
    loop:   jal  helper
            addiu $s0, $s0, -1
            bgtz $s0, loop
            li   $v0, 10
            syscall
    helper: xor  $t1, $t1, $s0
            sll  $t2, $t1, 3
            srl  $t3, $t1, 5
            addu $t4, $t2, $t3
            subu $t5, $t4, $t1
            jr   $ra
    "#;
        let (program, profile) = profiled(source);
        let without = encode_program(&program, &profile, &EncoderConfig::default()).unwrap();
        let with = encode_program(
            &program,
            &profile,
            &EncoderConfig::default().with_called_functions(true),
        )
        .unwrap();
        assert!(with.report.encoded.len() > without.report.encoded.len());
        assert!(with.static_saved_transitions() > without.static_saved_transitions());
        // The helper's 6-instruction block is among the encoded ones.
        assert!(with.report.encoded.iter().any(|b| b.instructions == 6));
        // Both schedules decode exactly on a real replay, and pulling the
        // helper in improves the dynamic reduction.
        let eval_without = crate::eval::evaluate(&program, &without, 1_000_000).unwrap();
        let eval_with = crate::eval::evaluate(&program, &with, 1_000_000).unwrap();
        assert_eq!(eval_without.decode_mismatches, 0);
        assert_eq!(eval_with.decode_mismatches, 0);
        assert!(eval_with.reduction_percent() > eval_without.reduction_percent());
    }

    #[test]
    fn static_saved_transitions_accumulates() {
        let (program, profile) = profiled(LOOP_PROGRAM);
        let encoded = encode_program(&program, &profile, &EncoderConfig::default()).unwrap();
        let info = &encoded.report.encoded[0];
        assert_eq!(
            encoded.static_saved_transitions(),
            info.original_transitions - info.encoded_transitions
        );
    }
}
