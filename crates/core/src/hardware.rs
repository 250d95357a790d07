//! Software model of the fetch-stage decode hardware (paper §7.2,
//! Figure 5).
//!
//! Two small tables drive the decoder:
//!
//! * the **Transformation Table (TT)**: one entry per encoded block of
//!   instructions, holding a transformation index for every bus line
//!   (3 control bits each with the canonical eight), plus the `E` (end)
//!   bit and the `CT` tail counter that delimit a basic block's last,
//!   possibly short, block;
//! * the **Basic Block Identification Table (BBIT)**: one entry per
//!   encoded basic block, mapping its start PC to its first TT entry.
//!
//! [`FetchDecoder`] walks these tables against the fetch stream: a BBIT
//! hit (re)activates decoding at the block's first TT entry; each fetched
//! word is restored through the selected gates with a one-bit history
//! flip-flop per lane, all lanes in one word-wide step over the entry's
//! four lane masks; the `E`/`CT` fields tell the walker when
//! the basic block's schedule is exhausted, after which words pass
//! through untouched until the next BBIT hit. Fetches with no active
//! schedule (code outside the encoded region) pass through untouched —
//! instruction memory holds original words there.
//!
//! Both tables live behind [`crate::protect::ProtectedTables`]: SRAM
//! modelled at the bit level, optionally guarded by a per-entry parity or
//! SEC Hamming code (DESIGN.md §11). A clean run never pays for this —
//! the decoder reads materialized decoded views — but when a fault
//! injector flips a stored bit the decoder scrubs the arrays, corrects
//! what the code can correct, and *degrades* blocks it can no longer
//! trust: their fetches are flagged [`FetchKind::Degraded`] so the memory
//! system falls back to the original words instead of decoding garbage.

use imt_bitcode::block::OverlapHistory;
use imt_bitcode::{Transform, TransformSet};

use crate::protect::{
    EntryLayout, FaultEvent, FaultOutcome, ProtectedTables, Protection, TableKind, TtView,
};
use crate::CoreError;

/// One Transformation Table entry: the per-line transformation selectors
/// for one block of instructions (Figure 5a).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TtEntry {
    /// The transformation for each bus line (index = line).
    pub lane_transforms: Vec<Transform>,
    /// The `E` delimiter: this entry is the last for its basic block.
    pub end: bool,
    /// How many instruction fetches this entry covers. For the last entry
    /// of a basic block this is the hardware's `CT` counter value; for
    /// earlier entries it is implied by the block size (`k` for the first
    /// entry, `k - 1` for continuation entries) and stored here for the
    /// software model's convenience.
    pub covers: usize,
}

impl TtEntry {
    /// Control bits consumed by this entry for `lanes` lines with
    /// `control_bits` selector width (plus 1 for `E`, plus the `CT`
    /// counter width) — the paper's hardware-cost accounting.
    pub fn storage_bits(lanes: usize, control_bits: u32, ct_bits: u32) -> u64 {
        lanes as u64 * control_bits as u64 + 1 + ct_bits as u64
    }
}

/// A TT entry's restore gates for every line at once: four lane masks,
/// one per truth-table row of [`Transform::table`]. Bit `l` of
/// `rows[(x << 1) | y]` is `τ_l(x, y)`, the output of line `l`'s
/// transformation for stored bit `x` and history bit `y`; lines past the
/// entry's lane count are zero in every row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneMasks([u32; 4]);

impl LaneMasks {
    /// Transposes the lines' truth tables into row masks (line `l` =
    /// `lane_transforms[l]`, at most 32 lines).
    pub(crate) fn new(lane_transforms: &[Transform]) -> Self {
        debug_assert!(lane_transforms.len() <= 32);
        let mut rows = [0u32; 4];
        for (lane, transform) in lane_transforms.iter().enumerate() {
            let table = u32::from(transform.table());
            for (row, mask) in rows.iter_mut().enumerate() {
                *mask |= (table >> row & 1) << lane;
            }
        }
        LaneMasks(rows)
    }

    /// Restores every line of a chained fetch in one word-wide step:
    /// `τ_l(stored_l, history_l)` for each line `l`, selected by the
    /// row the line's `(stored, history)` bits fall in.
    #[inline]
    pub(crate) fn restore(self, stored: u32, history: u32) -> u32 {
        let [m00, m01, m10, m11] = self.0;
        (m00 & !stored & !history)
            | (m01 & !stored & history)
            | (m10 & stored & !history)
            | (m11 & stored & history)
    }
}

/// The Transformation Table: a small SRAM array of [`TtEntry`]s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransformationTable {
    entries: Vec<TtEntry>,
}

impl TransformationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry, returning its index.
    pub fn push(&mut self, entry: TtEntry) -> usize {
        self.entries.push(entry);
        self.entries.len() - 1
    }

    /// The entries in allocation order.
    pub fn entries(&self) -> &[TtEntry] {
        &self.entries
    }

    /// Number of entries allocated.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry at `index`, if any.
    ///
    /// Out-of-range indices return `None` — never panic. The fetch
    /// decoder treats a dangling index (a corrupted BBIT entry, or a
    /// walker running past the table because an `E` bit was flipped
    /// away) as a detected structural fault and degrades the affected
    /// block instead of indexing blindly.
    pub fn get(&self, index: usize) -> Option<&TtEntry> {
        self.entries.get(index)
    }
}

/// The storage and logic budget of a TT/BBIT configuration — the paper's
/// §7.2 hardware-overhead accounting, computed for an actual schedule.
///
/// ```
/// use imt_core::hardware::HardwareBudget;
/// use imt_core::protect::Protection;
///
/// // The paper's operating point: 16 TT entries, 10 BBIT entries,
/// // 32 lines, 8 transformations, block size 5.
/// let budget = HardwareBudget::new(16, 10, 32, 8, 5);
/// assert_eq!(budget.tt_bits_per_entry, 32 * 3 + 1 + 3);
/// assert!(budget.total_bits() < 3000); // well under half a kilobyte
///
/// // Protecting the arrays charges the check bits to the same account.
/// let sec = budget.with_protection(Protection::Sec);
/// assert_eq!(sec.tt_check_bits_per_entry, 7); // 2^7 ≥ 100 + 7 + 1
/// assert!(sec.total_bits() > budget.total_bits());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardwareBudget {
    /// TT entries provisioned.
    pub tt_entries: usize,
    /// BBIT entries provisioned.
    pub bbit_entries: usize,
    /// Bits per TT entry: `lanes × ⌈log₂ transforms⌉ + 1 (E) + CT width`.
    pub tt_bits_per_entry: u64,
    /// Bits per BBIT entry: a 32-bit PC tag plus a TT index.
    pub bbit_bits_per_entry: u64,
    /// Two-input gates in the restore path (one per line per member of the
    /// transformation set, plus a per-line mux).
    pub restore_gates: u64,
    /// The check code protecting each entry (§11 fault model).
    pub protection: Protection,
    /// Check bits appended to each TT entry by `protection`.
    pub tt_check_bits_per_entry: u64,
    /// Check bits appended to each BBIT entry by `protection`.
    pub bbit_check_bits_per_entry: u64,
}

impl HardwareBudget {
    /// Computes the budget for a configuration (unprotected arrays).
    pub fn new(
        tt_entries: usize,
        bbit_entries: usize,
        lanes: usize,
        transforms: usize,
        block_size: usize,
    ) -> Self {
        let control_bits = usize::BITS - transforms.saturating_sub(1).leading_zeros();
        let ct_bits = usize::BITS - block_size.saturating_sub(1).leading_zeros().max(1);
        let tt_index_bits =
            u64::from(usize::BITS - tt_entries.saturating_sub(1).leading_zeros().max(1));
        HardwareBudget {
            tt_entries,
            bbit_entries,
            tt_bits_per_entry: lanes as u64 * u64::from(control_bits) + 1 + u64::from(ct_bits),
            bbit_bits_per_entry: 32 + tt_index_bits,
            // One gate per transformation per line plus an 8:1 (or smaller)
            // selection mux, counted as `transforms` gate-equivalents.
            restore_gates: (lanes * transforms * 2) as u64,
            protection: Protection::None,
            tt_check_bits_per_entry: 0,
            bbit_check_bits_per_entry: 0,
        }
    }

    /// Budget implied by an encoded program's tables and configuration.
    pub fn of_schedule(encoded: &crate::pipeline::EncodedProgram) -> Self {
        HardwareBudget::new(
            encoded.tt.len(),
            encoded.bbit.len(),
            crate::pipeline::BUS_WIDTH,
            encoded.config.transforms().len(),
            encoded.config.block_size(),
        )
    }

    /// Charges `protection`'s per-entry check bits to the budget, so the
    /// cost of parity/SEC shows up in the paper's storage accounting.
    #[must_use]
    pub fn with_protection(mut self, protection: Protection) -> Self {
        self.protection = protection;
        self.tt_check_bits_per_entry =
            protection.check_bits(self.tt_bits_per_entry as usize) as u64;
        self.bbit_check_bits_per_entry =
            protection.check_bits(self.bbit_bits_per_entry as usize) as u64;
        self
    }

    /// Total table storage in bits, check bits included.
    pub fn total_bits(&self) -> u64 {
        self.tt_entries as u64 * (self.tt_bits_per_entry + self.tt_check_bits_per_entry)
            + self.bbit_entries as u64 * (self.bbit_bits_per_entry + self.bbit_check_bits_per_entry)
    }

    /// Total table storage in bytes (rounded up).
    pub fn total_bytes(&self) -> u64 {
        self.total_bits().div_ceil(8)
    }
}

/// One BBIT entry: a basic block's start PC and its first TT entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BbitEntry {
    /// Address of the basic block's first instruction.
    pub pc: u32,
    /// Index of the block's first entry in the Transformation Table.
    pub tt_index: usize,
}

/// The Basic Block Identification Table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bbit {
    entries: Vec<BbitEntry>,
}

impl Bbit {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an entry.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is already present — a basic block has exactly one
    /// schedule.
    pub fn push(&mut self, entry: BbitEntry) {
        assert!(
            self.lookup(entry.pc).is_none(),
            "BBIT already contains pc {:#010x}",
            entry.pc
        );
        self.entries.push(entry);
    }

    /// The entries in allocation order.
    pub fn entries(&self) -> &[BbitEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finds the TT index for a basic block starting at `pc`.
    pub fn lookup(&self, pc: u32) -> Option<usize> {
        self.entries.iter().find(|e| e.pc == pc).map(|e| e.tt_index)
    }
}

/// How the decoder handled one fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchKind {
    /// Restored through an active TT schedule.
    Decoded,
    /// Outside any schedule: instruction memory holds the original word,
    /// which passed through untouched.
    Passthrough,
    /// Inside a block whose schedule was lost to a detected fault: the
    /// decoder refuses to decode and the memory system must deliver the
    /// original word through the fallback path (at baseline switching
    /// cost).
    Degraded,
}

/// The PC footprint and TT range of one scheduled basic block, computed
/// from the clean tables at decoder construction. When an entry is lost
/// to a fault, the span maps it back to the block(s) that must degrade.
#[derive(Debug, Clone, Copy)]
struct BlockSpan {
    start_pc: u32,
    end_pc: u32,
    tt_first: usize,
    tt_last: usize,
}

/// The fetch-side decoder: restores original instruction words from the
/// encoded fetch stream, cycle by cycle.
///
/// The model is faithful to Figure 5: per-line one-bit history registers,
/// a transformation gate selected by the active TT entry, a fetch counter
/// driven by the entry lengths and the `E`/`CT` delimiter, and a BBIT
/// lookup when crossing into a basic block. One deliberate simplification
/// is documented in DESIGN.md: cold basic blocks get no BBIT entry and
/// pass through untouched, instead of sharing a single identity TT entry.
///
/// The decoder owns a bit-level copy of both tables (they are a few
/// hundred bits; cloning is free at this scale), so a fault injector can
/// flip stored bits mid-run without aliasing the caller's schedule.
/// Detected faults quarantine the affected blocks: their fetches come
/// back [`FetchKind::Degraded`] and every decision is recorded as a
/// [`FaultEvent`] retrievable with [`FetchDecoder::take_events`].
///
/// ```
/// use imt_core::hardware::{Bbit, FetchDecoder, TransformationTable};
/// use imt_bitcode::block::OverlapHistory;
///
/// // With empty tables the decoder is a wire: words pass through.
/// let tt = TransformationTable::new();
/// let bbit = Bbit::new();
/// let mut dec = FetchDecoder::new(&tt, &bbit, 32, 5, OverlapHistory::Stored);
/// assert_eq!(dec.on_fetch(0x0040_0000, 0xDEAD_BEEF), 0xDEAD_BEEF);
/// ```
#[derive(Debug)]
pub struct FetchDecoder {
    tables: ProtectedTables,
    /// The bus lanes as a bit mask (the low `lanes` bits): a seed fetch
    /// restores as `stored & lane_mask`.
    lane_mask: u32,
    /// The block size the schedule was built for (validated against the
    /// TT entries at construction).
    block_size: usize,
    overlap: OverlapHistory,
    state: Option<ActiveRun>,
    /// Clean-schedule footprints, for mapping lost entries to PC ranges.
    spans: Vec<BlockSpan>,
    /// PC ranges whose schedule was lost: fetches here degrade.
    degraded: Vec<(u32, u32)>,
    /// Detection/correction/quarantine decisions not yet collected.
    events: Vec<FaultEvent>,
    /// Fetches decoded through an active schedule (diagnostics).
    decoded_fetches: u64,
    /// Fetches passed through untouched (diagnostics).
    passthrough_fetches: u64,
    /// Fetches refused after a detected fault (diagnostics).
    degraded_fetches: u64,
}

#[derive(Debug, Clone, Copy)]
struct ActiveRun {
    tt_index: usize,
    /// Index of the BBIT entry that activated this run.
    bbit_index: usize,
    /// 0-based block number within the basic block.
    block_index: usize,
    /// Fetches already consumed from the current entry.
    fetch_in_block: usize,
    /// Next PC the run expects (runs are strictly sequential).
    expected_pc: u32,
    /// Previous stored word on the bus.
    prev_stored: u32,
    /// Previous restored word (the history flip-flops).
    prev_decoded: u32,
}

impl ActiveRun {
    /// Restores one fetch through `view`, the run's current entry: a basic
    /// block's seed passes its lanes through; every other fetch goes
    /// through the entry's gates against the history its place selects.
    #[inline]
    fn restore(&self, view: &TtView, stored: u32, lane_mask: u32, overlap: OverlapHistory) -> u32 {
        if self.block_index == 0 && self.fetch_in_block == 0 {
            // Seed of the basic block's first (initial) block.
            return stored & lane_mask;
        }
        let history = if self.fetch_in_block == 0 && overlap == OverlapHistory::Stored {
            // First fetch of a chained block: the overlap bits.
            self.prev_stored
        } else {
            self.prev_decoded
        };
        view.masks.restore(stored, history)
    }

    /// The walker after `fetches` more fetches through `entry`, the last
    /// from `pc` with `stored` restored to `decoded`: the `E`/`CT` fetch
    /// counter moves to the next entry, or ends the schedule (`None`)
    /// after the basic block's last one.
    #[inline]
    fn advance(
        mut self,
        fetches: usize,
        pc: u32,
        stored: u32,
        decoded: u32,
        entry: &TtEntry,
    ) -> Option<ActiveRun> {
        self.prev_stored = stored;
        self.prev_decoded = decoded;
        self.fetch_in_block += fetches;
        self.expected_pc = pc.wrapping_add(4);
        if self.fetch_in_block < entry.covers {
            Some(self)
        } else if entry.end {
            None
        } else {
            self.tt_index += 1;
            self.block_index += 1;
            self.fetch_in_block = 0;
            Some(self)
        }
    }
}

impl FetchDecoder {
    /// Creates an unprotected decoder over the given tables.
    ///
    /// `lanes` is the bus width, `block_size` the `k` the schedule was
    /// built with, `overlap` the §6 history semantics. Entries are stored
    /// under the universal sixteen-transform layout with no check code —
    /// the configuration every schedule fits.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is outside `1..=32`, `block_size < 2`, or the
    /// tables were built for a different `k`/lane count.
    pub fn new(
        tt: &TransformationTable,
        bbit: &Bbit,
        lanes: usize,
        block_size: usize,
        overlap: OverlapHistory,
    ) -> Self {
        Self::with_protection(
            tt,
            bbit,
            lanes,
            block_size,
            overlap,
            TransformSet::ALL_SIXTEEN,
            Protection::None,
        )
        .expect("every transform fits the sixteen-transform layout")
    }

    /// Creates a decoder whose tables are stored under `set`'s selector
    /// layout and guarded by `protection` — the configuration the
    /// `HardwareBudget` charges for.
    ///
    /// # Errors
    ///
    /// [`CoreError::TableImage`] if a TT entry uses a transform outside
    /// `set` (the schedule cannot be expressed in this hardware).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is outside `1..=32`, `block_size < 2`, or the
    /// tables were built for a different `k`/lane count.
    pub fn with_protection(
        tt: &TransformationTable,
        bbit: &Bbit,
        lanes: usize,
        block_size: usize,
        overlap: OverlapHistory,
        set: TransformSet,
        protection: Protection,
    ) -> Result<Self, CoreError> {
        assert!(
            (1..=32).contains(&lanes),
            "lane count {lanes} outside 1..=32"
        );
        assert!(block_size >= 2, "block size must be at least 2");
        // The schedule must have been built for this k: no entry may cover
        // more fetches than a block holds (or zero).
        for (i, entry) in tt.entries().iter().enumerate() {
            assert!(
                (1..=block_size).contains(&entry.covers),
                "TT[{i}] covers {} fetches, outside 1..={block_size}",
                entry.covers
            );
            assert_eq!(
                entry.lane_transforms.len(),
                lanes,
                "TT[{i}] has {} lane transforms for a {lanes}-lane bus",
                entry.lane_transforms.len()
            );
        }
        let layout = EntryLayout::new(set, lanes, block_size, tt.len());
        let tables = ProtectedTables::new(tt, bbit, layout, protection)?;
        let spans = compute_spans(tt, bbit);
        Ok(FetchDecoder {
            tables,
            lane_mask: u32::MAX >> (32 - lanes),
            block_size,
            overlap,
            state: None,
            spans,
            degraded: Vec::new(),
            events: Vec::new(),
            decoded_fetches: 0,
            passthrough_fetches: 0,
            degraded_fetches: 0,
        })
    }

    /// Fetches decoded through an active TT schedule so far.
    pub fn decoded_fetches(&self) -> u64 {
        self.decoded_fetches
    }

    /// Fetches passed through untouched so far.
    pub fn passthrough_fetches(&self) -> u64 {
        self.passthrough_fetches
    }

    /// Fetches refused after a detected fault so far.
    pub fn degraded_fetches(&self) -> u64 {
        self.degraded_fetches
    }

    /// The check code guarding the table SRAM.
    pub fn protection(&self) -> Protection {
        self.tables.protection()
    }

    /// The protected table store (the fault injector's view).
    pub fn tables(&self) -> &ProtectedTables {
        &self.tables
    }

    /// Flips stored bit `bit` of TT entry `entry`, as an SEU would; the
    /// decoder scrubs the arrays before its next fetch.
    ///
    /// # Errors
    ///
    /// [`CoreError::TableImage`] if the target is out of range.
    pub fn inject_tt_bit(&mut self, entry: usize, bit: usize) -> Result<(), CoreError> {
        self.tables.flip_tt_bit(entry, bit)
    }

    /// Flips stored bit `bit` of BBIT entry `entry`.
    ///
    /// # Errors
    ///
    /// [`CoreError::TableImage`] if the target is out of range.
    pub fn inject_bbit_bit(&mut self, entry: usize, bit: usize) -> Result<(), CoreError> {
        self.tables.flip_bbit_bit(entry, bit)
    }

    /// Drains the fault events recorded since the last call.
    pub fn take_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.events)
    }

    /// PC ranges currently degraded to the fallback path.
    pub fn degraded_ranges(&self) -> &[(u32, u32)] {
        &self.degraded
    }

    /// Processes one fetch: `stored` is the word instruction memory put on
    /// the bus at `pc`; the return value is the restored original word.
    ///
    /// Callers that model the fault fallback path should use
    /// [`FetchDecoder::on_fetch_classified`]: for a degraded fetch this
    /// method returns `stored` unchanged, which inside an encoded block
    /// is *not* the original word.
    pub fn on_fetch(&mut self, pc: u32, stored: u32) -> u32 {
        self.on_fetch_classified(pc, stored).0
    }

    /// Processes one fetch and reports how it was handled.
    ///
    /// [`FetchKind::Degraded`] fetches return `stored` unchanged and the
    /// memory system is expected to refetch the original word through the
    /// fallback path — never execute the encoded bits.
    pub fn on_fetch_classified(&mut self, pc: u32, stored: u32) -> (u32, FetchKind) {
        let (lane_mask, overlap) = (self.lane_mask, self.overlap);
        self.walk(pc, stored, |view, run| {
            run.restore(view, stored, lane_mask, overlap)
        })
    }

    /// Restores the straight-line run of fetches `pc, pc + 4, …`: on
    /// return `restored[i]` is what [`FetchDecoder::on_fetch`] would
    /// return for `stored[i]`, and the counters, events, degraded ranges
    /// and walker state are those the per-fetch calls would leave.
    ///
    /// The walker's per-fetch work moves to coarser grain: the tables are
    /// scrubbed (if dirty) once per run, and the BBIT is scanned once per
    /// segment — a segment ends at a TT entry boundary or at the next
    /// BBIT tag inside the run — while every fetch is still restored
    /// through its entry's lane masks. Once any block is degraded, the
    /// rest of the run goes through the per-fetch walker.
    ///
    /// # Panics
    ///
    /// Panics if `stored` and `restored` differ in length.
    pub fn restore_run(&mut self, pc: u32, stored: &[u32], restored: &mut [u32]) {
        assert_eq!(
            stored.len(),
            restored.len(),
            "run and output differ in length"
        );
        if stored.is_empty() {
            return;
        }
        if self.tables.is_dirty() {
            self.absorb_scrub();
        }
        let len = stored.len();
        let at = |i: usize| pc.wrapping_add(4 * i as u32);
        let mut hit = self.tables.bbit_next_hit(pc, len);
        let mut i = 0;
        while i < len {
            if !self.degraded.is_empty() {
                for j in i..len {
                    restored[j] = self.on_fetch_classified(at(j), stored[j]).0;
                }
                return;
            }
            let mut next_hit = hit.map_or(len, |(offset, _, _)| offset);
            if next_hit == i {
                let (_, bbit_index, tt_index) = hit.expect("a hit at this fetch");
                self.state = Some(ActiveRun {
                    tt_index,
                    bbit_index,
                    block_index: 0,
                    fetch_in_block: 0,
                    expected_pc: at(i),
                    prev_stored: 0,
                    prev_decoded: 0,
                });
                hit = self
                    .tables
                    .bbit_next_hit(at(i + 1), len - i - 1)
                    .map(|(offset, entry, tt)| (i + 1 + offset, entry, tt));
                next_hit = hit.map_or(len, |(offset, _, _)| offset);
            }
            let Some(run) = self.state.filter(|run| run.expected_pc == at(i)) else {
                // No schedule, or control arrived from elsewhere: words
                // pass through up to the next BBIT tag.
                restored[i..next_hit].copy_from_slice(&stored[i..next_hit]);
                self.passthrough_fetches += (next_hit - i) as u64;
                self.state = None;
                i = next_hit;
                continue;
            };
            let Some(view) = self.tables.tt_view(run.tt_index) else {
                restored[i] = self.degrade_run(run, stored[i]).0;
                i += 1;
                continue;
            };
            // The segment: the rest of this entry, up to the next BBIT tag.
            let left_in_entry = view.entry.covers.saturating_sub(run.fetch_in_block).max(1);
            let end = (i + left_in_entry).min(next_hit);
            let mut history = run.restore(view, stored[i], self.lane_mask, self.overlap);
            restored[i] = history;
            for (out, &word) in restored[i + 1..end].iter_mut().zip(&stored[i + 1..end]) {
                history = view.masks.restore(word, history);
                *out = history;
            }
            self.state = run.advance(end - i, at(end - 1), stored[end - 1], history, &view.entry);
            self.decoded_fetches += (end - i) as u64;
            i = end;
        }
    }

    /// The Figure 5 walker around one fetch: scrub on a dirty table,
    /// degraded ranges, the BBIT lookup, the sequential-PC check, the
    /// `E`/`CT` fetch counter and the history registers. `restore` turns
    /// the active entry and the run state into the restored word.
    #[inline]
    fn walk(
        &mut self,
        pc: u32,
        stored: u32,
        restore: impl FnOnce(&TtView, &ActiveRun) -> u32,
    ) -> (u32, FetchKind) {
        if self.tables.is_dirty() {
            self.absorb_scrub();
        }
        if self.in_degraded(pc) {
            self.state = None;
            self.degraded_fetches += 1;
            return (stored, FetchKind::Degraded);
        }
        // BBIT hit (re)starts a schedule — also when a schedule is active:
        // a branch back to the loop header lands on a BBIT pc while the
        // previous block's schedule just ended.
        if let Some((bbit_index, tt_index)) = self.tables.bbit_lookup(pc) {
            self.state = Some(ActiveRun {
                tt_index,
                bbit_index,
                block_index: 0,
                fetch_in_block: 0,
                expected_pc: pc,
                prev_stored: 0,
                prev_decoded: 0,
            });
        }
        let Some(run) = self.state else {
            self.passthrough_fetches += 1;
            return (stored, FetchKind::Passthrough);
        };
        // A non-sequential fetch with no BBIT hit means control left the
        // encoded region mid-schedule; structurally impossible for
        // schedules built from real basic blocks, but the model fails
        // safe by dropping to pass-through.
        if run.expected_pc != pc {
            self.state = None;
            self.passthrough_fetches += 1;
            return (stored, FetchKind::Passthrough);
        }
        // A dangling TT index — a corrupted BBIT entry pointing past the
        // table, a walker crossing the end because an `E` bit flipped
        // away, or an entry quarantined mid-run — is a detected
        // structural fault: degrade the block, never index blindly.
        let Some(view) = self.tables.tt_view(run.tt_index) else {
            return self.degrade_run(run, stored);
        };
        let decoded = restore(view, &run);
        self.state = run.advance(1, pc, stored, decoded, &view.entry);
        self.decoded_fetches += 1;
        (decoded, FetchKind::Decoded)
    }

    /// The block size the schedule was built for.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The PC footprint of every scheduled basic block, as
    /// `(start_pc, end_pc)` half-open ranges in BBIT order — the regions
    /// whose fetches decode through the TT when entered at `start_pc`.
    pub fn scheduled_spans(&self) -> Vec<(u32, u32)> {
        self.spans.iter().map(|s| (s.start_pc, s.end_pc)).collect()
    }

    /// Drops any active schedule (e.g. between independent replays).
    /// Quarantines and degraded ranges persist — damage does not heal.
    pub fn reset(&mut self) {
        self.state = None;
    }

    /// Whether `pc` lies inside a degraded block.
    fn in_degraded(&self, pc: u32) -> bool {
        self.degraded.iter().any(|&(s, e)| pc >= s && pc < e)
    }

    /// Runs a scrub pass over the protected arrays and translates its
    /// verdicts into quarantined blocks and degraded PC ranges.
    fn absorb_scrub(&mut self) {
        let events = self.tables.scrub();
        for event in &events {
            match event.outcome {
                FaultOutcome::Corrected { .. } => {
                    if imt_obs::enabled() {
                        imt_obs::counter!("fault.corrected").inc();
                    }
                }
                FaultOutcome::Detected | FaultOutcome::Structural => {
                    if imt_obs::enabled() {
                        imt_obs::counter!("fault.detected").inc();
                    }
                    match event.table {
                        TableKind::Tt => self.degrade_tt_entry(event.index),
                        TableKind::Bbit => self.degrade_block(event.index),
                    }
                }
            }
        }
        self.events.extend(events);
    }

    /// Degrades every block whose clean schedule used TT entry `index`.
    fn degrade_tt_entry(&mut self, index: usize) {
        let affected: Vec<usize> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| (s.tt_first..=s.tt_last).contains(&index))
            .map(|(b, _)| b)
            .collect();
        for bbit_index in affected {
            self.degrade_block(bbit_index);
        }
    }

    /// Quarantines BBIT entry `bbit_index` and marks its clean PC
    /// footprint as degraded.
    fn degrade_block(&mut self, bbit_index: usize) {
        self.tables.quarantine_bbit(bbit_index);
        let Some(span) = self.spans.get(bbit_index) else {
            return;
        };
        let range = (span.start_pc, span.end_pc);
        if !self.degraded.contains(&range) {
            self.degraded.push(range);
            if imt_obs::enabled() {
                imt_obs::counter!("fault.degraded").inc();
            }
        }
    }

    /// Handles a dangling TT index discovered mid-run: record a
    /// structural event, degrade the run's block, refuse the fetch.
    fn degrade_run(&mut self, run: ActiveRun, stored: u32) -> (u32, FetchKind) {
        if !self.tables.tt_quarantined(run.tt_index) {
            self.events.push(FaultEvent {
                table: TableKind::Tt,
                index: run.tt_index,
                outcome: FaultOutcome::Structural,
            });
            if imt_obs::enabled() {
                imt_obs::counter!("fault.detected").inc();
            }
        }
        self.degrade_block(run.bbit_index);
        self.state = None;
        self.degraded_fetches += 1;
        (stored, FetchKind::Degraded)
    }
}

/// Walks the clean tables once to record each scheduled block's PC
/// footprint and TT entry range.
fn compute_spans(tt: &TransformationTable, bbit: &Bbit) -> Vec<BlockSpan> {
    bbit.entries()
        .iter()
        .map(|entry| {
            let tt_first = entry.tt_index;
            let mut index = tt_first;
            let mut words = 0usize;
            while let Some(e) = tt.get(index) {
                words += e.covers;
                if e.end {
                    break;
                }
                index += 1;
            }
            BlockSpan {
                start_pc: entry.pc,
                end_pc: entry.pc.wrapping_add(4 * words as u32),
                tt_first,
                tt_last: index,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use imt_bitcode::lanes::encode_words;
    use imt_bitcode::stream::{StreamCodec, StreamCodecConfig};
    use imt_bitcode::TransformSet;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl FetchDecoder {
        /// The lane-by-lane restore the word-wide [`LaneMasks`] step
        /// replaced, kept as the test oracle: every line through its own
        /// gate and history bit, read from the decoded entry's
        /// transforms rather than its masks. It shares the walker, so any
        /// difference is the restore's.
        fn on_fetch_reference(&mut self, pc: u32, stored: u32) -> (u32, FetchKind) {
            let (lanes, overlap) = (self.lane_mask.count_ones() as usize, self.overlap);
            self.walk(pc, stored, |view, run| {
                let mut decoded = 0u32;
                for lane in 0..lanes {
                    let stored_bit = stored >> lane & 1 == 1;
                    let bit = if run.block_index == 0 && run.fetch_in_block == 0 {
                        // Seed of the basic block's first (initial) block.
                        stored_bit
                    } else {
                        let history = if run.fetch_in_block == 0 {
                            // First fetch of a chained block: the overlap bit.
                            match overlap {
                                OverlapHistory::Stored => run.prev_stored >> lane & 1 == 1,
                                OverlapHistory::Decoded => run.prev_decoded >> lane & 1 == 1,
                            }
                        } else {
                            run.prev_decoded >> lane & 1 == 1
                        };
                        view.entry.lane_transforms[lane].apply(stored_bit, history)
                    };
                    decoded |= (bit as u32) << lane;
                }
                decoded
            })
        }
    }

    #[test]
    fn lane_masks_restore_every_transform_on_every_row() {
        for (i, &t) in Transform::ALL.iter().enumerate() {
            // Line 0 carries `t`, line 1 its neighbour: lines stay separate.
            let other = Transform::ALL[(i + 5) % 16];
            let masks = LaneMasks::new(&[t, other]);
            for stored in 0..4u32 {
                for history in 0..4u32 {
                    let expected = u32::from(t.apply(stored & 1 == 1, history & 1 == 1))
                        | u32::from(other.apply(stored & 2 == 2, history & 2 == 2)) << 1;
                    assert_eq!(masks.restore(stored, history), expected, "{t} {other}");
                    // Lines past the entry never produce a bit.
                    assert_eq!(masks.restore(stored | !3, history | !3) & !3, 0);
                }
            }
        }
    }

    /// Random tables for `lanes` lines at block size `k` over `set`: one
    /// to four basic blocks of one to three entries with arbitrary
    /// transforms and `CT` values, each block 256 bytes apart.
    fn random_schedule(
        rng: &mut StdRng,
        lanes: usize,
        k: usize,
        set: TransformSet,
    ) -> (TransformationTable, Bbit) {
        let members: Vec<Transform> = set.iter().collect();
        let mut tt = TransformationTable::new();
        let mut bbit = Bbit::new();
        for block in 0..rng.gen_range(1usize..=4) {
            let entries = rng.gen_range(1usize..=3);
            let first = tt.len();
            for e in 0..entries {
                tt.push(TtEntry {
                    lane_transforms: (0..lanes)
                        .map(|_| members[rng.gen_range(0..members.len())])
                        .collect(),
                    end: e + 1 == entries,
                    covers: rng.gen_range(1..=k),
                });
            }
            bbit.push(BbitEntry {
                pc: 0x0040_0000 + 0x100 * block as u32,
                tt_index: first,
            });
        }
        (tt, bbit)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The word-wide decoder against the per-lane reference on random
        /// schedules, arbitrary stored words, wandering control flow and
        /// table upsets between fetches — including the garbage an
        /// unprotected upset decodes.
        #[test]
        fn word_wide_decoder_matches_the_per_lane_reference(
            lanes in 1usize..=32,
            k in 2usize..=8,
            decoded_overlap in any::<bool>(),
            sixteen in any::<bool>(),
            protection in 0usize..3,
            seed in any::<u64>(),
        ) {
            let overlap = if decoded_overlap {
                OverlapHistory::Decoded
            } else {
                OverlapHistory::Stored
            };
            let set = if sixteen {
                TransformSet::ALL_SIXTEEN
            } else {
                TransformSet::CANONICAL_EIGHT
            };
            let protection = Protection::ALL[protection];
            let mut rng = StdRng::seed_from_u64(seed);
            let (tt, bbit) = random_schedule(&mut rng, lanes, k, set);
            let build = || {
                FetchDecoder::with_protection(&tt, &bbit, lanes, k, overlap, set, protection)
                    .unwrap()
            };
            let (mut fast, mut reference) = (build(), build());
            let tt_bits = fast.tables().tt_stored_bits();
            let bbit_bits = fast.tables().bbit_stored_bits();
            let region = 0x100 * bbit.len() as u32;
            let mut pc = 0x0040_0000u32;
            for step in 0..rng.gen_range(0usize..300) {
                match rng.gen_range(0u32..100) {
                    0..=5 => {
                        let (entry, bit) = (rng.gen_range(0..tt.len()), rng.gen_range(0..tt_bits));
                        prop_assert_eq!(
                            fast.inject_tt_bit(entry, bit).is_ok(),
                            reference.inject_tt_bit(entry, bit).is_ok()
                        );
                        continue;
                    }
                    6..=8 => {
                        let (entry, bit) =
                            (rng.gen_range(0..bbit.len()), rng.gen_range(0..bbit_bits));
                        prop_assert_eq!(
                            fast.inject_bbit_bit(entry, bit).is_ok(),
                            reference.inject_bbit_bit(entry, bit).is_ok()
                        );
                        continue;
                    }
                    // Jump to a basic block's start ...
                    9..=24 => pc = 0x0040_0000 + 0x100 * rng.gen_range(0..bbit.len() as u32),
                    // ... or anywhere in and around the scheduled region.
                    25..=29 => pc = 0x0040_0000 + 4 * rng.gen_range(0..region / 4 + 16),
                    _ => {}
                }
                let stored = rng.gen::<u32>();
                prop_assert_eq!(
                    fast.on_fetch_classified(pc, stored),
                    reference.on_fetch_reference(pc, stored),
                    "step {} pc {:#x}", step, pc
                );
                pc = pc.wrapping_add(4);
            }
            prop_assert_eq!(fast.decoded_fetches(), reference.decoded_fetches());
            prop_assert_eq!(fast.passthrough_fetches(), reference.passthrough_fetches());
            prop_assert_eq!(fast.degraded_fetches(), reference.degraded_fetches());
            prop_assert_eq!(fast.take_events(), reference.take_events());
            prop_assert_eq!(fast.degraded_ranges(), reference.degraded_ranges());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `restore_run` against per-fetch `on_fetch_classified` on random
        /// schedules and arbitrary stored words: runs of random length
        /// (empty ones too) that start at, before or inside a block, cross
        /// BBIT tags mid-run or continue the previous run, with TT/BBIT
        /// upsets between runs and, in some schedules, a TT index that
        /// dangles — a BBIT entry past the table, or a last entry whose
        /// `E` bit is clear — met mid-run.
        #[test]
        fn run_restore_matches_the_per_fetch_walker(
            lanes in 1usize..=32,
            k in 2usize..=8,
            decoded_overlap in any::<bool>(),
            protection in 0usize..3,
            dangling in 0u32..3,
            seed in any::<u64>(),
        ) {
            let overlap = if decoded_overlap {
                OverlapHistory::Decoded
            } else {
                OverlapHistory::Stored
            };
            let set = TransformSet::CANONICAL_EIGHT;
            let protection = Protection::ALL[protection];
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut tt, mut bbit) = random_schedule(&mut rng, lanes, k, set);
            match dangling {
                1 => bbit.push(BbitEntry {
                    pc: 0x0040_0000 + 0x100 * bbit.len() as u32,
                    tt_index: tt.len() + rng.gen_range(0usize..4),
                }),
                2 => {
                    let mut entries = tt.entries().to_vec();
                    entries.last_mut().expect("a schedule has entries").end = false;
                    tt = TransformationTable { entries };
                }
                _ => {}
            }
            let build = || {
                FetchDecoder::with_protection(&tt, &bbit, lanes, k, overlap, set, protection)
                    .unwrap()
            };
            let (mut by_run, mut by_fetch) = (build(), build());
            let tt_bits = by_run.tables().tt_stored_bits();
            let bbit_bits = by_run.tables().bbit_stored_bits();
            let blocks = bbit.len() as u32;
            let mut pc = 0x0040_0000u32;
            let mut restored = Vec::new();
            for step in 0..rng.gen_range(0usize..60) {
                match rng.gen_range(0u32..100) {
                    0..=5 => {
                        let (entry, bit) = (rng.gen_range(0..tt.len()), rng.gen_range(0..tt_bits));
                        prop_assert_eq!(
                            by_run.inject_tt_bit(entry, bit).is_ok(),
                            by_fetch.inject_tt_bit(entry, bit).is_ok()
                        );
                        continue;
                    }
                    6..=8 => {
                        let (entry, bit) = (rng.gen_range(0..bbit.len()), rng.gen_range(0..bbit_bits));
                        prop_assert_eq!(
                            by_run.inject_bbit_bit(entry, bit).is_ok(),
                            by_fetch.inject_bbit_bit(entry, bit).is_ok()
                        );
                        continue;
                    }
                    // A block's start, or a few words before it, so that its
                    // BBIT tag lands mid-run ...
                    9..=39 => {
                        let before = 4 * rng.gen_range(0..6u32);
                        pc = (0x0040_0000 + 0x100 * rng.gen_range(0..blocks)).wrapping_sub(before);
                    }
                    // ... or anywhere in and around the scheduled region,
                    // entering a block mid-way.
                    40..=54 => pc = 0x0040_0000 + 4 * rng.gen_range(0..64 * blocks + 16),
                    // Otherwise the run continues where the last one ended.
                    _ => {}
                }
                let len = rng.gen_range(0usize..=80);
                let stored: Vec<u32> = (0..len).map(|_| rng.gen()).collect();
                restored.resize(len, 0);
                by_run.restore_run(pc, &stored, &mut restored);
                for (i, (&word, &restored)) in stored.iter().zip(&restored).enumerate() {
                    let at = pc.wrapping_add(4 * i as u32);
                    let (expected, _) = by_fetch.on_fetch_classified(at, word);
                    prop_assert_eq!(restored, expected, "step {} fetch {:#x}", step, at);
                }
                prop_assert_eq!(by_run.decoded_fetches(), by_fetch.decoded_fetches());
                prop_assert_eq!(by_run.passthrough_fetches(), by_fetch.passthrough_fetches());
                prop_assert_eq!(by_run.degraded_fetches(), by_fetch.degraded_fetches());
                prop_assert_eq!(by_run.take_events(), by_fetch.take_events());
                prop_assert_eq!(by_run.degraded_ranges(), by_fetch.degraded_ranges());
                pc = pc.wrapping_add(4 * len as u32);
            }
            // The walker state the runs left behind decodes the next fetch
            // the same way.
            let word = rng.gen::<u32>();
            prop_assert_eq!(
                by_run.on_fetch_classified(pc, word),
                by_fetch.on_fetch_classified(pc, word)
            );
        }
    }

    /// Builds a TT + BBIT for a single "basic block" of `words` starting at
    /// `pc`, mirroring what the pipeline does.
    fn schedule_for(
        words: &[u32],
        pc: u32,
        k: usize,
        overlap: OverlapHistory,
    ) -> (TransformationTable, Bbit, Vec<u32>) {
        let codec = StreamCodec::new(
            StreamCodecConfig::block_size(k)
                .unwrap()
                .with_transforms(TransformSet::CANONICAL_EIGHT)
                .unwrap()
                .with_overlap(overlap),
        );
        let wide: Vec<u64> = words.iter().map(|&w| w as u64).collect();
        let enc = encode_words(&wide, 32, &codec).unwrap();
        let blocks = enc.lanes()[0].blocks().len();
        let mut tt = TransformationTable::new();
        let mut first = None;
        for b in 0..blocks {
            let lane_transforms = (0..32)
                .map(|lane| enc.lanes()[lane].blocks()[b].transform)
                .collect();
            let covers = enc.lanes()[0].blocks()[b].len;
            let index = tt.push(TtEntry {
                lane_transforms,
                end: b + 1 == blocks,
                covers,
            });
            first.get_or_insert(index);
        }
        let mut bbit = Bbit::new();
        bbit.push(BbitEntry {
            pc,
            tt_index: first.unwrap(),
        });
        let stored: Vec<u32> = enc.words().iter().map(|&w| w as u32).collect();
        (tt, bbit, stored)
    }

    #[test]
    fn decodes_a_sequential_block_exactly() {
        let words: Vec<u32> = (0..13).map(|i| 0x1234_5678u32.rotate_left(i)).collect();
        for overlap in [OverlapHistory::Stored, OverlapHistory::Decoded] {
            for k in [2, 4, 5, 7] {
                let (tt, bbit, stored) = schedule_for(&words, 0x0040_0000, k, overlap);
                let mut dec = FetchDecoder::new(&tt, &bbit, 32, k, overlap);
                for (i, (&s, &w)) in stored.iter().zip(&words).enumerate() {
                    let pc = 0x0040_0000 + (i as u32) * 4;
                    assert_eq!(dec.on_fetch(pc, s), w, "k={k} overlap={overlap:?} i={i}");
                }
                assert_eq!(dec.decoded_fetches(), 13);
            }
        }
    }

    #[test]
    fn protected_decoders_match_the_unprotected_decode() {
        let words: Vec<u32> = (0..17).map(|i| 0x0F1E_2D3Cu32.rotate_left(i)).collect();
        let (tt, bbit, stored) = schedule_for(&words, 0x0040_0000, 5, OverlapHistory::Stored);
        for protection in Protection::ALL {
            let mut dec = FetchDecoder::with_protection(
                &tt,
                &bbit,
                32,
                5,
                OverlapHistory::Stored,
                TransformSet::CANONICAL_EIGHT,
                protection,
            )
            .unwrap();
            for (i, (&s, &w)) in stored.iter().zip(&words).enumerate() {
                let pc = 0x0040_0000 + (i as u32) * 4;
                let (decoded, kind) = dec.on_fetch_classified(pc, s);
                assert_eq!(decoded, w, "{protection} i={i}");
                assert_eq!(kind, FetchKind::Decoded);
            }
            assert!(dec.take_events().is_empty());
        }
    }

    #[test]
    fn loop_iterations_restart_via_bbit() {
        // Fetch the same block three times, as a loop would.
        let words: Vec<u32> = vec![0xAAAA_AAAA, 0x5555_5555, 0xAAAA_AAAA, 0x5555_5555];
        let (tt, bbit, stored) = schedule_for(&words, 0x0040_0000, 5, OverlapHistory::Stored);
        let mut dec = FetchDecoder::new(&tt, &bbit, 32, 5, OverlapHistory::Stored);
        for _iteration in 0..3 {
            for (i, (&s, &w)) in stored.iter().zip(&words).enumerate() {
                let pc = 0x0040_0000 + (i as u32) * 4;
                assert_eq!(dec.on_fetch(pc, s), w);
            }
        }
        assert_eq!(dec.decoded_fetches(), 12);
        assert_eq!(dec.passthrough_fetches(), 0);
    }

    #[test]
    fn unencoded_fetches_pass_through() {
        let (tt, bbit, _) = schedule_for(&[0, 0, 0], 0x0040_0000, 5, OverlapHistory::Stored);
        let mut dec = FetchDecoder::new(&tt, &bbit, 32, 5, OverlapHistory::Stored);
        // A fetch elsewhere never activates the schedule.
        assert_eq!(dec.on_fetch(0x0040_1000, 0xCAFE_F00D), 0xCAFE_F00D);
        assert_eq!(dec.passthrough_fetches(), 1);
        assert_eq!(dec.decoded_fetches(), 0);
    }

    #[test]
    fn schedule_ends_at_e_bit_and_ct() {
        let words: Vec<u32> = vec![0xFFFF_FFFF; 7]; // k=5 → blocks of 5 + 2, CT = 2
        let (tt, bbit, stored) = schedule_for(&words, 0x0040_0000, 5, OverlapHistory::Stored);
        assert_eq!(tt.len(), 2);
        assert!(!tt.entries()[0].end);
        assert_eq!(tt.entries()[0].covers, 5);
        assert!(tt.entries()[1].end);
        assert_eq!(tt.entries()[1].covers, 2); // the CT field
        let mut dec = FetchDecoder::new(&tt, &bbit, 32, 5, OverlapHistory::Stored);
        for (i, &s) in stored.iter().enumerate() {
            dec.on_fetch(0x0040_0000 + (i as u32) * 4, s);
        }
        // After E/CT exhaustion the next sequential word passes through.
        assert_eq!(dec.on_fetch(0x0040_0000 + 28, 0x1111_1111), 0x1111_1111);
        assert_eq!(dec.passthrough_fetches(), 1);
    }

    #[test]
    fn non_sequential_fetch_fails_safe() {
        let words: Vec<u32> = vec![0xAAAA_AAAA; 8];
        let (tt, bbit, stored) = schedule_for(&words, 0x0040_0000, 5, OverlapHistory::Stored);
        let mut dec = FetchDecoder::new(&tt, &bbit, 32, 5, OverlapHistory::Stored);
        dec.on_fetch(0x0040_0000, stored[0]);
        // Jump somewhere unrelated mid-schedule: decoder drops to
        // pass-through instead of corrupting.
        assert_eq!(dec.on_fetch(0x0050_0000, 0x7777_7777), 0x7777_7777);
        assert_eq!(dec.passthrough_fetches(), 1);
    }

    #[test]
    fn reset_clears_active_schedule() {
        let words: Vec<u32> = vec![0x0F0F_0F0F; 6];
        let (tt, bbit, stored) = schedule_for(&words, 0x0040_0000, 5, OverlapHistory::Stored);
        let mut dec = FetchDecoder::new(&tt, &bbit, 32, 5, OverlapHistory::Stored);
        dec.on_fetch(0x0040_0000, stored[0]);
        dec.reset();
        assert_eq!(dec.on_fetch(0x0040_0004, stored[1]), stored[1]); // passthrough now
    }

    #[test]
    fn bbit_rejects_duplicate_pcs() {
        let mut bbit = Bbit::new();
        bbit.push(BbitEntry {
            pc: 0x0040_0000,
            tt_index: 0,
        });
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bbit.push(BbitEntry {
                pc: 0x0040_0000,
                tt_index: 1,
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn tt_storage_accounting() {
        // 32 lines × 3 control bits + E + 3-bit CT = 100 bits per entry.
        assert_eq!(TtEntry::storage_bits(32, 3, 3), 100);
    }

    #[test]
    fn budget_charges_protection_check_bits() {
        let base = HardwareBudget::new(16, 10, 32, 8, 5);
        let parity = base.with_protection(Protection::Parity);
        assert_eq!(parity.tt_check_bits_per_entry, 1);
        assert_eq!(parity.bbit_check_bits_per_entry, 1);
        assert_eq!(parity.total_bits(), base.total_bits() + 16 + 10);
        let sec = base.with_protection(Protection::Sec);
        assert_eq!(sec.tt_check_bits_per_entry, 7); // 100 data bits
        assert_eq!(sec.bbit_check_bits_per_entry, 6); // 36 data bits
    }

    #[test]
    fn dangling_tt_index_degrades_instead_of_panicking() {
        // A BBIT entry pointing past the table end: the seed repo panicked
        // ("BBIT points at a valid TT entry"); now the block degrades.
        let (tt, _, stored) =
            schedule_for(&[1, 2, 3, 4, 5, 6], 0x0040_0000, 5, OverlapHistory::Stored);
        let mut bbit = Bbit::new();
        bbit.push(BbitEntry {
            pc: 0x0040_0000,
            tt_index: tt.len() + 3,
        });
        let mut dec = FetchDecoder::new(&tt, &bbit, 32, 5, OverlapHistory::Stored);
        let (word, kind) = dec.on_fetch_classified(0x0040_0000, stored[0]);
        assert_eq!(kind, FetchKind::Degraded);
        assert_eq!(word, stored[0]);
        assert_eq!(dec.degraded_fetches(), 1);
        let events = dec.take_events();
        assert!(
            matches!(
                events.as_slice(),
                [FaultEvent {
                    table: TableKind::Tt,
                    outcome: FaultOutcome::Structural,
                    ..
                }]
            ),
            "{events:?}"
        );
    }

    #[test]
    fn parity_detects_injected_tt_fault_and_degrades_the_block() {
        let words: Vec<u32> = (0..10).map(|i| 0xC3A5_1E78u32.rotate_left(i)).collect();
        let (tt, bbit, stored) = schedule_for(&words, 0x0040_0000, 5, OverlapHistory::Stored);
        let mut dec = FetchDecoder::with_protection(
            &tt,
            &bbit,
            32,
            5,
            OverlapHistory::Stored,
            TransformSet::CANONICAL_EIGHT,
            Protection::Parity,
        )
        .unwrap();
        // Decode the first word cleanly, then hit a selector bit.
        assert_eq!(dec.on_fetch(0x0040_0000, stored[0]), words[0]);
        dec.inject_tt_bit(0, 5).unwrap();
        // Every remaining fetch of the block degrades — no wrong word is
        // ever returned as "decoded".
        for (i, &s) in stored.iter().enumerate().skip(1) {
            let (word, kind) = dec.on_fetch_classified(0x0040_0000 + (i as u32) * 4, s);
            assert_eq!(kind, FetchKind::Degraded, "i={i}");
            assert_eq!(word, s);
        }
        assert!(dec
            .take_events()
            .iter()
            .any(|e| e.table == TableKind::Tt && e.outcome == FaultOutcome::Detected));
    }

    #[test]
    fn sec_corrects_injected_tt_fault_transparently() {
        let words: Vec<u32> = (0..10).map(|i| 0x9D82_44F1u32.rotate_left(i)).collect();
        let (tt, bbit, stored) = schedule_for(&words, 0x0040_0000, 5, OverlapHistory::Stored);
        let mut dec = FetchDecoder::with_protection(
            &tt,
            &bbit,
            32,
            5,
            OverlapHistory::Stored,
            TransformSet::CANONICAL_EIGHT,
            Protection::Sec,
        )
        .unwrap();
        dec.inject_tt_bit(0, 40).unwrap();
        for (i, (&s, &w)) in stored.iter().zip(&words).enumerate() {
            let (word, kind) = dec.on_fetch_classified(0x0040_0000 + (i as u32) * 4, s);
            assert_eq!(kind, FetchKind::Decoded, "i={i}");
            assert_eq!(word, w, "i={i}");
        }
        let events = dec.take_events();
        assert!(
            matches!(
                events.as_slice(),
                [FaultEvent {
                    table: TableKind::Tt,
                    index: 0,
                    outcome: FaultOutcome::Corrected { .. },
                }]
            ),
            "{events:?}"
        );
        assert_eq!(dec.degraded_fetches(), 0);
    }

    #[test]
    fn detected_bbit_fault_degrades_its_block() {
        let words: Vec<u32> = (0..8).map(|i| 0x5A5A_5A5Au32.rotate_left(i)).collect();
        let (tt, bbit, stored) = schedule_for(&words, 0x0040_0000, 5, OverlapHistory::Stored);
        let mut dec = FetchDecoder::with_protection(
            &tt,
            &bbit,
            32,
            5,
            OverlapHistory::Stored,
            TransformSet::CANONICAL_EIGHT,
            Protection::Parity,
        )
        .unwrap();
        // Corrupt the PC tag before any fetch: without detection the
        // block would silently pass encoded words through.
        dec.inject_bbit_bit(0, 3).unwrap();
        let (word, kind) = dec.on_fetch_classified(0x0040_0000, stored[0]);
        assert_eq!(kind, FetchKind::Degraded);
        assert_eq!(word, stored[0]);
        assert!(dec
            .take_events()
            .iter()
            .any(|e| e.table == TableKind::Bbit && e.outcome == FaultOutcome::Detected));
    }

    #[test]
    fn unprotected_tt_fault_decodes_garbage_silently() {
        // The negative control the campaign measures: with no check code a
        // selector flip yields wrong decoded words and no event.
        let words: Vec<u32> = (0..10).map(|i| 0x1357_9BDFu32.rotate_left(i)).collect();
        let (tt, bbit, stored) = schedule_for(&words, 0x0040_0000, 5, OverlapHistory::Stored);
        let mut dec = FetchDecoder::with_protection(
            &tt,
            &bbit,
            32,
            5,
            OverlapHistory::Stored,
            TransformSet::CANONICAL_EIGHT,
            Protection::None,
        )
        .unwrap();
        dec.inject_tt_bit(0, 6).unwrap();
        let mut wrong = 0;
        for (i, (&s, &w)) in stored.iter().zip(&words).enumerate() {
            let (word, kind) = dec.on_fetch_classified(0x0040_0000 + (i as u32) * 4, s);
            assert_ne!(kind, FetchKind::Degraded);
            if word != w {
                wrong += 1;
            }
        }
        assert!(wrong > 0, "selector flip should corrupt decoded words");
        assert!(dec.take_events().is_empty());
    }
}
