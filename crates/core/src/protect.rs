//! Table protection: entry bit layouts, parity / SEC Hamming check codes,
//! and the protected SRAM model behind the fetch decoder (DESIGN.md §11).
//!
//! The TT and BBIT are tiny reprogrammable SRAM arrays in the fetch stage,
//! which makes them the natural soft-error target of the whole mechanism:
//! one flipped τ-selector bit corrupts every subsequent decoded word of its
//! block. This module models the arrays at the bit level so faults can be
//! injected where real upsets land:
//!
//! * [`EntryLayout`] fixes the serialized bit order of a TT entry
//!   (`lanes × ⌈log₂|set|⌉` selector bits in preference order, the `E` bit,
//!   the `CT` counter) and of a BBIT entry (32-bit PC tag, TT index) — the
//!   same accounting [`crate::hardware::HardwareBudget`] charges;
//! * [`Protection`] selects the per-entry check code: none, even parity
//!   (detect-only), or a single-error-correcting Hamming code;
//! * [`ProtectedTables`] stores each entry as its raw code word, lets a
//!   fault injector flip arbitrary stored bits, and — on a scrub pass —
//!   verifies, corrects, or quarantines entries, reporting every decision
//!   as a typed [`FaultEvent`].
//!
//! Structural validation is independent of the check code: a selector
//! index outside the transformation set, a `CT` value of zero or above the
//! block size, or a TT index past the table end can never decode and is
//! quarantined even under [`Protection::None`].

use imt_bitcode::{Transform, TransformSet};

use crate::error::CoreError;
use crate::hardware::{Bbit, BbitEntry, LaneMasks, TransformationTable, TtEntry};

/// Check code protecting each TT/BBIT entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Protection {
    /// Raw SRAM: upsets are only caught if they happen to be structurally
    /// invalid.
    #[default]
    None,
    /// One even-parity bit per entry: detects every odd-weight upset,
    /// corrects nothing.
    Parity,
    /// Single-error-correcting Hamming code: corrects any single-bit
    /// upset in place; multi-bit upsets may be miscorrected (SEC, not
    /// SECDED — the paper-scale tables are too small to justify the
    /// extra bit).
    Sec,
}

impl Protection {
    /// Every level, in increasing-cost order.
    pub const ALL: [Protection; 3] = [Protection::None, Protection::Parity, Protection::Sec];

    /// Check bits appended to an entry of `data_bits` payload bits.
    pub fn check_bits(self, data_bits: usize) -> usize {
        match self {
            Protection::None => 0,
            Protection::Parity => 1,
            Protection::Sec => hamming_check_bits(data_bits),
        }
    }

    /// The level's canonical lowercase name (CLI flag value).
    pub fn name(self) -> &'static str {
        match self {
            Protection::None => "none",
            Protection::Parity => "parity",
            Protection::Sec => "sec",
        }
    }

    /// Parses a CLI flag value (`none` / `parity` / `sec`).
    pub fn parse(s: &str) -> Option<Protection> {
        match s {
            "none" => Some(Protection::None),
            "parity" => Some(Protection::Parity),
            "sec" => Some(Protection::Sec),
            _ => None,
        }
    }
}

impl std::fmt::Display for Protection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which of the two fetch-stage tables a fault event concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableKind {
    /// The Transformation Table.
    Tt,
    /// The Basic Block Identification Table.
    Bbit,
}

impl std::fmt::Display for TableKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TableKind::Tt => "tt",
            TableKind::Bbit => "bbit",
        })
    }
}

/// What a scrub pass decided about one table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The check code located and repaired a single flipped bit.
    Corrected {
        /// Code-word position of the repaired bit.
        bit: usize,
    },
    /// The check code detected an upset it cannot locate; the entry is
    /// quarantined and its basic block degrades to the fallback path.
    Detected,
    /// The entry decodes to a structurally impossible schedule (selector
    /// out of set, `CT` out of `1..=k`, TT index past the table); caught
    /// even with no check code, quarantined like a detected upset.
    Structural,
}

/// A typed record of one detection/correction/quarantine decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The table holding the affected entry.
    pub table: TableKind,
    /// The affected entry's index.
    pub index: usize,
    /// What the scrub decided.
    pub outcome: FaultOutcome,
}

/// [`EntryLayout`]'s selector slot for a transform outside its set.
const NO_SELECTOR: u8 = u8::MAX;

/// The serialized bit order of TT and BBIT entries for one configuration —
/// the single source of truth shared by the check codes, the fault
/// injector's bit addressing, and the budget accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryLayout {
    set: TransformSet,
    /// The set's members in preference order: selector → transform.
    members: [Transform; 16],
    /// Truth table → selector, [`NO_SELECTOR`] outside the set.
    selectors: [u8; 16],
    lanes: usize,
    block_size: usize,
    control_bits: u32,
    ct_bits: u32,
    tt_index_bits: u32,
    tt_capacity: usize,
}

impl EntryLayout {
    /// Builds the layout for `lanes` bus lines, transformation set `set`,
    /// block size `block_size` and a TT of `tt_capacity` entries.
    pub fn new(set: TransformSet, lanes: usize, block_size: usize, tt_capacity: usize) -> Self {
        let mut members = [Transform::IDENTITY; 16];
        let mut selectors = [NO_SELECTOR; 16];
        for (selector, transform) in set.iter().enumerate() {
            members[selector] = transform;
            selectors[usize::from(transform.table())] = selector as u8;
        }
        EntryLayout {
            set,
            members,
            selectors,
            lanes,
            block_size,
            control_bits: set.control_bits().max(1),
            ct_bits: (usize::BITS - block_size.saturating_sub(1).leading_zeros()).max(1),
            tt_index_bits: (usize::BITS - tt_capacity.saturating_sub(1).leading_zeros()).max(1),
            tt_capacity,
        }
    }

    /// Payload bits of one TT entry: selectors, `E`, `CT`.
    pub fn tt_data_bits(&self) -> usize {
        self.lanes * self.control_bits as usize + 1 + self.ct_bits as usize
    }

    /// Payload bits of one BBIT entry: 32-bit PC tag plus a TT index.
    pub fn bbit_data_bits(&self) -> usize {
        32 + self.tt_index_bits as usize
    }

    /// The transformation set selectors index into.
    pub fn set(&self) -> TransformSet {
        self.set
    }

    /// The block size `k` whose `CT` values (`1..=k`) are valid.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Serializes a TT entry, LSB-first per field, selector lanes first.
    ///
    /// Returns `None` if a lane's transform is outside the layout's set —
    /// such an entry cannot exist in this hardware configuration.
    fn pack_tt(&self, entry: &TtEntry) -> Option<Vec<bool>> {
        if entry.lane_transforms.len() != self.lanes {
            return None;
        }
        if entry.covers == 0 || entry.covers > self.block_size {
            return None;
        }
        let mut bits = Vec::with_capacity(self.tt_data_bits());
        for transform in &entry.lane_transforms {
            let selector = self.selectors[usize::from(transform.table())];
            if selector == NO_SELECTOR {
                return None;
            }
            push_field(&mut bits, usize::from(selector), self.control_bits);
        }
        bits.push(entry.end);
        // CT is stored biased (`covers - 1`) so the full-tail value
        // `covers == k` fits when `k` is a power of two (e.g. k=4 in the
        // 2-bit counter sized for `k-1`).
        push_field(&mut bits, entry.covers - 1, self.ct_bits);
        Some(bits)
    }

    /// Deserializes a TT entry; `Err(outcome)` flags a structurally
    /// invalid bit pattern (selector outside the set, `CT` not in
    /// `1..=k`).
    fn unpack_tt(&self, bits: &[bool]) -> Result<TtEntry, FaultOutcome> {
        let mut at = 0usize;
        let mut field = |width: u32| {
            let mut value = 0usize;
            for b in 0..width {
                value |= (bits[at] as usize) << b;
                at += 1;
            }
            value
        };
        let mut lane_transforms = Vec::with_capacity(self.lanes);
        for _ in 0..self.lanes {
            let selector = field(self.control_bits);
            if selector >= self.set.len() {
                return Err(FaultOutcome::Structural);
            }
            lane_transforms.push(self.members[selector]);
        }
        let end = field(1) == 1;
        let covers = field(self.ct_bits) + 1;
        if covers > self.block_size {
            return Err(FaultOutcome::Structural);
        }
        Ok(TtEntry {
            lane_transforms,
            end,
            covers,
        })
    }

    /// Serializes a BBIT entry: PC tag, then the TT index.
    fn pack_bbit(&self, entry: &BbitEntry) -> Vec<bool> {
        let mut bits = Vec::with_capacity(self.bbit_data_bits());
        push_field(&mut bits, entry.pc as usize, 32);
        push_field(&mut bits, entry.tt_index, self.tt_index_bits);
        bits
    }

    /// Deserializes a BBIT entry; a TT index at or past the table
    /// capacity is structurally invalid.
    fn unpack_bbit(&self, bits: &[bool]) -> Result<BbitEntry, FaultOutcome> {
        let mut pc = 0u32;
        for (b, &bit) in bits.iter().take(32).enumerate() {
            pc |= (bit as u32) << b;
        }
        let mut tt_index = 0usize;
        for b in 0..self.tt_index_bits as usize {
            tt_index |= (bits[32 + b] as usize) << b;
        }
        if tt_index >= self.tt_capacity.max(1) {
            return Err(FaultOutcome::Structural);
        }
        Ok(BbitEntry { pc, tt_index })
    }
}

/// Appends the low `width` bits of `value`, LSB first.
fn push_field(bits: &mut Vec<bool>, value: usize, width: u32) {
    bits.extend((0..width).map(|b| value >> b & 1 == 1));
}

/// Check bits `r` a SEC Hamming code needs for `m` data bits
/// (`2^r ≥ m + r + 1`).
fn hamming_check_bits(m: usize) -> usize {
    let mut r = 0usize;
    while (1usize << r) < m + r + 1 {
        r += 1;
    }
    r
}

/// Encodes `data` into a Hamming code word (positions `1..=m+r`, check
/// bits at the power-of-two positions).
fn hamming_encode(data: &[bool]) -> Vec<bool> {
    let m = data.len();
    let r = hamming_check_bits(m);
    let n = m + r;
    let mut code = vec![false; n];
    let mut next = 0usize;
    for pos in 1..=n {
        if !pos.is_power_of_two() {
            code[pos - 1] = data[next];
            next += 1;
        }
    }
    for c in 0..r {
        let mask = 1usize << c;
        let mut parity = false;
        for pos in 1..=n {
            if pos & mask != 0 && !pos.is_power_of_two() {
                parity ^= code[pos - 1];
            }
        }
        code[mask - 1] = parity;
    }
    code
}

/// Decodes a Hamming code word in place. Returns the corrected data bits
/// and what happened; a syndrome pointing past the code word means the
/// upset is uncorrectable (only possible for multi-bit damage).
fn hamming_decode(code: &mut [bool]) -> (Vec<bool>, Option<FaultOutcome>) {
    let n = code.len();
    let mut syndrome = 0usize;
    for pos in 1..=n {
        if code[pos - 1] {
            syndrome ^= pos;
        }
    }
    let outcome = if syndrome == 0 {
        None
    } else if syndrome <= n {
        code[syndrome - 1] = !code[syndrome - 1];
        Some(FaultOutcome::Corrected { bit: syndrome - 1 })
    } else {
        Some(FaultOutcome::Detected)
    };
    let data = (1..=n)
        .filter(|pos| !pos.is_power_of_two())
        .map(|pos| code[pos - 1])
        .collect();
    (data, outcome)
}

/// Encodes `data` under `protection` into the stored code word.
fn encode_word(protection: Protection, mut data: Vec<bool>) -> Vec<bool> {
    match protection {
        Protection::None => data,
        Protection::Parity => {
            let parity = data.iter().fold(false, |p, &b| p ^ b);
            data.push(parity);
            data
        }
        Protection::Sec => hamming_encode(&data),
    }
}

/// Checks (and for SEC, repairs) a stored code word, returning the data
/// bits plus the check code's verdict. `None` means the code saw nothing
/// wrong — which for [`Protection::None`] means nothing at all.
fn decode_word(
    protection: Protection,
    word: &mut [bool],
    data_bits: usize,
) -> (Vec<bool>, Option<FaultOutcome>) {
    match protection {
        Protection::None => (word.to_vec(), None),
        Protection::Parity => {
            let parity = word.iter().fold(false, |p, &b| p ^ b);
            let verdict = if parity {
                Some(FaultOutcome::Detected)
            } else {
                None
            };
            (word[..data_bits].to_vec(), verdict)
        }
        Protection::Sec => hamming_decode(word),
    }
}

/// One live TT entry in the materialized view: the decoded fields and
/// the [`LaneMasks`] the fetch decoder restores with. Both come from the
/// same decoded selectors, built together by [`ProtectedTables::new`] and
/// rebuilt together by [`ProtectedTables::scrub`], so a fault that
/// changes or quarantines an entry changes its masks in the same step.
#[derive(Debug, Clone)]
pub(crate) struct TtView {
    /// The decoded entry.
    pub(crate) entry: TtEntry,
    /// `LaneMasks::new(&entry.lane_transforms)`.
    pub(crate) masks: LaneMasks,
}

impl TtView {
    fn new(entry: TtEntry) -> Self {
        let masks = LaneMasks::new(&entry.lane_transforms);
        TtView { entry, masks }
    }
}

/// The TT and BBIT as protected SRAM: every entry stored as its raw code
/// word, with materialized decoded views refreshed by [`scrub`].
///
/// The decoded views are what the fetch decoder reads each cycle, so the
/// clean-path decode cost is unchanged; the bit-level store only matters
/// when a fault injector flips something, which marks the array dirty and
/// forces a scrub before the next fetch.
///
/// [`scrub`]: ProtectedTables::scrub
#[derive(Debug, Clone)]
pub struct ProtectedTables {
    protection: Protection,
    layout: EntryLayout,
    tt_code: Vec<Vec<bool>>,
    bbit_code: Vec<Vec<bool>>,
    tt_view: Vec<Option<TtView>>,
    bbit_view: Vec<Option<BbitEntry>>,
    dirty: bool,
}

impl ProtectedTables {
    /// Packs `tt` and `bbit` into protected storage.
    ///
    /// # Errors
    ///
    /// [`CoreError::TableImage`] if a TT entry uses a transform outside
    /// `layout`'s set or the wrong lane count — such a schedule cannot be
    /// expressed in this hardware configuration.
    pub fn new(
        tt: &TransformationTable,
        bbit: &Bbit,
        layout: EntryLayout,
        protection: Protection,
    ) -> Result<Self, CoreError> {
        let mut tt_code = Vec::with_capacity(tt.len());
        let mut tt_view = Vec::with_capacity(tt.len());
        for entry in tt.entries() {
            let data = layout.pack_tt(entry).ok_or(CoreError::TableImage {
                detail: "TT entry does not fit the protection layout's transform set",
            })?;
            tt_code.push(encode_word(protection, data));
            tt_view.push(Some(TtView::new(entry.clone())));
        }
        let mut bbit_code = Vec::with_capacity(bbit.len());
        let mut bbit_view = Vec::with_capacity(bbit.len());
        for entry in bbit.entries() {
            bbit_code.push(encode_word(protection, layout.pack_bbit(entry)));
            bbit_view.push(Some(*entry));
        }
        Ok(ProtectedTables {
            protection,
            layout,
            tt_code,
            bbit_code,
            tt_view,
            bbit_view,
            dirty: false,
        })
    }

    /// The configured check code.
    pub fn protection(&self) -> Protection {
        self.protection
    }

    /// The entry serialization this store uses.
    pub fn layout(&self) -> &EntryLayout {
        &self.layout
    }

    /// TT entries stored (quarantined ones included).
    pub fn tt_len(&self) -> usize {
        self.tt_code.len()
    }

    /// BBIT entries stored (quarantined ones included).
    pub fn bbit_len(&self) -> usize {
        self.bbit_code.len()
    }

    /// Stored bits per TT entry, check bits included — the injectable
    /// surface of one entry.
    pub fn tt_stored_bits(&self) -> usize {
        self.layout.tt_data_bits() + self.protection.check_bits(self.layout.tt_data_bits())
    }

    /// Stored bits per BBIT entry, check bits included.
    pub fn bbit_stored_bits(&self) -> usize {
        self.layout.bbit_data_bits() + self.protection.check_bits(self.layout.bbit_data_bits())
    }

    /// Whether a flip has landed since the last scrub.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Flips stored bit `bit` of TT entry `entry` and marks the array
    /// dirty.
    ///
    /// # Errors
    ///
    /// [`CoreError::TableImage`] if `entry` or `bit` is out of range.
    pub fn flip_tt_bit(&mut self, entry: usize, bit: usize) -> Result<(), CoreError> {
        let word = self.tt_code.get_mut(entry).ok_or(CoreError::TableImage {
            detail: "TT fault target entry out of range",
        })?;
        let slot = word.get_mut(bit).ok_or(CoreError::TableImage {
            detail: "TT fault target bit out of range",
        })?;
        *slot = !*slot;
        self.dirty = true;
        Ok(())
    }

    /// Flips stored bit `bit` of BBIT entry `entry` and marks the array
    /// dirty.
    ///
    /// # Errors
    ///
    /// [`CoreError::TableImage`] if `entry` or `bit` is out of range.
    pub fn flip_bbit_bit(&mut self, entry: usize, bit: usize) -> Result<(), CoreError> {
        let word = self.bbit_code.get_mut(entry).ok_or(CoreError::TableImage {
            detail: "BBIT fault target entry out of range",
        })?;
        let slot = word.get_mut(bit).ok_or(CoreError::TableImage {
            detail: "BBIT fault target bit out of range",
        })?;
        *slot = !*slot;
        self.dirty = true;
        Ok(())
    }

    /// Verifies every stored entry against its check code and structure,
    /// repairing what the code can repair, quarantining what it cannot,
    /// and refreshing the decoded views. Returns one event per entry the
    /// pass had to act on; clears the dirty flag.
    ///
    /// Quarantined entries stay quarantined: a later scrub never
    /// resurrects an entry (the fault controller has no way to know the
    /// damage was transient).
    pub fn scrub(&mut self) -> Vec<FaultEvent> {
        let mut events = Vec::new();
        for index in 0..self.tt_code.len() {
            if self.tt_view[index].is_none() {
                continue;
            }
            let (data, verdict) = decode_word(
                self.protection,
                &mut self.tt_code[index],
                self.layout.tt_data_bits(),
            );
            match verdict {
                Some(FaultOutcome::Detected) => {
                    self.tt_view[index] = None;
                    events.push(FaultEvent {
                        table: TableKind::Tt,
                        index,
                        outcome: FaultOutcome::Detected,
                    });
                    continue;
                }
                Some(outcome) => events.push(FaultEvent {
                    table: TableKind::Tt,
                    index,
                    outcome,
                }),
                None => {}
            }
            match self.layout.unpack_tt(&data) {
                Ok(entry) => self.tt_view[index] = Some(TtView::new(entry)),
                Err(outcome) => {
                    self.tt_view[index] = None;
                    events.push(FaultEvent {
                        table: TableKind::Tt,
                        index,
                        outcome,
                    });
                }
            }
        }
        for index in 0..self.bbit_code.len() {
            if self.bbit_view[index].is_none() {
                continue;
            }
            let (data, verdict) = decode_word(
                self.protection,
                &mut self.bbit_code[index],
                self.layout.bbit_data_bits(),
            );
            match verdict {
                Some(FaultOutcome::Detected) => {
                    self.bbit_view[index] = None;
                    events.push(FaultEvent {
                        table: TableKind::Bbit,
                        index,
                        outcome: FaultOutcome::Detected,
                    });
                    continue;
                }
                Some(outcome) => events.push(FaultEvent {
                    table: TableKind::Bbit,
                    index,
                    outcome,
                }),
                None => {}
            }
            match self.layout.unpack_bbit(&data) {
                Ok(entry) => self.bbit_view[index] = Some(entry),
                Err(outcome) => {
                    self.bbit_view[index] = None;
                    events.push(FaultEvent {
                        table: TableKind::Bbit,
                        index,
                        outcome,
                    });
                }
            }
        }
        self.dirty = false;
        events
    }

    /// Disables BBIT entry `index` (its block falls back to the recovery
    /// path).
    pub fn quarantine_bbit(&mut self, index: usize) {
        if let Some(slot) = self.bbit_view.get_mut(index) {
            *slot = None;
        }
    }

    /// The decoded TT entry at `index`, unless absent or quarantined.
    pub fn tt_entry(&self, index: usize) -> Option<&TtEntry> {
        self.tt_view(index).map(|view| &view.entry)
    }

    /// The live view of TT entry `index` (entry and lane masks), unless
    /// absent or quarantined.
    #[inline]
    pub(crate) fn tt_view(&self, index: usize) -> Option<&TtView> {
        self.tt_view.get(index).and_then(Option::as_ref)
    }

    /// Whether TT entry `index` is quarantined.
    pub fn tt_quarantined(&self, index: usize) -> bool {
        matches!(self.tt_view.get(index), Some(None))
    }

    /// Whether BBIT entry `index` is quarantined.
    pub fn bbit_quarantined(&self, index: usize) -> bool {
        matches!(self.bbit_view.get(index), Some(None))
    }

    /// Finds the live BBIT entry tagged `pc`, returning `(entry index,
    /// TT index)`.
    pub fn bbit_lookup(&self, pc: u32) -> Option<(usize, usize)> {
        self.bbit_view
            .iter()
            .enumerate()
            .find_map(|(i, e)| match e {
                Some(entry) if entry.pc == pc => Some((i, entry.tt_index)),
                _ => None,
            })
    }

    /// The first of the `len` sequential fetches `pc, pc + 4, …` that a
    /// live BBIT entry tags, as `(fetch offset, entry index, TT index)`:
    /// what [`ProtectedTables::bbit_lookup`] returns at that fetch, found
    /// in one scan of the table.
    pub(crate) fn bbit_next_hit(&self, pc: u32, len: usize) -> Option<(usize, usize, usize)> {
        let mut hit: Option<(usize, usize, usize)> = None;
        for (index, entry) in self.bbit_view.iter().enumerate() {
            let Some(entry) = entry else { continue };
            let offset = entry.pc.wrapping_sub(pc);
            let at = (offset / 4) as usize;
            if offset % 4 == 0 && at < len && hit.is_none_or(|(first, _, _)| at < first) {
                hit = Some((at, index, entry.tt_index));
            }
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tt_entry(k: usize, end: bool, covers: usize) -> TtEntry {
        TtEntry {
            lane_transforms: vec![Transform::XOR; 32],
            end,
            covers: covers.min(k),
        }
    }

    fn sample_tables(k: usize) -> (TransformationTable, Bbit) {
        let mut tt = TransformationTable::new();
        tt.push(tt_entry(k, false, k));
        tt.push(tt_entry(k, true, 2));
        let mut bbit = Bbit::new();
        bbit.push(BbitEntry {
            pc: 0x0040_0100,
            tt_index: 0,
        });
        (tt, bbit)
    }

    fn layout(k: usize) -> EntryLayout {
        EntryLayout::new(TransformSet::CANONICAL_EIGHT, 32, k, 16)
    }

    #[test]
    fn layout_bit_widths_match_the_budget() {
        let l = layout(5);
        assert_eq!(l.tt_data_bits(), 32 * 3 + 1 + 3);
        assert_eq!(l.bbit_data_bits(), 32 + 4);
    }

    #[test]
    fn pack_unpack_round_trips() {
        let l = layout(5);
        let entry = tt_entry(5, true, 3);
        let bits = l.pack_tt(&entry).unwrap();
        assert_eq!(bits.len(), l.tt_data_bits());
        assert_eq!(l.unpack_tt(&bits).unwrap(), entry);
        let b = BbitEntry {
            pc: 0x1234_5678,
            tt_index: 11,
        };
        assert_eq!(l.unpack_bbit(&l.pack_bbit(&b)).unwrap(), b);
    }

    #[test]
    fn unpack_rejects_malformed_ct() {
        let l = layout(5);
        let mut bits = l.pack_tt(&tt_entry(5, true, 5)).unwrap();
        // All-zero CT decodes to covers = 1 under the biased encoding.
        let ct_at = l.tt_data_bits() - l.ct_bits as usize;
        for b in &mut bits[ct_at..] {
            *b = false;
        }
        assert_eq!(l.unpack_tt(&bits).map(|e| e.covers), Ok(1));
        // Stored 7 → covers 8 > k = 5: structural.
        for b in &mut bits[ct_at..] {
            *b = true;
        }
        assert_eq!(l.unpack_tt(&bits), Err(FaultOutcome::Structural));
        // A full-tail entry round-trips even when k is a power of two:
        // covers = k = 4 must fit the 2-bit counter sized for k-1.
        let l4 = EntryLayout::new(TransformSet::CANONICAL_EIGHT, 4, 4, 8);
        let entry = TtEntry {
            lane_transforms: vec![Transform::IDENTITY; 4],
            end: true,
            covers: 4,
        };
        let bits = l4.pack_tt(&entry).unwrap();
        assert_eq!(l4.unpack_tt(&bits), Ok(entry));
        // And covers outside 1..=k cannot be packed at all.
        assert!(l4
            .pack_tt(&TtEntry {
                lane_transforms: vec![Transform::IDENTITY; 4],
                end: false,
                covers: 5,
            })
            .is_none());
    }

    #[test]
    fn hamming_corrects_any_single_flip() {
        for m in [5usize, 37, 100, 132] {
            let data: Vec<bool> = (0..m).map(|i| i % 3 == 0).collect();
            let clean = hamming_encode(&data);
            for flip in 0..clean.len() {
                let mut code = clean.clone();
                code[flip] = !code[flip];
                let (restored, outcome) = hamming_decode(&mut code);
                assert_eq!(restored, data, "m={m} flip={flip}");
                assert_eq!(outcome, Some(FaultOutcome::Corrected { bit: flip }));
            }
        }
    }

    #[test]
    fn parity_detects_any_single_flip() {
        let data: Vec<bool> = (0..100).map(|i| i % 7 == 0).collect();
        let clean = encode_word(Protection::Parity, data.clone());
        for flip in 0..clean.len() {
            let mut word = clean.clone();
            word[flip] = !word[flip];
            let (_, verdict) = decode_word(Protection::Parity, &mut word, data.len());
            assert_eq!(verdict, Some(FaultOutcome::Detected), "flip={flip}");
        }
    }

    #[test]
    fn scrub_is_a_no_op_on_clean_tables() {
        let (tt, bbit) = sample_tables(5);
        for protection in Protection::ALL {
            let mut store = ProtectedTables::new(&tt, &bbit, layout(5), protection).unwrap();
            assert!(store.scrub().is_empty(), "{protection}");
            assert_eq!(store.tt_entry(0), tt.get(0));
            assert_eq!(store.bbit_lookup(0x0040_0100), Some((0, 0)));
        }
    }

    #[test]
    fn sec_repairs_and_parity_quarantines_a_selector_flip() {
        let (tt, bbit) = sample_tables(5);
        let mut sec = ProtectedTables::new(&tt, &bbit, layout(5), Protection::Sec).unwrap();
        sec.flip_tt_bit(0, 17).unwrap();
        let events = sec.scrub();
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
        assert_eq!(sec.tt_entry(0), tt.get(0));

        let mut par = ProtectedTables::new(&tt, &bbit, layout(5), Protection::Parity).unwrap();
        par.flip_tt_bit(0, 17).unwrap();
        let events = par.scrub();
        assert_eq!(
            events,
            vec![FaultEvent {
                table: TableKind::Tt,
                index: 0,
                outcome: FaultOutcome::Detected,
            }]
        );
        assert!(par.tt_quarantined(0));
        assert!(par.tt_entry(0).is_none());
    }

    #[test]
    fn unprotected_flip_silently_changes_the_view() {
        let (tt, bbit) = sample_tables(5);
        let mut store = ProtectedTables::new(&tt, &bbit, layout(5), Protection::None).unwrap();
        // Flip one selector bit: the decoded view changes, no event.
        store.flip_tt_bit(0, 0).unwrap();
        let events = store.scrub();
        assert!(events.is_empty());
        assert_ne!(store.tt_entry(0), tt.get(0));
    }

    #[test]
    fn unprotected_structural_damage_is_still_caught() {
        let (tt, bbit) = sample_tables(5);
        let mut store = ProtectedTables::new(&tt, &bbit, layout(5), Protection::None).unwrap();
        // Force CT out of range on the tail entry (covers=2 stored biased
        // as 0b001; set all three counter bits → stored 7 → covers 8 > k).
        let ct_at = store.layout().tt_data_bits() - 3;
        store.flip_tt_bit(1, ct_at + 1).unwrap();
        store.flip_tt_bit(1, ct_at + 2).unwrap();
        let events = store.scrub();
        assert_eq!(
            events,
            vec![FaultEvent {
                table: TableKind::Tt,
                index: 1,
                outcome: FaultOutcome::Structural,
            }]
        );
        assert!(store.tt_quarantined(1));
    }

    #[test]
    fn corrupted_bbit_tag_misses_and_corrupted_index_is_bounded() {
        let (tt, bbit) = sample_tables(5);
        let mut store = ProtectedTables::new(&tt, &bbit, layout(5), Protection::None).unwrap();
        // Flip a PC tag bit: the original pc no longer hits.
        store.flip_bbit_bit(0, 8).unwrap();
        store.scrub();
        assert_eq!(store.bbit_lookup(0x0040_0100), None);
        assert_eq!(store.bbit_lookup(0x0040_0000), Some((0, 0)));
    }

    #[test]
    fn check_bit_costs() {
        assert_eq!(Protection::None.check_bits(100), 0);
        assert_eq!(Protection::Parity.check_bits(100), 1);
        assert_eq!(Protection::Sec.check_bits(100), 7); // 2^7 ≥ 108
        assert_eq!(Protection::Sec.check_bits(36), 6);
    }

    #[test]
    fn flip_targets_are_bounds_checked() {
        let (tt, bbit) = sample_tables(5);
        let mut store = ProtectedTables::new(&tt, &bbit, layout(5), Protection::None).unwrap();
        assert!(store.flip_tt_bit(99, 0).is_err());
        assert!(store.flip_tt_bit(0, 9999).is_err());
        assert!(store.flip_bbit_bit(99, 0).is_err());
        assert!(!store.is_dirty());
        store.flip_tt_bit(0, 0).unwrap();
        assert!(store.is_dirty());
    }
}
