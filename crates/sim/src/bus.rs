//! Bus transition monitors and the energy model.
//!
//! Dynamic power on a bus line is `P = α·C·V²·f` where `α` is the switching
//! activity; per fetch, each line that toggles dissipates `½·C·V²`. The
//! paper reports raw transition counts (its Figure 6) and argues power is
//! proportional; [`EnergyModel`] turns counts into joules for a chosen line
//! capacitance and supply voltage so experiments can also report energy.

use crate::cpu::FetchSink;

/// The low bit of every byte: `diff >> j & BYTE_LOW_BITS` picks lines
/// `j, j + 8, …, j + 56`, one per byte of a SWAR counter word.
const BYTE_LOW_BITS: u64 = 0x0101_0101_0101_0101;

/// SWAR steps the byte-wide counters absorb before one could overflow:
/// a step adds at most one to each byte.
const FLUSH_EVERY: u32 = u8::MAX as u32;

/// Counts 0↔1 transitions per line on the instruction **data** bus.
///
/// Feed it fetched words in program order — one at a time through
/// [`DataBusMonitor::observe`], a run at a time through
/// [`DataBusMonitor::observe_run`], or as a [`FetchSink`] hanging off the
/// CPU, which hands it whole runs.
///
/// Per-line counts are kept branch-free: eight SWAR words of byte-wide
/// counters absorb each transition word with a shift, a mask and an add
/// apiece, and are flushed into 64-bit totals every 255 steps, before a
/// byte can overflow. On a bus of at most 32 lines a transition word
/// fills only the low four bytes, so `observe_run` packs two consecutive
/// transition words into each step, the second in the high four bytes.
/// [`DataBusMonitor::per_lane`] adds the pending bytes back, so it is
/// exact at any moment.
///
/// ```
/// use imt_sim::bus::DataBusMonitor;
///
/// let mut bus = DataBusMonitor::new(32);
/// bus.observe(0x0000_00FF);
/// bus.observe(0x0000_0F0F); // 8 lines flip: 0xFF ^ 0x0F0F = 0x0FF0
/// assert_eq!(bus.total_transitions(), 8);
/// // Lines 4..=11 flipped once each; `per_lane` returns owned counts.
/// let per_lane: Vec<u64> = bus.per_lane();
/// assert_eq!(per_lane[4..12], [1; 8]);
/// assert_eq!(per_lane.iter().sum::<u64>(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct DataBusMonitor {
    width: usize,
    mask: u64,
    last: Option<u64>,
    /// Per-line counts flushed out of `pending`.
    flushed: Vec<u64>,
    /// Byte `b` of `pending[j]` counts line `8b + j` since the last flush;
    /// on a bus of at most 32 lines, byte `b + 4` counts line `8b + j` too
    /// (the second word of each packed pair).
    pending: [u64; 8],
    /// SWAR steps absorbed by `pending` since the last flush.
    pending_steps: u32,
    total: u64,
    words: u64,
}

impl DataBusMonitor {
    /// Creates a monitor for a bus of `width` lines (1–64).
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=64`.
    pub fn new(width: usize) -> Self {
        assert!(
            (1..=64).contains(&width),
            "bus width {width} outside 1..=64"
        );
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        DataBusMonitor {
            width,
            mask,
            last: None,
            flushed: vec![0; width],
            pending: [0; 8],
            pending_steps: 0,
            total: 0,
            words: 0,
        }
    }

    /// Observes the next word on the bus.
    #[inline]
    pub fn observe(&mut self, word: u64) {
        let word = word & self.mask;
        if let Some(last) = self.last {
            self.absorb(last ^ word);
        }
        self.last = Some(word);
        self.words += 1;
    }

    /// Observes a run of consecutive words in one pass over the slice: the
    /// same counts as [`DataBusMonitor::observe`] on each word in order.
    /// On a bus of at most 32 lines each SWAR step absorbs two transition
    /// words, one per half of the counters; a wider bus takes them one at
    /// a time.
    pub fn observe_run(&mut self, words: &[u32]) {
        if self.width > 32 {
            for &word in words {
                self.observe(u64::from(word));
            }
            return;
        }
        let mask = self.mask as u32;
        let (mut prev, rest) = match (self.last, words) {
            (_, []) => return,
            (Some(last), _) => (last as u32, words),
            (None, [first, rest @ ..]) => (first & mask, rest),
        };
        self.words += words.len() as u64;
        let mut pairs = rest.chunks_exact(2);
        let odd = pairs.remainder();
        while pairs.len() > 0 {
            // Whole steps up to the next flush, with the counters in locals.
            let steps = pairs.len().min((FLUSH_EVERY - self.pending_steps) as usize);
            let (mut pending, mut total) = (self.pending, 0u64);
            for pair in pairs.by_ref().take(steps) {
                let (a, b) = (pair[0] & mask, pair[1] & mask);
                let diff = u64::from(prev ^ a) | u64::from(a ^ b) << 32;
                total += u64::from(diff.count_ones());
                add_diff(&mut pending, diff);
                prev = b;
            }
            (self.pending, self.total) = (pending, self.total + total);
            self.pending_steps += steps as u32;
            if self.pending_steps == FLUSH_EVERY {
                self.flush();
            }
        }
        if let [word] = odd {
            let word = word & mask;
            self.absorb(u64::from(prev ^ word));
            prev = word;
        }
        self.last = Some(u64::from(prev));
    }

    /// Counts one transition word in one SWAR step.
    #[inline]
    fn absorb(&mut self, diff: u64) {
        self.total += u64::from(diff.count_ones());
        add_diff(&mut self.pending, diff);
        self.pending_steps += 1;
        if self.pending_steps == FLUSH_EVERY {
            self.flush();
        }
    }

    /// Moves the pending byte counts into the 64-bit totals.
    fn flush(&mut self) {
        let (pending, width) = (&self.pending, self.width);
        for (lane, count) in self.flushed.iter_mut().enumerate() {
            *count += pending_count(pending, width, lane);
        }
        self.pending = [0; 8];
        self.pending_steps = 0;
    }

    /// Number of bus lines.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Words observed so far.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Transitions per line, index = line number: the flushed totals plus
    /// the pending byte counts.
    pub fn per_lane(&self) -> Vec<u64> {
        self.flushed
            .iter()
            .enumerate()
            .map(|(lane, &count)| count + pending_count(&self.pending, self.width, lane))
            .collect()
    }

    /// Total transitions across all lines — the paper's `#TR` metric.
    ///
    /// O(1): maintained incrementally by [`DataBusMonitor::observe`] via a
    /// single popcount per word, independent of bus width.
    pub fn total_transitions(&self) -> u64 {
        debug_assert_eq!(self.total, self.per_lane().iter().sum::<u64>());
        self.total
    }

    /// Resets counters, keeping the width.
    pub fn reset(&mut self) {
        self.last = None;
        self.total = 0;
        self.words = 0;
        self.flushed.iter_mut().for_each(|c| *c = 0);
        self.pending = [0; 8];
        self.pending_steps = 0;
    }

    /// Publishes the monitor's totals into the `imt-obs` registry under
    /// `label` (no-op when observability is disabled).
    pub fn publish_obs(&self, label: &str) {
        if !imt_obs::enabled() {
            return;
        }
        imt_obs::gauge_labeled("sim.bus.words", label).set(self.words);
        imt_obs::gauge_labeled("sim.bus.transitions", label).set(self.total);
    }
}

/// Adds one transition word to the SWAR counters, line `8b + j` to byte
/// `b` of `pending[j]`.
#[inline]
fn add_diff(pending: &mut [u64; 8], diff: u64) {
    for (j, counter) in pending.iter_mut().enumerate() {
        *counter += diff >> j & BYTE_LOW_BITS;
    }
}

/// Line `lane`'s pending count on a bus of `width` lines: its byte in the
/// SWAR counters, plus its high-half byte when pairs are packed (see
/// [`DataBusMonitor`]).
fn pending_count(pending: &[u64; 8], width: usize, lane: usize) -> u64 {
    let word = pending[lane % 8] >> (8 * (lane / 8));
    if width <= 32 {
        (word & 0xFF) + (word >> 32 & 0xFF)
    } else {
        word & 0xFF
    }
}

/// Two monitors are equal when they saw the same bus: same width, same
/// last word, same counts — however the counts are split between the
/// flushed totals and the pending bytes.
impl PartialEq for DataBusMonitor {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width
            && self.last == other.last
            && self.total == other.total
            && self.words == other.words
            && self.per_lane() == other.per_lane()
    }
}

impl Eq for DataBusMonitor {}

impl FetchSink for DataBusMonitor {
    #[inline]
    fn on_fetch(&mut self, _pc: u32, word: u32) {
        self.observe(word as u64);
    }

    #[inline]
    fn on_run(&mut self, _pc: u32, words: &[u32]) {
        self.observe_run(words);
    }
}

/// Counts transitions per line on the instruction **address** bus.
///
/// Used by the T0 baseline comparison: sequential fetch makes the low
/// address lines toggle predictably, which address-bus encodings exploit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressBusMonitor {
    inner: DataBusMonitor,
}

impl AddressBusMonitor {
    /// Creates a monitor for a 32-line address bus.
    pub fn new() -> Self {
        AddressBusMonitor {
            inner: DataBusMonitor::new(32),
        }
    }

    /// Observes the next address on the bus.
    pub fn observe(&mut self, address: u32) {
        self.inner.observe(address as u64);
    }

    /// Total transitions across all lines.
    pub fn total_transitions(&self) -> u64 {
        self.inner.total_transitions()
    }

    /// Transitions per line.
    pub fn per_lane(&self) -> Vec<u64> {
        self.inner.per_lane()
    }

    /// Publishes the monitor's totals into the `imt-obs` registry under
    /// `label` (no-op when observability is disabled).
    pub fn publish_obs(&self, label: &str) {
        self.inner.publish_obs(label);
    }
}

impl Default for AddressBusMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl FetchSink for AddressBusMonitor {
    #[inline]
    fn on_fetch(&mut self, pc: u32, _word: u32) {
        self.observe(pc);
    }
}

/// Converts transition counts to switching energy: `E = ½·C·V²` per
/// transition per line.
///
/// ```
/// use imt_sim::bus::EnergyModel;
///
/// let model = EnergyModel::OFF_CHIP;
/// // A million transitions on a 10 pF, 3.3 V line ≈ 54 µJ.
/// let joules = model.energy_joules(1_000_000);
/// assert!((joules - 5.445e-5).abs() < 1e-8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Effective capacitance of one bus line, in farads.
    pub line_capacitance_farads: f64,
    /// Supply voltage, in volts.
    pub supply_volts: f64,
}

impl EnergyModel {
    /// An on-chip bus line (≈0.5 pF) at 1.8 V — a long on-die interconnect
    /// in the ~0.18 µm era the paper targets.
    pub const ON_CHIP: EnergyModel = EnergyModel {
        line_capacitance_farads: 0.5e-12,
        supply_volts: 1.8,
    };

    /// An off-chip bus line through package pins to external flash
    /// (≈10 pF) at 3.3 V — the paper's motivating worst case.
    pub const OFF_CHIP: EnergyModel = EnergyModel {
        line_capacitance_farads: 10e-12,
        supply_volts: 3.3,
    };

    /// Energy dissipated by `transitions` line toggles.
    pub fn energy_joules(&self, transitions: u64) -> f64 {
        0.5 * self.line_capacitance_farads
            * self.supply_volts
            * self.supply_volts
            * transitions as f64
    }

    /// Average power for `transitions` spread over `cycles` at `hz`.
    pub fn average_power_watts(&self, transitions: u64, cycles: u64, hz: f64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        self.energy_joules(transitions) / (cycles as f64 / hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_lane_accounting() {
        let mut bus = DataBusMonitor::new(4);
        for word in [0b0000u64, 0b0001, 0b0011, 0b0000] {
            bus.observe(word);
        }
        assert_eq!(bus.per_lane(), [2, 2, 0, 0]);
        assert_eq!(bus.total_transitions(), 4);
        assert_eq!(bus.words(), 4);
    }

    /// The per-bit count the SWAR counters replaced: every line of every
    /// transition word, one bit at a time.
    fn naive_add(counts: &mut [u64], last: Option<u64>, word: u64) {
        if let Some(last) = last {
            for (lane, count) in counts.iter_mut().enumerate() {
                *count += (last ^ word) >> lane & 1;
            }
        }
    }

    /// Deterministic xorshift words, then a stream on which every line
    /// flips on every word (the fastest any byte counter can fill).
    fn streams(len: usize, seed: u64) -> [Vec<u64>; 2] {
        let mut state = seed;
        let random = (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        let toggling = (0..len)
            .map(|i| if i % 2 == 0 { 0 } else { u64::MAX })
            .collect();
        [random, toggling]
    }

    const LENGTHS: [usize; 7] = [0, 1, 254, 255, 256, 511, 10_000];

    #[test]
    fn data_bus_counts_match_a_naive_per_bit_count() {
        for width in [1usize, 8, 31, 32, 33, 64] {
            let mask = u64::MAX >> (64 - width);
            for len in LENGTHS {
                for words in streams(len, 0x9E37_79B9_7F4A_7C15 ^ len as u64) {
                    for reset_at in [None, Some(len / 2)] {
                        let mut bus = DataBusMonitor::new(width);
                        let mut counts = vec![0u64; width];
                        let mut last = None;
                        for (i, &word) in words.iter().enumerate() {
                            if reset_at == Some(i) {
                                bus.reset();
                                counts.iter_mut().for_each(|c| *c = 0);
                                last = None;
                            }
                            bus.observe(word);
                            naive_add(&mut counts, last, word & mask);
                            last = Some(word & mask);
                            // Exact at any moment, not only after a flush.
                            assert_eq!(bus.per_lane(), counts, "width {width} len {len} i {i}");
                            assert_eq!(bus.total_transitions(), counts.iter().sum::<u64>());
                        }
                        assert_eq!(bus.per_lane(), counts, "width {width} len {len}");
                        assert_runs_match_words(width, &words, reset_at, len as u64 ^ width as u64);
                    }
                }
            }
        }
    }

    /// Seeded run lengths: empty runs, short odd and even ones, and runs
    /// longer than 255 packed steps.
    fn run_lengths(seed: u64) -> impl Iterator<Item = usize> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        std::iter::repeat_with(move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let draw = (state >> 8) as usize;
            match state % 8 {
                0 => 0,
                1..=4 => draw % 16,
                _ => draw % 700,
            }
        })
    }

    /// Feeds `words` as 32-bit bus words to one monitor a word at a time
    /// and to another as runs cut at seeded points, resetting both before
    /// word `reset_at`; after every run the two must agree on every
    /// observable, however their counts are split.
    fn assert_runs_match_words(width: usize, words: &[u64], reset_at: Option<usize>, seed: u64) {
        let words: Vec<u32> = words.iter().map(|&word| word as u32).collect();
        let mut by_word = DataBusMonitor::new(width);
        let mut by_run = DataBusMonitor::new(width);
        by_run.observe_run(&[]);
        let mut lengths = run_lengths(seed);
        let mut start = 0;
        while start < words.len() {
            if reset_at == Some(start) {
                by_word.reset();
                by_run.reset();
            }
            let mut end = (start + lengths.next().expect("endless")).min(words.len());
            if let Some(reset) = reset_at.filter(|&reset| start < reset && reset < end) {
                end = reset;
            }
            for &word in &words[start..end] {
                by_word.observe(u64::from(word));
            }
            by_run.observe_run(&words[start..end]);
            let at = format!("width {width} len {} run {start}..{end}", words.len());
            assert_eq!(by_run.per_lane(), by_word.per_lane(), "{at}");
            assert_eq!(
                by_run.total_transitions(),
                by_word.total_transitions(),
                "{at}"
            );
            assert_eq!(by_run.words(), by_word.words(), "{at}");
            assert_eq!(by_run, by_word, "{at}");
            start = end;
        }
    }

    #[test]
    fn address_bus_counts_match_a_naive_per_bit_count() {
        for len in LENGTHS {
            for words in streams(len, 0xD1B5_4A32_D192_ED03 ^ len as u64) {
                for reset_at in [None, Some(len / 2)] {
                    let mut bus = AddressBusMonitor::new();
                    let mut counts = vec![0u64; 32];
                    let mut last = None;
                    for (i, &word) in words.iter().enumerate() {
                        let address = word as u32;
                        if reset_at == Some(i) {
                            bus.inner.reset();
                            counts.iter_mut().for_each(|c| *c = 0);
                            last = None;
                        }
                        bus.observe(address);
                        naive_add(&mut counts, last, u64::from(address));
                        last = Some(u64::from(address));
                        assert_eq!(bus.per_lane(), counts, "len {len} i {i}");
                        assert_eq!(bus.total_transitions(), counts.iter().sum::<u64>());
                    }
                }
            }
        }
    }

    #[test]
    fn equality_ignores_how_counts_are_split() {
        let mut a = DataBusMonitor::new(8);
        for i in 0..300u64 {
            a.observe(i);
        }
        // Same counts, all flushed instead of partly pending: still equal.
        let mut b = a.clone();
        b.flush();
        assert_eq!(a, b);
        b.observe(0);
        assert_ne!(a, b);
    }

    #[test]
    fn width_masks_upper_bits() {
        let mut bus = DataBusMonitor::new(8);
        bus.observe(0xFFFF_FF00);
        bus.observe(0x0000_00FF);
        assert_eq!(bus.total_transitions(), 8);
    }

    #[test]
    fn reset_clears_state() {
        let mut bus = DataBusMonitor::new(32);
        bus.observe(0);
        bus.observe(u64::MAX);
        assert_eq!(bus.total_transitions(), 32);
        bus.reset();
        assert_eq!(bus.total_transitions(), 0);
        bus.observe(u64::MAX); // first word after reset: no transition
        assert_eq!(bus.total_transitions(), 0);
    }

    #[test]
    fn sequential_addresses_mostly_toggle_low_lines() {
        let mut bus = AddressBusMonitor::new();
        for i in 0..16u32 {
            bus.observe(0x0040_0000 + i * 4);
        }
        // Line 2 toggles every fetch; lines 0,1 never (word aligned).
        assert_eq!(bus.per_lane()[0], 0);
        assert_eq!(bus.per_lane()[1], 0);
        assert_eq!(bus.per_lane()[2], 15);
    }

    #[test]
    fn energy_scaling() {
        let model = EnergyModel {
            line_capacitance_farads: 1e-12,
            supply_volts: 2.0,
        };
        assert!((model.energy_joules(1) - 2e-12).abs() < 1e-20);
        assert_eq!(model.average_power_watts(0, 0, 1e8), 0.0);
        // 1e6 transitions over 1e8 cycles at 100 MHz = 1 second → 2 µW.
        let p = model.average_power_watts(1_000_000, 100_000_000, 1e8);
        assert!((p - 2e-6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside 1..=64")]
    fn zero_width_rejected() {
        DataBusMonitor::new(0);
    }
}
