//! Fetch-edge profiles: the dynamic fetch stream folded into a weighted
//! multiset of consecutive `(pc_prev → pc)` edges.
//!
//! The paper's metric — dynamic transitions on the instruction data bus —
//! depends only on *consecutive fetch pairs*, and the dynamic PC sequence
//! is invariant under every encoding evaluated (decode is exact, so the
//! executed program is unchanged). One run therefore captures everything
//! any encoding's bus cost needs:
//!
//! ```text
//! transitions(image) = Σ_edges weight(e) · popcount(image[src(e)] ^ image[dst(e)])
//! ```
//!
//! For loop-dominated kernels the edge multiset is tiny — O(static
//! instructions) distinct edges, run-length dominated by the sequential
//! `i → i+1` pairs — while the fetch stream it summarises is O(dynamic
//! instructions). Recording is a single pass through the ordinary
//! [`FetchSink`] hook; replaying is `imt-core`'s `eval::evaluate_replay`.
//!
//! Profiles serialise to a small versioned binary format
//! ([`FetchEdgeProfile::to_bytes`]) so `imt-core`'s on-disk profile cache
//! can share one recording across every experiment binary.

use std::collections::BTreeMap;

use imt_isa::program::Program;

use crate::cpu::{Cpu, FetchSink};
use crate::error::SimError;

/// Version of the *recording semantics*: what a fetch is, how edges are
/// folded. Part of the profile-cache content key — bump it whenever the
/// simulator's fetch behaviour changes so stale cached profiles are
/// invalidated rather than replayed.
pub const PROFILE_SEMANTICS_VERSION: u32 = 1;

/// Version of the serialised byte format (independent of the semantics
/// version: a pure container change bumps only this).
pub const PROFILE_FORMAT_VERSION: u32 = 1;

const MAGIC: [u8; 8] = *b"IMTEPROF";

/// Marker for "no seed fetch" in the serialised form.
const NO_SEED: u32 = u32::MAX;

/// A malformed serialised profile (wrong magic, truncated, inconsistent
/// lengths). Callers — the profile cache — treat this as a miss and
/// re-record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeProfileFormatError {
    /// What was wrong.
    pub detail: &'static str,
}

impl std::fmt::Display for EdgeProfileFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed fetch-edge profile: {}", self.detail)
    }
}

impl std::error::Error for EdgeProfileFormatError {}

/// A [`FetchSink`] that folds the fetch stream into weighted edges.
///
/// It folds each straight-line run in O(1): a run's start fixes its
/// sequential edges, so they go into a difference array, and the edge
/// into the run is either sequential or a taken transfer. Taken edges go
/// to a dense per-source slot; only a source with a second distinct
/// destination (a `jr` returning to several call sites) spills into a
/// sorted map. A single fetch is folded as a run of one.
///
/// Compose it with other sinks through [`crate::cpu::Tee`], or use
/// [`FetchEdgeProfile::record`] for the common run-once case.
#[derive(Debug, Clone)]
pub struct FetchEdgeRecorder {
    text_base: u32,
    /// Difference array of the sequential edge weights (wrapping): its
    /// prefix sum at `i` is the weight of `i → i+1`.
    seq: Vec<u64>,
    /// `taken[src]`: the first non-sequential destination seen from `src`
    /// and that edge's weight (weight 0: none yet).
    taken: Vec<(u32, u64)>,
    /// Non-sequential edges whose source's slot holds another destination.
    spilled: BTreeMap<(u32, u32), u64>,
    prev: Option<u32>,
    seed: Option<u32>,
    fetches: u64,
}

impl FetchEdgeRecorder {
    /// A recorder for a text segment of `text_len` instructions starting
    /// at `text_base`.
    pub fn new(text_base: u32, text_len: usize) -> Self {
        FetchEdgeRecorder {
            text_base,
            seq: vec![0; text_len],
            taken: vec![(0, 0); text_len],
            spilled: BTreeMap::new(),
            prev: None,
            seed: None,
            fetches: 0,
        }
    }

    /// Folds the recorded stream into a profile. `exit_code` and `stdout`
    /// come from the run that drove the recorder; they ride along so the
    /// replay evaluator can report them without re-simulating.
    pub fn finish(self, exit_code: i32, stdout: String) -> FetchEdgeProfile {
        let text_len = self.seq.len();
        let mut running = 0u64;
        let seq = self
            .seq
            .into_iter()
            .map(|delta| {
                running = running.wrapping_add(delta);
                running
            })
            .collect();
        let mut other: Vec<(u32, u32, u64)> = self
            .taken
            .into_iter()
            .zip(0u32..)
            .filter(|&((_, w), _)| w > 0)
            .map(|((dst, w), src)| (src, dst, w))
            .chain(
                self.spilled
                    .into_iter()
                    .map(|((src, dst), w)| (src, dst, w)),
            )
            .collect();
        other.sort_unstable();
        FetchEdgeProfile {
            text_len,
            seed: self.seed,
            seq,
            other,
            fetches: self.fetches,
            exit_code,
            stdout,
        }
    }
}

impl FetchSink for FetchEdgeRecorder {
    #[inline]
    fn on_fetch(&mut self, pc: u32, word: u32) {
        self.on_run(pc, &[word]);
    }

    #[inline]
    fn on_run(&mut self, pc: u32, words: &[u32]) {
        let Some(tail) = words.len().checked_sub(1) else {
            return;
        };
        let start = pc.wrapping_sub(self.text_base) / 4;
        let last = start as usize + tail;
        debug_assert!(
            last < self.seq.len(),
            "run at {pc:#010x} leaves the recorded text segment"
        );
        // The run adds the sequential edges `from → … → last`.
        let from = match self.prev {
            None => {
                self.seed = Some(start);
                start
            }
            Some(prev) if start == prev + 1 => prev,
            Some(prev) => {
                let slot = &mut self.taken[prev as usize];
                if slot.1 == 0 {
                    *slot = (start, 1);
                } else if slot.0 == start {
                    slot.1 += 1;
                } else {
                    *self.spilled.entry((prev, start)).or_insert(0) += 1;
                }
                start
            }
        };
        self.seq[from as usize] = self.seq[from as usize].wrapping_add(1);
        self.seq[last] = self.seq[last].wrapping_sub(1);
        self.prev = Some(last as u32);
        self.fetches += words.len() as u64;
    }
}

/// A completed edge profile: the weighted fetch-pair multiset plus the
/// run's observable outcome (exit code, stdout, fetch count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchEdgeProfile {
    text_len: usize,
    seed: Option<u32>,
    seq: Vec<u64>,
    other: Vec<(u32, u32, u64)>,
    fetches: u64,
    exit_code: i32,
    stdout: String,
}

impl FetchEdgeProfile {
    /// Runs `program` once for up to `max_steps` instructions, recording
    /// every fetch into an edge profile.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] raised by the run (fault, step-budget overrun).
    pub fn record(program: &Program, max_steps: u64) -> Result<FetchEdgeProfile, SimError> {
        let mut cpu = Cpu::new(program)?;
        let mut recorder = FetchEdgeRecorder::new(program.text_base, program.text.len());
        let summary = cpu.run_with_sink(max_steps, &mut recorder)?;
        Ok(recorder.finish(summary.exit_code, cpu.stdout().to_string()))
    }

    /// Instructions in the text segment the profile was recorded over.
    pub fn text_len(&self) -> usize {
        self.text_len
    }

    /// Index of the first fetched instruction, if any instruction ran.
    pub fn seed_index(&self) -> Option<usize> {
        self.seed.map(|s| s as usize)
    }

    /// Total dynamic fetches (= instructions executed).
    pub fn fetches(&self) -> u64 {
        self.fetches
    }

    /// Exit code of the recorded run.
    pub fn exit_code(&self) -> i32 {
        self.exit_code
    }

    /// Everything the recorded run printed.
    pub fn stdout(&self) -> &str {
        &self.stdout
    }

    /// Distinct edges with non-zero weight — the replay evaluator's work
    /// items. O(static instructions) for loop-dominated programs.
    pub fn distinct_edges(&self) -> usize {
        self.seq.iter().filter(|&&w| w > 0).count() + self.other.len()
    }

    /// Iterates every `(src_index, dst_index, weight)` edge with non-zero
    /// weight: sequential edges in index order, then the sorted
    /// non-sequential edges. Deterministic.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        let seq = self
            .seq
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w > 0)
            .map(|(i, &w)| (i, i + 1, w));
        let other = self
            .other
            .iter()
            .map(|&(src, dst, w)| (src as usize, dst as usize, w));
        seq.chain(other)
    }

    /// Per-instruction execution counts, identical to
    /// [`Cpu::profile`] for the same run: every fetch except the seed is
    /// the destination of exactly one edge instance.
    pub fn per_index_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.text_len];
        if let Some(seed) = self.seed {
            counts[seed as usize] += 1;
        }
        for (i, &w) in self.seq.iter().enumerate() {
            if w > 0 {
                counts[i + 1] += w;
            }
        }
        for &(_, dst, w) in &self.other {
            counts[dst as usize] += w;
        }
        counts
    }

    /// Serialises the profile (little-endian, versioned, self-describing).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            8 + 4 * 4 + 8 + self.stdout.len() + 8 * self.seq.len() + 16 * self.other.len() + 16,
        );
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&PROFILE_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.text_len as u32).to_le_bytes());
        out.extend_from_slice(&self.seed.unwrap_or(NO_SEED).to_le_bytes());
        out.extend_from_slice(&self.fetches.to_le_bytes());
        out.extend_from_slice(&self.exit_code.to_le_bytes());
        out.extend_from_slice(&(self.stdout.len() as u32).to_le_bytes());
        out.extend_from_slice(self.stdout.as_bytes());
        for &w in &self.seq {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&(self.other.len() as u32).to_le_bytes());
        for &(src, dst, w) in &self.other {
            out.extend_from_slice(&src.to_le_bytes());
            out.extend_from_slice(&dst.to_le_bytes());
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserialises a profile written by [`FetchEdgeProfile::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`EdgeProfileFormatError`] on any structural problem — wrong magic
    /// or version, truncation, out-of-range indices — and on weights no
    /// run can produce: a sequential edge out of the last instruction, or
    /// edge weights that do not sum to `fetches − 1` (`fetches == 0`
    /// without a seed). The profile cache maps this to a miss.
    pub fn from_bytes(bytes: &[u8]) -> Result<FetchEdgeProfile, EdgeProfileFormatError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(8)? != MAGIC {
            return Err(EdgeProfileFormatError {
                detail: "bad magic",
            });
        }
        if r.u32()? != PROFILE_FORMAT_VERSION {
            return Err(EdgeProfileFormatError {
                detail: "unsupported format version",
            });
        }
        let text_len = r.u32()? as usize;
        let seed_raw = r.u32()?;
        let seed = if seed_raw == NO_SEED {
            None
        } else if (seed_raw as usize) < text_len {
            Some(seed_raw)
        } else {
            return Err(EdgeProfileFormatError {
                detail: "seed index out of range",
            });
        };
        let fetches = r.u64()?;
        let exit_code = r.u32()? as i32;
        let stdout_len = r.u32()? as usize;
        let stdout = String::from_utf8(r.take(stdout_len)?.to_vec()).map_err(|_| {
            EdgeProfileFormatError {
                detail: "stdout is not UTF-8",
            }
        })?;
        // Bound both pre-allocations by the bytes actually present: a
        // corrupted length field must yield a `truncated` error, not a
        // multi-gigabyte allocation attempt.
        if bytes.len().saturating_sub(r.pos) < text_len.saturating_mul(8) {
            return Err(EdgeProfileFormatError {
                detail: "truncated",
            });
        }
        let mut seq = Vec::with_capacity(text_len);
        for _ in 0..text_len {
            seq.push(r.u64()?);
        }
        let other_len = r.u32()? as usize;
        if bytes.len().saturating_sub(r.pos) < other_len.saturating_mul(16) {
            return Err(EdgeProfileFormatError {
                detail: "truncated",
            });
        }
        let mut other = Vec::with_capacity(other_len);
        for _ in 0..other_len {
            let src = r.u32()?;
            let dst = r.u32()?;
            let w = r.u64()?;
            if src as usize >= text_len || dst as usize >= text_len {
                return Err(EdgeProfileFormatError {
                    detail: "edge index out of range",
                });
            }
            other.push((src, dst, w));
        }
        if r.pos != bytes.len() {
            return Err(EdgeProfileFormatError {
                detail: "trailing bytes",
            });
        }
        // No fetch follows the last instruction sequentially, and every
        // fetch but the seed is the destination of exactly one edge.
        if seq.last().is_some_and(|&w| w > 0) {
            return Err(EdgeProfileFormatError {
                detail: "sequential edge out of the last instruction",
            });
        }
        let weights = seq
            .iter()
            .chain(other.iter().map(|(_, _, w)| w))
            .try_fold(0u64, |sum, &w| sum.checked_add(w));
        let expected = match seed {
            Some(_) => fetches.checked_sub(1),
            None => (fetches == 0).then_some(0),
        };
        if weights.is_none() || weights != expected {
            return Err(EdgeProfileFormatError {
                detail: "edge weights do not sum to fetches - 1",
            });
        }
        Ok(FetchEdgeProfile {
            text_len,
            seed,
            seq,
            other,
            fetches,
            exit_code,
            stdout,
        })
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], EdgeProfileFormatError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(EdgeProfileFormatError {
                detail: "truncated",
            }),
        }
    }

    fn u32(&mut self) -> Result<u32, EdgeProfileFormatError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, EdgeProfileFormatError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::DataBusMonitor;
    use crate::cpu::Tee;
    use imt_isa::asm::assemble;

    const LOOP_PROGRAM: &str = r#"
            .text
    main:   li   $t0, 100
    loop:   xor  $t1, $t1, $t0
            sll  $t2, $t1, 3
            addiu $t0, $t0, -1
            bgtz $t0, loop
            move $a0, $t1
            li   $v0, 1
            syscall
            li   $v0, 10
            syscall
    "#;

    fn program() -> Program {
        assemble(LOOP_PROGRAM).expect("assembly failed")
    }

    #[test]
    fn edge_weights_reconstruct_bus_transitions() {
        let program = program();
        // Record edges and the reference monitor in one run.
        let mut cpu = Cpu::new(&program).unwrap();
        let mut recorder = FetchEdgeRecorder::new(program.text_base, program.text.len());
        let mut bus = DataBusMonitor::new(32);
        let summary = cpu
            .run_with_sink(1_000_000, &mut Tee(&mut recorder, &mut bus))
            .unwrap();
        let profile = recorder.finish(summary.exit_code, cpu.stdout().to_string());
        let total: u64 = profile
            .edges()
            .map(|(src, dst, w)| {
                w * u64::from((program.text[src] ^ program.text[dst]).count_ones())
            })
            .sum();
        assert_eq!(total, bus.total_transitions());
        assert_eq!(profile.fetches(), summary.instructions);
        assert_eq!(profile.stdout(), cpu.stdout());
    }

    #[test]
    fn per_index_counts_match_cpu_profile() {
        let program = program();
        let mut cpu = Cpu::new(&program).unwrap();
        cpu.run(1_000_000).unwrap();
        let profile = FetchEdgeProfile::record(&program, 1_000_000).unwrap();
        assert_eq!(profile.per_index_counts(), cpu.profile());
        assert_eq!(
            profile.per_index_counts().iter().sum::<u64>(),
            profile.fetches()
        );
    }

    #[test]
    fn profile_is_run_length_dominated() {
        let program = program();
        let profile = FetchEdgeProfile::record(&program, 1_000_000).unwrap();
        // O(static): far fewer distinct edges than dynamic fetches.
        assert!(profile.distinct_edges() <= 2 * program.text.len());
        assert!(profile.fetches() > profile.distinct_edges() as u64 * 10);
        // The loop's back edge is the only heavy non-sequential edge.
        let back_edges: Vec<_> = profile.edges().filter(|&(s, d, _)| d < s).collect();
        assert_eq!(back_edges.len(), 1);
        assert!(back_edges[0].2 >= 99);
    }

    #[test]
    fn serialisation_round_trips() {
        let program = program();
        let profile = FetchEdgeProfile::record(&program, 1_000_000).unwrap();
        let bytes = profile.to_bytes();
        let back = FetchEdgeProfile::from_bytes(&bytes).unwrap();
        assert_eq!(back, profile);
    }

    #[test]
    fn malformed_bytes_are_rejected_not_panicked() {
        let program = program();
        let bytes = profile_bytes(&program);
        assert!(FetchEdgeProfile::from_bytes(&[]).is_err());
        assert!(FetchEdgeProfile::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(FetchEdgeProfile::from_bytes(&wrong_magic).is_err());
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 0xEE;
        assert!(FetchEdgeProfile::from_bytes(&wrong_version).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert_eq!(
            FetchEdgeProfile::from_bytes(&trailing).unwrap_err().detail,
            "trailing bytes"
        );
    }

    fn profile_bytes(program: &Program) -> Vec<u8> {
        FetchEdgeProfile::record(program, 1_000_000)
            .unwrap()
            .to_bytes()
    }

    #[test]
    fn empty_run_profile_has_no_seed() {
        let recorder = FetchEdgeRecorder::new(0x0040_0000, 4);
        let profile = recorder.finish(0, String::new());
        assert_eq!(profile.seed_index(), None);
        assert_eq!(profile.fetches(), 0);
        assert_eq!(profile.distinct_edges(), 0);
        assert_eq!(profile.per_index_counts(), vec![0; 4]);
        let back = FetchEdgeProfile::from_bytes(&profile.to_bytes()).unwrap();
        assert_eq!(back, profile);
    }
}
