//! Profile → encode → evaluate plumbing shared by the experiments.
//!
//! Since the dynamic PC sequence is invariant under every encoding (decode
//! is exact), each (kernel, scale) is simulated **once** into a
//! [`FetchEdgeProfile`]; every grid cell then evaluates its encoded image
//! in closed form through [`ReplayBasis::replay`] — O(static edges) per
//! cell instead of O(dynamic fetches). The profile's [`ProgramAnalysis`]
//! and [`ReplayBasis`] are built with it, so a cell prepares its codec,
//! selects and replays. Profiles are memoized in process and shared across
//! binaries via the on-disk [`imt_core::profile_cache`];
//! `--no-profile-cache` on any binary (or `IMT_PROFILE_CACHE=off`)
//! restores the uncached per-call behaviour.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use imt_bitcode::par::par_map_coarse;
use imt_core::eval::{evaluate_auto_with, EvalNeeds, Evaluation, ReplayBasis};
use imt_core::pipeline::select;
use imt_core::{
    profile_cache, CodecSettings, EncodedProgram, EncoderConfig, PreparedCodec, ProgramAnalysis,
};
use imt_isa::Program;
use imt_kernels::{Kernel, KernelRun, KernelSpec};
use imt_sim::edge::FetchEdgeProfile;

/// Which problem sizes to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's sizes (§8): mmul 100, sor 256, ej 128, fft 256, tri 128,
    /// lu 128.
    Paper,
    /// Small instances for tests and smoke runs.
    Test,
}

impl Scale {
    /// Parses `--test-scale` from a binary's argument list.
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--test-scale") {
            Scale::Test
        } else {
            Scale::Paper
        }
    }

    /// The kernel spec at this scale.
    pub fn spec(self, kernel: Kernel) -> KernelSpec {
        match self {
            Scale::Paper => kernel.paper_spec(),
            Scale::Test => kernel.test_spec(),
        }
    }

    /// The canonical lowercase name embedded in every `BENCH_*.json`
    /// (`"scale"` field) and asserted by `tests/results_scale.rs`:
    /// committed artifacts must say `"paper"`.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Test => "test",
        }
    }
}

/// One kernel's recorded run: the assembled program, its fetch-edge
/// profile (which carries stdout, exit code and fetch count), the
/// per-instruction counts the encoder's hot-loop selection consumes, and
/// the encode analysis and replay basis every grid cell shares.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// The spec the profile was recorded for.
    pub spec: KernelSpec,
    /// The assembled program.
    pub program: Program,
    /// The weighted fetch-pair multiset.
    pub edges: FetchEdgeProfile,
    /// Per-instruction execution counts (derived from `edges`; identical
    /// to [`imt_sim::Cpu::profile`]).
    pub profile: Vec<u64>,
    /// The program's CFG, block weights and hot loops under `profile`.
    pub analysis: ProgramAnalysis,
    /// `edges` in replay form, with the baseline already counted.
    pub basis: ReplayBasis,
}

impl KernelProfile {
    /// The profile as the legacy [`KernelRun`] shape.
    pub fn to_run(&self) -> KernelRun {
        KernelRun {
            program: self.program.clone(),
            profile: self.profile.clone(),
            stdout: self.edges.stdout().to_string(),
            instructions: self.edges.fetches(),
        }
    }
}

/// Whether profile caching (memo + disk) is active for this process:
/// disabled by `--no-profile-cache` in the argument list or by
/// `IMT_PROFILE_CACHE=off`.
pub fn profile_cache_enabled() -> bool {
    !std::env::args().any(|a| a == "--no-profile-cache") && profile_cache::enabled()
}

fn memo() -> &'static Mutex<HashMap<String, Arc<KernelProfile>>> {
    static MEMO: OnceLock<Mutex<HashMap<String, Arc<KernelProfile>>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The fetch-edge profile for one kernel spec, recorded at most once per
/// (kernel, scale) per process and shared across processes through the
/// on-disk cache. The golden-output check runs here — once per profile,
/// not once per grid cell — and also re-validates disk hits, so a stale
/// or colliding cache entry is discarded and re-recorded, never trusted.
///
/// # Panics
///
/// Panics if the kernel misbehaves (simulation fault, wrong checksum) —
/// experiments must not silently produce numbers from a broken run.
pub fn kernel_profile(spec: &KernelSpec) -> Arc<KernelProfile> {
    let caching = profile_cache_enabled();
    if caching {
        if let Some(hit) = memo()
            .lock()
            .expect("profile memo poisoned")
            .get(&spec.name)
        {
            if imt_obs::enabled() {
                imt_obs::counter!("bench.profile.memo_hits").inc();
            }
            return Arc::clone(hit);
        }
    }
    let program = spec.assemble();
    let disk_hit = if caching {
        profile_cache::load(&program, spec.max_steps)
            .filter(|edges| edges.stdout() == spec.expected_output)
    } else {
        None
    };
    let edges = match disk_hit {
        Some(edges) => edges,
        None => {
            let recorded = {
                let _span = imt_obs::span!("bench.profile");
                FetchEdgeProfile::record(&program, spec.max_steps)
                    .unwrap_or_else(|e| panic!("{}: run failed: {e}", spec.name))
            };
            assert_eq!(
                recorded.stdout(),
                spec.expected_output,
                "{}: kernel output diverged from the golden model",
                spec.name
            );
            if caching {
                if let Err(e) = profile_cache::store(&program, spec.max_steps, &recorded) {
                    eprintln!("imt-bench: could not cache profile for {}: {e}", spec.name);
                }
            }
            recorded
        }
    };
    let basis = ReplayBasis::new(&program, &edges)
        .unwrap_or_else(|e| panic!("{}: replay basis failed: {e}", spec.name));
    let per_index = basis.per_index().to_vec();
    let analysis = ProgramAnalysis::new(&program, &per_index)
        .unwrap_or_else(|e| panic!("{}: analysis failed: {e}", spec.name));
    let profile = Arc::new(KernelProfile {
        spec: spec.clone(),
        program,
        edges,
        profile: per_index,
        analysis,
        basis,
    });
    if caching {
        memo()
            .lock()
            .expect("profile memo poisoned")
            .insert(spec.name.clone(), Arc::clone(&profile));
    }
    profile
}

/// The full pipeline result for one kernel × configuration point.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPoint {
    /// Kernel short name (`mmul`, …).
    pub kernel: &'static str,
    /// Parameterised instance name (`mmul-100`, …).
    pub instance: String,
    /// The configuration used.
    pub config: EncoderConfig,
    /// The dynamic evaluation (transitions, reduction, verification).
    pub evaluation: Evaluation,
    /// The static schedule that produced it.
    pub encoded: EncodedProgram,
}

impl KernelPoint {
    /// Baseline transitions in millions — the paper's `#TR` row unit.
    pub fn baseline_millions(&self) -> f64 {
        self.evaluation.baseline_transitions as f64 / 1e6
    }

    /// Encoded transitions in millions.
    pub fn encoded_millions(&self) -> f64 {
        self.evaluation.encoded_transitions as f64 / 1e6
    }

    /// Reduction percentage.
    pub fn reduction_percent(&self) -> f64 {
        self.evaluation.reduction_percent()
    }
}

/// Runs one kernel through profiling, encoding and evaluation.
///
/// The profile, analysis and replay basis come from [`kernel_profile`]
/// (built once, golden output asserted there); the cell prepares its
/// codec, selects, and replays against the basis, falling back to full
/// simulation only if the profile turns out replay-infeasible.
///
/// # Panics
///
/// Panics if the kernel misbehaves (wrong checksum, simulation fault,
/// decode mismatch) — experiments must not silently produce numbers from a
/// broken run.
pub fn run_kernel_point(kernel: Kernel, scale: Scale, config: &EncoderConfig) -> KernelPoint {
    let spec = scale.spec(kernel);
    let profile = kernel_profile(&spec);
    // Label every metric this cell publishes with its grid coordinates
    // (`mmul-100/k5`); cells running on worker threads land in distinct,
    // deterministic registry slots. The label (and its String) is only
    // built when obs is on.
    let _cell = imt_obs::push_label_lazy(|| format!("{}/k{}", spec.name, config.block_size()));
    let encoded = {
        let _span = imt_obs::span!("bench.encode");
        PreparedCodec::new(&profile.analysis, CodecSettings::of(config))
            .and_then(|codec| select(&profile.analysis, &codec, config))
            .unwrap_or_else(|e| panic!("{}: encoding failed: {e}", spec.name))
    };
    let _span = imt_obs::span!("bench.evaluate");
    let (evaluation, _path) = evaluate_auto_with(
        &profile.program,
        &encoded,
        spec.max_steps,
        Some(&profile.basis),
        EvalNeeds::transitions_only(),
    )
    .unwrap_or_else(|e| panic!("{}: evaluation failed: {e}", spec.name));
    drop(_span);
    if imt_obs::enabled() {
        imt_obs::counter!("bench.cells_done").inc();
    }
    KernelPoint {
        kernel: kernel.name(),
        instance: spec.name,
        config: *config,
        evaluation,
        encoded,
    }
}

/// Runs and validates a kernel, returning its profile in the legacy
/// [`KernelRun`] shape. Served from the profile cache: the kernel is
/// simulated at most once per (kernel, scale) per process.
///
/// # Panics
///
/// Panics if the run faults or its output disagrees with the golden model.
pub fn profiled_run(spec: &KernelSpec) -> KernelRun {
    kernel_profile(spec).to_run()
}

/// Records the profiles for `kernels` (deduplicated) in parallel, so a
/// following cell fan-out finds every profile memoized instead of racing
/// to record the same kernel on several workers.
fn warm_profiles(kernels: impl IntoIterator<Item = Kernel>, scale: Scale) {
    if !profile_cache_enabled() {
        return;
    }
    let mut unique: Vec<Kernel> = Vec::new();
    for kernel in kernels {
        if !unique.contains(&kernel) {
            unique.push(kernel);
        }
    }
    // Coarse fan-out: a handful of whole-kernel simulations, each far
    // heavier than the global fan-out floor is calibrated for.
    par_map_coarse(&unique, 1, |_, &kernel| {
        kernel_profile(&scale.spec(kernel));
    });
}

/// The Figure 6 grid: every kernel × block sizes 4–7, at the paper's TT
/// capacity of 16 entries.
///
/// The 24 grid points are independent pipeline runs, so they fan out
/// across worker threads; the index-ordered merge keeps the grid (and
/// every artifact rendered from it) identical to the serial evaluation.
pub fn figure6_grid(scale: Scale) -> Vec<Vec<KernelPoint>> {
    const BLOCK_SIZES: std::ops::RangeInclusive<usize> = 4..=7;
    let cells: Vec<(Kernel, usize)> = Kernel::ALL
        .iter()
        .flat_map(|&kernel| BLOCK_SIZES.map(move |k| (kernel, k)))
        .collect();
    warm_profiles(Kernel::ALL, scale);
    let points = par_map_coarse(&cells, 1, |_, &(kernel, k)| {
        let config = EncoderConfig::default()
            .with_block_size(k)
            .expect("block sizes 4..=7 are valid");
        run_kernel_point(kernel, scale, &config)
    });
    let per_kernel = BLOCK_SIZES.count();
    let mut grid: Vec<Vec<KernelPoint>> = Vec::with_capacity(Kernel::ALL.len());
    let mut points = points.into_iter();
    for _ in Kernel::ALL {
        grid.push(points.by_ref().take(per_kernel).collect());
    }
    grid
}

/// Runs every `(kernel, config)` cell of an experiment grid in parallel,
/// returning the points in the input order.
///
/// This is the shared fan-out for the ablation sweeps: each cell is one
/// encode + replay evaluation (profiles are recorded once per kernel
/// up front), embarrassingly parallel and deterministic per cell, so the
/// merged vector is byte-for-byte the serial result.
pub fn run_grid(cells: &[(Kernel, EncoderConfig)], scale: Scale) -> Vec<KernelPoint> {
    warm_profiles(cells.iter().map(|&(kernel, _)| kernel), scale);
    par_map_coarse(cells, 1, |_, &(kernel, ref config)| {
        run_kernel_point(kernel, scale, config)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_point_reduces_and_verifies() {
        let point = run_kernel_point(Kernel::Tri, Scale::Test, &EncoderConfig::default());
        assert_eq!(point.kernel, "tri");
        assert_eq!(point.evaluation.decode_mismatches, 0);
        assert!(point.evaluation.encoded_transitions <= point.evaluation.baseline_transitions);
        assert!(point.baseline_millions() > 0.0);
        // The replay path carries the real run's output through.
        assert_eq!(
            point.evaluation.stdout,
            Scale::Test.spec(Kernel::Tri).expected_output
        );
    }

    #[test]
    fn scale_selects_spec_sizes() {
        let paper = Scale::Paper.spec(Kernel::Fft);
        let test = Scale::Test.spec(Kernel::Fft);
        assert!(paper.source.len() > test.source.len());
    }

    #[test]
    fn kernel_profile_is_memoized_and_matches_a_direct_run() {
        let spec = Scale::Test.spec(Kernel::Fft);
        let first = kernel_profile(&spec);
        let second = kernel_profile(&spec);
        if profile_cache_enabled() {
            assert!(
                Arc::ptr_eq(&first, &second),
                "second lookup must be a memo hit"
            );
        }
        let direct = spec.run().expect("direct run failed");
        assert_eq!(first.to_run(), direct);
    }
}
