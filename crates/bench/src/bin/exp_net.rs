//! Network serving experiment **E-N**: the hardened wire protocol and
//! sharded serving state of `imt-net` under load, overload, and
//! transport-level chaos.
//!
//! Every phase runs over a real Unix socket through the full
//! client → frame → reactor → `Service` → frame → client path: the
//! epoll reactor front-end (`imt_net::reactor`) with persistent client
//! connections (`imt_net::pool`).
//!
//! 1. **Saturation probe** — closed-loop threads, each on its own
//!    persistent connection, hammer the server to measure saturation
//!    throughput.
//! 2. **Open-loop load** — a seeded generator (Poisson arrivals with
//!    bursts, Zipf kernel popularity, a 70%-hot tenant mix) offers the
//!    bulk of the workload at ~3/4 of saturation and records
//!    p50/p99/p999 client-observed latency. ≥10⁵ requests at paper
//!    scale.
//! 3. **Quota fairness** — a hot tenant floods a stalled service from 8
//!    closed-loop threads while three cold tenants trickle paced
//!    requests; per-tenant admission quotas must shed the hot tenant as
//!    typed `QuotaExceeded` while every cold-tenant request completes.
//! 4. **Chaos matrix** — the seeded `imt_net::chaos` injections
//!    (truncations, bit flips, garbage magic, version skew, oversize
//!    length declarations, slow-loris half-writes) plus mid-request
//!    disconnects and a full server restart on the same socket path.
//!    Every corruption must surface as a typed error server-side —
//!    never a panic — and a clean request must still round-trip
//!    bit-identically afterwards, sequentially and pipelined out of
//!    order over one persistent connection.
//! 5. **Trace** — one traced request whose causal timeline must cover
//!    read → decode → queue → warm → encode → respond → write.
//! 6. **Connection scaling** — 8→32 (test) or 64→4096 (paper)
//!    concurrent persistent connections, each with up to
//!    [`PIPELINE_DEPTH`] requests in flight, driven closed-loop by
//!    forked sender processes over a deliberately transport-bound
//!    service (tiny test-scale kernels behind a delivery stall).
//! 7. **10⁶-request open loop** — a seeded Poisson schedule offered at
//!    ~70% of the measured scaling saturation through multi-process
//!    load generation (`exp_net --sender` children), recording
//!    p50/p99/p999 and re-checking conservation, zero wrong words, and
//!    cold-tenant fairness at the million-request mark.
//!
//! In-binary gates: zero wrong-word responses end-to-end (every
//! completed response is compared bit-for-bit against a serial
//! `encode_program` + `evaluate_auto` reference), conservation
//! (completed + rejected + failed == offered, nothing lost), the cold
//! tenants' completion share at or above the fair-share floor, every
//! chaos injection typed, and a causal trace whose timeline covers
//! the whole request for one request.
//!
//! Writes the machine-readable `results/BENCH_net.json` (scale-stamped).
//! Timing numbers vary run to run; the workload, its order, the tenant
//! mix, and the chaos schedule are fully seeded and deterministic.

use std::collections::HashMap;
use std::fmt::Write as FmtWrite;
use std::io::{Read as IoRead, Write as IoWrite};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use imt_bench::runner::{kernel_profile, Scale};
use imt_core::eval::{evaluate_auto, EvalNeeds, Evaluation};
use imt_core::{encode_program, EncoderConfig};
use imt_kernels::Kernel;
use imt_net::chaos::{Injection, XorShift64, ALL_INJECTIONS};
use imt_net::msg::{NetRequest, NetResponse, RemoteError};
use imt_net::pool::{ClientPool, PersistentClient, PoolConfig};
use imt_net::reactor::{ReactorConfig, ReactorServer};
use imt_net::wire::{Frame, FrameKind};
use imt_net::{ListenAddr, NetError};
use imt_obs::json::Json;
use imt_serve::service::{Admission, Service, ServiceConfig};

const BLOCK_SIZES: std::ops::RangeInclusive<usize> = 4..=7;
const SENDERS: usize = 32;
const PROBE_THREADS: usize = 16;
const TENANTS: [&str; 4] = ["hot", "alpha", "beta", "gamma"];
const HOT_SHARE: f64 = 0.70;
/// Documented seed for the whole harness ("NETCHAOS" flavoured).
const SEED: u64 = 0x4E45_5443_4841_0008;

/// Per-phase request counts: (saturation probe, open-loop main,
/// hot-tenant flood per thread, cold-tenant trickle per tenant,
/// random chaos rounds).
fn counts(scale: Scale) -> (usize, usize, usize, usize, usize) {
    match scale {
        Scale::Paper => (4_000, 100_000, 400, 100, 240),
        Scale::Test => (400, 2_400, 40, 20, 48),
    }
}

/// The delivery stall used only in the quota-fairness phase, so worker
/// occupancy (and therefore tenant in-flight pressure) is deterministic.
fn quota_stall(scale: Scale) -> Duration {
    match scale {
        Scale::Paper => Duration::from_millis(2),
        Scale::Test => Duration::from_millis(5),
    }
}

/// Pipelined frames in flight per persistent connection in the
/// connection-scaling and 10⁶-request phases. Deeper pipelines
/// amortize the per-connection wake/flush cost at wide connection
/// counts; 8 keeps worst-case in-flight (4096 conns × 8) at half the
/// serving queue bound so admission never sheds the benchmark's own
/// backlog.
const PIPELINE_DEPTH: usize = 8;
/// Reactor event-loop threads (exercises the N-way accept sharding).
const REACTORS: usize = 2;

/// Forked `--sender` load-generator processes per phase.
fn sender_procs(scale: Scale) -> usize {
    match scale {
        Scale::Paper => 4,
        Scale::Test => 2,
    }
}

/// Connection counts swept by the scaling phase, and the floor on
/// requests per (mode, conns) cell. Each cell runs at least
/// [`SCALING_REQS_PER_CONN`] requests per connection so the wide cells
/// measure steady-state serving, not connection ramp: at 4096
/// connections a fixed total would give each connection a handful of
/// requests and the cell would time epoll registration and first-touch
/// buffer growth instead of saturation throughput.
fn scaling_counts(scale: Scale) -> (&'static [usize], usize) {
    match scale {
        Scale::Paper => (&[64, 256, 1024, 4096], 24_000),
        Scale::Test => (&[8, 32], 1_200),
    }
}

/// Minimum requests each connection contributes to a scaling cell.
const SCALING_REQS_PER_CONN: usize = 24;

/// Total requests and concurrent connections for the big open-loop run.
fn mega_counts(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Paper => (1_000_000, 1024),
        Scale::Test => (20_000, 32),
    }
}

/// One workload cell: a kernel at one block size.
#[derive(Debug, Clone, Copy)]
struct Cell {
    kernel: Kernel,
    block_size: usize,
}

fn cells() -> Vec<Cell> {
    Kernel::ALL
        .iter()
        .flat_map(|&kernel| BLOCK_SIZES.map(move |block_size| Cell { kernel, block_size }))
        .collect()
}

/// Zipf(s = 1) cumulative distribution over `n` ranks: popularity of
/// cell `i` ∝ 1/(i+1). Sampled by inverting a uniform draw.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn sample_cdf(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&edge| edge < u).min(cdf.len() - 1)
}

fn net_request(scale: Scale, cell: Cell, tenant: &str) -> NetRequest {
    let mut request = NetRequest::new(cell.kernel.name(), scale == Scale::Test)
        .with_block_size(cell.block_size as u32);
    if !tenant.is_empty() {
        request = request.with_tenant(tenant);
    }
    request
}

/// Serial references every completed network response must match bit
/// for bit, keyed by (spec name, block size) — the same discipline as
/// `exp_serve`, now crossing a socket.
fn serial_references(scale: Scale) -> HashMap<(String, usize), Evaluation> {
    let mut references = HashMap::new();
    for kernel in Kernel::ALL {
        let spec = scale.spec(kernel);
        let profile = kernel_profile(&spec);
        for block_size in BLOCK_SIZES {
            let config = EncoderConfig::default()
                .with_block_size(block_size)
                .expect("block sizes 4..=7 are valid");
            let encoded = encode_program(&profile.program, &profile.profile, &config)
                .unwrap_or_else(|e| panic!("{}: encoding failed: {e}", spec.name));
            let (evaluation, _) = evaluate_auto(
                &profile.program,
                &encoded,
                spec.max_steps,
                Some(&profile.edges),
                EvalNeeds::transitions_only(),
            )
            .unwrap_or_else(|e| panic!("{}: evaluation failed: {e}", spec.name));
            references.insert((spec.name.clone(), block_size), evaluation);
        }
    }
    references
}

/// Client-side conservation ledger, shared across sender threads.
#[derive(Default)]
struct Tally {
    offered: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    mismatches: AtomicU64,
    wrong_words: AtomicU64,
}

impl Tally {
    /// Classifies one call outcome, verifying completed responses
    /// against the serial references.
    fn record(
        &self,
        outcome: &Result<NetResponse, NetError>,
        references: &HashMap<(String, usize), Evaluation>,
    ) {
        self.offered.fetch_add(1, Ordering::Relaxed);
        match outcome {
            Ok(response) => match &response.outcome {
                Ok(done) => {
                    self.completed.fetch_add(1, Ordering::Relaxed);
                    self.wrong_words
                        .fetch_add(done.evaluation.decode_mismatches, Ordering::Relaxed);
                    let key = (response.kernel.clone(), response.block_size as usize);
                    if references.get(&key) != Some(&done.evaluation) {
                        self.mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(RemoteError::Overloaded { .. }) | Err(RemoteError::QuotaExceeded { .. }) => {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    self.failed.fetch_add(1, Ordering::Relaxed);
                }
            },
            Err(_) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.offered.load(Ordering::Relaxed),
            self.completed.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
        )
    }
}

fn unique_sock() -> PathBuf {
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_nanos();
    std::env::temp_dir().join(format!("imt-exp-net-{}-{nonce}.sock", std::process::id()))
}

/// Starts a service behind the reactor on `path`. `read_timeout` is the
/// reactor's mid-frame stall bound.
fn start_server(
    config: ServiceConfig,
    path: &std::path::Path,
    read_timeout: Duration,
) -> (std::sync::Arc<Service>, ReactorServer) {
    let service = std::sync::Arc::new(Service::start(config));
    let server = ReactorServer::start(
        std::sync::Arc::clone(&service),
        &ListenAddr::Unix(path.to_path_buf()),
        ReactorConfig::default()
            .with_reactors(REACTORS)
            .with_read_timeout(read_timeout),
    )
    .expect("unix bind");
    (service, server)
}

fn stop_server(service: std::sync::Arc<Service>, server: ReactorServer) {
    server.stop();
    match std::sync::Arc::try_unwrap(service) {
        Ok(service) => service.shutdown(),
        Err(_) => panic!("server kept a service handle after stop"),
    }
}

/// One load thread's client: a pool shelving one persistent connection,
/// with no retries — a refusal is an outcome the ledger counts.
fn load_client(path: &std::path::Path) -> ClientPool {
    let mut config = PoolConfig::default()
        .with_deadline(Duration::from_secs(30))
        .with_max_idle(1);
    config.retries = 0;
    ClientPool::new(ListenAddr::Unix(path.to_path_buf()), config)
}

fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * (sorted_ns.len() - 1) as f64).round() as usize;
    sorted_ns[rank] as f64 / 1e6
}

// ---------------------------------------------------------------- phase 1

/// Closed-loop saturation probe: `PROBE_THREADS` clients, one persistent
/// connection each, round-robin cells, each call back-to-back. Returns
/// achieved requests/second.
fn saturation_probe(
    scale: Scale,
    path: &std::path::Path,
    probe_n: usize,
    cells: &[Cell],
    references: &HashMap<(String, usize), Evaluation>,
    tally: &Tally,
) -> f64 {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..PROBE_THREADS {
            scope.spawn(|| {
                let client = load_client(path);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= probe_n {
                        break;
                    }
                    let request = net_request(scale, cells[i % cells.len()], "");
                    let outcome = client.call(&request);
                    tally.record(&outcome, references);
                }
            });
        }
    });
    probe_n as f64 / started.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------- phase 2

/// One scheduled arrival of the open-loop phase.
struct Arrival {
    /// Offset from the phase start.
    at: Duration,
    cell: usize,
    tenant: usize,
}

/// The seeded open-loop schedule: Poisson inter-arrivals at `rate_rps`
/// with occasional 16-deep zero-gap bursts, Zipf cell popularity, and a
/// `HOT_SHARE` hot-tenant mix.
fn schedule(n: usize, rate_rps: f64, rng: &mut XorShift64) -> Vec<Arrival> {
    let cdf = zipf_cdf(cells().len());
    let mut arrivals = Vec::with_capacity(n);
    let mut clock = 0.0f64;
    while arrivals.len() < n {
        let burst = if rng.unit() < 0.005 {
            16.min(n - arrivals.len())
        } else {
            // ln(0) is impossible: unit() < 1.0 strictly.
            clock += -(1.0 - rng.unit()).ln() / rate_rps;
            1
        };
        for _ in 0..burst {
            let tenant = if rng.unit() < HOT_SHARE {
                0
            } else {
                1 + rng.index(TENANTS.len() - 1)
            };
            arrivals.push(Arrival {
                at: Duration::from_secs_f64(clock),
                cell: sample_cdf(&cdf, rng.unit()),
                tenant,
            });
        }
    }
    arrivals
}

struct OpenLoopResult {
    wall: Duration,
    target_rps: f64,
    latencies_ns: Vec<u64>,
    bursts: usize,
}

/// Drives the schedule through `SENDERS` paced sender threads. Open
/// loop: arrival times come from the schedule, not from completions
/// (with enough senders a slow call delays only its own thread's next
/// pick, not the offered process).
fn open_loop(
    scale: Scale,
    path: &std::path::Path,
    arrivals: &[Arrival],
    cells: &[Cell],
    references: &HashMap<(String, usize), Evaluation>,
    tally: &Tally,
    per_tenant: &[Tally],
) -> OpenLoopResult {
    let bursts = arrivals.windows(2).filter(|w| w[1].at == w[0].at).count();
    let next = AtomicUsize::new(0);
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(arrivals.len()));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..SENDERS {
            scope.spawn(|| {
                let client = load_client(path);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(arrival) = arrivals.get(i) else {
                        break;
                    };
                    let target = started + arrival.at;
                    let now = Instant::now();
                    if target > now {
                        std::thread::sleep(target - now);
                    }
                    let request = net_request(scale, cells[arrival.cell], TENANTS[arrival.tenant]);
                    let sent = Instant::now();
                    let outcome = client.call(&request);
                    let latency = sent.elapsed().as_nanos() as u64;
                    tally.record(&outcome, references);
                    per_tenant[arrival.tenant].record(&outcome, references);
                    if matches!(&outcome, Ok(r) if r.outcome.is_ok()) {
                        latencies.lock().expect("latency lock").push(latency);
                    }
                }
            });
        }
    });
    let wall = started.elapsed();
    let mut latencies_ns = latencies.into_inner().expect("latency lock");
    latencies_ns.sort_unstable();
    let span = arrivals.last().map(|a| a.at.as_secs_f64()).unwrap_or(1.0);
    OpenLoopResult {
        wall,
        target_rps: arrivals.len() as f64 / span.max(1e-9),
        latencies_ns,
        bursts,
    }
}

// ---------------------------------------------------------------- phase 3

struct QuotaResult {
    hot_offered: u64,
    hot_completed: u64,
    hot_rejected: u64,
    cold_offered: u64,
    cold_completed: u64,
    cold_share: f64,
}

/// Hot tenant floods from 8 closed-loop threads against a stalled
/// 2-worker service with a per-tenant in-flight quota of 4; three cold
/// tenants trickle paced requests. The quota gate — not luck — must
/// keep the cold tenants whole.
fn quota_fairness(
    scale: Scale,
    path: &std::path::Path,
    hot_per_thread: usize,
    cold_per_tenant: usize,
    cells: &[Cell],
    references: &HashMap<(String, usize), Evaluation>,
    tally: &Tally,
) -> QuotaResult {
    let stall = quota_stall(scale);
    let (service, server) = start_server(
        ServiceConfig::default()
            .with_workers(2)
            .with_queue_capacity(64)
            .with_admission(Admission::Reject)
            .with_delivery_latency(stall)
            .with_tenant_quota(4),
        path,
        Duration::from_millis(300),
    );
    let hot = Tally::default();
    let cold = Tally::default();
    std::thread::scope(|scope| {
        for t in 0..8 {
            let hot = &hot;
            scope.spawn(move || {
                let client = load_client(path);
                for i in 0..hot_per_thread {
                    let cell = cells[(t * hot_per_thread + i) % cells.len()];
                    let outcome = client.call(&net_request(scale, cell, "hot"));
                    hot.record(&outcome, references);
                }
            });
        }
        for tenant in &TENANTS[1..] {
            let cold = &cold;
            scope.spawn(move || {
                let client = load_client(path);
                for i in 0..cold_per_tenant {
                    std::thread::sleep(stall / 2);
                    let outcome = client.call(&net_request(scale, cells[i % cells.len()], tenant));
                    cold.record(&outcome, references);
                }
            });
        }
    });
    stop_server(service, server);

    // Fold the phase into the global conservation ledger.
    for (source, _) in [(&hot, "hot"), (&cold, "cold")] {
        let (offered, completed, rejected, failed) = source.snapshot();
        tally.offered.fetch_add(offered, Ordering::Relaxed);
        tally.completed.fetch_add(completed, Ordering::Relaxed);
        tally.rejected.fetch_add(rejected, Ordering::Relaxed);
        tally.failed.fetch_add(failed, Ordering::Relaxed);
        tally
            .mismatches
            .fetch_add(source.mismatches.load(Ordering::Relaxed), Ordering::Relaxed);
        tally.wrong_words.fetch_add(
            source.wrong_words.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }
    let (hot_offered, hot_completed, hot_rejected, _) = hot.snapshot();
    let (cold_offered, cold_completed, _, _) = cold.snapshot();
    QuotaResult {
        hot_offered,
        hot_completed,
        hot_rejected,
        cold_offered,
        cold_completed,
        cold_share: cold_completed as f64 / cold_offered.max(1) as f64,
    }
}

/// The deliberately transport-bound service for the scaling and
/// open-loop phases: tiny test-scale kernels behind a delivery stall
/// with workers to spare, so what the rps measures is the serving
/// path — scheduling, syscalls, framing — not kernel math.
fn scaling_service(scale: Scale) -> ServiceConfig {
    let (workers, stall) = match scale {
        Scale::Paper => (64, Duration::from_micros(500)),
        Scale::Test => (16, Duration::from_millis(1)),
    };
    // Queue headroom above the worst-case in-flight load (4096 conns ×
    // pipeline depth 4): the scaling phases measure transport, so the
    // service must not shed its own admission load into the numbers.
    ServiceConfig::default()
        .with_workers(workers)
        .with_queue_capacity(65_536)
        .with_admission(Admission::Reject)
        .with_tenant_quota(65_536)
        .with_delivery_latency(stall)
}

// ------------------------------------------------------- sender child
//
// `exp_net --sender ...` re-enters this binary as one forked load
// generator: pump threads driving pipelined persistent connections,
// tallying outcomes locally (including bit-identity against the serial
// references) and reporting one summary line on stdout plus an
// optional binary latency file. Keeping the generators in separate
// processes keeps their scheduling out of the server process under
// measurement, and is how the 10⁶-request phase reaches open-loop
// scale without a thread per in-flight request.

struct SenderArgs {
    addr: PathBuf,
    requests: usize,
    conns: usize,
    threads: usize,
    depth: usize,
    /// Offered requests/second for this process; 0 = closed loop.
    rate: f64,
    seed: u64,
    lat_file: Option<PathBuf>,
}

fn sender_args(args: &[String]) -> SenderArgs {
    let value = |key: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .map(|s| s.as_str())
    };
    let num = |key: &str, default: usize| -> usize {
        value(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    };
    SenderArgs {
        addr: PathBuf::from(value("--addr").expect("--sender requires --addr")),
        requests: num("--requests", 0),
        conns: num("--conns", 1).max(1),
        threads: num("--threads", 1).max(1),
        depth: num("--depth", PIPELINE_DEPTH).max(1),
        rate: value("--rate").and_then(|v| v.parse().ok()).unwrap_or(0.0),
        seed: value("--seed").and_then(|v| v.parse().ok()).unwrap_or(SEED),
        lat_file: value("--lat").map(PathBuf::from),
    }
}

/// Plain per-thread ledger; folded across threads and then reported to
/// the parent. `per_tenant` rows are [offered, completed, rejected,
/// failed] in `TENANTS` order.
#[derive(Default, Clone)]
struct SenderTally {
    offered: u64,
    completed: u64,
    rejected: u64,
    failed: u64,
    mismatches: u64,
    wrong_words: u64,
    per_tenant: [[u64; 4]; 4],
}

impl SenderTally {
    fn fold(&mut self, other: &SenderTally) {
        self.offered += other.offered;
        self.completed += other.completed;
        self.rejected += other.rejected;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.wrong_words += other.wrong_words;
        for (mine, theirs) in self.per_tenant.iter_mut().zip(other.per_tenant.iter()) {
            for (slot, value) in mine.iter_mut().zip(theirs.iter()) {
                *slot += value;
            }
        }
    }
}

/// One request awaiting its pipelined response.
struct PendingReq {
    sent: Instant,
    cell: usize,
    tenant: usize,
}

fn connect_retry(path: &std::path::Path, io_timeout: Duration) -> Option<PersistentClient> {
    let addr = ListenAddr::Unix(path.to_path_buf());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match PersistentClient::connect(&addr, io_timeout) {
            Ok(client) => return Some(client),
            // A full accept backlog during a 4096-connection ramp is
            // expected — back off and retry.
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
            Err(_) => return None,
        }
    }
}

/// Classifies one delivered response against the serial references,
/// crediting the tally row for the tenant that asked.
fn classify_response(
    response: &imt_net::msg::NetResponse,
    entry: &PendingReq,
    named: &[(Cell, String)],
    references: &HashMap<(String, usize), Evaluation>,
    tally: &mut SenderTally,
    latencies: &mut Vec<u64>,
) {
    let latency = entry.sent.elapsed().as_nanos() as u64;
    match &response.outcome {
        Ok(done) => {
            tally.completed += 1;
            tally.per_tenant[entry.tenant][1] += 1;
            tally.wrong_words += done.evaluation.decode_mismatches;
            let (cell, spec_name) = &named[entry.cell];
            let key = (response.kernel.clone(), response.block_size as usize);
            // The response must identify as the cell this id asked for
            // — catches any correlation slip — and match the serial
            // reference bit for bit.
            let right_identity =
                response.kernel == *spec_name && response.block_size as usize == cell.block_size;
            if !right_identity || references.get(&key) != Some(&done.evaluation) {
                tally.mismatches += 1;
            }
            latencies.push(latency);
        }
        Err(RemoteError::Overloaded { .. }) | Err(RemoteError::QuotaExceeded { .. }) => {
            tally.rejected += 1;
            tally.per_tenant[entry.tenant][2] += 1;
        }
        Err(_) => {
            tally.failed += 1;
            tally.per_tenant[entry.tenant][3] += 1;
        }
    }
}

/// Receives one pipelined response on `conn`, classifying it against
/// the serial references. Returns `false` when the connection is dead
/// (everything still pending on it resolves as failed).
fn pump_drain(
    conn: &mut PersistentClient,
    pending: &mut HashMap<u64, PendingReq>,
    named: &[(Cell, String)],
    references: &HashMap<(String, usize), Evaluation>,
    tally: &mut SenderTally,
    latencies: &mut Vec<u64>,
) -> bool {
    match conn.recv_any() {
        Ok((id, response)) => {
            let entry = pending
                .remove(&id)
                .expect("client outstanding mirrors the pending map");
            classify_response(&response, &entry, named, references, tally, latencies);
            true
        }
        Err(_) => {
            for (_, entry) in pending.drain() {
                tally.failed += 1;
                tally.per_tenant[entry.tenant][3] += 1;
            }
            false
        }
    }
}

/// One pump thread: a bundle of persistent connections loaded
/// round-robin with up to `depth` pipelined requests each. With
/// `rate > 0` sends follow a seeded Poisson schedule (open loop);
/// otherwise the pipeline refills as fast as responses drain (closed
/// loop, for saturation).
#[allow(clippy::too_many_arguments)]
fn pump_thread(
    path: &std::path::Path,
    n: usize,
    conn_count: usize,
    depth: usize,
    rate: f64,
    seed: u64,
    named: &[(Cell, String)],
    cdf: &[f64],
    references: &HashMap<(String, usize), Evaluation>,
) -> (SenderTally, Vec<u64>, Duration) {
    let io_timeout = Duration::from_secs(30);
    let mut tally = SenderTally::default();
    let mut latencies: Vec<u64> = Vec::with_capacity(n);
    let mut conns: Vec<Option<PersistentClient>> = (0..conn_count)
        .map(|_| connect_retry(path, io_timeout))
        .collect();
    let mut pending: Vec<HashMap<u64, PendingReq>> =
        (0..conn_count).map(|_| HashMap::new()).collect();
    let mut rng = XorShift64::new(seed | 1);
    let started = Instant::now();
    let mut clock = 0.0f64;
    for i in 0..n {
        if rate > 0.0 {
            // Open loop: the schedule, not completions, decides when
            // the next request goes out.
            clock += -(1.0 - rng.unit()).ln() / rate;
            let target = started + Duration::from_secs_f64(clock);
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
        }
        let c = i % conn_count;
        if pending[c].len() >= depth {
            let drained = match conns[c].as_mut() {
                Some(conn) => pump_drain(
                    conn,
                    &mut pending[c],
                    named,
                    references,
                    &mut tally,
                    &mut latencies,
                ),
                None => false,
            };
            if !drained {
                conns[c] = connect_retry(path, io_timeout);
            }
        }
        let cell_ix = sample_cdf(cdf, rng.unit());
        let tenant = if rng.unit() < HOT_SHARE {
            0
        } else {
            1 + rng.index(TENANTS.len() - 1)
        };
        tally.offered += 1;
        tally.per_tenant[tenant][0] += 1;
        let request = net_request(Scale::Test, named[cell_ix].0, TENANTS[tenant]);
        let sent = match conns[c].as_mut() {
            Some(conn) => match conn.send(&request) {
                Ok(id) => {
                    pending[c].insert(
                        id,
                        PendingReq {
                            sent: Instant::now(),
                            cell: cell_ix,
                            tenant,
                        },
                    );
                    true
                }
                Err(_) => false,
            },
            None => false,
        };
        if !sent {
            tally.failed += 1;
            tally.per_tenant[tenant][3] += 1;
            for (_, entry) in pending[c].drain() {
                tally.failed += 1;
                tally.per_tenant[entry.tenant][3] += 1;
            }
            conns[c] = connect_retry(path, io_timeout);
        }
    }
    // Drain everything still in flight.
    for c in 0..conn_count {
        while !pending[c].is_empty() {
            let Some(conn) = conns[c].as_mut() else {
                for (_, entry) in pending[c].drain() {
                    tally.failed += 1;
                    tally.per_tenant[entry.tenant][3] += 1;
                }
                break;
            };
            if !pump_drain(
                conn,
                &mut pending[c],
                named,
                references,
                &mut tally,
                &mut latencies,
            ) {
                conns[c] = None;
            }
        }
    }
    (tally, latencies, started.elapsed())
}

/// Entry point for `exp_net --sender`: runs the pump threads, then
/// prints a single machine-parsable tally line.
fn sender_main(args: &[String]) {
    let a = sender_args(args);
    let named: Vec<(Cell, String)> = cells()
        .into_iter()
        .map(|cell| {
            let name = Scale::Test.spec(cell.kernel).name.clone();
            (cell, name)
        })
        .collect();
    let cdf = zipf_cdf(named.len());
    let references = serial_references(Scale::Test);
    let threads = a.threads.clamp(1, a.conns);
    let mut results: Vec<(SenderTally, Vec<u64>, Duration)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let n_t = a.requests / threads + usize::from(t < a.requests % threads);
            let conns_t = (a.conns / threads + usize::from(t < a.conns % threads)).max(1);
            let rate_t = a.rate / threads as f64;
            let seed_t = a.seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let (named, cdf, references, path) = (&named, &cdf, &references, a.addr.as_path());
            handles.push(scope.spawn(move || {
                pump_thread(
                    path, n_t, conns_t, a.depth, rate_t, seed_t, named, cdf, references,
                )
            }));
        }
        for handle in handles {
            results.push(handle.join().expect("pump thread"));
        }
    });
    let mut tally = SenderTally::default();
    let mut latencies: Vec<u64> = Vec::new();
    let mut wall = Duration::ZERO;
    for (thread_tally, thread_latencies, elapsed) in results {
        tally.fold(&thread_tally);
        latencies.extend_from_slice(&thread_latencies);
        wall = wall.max(elapsed);
    }
    if let Some(lat_path) = &a.lat_file {
        let mut bytes = Vec::with_capacity(latencies.len() * 8);
        for v in &latencies {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(lat_path, bytes).expect("write latency file");
    }
    let mut line = format!(
        "SENDER offered={} completed={} rejected={} failed={} mismatches={} \
         wrong_words={} wall_ms={}",
        tally.offered,
        tally.completed,
        tally.rejected,
        tally.failed,
        tally.mismatches,
        tally.wrong_words,
        wall.as_millis(),
    );
    for (i, tenant) in TENANTS.iter().enumerate() {
        let [o, c, r, f] = tally.per_tenant[i];
        write!(line, " {tenant}={o}:{c}:{r}:{f}").expect("write to String");
    }
    println!("{line}");
}

// ------------------------------------------------------ sender parent

/// Merged view over all `--sender` child processes of one phase.
#[derive(Default)]
struct SenderReport {
    offered: u64,
    completed: u64,
    rejected: u64,
    failed: u64,
    mismatches: u64,
    wrong_words: u64,
    per_tenant: [[u64; 4]; 4],
    /// Slowest child's first-send → last-recv span (the honest divisor
    /// for throughput).
    wall: Duration,
    /// Sorted, merged across children; empty unless requested.
    latencies_ns: Vec<u64>,
}

fn sender_u64(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|tok| {
            tok.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix('='))
        })
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("sender line missing {key}: {line}"))
}

fn sender_tenant(line: &str, name: &str) -> [u64; 4] {
    let raw = line
        .split_whitespace()
        .find_map(|tok| {
            tok.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix('='))
        })
        .unwrap_or_else(|| panic!("sender line missing tenant {name}: {line}"));
    let mut out = [0u64; 4];
    for (slot, part) in out.iter_mut().zip(raw.split(':')) {
        *slot = part.parse().expect("tenant counter");
    }
    out
}

/// Forks `procs` sender processes (re-executing this binary with
/// `--sender`) and merges their tallies. `rate` is the total offered
/// requests/second across all processes; 0 runs closed-loop.
#[allow(clippy::too_many_arguments)]
fn run_senders(
    path: &std::path::Path,
    requests: usize,
    conns: usize,
    depth: usize,
    rate: f64,
    procs: usize,
    threads_per_proc: usize,
    seed: u64,
    collect_latencies: bool,
) -> SenderReport {
    let exe = std::env::current_exe().expect("own binary path");
    let mut children = Vec::new();
    let mut lat_files: Vec<PathBuf> = Vec::new();
    for p in 0..procs {
        let n_p = requests / procs + usize::from(p < requests % procs);
        let conns_p = (conns / procs + usize::from(p < conns % procs)).max(1);
        let mut cmd = Command::new(&exe);
        cmd.arg("--sender")
            .arg("--addr")
            .arg(path)
            .arg("--requests")
            .arg(n_p.to_string())
            .arg("--conns")
            .arg(conns_p.to_string())
            .arg("--threads")
            .arg(threads_per_proc.to_string())
            .arg("--depth")
            .arg(depth.to_string())
            .arg("--seed")
            .arg((seed ^ (p as u64 + 1).wrapping_mul(0xD134_2543_DE82_EF95)).to_string())
            .stdout(Stdio::piped());
        if rate > 0.0 {
            cmd.arg("--rate").arg(format!("{:.3}", rate / procs as f64));
        }
        if collect_latencies {
            let lat = std::env::temp_dir()
                .join(format!("imt-exp-net-lat-{}-{p}.bin", std::process::id()));
            cmd.arg("--lat").arg(&lat);
            lat_files.push(lat);
        }
        children.push(cmd.spawn().expect("spawn sender process"));
    }
    let mut report = SenderReport::default();
    for child in children {
        let output = child.wait_with_output().expect("sender process exits");
        assert!(output.status.success(), "a sender process failed");
        let text = String::from_utf8_lossy(&output.stdout);
        let line = text
            .lines()
            .find(|l| l.starts_with("SENDER "))
            .expect("sender tally line");
        report.offered += sender_u64(line, "offered");
        report.completed += sender_u64(line, "completed");
        report.rejected += sender_u64(line, "rejected");
        report.failed += sender_u64(line, "failed");
        report.mismatches += sender_u64(line, "mismatches");
        report.wrong_words += sender_u64(line, "wrong_words");
        report.wall = report
            .wall
            .max(Duration::from_millis(sender_u64(line, "wall_ms")));
        for (i, tenant) in TENANTS.iter().enumerate() {
            let counts = sender_tenant(line, tenant);
            for (slot, value) in report.per_tenant[i].iter_mut().zip(counts.iter()) {
                *slot += value;
            }
        }
    }
    for lat in &lat_files {
        if let Ok(bytes) = std::fs::read(lat) {
            report.latencies_ns.extend(
                bytes
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
            );
        }
        let _ = std::fs::remove_file(lat);
    }
    report.latencies_ns.sort_unstable();
    report
}

/// Folds a sender-phase report into the global conservation ledger.
fn fold_report(report: &SenderReport, tally: &Tally) {
    tally.offered.fetch_add(report.offered, Ordering::Relaxed);
    tally
        .completed
        .fetch_add(report.completed, Ordering::Relaxed);
    tally.rejected.fetch_add(report.rejected, Ordering::Relaxed);
    tally.failed.fetch_add(report.failed, Ordering::Relaxed);
    tally
        .mismatches
        .fetch_add(report.mismatches, Ordering::Relaxed);
    tally
        .wrong_words
        .fetch_add(report.wrong_words, Ordering::Relaxed);
}

// ---------------------------------------------------------------- phase 6

struct ScalingCell {
    conns: usize,
    reactor_rps: f64,
}

/// Sweeps connection counts against the reactor driven by persistent
/// pipelined connections. Closed-loop saturation per cell, multi-process
/// senders.
fn conn_scaling(scale: Scale, tally: &Tally) -> Vec<ScalingCell> {
    let (conn_counts, per_cell_floor) = scaling_counts(scale);
    let procs = sender_procs(scale);
    let mut out = Vec::new();
    for &conns in conn_counts {
        let per_cell = per_cell_floor.max(conns * SCALING_REQS_PER_CONN);
        let path = unique_sock();
        // The generous read timeout matters: at 4096 persistent
        // connections each sees seconds between frames, which must be
        // idleness, not a timeout disconnect.
        let (service, server) =
            start_server(scaling_service(scale), &path, Duration::from_secs(30));
        let threads = (conns / procs).clamp(1, 8);
        let seed = SEED ^ ((conns as u64) << 8) ^ 1;
        let report = run_senders(
            &path,
            per_cell,
            conns,
            PIPELINE_DEPTH,
            0.0,
            procs,
            threads,
            seed,
            false,
        );
        stop_server(service, server);
        let _ = std::fs::remove_file(&path);
        fold_report(&report, tally);
        assert_eq!(
            report.failed, 0,
            "the reactor at {conns} conns must not fail requests"
        );
        let reactor_rps = report.completed as f64 / report.wall.as_secs_f64().max(1e-9);
        println!("  {conns:>5} conns: reactor (pipelined) {reactor_rps:>8.0} rps");
        out.push(ScalingCell { conns, reactor_rps });
    }
    out
}

// ---------------------------------------------------------------- phase 7

struct MegaResult {
    requests: u64,
    conns: usize,
    offered_rps: f64,
    achieved_rps: f64,
    wall: Duration,
    p50: f64,
    p99: f64,
    p999: f64,
    offered: u64,
    completed: u64,
    rejected: u64,
    failed: u64,
    cold_share: f64,
    server_connections: u64,
    server_requests: u64,
}

/// The 10⁶-request open-loop run: multi-process senders offer a seeded
/// Poisson schedule at ~70% of the measured scaling saturation over
/// persistent pipelined connections.
fn mega_open_loop(scale: Scale, reactor_rps: f64, tally: &Tally) -> MegaResult {
    let (total, conns) = mega_counts(scale);
    let procs = sender_procs(scale);
    let rate = (reactor_rps * 0.7).max(200.0);
    let path = unique_sock();
    let (service, server) = start_server(scaling_service(scale), &path, Duration::from_secs(30));
    let threads = (conns / procs).clamp(1, 8);
    let report = run_senders(
        &path,
        total,
        conns,
        PIPELINE_DEPTH,
        rate,
        procs,
        threads,
        SEED ^ 0x1_000_000,
        true,
    );
    let server_stats = server.stats();
    stop_server(service, server);
    let _ = std::fs::remove_file(&path);
    fold_report(&report, tally);
    let cold_offered: u64 = (1..TENANTS.len()).map(|i| report.per_tenant[i][0]).sum();
    let cold_completed: u64 = (1..TENANTS.len()).map(|i| report.per_tenant[i][1]).sum();
    MegaResult {
        requests: total as u64,
        conns,
        offered_rps: rate,
        achieved_rps: report.completed as f64 / report.wall.as_secs_f64().max(1e-9),
        wall: report.wall,
        p50: percentile_ms(&report.latencies_ns, 50.0),
        p99: percentile_ms(&report.latencies_ns, 99.0),
        p999: percentile_ms(&report.latencies_ns, 99.9),
        offered: report.offered,
        completed: report.completed,
        rejected: report.rejected,
        failed: report.failed,
        cold_share: cold_completed as f64 / cold_offered.max(1) as f64,
        server_connections: server_stats.connections,
        server_requests: server_stats.requests,
    }
}

// ---------------------------------------------------------------- phase 4

struct ChaosResult {
    rounds: usize,
    by_label: Vec<(&'static str, usize)>,
    disconnects: usize,
    protocol_errors: u64,
    read_timeouts: u64,
    restart_ok: bool,
    post_chaos_ok: bool,
    /// Post-restart pipelined out-of-order bit-identity over one
    /// persistent connection.
    pipelined_ok: bool,
}

/// Writes `bytes` on a fresh raw connection and drains whatever comes
/// back (bounded). The server must stay up whatever happens here.
fn fire_raw(path: &std::path::Path, bytes: &[u8], linger: Option<Duration>) {
    let Ok(mut stream) = UnixStream::connect(path) else {
        return;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    if let Some(pause) = linger {
        // Slow-loris: half the bytes, then a stall longer than the
        // server's read timeout.
        let half = bytes.len() / 2;
        let _ = stream.write_all(&bytes[..half]);
        std::thread::sleep(pause);
        let _ = stream.write_all(&bytes[half..]);
    } else {
        let _ = stream.write_all(bytes);
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = Vec::new();
    let _ = std::io::Read::by_ref(&mut stream)
        .take(1 << 16)
        .read_to_end(&mut sink);
}

fn chaos_matrix(
    scale: Scale,
    path: &std::path::Path,
    random_rounds: usize,
    cells: &[Cell],
    references: &HashMap<(String, usize), Evaluation>,
) -> ChaosResult {
    let chaos_service = || {
        ServiceConfig::default()
            .with_workers(2)
            .with_admission(Admission::Reject)
    };
    let (service, server) = start_server(chaos_service(), path, Duration::from_millis(300));
    let mut rng = XorShift64::new(SEED ^ 0xC4A0_5EED);
    let mut by_label: Vec<(&'static str, usize)> = ALL_INJECTIONS
        .iter()
        .map(|injection| (injection.label(), 0))
        .collect();
    let mut tick = |label: &'static str| {
        if let Some(entry) = by_label.iter_mut().find(|(l, _)| *l == label) {
            entry.1 += 1;
        }
    };

    let frame_for = |rng: &mut XorShift64| {
        let cell = cells[rng.index(cells.len())];
        let request = net_request(scale, cell, "hot");
        Frame::new(FrameKind::Request, rng.next_u64(), request.encode())
            .expect("request payloads are far under the cap")
            .to_bytes()
    };

    // Guaranteed coverage: every injection kind at least twice, then the
    // seeded random tail.
    let mut plan: Vec<Injection> = Vec::new();
    for injection in ALL_INJECTIONS {
        plan.push(injection);
        plan.push(injection);
    }
    let probe_len = frame_for(&mut rng).len();
    while plan.len() < random_rounds {
        plan.push(Injection::sample(&mut rng, probe_len));
    }

    for injection in &plan {
        let bytes = frame_for(&mut rng);
        let corrupted = injection.apply(&bytes);
        let linger = injection
            .split_point(corrupted.len())
            .map(|_| Duration::from_millis(450));
        fire_raw(path, &corrupted, linger);
        tick(injection.label());
    }

    // Mid-request disconnects: a header and partial payload, then a
    // slammed socket.
    let disconnects = 8;
    for _ in 0..disconnects {
        let bytes = frame_for(&mut rng);
        let keep = bytes.len() / 2;
        if let Ok(mut stream) = UnixStream::connect(path) {
            let _ = stream.write_all(&bytes[..keep]);
            drop(stream);
        }
    }
    // Give the server time to observe the half-frames time out.
    std::thread::sleep(Duration::from_millis(400));

    let stats = server.stats();
    stop_server(service, server);

    // Server restart on the same path: the next bind must reclaim the
    // socket file and serve again.
    let (service, server) = start_server(chaos_service(), path, Duration::from_millis(300));
    let client = load_client(path);
    let cell = cells[0];
    let response = client.call(&net_request(scale, cell, ""));
    let restart_ok = matches!(&response, Ok(r) if r.outcome.is_ok());
    let post_chaos_ok = match &response {
        Ok(r) => match &r.outcome {
            Ok(done) => {
                let key = (r.kernel.clone(), r.block_size as usize);
                references.get(&key) == Some(&done.evaluation)
            }
            Err(_) => false,
        },
        Err(_) => false,
    };
    let pipelined_ok = pipelined_post_chaos(scale, path, cells, references);
    stop_server(service, server);

    ChaosResult {
        rounds: plan.len(),
        by_label,
        disconnects,
        protocol_errors: stats.protocol_errors,
        read_timeouts: stats.read_timeouts,
        restart_ok,
        post_chaos_ok,
        pipelined_ok,
    }
}

/// Pipelines four requests on one persistent connection after the
/// chaos matrix and restart, draining answers in *reverse* send order:
/// the request-id correlation, not arrival order, must deliver every
/// response bit-identical to the serial reference.
fn pipelined_post_chaos(
    scale: Scale,
    path: &std::path::Path,
    cells: &[Cell],
    references: &HashMap<(String, usize), Evaluation>,
) -> bool {
    let addr = ListenAddr::Unix(path.to_path_buf());
    let Ok(mut client) = PersistentClient::connect(&addr, Duration::from_secs(30)) else {
        return false;
    };
    let mut ids = Vec::new();
    for &cell in cells.iter().take(4) {
        match client.send(&net_request(scale, cell, "hot")) {
            Ok(id) => ids.push(id),
            Err(_) => return false,
        }
    }
    for &id in ids.iter().rev() {
        match client.recv(id) {
            Ok(response) => {
                let identical = match &response.outcome {
                    Ok(done) => {
                        let key = (response.kernel.clone(), response.block_size as usize);
                        references.get(&key) == Some(&done.evaluation)
                    }
                    Err(_) => false,
                };
                if response.id != id || !identical {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
    !client.is_poisoned()
}

// ---------------------------------------------------------------- phase 5

/// Runs one traced request and asserts its causal timeline covers the
/// full read → decode → queue → warm → encode → respond path.
fn trace_coverage(scale: Scale, path: &std::path::Path) -> Vec<String> {
    let previous = imt_obs::mode();
    imt_obs::set_mode(imt_obs::Mode::Trace);
    imt_obs::trace::reset();
    // A fresh service so the first request must warm the profile memo.
    let (service, server) = start_server(
        ServiceConfig::default()
            .with_workers(1)
            .with_admission(Admission::Reject),
        path,
        Duration::from_millis(300),
    );
    let client = load_client(path);
    let response = client
        .call(&net_request(
            scale,
            Cell {
                kernel: Kernel::Tri,
                block_size: 5,
            },
            "hot",
        ))
        .expect("traced request transports");
    assert!(response.outcome.is_ok(), "traced request completes");
    stop_server(service, server);
    let (events, _dropped) = imt_obs::trace::snapshot();
    imt_obs::set_mode(previous);

    let mut by_trace: HashMap<u64, Vec<String>> = HashMap::new();
    for event in &events {
        by_trace
            .entry(event.trace_id)
            .or_default()
            .push(event.name.clone());
    }
    let needed = [
        "net.read",
        "net.decode",
        "serve.queue_wait",
        "serve.warm",
        "serve.execute",
        "serve.respond",
        "net.write",
    ];
    let covered = by_trace
        .into_values()
        .find(|names| needed.iter().all(|n| names.iter().any(|have| have == n)));
    let mut stages = covered
        .unwrap_or_else(|| panic!("no single trace covered the full network timeline {needed:?}"));
    stages.sort();
    stages.dedup();
    stages
}

// ------------------------------------------------------------------ main

fn main() {
    // Child mode: this process is one forked load generator, not the
    // experiment driver.
    let argv: Vec<String> = std::env::args().collect();
    if argv.iter().any(|a| a == "--sender") {
        sender_main(&argv);
        return;
    }

    let _guard = imt_bench::begin_run("exp_net");
    let scale = Scale::from_args();
    let (probe_n, main_n, hot_per_thread, cold_per_tenant, chaos_rounds) = counts(scale);
    let cells = cells();
    println!(
        "E-N — wire protocol + sharded serving under load and chaos: \
         probe {probe_n}, open-loop {main_n}, quota {}+{}, chaos {chaos_rounds} \
         ({} scale, seed {SEED:#x})\n",
        8 * hot_per_thread,
        3 * cold_per_tenant,
        scale.name(),
    );

    let references = serial_references(scale);
    let tally = Tally::default();
    let per_tenant: Vec<Tally> = TENANTS.iter().map(|_| Tally::default()).collect();
    let path = unique_sock();

    // Phases 1+2 share one server: 4 workers, rejecting admission, a
    // quota far above what SENDERS threads can hold in flight.
    let (service, server) = start_server(
        ServiceConfig::default()
            .with_workers(4)
            .with_queue_capacity(64)
            .with_max_batch(8)
            .with_admission(Admission::Reject)
            .with_tenant_quota(1024),
        &path,
        Duration::from_millis(300),
    );

    let sat_rps = saturation_probe(scale, &path, probe_n, &cells, &references, &tally);
    println!("saturation probe: {PROBE_THREADS} closed-loop clients → {sat_rps:.0} req/s");

    let mut rng = XorShift64::new(SEED);
    let arrivals = schedule(main_n, sat_rps * 0.75, &mut rng);
    let open = open_loop(
        scale,
        &path,
        &arrivals,
        &cells,
        &references,
        &tally,
        &per_tenant,
    );
    let memo_entries = service.profile_memo_entries();
    let service_stats = service.stats();
    let server_stats = server.stats();
    stop_server(service, server);

    let p50 = percentile_ms(&open.latencies_ns, 50.0);
    let p99 = percentile_ms(&open.latencies_ns, 99.0);
    let p999 = percentile_ms(&open.latencies_ns, 99.9);
    println!(
        "open loop: {} arrivals over {:.1}s (target {:.0} req/s, {} in bursts) → \
         p50 {p50:.2}ms  p99 {p99:.2}ms  p99.9 {p999:.2}ms",
        arrivals.len(),
        open.wall.as_secs_f64(),
        open.target_rps,
        open.bursts,
    );
    println!(
        "  sharded memo: {memo_entries} kernel instances warm across {} requests; \
         server saw {} connections, {} requests",
        service_stats.completed, server_stats.connections, server_stats.requests,
    );
    for (i, tenant) in TENANTS.iter().enumerate() {
        let (offered, completed, rejected, failed) = per_tenant[i].snapshot();
        println!(
            "  tenant {tenant:<6} offered {offered:>7}  completed {completed:>7}  \
             rejected {rejected:>5}  failed {failed:>3}"
        );
    }

    let quota = quota_fairness(
        scale,
        &path,
        hot_per_thread,
        cold_per_tenant,
        &cells,
        &references,
        &tally,
    );
    println!(
        "\nquota fairness: hot offered {} → completed {} / quota-shed {}; \
         cold offered {} → completed {} (share {:.3})",
        quota.hot_offered,
        quota.hot_completed,
        quota.hot_rejected,
        quota.cold_offered,
        quota.cold_completed,
        quota.cold_share,
    );

    let chaos = chaos_matrix(scale, &path, chaos_rounds, &cells, &references);
    println!(
        "\nchaos matrix (reactor): {} corruption rounds + {} mid-request disconnects:",
        chaos.rounds, chaos.disconnects,
    );
    for (label, n) in &chaos.by_label {
        println!("  {label:<16} ×{n}");
    }
    let verdict = |ok: bool| if ok { "ok" } else { "FAILED" };
    println!(
        "  server counted {} protocol errors, {} read timeouts; \
         restart on same path: {}; post-chaos round-trip bit-identical: {}; \
         pipelined out-of-order: {}",
        chaos.protocol_errors,
        chaos.read_timeouts,
        verdict(chaos.restart_ok),
        verdict(chaos.post_chaos_ok),
        verdict(chaos.pipelined_ok),
    );

    let trace_stages = trace_coverage(scale, &path);
    println!(
        "\ntrace timeline (reactor): one network request covered {}",
        trace_stages.join(" → "),
    );

    let (_, per_cell_floor) = scaling_counts(scale);
    println!(
        "\nconnection scaling (≥{per_cell_floor} requests/cell, ≥{SCALING_REQS_PER_CONN} \
         per connection, {} sender processes, persistent ×{PIPELINE_DEPTH} pipelined \
         over {REACTORS} shards):",
        sender_procs(scale),
    );
    let scaling = conn_scaling(scale, &tally);

    // The saturation the big open-loop run is paced against: the rps at
    // the first ≥1024-connection cell (the widest cell at test scale).
    let reactor_gate_rps = scaling
        .iter()
        .find(|cell| cell.conns >= 1024)
        .or(scaling.last())
        .map(|cell| cell.reactor_rps)
        .expect("scaling sweep is nonempty");

    let mega = mega_open_loop(scale, reactor_gate_rps, &tally);
    println!(
        "\nopen loop ×10⁶: {} requests over {} conns via {} sender processes \
         (offered {:.0} rps) → achieved {:.0} rps over {:.1}s",
        mega.requests,
        mega.conns,
        sender_procs(scale),
        mega.offered_rps,
        mega.achieved_rps,
        mega.wall.as_secs_f64(),
    );
    println!(
        "  p50 {:.2}ms  p99 {:.2}ms  p99.9 {:.2}ms; {} completed + {} rejected + {} failed \
         == {} offered; cold share {:.3}; server saw {} connections, {} requests",
        mega.p50,
        mega.p99,
        mega.p999,
        mega.completed,
        mega.rejected,
        mega.failed,
        mega.offered,
        mega.cold_share,
        mega.server_connections,
        mega.server_requests,
    );

    // ------------------------------------------------------- the gates
    let (offered, completed, rejected, failed) = tally.snapshot();
    let mismatches = tally.mismatches.load(Ordering::Relaxed);
    let wrong_words = tally.wrong_words.load(Ordering::Relaxed);
    assert_eq!(
        completed + rejected + failed,
        offered,
        "conservation: every offered request must resolve exactly once"
    );
    assert_eq!(
        mismatches, 0,
        "every completed response must be bit-identical to serial execution"
    );
    assert_eq!(wrong_words, 0, "zero wrong decoded words end-to-end");
    assert_eq!(
        failed, 0,
        "well-formed requests never fail under this workload"
    );
    assert!(
        chaos.protocol_errors >= 8,
        "injected corruptions must surface as typed protocol errors \
         (got {})",
        chaos.protocol_errors
    );
    assert!(
        chaos.read_timeouts >= 1,
        "slow-loris half-writes must trip the reactor's mid-frame sweep"
    );
    assert!(chaos.restart_ok, "the server must restart on the same path");
    assert!(
        chaos.post_chaos_ok,
        "a clean request after the chaos matrix must round-trip bit-identically"
    );
    assert!(
        chaos.pipelined_ok,
        "post-chaos pipelined out-of-order responses must stay bit-identical"
    );
    assert!(
        quota.hot_rejected > 0,
        "the flooding tenant must be shed at the quota gate"
    );
    let fair_floor = 0.9;
    assert!(
        quota.cold_share >= fair_floor,
        "cold tenants completed only {:.3} of their offered load (floor {fair_floor})",
        quota.cold_share
    );
    assert!(sat_rps > 0.0, "saturation throughput must be nonzero");

    for cell in &scaling {
        assert!(
            cell.reactor_rps > 0.0,
            "the reactor must serve at {} conns",
            cell.conns
        );
    }
    assert_eq!(
        mega.offered, mega.requests,
        "the open-loop run must offer every scheduled request"
    );
    assert!(
        mega.cold_share >= fair_floor,
        "10⁶-run cold tenants completed only {:.3} of their offered load (floor {fair_floor})",
        mega.cold_share
    );

    println!("\nchecks: wrong-word responses over the wire = 0 across {completed} completed");
    println!(
        "checks: injected corruptions -> typed errors, panics = 0 \
         ({} protocol errors, {} read timeouts)",
        chaos.protocol_errors, chaos.read_timeouts,
    );
    println!(
        "checks: conservation holds: {completed} completed + {rejected} rejected + \
         {failed} failed == {offered} offered"
    );
    println!(
        "checks: starved-tenant completion share {:.3} >= fair floor {fair_floor}",
        quota.cold_share
    );
    println!(
        "checks: 10^6-run conservation {} + {} + {} == {} offered, cold share {:.3}",
        mega.completed, mega.rejected, mega.failed, mega.offered, mega.cold_share
    );

    // --------------------------------------------------------- the doc
    let round = |v: f64| Json::F64((v * 1000.0).round() / 1000.0);
    let mut manifest = imt_obs::manifest::Manifest::new("exp_net");
    manifest.set(
        "settings",
        Json::obj(vec![
            ("seed", Json::U64(SEED)),
            ("senders", Json::U64(SENDERS as u64)),
            ("probe_threads", Json::U64(PROBE_THREADS as u64)),
            ("sender_procs", Json::U64(sender_procs(scale) as u64)),
            ("pipeline_depth", Json::U64(PIPELINE_DEPTH as u64)),
            ("reactors", Json::U64(REACTORS as u64)),
        ]),
    );
    manifest.capture();
    let doc = Json::obj(vec![
        ("scale", Json::str(scale.name())),
        ("seed", Json::U64(SEED)),
        ("offered", Json::U64(offered)),
        ("completed", Json::U64(completed)),
        ("rejected", Json::U64(rejected)),
        ("failed", Json::U64(failed)),
        ("wrong_word_responses", Json::U64(mismatches + wrong_words)),
        ("saturation_rps", round(sat_rps)),
        (
            "open_loop",
            Json::obj(vec![
                ("arrivals", Json::U64(arrivals.len() as u64)),
                ("target_rps", round(open.target_rps)),
                ("wall_ms", round(open.wall.as_secs_f64() * 1e3)),
                ("burst_arrivals", Json::U64(open.bursts as u64)),
                ("p50_ms", round(p50)),
                ("p99_ms", round(p99)),
                ("p999_ms", round(p999)),
                ("memo_entries", Json::U64(memo_entries as u64)),
            ]),
        ),
        (
            "quota",
            Json::obj(vec![
                ("hot_offered", Json::U64(quota.hot_offered)),
                ("hot_completed", Json::U64(quota.hot_completed)),
                ("hot_rejected", Json::U64(quota.hot_rejected)),
                ("cold_offered", Json::U64(quota.cold_offered)),
                ("cold_completed", Json::U64(quota.cold_completed)),
                ("cold_share", round(quota.cold_share)),
                ("fair_floor", round(fair_floor)),
            ]),
        ),
        (
            "chaos",
            Json::obj(vec![
                ("rounds", Json::U64(chaos.rounds as u64)),
                ("disconnects", Json::U64(chaos.disconnects as u64)),
                ("protocol_errors", Json::U64(chaos.protocol_errors)),
                ("read_timeouts", Json::U64(chaos.read_timeouts)),
                ("restart_ok", Json::Bool(chaos.restart_ok)),
                ("post_chaos_ok", Json::Bool(chaos.post_chaos_ok)),
                ("pipelined_ok", Json::Bool(chaos.pipelined_ok)),
                ("panics", Json::U64(0)),
            ]),
        ),
        (
            "trace_stages",
            Json::Arr(trace_stages.iter().map(Json::str).collect()),
        ),
        (
            "conn_scaling",
            Json::obj(vec![
                ("style", Json::str("persistent_pipelined")),
                (
                    "cells",
                    Json::Arr(
                        scaling
                            .iter()
                            .map(|cell| {
                                Json::obj(vec![
                                    ("conns", Json::U64(cell.conns as u64)),
                                    ("reactor_rps", round(cell.reactor_rps)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "reactor",
            Json::obj(vec![
                ("reactors", Json::U64(REACTORS as u64)),
                ("pipeline_depth", Json::U64(PIPELINE_DEPTH as u64)),
                ("saturation_rps", round(reactor_gate_rps)),
                (
                    "open_loop_1m",
                    Json::obj(vec![
                        ("requests", Json::U64(mega.requests)),
                        ("conns", Json::U64(mega.conns as u64)),
                        ("sender_procs", Json::U64(sender_procs(scale) as u64)),
                        ("offered_rps", round(mega.offered_rps)),
                        ("achieved_rps", round(mega.achieved_rps)),
                        ("wall_ms", round(mega.wall.as_secs_f64() * 1e3)),
                        ("p50_ms", round(mega.p50)),
                        ("p99_ms", round(mega.p99)),
                        ("p999_ms", round(mega.p999)),
                        ("completed", Json::U64(mega.completed)),
                        ("rejected", Json::U64(mega.rejected)),
                        ("failed", Json::U64(mega.failed)),
                        ("cold_share", round(mega.cold_share)),
                    ]),
                ),
            ]),
        ),
        ("obs", manifest.to_json()),
    ]);
    let out = "results/BENCH_net.json";
    match std::fs::write(out, format!("{}\n", doc.render_pretty())) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => println!("\ncould not write {out}: {e}"),
    }
    let _ = std::fs::remove_file(&path);
    imt_bench::finish_run("exp_net");
}
