//! The serving workloads: the job service behind the epoll reactor, built
//! exactly as `imt serve --listen unix:PATH --reactor` builds them, driven
//! over a Unix socket by closed loops in this process — one connection and
//! one thread per loop.
//!
//! * `serve-hot` offers Zipf(1) traffic over the 24 Figure 6 cells, so
//!   nearly every request is answered from the result memo: the wire, the
//!   reactor and the queue, with no encode or evaluation.
//! * `serve-sweep` offers distinct design points (kernel × k × TT × BBIT,
//!   80 % TT/BBIT, 10 % Gray, 10 % low-weight), so the memo never hits and
//!   encode, replay and the scheme arena run for every request.
//!
//! A run draws two request lists from its seed and then makes [`ROUNDS`]
//! rounds. Each round sets up a fresh server (the set-up time), sends the
//! latency list one request at a time, then sends the capacity list with
//! [`SATURATING_WINDOW`] requests in flight. Every round sends the same
//! requests in the same order to a server in the same state, so each
//! request is the same work in every round: its latency is the fastest of
//! its rounds, and the capacity is the list's length over the fastest
//! round. Every completed response is checked afterwards against an
//! in-process reference computed through the same public pipeline calls.

use std::collections::{HashMap, HashSet};
use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use imt_bitcode::slice::encode_words_sliced;
use imt_bitcode::stream::{StreamCodec, StreamCodecConfig};
use imt_core::eval::{evaluate_auto, evaluate_replay, EvalNeeds, EvalPath};
use imt_core::scheme::{build_scheme, evaluate_scheme_auto, SchemeSpec};
use imt_core::{encode_program, EncodedProgram, EncoderConfig};
use imt_isa::Program;
use imt_kernels::Kernel;
use imt_net::chaos::XorShift64;
use imt_net::msg::{NetCompleted, NetRequest, NetResponse};
use imt_net::reactor::{ReactorConfig, ReactorServer};
use imt_net::wire::{Frame, FrameKind};
use imt_net::ListenAddr;
use imt_serve::service::{Admission, Service, ServiceConfig, StatsSnapshot};
use imt_sim::edge::FetchEdgeProfile;

use crate::ledger::Layers;
use crate::offline::shuffle;
use crate::stats::{band_quantile, median, quantile};
use crate::{Outcome, Params, ServeCounters};

/// Rounds per run, each on a fresh server.
const ROUNDS: usize = 16;
/// Requests the capacity loop keeps in flight: the service's largest batch.
const SATURATING_WINDOW: usize = 8;
/// Share of `--seconds` the two loops of every round take together;
/// set-ups and the output check take most of the rest.
const LOOPS_SHARE: f64 = 0.7;
/// Time per request of the two loops, on the 2-vCPU virtual machine the
/// lists were sized on: one in flight took 0.55–0.8 ms, eight in flight
/// 0.6–0.7 ms per request.
const NOMINAL_REQUEST_S: f64 = 0.8e-3;
/// How long a loop waits for a response before it gives up on the rest.
const DRAIN: Duration = Duration::from_secs(5);
/// Half-width of the band of quantiles `p50_ms` and `p90_ms` average over.
const BAND: f64 = 0.05;
/// Requests of the latency list replayed layer by layer in a traced run.
const REPLAYED: usize = 1000;
/// Block sizes, and TT/BBIT capacities `1..=TABLE`, of the sweep space.
const SWEEP_K: std::ops::RangeInclusive<u32> = 2..=7;
const TABLE: u32 = 64;

pub fn serve_hot(params: &Params, layers: &mut Layers) -> Result<Outcome, String> {
    serve(params, layers, Mix::Hot)
}

pub fn serve_sweep(params: &Params, layers: &mut Layers) -> Result<Outcome, String> {
    serve(params, layers, Mix::Sweep)
}

/// One design point: everything a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Point {
    kernel: Kernel,
    /// Block size, TT and BBIT capacity; 0 leaves the server default.
    k: u32,
    tt: u32,
    bbit: u32,
    /// Scheme name on the wire; empty is the TT/BBIT default.
    scheme: &'static str,
}

impl Point {
    /// The request a set-up sends to warm one kernel's profile.
    fn warm(kernel: Kernel) -> Point {
        Point {
            kernel,
            k: 0,
            tt: 0,
            bbit: 0,
            scheme: "",
        }
    }

    fn request(self, test_scale: bool) -> NetRequest {
        let mut request = NetRequest::new(self.kernel.name(), test_scale)
            .with_block_size(self.k)
            .with_scheme(self.scheme);
        request.tt_capacity = self.tt;
        request.bbit_capacity = self.bbit;
        request
    }

    /// The encoder configuration the server derives from the request.
    fn config(self) -> EncoderConfig {
        let mut config = EncoderConfig::default();
        if self.k > 0 {
            config = config
                .with_block_size(self.k as usize)
                .expect("generated block sizes are valid");
        }
        if self.tt > 0 {
            config = config.with_tt_capacity(self.tt as usize);
        }
        if self.bbit > 0 {
            config = config.with_bbit_capacity(self.bbit as usize);
        }
        config
    }

    fn scheme(self) -> SchemeSpec {
        SchemeSpec::parse(self.scheme).expect("generated scheme names parse")
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mix {
    Hot,
    Sweep,
}

/// `n` requests over the 24 Figure 6 cells in exact Zipf(1) proportions,
/// in seeded order. Popularity follows the Figure 6 order (mmul k=4
/// first) for every seed, and each cell's count is fixed by `n`: the seed
/// changes the order of the requests, not the mix, so runs with different
/// seeds cost alike.
fn hot_list(n: usize, rng: &mut XorShift64) -> Vec<Point> {
    let cells: Vec<Point> = Kernel::ALL
        .iter()
        .flat_map(|&kernel| {
            (4..=7).map(move |k| Point {
                k,
                ..Point::warm(kernel)
            })
        })
        .collect();
    let total: f64 = (1..=cells.len()).map(|rank| 1.0 / rank as f64).sum();
    let exact: Vec<f64> = (1..=cells.len())
        .map(|rank| n as f64 / rank as f64 / total)
        .collect();
    // Largest remainder: the counts sum to exactly `n`.
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..cells.len()).collect();
    by_remainder.sort_by(|&a, &b| exact[b].fract().total_cmp(&exact[a].fract()));
    let short = n - counts.iter().sum::<usize>();
    for &rank in &by_remainder[..short] {
        counts[rank] += 1;
    }
    let mut list: Vec<Point> = cells
        .iter()
        .zip(&counts)
        .flat_map(|(&cell, &count)| std::iter::repeat_n(cell, count))
        .collect();
    shuffle(&mut list, rng);
    list
}

/// `n` design points none of which is in `seen`, in seeded order. The
/// kernels and block sizes take turns and, within each, every ten points
/// hold eight TT/BBIT, one Gray and one low-weight request, so the mix is
/// the same for every seed; the seed draws the TT and BBIT capacities
/// (1..=64 each) and the order. The server's default configuration is
/// left out: the set-up's warm requests use it.
fn sweep_list(
    n: usize,
    seen: &mut HashSet<(Kernel, u32, u32, u32)>,
    rng: &mut XorShift64,
) -> Vec<Point> {
    let default = EncoderConfig::default();
    let default = (
        default.block_size() as u32,
        default.tt_capacity() as u32,
        default.bbit_capacity() as u32,
    );
    let kernels = Kernel::ALL.len();
    let ks = SWEEP_K.count();
    let combos = kernels * ks;
    let mut list: Vec<Point> = (0..n)
        .map(|i| {
            let kernel = Kernel::ALL[i % kernels];
            let k = SWEEP_K.start() + (i / kernels % ks) as u32;
            // Each (kernel, k) takes the ten scheme slots in turn, and even
            // a short list holds every scheme.
            let scheme = match (i / combos + i % combos) % 10 {
                0..=7 => "tt",
                8 => "gray",
                _ => "lowweight",
            };
            // 4096 capacity pairs per (kernel, k), far more than any run
            // draws, so this finds a fresh pair within a few tries.
            loop {
                let tt = 1 + rng.index(TABLE as usize) as u32;
                let bbit = 1 + rng.index(TABLE as usize) as u32;
                if (k, tt, bbit) != default && seen.insert((kernel, k, tt, bbit)) {
                    break Point {
                        kernel,
                        k,
                        tt,
                        bbit,
                        scheme,
                    };
                }
            }
        })
        .collect();
    shuffle(&mut list, rng);
    list
}

/// The two request lists every round sends: `latency` one request at a
/// time, `capacity` with [`SATURATING_WINDOW`] in flight. Each holds as
/// many requests as [`ROUNDS`] rounds can send in `LOOPS_SHARE` of the run
/// at the nominal round trip.
struct Lists {
    latency: Vec<Point>,
    capacity: Vec<Point>,
}

impl Lists {
    fn draw(mix: Mix, seconds: f64, rng: &mut XorShift64) -> Lists {
        // At least ten: every scheme slot of the sweep mix.
        let n =
            ((seconds * LOOPS_SHARE / (2 * ROUNDS) as f64 / NOMINAL_REQUEST_S) as usize).max(10);
        match mix {
            Mix::Hot => Lists {
                latency: hot_list(n, rng),
                capacity: hot_list(n, rng),
            },
            Mix::Sweep => {
                // Distinct across both lists: every sweep request misses
                // the memo of its round's fresh server.
                let mut seen = HashSet::new();
                Lists {
                    latency: sweep_list(n, &mut seen, rng),
                    capacity: sweep_list(n, &mut seen, rng),
                }
            }
        }
    }
}

/// The server under test.
struct Server {
    reactor: ReactorServer,
    service: Arc<Service>,
}

impl Server {
    /// `imt serve --listen unix:PATH --reactor` with its defaults: 2
    /// workers, queue 32, batches of up to 8, typed rejection when full,
    /// 2 reactors.
    fn start(sock: &Path) -> Result<Server, String> {
        let config = ServiceConfig::default()
            .with_workers(2)
            .with_queue_capacity(32)
            .with_max_batch(8)
            .with_admission(Admission::Reject);
        let service = Arc::new(Service::start(config));
        let reactor = ReactorServer::start(
            Arc::clone(&service),
            &ListenAddr::Unix(sock.to_path_buf()),
            ReactorConfig::default().with_reactors(2),
        )
        .map_err(|e| format!("listening on {}: {e}", sock.display()))?;
        Ok(Server { reactor, service })
    }

    /// Waits until every admitted job has been answered (bounded).
    fn wait_idle(&self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            let s = self.service.stats();
            if s.completed + s.failed >= s.submitted {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn stop(self) {
        self.reactor.stop();
        if let Ok(service) = Arc::try_unwrap(self.service) {
            service.shutdown();
        }
    }
}

/// One response: when it arrived (ns from the loop's start), whether it
/// completed, and a digest of everything the client is told about the
/// work. Responses are not kept whole, so the benchmark's own memory does
/// not grow with the request count.
struct Arrival {
    at_ns: u64,
    ok: bool,
    digest: u64,
}

/// FNV-1a digest of a response's encoding with the per-delivery fields
/// (id, timings, batch, worker) zeroed: equal digests mean the kernel,
/// block size and complete outcome are bit-identical.
fn outcome_digest(
    kernel: String,
    block_size: u64,
    outcome: Result<NetCompleted, imt_net::msg::RemoteError>,
) -> u64 {
    let canonical = NetResponse {
        id: 0,
        kernel,
        block_size,
        outcome,
        queue_ns: 0,
        service_ns: 0,
        batch_size: 0,
        worker: 0,
        missed_deadline: false,
    };
    canonical
        .encode()
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |hash: u64, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// What one closed loop sent and received.
#[derive(Default)]
struct Phase {
    points: Vec<Point>,
    /// When each request went out (ns from the loop's start).
    sent_ns: Vec<u64>,
    arrivals: Vec<Option<Arrival>>,
    bad_frames: u64,
}

impl Phase {
    /// Requests sent that did not complete successfully.
    fn not_completed(&self) -> u64 {
        self.arrivals
            .iter()
            .filter(|a| !a.as_ref().is_some_and(|a| a.ok))
            .count() as u64
    }

    /// The round trip (ms) of request `i`, if it completed.
    fn latency_ms(&self, i: usize) -> Option<f64> {
        let arrival = self.arrivals.get(i)?.as_ref().filter(|a| a.ok)?;
        Some(arrival.at_ns.saturating_sub(self.sent_ns[i]) as f64 / 1e6)
    }

    /// Seconds from the first send to the last response, if every request
    /// completed.
    fn complete_s(&self) -> Option<f64> {
        self.arrivals
            .iter()
            .map(|a| a.as_ref().filter(|a| a.ok).map(|a| a.at_ns))
            .try_fold(0, |last, at| Some(last.max(at?)))
            .map(|ns| ns as f64 / 1e9)
    }
}

/// A closed loop on a fresh connection: sends `points` in order, keeping
/// `window` requests in flight and sending the next as each response
/// arrives, then collects the responses still owed. With `trace`, records
/// a `bench.request` span per completed request.
fn closed_loop(
    sock: &Path,
    test_scale: bool,
    points: &[Point],
    window: usize,
    trace: bool,
) -> Result<Phase, String> {
    let stream =
        UnixStream::connect(sock).map_err(|e| format!("connecting to {}: {e}", sock.display()))?;
    stream
        .set_read_timeout(Some(DRAIN))
        .map_err(|e| format!("setting the read timeout: {e}"))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("cloning the socket: {e}"))?,
    );
    let mut writer = &stream;
    let mut phase = Phase::default();
    let mut next = points.iter();
    let mut in_flight = 0;
    let t0 = Instant::now();
    let trace_t0 = imt_obs::trace::now_ns();
    loop {
        while in_flight < window {
            let Some(&point) = next.next() else { break };
            let id = phase.points.len() as u64 + 1;
            let bytes = Frame::new(FrameKind::Request, id, point.request(test_scale).encode())
                .map_err(|e| format!("encoding a request: {e}"))?
                .to_bytes();
            phase.points.push(point);
            phase.sent_ns.push(t0.elapsed().as_nanos() as u64);
            phase.arrivals.push(None);
            if writer.write_all(&bytes).is_err() {
                // The request stays without an arrival: it counts as failed.
                return Ok(phase);
            }
            in_flight += 1;
        }
        if in_flight == 0 {
            return Ok(phase);
        }
        let Ok(Some(frame)) = Frame::read_or_eof(&mut reader) else {
            return Ok(phase);
        };
        let at_ns = t0.elapsed().as_nanos() as u64;
        let index = usize::try_from(frame.request_id)
            .ok()
            .and_then(|id| id.checked_sub(1))
            .filter(|&i| i < phase.points.len() && frame.kind == FrameKind::Response);
        match (index, NetResponse::decode(&frame.payload)) {
            (Some(i), Ok(response)) if phase.arrivals[i].is_none() => {
                in_flight -= 1;
                let ok = response.outcome.is_ok();
                if trace && ok {
                    record_request(trace_t0, phase.sent_ns[i], at_ns, &response);
                }
                let digest = outcome_digest(response.kernel, response.block_size, response.outcome);
                phase.arrivals[i] = Some(Arrival { at_ns, ok, digest });
            }
            _ => phase.bad_frames += 1,
        }
    }
}

/// One `bench.request` root per completed request, from its send to its
/// arrival, with children for the server's queue wait and service time (as
/// the server reports them) and the rest of the round trip — wire, reactor
/// and request building. The children are laid end to end; only their
/// durations are measured.
fn record_request(t0: u64, sent: u64, arrived: u64, response: &NetResponse) {
    let Some(root) = imt_obs::trace::open_trace() else {
        return;
    };
    let (sent, arrived) = (t0 + sent.min(arrived), t0 + arrived);
    let queued = (sent + response.queue_ns).min(arrived);
    let served = (queued + response.service_ns).min(arrived);
    imt_obs::trace::record_stage("serve.queue", Some(root), sent, queued);
    imt_obs::trace::record_stage("serve.service", Some(root), queued, served);
    imt_obs::trace::record_stage("net.overhead", Some(root), served, arrived);
    imt_obs::trace::close_root("bench.request", Some(root), sent);
}

/// The in-process reference: each kernel recorded fresh, and every design
/// point computed through the same public pipeline calls the service
/// makes.
struct Reference {
    kernels: HashMap<Kernel, Recorded>,
}

struct Recorded {
    name: String,
    max_steps: u64,
    program: Program,
    per_index: Vec<u64>,
    edges: FetchEdgeProfile,
}

impl Reference {
    fn record(params: &Params, layers: &mut Layers) -> Result<Reference, String> {
        let _root = imt_obs::trace::span("bench.reference");
        let mut kernels = HashMap::new();
        for kernel in Kernel::ALL {
            let spec = layers.call("kernels.spec", || params.spec(kernel));
            let program = layers.call("isa.assemble", || spec.assemble());
            let edges = layers
                .call("sim.record", || {
                    FetchEdgeProfile::record(&program, spec.max_steps)
                })
                .map_err(|e| format!("{}: {e}", spec.name))?;
            layers.add_work("sim.record", edges.fetches());
            if edges.stdout() != spec.expected_output {
                return Err(format!(
                    "{}: reference run missed the golden model",
                    spec.name
                ));
            }
            kernels.insert(
                kernel,
                Recorded {
                    name: spec.name,
                    max_steps: spec.max_steps,
                    program,
                    per_index: edges.per_index_counts(),
                    edges,
                },
            );
        }
        Ok(Reference { kernels })
    }

    fn kernel(&self, kernel: Kernel) -> &Recorded {
        &self.kernels[&kernel]
    }

    /// The response the service must give for `point` (delivery fields
    /// zeroed), or `None` if the reference itself cannot compute it.
    fn response(&self, point: Point) -> Option<NetResponse> {
        let done = self.complete(point).ok()?;
        Some(NetResponse {
            id: 0,
            kernel: self.kernel(point.kernel).name.clone(),
            block_size: point.config().block_size() as u64,
            outcome: Ok(done),
            queue_ns: 0,
            service_ns: 0,
            batch_size: 0,
            worker: 0,
            missed_deadline: false,
        })
    }

    /// What the service must compute for `point`.
    fn complete(&self, point: Point) -> Result<NetCompleted, String> {
        let r = self.kernel(point.kernel);
        let config = point.config();
        let needs = EvalNeeds::transitions_only();
        let (evaluation, path, encoded_blocks) = match point.scheme() {
            SchemeSpec::TtBbit => {
                let encoded =
                    encode_program(&r.program, &r.per_index, &config).map_err(|e| e.to_string())?;
                let (evaluation, path) =
                    evaluate_auto(&r.program, &encoded, r.max_steps, Some(&r.edges), needs)
                        .map_err(|e| e.to_string())?;
                (evaluation, path, encoded.report.encoded.len() as u64)
            }
            scheme => {
                let mut built = build_scheme(scheme, &r.program, &r.per_index, &config)
                    .map_err(|e| e.to_string())?;
                let (evaluation, path) = evaluate_scheme_auto(
                    built.as_mut(),
                    &r.program,
                    r.max_steps,
                    Some(&r.edges),
                    needs,
                )
                .map_err(|e| e.to_string())?;
                (evaluation.to_evaluation(), path, 0)
            }
        };
        Ok(NetCompleted {
            evaluation,
            replay_path: path == EvalPath::Replay,
            encoded_blocks,
            fault: None,
        })
    }
}

/// Checks every completed response of `phase` against the reference;
/// returns how many were wrong.
fn check(
    phase: &Phase,
    reference: &Reference,
    expected: &mut HashMap<Point, Option<u64>>,
    notes: &mut Vec<String>,
    workload: &str,
) -> u64 {
    let mut wrong = 0;
    for (point, arrival) in phase.points.iter().zip(&phase.arrivals) {
        let Some(arrival) = arrival.as_ref().filter(|a| a.ok) else {
            continue;
        };
        let want = *expected.entry(*point).or_insert_with(|| {
            reference
                .response(*point)
                .map(|r| outcome_digest(r.kernel, r.block_size, r.outcome))
        });
        if want != Some(arrival.digest) {
            wrong += 1;
            if wrong <= 3 {
                notes.push(format!("{workload} WRONG response for {point:?}"));
            }
        }
    }
    wrong
}

/// The codec work of one encoding, redone from outside: every encoded
/// block's original words through the bit-sliced encoder.
fn codec_blocks(program: &Program, encoded: &EncodedProgram) -> usize {
    let config = &encoded.config;
    let Ok(codec_config) = StreamCodecConfig::block_size(config.block_size())
        .and_then(|c| c.with_transforms(config.transforms()))
    else {
        return 0;
    };
    let codec = StreamCodec::new(
        codec_config
            .with_overlap(config.overlap())
            .with_strategy(config.strategy()),
    );
    encoded
        .report
        .encoded
        .iter()
        .filter_map(|block| {
            let start = (block.start_pc.checked_sub(program.text_base)? / 4) as usize;
            let words: Vec<u64> = program
                .text
                .get(start..start + block.instructions)?
                .iter()
                .map(|&w| u64::from(w))
                .collect();
            encode_words_sliced(&words, 32, &codec).ok()
        })
        .count()
}

/// Traced runs only: replays up to [`REPLAYED`] requests of the latency
/// list through the layers the server runs for them, one `bench.replay`
/// root each, so the request ledger's wire and service time can be split
/// into layers.
fn replay_layers(params: &Params, layers: &Layers, reference: &Reference, list: &[Point]) {
    let step = (list.len() / REPLAYED).max(1);
    for &point in list.iter().step_by(step).take(REPLAYED) {
        let Some(response) = reference.response(point) else {
            continue;
        };
        let _root = imt_obs::trace::span("bench.replay");
        std::hint::black_box(layers.call("kernels.spec", || params.spec(point.kernel)));
        std::hint::black_box(layers.call("net.request_codec", || {
            let bytes = Frame::new(
                FrameKind::Request,
                1,
                point.request(params.test_scale).encode(),
            )
            .map(|f| f.to_bytes())
            .ok()?;
            NetRequest::decode(&Frame::from_bytes(&bytes).ok()?.payload).ok()
        }));
        let r = reference.kernel(point.kernel);
        let config = point.config();
        match point.scheme() {
            SchemeSpec::TtBbit => {
                if let Ok(encoded) = layers.call("core.encode", || {
                    encode_program(&r.program, &r.per_index, &config)
                }) {
                    std::hint::black_box(
                        layers.call("bitcode.encode", || codec_blocks(&r.program, &encoded)),
                    );
                    let _ = std::hint::black_box(layers.call("core.replay", || {
                        evaluate_replay(&r.program, &encoded, &r.edges)
                    }));
                }
            }
            scheme => {
                let _ = std::hint::black_box(layers.call("core.scheme", || {
                    let mut built = build_scheme(scheme, &r.program, &r.per_index, &config)?;
                    evaluate_scheme_auto(
                        built.as_mut(),
                        &r.program,
                        r.max_steps,
                        Some(&r.edges),
                        EvalNeeds::transitions_only(),
                    )
                }));
            }
        }
        std::hint::black_box(layers.call("net.response_codec", || {
            let bytes = Frame::new(FrameKind::Response, 1, response.encode())
                .map(|f| f.to_bytes())
                .ok()?;
            NetResponse::decode(&Frame::from_bytes(&bytes).ok()?.payload).ok()
        }));
    }
}

/// A socket path short enough for `sun_path`: relative to the working
/// directory when the work directory lies under it.
fn socket_path(work_dir: &Path) -> PathBuf {
    let path = work_dir.join("serve.sock");
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or(path)
}

/// What the service counted over the capacity loops: completions, result
/// memo hits, batches and the jobs in them, and the deepest queue. The
/// memo-hit counter is kept only while observability is on, which is the
/// traced run — the only run that reports it.
#[derive(Debug, Default)]
struct Tally {
    completed: u64,
    memo_hits: u64,
    batches: u64,
    batched_jobs: u64,
    peak_depth: u64,
}

impl Tally {
    fn read(server: &Server) -> (StatsSnapshot, u64) {
        (
            server.service.stats(),
            imt_obs::registry::counter("serve.result_memo_hits").get(),
        )
    }

    /// Adds what the service counted between `before` and `after`. The
    /// service keeps its peak queue depth over its whole life, but before
    /// the capacity loop its queue never holds more than the one request
    /// in flight, so the peak is the capacity loop's.
    fn add(&mut self, before: (StatsSnapshot, u64), after: (StatsSnapshot, u64)) {
        let ((b, b_hits), (a, a_hits)) = (before, after);
        self.completed += a.completed - b.completed;
        self.memo_hits += a_hits - b_hits;
        self.batches += a.batches - b.batches;
        self.batched_jobs += a.batched_jobs - b.batched_jobs;
        self.peak_depth = self.peak_depth.max(a.peak_depth);
    }

    fn counters(&self) -> ServeCounters {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        ServeCounters {
            memo_hit_ratio: ratio(self.memo_hits, self.completed),
            mean_batch: ratio(self.batched_jobs, self.batches),
            peak_queue_depth: self.peak_depth as f64,
        }
    }
}

/// Time to ready: service and reactor start, one connection, and every
/// kernel's profile warmed into an empty cache, one kernel at a time.
/// Returns the running server, the warm-up loop (for the output check) and
/// the seconds taken.
///
/// Warming one kernel at a time keeps the memory figure steady: six warm
/// requests at once are split between the two workers in a different way
/// on each run, and the peak resident size followed that split (13.5 or
/// 15.2 MB on serve-hot).
fn set_up(sock: &Path, cache_dir: &Path, test_scale: bool) -> Result<(Server, Phase, f64), String> {
    let _ = std::fs::remove_dir_all(cache_dir);
    let started = Instant::now();
    let server = Server::start(sock)?;
    let warm = closed_loop(sock, test_scale, &Kernel::ALL.map(Point::warm), 1, false)?;
    Ok((server, warm, started.elapsed().as_secs_f64()))
}

fn serve(params: &Params, layers: &mut Layers, mix: Mix) -> Result<Outcome, String> {
    let workload = match mix {
        Mix::Hot => "serve-hot",
        Mix::Sweep => "serve-sweep",
    };
    let sock = socket_path(&params.work_dir);
    let cache_dir = params.work_dir.join("profile-cache");
    let lists = Lists::draw(mix, params.seconds, &mut XorShift64::new(params.seed));
    let mut outcome = Outcome {
        ledger_root: "bench.request",
        ..Outcome::default()
    };
    let mut setups = Vec::new();
    let (mut warms, mut latency, mut capacity) = (Vec::new(), Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let mut peak_rss = 0.0;
    for round in 0..ROUNDS {
        let (server, warm, seconds) = set_up(&sock, &cache_dir, params.test_scale)?;
        setups.push(seconds);
        warms.push(warm);
        // A traced run records the request spans of the last round only:
        // every round's would overrun this thread's trace ring.
        latency.push(closed_loop(
            &sock,
            params.test_scale,
            &lists.latency,
            1,
            params.trace && round + 1 == ROUNDS,
        )?);
        let before = Tally::read(&server);
        capacity.push(closed_loop(
            &sock,
            params.test_scale,
            &lists.capacity,
            SATURATING_WINDOW,
            false,
        )?);
        server.wait_idle();
        tally.add(before, Tally::read(&server));
        server.stop();
        // One server's life. Each later server leaves freed heap in
        // allocator arenas its threads pick afresh, so the peak over all
        // rounds would follow how those threads happened to be scheduled.
        if round == 0 {
            peak_rss = crate::stats::peak_rss_mb();
        }
    }
    outcome.serve = Some(tally.counters());

    let reference = Reference::record(params, layers)?;
    // The check recomputes every design point served; with tracing on, the
    // pipeline's own spans from those thousands of calls would overwrite
    // the benchmark's spans in this thread's trace ring.
    let mode = imt_obs::mode();
    imt_obs::set_mode(imt_obs::Mode::Off);
    let mut expected = HashMap::new();
    for phase in warms.iter().chain(&latency).chain(&capacity) {
        outcome.attempted += phase.points.len() as u64;
        outcome.failed += phase.not_completed() + phase.bad_frames;
        outcome.failed += check(
            phase,
            &reference,
            &mut expected,
            &mut outcome.notes,
            workload,
        );
    }
    imt_obs::set_mode(mode);
    if params.trace {
        replay_layers(params, layers, &reference, &lists.latency);
        outcome.notes.extend(
            crate::ledger::Spans::capture()
                .ledger("bench.replay")
                .lines(workload),
        );
    }

    // Each request's latency is the fastest of its rounds.
    let latencies: Vec<f64> = (0..lists.latency.len())
        .filter_map(|i| {
            latency
                .iter()
                .filter_map(|phase| phase.latency_ms(i))
                .min_by(f64::total_cmp)
        })
        .collect();
    let fastest_capacity_s = capacity
        .iter()
        .filter_map(Phase::complete_s)
        .min_by(f64::total_cmp)
        .unwrap_or(f64::INFINITY);
    outcome.push("setup_s", median(&setups), "s");
    outcome.push("peak_rss_mb", peak_rss, "MB");
    // The requests' latencies cluster by kernel, and with six kernels in
    // equal shares a cluster edge sits at the median: band quantiles.
    outcome.push("p50_ms", band_quantile(&latencies, 0.5, BAND), "ms");
    outcome.push("p90_ms", band_quantile(&latencies, 0.9, BAND), "ms");
    outcome.push(
        "ops_per_s",
        lists.capacity.len() as f64 / fastest_capacity_s,
        "1/s",
    );
    outcome.push("p99_ms", quantile(&latencies, 0.99), "ms");
    outcome.push("rounds", ROUNDS as f64, "count");
    outcome.push("latency_requests", lists.latency.len() as f64, "count");
    outcome.push("capacity_requests", lists.capacity.len() as f64, "count");
    outcome.push(
        "error_rate",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        "ratio",
    );
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_hot_mix_is_exact_zipf_for_every_seed() {
        let count = |list: &[Point], kernel, k| {
            list.iter()
                .filter(|p| p.kernel == kernel && p.k == k)
                .count()
        };
        let a = hot_list(1000, &mut XorShift64::new(1));
        let b = hot_list(1000, &mut XorShift64::new(2));
        assert_eq!(a.len(), 1000);
        assert_ne!(a, b, "the seed orders the requests");
        for kernel in Kernel::ALL {
            for k in 4..=7 {
                assert_eq!(count(&a, kernel, k), count(&b, kernel, k));
            }
        }
        // Rank 1 (mmul k=4) holds 1/H(24) of the requests, rank 2 half that.
        assert_eq!(count(&a, Kernel::Mmul, 4), 265);
        assert_eq!(count(&a, Kernel::Mmul, 5), 132);
    }

    #[test]
    fn sweep_points_are_distinct_and_keep_the_mix() {
        let mut seen = HashSet::new();
        let mut rng = XorShift64::new(3);
        let latency = sweep_list(720, &mut seen, &mut rng);
        let capacity = sweep_list(720, &mut seen, &mut rng);
        let all: HashSet<(Kernel, u32, u32, u32)> = latency
            .iter()
            .chain(&capacity)
            .map(|p| (p.kernel, p.k, p.tt, p.bbit))
            .collect();
        assert_eq!(all.len(), 1440);
        let schemes = |name| latency.iter().filter(|p| p.scheme == name).count();
        assert_eq!(
            (schemes("tt"), schemes("gray"), schemes("lowweight")),
            (576, 72, 72)
        );
        for kernel in Kernel::ALL {
            assert_eq!(latency.iter().filter(|p| p.kernel == kernel).count(), 120);
        }
    }
}
