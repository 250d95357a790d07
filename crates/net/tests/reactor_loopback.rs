//! End-to-end tests for the epoll reactor front-end and the persistent
//! pipelined client/pool: bit-identity against serial evaluation,
//! out-of-order pipelined completion, typed backpressure, typed bad
//! requests and tenant quotas, the full chaos matrix (every injection a
//! typed outcome, zero panics), abandoned requests, the pool's retry of
//! refusals, and pool reuse semantics across a server restart.

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use imt_bench::runner::kernel_profile;
use imt_core::eval::{evaluate_auto, EvalNeeds, EvalPath};
use imt_core::scheme::{build_scheme, SchemeSpec};
use imt_core::{encode_program, EncoderConfig};
use imt_kernels::Kernel;
use imt_net::chaos::ALL_INJECTIONS;
use imt_net::msg::{NetCompleted, NetRequest, NetResponse, RemoteError};
use imt_net::pool::{ClientPool, PersistentClient, PoolConfig};
use imt_net::reactor::{ReactorConfig, ReactorServer};
use imt_net::wire::{Frame, FrameKind};
use imt_net::{ListenAddr, NetError};
use imt_serve::service::{Admission, Service, ServiceConfig};

fn unique_sock(tag: &str) -> PathBuf {
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_nanos();
    std::env::temp_dir().join(format!(
        "imt-reactor-{tag}-{}-{nonce}.sock",
        std::process::id()
    ))
}

fn start_reactor(
    tag: &str,
    service_config: ServiceConfig,
) -> (Arc<Service>, ReactorServer, PathBuf) {
    let path = unique_sock(tag);
    let service = Arc::new(Service::start(service_config));
    let server = ReactorServer::start(
        Arc::clone(&service),
        &ListenAddr::Unix(path.clone()),
        ReactorConfig::default().with_read_timeout(Duration::from_millis(500)),
    )
    .expect("unix bind");
    (service, server, path)
}

fn persistent(path: &std::path::Path) -> PersistentClient {
    PersistentClient::connect(
        &ListenAddr::Unix(path.to_path_buf()),
        Duration::from_secs(30),
    )
    .expect("connect")
}

/// The serial reference a wire response must match bit for bit.
fn serial_reference(kernel: Kernel, block_size: usize) -> imt_core::eval::Evaluation {
    let spec = kernel.test_spec();
    let profile = kernel_profile(&spec);
    let config = EncoderConfig::default()
        .with_block_size(block_size)
        .expect("valid block size");
    let encoded = encode_program(&profile.program, &profile.profile, &config).expect("encodes");
    let (evaluation, _) = evaluate_auto(
        &profile.program,
        &encoded,
        spec.max_steps,
        Some(&profile.edges),
        EvalNeeds::transitions_only(),
    )
    .expect("evaluates");
    evaluation
}

#[test]
fn reactor_round_trip_is_bit_identical_to_serial() {
    let (service, server, path) = start_reactor(
        "roundtrip",
        ServiceConfig::default()
            .with_workers(2)
            .with_admission(Admission::Reject),
    );
    let mut conn = persistent(&path);

    let response = conn
        .call(&NetRequest::new("tri", true).with_block_size(5))
        .expect("transport works");
    let done = response.outcome.expect("tri completes");
    assert_eq!(done.evaluation.decode_mismatches, 0);
    assert_eq!(done.evaluation, serial_reference(Kernel::Tri, 5));
    assert_eq!(response.kernel, "tri-12x3");

    let stats = server.stats();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.responses, 1);

    server.stop();
    drop(conn);
    match Arc::try_unwrap(service) {
        Ok(service) => service.shutdown(),
        Err(_) => panic!("server kept a service handle after stop"),
    }
}

#[test]
fn reactor_tcp_round_trip_works_on_an_ephemeral_port() {
    let service = Arc::new(Service::start(
        ServiceConfig::default()
            .with_workers(2)
            .with_admission(Admission::Reject),
    ));
    let server = ReactorServer::start(
        Arc::clone(&service),
        &ListenAddr::Tcp("127.0.0.1:0".to_string()),
        ReactorConfig::default(),
    )
    .expect("tcp bind");
    let mut conn =
        PersistentClient::connect(server.local_addr(), Duration::from_secs(30)).expect("connect");

    let response = conn.call(&NetRequest::new("fft", true)).expect("transport");
    let done = response.outcome.expect("fft completes");
    assert_eq!(done.evaluation, serial_reference(Kernel::Fft, 5));

    server.stop();
}

#[test]
fn pipelined_requests_complete_out_of_order_and_all_match() {
    // Several workers so responses genuinely race each other back.
    let (_service, server, path) = start_reactor(
        "pipeline",
        ServiceConfig::default()
            .with_workers(4)
            .with_admission(Admission::Reject),
    );
    let mut conn = persistent(&path);

    let kernels = ["tri", "fft", "mmul", "lu", "tri", "fft", "mmul", "lu"];
    let mut ids = Vec::new();
    for kernel in kernels {
        ids.push((
            conn.send(&NetRequest::new(kernel, true).with_block_size(5))
                .expect("send"),
            kernel,
        ));
    }
    assert_eq!(conn.in_flight(), kernels.len());

    // Drain in *arrival* order — whatever the worker pool finished
    // first — and verify every response matches its request id's
    // kernel, bit-identical to serial.
    let mut seen = 0;
    while conn.in_flight() > 0 {
        let (id, response) = conn.recv_any().expect("pipelined recv");
        let kernel = ids
            .iter()
            .find(|(sent, _)| *sent == id)
            .map(|(_, k)| *k)
            .expect("response id was sent");
        let done = response.outcome.expect("completes");
        let reference = serial_reference(
            Kernel::ALL
                .iter()
                .copied()
                .find(|k| k.name() == kernel)
                .expect("registry kernel"),
            5,
        );
        assert_eq!(done.evaluation, reference, "kernel {kernel} id {id}");
        seen += 1;
    }
    assert_eq!(seen, kernels.len());

    // Targeted recv also works: send two, take the *second* first.
    let a = conn.send(&NetRequest::new("tri", true)).expect("send");
    let b = conn.send(&NetRequest::new("fft", true)).expect("send");
    let rb = conn.recv(b).expect("recv b");
    let ra = conn.recv(a).expect("recv a");
    assert_eq!(rb.kernel, "fft-16");
    assert_eq!(ra.kernel, "tri-12x3");

    server.stop();
}

/// A test-scale `tri` request with TT capacity `tt_capacity`: each
/// capacity is its own design point, so a fresh service memoizes none.
fn design_point(tt_capacity: u32) -> NetRequest {
    let mut request = NetRequest::new("tri", true);
    request.tt_capacity = tt_capacity;
    request
}

#[test]
fn reject_admission_surfaces_as_typed_overload_over_the_reactor() {
    // One worker, tiny queue, reject admission: flooding the pipeline
    // must yield typed Overloaded refusals — never a blocked reactor.
    // The flood is 32 distinct design points: a repeat of a finished one
    // would be answered from the memo without a queue slot.
    let (_service, server, path) = start_reactor(
        "overload",
        ServiceConfig::default()
            .with_workers(1)
            .with_queue_capacity(1)
            .with_admission(Admission::Reject),
    );
    let mut conn = persistent(&path);

    let mut ids = Vec::new();
    for tt_capacity in 1..=32 {
        ids.push(conn.send(&design_point(tt_capacity)).expect("send"));
    }
    let mut completed = 0u32;
    let mut overloaded = 0u32;
    for id in ids {
        let response = conn.recv(id).expect("typed response, not a dead conn");
        match response.outcome {
            Ok(_) => completed += 1,
            Err(RemoteError::Overloaded { .. }) => overloaded += 1,
            Err(other) => panic!("unexpected refusal {other:?}"),
        }
    }
    assert!(completed >= 1, "at least the queued request completes");
    assert!(overloaded >= 1, "the flood must trip admission");
    assert_eq!(completed + overloaded, 32);

    server.stop();
}

#[test]
fn a_memoized_repeat_is_answered_while_the_queue_is_full() {
    let (service, server, path) = start_reactor(
        "memo-full",
        ServiceConfig::default()
            .with_workers(1)
            .with_queue_capacity(1)
            .with_admission(Admission::Reject),
    );
    let mut conn = persistent(&path);
    let repeat = NetRequest::new("fft", true).with_block_size(5);
    let first = conn.call(&repeat).expect("transport").outcome.expect("fft");

    // Occupy the only worker with a slow job: a paper-scale kernel whose
    // icache need routes it to full simulation.
    let batches = service.stats().batches;
    let mut slow = NetRequest::new("fft", false);
    slow.needs.icache = true;
    let slow = conn.send(&slow).expect("send");
    while service.stats().batches == batches {
        std::thread::sleep(Duration::from_millis(1));
    }
    // The queue's one slot fills, the repeat arrives, and the point after
    // it proves the slot was still taken when the repeat was admitted.
    let queued = conn.send(&design_point(1)).expect("send");
    let hit = conn.send(&repeat).expect("send");
    let refused = conn.send(&design_point(2)).expect("send");

    let (id, response) = conn.recv_any().expect("the hit's response");
    assert_eq!(id, hit, "the hit is answered before the queued work");
    assert_eq!(response.outcome.expect("memoized outcome"), first);
    match conn.recv(refused).expect("typed response").outcome {
        Err(RemoteError::Overloaded { .. }) => {}
        other => panic!("the queue must be full, got {other:?}"),
    }
    conn.recv(slow).expect("slow job").outcome.expect("fft");
    conn.recv(queued).expect("queued job").outcome.expect("tri");
    assert_eq!(service.stats().admission_hits, 1);
    server.stop();
}

#[test]
fn pipelined_repeats_on_one_connection_are_all_answered() {
    let (service, server, path) = start_reactor(
        "repeats",
        ServiceConfig::default()
            .with_workers(2)
            .with_admission(Admission::Reject),
    );
    let mut conn = persistent(&path);
    let request = NetRequest::new("tri", true).with_block_size(5);
    let first = conn
        .call(&request)
        .expect("transport")
        .outcome
        .expect("tri");
    assert_eq!(first.evaluation, serial_reference(Kernel::Tri, 5));

    const REPEATS: u64 = 64;
    let ids: Vec<u64> = (0..REPEATS)
        .map(|_| conn.send(&request).expect("send"))
        .collect();
    while conn.in_flight() > 0 {
        let (id, response) = conn.recv_any().expect("pipelined recv");
        assert!(ids.contains(&id), "response id {id} was sent");
        assert_eq!(response.outcome.expect("memoized outcome"), first);
    }
    let stats = server.stats();
    assert_eq!(stats.requests, REPEATS + 1);
    assert_eq!(stats.responses, stats.requests);
    assert_eq!(service.stats().admission_hits, REPEATS);
    server.stop();
}

/// Twenty-four distinct design points, four per kernel: two TT/BBIT
/// points and one Gray and one low-weight point, each with its own block
/// size and TT/BBIT capacities.
fn sweep_points() -> Vec<(Kernel, NetRequest)> {
    let schemes = ["tt", "tt", "gray", "lowweight"];
    Kernel::ALL
        .iter()
        .enumerate()
        .flat_map(|(i, &kernel)| {
            schemes.iter().enumerate().map(move |(j, &scheme)| {
                let mut request = NetRequest::new(kernel.name(), true)
                    .with_block_size(4 + ((i + j) % 4) as u32)
                    .with_scheme(scheme);
                request.tt_capacity = 1 + ((7 * i + 13 * j) % 64) as u32;
                request.bbit_capacity = 1 + ((5 * i + 11 * j) % 64) as u32;
                (kernel, request)
            })
        })
        .collect()
}

/// What an in-process one-shot run computes for `request`:
/// `encode_program` for TT/BBIT or `build_scheme` for the other schemes,
/// then `evaluate_auto`.
fn one_shot_reference(kernel: Kernel, request: &NetRequest) -> NetCompleted {
    let spec = kernel.test_spec();
    let profile = kernel_profile(&spec);
    let config = EncoderConfig::default()
        .with_block_size(request.block_size as usize)
        .expect("valid block size")
        .with_tt_capacity(request.tt_capacity as usize)
        .with_bbit_capacity(request.bbit_capacity as usize);
    let needs = EvalNeeds::transitions_only();
    let edges = Some(&profile.edges);
    let (evaluation, path, encoded_blocks) =
        match SchemeSpec::parse(&request.scheme).expect("known scheme") {
            SchemeSpec::TtBbit => {
                let encoded =
                    encode_program(&profile.program, &profile.profile, &config).expect("encodes");
                let (evaluation, path) =
                    evaluate_auto(&profile.program, &encoded, spec.max_steps, edges, needs)
                        .expect("evaluates");
                (evaluation, path, encoded.report.encoded.len() as u64)
            }
            scheme => {
                let built = build_scheme(scheme, &profile.program, &profile.profile, &config)
                    .expect("builds");
                let (evaluation, path) = evaluate_auto(
                    &profile.program,
                    built.as_ref(),
                    spec.max_steps,
                    edges,
                    needs,
                )
                .expect("evaluates");
                (evaluation, path, 0)
            }
        };
    NetCompleted {
        evaluation,
        replay_path: path == EvalPath::Replay,
        encoded_blocks,
        fault: None,
    }
}

#[test]
fn distinct_design_points_and_their_repeats_match_the_one_shot_reference() {
    let (service, server, path) = start_reactor(
        "sweep",
        ServiceConfig::default()
            .with_workers(2)
            .with_admission(Admission::Reject),
    );
    let mut conn = persistent(&path);
    let points = sweep_points();
    let references: Vec<NetCompleted> = points
        .iter()
        .map(|(kernel, request)| one_shot_reference(*kernel, request))
        .collect();
    // The first pass runs the staged encode on a worker for every point;
    // the second is answered from the memo at admission.
    for (pass, hits) in [(1, 0), (2, points.len() as u64)] {
        let ids: Vec<u64> = points
            .iter()
            .map(|(_, request)| conn.send(request).expect("send"))
            .collect();
        while conn.in_flight() > 0 {
            let (id, response) = conn.recv_any().expect("pipelined recv");
            let at = ids.iter().position(|&sent| sent == id).expect("sent id");
            let (kernel, request) = &points[at];
            assert_eq!(
                response.outcome.expect("completes"),
                references[at],
                "pass {pass}: {kernel:?} k={} tt={} bbit={} scheme {:?}",
                request.block_size,
                request.tt_capacity,
                request.bbit_capacity,
                request.scheme
            );
        }
        assert_eq!(service.stats().admission_hits, hits, "pass {pass}");
    }
    server.stop();
}

#[test]
fn memo_hits_pipelined_without_reading_are_throttled_at_max_pending_write() {
    let path = unique_sock("throttle");
    let service = Arc::new(Service::start(
        ServiceConfig::default()
            .with_workers(1)
            .with_admission(Admission::Reject),
    ));
    let server = ReactorServer::start(
        Arc::clone(&service),
        &ListenAddr::Unix(path.clone()),
        ReactorConfig {
            max_pending_write: 4096,
            ..ReactorConfig::default()
        },
    )
    .expect("unix bind");
    let request = NetRequest::new("tri", true).with_block_size(5);
    let first = persistent(&path)
        .call(&request)
        .expect("transport")
        .outcome
        .expect("tri");

    // Far more responses than the socket buffers and the pending-write cap
    // hold, sent by a peer that does not read until the server stalls.
    const HITS: u64 = 4000;
    let raw = UnixStream::connect(&path).expect("connect");
    let mut writer = raw.try_clone().expect("clone the socket");
    let payload = request.encode();
    let sender = std::thread::spawn(move || {
        for id in 1..=HITS {
            let frame = Frame::new(FrameKind::Request, id, payload.clone()).expect("under cap");
            writer
                .write_all(&frame.to_bytes())
                .expect("the server reads on");
        }
    });
    let responses = || server.stats().responses;
    while responses() == 1 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut last = responses();
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let now = responses();
        if now == last {
            break;
        }
        last = now;
    }
    assert!(
        last < 1 + HITS,
        "a peer that does not read must be throttled, got {last} responses"
    );

    let mut reader = std::io::BufReader::new(raw);
    for id in 1..=HITS {
        let frame = Frame::read_from(&mut reader).expect("a response frame");
        assert_eq!(frame.request_id, id, "responses keep request order");
        let response = NetResponse::decode(&frame.payload).expect("decodes");
        assert_eq!(response.outcome.expect("memoized outcome"), first);
    }
    sender.join().expect("sender finished");
    assert_eq!(responses(), 1 + HITS);
    assert_eq!(service.stats().admission_hits, HITS);
    server.stop();
}

#[test]
fn chaos_matrix_against_the_reactor_is_typed_and_survivable() {
    let (_service, server, path) = start_reactor(
        "chaos",
        ServiceConfig::default()
            .with_workers(2)
            .with_queue_capacity(64)
            .with_admission(Admission::Reject),
    );

    let good = Frame::new(
        FrameKind::Request,
        77,
        NetRequest::new("tri", true).with_block_size(5).encode(),
    )
    .expect("under cap")
    .to_bytes();

    for injection in ALL_INJECTIONS {
        if injection.is_vacuous(good.len()) {
            continue;
        }
        let bytes = injection.apply(&good);
        let mut raw = UnixStream::connect(&path).expect("connect");
        match injection.split_point(bytes.len()) {
            Some(split) => {
                // Slow-loris: half the header, then a stall past the
                // server's read timeout.
                raw.write_all(&bytes[..split]).expect("first half");
                raw.flush().expect("flush");
                std::thread::sleep(Duration::from_millis(900));
                // The sweep should have disconnected us; the write may
                // fail (EPIPE) or succeed into a dead socket — either
                // is fine, the server must simply survive.
                let _ = raw.write_all(&bytes[split..]);
            }
            None => {
                raw.write_all(&bytes).expect("write corrupted frame");
                raw.flush().expect("flush");
            }
        }
        drop(raw);
    }

    // Post-chaos: the server still serves, bit-identically.
    let mut conn = persistent(&path);
    let response = conn
        .call(&NetRequest::new("tri", true).with_block_size(5))
        .expect("server survived the matrix");
    assert_eq!(
        response.outcome.expect("completes").evaluation,
        serial_reference(Kernel::Tri, 5)
    );

    let stats = server.stats();
    assert!(
        stats.protocol_errors >= 4,
        "corruptions must land as typed protocol errors, got {stats:?}"
    );
    assert!(
        stats.read_timeouts >= 1,
        "the slow-loris sweep must fire, got {stats:?}"
    );

    server.stop();
}

#[test]
fn mid_pipeline_truncation_poisons_only_that_connection() {
    let (_service, server, path) = start_reactor(
        "poison",
        ServiceConfig::default()
            .with_workers(2)
            .with_admission(Admission::Reject),
    );

    // Connection A gets poisoned mid-pipeline; connection B must keep
    // working throughout.
    let mut a = persistent(&path);
    let mut b = persistent(&path);

    let id = a.send(&NetRequest::new("tri", true)).expect("send");
    let _ = a.recv(id).expect("first exchange fine");

    // Now corrupt A's stream from the *server's* perspective by sending
    // garbage bytes; the server drops the connection, so A's next recv
    // sees a truncation/typed wire error.
    let pending = a.send(&NetRequest::new("tri", true)).expect("send ok");
    // Raw write of garbage on the same socket is not possible through
    // the typed API — simulate the peer-side failure instead: a second
    // raw connection sends a corrupt frame to prove the server's
    // failure domain is per-connection.
    let mut raw = UnixStream::connect(&path).expect("connect");
    let mut garbage = Frame::new(FrameKind::Request, 5, b"x".to_vec())
        .expect("under cap")
        .to_bytes();
    garbage[0] ^= 0xFF;
    raw.write_all(&garbage).expect("write garbage");
    drop(raw);

    // A's pipelined request still completes — the garbage connection
    // died alone.
    let response = a.recv(pending).expect("A unaffected");
    assert!(response.outcome.is_ok());

    // B also unaffected.
    let response = b.call(&NetRequest::new("fft", true)).expect("B unaffected");
    assert!(response.outcome.is_ok());

    // And a *real* mid-pipeline truncation on a dedicated connection is
    // a typed error that poisons exactly that connection.
    let mut c = persistent(&path);
    let id = c.send(&NetRequest::new("tri", true)).expect("send");
    let _ = c.recv(id).expect("healthy first");
    drop(server); // server gone: outstanding recv truncates
    let id = match c.send(&NetRequest::new("tri", true)) {
        Ok(id) => id,
        // The send itself may already see the closed socket — equally
        // typed, equally fine.
        Err(NetError::Wire(_)) => {
            assert!(c.is_poisoned());
            return;
        }
        Err(other) => panic!("untyped send failure {other:?}"),
    };
    match c.recv(id) {
        Err(NetError::Wire(_)) => assert!(c.is_poisoned(), "truncation must poison"),
        Err(other) => panic!("untyped recv failure {other:?}"),
        Ok(_) => panic!("recv from a dead server cannot succeed"),
    }
}

#[test]
fn pool_reuses_connections_and_health_checks_across_restart() {
    let path = unique_sock("pool");
    let service = Arc::new(Service::start(
        ServiceConfig::default()
            .with_workers(2)
            .with_admission(Admission::Reject),
    ));
    let server = ReactorServer::start(
        Arc::clone(&service),
        &ListenAddr::Unix(path.clone()),
        ReactorConfig::default(),
    )
    .expect("bind");

    let pool = ClientPool::new(
        ListenAddr::Unix(path.clone()),
        PoolConfig::default().with_max_idle(4),
    );

    // Sequential calls reuse one shelved connection.
    for _ in 0..3 {
        let response = pool
            .call(&NetRequest::new("tri", true))
            .expect("pooled call");
        assert!(response.outcome.is_ok());
    }
    assert_eq!(pool.idle_count(), 1, "one connection, reused");
    let before = server.stats();
    assert_eq!(before.connections, 1, "pool reused a single connection");

    // Restart the server on the same path. The shelved connection is
    // now dead; the health probe must discard it and reconnect.
    server.stop();
    let server = ReactorServer::start(
        Arc::clone(&service),
        &ListenAddr::Unix(path.clone()),
        ReactorConfig::default(),
    )
    .expect("rebind");

    let response = pool
        .call(&NetRequest::new("fft", true))
        .expect("pool recovered across restart");
    assert!(response.outcome.is_ok());
    assert_eq!(pool.idle_count(), 1, "fresh connection shelved");

    server.stop();
}

#[test]
fn a_bad_request_is_typed_and_the_connection_survives() {
    let (_service, server, path) = start_reactor(
        "badreq",
        ServiceConfig::default()
            .with_workers(1)
            .with_admission(Admission::Reject),
    );
    let mut conn = UnixStream::connect(&path).expect("connect");

    // Unknown kernel: the frame is well-formed, so the server answers
    // typed and keeps the connection.
    let bad = Frame::new(
        FrameKind::Request,
        1,
        NetRequest::new("quux", true).encode(),
    )
    .expect("frame");
    bad.write_to(&mut conn).expect("write");
    let reply = Frame::read_from(&mut conn).expect("typed reply, not a hangup");
    assert_eq!(reply.request_id, 1);
    let response = NetResponse::decode(&reply.payload).expect("decodes");
    match response.outcome {
        Err(RemoteError::BadRequest { detail }) => assert!(detail.contains("quux"), "{detail}"),
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // Same connection, now a good request: still served.
    let good =
        Frame::new(FrameKind::Request, 2, NetRequest::new("tri", true).encode()).expect("frame");
    good.write_to(&mut conn).expect("write");
    let reply = Frame::read_from(&mut conn).expect("served");
    assert_eq!(reply.request_id, 2);
    let response = NetResponse::decode(&reply.payload).expect("decodes");
    assert!(response.outcome.is_ok(), "good request after bad refused");

    assert_eq!(server.stats().bad_requests, 1);
    server.stop();
}

#[test]
fn a_peer_that_hangs_up_after_a_whole_request_leaves_the_server_healthy() {
    let (service, server, path) = start_reactor(
        "discon",
        ServiceConfig::default()
            .with_workers(1)
            .with_admission(Admission::Reject),
    );
    {
        let mut conn = UnixStream::connect(&path).expect("connect");
        let frame = Frame::new(FrameKind::Request, 3, NetRequest::new("tri", true).encode())
            .expect("frame");
        frame.write_to(&mut conn).expect("write");
        // Hang up before reading the response: the job still runs, its
        // response has nowhere to go, nothing panics.
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.stats().completed == 0 {
        assert!(
            Instant::now() < deadline,
            "the abandoned job never completed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut conn = persistent(&path);
    assert!(conn
        .call(&NetRequest::new("tri", true).with_block_size(5))
        .expect("alive")
        .outcome
        .is_ok());
    assert_eq!(server.stats().requests, 2);
    server.stop();
}

/// Waits (bounded) until the service has queued `n` jobs: past the
/// tenant-quota gate, so each holds its tenant's slot until it completes.
fn wait_submitted(service: &Service, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.stats().submitted < n {
        assert!(Instant::now() < deadline, "the job was never queued");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn quota_refusal_travels_typed_while_another_tenant_is_served() {
    let (service, server, path) = start_reactor(
        "quota",
        ServiceConfig::default()
            .with_workers(1)
            .with_admission(Admission::Reject)
            .with_tenant_quota(1)
            .with_delivery_latency(Duration::from_millis(500)),
    );

    // The first call holds tenant acme's single in-flight slot for the
    // ~500ms delivery stall.
    let mut holder = persistent(&path);
    let held = holder
        .send(&NetRequest::new("tri", true).with_tenant("acme"))
        .expect("send");
    wait_submitted(&service, 1);

    let mut conn = persistent(&path);
    let refused = conn
        .call(&NetRequest::new("tri", true).with_tenant("acme"))
        .expect("transport works");
    match refused.outcome {
        Err(RemoteError::QuotaExceeded {
            tenant,
            in_flight,
            limit,
        }) => {
            assert_eq!(tenant, "acme");
            assert_eq!((in_flight, limit), (1, 1));
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }

    // A different tenant is admitted while acme is capped.
    let other = conn
        .call(&NetRequest::new("tri", true).with_tenant("zeta"))
        .expect("transport works");
    assert!(
        other.outcome.is_ok(),
        "other tenant starved: {:?}",
        other.outcome
    );
    assert!(holder.recv(held).expect("transport works").outcome.is_ok());
    server.stop();
}

#[test]
fn the_pool_retries_a_quota_refusal_until_the_hold_ends() {
    let (service, server, path) = start_reactor(
        "quota-retry",
        ServiceConfig::default()
            .with_workers(1)
            .with_admission(Admission::Reject)
            .with_tenant_quota(1)
            .with_delivery_latency(Duration::from_millis(300)),
    );
    let mut holder = persistent(&path);
    let held = holder
        .send(&NetRequest::new("tri", true).with_tenant("acme"))
        .expect("send");
    wait_submitted(&service, 1);

    // Enough retry budget to outlast the 300ms stall: the pool backs off
    // through the refusals and lands the request.
    let mut config = PoolConfig::default().with_deadline(Duration::from_secs(30));
    config.retries = 20;
    let pool = ClientPool::new(ListenAddr::Unix(path.clone()), config);
    let response = pool
        .call(&NetRequest::new("tri", true).with_tenant("acme"))
        .expect("transport works");
    assert!(
        response.outcome.is_ok(),
        "retries should outlast the quota hold: {:?}",
        response.outcome
    );
    assert!(holder.recv(held).expect("transport works").outcome.is_ok());
    server.stop();
}

#[test]
fn a_service_that_blocks_admission_is_refused() {
    let path = unique_sock("block");
    let service = Arc::new(Service::start(ServiceConfig::default()));
    assert_eq!(service.admission(), Admission::Block);
    let refused = ReactorServer::start(
        Arc::clone(&service),
        &ListenAddr::Unix(path.clone()),
        ReactorConfig::default(),
    );
    match refused {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}"),
        Ok(_) => panic!("a blocking submit would stall an event loop"),
    }
    assert!(!path.exists(), "nothing was bound");
}
