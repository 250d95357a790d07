//! `ClientPool::call` retry-policy tests against scripted fake servers:
//! retries are bounded, jittered-backoff sleeps respect the deadline,
//! retryable refusals are retried and the last one comes back as data,
//! and non-idempotent requests never retry.

use std::io::Read;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use imt_net::msg::{NetRequest, NetResponse, RemoteError};
use imt_net::pool::{ClientPool, PoolConfig};
use imt_net::wire::{Frame, FrameKind};
use imt_net::{ListenAddr, NetError};

fn unique_sock(tag: &str) -> PathBuf {
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_nanos();
    std::env::temp_dir().join(format!("imt-net-{tag}-{}-{nonce}.sock", std::process::id()))
}

/// A scripted peer: counts connections and runs `script` on each.
fn fake_server(
    tag: &str,
    script: impl Fn(u64, UnixStream) + Send + 'static,
) -> (PathBuf, Arc<AtomicU64>) {
    let path = unique_sock(tag);
    let listener = UnixListener::bind(&path).expect("bind");
    let accepts = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&accepts);
    std::thread::spawn(move || {
        // Exits when the listener errors (test process teardown).
        for conn in listener.incoming() {
            let Ok(conn) = conn else { break };
            let n = counter.fetch_add(1, Ordering::SeqCst) + 1;
            script(n, conn);
        }
    });
    (path, accepts)
}

/// A peer that answers every request frame, on any connection, with
/// `answer(n)` for its `n`-th request (1-based). Returns the socket path
/// and the count of requests answered.
fn refusing_server(
    tag: &str,
    answer: impl Fn(u64) -> RemoteError + Send + 'static,
) -> (PathBuf, Arc<AtomicU64>) {
    let answered = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&answered);
    let (path, _) = fake_server(tag, move |_, mut conn| {
        while let Ok(frame) = Frame::read_from(&mut conn) {
            let n = counter.fetch_add(1, Ordering::SeqCst) + 1;
            let response = NetResponse::refusal(frame.request_id, "tri", answer(n));
            let written = Frame::new(FrameKind::Response, frame.request_id, response.encode())
                .expect("frame")
                .write_to(&mut conn);
            if written.is_err() {
                break;
            }
        }
    });
    (path, answered)
}

fn pool(path: PathBuf, deadline: Duration, retries: u32) -> ClientPool {
    let mut config = PoolConfig::default().with_deadline(deadline);
    config.retries = retries;
    ClientPool::new(ListenAddr::Unix(path), config)
}

fn quota_refusal() -> RemoteError {
    RemoteError::QuotaExceeded {
        tenant: "acme".into(),
        in_flight: 1,
        limit: 1,
    }
}

#[test]
fn non_idempotent_requests_never_retry() {
    // Every connection is slammed shut — a transport error each time.
    let (path, accepts) = fake_server("noretry", |_, conn| drop(conn));
    let pool = pool(path, Duration::from_secs(10), 5);
    let mut request = NetRequest::new("tri", true);
    request.idempotent = false;
    let err = pool.call(&request).expect_err("transport fails");
    assert!(matches!(err, NetError::Wire(_)), "got {err:?}");
    // Exactly one connection: the failure was not retried.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(accepts.load(Ordering::SeqCst), 1);
}

#[test]
fn idempotent_requests_retry_exactly_the_budget() {
    let (path, accepts) = fake_server("budget", |_, conn| drop(conn));
    let pool = pool(path, Duration::from_secs(10), 3);
    let err = pool
        .call(&NetRequest::new("tri", true))
        .expect_err("all attempts fail");
    match err {
        NetError::RetriesExhausted { attempts, .. } => assert_eq!(attempts, 4),
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(accepts.load(Ordering::SeqCst), 4, "retries(3) = 4 attempts");
}

#[test]
fn a_transient_failure_is_retried_to_success() {
    // First connection dies; the second one answers properly.
    let (path, accepts) = fake_server("transient", |n, mut conn| {
        if n == 1 {
            return; // dropped — transport error for the client
        }
        let frame = Frame::read_from(&mut conn).expect("request arrives");
        let response = NetResponse::refusal(
            frame.request_id,
            "tri",
            RemoteError::Cancelled, // typed, NOT retryable — ends the loop
        );
        Frame::new(FrameKind::Response, frame.request_id, response.encode())
            .expect("frame")
            .write_to(&mut conn)
            .expect("write");
    });
    let pool = pool(path, Duration::from_secs(10), 3);
    let response = pool
        .call(&NetRequest::new("tri", true))
        .expect("second attempt succeeds");
    assert_eq!(response.outcome, Err(RemoteError::Cancelled));
    assert_eq!(accepts.load(Ordering::SeqCst), 2);
}

#[test]
fn the_deadline_bounds_the_whole_retry_loop() {
    // The server accepts and then ignores the socket: every attempt
    // burns its io timeout, and the deadline must cut the loop short
    // well before the nominal 50-attempt budget.
    let (path, _accepts) = fake_server("deadline", |_, mut conn| {
        let mut sink = [0u8; 1024];
        while let Ok(n) = conn.read(&mut sink) {
            if n == 0 {
                break;
            }
        }
    });
    let mut config = PoolConfig::default()
        .with_deadline(Duration::from_millis(400))
        .with_io_timeout(Duration::from_millis(100));
    config.retries = 50;
    let pool = ClientPool::new(ListenAddr::Unix(path), config);
    let started = Instant::now();
    let err = pool
        .call(&NetRequest::new("tri", true))
        .expect_err("deadline fires");
    let elapsed = started.elapsed();
    assert!(
        matches!(
            err,
            NetError::DeadlineExceeded { .. } | NetError::RetriesExhausted { .. }
        ),
        "got {err:?}"
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "retry loop overran its 400ms deadline: {elapsed:?}"
    );
}

#[test]
fn an_unreachable_server_fails_typed() {
    let pool = pool(
        PathBuf::from("/nonexistent/imt-net.sock"),
        Duration::from_secs(2),
        1,
    );
    let err = pool
        .call(&NetRequest::new("tri", true))
        .expect_err("nothing listens");
    assert!(
        matches!(
            &err,
            NetError::RetriesExhausted { last, .. } if matches!(**last, NetError::Wire(_))
        ),
        "got {err:?}"
    );
}

#[test]
fn an_overload_refusal_is_retried_and_the_next_answer_returned() {
    let (path, answered) = refusing_server("overload", |n| match n {
        1 => RemoteError::Overloaded {
            depth: 1,
            capacity: 1,
        },
        _ => RemoteError::Cancelled,
    });
    let pool = pool(path, Duration::from_secs(10), 3);
    let response = pool
        .call(&NetRequest::new("tri", true))
        .expect("transport works");
    assert_eq!(response.outcome, Err(RemoteError::Cancelled));
    assert_eq!(answered.load(Ordering::SeqCst), 2, "one retry, then done");
}

#[test]
fn the_last_quota_refusal_comes_back_as_data_when_the_budget_is_spent() {
    let (path, answered) = refusing_server("quota-spent", |_| quota_refusal());
    let pool = pool(path, Duration::from_secs(10), 2);
    let response = pool
        .call(&NetRequest::new("tri", true))
        .expect("a refusal is data, not a transport error");
    assert_eq!(response.outcome, Err(quota_refusal()));
    assert_eq!(
        answered.load(Ordering::SeqCst),
        3,
        "retries(2) = 3 attempts"
    );
}

#[test]
fn a_non_idempotent_request_gets_its_refusal_on_the_first_attempt() {
    let (path, answered) = refusing_server("quota-once", |_| quota_refusal());
    let pool = pool(path, Duration::from_secs(10), 5);
    let mut request = NetRequest::new("tri", true);
    request.idempotent = false;
    let response = pool.call(&request).expect("transport works");
    assert_eq!(response.outcome, Err(quota_refusal()));
    assert_eq!(answered.load(Ordering::SeqCst), 1);
}
