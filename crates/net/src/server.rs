//! The blocking server front-end: sockets in, [`imt_serve`] jobs out.
//!
//! One accept thread per server, one handler thread per connection, and
//! the existing [`Service`] worker pool behind both — the network layer
//! adds no execution paths, only transport. Robustness posture:
//!
//! * **Protocol errors never take the process down.** A frame that
//!   fails to decode is answered with a typed
//!   [`RemoteError::BadRequest`] when the stream is still framed
//!   (payload-level errors), or the connection is dropped when it is
//!   not (bad magic, truncation) — either way it lands in
//!   [`ServerStats`], not in a panic.
//! * **Slow peers time out.** Every socket carries a read timeout; a
//!   peer that stalls mid-frame (slow-loris) is disconnected when the
//!   timer fires, freeing the handler thread.
//! * **Traces start at the socket.** When `IMT_OBS=trace` is on, the
//!   handler opens the request's trace root as the first frame byte
//!   arrives and hands it to the service via
//!   [`Request::with_trace_root`], so the request timeline covers
//!   read → decode → queue → warm → encode → respond in one tree.

use std::io;
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use imt_core::eval::EvalNeeds;
use imt_core::{EncoderConfig, Protection};
use imt_fault::plan::FaultPlan;
use imt_kernels::Kernel;
use imt_serve::request::Request;
use imt_serve::service::Service;

use crate::msg::{NetRequest, NetResponse, RemoteError};
use crate::wire::{Frame, FrameKind, WireError};
use crate::ListenAddr;

/// Transport knobs. Defaults are production-shaped; tests tighten them.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How long a connection may sit idle or mid-frame before it is
    /// dropped — the slow-loris bound.
    pub read_timeout: Duration,
    /// How long a response write may stall before the connection is
    /// dropped.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
        }
    }
}

impl ServerConfig {
    /// Sets both socket timeouts.
    #[must_use]
    pub fn with_timeouts(mut self, read: Duration, write: Duration) -> ServerConfig {
        self.read_timeout = read;
        self.write_timeout = write;
        self
    }
}

/// Counters the transport layer keeps, one step removed from the
/// service's own stats: what happened on the wire before (or instead
/// of) a job existing.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Request frames decoded and submitted.
    pub requests: AtomicU64,
    /// Responses written successfully.
    pub responses: AtomicU64,
    /// Frames refused at the protocol layer (bad magic, version,
    /// truncation, checksum, oversize) — each one a typed
    /// [`WireError`], each one surviving the connection's death.
    pub protocol_errors: AtomicU64,
    /// Well-framed payloads that did not name a servable job (unknown
    /// kernel, bad plan) — answered with
    /// [`RemoteError::BadRequest`].
    pub bad_requests: AtomicU64,
    /// Connections dropped by the read timeout (slow-loris defense).
    pub read_timeouts: AtomicU64,
}

/// A point-in-time copy of [`ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Request frames decoded and submitted.
    pub requests: u64,
    /// Responses written successfully.
    pub responses: u64,
    /// Typed protocol refusals.
    pub protocol_errors: u64,
    /// Typed bad-request refusals.
    pub bad_requests: u64,
    /// Slow-loris disconnects.
    pub read_timeouts: u64,
}

impl ServerStats {
    pub(crate) fn snapshot(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            read_timeouts: self.read_timeouts.load(Ordering::Relaxed),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// Socket abstraction the handler works over: both stream types expose
/// the same read/write/timeout surface, boxed behind one trait.
trait Conn: io::Read + io::Write + Send {
    fn set_timeouts(&self, read: Duration, write: Duration) -> io::Result<()>;
}

impl Conn for std::net::TcpStream {
    fn set_timeouts(&self, read: Duration, write: Duration) -> io::Result<()> {
        self.set_read_timeout(Some(read))?;
        self.set_write_timeout(Some(write))
    }
}

impl Conn for std::os::unix::net::UnixStream {
    fn set_timeouts(&self, read: Duration, write: Duration) -> io::Result<()> {
        self.set_read_timeout(Some(read))?;
        self.set_write_timeout(Some(write))
    }
}

/// The running server: an accept loop plus per-connection handlers,
/// feeding a shared [`Service`].
pub struct NetServer {
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    accept_thread: Option<JoinHandle<()>>,
    local_addr: ListenAddr,
    unix_path: Option<std::path::PathBuf>,
}

impl NetServer {
    /// Binds `addr` and starts accepting. The service is shared — the
    /// caller keeps its own handle and decides when to shut it down
    /// (after [`NetServer::stop`]).
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors (address in use, bad path).
    pub fn start(
        service: Arc<Service>,
        addr: &ListenAddr,
        config: ServerConfig,
    ) -> io::Result<NetServer> {
        let (listener, local_addr, unix_path) = match addr {
            ListenAddr::Tcp(hostport) => {
                let listener = TcpListener::bind(hostport.as_str())?;
                let bound = listener.local_addr()?;
                listener.set_nonblocking(true)?;
                (
                    Listener::Tcp(listener),
                    ListenAddr::Tcp(bound.to_string()),
                    None,
                )
            }
            ListenAddr::Unix(path) => {
                // A stale socket file from a previous run refuses the
                // bind; remove it first (restart-friendly).
                if path.exists() {
                    let _ = std::fs::remove_file(path);
                }
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                (
                    Listener::Unix(listener),
                    ListenAddr::Unix(path.clone()),
                    Some(path.clone()),
                )
            }
        };
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("imt-net-accept".to_string())
                .spawn(move || accept_loop(listener, service, config, stop, stats))?
        };
        Ok(NetServer {
            stop,
            stats,
            accept_thread: Some(accept_thread),
            local_addr,
            unix_path,
        })
    }

    /// The bound address — for TCP with port 0, the resolved ephemeral
    /// port.
    pub fn local_addr(&self) -> &ListenAddr {
        &self.local_addr
    }

    /// Transport-layer counters.
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.stats.snapshot()
    }

    /// Stops accepting, waits for in-flight connection handlers to
    /// drain, and removes the Unix socket file if one was bound. The
    /// shared [`Service`] is untouched — shut it down separately.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.halt();
    }
}

fn accept_loop(
    listener: Listener,
    service: Arc<Service>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
) {
    let handlers: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
    while !stop.load(Ordering::SeqCst) {
        let conn: Option<Box<dyn Conn>> = match &listener {
            Listener::Tcp(l) => match l.accept() {
                Ok((stream, _)) => Some(Box::new(stream)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                Err(_) => None,
            },
            Listener::Unix(l) => match l.accept() {
                Ok((stream, _)) => Some(Box::new(stream)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                Err(_) => None,
            },
        };
        match conn {
            Some(conn) => {
                stats.connections.fetch_add(1, Ordering::Relaxed);
                let service = Arc::clone(&service);
                let stats = Arc::clone(&stats);
                let config = config.clone();
                let spawned = std::thread::Builder::new()
                    .name("imt-net-conn".to_string())
                    .spawn(move || handle_connection(conn, &service, &config, &stats));
                if let Ok(handle) = spawned {
                    let mut guard = handlers.lock().unwrap_or_else(|e| e.into_inner());
                    guard.retain(|h| !h.is_finished());
                    guard.push(handle);
                }
            }
            // Nonblocking accept + short sleep: the loop observes `stop`
            // within ~5ms without needing a self-connection to wake it.
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    let drained = {
        let mut guard = handlers.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *guard)
    };
    for handle in drained {
        let _ = handle.join();
    }
}

/// Serves one connection: a sequence of request frames, each answered
/// in order. Returns (closing the connection) on the first framing
/// error, timeout, or write failure.
fn handle_connection(
    mut conn: Box<dyn Conn>,
    service: &Service,
    config: &ServerConfig,
    stats: &ServerStats,
) {
    if conn
        .set_timeouts(config.read_timeout, config.write_timeout)
        .is_err()
    {
        return;
    }
    loop {
        // The trace root opens when the frame starts arriving, so the
        // read and decode stages are part of the request's timeline.
        let read_start = imt_obs::trace_enabled().then(imt_obs::trace::now_ns);
        let frame = match Frame::read_or_eof(&mut conn) {
            Ok(Some(frame)) => frame,
            // Clean EOF at a frame boundary is an orderly close, not a
            // protocol error; mid-frame EOF (`Truncated`) is one.
            Ok(None) => return,
            Err(WireError::Io { kind })
                if kind == io::ErrorKind::WouldBlock.to_string()
                    || kind == io::ErrorKind::TimedOut.to_string() =>
            {
                stats.read_timeouts.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(_) => {
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let trace_root = read_start.and_then(|_| imt_obs::trace::open_trace());
        let opened_ns = read_start.unwrap_or(0);
        if let (Some(root), Some(start)) = (trace_root, read_start) {
            imt_obs::trace::record_stage("net.read", Some(root), start, imt_obs::trace::now_ns());
        }
        if frame.kind != FrameKind::Request {
            stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let decode_start = read_start.map(|_| imt_obs::trace::now_ns());
        let net_request = match NetRequest::decode(&frame.payload) {
            Ok(req) => req,
            Err(e) => {
                // The stream is still framed — answer the id we have
                // with a typed refusal and keep the connection.
                stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                let refusal = NetResponse::refusal(
                    frame.request_id,
                    "",
                    RemoteError::BadRequest {
                        detail: e.to_string(),
                    },
                );
                if write_response(&mut conn, frame.request_id, &refusal, stats).is_err() {
                    return;
                }
                continue;
            }
        };
        if let (Some(root), Some(start)) = (trace_root, decode_start) {
            imt_obs::trace::record_stage("net.decode", Some(root), start, imt_obs::trace::now_ns());
        }
        let request = match build_request(&net_request) {
            Ok(request) => request.with_trace_root(trace_root, opened_ns),
            Err(detail) => {
                stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                imt_obs::trace::instant_under("net.bad_request", trace_root);
                imt_obs::trace::close_root("net.request", trace_root, opened_ns);
                let refusal = NetResponse::refusal(
                    frame.request_id,
                    &net_request.kernel,
                    RemoteError::BadRequest { detail },
                );
                if write_response(&mut conn, frame.request_id, &refusal, stats).is_err() {
                    return;
                }
                continue;
            }
        };
        stats.requests.fetch_add(1, Ordering::Relaxed);
        let kernel_name = request.spec.name.clone();
        let response = match service.submit(request) {
            Ok(ticket) => NetResponse::from_response(&ticket.wait()),
            Err(e) => {
                NetResponse::refusal(frame.request_id, &kernel_name, RemoteError::from_serve(&e))
            }
        };
        // The service closed the trace root at respond time; the write
        // stage rides in the same trace as a sibling span.
        let write_start = read_start.map(|_| imt_obs::trace::now_ns());
        if write_response(&mut conn, frame.request_id, &response, stats).is_err() {
            return;
        }
        if let (Some(root), Some(start)) = (trace_root, write_start) {
            imt_obs::trace::record_stage("net.write", Some(root), start, imt_obs::trace::now_ns());
        }
    }
}

fn write_response(
    conn: &mut Box<dyn Conn>,
    request_id: u64,
    response: &NetResponse,
    stats: &ServerStats,
) -> Result<(), WireError> {
    let frame = Frame::new(FrameKind::Response, request_id, response.encode())?;
    frame.write_to(conn)?;
    stats.responses.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// Resolves a wire request into a service [`Request`], or a
/// human-readable refusal. Kernels resolve against the registry —
/// arbitrary source never crosses the wire. Shared with the reactor
/// front-end — both transports admit exactly the same request surface.
///
/// A registry kernel is resolved once per process into a shared `Arc`
/// ([`Kernel::shared_spec`]), so a request costs no source generation
/// and no golden-model run. The golden check runs when the service
/// warms a profile: it compares the recorded output with the spec's
/// expected output.
pub(crate) fn build_request(net: &NetRequest) -> Result<Request, String> {
    let kernel = Kernel::ALL
        .iter()
        .copied()
        .find(|k| k.name() == net.kernel)
        .ok_or_else(|| format!("unknown kernel `{}`", net.kernel))?;
    let spec = kernel.shared_spec(net.test_scale);
    let mut config = EncoderConfig::default();
    if net.block_size > 0 {
        config = config
            .with_block_size(net.block_size as usize)
            .map_err(|e| format!("bad block size: {e}"))?;
    }
    if net.tt_capacity > 0 {
        config = config.with_tt_capacity(net.tt_capacity as usize);
    }
    if net.bbit_capacity > 0 {
        config = config.with_bbit_capacity(net.bbit_capacity as usize);
    }
    let mut request = Request::new(spec, config);
    request.scheme = imt_core::scheme::SchemeSpec::parse(&net.scheme)
        .ok_or_else(|| format!("unknown scheme `{}`", net.scheme))?;
    request.needs = EvalNeeds {
        icache: net.needs.icache,
        timing: net.needs.timing,
        address_bus: net.needs.address_bus,
    };
    if net.deadline_ms > 0 {
        request.deadline = Some(Duration::from_millis(u64::from(net.deadline_ms)));
    }
    if !net.fault_plan.is_empty() {
        let plan = FaultPlan::parse(&net.fault_plan).map_err(|e| format!("bad fault plan: {e}"))?;
        let protection = Protection::parse(&net.protection)
            .ok_or_else(|| format!("unknown protection `{}`", net.protection))?;
        request = request.with_faults(plan, protection);
    } else if Protection::parse(&net.protection).is_none() {
        return Err(format!("unknown protection `{}`", net.protection));
    }
    if net.fault_window > 0 {
        request.fault_window = net.fault_window as usize;
    }
    request.panic_in_worker = net.panic_in_worker;
    if !net.tenant.is_empty() {
        request = request.with_tenant(net.tenant.clone());
    }
    Ok(request)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_request_resolves_registry_kernels_only() {
        let net = NetRequest::new("mmul", true);
        let request = build_request(&net).expect("mmul resolves");
        assert_eq!(request.spec.name, "mmul-8");
        assert!(request.tenant.is_none());

        let err = build_request(&NetRequest::new("quux", true)).expect_err("unknown kernel");
        assert!(err.contains("quux"), "{err}");
    }

    #[test]
    fn build_request_shares_one_spec_per_registry_kernel() {
        for test_scale in [true, false] {
            let first = build_request(&NetRequest::new("tri", test_scale)).expect("builds");
            let second = build_request(&NetRequest::new("tri", test_scale).with_scheme("gray"))
                .expect("builds");
            assert!(
                Arc::ptr_eq(&first.spec, &second.spec),
                "test_scale={test_scale}: the spec was rebuilt for a request"
            );
        }
    }

    #[test]
    fn build_request_types_bad_parameters() {
        let mut net = NetRequest::new("tri", true);
        net.block_size = 1; // below the encoder's minimum of 2
        assert!(build_request(&net)
            .expect_err("bad k")
            .contains("block size"));

        let mut net = NetRequest::new("tri", true);
        net.fault_plan = "not-a-plan".into();
        assert!(build_request(&net)
            .expect_err("bad plan")
            .contains("fault plan"));

        let mut net = NetRequest::new("tri", true);
        net.protection = "quantum".into();
        assert!(build_request(&net)
            .expect_err("bad protection")
            .contains("quantum"));

        let mut net = NetRequest::new("tri", true);
        net.scheme = "rot13".into();
        assert!(build_request(&net)
            .expect_err("bad scheme")
            .contains("unknown scheme `rot13`"));
    }

    #[test]
    fn build_request_carries_the_scheme() {
        use imt_core::scheme::SchemeSpec;
        // Empty (the wire default) and "tt" both mean the paper pipeline.
        let request = build_request(&NetRequest::new("tri", true)).expect("builds");
        assert_eq!(request.scheme, SchemeSpec::TtBbit);
        let request =
            build_request(&NetRequest::new("tri", true).with_scheme("tt")).expect("builds");
        assert_eq!(request.scheme, SchemeSpec::TtBbit);
        let request =
            build_request(&NetRequest::new("tri", true).with_scheme("businvert")).expect("builds");
        assert_eq!(request.scheme, SchemeSpec::BusInvert);
    }

    #[test]
    fn build_request_carries_tenant_deadline_and_faults() {
        let mut net = NetRequest::new("fft", true).with_tenant("acme");
        net.deadline_ms = 1500;
        net.fault_plan = "10:bus:3".into();
        net.protection = "parity".into();
        net.fault_window = 512;
        let request = build_request(&net).expect("builds");
        assert_eq!(request.tenant.as_deref(), Some("acme"));
        assert_eq!(request.deadline, Some(Duration::from_millis(1500)));
        assert!(request.fault_plan.is_some());
        assert_eq!(request.protection, Protection::Parity);
        assert_eq!(request.fault_window, 512);
    }
}
