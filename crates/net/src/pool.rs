//! The client: persistent connections, pipelining, and a checkout
//! pool with one retry policy.
//!
//! * [`PersistentClient`] holds one connection across many exchanges,
//!   either strictly sequential ([`PersistentClient::call`]) or
//!   *pipelined*: [`PersistentClient::send`] puts N requests on the
//!   wire without waiting, and [`PersistentClient::recv`] /
//!   [`PersistentClient::recv_any`] match responses back by the wire
//!   header's request id — out-of-order completion from the server's
//!   worker pool is expected and handled by parking early arrivals.
//! * **Poisoning**: the first wire error (truncation, corruption,
//!   unknown id) marks the connection poisoned — every later operation
//!   returns the same typed error, and the pool refuses to re-shelve
//!   it. One bad stream never bleeds into another request's exchange.
//! * [`ClientPool`] is checkout/checkin with a health check on reuse
//!   (a nonblocking probe read distinguishes "idle and healthy" from
//!   "peer closed while shelved") and bounded idle retention.
//!
//! [`ClientPool::call`] retries by three rules:
//!
//! 1. **Only idempotent requests retry.** [`NetRequest::idempotent`] is
//!    the caller's own declaration; a non-idempotent request returns its
//!    first transport error or refusal rather than risk double
//!    execution.
//! 2. **Only retryable failures retry**: transport errors (the request
//!    may never have arrived), each retried on a fresh connection, and
//!    the server's explicit back-off refusals
//!    ([`crate::msg::RemoteError::is_retryable`] — overload and quota).
//!    A typed permanent failure returns immediately.
//! 3. **The deadline always wins.** Connect timeouts, socket timeouts
//!    and backoff sleeps are clamped to the remaining budget, and no
//!    attempt starts past the deadline. When the budget runs out, the
//!    last refusal comes back as data. A Unix-socket connect is
//!    nonblocking and retried while the listener's backlog is full, so
//!    it times out like a TCP one instead of blocking.
//!
//! Each failed attempt is followed by an exponential backoff (10 ms
//! doubling up to 500 ms) with multiplicative jitter in `[0.5, 1.5)`
//! from a per-pool xorshift stream, seeded from the standard library's
//! random hash keys, so a thousand clients refused by the same
//! overloaded server do not reconverge on the same retry instant.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::chaos::XorShift64;
use crate::msg::{NetRequest, NetResponse};
use crate::wire::{Frame, FrameDecoder, FrameKind, WireError};
use crate::{ListenAddr, NetError};

/// The first backoff sleep of [`ClientPool::call`]; it doubles after
/// each further failed attempt.
const BACKOFF_BASE: Duration = Duration::from_millis(10);

/// The longest nominal backoff sleep of [`ClientPool::call`].
const BACKOFF_CAP: Duration = Duration::from_millis(500);

/// One stream, either transport.
#[derive(Debug)]
enum ClientSock {
    Tcp(std::net::TcpStream),
    Unix(UnixStream),
}

/// Dials a Unix socket within `timeout`. `UnixStream::connect` blocks for
/// as long as the listener's backlog is full; a nonblocking connect fails
/// at once with `WouldBlock` there instead, and is retried with short
/// sleeps until the listener takes it or the time is up.
fn connect_unix(path: &Path, timeout: Duration) -> io::Result<UnixStream> {
    let started = Instant::now();
    let mut pause = Duration::from_millis(1);
    loop {
        match unix_sys::connect_nonblocking(path) {
            Ok(stream) => {
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) => return Err(e),
        }
        match timeout.checked_sub(started.elapsed()) {
            Some(left) if !left.is_zero() => std::thread::sleep(pause.min(left)),
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "the Unix listener's backlog stayed full until the connect timeout",
                ))
            }
        }
        pause = (pause * 2).min(Duration::from_millis(20));
    }
}

/// A nonblocking `connect(2)` on a fresh `AF_UNIX` stream socket, which
/// the standard library does not offer. Raw declarations against the libc
/// `std` already links, like the reactor's epoll bindings.
mod unix_sys {
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::os::raw::c_int;
    use std::os::unix::ffi::OsStrExt;
    use std::os::unix::net::UnixStream;
    use std::path::Path;

    const AF_UNIX: c_int = 1;
    const SOCK_STREAM: c_int = 1;
    const SOCK_NONBLOCK: c_int = 0o4000;
    const SOCK_CLOEXEC: c_int = 0o2000000;

    /// Mirror of the kernel's `struct sockaddr_un`.
    #[repr(C)]
    struct SockaddrUn {
        sun_family: u16,
        sun_path: [u8; 108],
    }

    extern "C" {
        fn socket(domain: c_int, kind: c_int, protocol: c_int) -> c_int;
        fn connect(fd: c_int, addr: *const SockaddrUn, len: u32) -> c_int;
    }

    /// One attempt: `Ok` once connected, `WouldBlock` while the
    /// listener's backlog is full, any other error as the OS gave it.
    pub(super) fn connect_nonblocking(path: &Path) -> io::Result<UnixStream> {
        let bytes = path.as_os_str().as_bytes();
        let mut addr = SockaddrUn {
            sun_family: AF_UNIX as u16,
            sun_path: [0; 108],
        };
        if bytes.len() >= addr.sun_path.len() || bytes.contains(&0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "Unix socket path is too long or holds a NUL byte",
            ));
        }
        addr.sun_path[..bytes.len()].copy_from_slice(bytes);
        // SAFETY: plain syscall, no pointers.
        let raw = unsafe { socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
        if raw < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `raw` is a fresh descriptor that nothing else owns.
        let fd = unsafe { OwnedFd::from_raw_fd(raw) };
        let len = (std::mem::size_of::<u16>() + bytes.len() + 1) as u32;
        // SAFETY: `addr` outlives the call and `len` lies within it.
        if unsafe { connect(fd.as_raw_fd(), &addr, len) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(UnixStream::from(fd))
    }
}

impl ClientSock {
    fn connect(addr: &ListenAddr, timeout: Duration) -> io::Result<ClientSock> {
        match addr {
            ListenAddr::Tcp(hostport) => {
                use std::net::ToSocketAddrs;
                let mut last = io::Error::new(io::ErrorKind::NotFound, "no addresses resolved");
                for resolved in hostport.to_socket_addrs()? {
                    match std::net::TcpStream::connect_timeout(&resolved, timeout) {
                        Ok(stream) => {
                            stream.set_nodelay(true)?;
                            return Ok(ClientSock::Tcp(stream));
                        }
                        Err(e) => last = e,
                    }
                }
                Err(last)
            }
            ListenAddr::Unix(path) => connect_unix(path, timeout).map(ClientSock::Unix),
        }
    }

    fn set_timeouts(&self, read: Duration, write: Duration) -> io::Result<()> {
        match self {
            ClientSock::Tcp(s) => {
                s.set_read_timeout(Some(read))?;
                s.set_write_timeout(Some(write))
            }
            ClientSock::Unix(s) => {
                s.set_read_timeout(Some(read))?;
                s.set_write_timeout(Some(write))
            }
        }
    }

    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            ClientSock::Tcp(s) => s.set_nonblocking(on),
            ClientSock::Unix(s) => s.set_nonblocking(on),
        }
    }
}

impl Read for ClientSock {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ClientSock::Tcp(s) => s.read(buf),
            ClientSock::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ClientSock {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ClientSock::Tcp(s) => s.write(buf),
            ClientSock::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ClientSock::Tcp(s) => s.flush(),
            ClientSock::Unix(s) => s.flush(),
        }
    }
}

/// Knobs for persistent connections and the pool.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Per-socket read/write timeout for each exchange step, and the
    /// connect timeout; [`ClientPool::call`] clamps both to the remaining
    /// deadline.
    pub io_timeout: Duration,
    /// Total budget for one [`ClientPool::call`]: connects, exchanges
    /// and backoff sleeps.
    pub deadline: Duration,
    /// Additional attempts after the first for idempotent requests in
    /// [`ClientPool::call`] (so `retries: 3` means at most 4 attempts).
    pub retries: u32,
    /// Connections the pool keeps shelved; extras close on checkin.
    pub max_idle: usize,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            io_timeout: Duration::from_secs(5),
            deadline: Duration::from_secs(30),
            retries: 3,
            max_idle: 16,
        }
    }
}

impl PoolConfig {
    /// Sets the per-exchange socket timeout.
    #[must_use]
    pub fn with_io_timeout(mut self, timeout: Duration) -> PoolConfig {
        self.io_timeout = timeout;
        self
    }

    /// Sets the per-call deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> PoolConfig {
        self.deadline = deadline;
        self
    }

    /// Sets the idle-retention cap.
    #[must_use]
    pub fn with_max_idle(mut self, n: usize) -> PoolConfig {
        self.max_idle = n;
        self
    }
}

/// One long-lived connection with request pipelining.
#[derive(Debug)]
pub struct PersistentClient {
    sock: ClientSock,
    decoder: FrameDecoder,
    /// Reused frame-encode scratch — zero allocations per send in
    /// steady state.
    encode_scratch: Vec<u8>,
    next_id: u64,
    /// Ids sent and not yet delivered to the caller.
    outstanding: HashMap<u64, ()>,
    /// Responses that arrived before their id was asked for.
    parked: HashMap<u64, NetResponse>,
    /// First wire failure; sticky — see module docs.
    poison: Option<WireError>,
    io_timeout: Duration,
}

impl PersistentClient {
    /// Opens one connection to `addr`.
    ///
    /// # Errors
    ///
    /// [`NetError::Wire`] on connect failure.
    pub fn connect(addr: &ListenAddr, io_timeout: Duration) -> Result<PersistentClient, NetError> {
        let sock = ClientSock::connect(addr, io_timeout).map_err(WireError::from)?;
        sock.set_timeouts(io_timeout, io_timeout)
            .map_err(WireError::from)?;
        Ok(PersistentClient {
            sock,
            decoder: FrameDecoder::new(),
            encode_scratch: Vec::new(),
            next_id: 1,
            outstanding: HashMap::new(),
            parked: HashMap::new(),
            poison: None,
            io_timeout,
        })
    }

    /// Wraps an already-connected Unix stream (e.g. one half of a
    /// `UnixStream::pair`) — how tests and in-process harnesses drive
    /// the pipelining state machine without a listener.
    ///
    /// # Errors
    ///
    /// [`NetError::Wire`] when the socket refuses its timeouts.
    pub fn from_unix_stream(
        stream: UnixStream,
        io_timeout: Duration,
    ) -> Result<PersistentClient, NetError> {
        let sock = ClientSock::Unix(stream);
        sock.set_timeouts(io_timeout, io_timeout)
            .map_err(WireError::from)?;
        Ok(PersistentClient {
            sock,
            decoder: FrameDecoder::new(),
            encode_scratch: Vec::new(),
            next_id: 1,
            outstanding: HashMap::new(),
            parked: HashMap::new(),
            poison: None,
            io_timeout,
        })
    }

    /// Whether a wire error has poisoned this connection.
    pub fn is_poisoned(&self) -> bool {
        self.poison.is_some()
    }

    /// Adjusts the per-exchange socket timeout — how deadline-aware
    /// callers clamp a blocking `recv` to their remaining budget.
    ///
    /// # Errors
    ///
    /// [`NetError::Wire`] when the socket refuses the new timeout.
    pub fn set_io_timeout(&mut self, timeout: Duration) -> Result<(), NetError> {
        let timeout = timeout.max(Duration::from_millis(1));
        if timeout != self.io_timeout {
            self.sock
                .set_timeouts(timeout, timeout)
                .map_err(WireError::from)?;
            self.io_timeout = timeout;
        }
        Ok(())
    }

    /// Requests sent and not yet received.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len() + self.parked.len()
    }

    fn check_poison(&self) -> Result<(), NetError> {
        match &self.poison {
            Some(e) => Err(NetError::Wire(e.clone())),
            None => Ok(()),
        }
    }

    fn poison_with(&mut self, e: WireError) -> NetError {
        self.poison = Some(e.clone());
        NetError::Wire(e)
    }

    /// Puts one request on the wire without waiting for its response;
    /// returns the request id to [`PersistentClient::recv`] later.
    /// Pipelining depth is the caller's choice — the server's
    /// per-connection in-flight cap is the hard bound.
    ///
    /// # Errors
    ///
    /// [`NetError::Wire`] on encode or socket failure (poisons).
    pub fn send(&mut self, request: &NetRequest) -> Result<u64, NetError> {
        self.check_poison()?;
        let request_id = self.next_id;
        self.next_id += 1;
        self.encode_scratch.clear();
        let mut scratch = std::mem::take(&mut self.encode_scratch);
        let encoded = Frame::encode_parts_into(
            FrameKind::Request,
            request_id,
            &request.encode(),
            &mut scratch,
        );
        let sent = encoded.and_then(|()| {
            self.sock
                .write_all(&scratch)
                .and_then(|()| self.sock.flush())
                .map_err(WireError::from)
        });
        self.encode_scratch = scratch;
        match sent {
            Ok(()) => {
                self.outstanding.insert(request_id, ());
                Ok(request_id)
            }
            Err(e) => Err(self.poison_with(e)),
        }
    }

    /// Receives the response for `request_id`, reading (and parking)
    /// other pipelined responses until it arrives.
    ///
    /// # Errors
    ///
    /// [`NetError::Wire`] on any stream failure — truncation or
    /// corruption mid-pipeline poisons this connection only; every
    /// already-parked response for *other* ids stays deliverable.
    /// A response for an id never sent is [`NetError::IdMismatch`]
    /// (and poisons — the stream is answering someone else's plan).
    pub fn recv(&mut self, request_id: u64) -> Result<NetResponse, NetError> {
        loop {
            if let Some(response) = self.parked.remove(&request_id) {
                return Ok(response);
            }
            self.check_poison()?;
            if !self.outstanding.contains_key(&request_id) {
                return Err(NetError::Wire(WireError::malformed(format!(
                    "request id {request_id} was never sent on this connection"
                ))));
            }
            self.pump_one()?;
        }
    }

    /// Receives whichever pipelined response arrives next (parked ones
    /// first), returning `(request_id, response)`.
    ///
    /// # Errors
    ///
    /// As [`PersistentClient::recv`]; calling with nothing in flight is
    /// a typed `Malformed` error.
    pub fn recv_any(&mut self) -> Result<(u64, NetResponse), NetError> {
        if let Some(id) = self.parked.keys().next().copied() {
            let response = self.parked.remove(&id).expect("key just observed");
            return Ok((id, response));
        }
        self.check_poison()?;
        if self.outstanding.is_empty() {
            return Err(NetError::Wire(WireError::malformed(
                "recv_any with no requests in flight",
            )));
        }
        loop {
            self.pump_one()?;
            if let Some(id) = self.parked.keys().next().copied() {
                let response = self.parked.remove(&id).expect("key just observed");
                return Ok((id, response));
            }
        }
    }

    /// Reads until at least one complete response frame lands, moving
    /// it to `parked` and clearing its outstanding entry.
    fn pump_one(&mut self) -> Result<(), NetError> {
        loop {
            // Drain any complete frame already buffered first.
            match self.decoder.next_frame() {
                Ok(Some(view)) => {
                    if view.kind != FrameKind::Response {
                        let e = WireError::malformed("expected a response frame");
                        return Err(self.poison_with(e));
                    }
                    let id = view.request_id;
                    let decoded = NetResponse::decode(view.payload);
                    if self.outstanding.remove(&id).is_none() {
                        self.poison = Some(WireError::malformed(format!(
                            "response for unknown request id {id}"
                        )));
                        return Err(NetError::IdMismatch { sent: 0, got: id });
                    }
                    match decoded {
                        Ok(response) => {
                            self.parked.insert(id, response);
                            return Ok(());
                        }
                        Err(e) => return Err(self.poison_with(e)),
                    }
                }
                Ok(None) => {}
                Err(e) => return Err(self.poison_with(e)),
            }
            match self.decoder.fill_from(&mut self.sock) {
                Ok(0) => {
                    // Peer closed with requests outstanding: a
                    // mid-pipeline disconnect, typed as truncation.
                    return Err(self.poison_with(WireError::Truncated));
                }
                Ok(_) => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Err(self.poison_with(WireError::Io {
                        kind: io::ErrorKind::TimedOut.to_string(),
                    }));
                }
                Err(e) => {
                    let wire = WireError::from(e);
                    return Err(self.poison_with(wire));
                }
            }
        }
    }

    /// One sequential request/response exchange on this connection.
    ///
    /// # Errors
    ///
    /// As [`PersistentClient::send`] / [`PersistentClient::recv`].
    pub fn call(&mut self, request: &NetRequest) -> Result<NetResponse, NetError> {
        let id = self.send(request)?;
        self.recv(id)
    }

    /// Health probe for pooled reuse: with nothing in flight, any
    /// readable byte means the stream is desynchronised and EOF means
    /// the peer closed while shelved — both unhealthy. `WouldBlock`
    /// is the healthy answer.
    fn healthy_idle(&mut self) -> bool {
        if self.poison.is_some() || self.in_flight() > 0 || self.decoder.mid_frame() {
            return false;
        }
        if self.sock.set_nonblocking(true).is_err() {
            return false;
        }
        let mut probe = [0u8; 1];
        let verdict = match self.sock.read(&mut probe) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => true,
            // EOF, unexpected bytes, or a hard error: discard.
            _ => false,
        };
        if self.sock.set_nonblocking(false).is_err() {
            return false;
        }
        verdict
    }
}

/// A checkout/checkin pool of [`PersistentClient`]s for one address.
#[derive(Debug)]
pub struct ClientPool {
    addr: ListenAddr,
    config: PoolConfig,
    idle: Mutex<Vec<PersistentClient>>,
    /// Backoff jitter; any state is a valid one, so a poisoned lock is
    /// recovered.
    jitter: Mutex<XorShift64>,
}

impl ClientPool {
    /// Builds an (initially empty) pool for `addr`.
    pub fn new(addr: ListenAddr, config: PoolConfig) -> ClientPool {
        let seed = std::collections::hash_map::RandomState::new()
            .build_hasher()
            .finish();
        ClientPool {
            addr,
            config,
            idle: Mutex::new(Vec::new()),
            jitter: Mutex::new(XorShift64::new(seed)),
        }
    }

    /// The pooled server address.
    pub fn addr(&self) -> &ListenAddr {
        &self.addr
    }

    /// Idle connections currently shelved.
    pub fn idle_count(&self) -> usize {
        self.idle.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Checks out a connection: a shelved one that passes the health
    /// probe, else a fresh connect. The guard returns it on drop —
    /// unless it is poisoned or still has responses in flight, in
    /// which case it is closed instead.
    ///
    /// # Errors
    ///
    /// [`NetError::Wire`] when a fresh connection was needed and the
    /// connect failed.
    pub fn checkout(&self) -> Result<PooledConn<'_>, NetError> {
        self.checkout_within(self.config.io_timeout)
    }

    fn checkout_within(&self, timeout: Duration) -> Result<PooledConn<'_>, NetError> {
        loop {
            let shelved = self.idle.lock().unwrap_or_else(|e| e.into_inner()).pop();
            match shelved {
                Some(mut conn) => {
                    if conn.healthy_idle() {
                        return Ok(PooledConn {
                            pool: self,
                            conn: Some(conn),
                        });
                    }
                    // Unhealthy: drop it and try the next shelf slot.
                }
                None => return self.connect(timeout),
            }
        }
    }

    /// A fresh connection, bypassing the shelf.
    fn connect(&self, timeout: Duration) -> Result<PooledConn<'_>, NetError> {
        Ok(PooledConn {
            pool: self,
            conn: Some(PersistentClient::connect(&self.addr, timeout)?),
        })
    }

    /// One request over a pooled connection, retried by the module's
    /// rules. A response whose `outcome` is a typed
    /// [`crate::msg::RemoteError`] is still `Ok` here — the wire worked;
    /// a refusal the server will never un-refuse comes back at once, and
    /// a retryable one is retried until the budget runs out, when it
    /// too comes back as data.
    ///
    /// # Errors
    ///
    /// [`NetError`] when the transport failed beyond what the retry
    /// budget (or the request's idempotency) could recover.
    pub fn call(&self, request: &NetRequest) -> Result<NetResponse, NetError> {
        let started = Instant::now();
        let max_attempts = self.config.retries.saturating_add(1);
        let mut attempts = 0u32;
        // What the last attempt produced is what the caller gets: a
        // retryable refusal as `Ok` data, a transport failure as the
        // retry-exhausted error.
        let mut last: Option<Result<NetResponse, NetError>> = None;
        while attempts < max_attempts {
            let remaining = match self.config.deadline.checked_sub(started.elapsed()) {
                Some(remaining) if !remaining.is_zero() => remaining,
                _ => break,
            };
            attempts += 1;
            let timeout = self.config.io_timeout.min(remaining);
            // A transport error poisoned (and so dropped) its connection;
            // its retry dials instead of trusting another shelved one.
            let conn = match &last {
                Some(Err(_)) => self.connect(timeout),
                _ => self.checkout_within(timeout),
            };
            let outcome = conn.and_then(|mut conn| {
                conn.set_io_timeout(timeout)?;
                conn.call(request)
            });
            let retryable = match &outcome {
                Ok(response) => matches!(&response.outcome, Err(e) if e.is_retryable()),
                Err(_) => true,
            };
            if !retryable || !request.idempotent {
                return outcome;
            }
            last = Some(outcome);
            if attempts >= max_attempts || !self.backoff(attempts, started) {
                break;
            }
        }
        match last {
            Some(Ok(refusal)) => Ok(refusal),
            Some(Err(e)) => Err(NetError::RetriesExhausted {
                attempts,
                last: Box::new(e),
            }),
            None => Err(NetError::DeadlineExceeded { attempts }),
        }
    }

    /// Sleeps the jittered exponential backoff after failed attempt
    /// `attempt` (1-based). Returns `false`, without sleeping, when the
    /// deadline leaves no room to back off and try again.
    fn backoff(&self, attempt: u32, started: Instant) -> bool {
        let exp = attempt.saturating_sub(1).min(16);
        let nominal = BACKOFF_BASE.saturating_mul(1u32 << exp).min(BACKOFF_CAP);
        let unit = self.jitter.lock().unwrap_or_else(|e| e.into_inner()).unit();
        let jittered = nominal.mul_f64(0.5 + unit);
        match self.config.deadline.checked_sub(started.elapsed()) {
            Some(remaining) if remaining > jittered => {
                std::thread::sleep(jittered);
                true
            }
            _ => false,
        }
    }

    fn checkin(&self, conn: PersistentClient) {
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        if idle.len() < self.config.max_idle {
            idle.push(conn);
        }
        // Over the cap: drop closes the socket.
    }
}

/// The checkout guard: derefs to [`PersistentClient`], checks the
/// connection back in on drop when it is still clean.
#[derive(Debug)]
pub struct PooledConn<'a> {
    pool: &'a ClientPool,
    conn: Option<PersistentClient>,
}

impl std::ops::Deref for PooledConn<'_> {
    type Target = PersistentClient;

    fn deref(&self) -> &PersistentClient {
        self.conn.as_ref().expect("present until drop")
    }
}

impl std::ops::DerefMut for PooledConn<'_> {
    fn deref_mut(&mut self) -> &mut PersistentClient {
        self.conn.as_mut().expect("present until drop")
    }
}

impl Drop for PooledConn<'_> {
    fn drop(&mut self) {
        if let Some(conn) = self.conn.take() {
            if !conn.is_poisoned() && conn.in_flight() == 0 {
                self.pool.checkin(conn);
            }
        }
    }
}
