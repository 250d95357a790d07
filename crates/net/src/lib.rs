//! # imt-net — the wire transport for the imt-serve job service
//!
//! `imt-serve` batches and backpressures encode/eval jobs *in process*;
//! this crate puts that service on a socket. The design center is the
//! paper's fleet scenario taken seriously: many applications submit
//! kernels for TT/BBIT reprogramming against a shared encode service,
//! over links that fail in all the ways links fail — truncated frames,
//! corrupt bytes, stalled writers, mid-request disconnects.
//!
//! The layering, bottom up:
//!
//! * [`wire`] — a versioned, length-prefixed, CRC-checked frame
//!   envelope. Decoding follows the `IMTEPROF` discipline from
//!   `imt_sim::edge`: every declared length is bounded (by
//!   [`wire::MAX_FRAME_BYTES`] and by the bytes actually present)
//!   *before* any allocation, and every corrupt input maps to a typed
//!   [`wire::WireError`] — never a panic.
//! * [`msg`] — the request/response bodies. Kernels travel by registry
//!   name + scale (never as source), fault plans in their CLI grammar;
//!   responses carry the complete [`imt_core::eval::Evaluation`] so a
//!   client can assert bit-identity end-to-end, and failures travel as
//!   typed [`msg::RemoteError`]s that survive the wire.
//! * [`reactor`] — the server: epoll event loops feeding an
//!   [`imt_serve::service::Service`], zero threads per connection,
//!   typed backpressure, a mid-frame sweep as the slow-loris defense,
//!   and protocol errors answered or dropped without ever taking the
//!   process down. Each request's trace root opens as its frame is
//!   read, so one `IMT_OBS=trace` timeline covers
//!   read → decode → queue → warm → encode → respond → write.
//! * [`pool`] — the client: persistent, pipelined connections and a
//!   checkout pool whose `call` carries a per-call deadline and retries
//!   only idempotent requests, after transport errors (on a fresh
//!   connection) and overload/quota refusals, with jittered
//!   exponential backoff.
//! * [`chaos`] — deterministic frame corruption used by the transport
//!   fault harness (`exp_net`) and the protocol tests.

#![warn(clippy::unwrap_used)]

pub mod chaos;
pub mod msg;
pub mod pool;
pub mod reactor;
pub mod wire;

use std::fmt;
use std::path::PathBuf;

/// Where a server listens or a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenAddr {
    /// A TCP host:port (`127.0.0.1:7070`; port 0 binds ephemeral).
    Tcp(String),
    /// A Unix domain socket path.
    Unix(PathBuf),
}

impl ListenAddr {
    /// Parses `unix:PATH` or `HOST:PORT`.
    ///
    /// # Errors
    ///
    /// A human-readable message when the form is neither.
    pub fn parse(s: &str) -> Result<ListenAddr, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix: address is missing its path".to_string());
            }
            return Ok(ListenAddr::Unix(PathBuf::from(path)));
        }
        match s.rsplit_once(':') {
            Some((host, port)) if !host.is_empty() && port.parse::<u16>().is_ok() => {
                Ok(ListenAddr::Tcp(s.to_string()))
            }
            _ => Err(format!(
                "`{s}` is neither `unix:PATH` nor `HOST:PORT` (e.g. unix:/tmp/imt.sock, 127.0.0.1:7070)"
            )),
        }
    }
}

impl fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ListenAddr::Tcp(hostport) => write!(f, "{hostport}"),
            ListenAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Everything a client call can fail with, transport and remote alike.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NetError {
    /// The connection or frame codec failed (typed).
    Wire(wire::WireError),
    /// The peer answered a different request id than was asked.
    IdMismatch {
        /// The id sent.
        sent: u64,
        /// The id received.
        got: u64,
    },
    /// The per-request deadline passed before a successful exchange.
    DeadlineExceeded {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// Every allowed attempt failed; the last failure is attached.
    RetriesExhausted {
        /// Attempts made.
        attempts: u32,
        /// The final attempt's failure.
        last: Box<NetError>,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Wire(e) => write!(f, "{e}"),
            NetError::IdMismatch { sent, got } => {
                write!(f, "response id {got} does not match request id {sent}")
            }
            NetError::DeadlineExceeded { attempts } => {
                write!(f, "client deadline passed after {attempts} attempt(s)")
            }
            NetError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempt(s): {last}")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<wire::WireError> for NetError {
    fn from(e: wire::WireError) -> NetError {
        NetError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_addr_parses_both_forms() {
        assert_eq!(
            ListenAddr::parse("unix:/tmp/imt.sock"),
            Ok(ListenAddr::Unix(PathBuf::from("/tmp/imt.sock")))
        );
        assert_eq!(
            ListenAddr::parse("127.0.0.1:7070"),
            Ok(ListenAddr::Tcp("127.0.0.1:7070".to_string()))
        );
        assert!(ListenAddr::parse("unix:").is_err());
        assert!(ListenAddr::parse("no-port").is_err());
        assert!(ListenAddr::parse("host:notaport").is_err());
    }

    #[test]
    fn listen_addr_displays_round_trippable() {
        for addr in ["unix:/tmp/a.sock", "127.0.0.1:9"] {
            let parsed = ListenAddr::parse(addr).expect("parses");
            assert_eq!(ListenAddr::parse(&parsed.to_string()), Ok(parsed));
        }
    }

    #[test]
    fn net_errors_render_usefully() {
        let cases: Vec<NetError> = vec![
            NetError::Wire(wire::WireError::BadMagic),
            NetError::IdMismatch { sent: 1, got: 2 },
            NetError::DeadlineExceeded { attempts: 3 },
            NetError::RetriesExhausted {
                attempts: 4,
                last: Box::new(NetError::Wire(wire::WireError::Truncated)),
            },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }
}
