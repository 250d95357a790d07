//! The message layer: what request and response frames carry.
//!
//! A [`NetRequest`] names work by *registry*, not by payload: the kernel
//! travels as its short name (`mmul`) plus a scale flag, and the server
//! resolves it against [`imt_kernels::Kernel::ALL`]. Arbitrary program
//! source never crosses the wire, which bounds both the protocol and the
//! blast radius of a hostile peer. Fault plans travel in the
//! [`imt_fault::plan::FaultPlan::parse`] grammar for the same reason.
//!
//! A [`NetResponse`] carries the *complete* [`Evaluation`] — every
//! counter, both per-lane vectors, exit code and stdout — so a client
//! can assert bit-identity against a local serial run end-to-end.
//! Failures travel as [`RemoteError`], a typed mirror of
//! [`imt_serve::ServeError`] that survives the wire: the client can
//! distinguish a retryable refusal (overload, quota) from a permanent
//! one without parsing strings.

use std::time::Duration;

use imt_core::eval::{EvalNeeds, EvalPath, Evaluation, FullSimReason};
use imt_core::{EncoderConfig, Protection};
use imt_fault::plan::FaultPlan;
use imt_kernels::Kernel;
use imt_serve::request::{Completed, FaultSummary, Request, Response};
use imt_serve::ServeError;

use crate::wire::{Reader, WireError, Writer};

/// One encode/eval request as it travels the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct NetRequest {
    /// The tenant the request is billed to (empty = untenanted).
    pub tenant: String,
    /// Kernel short name (`mmul`, `sor`, ... — see
    /// [`imt_kernels::Kernel::ALL`]).
    pub kernel: String,
    /// Resolve the kernel at test scale instead of paper scale.
    pub test_scale: bool,
    /// Encoder block size (0 = server default).
    pub block_size: u32,
    /// TT capacity override (0 = server default).
    pub tt_capacity: u32,
    /// BBIT capacity override (0 = server default).
    pub bbit_capacity: u32,
    /// Evaluation needs beyond data-bus transitions.
    pub needs: EvalNeeds,
    /// Relative deadline in milliseconds (0 = service default).
    pub deadline_ms: u32,
    /// Fault plan in the `AT:TARGET[,...]` grammar (empty = none).
    pub fault_plan: String,
    /// Protection level name (`none` / `parity` / `sec`).
    pub protection: String,
    /// Fault replay fetch window (0 = service default).
    pub fault_window: u32,
    /// Test hook: panic inside the worker (chaos runs only).
    pub panic_in_worker: bool,
    /// Whether the client may safely retry this request. Encode/eval is
    /// a pure function of the request, so this is normally true; a
    /// client marks a request non-idempotent when double execution
    /// would double-count (e.g. load-generator conservation audits).
    pub idempotent: bool,
    /// Encoding scheme name in the [`SchemeSpec::parse`] grammar
    /// (`tt` / `gray` / `lowweight` / `businvert`; empty = the TT/BBIT
    /// default). Travels as its name, like the kernel: scheme
    /// internals never cross the wire.
    ///
    /// [`SchemeSpec::parse`]: imt_core::scheme::SchemeSpec::parse
    pub scheme: String,
}

impl NetRequest {
    /// A plain transitions-only request for `kernel` at test or paper
    /// scale.
    pub fn new(kernel: impl Into<String>, test_scale: bool) -> NetRequest {
        NetRequest {
            tenant: String::new(),
            kernel: kernel.into(),
            test_scale,
            block_size: 0,
            tt_capacity: 0,
            bbit_capacity: 0,
            needs: EvalNeeds::transitions_only(),
            deadline_ms: 0,
            fault_plan: String::new(),
            protection: "none".to_string(),
            fault_window: 0,
            panic_in_worker: false,
            idempotent: true,
            scheme: String::new(),
        }
    }

    /// Bills the request to `tenant`.
    #[must_use]
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> NetRequest {
        self.tenant = tenant.into();
        self
    }

    /// Names the encoding scheme (empty = the TT/BBIT default).
    #[must_use]
    pub fn with_scheme(mut self, scheme: impl Into<String>) -> NetRequest {
        self.scheme = scheme.into();
        self
    }

    /// Sets the encoder block size.
    #[must_use]
    pub fn with_block_size(mut self, k: u32) -> NetRequest {
        self.block_size = k;
        self
    }

    /// Serialises into payload bytes for a request frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.str(&self.tenant);
        w.str(&self.kernel);
        w.u8(u8::from(self.test_scale));
        w.u32(self.block_size);
        w.u32(self.tt_capacity);
        w.u32(self.bbit_capacity);
        let needs = u8::from(self.needs.icache)
            | (u8::from(self.needs.timing) << 1)
            | (u8::from(self.needs.address_bus) << 2);
        w.u8(needs);
        w.u32(self.deadline_ms);
        w.str(&self.fault_plan);
        w.str(&self.protection);
        w.u32(self.fault_window);
        w.u8(u8::from(self.panic_in_worker));
        w.u8(u8::from(self.idempotent));
        w.str(&self.scheme);
        w.finish()
    }

    /// Decodes a request payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] on any structural violation; never
    /// panics, never allocates beyond the bytes present.
    pub fn decode(payload: &[u8]) -> Result<NetRequest, WireError> {
        let mut r = Reader::new(payload);
        let tenant = r.str()?;
        let kernel = r.str()?;
        let test_scale = decode_bool(&mut r, "test_scale")?;
        let block_size = r.u32()?;
        let tt_capacity = r.u32()?;
        let bbit_capacity = r.u32()?;
        let needs_bits = r.u8()?;
        if needs_bits > 0b111 {
            return Err(WireError::malformed(format!(
                "unknown needs bits {needs_bits:#04x}"
            )));
        }
        let needs = EvalNeeds {
            icache: needs_bits & 1 != 0,
            timing: needs_bits & 2 != 0,
            address_bus: needs_bits & 4 != 0,
        };
        let deadline_ms = r.u32()?;
        let fault_plan = r.str()?;
        let protection = r.str()?;
        let fault_window = r.u32()?;
        let panic_in_worker = decode_bool(&mut r, "panic_in_worker")?;
        let idempotent = decode_bool(&mut r, "idempotent")?;
        let scheme = r.str()?;
        r.expect_end()?;
        Ok(NetRequest {
            tenant,
            kernel,
            test_scale,
            block_size,
            tt_capacity,
            bbit_capacity,
            needs,
            deadline_ms,
            fault_plan,
            protection,
            fault_window,
            panic_in_worker,
            idempotent,
            scheme,
        })
    }
}

/// Resolves a wire request into a service [`Request`], or a
/// human-readable refusal. Kernels resolve against the registry —
/// arbitrary source never crosses the wire.
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

fn decode_bool(r: &mut Reader<'_>, field: &str) -> Result<bool, WireError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(WireError::malformed(format!(
            "{field} byte must be 0 or 1, got {other}"
        ))),
    }
}

/// A failed request's typed outcome, reconstructible on the client. The
/// variants mirror [`ServeError`] one-to-one, plus [`RemoteError::
/// BadRequest`] for requests the server could not even build (unknown
/// kernel name, unparseable fault plan).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RemoteError {
    /// Mirror of [`ServeError::Overloaded`]. Retryable.
    Overloaded {
        /// Jobs queued at refusal.
        depth: u64,
        /// Queue capacity.
        capacity: u64,
    },
    /// Mirror of [`ServeError::QuotaExceeded`]. Retryable.
    QuotaExceeded {
        /// The tenant at its cap.
        tenant: String,
        /// In-flight requests at refusal.
        in_flight: u64,
        /// The cap.
        limit: u64,
    },
    /// Mirror of [`ServeError::ShuttingDown`].
    ShuttingDown,
    /// Mirror of [`ServeError::DeadlineExceeded`].
    DeadlineExceeded,
    /// Mirror of [`ServeError::Cancelled`].
    Cancelled,
    /// Mirror of [`ServeError::Panicked`].
    Panicked {
        /// The panic payload text.
        detail: String,
    },
    /// Mirror of [`ServeError::Poisoned`] — the fail-closed path.
    Poisoned {
        /// Wrong words the faulty decode delivered (server-side; the
        /// response carries no evaluation).
        wrong_words: u64,
    },
    /// Mirror of [`ServeError::ProfileMismatch`].
    ProfileMismatch {
        /// The kernel spec name.
        kernel: String,
    },
    /// Mirror of [`ServeError::ProfileFailed`].
    ProfileFailed {
        /// The kernel spec name.
        kernel: String,
        /// Simulator error text.
        detail: String,
    },
    /// Mirror of [`ServeError::Core`] (rendered — `CoreError` does not
    /// cross the wire structurally).
    Core {
        /// Rendered core error.
        detail: String,
    },
    /// Mirror of [`ServeError::Fault`].
    Fault {
        /// Fault layer error text.
        detail: String,
    },
    /// The server could not build a job from the request (unknown
    /// kernel, bad protection name, unparseable fault plan). Never
    /// retryable — the request itself is wrong.
    BadRequest {
        /// What was wrong.
        detail: String,
    },
}

impl RemoteError {
    /// Whether a retry of the same request may succeed. Overload and
    /// quota refusals drain as the server works; everything else is
    /// deterministic.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            RemoteError::Overloaded { .. } | RemoteError::QuotaExceeded { .. }
        )
    }

    /// Maps a server-side refusal onto its wire mirror.
    pub fn from_serve(e: &ServeError) -> RemoteError {
        match e {
            ServeError::Overloaded { depth, capacity } => RemoteError::Overloaded {
                depth: *depth as u64,
                capacity: *capacity as u64,
            },
            ServeError::QuotaExceeded {
                tenant,
                in_flight,
                limit,
            } => RemoteError::QuotaExceeded {
                tenant: tenant.clone(),
                in_flight: *in_flight as u64,
                limit: *limit as u64,
            },
            ServeError::ShuttingDown => RemoteError::ShuttingDown,
            ServeError::DeadlineExceeded => RemoteError::DeadlineExceeded,
            ServeError::Cancelled => RemoteError::Cancelled,
            ServeError::Panicked { detail } => RemoteError::Panicked {
                detail: detail.clone(),
            },
            ServeError::Poisoned { wrong_words } => RemoteError::Poisoned {
                wrong_words: *wrong_words,
            },
            ServeError::ProfileMismatch { kernel } => RemoteError::ProfileMismatch {
                kernel: kernel.clone(),
            },
            ServeError::ProfileFailed { kernel, detail } => RemoteError::ProfileFailed {
                kernel: kernel.clone(),
                detail: detail.clone(),
            },
            ServeError::Core(e) => RemoteError::Core {
                detail: e.to_string(),
            },
            ServeError::Fault { detail } => RemoteError::Fault {
                detail: detail.clone(),
            },
            other => RemoteError::Core {
                detail: other.to_string(),
            },
        }
    }

    fn code(&self) -> u8 {
        match self {
            RemoteError::Overloaded { .. } => 1,
            RemoteError::QuotaExceeded { .. } => 2,
            RemoteError::ShuttingDown => 3,
            RemoteError::DeadlineExceeded => 4,
            RemoteError::Cancelled => 5,
            RemoteError::Panicked { .. } => 6,
            RemoteError::Poisoned { .. } => 7,
            RemoteError::ProfileMismatch { .. } => 8,
            RemoteError::ProfileFailed { .. } => 9,
            RemoteError::Core { .. } => 10,
            RemoteError::Fault { .. } => 11,
            RemoteError::BadRequest { .. } => 12,
        }
    }

    fn encode(&self, w: &mut Writer) {
        w.u8(self.code());
        match self {
            RemoteError::Overloaded { depth, capacity } => {
                w.u64(*depth);
                w.u64(*capacity);
            }
            RemoteError::QuotaExceeded {
                tenant,
                in_flight,
                limit,
            } => {
                w.str(tenant);
                w.u64(*in_flight);
                w.u64(*limit);
            }
            RemoteError::ShuttingDown | RemoteError::DeadlineExceeded | RemoteError::Cancelled => {}
            RemoteError::Panicked { detail }
            | RemoteError::Core { detail }
            | RemoteError::Fault { detail }
            | RemoteError::BadRequest { detail } => w.str(detail),
            RemoteError::Poisoned { wrong_words } => w.u64(*wrong_words),
            RemoteError::ProfileMismatch { kernel } => w.str(kernel),
            RemoteError::ProfileFailed { kernel, detail } => {
                w.str(kernel);
                w.str(detail);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<RemoteError, WireError> {
        Ok(match r.u8()? {
            1 => RemoteError::Overloaded {
                depth: r.u64()?,
                capacity: r.u64()?,
            },
            2 => RemoteError::QuotaExceeded {
                tenant: r.str()?,
                in_flight: r.u64()?,
                limit: r.u64()?,
            },
            3 => RemoteError::ShuttingDown,
            4 => RemoteError::DeadlineExceeded,
            5 => RemoteError::Cancelled,
            6 => RemoteError::Panicked { detail: r.str()? },
            7 => RemoteError::Poisoned {
                wrong_words: r.u64()?,
            },
            8 => RemoteError::ProfileMismatch { kernel: r.str()? },
            9 => RemoteError::ProfileFailed {
                kernel: r.str()?,
                detail: r.str()?,
            },
            10 => RemoteError::Core { detail: r.str()? },
            11 => RemoteError::Fault { detail: r.str()? },
            12 => RemoteError::BadRequest { detail: r.str()? },
            other => {
                return Err(WireError::malformed(format!(
                    "unknown remote error code {other}"
                )))
            }
        })
    }
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Overloaded { depth, capacity } => {
                write!(
                    f,
                    "server overloaded ({depth}/{capacity} queued); retry later"
                )
            }
            RemoteError::QuotaExceeded {
                tenant,
                in_flight,
                limit,
            } => write!(
                f,
                "tenant `{tenant}` at its in-flight quota ({in_flight}/{limit}); retry later"
            ),
            RemoteError::ShuttingDown => write!(f, "server is shutting down"),
            RemoteError::DeadlineExceeded => write!(f, "deadline passed while queued"),
            RemoteError::Cancelled => write!(f, "request cancelled"),
            RemoteError::Panicked { detail } => write!(f, "job panicked on the server: {detail}"),
            RemoteError::Poisoned { wrong_words } => write!(
                f,
                "fault plan produced silent corruption ({wrong_words} wrong words); failed closed"
            ),
            RemoteError::ProfileMismatch { kernel } => {
                write!(f, "{kernel}: profile diverged from the golden model")
            }
            RemoteError::ProfileFailed { kernel, detail } => {
                write!(f, "{kernel}: profiling failed: {detail}")
            }
            RemoteError::Core { detail } => write!(f, "encode/evaluate failed: {detail}"),
            RemoteError::Fault { detail } => write!(f, "fault replay failed: {detail}"),
            RemoteError::BadRequest { detail } => write!(f, "bad request: {detail}"),
        }
    }
}

impl std::error::Error for RemoteError {}

/// Fault-replay summary as it travels the wire (mirror of
/// [`imt_serve::request::FaultSummary`]).
#[derive(Debug, Clone, PartialEq)]
pub struct NetFaultSummary {
    /// Upsets injected.
    pub injected: u64,
    /// Upsets detected by the check codes.
    pub detected: u64,
    /// Upsets corrected in place.
    pub corrected: u64,
    /// Fetches served from the degraded path.
    pub degraded_fetches: u64,
    /// Transition reduction retained under fault, percent.
    pub retained_reduction_percent: f64,
}

impl From<&FaultSummary> for NetFaultSummary {
    fn from(s: &FaultSummary) -> NetFaultSummary {
        NetFaultSummary {
            injected: s.injected,
            detected: s.detected,
            corrected: s.corrected,
            degraded_fetches: s.degraded_fetches,
            retained_reduction_percent: s.retained_reduction_percent,
        }
    }
}

/// A successful request's payload: the complete evaluation plus how it
/// was served.
#[derive(Debug, Clone, PartialEq)]
pub struct NetCompleted {
    /// The evaluation, carried in full for end-to-end bit-identity
    /// checks.
    pub evaluation: Evaluation,
    /// Whether the replay path served it (`false` = full simulation).
    pub replay_path: bool,
    /// Blocks the schedule encoded.
    pub encoded_blocks: u64,
    /// Present when the request carried a fault plan.
    pub fault: Option<NetFaultSummary>,
}

/// One response as it travels the wire — the mirror of
/// [`imt_serve::request::Response`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetResponse {
    /// The server-assigned job id.
    pub id: u64,
    /// The kernel spec name served.
    pub kernel: String,
    /// The effective encoder block size.
    pub block_size: u64,
    /// Completed evaluation or typed refusal.
    pub outcome: Result<NetCompleted, RemoteError>,
    /// Nanoseconds queued on the server.
    pub queue_ns: u64,
    /// Nanoseconds executing on the server.
    pub service_ns: u64,
    /// Batch size the job was served in.
    pub batch_size: u64,
    /// Worker index that served it.
    pub worker: u64,
    /// Completed after its deadline.
    pub missed_deadline: bool,
}

impl NetResponse {
    /// Builds the wire mirror of a service response.
    pub fn from_response(resp: &Response) -> NetResponse {
        NetResponse {
            id: resp.id,
            kernel: resp.kernel.clone(),
            block_size: resp.block_size as u64,
            outcome: match &resp.outcome {
                Ok(done) => Ok(NetCompleted::from_completed(done)),
                Err(e) => Err(RemoteError::from_serve(e)),
            },
            queue_ns: resp.queue_ns,
            service_ns: resp.service_ns,
            batch_size: resp.batch_size as u64,
            worker: resp.worker as u64,
            missed_deadline: resp.missed_deadline,
        }
    }

    /// A refusal response for a request that never became a job.
    pub fn refusal(id: u64, kernel: &str, error: RemoteError) -> NetResponse {
        NetResponse {
            id,
            kernel: kernel.to_string(),
            block_size: 0,
            outcome: Err(error),
            queue_ns: 0,
            service_ns: 0,
            batch_size: 0,
            worker: 0,
            missed_deadline: false,
        }
    }

    /// Serialises into payload bytes for a response frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.id);
        w.str(&self.kernel);
        w.u64(self.block_size);
        w.u64(self.queue_ns);
        w.u64(self.service_ns);
        w.u64(self.batch_size);
        w.u64(self.worker);
        w.u8(u8::from(self.missed_deadline));
        match &self.outcome {
            Ok(done) => {
                w.u8(1);
                encode_completed(&mut w, done);
            }
            Err(e) => {
                w.u8(0);
                e.encode(&mut w);
            }
        }
        w.finish()
    }

    /// Decodes a response payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] on any structural violation.
    pub fn decode(payload: &[u8]) -> Result<NetResponse, WireError> {
        let mut r = Reader::new(payload);
        let id = r.u64()?;
        let kernel = r.str()?;
        let block_size = r.u64()?;
        let queue_ns = r.u64()?;
        let service_ns = r.u64()?;
        let batch_size = r.u64()?;
        let worker = r.u64()?;
        let missed_deadline = decode_bool(&mut r, "missed_deadline")?;
        let outcome = match r.u8()? {
            1 => Ok(decode_completed(&mut r)?),
            0 => Err(RemoteError::decode(&mut r)?),
            other => {
                return Err(WireError::malformed(format!(
                    "outcome tag must be 0 or 1, got {other}"
                )))
            }
        };
        r.expect_end()?;
        Ok(NetResponse {
            id,
            kernel,
            block_size,
            outcome,
            queue_ns,
            service_ns,
            batch_size,
            worker,
            missed_deadline,
        })
    }
}

impl NetCompleted {
    /// Builds the wire mirror of a completed job.
    pub fn from_completed(done: &Completed) -> NetCompleted {
        NetCompleted {
            evaluation: done.evaluation.clone(),
            replay_path: done.path == EvalPath::Replay,
            encoded_blocks: done.encoded_blocks as u64,
            fault: done.fault.as_ref().map(NetFaultSummary::from),
        }
    }

    /// Reconstructs the service-side completed payload (the full-sim
    /// reason collapses to [`FullSimReason::NoProfile`]; the evaluation
    /// itself — the part correctness asserts on — is carried verbatim).
    pub fn to_completed(&self) -> Completed {
        Completed {
            evaluation: self.evaluation.clone(),
            path: if self.replay_path {
                EvalPath::Replay
            } else {
                EvalPath::FullSim(FullSimReason::NoProfile)
            },
            encoded_blocks: self.encoded_blocks as usize,
            fault: self.fault.as_ref().map(|f| FaultSummary {
                injected: f.injected,
                detected: f.detected,
                corrected: f.corrected,
                degraded_fetches: f.degraded_fetches,
                retained_reduction_percent: f.retained_reduction_percent,
            }),
        }
    }
}

fn encode_completed(w: &mut Writer, done: &NetCompleted) {
    let e = &done.evaluation;
    w.u64(e.fetches);
    w.u64(e.baseline_transitions);
    w.u64(e.encoded_transitions);
    w.u64_slice(&e.per_lane_baseline);
    w.u64_slice(&e.per_lane_encoded);
    w.u64(e.decode_mismatches);
    w.u64(e.decoded_fetches);
    w.u64(e.passthrough_fetches);
    w.i32(e.exit_code);
    w.str(&e.stdout);
    w.u8(u8::from(done.replay_path));
    w.u64(done.encoded_blocks);
    match &done.fault {
        Some(f) => {
            w.u8(1);
            w.u64(f.injected);
            w.u64(f.detected);
            w.u64(f.corrected);
            w.u64(f.degraded_fetches);
            w.f64(f.retained_reduction_percent);
        }
        None => w.u8(0),
    }
}

fn decode_completed(r: &mut Reader<'_>) -> Result<NetCompleted, WireError> {
    let fetches = r.u64()?;
    let baseline_transitions = r.u64()?;
    let encoded_transitions = r.u64()?;
    let per_lane_baseline = r.u64_vec()?;
    let per_lane_encoded = r.u64_vec()?;
    let decode_mismatches = r.u64()?;
    let decoded_fetches = r.u64()?;
    let passthrough_fetches = r.u64()?;
    let exit_code = r.i32()?;
    let stdout = r.str()?;
    let replay_path = decode_bool(r, "replay_path")?;
    let encoded_blocks = r.u64()?;
    let fault = match r.u8()? {
        1 => Some(NetFaultSummary {
            injected: r.u64()?,
            detected: r.u64()?,
            corrected: r.u64()?,
            degraded_fetches: r.u64()?,
            retained_reduction_percent: r.f64()?,
        }),
        0 => None,
        other => {
            return Err(WireError::malformed(format!(
                "fault tag must be 0 or 1, got {other}"
            )))
        }
    };
    Ok(NetCompleted {
        evaluation: Evaluation {
            fetches,
            baseline_transitions,
            encoded_transitions,
            per_lane_baseline,
            per_lane_encoded,
            decode_mismatches,
            decoded_fetches,
            passthrough_fetches,
            exit_code,
            stdout,
        },
        replay_path,
        encoded_blocks,
        fault,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> NetRequest {
        NetRequest {
            tenant: "acme".into(),
            kernel: "mmul".into(),
            test_scale: true,
            block_size: 6,
            tt_capacity: 32,
            bbit_capacity: 16,
            needs: EvalNeeds {
                icache: true,
                timing: false,
                address_bus: true,
            },
            deadline_ms: 2500,
            fault_plan: "1200:tt:0:5,9000:bus:14".into(),
            protection: "sec".into(),
            fault_window: 4096,
            panic_in_worker: false,
            idempotent: true,
            scheme: "gray".into(),
        }
    }

    fn completed() -> NetCompleted {
        NetCompleted {
            evaluation: Evaluation {
                fetches: 123_456,
                baseline_transitions: 999_999,
                encoded_transitions: 555_555,
                per_lane_baseline: (0..32).collect(),
                per_lane_encoded: (100..132).collect(),
                decode_mismatches: 0,
                decoded_fetches: 123_000,
                passthrough_fetches: 456,
                exit_code: 0,
                stdout: "sum=42\n".into(),
            },
            replay_path: true,
            encoded_blocks: 77,
            fault: Some(NetFaultSummary {
                injected: 3,
                detected: 3,
                corrected: 1,
                degraded_fetches: 20,
                retained_reduction_percent: 31.5,
            }),
        }
    }

    #[test]
    fn request_round_trips() {
        let req = request();
        assert_eq!(NetRequest::decode(&req.encode()).expect("decodes"), req);
        let plain = NetRequest::new("tri", false);
        assert_eq!(NetRequest::decode(&plain.encode()).expect("decodes"), plain);
    }

    #[test]
    fn response_round_trips_success_and_every_error_variant() {
        let ok = NetResponse {
            id: 9,
            kernel: "mmul-8".into(),
            block_size: 5,
            outcome: Ok(completed()),
            queue_ns: 1_000,
            service_ns: 2_000,
            batch_size: 4,
            worker: 2,
            missed_deadline: false,
        };
        assert_eq!(NetResponse::decode(&ok.encode()).expect("decodes"), ok);

        let errors = [
            RemoteError::Overloaded {
                depth: 64,
                capacity: 64,
            },
            RemoteError::QuotaExceeded {
                tenant: "acme".into(),
                in_flight: 8,
                limit: 8,
            },
            RemoteError::ShuttingDown,
            RemoteError::DeadlineExceeded,
            RemoteError::Cancelled,
            RemoteError::Panicked {
                detail: "boom".into(),
            },
            RemoteError::Poisoned { wrong_words: 12 },
            RemoteError::ProfileMismatch {
                kernel: "fft-4".into(),
            },
            RemoteError::ProfileFailed {
                kernel: "lu-10".into(),
                detail: "step budget".into(),
            },
            RemoteError::Core {
                detail: "bad block size".into(),
            },
            RemoteError::Fault {
                detail: "empty surface".into(),
            },
            RemoteError::BadRequest {
                detail: "unknown kernel `quux`".into(),
            },
        ];
        for error in errors {
            let resp = NetResponse::refusal(3, "mmul", error);
            assert_eq!(
                NetResponse::decode(&resp.encode()).expect("decodes"),
                resp,
                "variant failed to round-trip"
            );
        }
    }

    #[test]
    fn truncated_payloads_are_typed_errors() {
        let bytes = request().encode();
        for keep in 0..bytes.len() {
            assert!(
                NetRequest::decode(&bytes[..keep]).is_err(),
                "prefix of {keep} bytes decoded"
            );
        }
        let resp = NetResponse {
            id: 1,
            kernel: "tri-12".into(),
            block_size: 5,
            outcome: Ok(completed()),
            queue_ns: 0,
            service_ns: 0,
            batch_size: 1,
            worker: 0,
            missed_deadline: false,
        };
        let bytes = resp.encode();
        for keep in 0..bytes.len() {
            assert!(
                NetResponse::decode(&bytes[..keep]).is_err(),
                "prefix of {keep} bytes decoded"
            );
        }
    }

    #[test]
    fn retryability_is_limited_to_load_refusals() {
        assert!(RemoteError::Overloaded {
            depth: 1,
            capacity: 1
        }
        .is_retryable());
        assert!(RemoteError::QuotaExceeded {
            tenant: "t".into(),
            in_flight: 1,
            limit: 1
        }
        .is_retryable());
        assert!(!RemoteError::ShuttingDown.is_retryable());
        assert!(!RemoteError::Poisoned { wrong_words: 1 }.is_retryable());
        assert!(!RemoteError::BadRequest { detail: "x".into() }.is_retryable());
    }

    #[test]
    fn serve_error_maps_onto_wire_mirror() {
        let e = ServeError::QuotaExceeded {
            tenant: "acme".into(),
            in_flight: 4,
            limit: 4,
        };
        assert_eq!(
            RemoteError::from_serve(&e),
            RemoteError::QuotaExceeded {
                tenant: "acme".into(),
                in_flight: 4,
                limit: 4,
            }
        );
        let e = ServeError::Overloaded {
            depth: 9,
            capacity: 8,
        };
        assert!(RemoteError::from_serve(&e).is_retryable());
    }

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
                std::sync::Arc::ptr_eq(&first.spec, &second.spec),
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
