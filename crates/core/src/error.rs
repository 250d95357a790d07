use std::error::Error;
use std::fmt;

use imt_bitcode::CodecError;
use imt_cfg::CfgError;
use imt_sim::SimError;

/// Errors raised by the encoding pipeline and its evaluation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A block size outside the supported range was configured.
    BlockSize {
        /// The rejected size.
        requested: usize,
    },
    /// The profile slice does not cover the program text.
    ProfileLength {
        /// Instructions in the text segment.
        text_len: usize,
        /// Entries in the supplied profile.
        profile_len: usize,
    },
    /// Control-flow recovery failed.
    Cfg(CfgError),
    /// Bit-line encoding failed.
    Codec(CodecError),
    /// Simulation failed during evaluation.
    Sim(SimError),
    /// A packed table image is malformed.
    TableImage {
        /// What was wrong.
        detail: &'static str,
    },
    /// The hardware model decoded a word that differs from the original.
    ///
    /// This is an internal-consistency failure: evaluation surfaces it so a
    /// buggy schedule can never silently report savings.
    DecodeMismatch {
        /// Fetch address of the first mismatch.
        pc: u32,
        /// What the fetch decoder produced.
        decoded: u32,
        /// What the original program holds.
        expected: u32,
    },
    /// The fetch-edge profile records a non-sequential entry into the
    /// middle of an encoded block, so closed-form replay cannot reproduce
    /// the decoder's history state there. Structurally impossible for
    /// schedules built from real basic blocks; surfaced so callers can
    /// fall back to full simulation instead of reporting wrong numbers.
    ReplayInfeasible {
        /// Address of the mid-block entry point.
        pc: u32,
    },
    /// A staged input — a prepared codec or a replay basis — was built
    /// for another program or another codec setting than it is used with.
    StageMismatch {
        /// What did not match.
        detail: &'static str,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::BlockSize { requested } => {
                write!(f, "block size {requested} outside the supported range")
            }
            CoreError::ProfileLength {
                text_len,
                profile_len,
            } => write!(
                f,
                "profile has {profile_len} entries but the text segment has {text_len} instructions"
            ),
            CoreError::Cfg(e) => write!(f, "control-flow recovery failed: {e}"),
            CoreError::Codec(e) => write!(f, "bit-line encoding failed: {e}"),
            CoreError::Sim(e) => write!(f, "simulation failed: {e}"),
            CoreError::TableImage { detail } => write!(f, "malformed table image: {detail}"),
            CoreError::DecodeMismatch {
                pc,
                decoded,
                expected,
            } => write!(
                f,
                "fetch decoder produced {decoded:08x} at {pc:08x}, expected {expected:08x}"
            ),
            CoreError::ReplayInfeasible { pc } => write!(
                f,
                "fetch profile enters an encoded block mid-stream at {pc:08x}; replay evaluation is infeasible"
            ),
            CoreError::StageMismatch { detail } => write!(f, "staged input mismatch: {detail}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Cfg(e) => Some(e),
            CoreError::Codec(e) => Some(e),
            CoreError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CfgError> for CoreError {
    fn from(e: CfgError) -> Self {
        CoreError::Cfg(e)
    }
}

impl From<CodecError> for CoreError {
    fn from(e: CodecError) -> Self {
        CoreError::Codec(e)
    }
}

impl From<SimError> for CoreError {
    fn from(e: SimError) -> Self {
        CoreError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
        let e = CoreError::from(CfgError::EmptyText);
        assert!(e.to_string().contains("control-flow"));
        assert!(e.source().is_some());
        let e = CoreError::DecodeMismatch {
            pc: 0x400000,
            decoded: 1,
            expected: 2,
        };
        assert!(e.to_string().contains("00400000"));
    }
}
