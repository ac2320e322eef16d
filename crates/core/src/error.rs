//! Runtime error type.

use std::fmt;

use gpsim::{FaultStage, SimError};

use crate::report::ExecModel;

/// Errors from the partitioning/pipelining runtime.
///
/// Marked `#[non_exhaustive]`: the fault-tolerance layer grows structured
/// variants over time, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RtError {
    /// The region specification is inconsistent.
    Spec(String),
    /// The memory limit cannot be met even with the smallest schedule.
    MemLimitInfeasible {
        /// Requested ceiling in bytes.
        limit: u64,
        /// Smallest achievable footprint in bytes.
        needed: u64,
    },
    /// An underlying device/simulator failure.
    Sim(SimError),
    /// A device command failed inside a specific chunk and the retry
    /// policy classified it as fatal (a genuine simulator error rather
    /// than an injected fault).
    Device {
        /// Execution model that was running.
        model: ExecModel,
        /// Chunk index whose command failed.
        chunk: usize,
        /// Pipeline stage of the failing command.
        stage: FaultStage,
        /// The underlying device error.
        source: SimError,
    },
    /// A chunk kept failing until its retry budget ran out (and
    /// degradation was disabled or also failed).
    RetriesExhausted {
        /// Execution model that gave up.
        model: ExecModel,
        /// Chunk index that exhausted its budget.
        chunk: usize,
        /// Stage of the last failure.
        stage: FaultStage,
        /// Retry attempts consumed.
        attempts: u32,
        /// The last underlying error.
        source: SimError,
    },
    /// A degradation step itself failed; reports the rung that was being
    /// taken when the run died.
    Degraded {
        /// Model that was abandoned.
        from: ExecModel,
        /// Fallback model that then failed too.
        to: ExecModel,
        /// Why the ladder was descended.
        reason: String,
    },
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::Spec(s) => write!(f, "invalid region spec: {s}"),
            RtError::MemLimitInfeasible { limit, needed } => write!(
                f,
                "pipeline_mem_limit({limit} B) infeasible: minimum footprint is {needed} B"
            ),
            RtError::Sim(e) => write!(f, "device error: {e}"),
            RtError::Device {
                model,
                chunk,
                stage,
                source,
            } => write!(
                f,
                "device error in {model} chunk {chunk} ({stage} stage): {source}"
            ),
            RtError::RetriesExhausted {
                model,
                chunk,
                stage,
                attempts,
                source,
            } => write!(
                f,
                "{model} chunk {chunk} failed {attempts} retries ({stage} stage): {source}"
            ),
            RtError::Degraded { from, to, reason } => {
                write!(f, "degradation {from} -> {to} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for RtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RtError::Sim(e) => Some(e),
            RtError::Device { source, .. } | RtError::RetriesExhausted { source, .. } => {
                Some(source)
            }
            _ => None,
        }
    }
}

impl From<SimError> for RtError {
    fn from(e: SimError) -> Self {
        RtError::Sim(e)
    }
}

/// Result alias for runtime operations.
pub type RtResult<T> = Result<T, RtError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e: RtError = SimError::Deadlock("x".into()).into();
        assert!(e.to_string().contains("device error"));
        let e = RtError::MemLimitInfeasible {
            limit: 10,
            needed: 20,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("20"));
    }

    #[test]
    fn structured_variants_name_their_context() {
        let source = SimError::Injected {
            stage: FaultStage::H2d,
            occurrence: 7,
        };
        let e = RtError::Device {
            model: ExecModel::PipelinedBuffer,
            chunk: 3,
            stage: FaultStage::H2d,
            source: source.clone(),
        };
        let s = e.to_string();
        assert!(s.contains("chunk 3") && s.contains("h2d"), "{s}");
        assert!(std::error::Error::source(&e).is_some());

        let e = RtError::RetriesExhausted {
            model: ExecModel::Pipelined,
            chunk: 1,
            stage: FaultStage::Kernel,
            attempts: 4,
            source,
        };
        let s = e.to_string();
        assert!(s.contains("failed 4 retries") && s.contains("kernel"), "{s}");

        let e = RtError::Degraded {
            from: ExecModel::PipelinedBuffer,
            to: ExecModel::Pipelined,
            reason: "oom".into(),
        };
        assert!(e.to_string().contains("Pipelined-buffer"));
    }
}
