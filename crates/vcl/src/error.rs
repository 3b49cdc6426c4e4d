//! Error type for the virtual OpenCL runtime.

use std::error::Error;
use std::fmt;

use crate::DeviceKind;

/// Errors returned by the virtual OpenCL runtime and the runtimes layered on
/// top of it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClError {
    /// A buffer handle does not exist in the target context.
    InvalidBuffer(u64),
    /// A kernel name was not found in the program.
    UnknownKernel(String),
    /// The argument list does not match the kernel's declared signature.
    ArgMismatch {
        /// Kernel whose signature was violated.
        kernel: String,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// The NDRange is malformed (zero sizes, or global not divisible by
    /// local as OpenCL 1.x requires).
    InvalidNdRange(String),
    /// A buffer was passed both as an input and as an output of the same
    /// launch (aliasing is unsupported, as in the paper's restricted API).
    AliasedBuffer(u64),
    /// A host-side read or write did not match the buffer length.
    SizeMismatch {
        /// Length the buffer actually has (in elements).
        expected: usize,
        /// Length supplied by the caller (in elements).
        got: usize,
    },
    /// The post-kernel protocol-trace linter found an invariant violation
    /// (only raised when `FluidiclConfig::validate_protocol` is enabled).
    ProtocolViolation {
        /// Kernel whose execution trace violated the protocol.
        kernel: String,
        /// First violated invariant, plus the total violation count.
        detail: String,
    },
    /// A device died and no surviving device could complete the work.
    DeviceLost {
        /// The device that was lost (for a double loss, the one whose
        /// failure made the run unrecoverable).
        device: DeviceKind,
        /// What the runtime was doing when the loss became fatal.
        detail: String,
    },
    /// An operation missed its watchdog deadline and could not be retried
    /// within the configured recovery policy.
    Timeout {
        /// The operation that timed out (e.g. `h2d transfer`).
        op: String,
        /// What exceeded the deadline, and any retry history.
        detail: String,
    },
    /// The runtime configuration combines options that cannot run
    /// together (e.g. graph scheduling under a fault plan).
    InvalidConfig(String),
}

impl fmt::Display for ClError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClError::InvalidBuffer(id) => write!(f, "invalid buffer handle {id}"),
            ClError::UnknownKernel(name) => write!(f, "unknown kernel `{name}`"),
            ClError::ArgMismatch { kernel, detail } => {
                write!(f, "argument mismatch for kernel `{kernel}`: {detail}")
            }
            ClError::InvalidNdRange(detail) => write!(f, "invalid ndrange: {detail}"),
            ClError::AliasedBuffer(id) => {
                write!(f, "buffer {id} passed as both input and output")
            }
            ClError::SizeMismatch { expected, got } => {
                write!(
                    f,
                    "size mismatch: buffer has {expected} elements, got {got}"
                )
            }
            ClError::ProtocolViolation { kernel, detail } => {
                write!(f, "protocol violation in kernel `{kernel}`: {detail}")
            }
            ClError::DeviceLost { device, detail } => {
                write!(f, "device lost ({}): {detail}", device.name())
            }
            ClError::Timeout { op, detail } => write!(f, "timeout in {op}: {detail}"),
            ClError::InvalidConfig(detail) => write!(f, "invalid configuration: {detail}"),
        }
    }
}

impl Error for ClError {}

/// Convenience result alias for runtime operations.
pub type ClResult<T> = Result<T, ClError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<ClError> = vec![
            ClError::InvalidBuffer(3),
            ClError::UnknownKernel("foo".into()),
            ClError::ArgMismatch {
                kernel: "k".into(),
                detail: "expected buffer".into(),
            },
            ClError::InvalidNdRange("zero local size".into()),
            ClError::AliasedBuffer(7),
            ClError::SizeMismatch {
                expected: 10,
                got: 4,
            },
            ClError::ProtocolViolation {
                kernel: "k".into(),
                detail: "watermark increased".into(),
            },
            ClError::DeviceLost {
                device: DeviceKind::Gpu,
                detail: "wave 2 missed its watchdog deadline".into(),
            },
            ClError::Timeout {
                op: "h2d transfer".into(),
                detail: "3 retries exhausted".into(),
            },
            ClError::InvalidConfig("graph scheduling with a fault plan".into()),
        ];
        for e in cases {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(
                msg.chars().next().unwrap().is_lowercase(),
                "error text should start lowercase: {msg}"
            );
        }
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ClError>();
    }
}
