//! Typed error surface of the serving layer.

use std::error::Error;
use std::fmt;

use nnbo_core::BoError;

/// Error produced by the serving layer.
///
/// Every fallible entry point of [`crate::ShardedStore`] and
/// [`crate::BoService`] returns this type; nothing in the crate panics on
/// bad input, full queues, or damaged files.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A filesystem operation of the session store failed.
    Store {
        /// Path the operation touched.
        path: String,
        /// Underlying I/O reason.
        reason: String,
    },
    /// Every on-disk generation of a session's snapshot failed verification
    /// (torn write, truncation, or bit rot in both `latest` and `prev`).
    CorruptSnapshot {
        /// Session whose snapshot is unreadable.
        session: String,
        /// What the verifier found, per generation tried.
        details: String,
    },
    /// Admission control rejected the request: the service is at capacity
    /// and no idle session could be parked to make room.  This is the
    /// explicit backpressure signal — callers should retry later or drain.
    Overloaded {
        /// The configured session capacity that was hit.
        capacity: usize,
    },
    /// The named session is not registered with this service.
    SessionNotFound {
        /// The unknown session id.
        session: String,
    },
    /// A session id contains characters that are unsafe as a file stem
    /// (allowed: ASCII alphanumerics, `.`, `_`, `-`).
    InvalidSessionId {
        /// The rejected id.
        session: String,
    },
    /// The session was quarantined after a panic inside one of its steps;
    /// its last persisted state is still recoverable from the store.
    SessionPanicked {
        /// The quarantined session id.
        session: String,
        /// The panic payload, rendered to text.
        payload: String,
    },
    /// The operation requires a state the session is not in (e.g. asking
    /// for the result of a session that has not completed).
    SessionBusy {
        /// The session id.
        session: String,
        /// The session's actual status.
        status: String,
    },
    /// The shard a session routes to is `Down`: enough consecutive
    /// operations exhausted their retries that the sharded store stopped
    /// sending it traffic.  Only sessions on that shard are affected; the
    /// rest of the store keeps serving.  A successful scrub pass revives
    /// the shard.
    ShardUnavailable {
        /// The down shard's name.
        shard: String,
        /// The session whose operation was rejected.
        session: String,
    },
    /// The service's kill switch has been tripped: it no longer accepts or
    /// advances sessions (recover into a fresh service instead).
    ServiceKilled,
    /// The optimization loop itself failed (invalid config, snapshot
    /// mismatch on resume, violated invariant).
    Bo(BoError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Store { path, reason } => {
                write!(f, "session store I/O failed at {path}: {reason}")
            }
            ServeError::CorruptSnapshot { session, details } => {
                write!(f, "no intact snapshot for session {session}: {details}")
            }
            ServeError::Overloaded { capacity } => {
                write!(
                    f,
                    "service at capacity ({capacity} sessions) with no idle session to park"
                )
            }
            ServeError::SessionNotFound { session } => write!(f, "unknown session {session}"),
            ServeError::InvalidSessionId { session } => {
                write!(
                    f,
                    "invalid session id {session:?} (allowed: ASCII alphanumerics, '.', '_', '-')"
                )
            }
            ServeError::SessionPanicked { session, payload } => {
                write!(
                    f,
                    "session {session} was quarantined after a panic: {payload}"
                )
            }
            ServeError::SessionBusy { session, status } => {
                write!(f, "session {session} is {status}")
            }
            ServeError::ShardUnavailable { shard, session } => {
                write!(
                    f,
                    "shard {shard} is down; session {session} is unavailable until a scrub revives it"
                )
            }
            ServeError::ServiceKilled => write!(f, "service kill switch is tripped"),
            ServeError::Bo(e) => write!(f, "optimization error: {e}"),
        }
    }
}

impl Error for ServeError {}

impl From<BoError> for ServeError {
    fn from(e: BoError) -> Self {
        ServeError::Bo(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = ServeError::Overloaded { capacity: 4 };
        assert!(e.to_string().contains("capacity (4"));
        let e = ServeError::SessionPanicked {
            session: "s1".into(),
            payload: "boom".into(),
        };
        assert!(e.to_string().contains("s1"));
        assert!(e.to_string().contains("boom"));
        let e: ServeError = BoError::Internal {
            details: "x".into(),
        }
        .into();
        assert!(matches!(e, ServeError::Bo(_)));
    }
}
