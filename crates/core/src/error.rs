//! Ingestion-framework error types.
//!
//! Two layers live here:
//!
//! * [`IngestError`] — the engine-internal enum. Lower-layer failures
//!   are wrapped whole (not stringified), so callers can match on the
//!   underlying [`HyracksError`]/[`QueryError`]/[`StorageError`] and
//!   `std::error::Error::source` walks the chain.
//! * [`Error`] — the unified public error every subsystem's failure
//!   converts into, carrying a *stable* numeric [`ErrorCode`]. The
//!   serving layer's wire protocol transmits exactly these codes, so a
//!   remote client and an in-process caller classify failures the same
//!   way.

use std::fmt;

use idea_connect::{ConnectorError, SpecError};
use idea_hyracks::HyracksError;
use idea_query::QueryError;
use idea_storage::StorageError;

/// Stable error codes shared by the public API and the wire protocol.
///
/// The numeric values are part of the protocol: once shipped they never
/// change meaning. Ranges: `1xxx` query compile/execute, `2xxx` storage,
/// `3xxx` dataflow runtime, `4xxx` feed lifecycle and admission control
/// (`42xx` are the shed codes, styled after HTTP 429), `5xxx` transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum ErrorCode {
    /// SQL++ lexer/parser failure.
    Syntax = 1001,
    /// Unknown dataset / type / function / variable.
    Unresolved = 1002,
    /// Runtime evaluation failure.
    Eval = 1003,
    /// Semantically invalid statement or malformed request.
    InvalidRequest = 1004,
    /// Storage-layer failure.
    Storage = 2001,
    /// Storage-layer disk I/O failure (WAL, component file, manifest).
    StorageIo = 2002,
    /// Persisted storage data failed a checksum or decode (corruption).
    Corrupt = 2003,
    /// Dataflow (Hyracks) runtime failure.
    Runtime = 3001,
    /// Feed configuration/lifecycle misuse.
    Feed = 4001,
    /// A declarative pipeline spec was rejected at load time
    /// (parse/validation failure — the feed never started).
    SpecInvalid = 4002,
    /// Shed: the tenant exhausted its token-bucket rate limit.
    RateLimited = 4290,
    /// Shed: the admission queue is full (server-wide overload).
    Overloaded = 4291,
    /// Rejected: the server is draining for shutdown.
    ShuttingDown = 4292,
    /// Transport I/O failure.
    Io = 5001,
    /// Malformed protocol frame.
    Protocol = 5002,
    /// Anything that has no more specific classification.
    Internal = 5999,
}

impl ErrorCode {
    /// The wire representation.
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Decodes a wire code; unknown values are `None` (clients treat
    /// them as [`ErrorCode::Internal`] from a newer server).
    pub fn from_u16(code: u16) -> Option<ErrorCode> {
        Some(match code {
            1001 => ErrorCode::Syntax,
            1002 => ErrorCode::Unresolved,
            1003 => ErrorCode::Eval,
            1004 => ErrorCode::InvalidRequest,
            2001 => ErrorCode::Storage,
            2002 => ErrorCode::StorageIo,
            2003 => ErrorCode::Corrupt,
            3001 => ErrorCode::Runtime,
            4001 => ErrorCode::Feed,
            4002 => ErrorCode::SpecInvalid,
            4290 => ErrorCode::RateLimited,
            4291 => ErrorCode::Overloaded,
            4292 => ErrorCode::ShuttingDown,
            5001 => ErrorCode::Io,
            5002 => ErrorCode::Protocol,
            5999 => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// Stable snake-case token (log/metric friendly).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Syntax => "syntax",
            ErrorCode::Unresolved => "unresolved",
            ErrorCode::Eval => "eval",
            ErrorCode::InvalidRequest => "invalid_request",
            ErrorCode::Storage => "storage",
            ErrorCode::StorageIo => "storage_io",
            ErrorCode::Corrupt => "corrupt",
            ErrorCode::Runtime => "runtime",
            ErrorCode::Feed => "feed",
            ErrorCode::SpecInvalid => "spec_invalid",
            ErrorCode::RateLimited => "rate_limited",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Io => "io",
            ErrorCode::Protocol => "protocol",
            ErrorCode::Internal => "internal",
        }
    }

    /// Whether this code means "the request was never run — back off
    /// and retry" (the admission-control shed family).
    pub fn is_shed(self) -> bool {
        matches!(self, ErrorCode::RateLimited | ErrorCode::Overloaded | ErrorCode::ShuttingDown)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.as_u16())
    }
}

/// The unified public error: a stable [`ErrorCode`], a human-readable
/// message, and (when raised in-process) the wrapped [`IngestError`] for
/// `source()` chains. Errors decoded from the wire carry code + message
/// only.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    code: ErrorCode,
    message: String,
    source: Option<Box<IngestError>>,
}

impl Error {
    /// An error with no underlying cause (admission shed, protocol and
    /// transport failures, wire-decoded errors).
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Error {
        Error { code, message: message.into(), source: None }
    }

    pub fn code(&self) -> ErrorCode {
        self.code
    }

    pub fn message(&self) -> &str {
        &self.message
    }

    /// See [`ErrorCode::is_shed`].
    pub fn is_shed(&self) -> bool {
        self.code.is_shed()
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source.as_deref().map(|e| e as &(dyn std::error::Error + 'static))
    }
}

impl From<QueryError> for Error {
    fn from(e: QueryError) -> Error {
        let code = match &e {
            QueryError::Syntax(_) => ErrorCode::Syntax,
            QueryError::Unresolved(_) => ErrorCode::Unresolved,
            QueryError::Eval(_) => ErrorCode::Eval,
            QueryError::Storage(s) => storage_code(s),
            QueryError::Invalid(_) => ErrorCode::InvalidRequest,
        };
        Error { code, message: e.to_string(), source: Some(Box::new(IngestError::Query(e))) }
    }
}

/// The wire code of a storage failure, wherever it surfaced.
fn storage_code(e: &StorageError) -> ErrorCode {
    match e {
        StorageError::Io(_) => ErrorCode::StorageIo,
        StorageError::Corrupt(_) => ErrorCode::Corrupt,
        _ => ErrorCode::Storage,
    }
}

impl From<StorageError> for Error {
    fn from(e: StorageError) -> Error {
        let code = storage_code(&e);
        Error { code, message: e.to_string(), source: Some(Box::new(IngestError::Storage(e))) }
    }
}

impl From<HyracksError> for Error {
    fn from(e: HyracksError) -> Error {
        Error {
            code: ErrorCode::Runtime,
            message: e.to_string(),
            source: Some(Box::new(IngestError::Runtime(e))),
        }
    }
}

impl From<IngestError> for Error {
    fn from(e: IngestError) -> Error {
        match e {
            IngestError::Query(q) => q.into(),
            IngestError::Storage(s) => s.into(),
            IngestError::Runtime(r) => r.into(),
            IngestError::Feed(m) => Error {
                code: ErrorCode::Feed,
                message: format!("feed error: {m}"),
                source: Some(Box::new(IngestError::Feed(m))),
            },
            IngestError::Spec(s) => Error {
                code: ErrorCode::SpecInvalid,
                message: format!("invalid pipeline spec: {s}"),
                source: Some(Box::new(IngestError::Spec(s))),
            },
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error::new(ErrorCode::Io, e.to_string())
    }
}

/// Errors from feed lifecycle and pipeline execution.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// Runtime (Hyracks) failure.
    Runtime(HyracksError),
    /// Query/UDF failure during enrichment.
    Query(QueryError),
    /// Storage failure while persisting.
    Storage(StorageError),
    /// Feed configuration/lifecycle misuse.
    Feed(String),
    /// A declarative pipeline spec failed to parse or validate.
    Spec(SpecError),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Runtime(e) => write!(f, "runtime error: {e}"),
            IngestError::Query(e) => write!(f, "query error: {e}"),
            IngestError::Storage(e) => write!(f, "storage error: {e}"),
            IngestError::Feed(m) => write!(f, "feed error: {m}"),
            IngestError::Spec(e) => write!(f, "invalid pipeline spec: {e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Runtime(e) => Some(e),
            IngestError::Query(e) => Some(e),
            IngestError::Storage(e) => Some(e),
            IngestError::Feed(_) => None,
            IngestError::Spec(e) => Some(e),
        }
    }
}

impl From<HyracksError> for IngestError {
    fn from(e: HyracksError) -> Self {
        IngestError::Runtime(e)
    }
}

impl From<QueryError> for IngestError {
    fn from(e: QueryError) -> Self {
        IngestError::Query(e)
    }
}

impl From<StorageError> for IngestError {
    fn from(e: StorageError) -> Self {
        IngestError::Storage(e)
    }
}

impl From<SpecError> for IngestError {
    fn from(e: SpecError) -> Self {
        IngestError::Spec(e)
    }
}

impl From<ConnectorError> for IngestError {
    fn from(e: ConnectorError) -> Self {
        match e {
            // A connector that found bad bytes on disk is a corruption,
            // same as the storage layer finding them.
            ConnectorError::Corrupt(m) => {
                IngestError::Storage(StorageError::Corrupt(format!("source connector: {m}")))
            }
            other => IngestError::Feed(other.to_string()),
        }
    }
}

impl From<IngestError> for HyracksError {
    fn from(e: IngestError) -> Self {
        // The reverse direction crosses a trait-object boundary
        // (operators report `HyracksError`), so here the message is all
        // that survives.
        HyracksError::Operator(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn unified_error_codes_are_stable_and_round_trip() {
        let e: Error = QueryError::Syntax("near ';'".into()).into();
        assert_eq!(e.code(), ErrorCode::Syntax);
        assert_eq!(e.code().as_u16(), 1001);
        assert!(e.to_string().starts_with("[E1001]"));
        assert!(e.source().is_some());

        let e: Error = IngestError::Feed("no feed named f".into()).into();
        assert_eq!(e.code(), ErrorCode::Feed);

        let e: Error = IngestError::Spec(SpecError::Missing("target.dataset".into())).into();
        assert_eq!(e.code(), ErrorCode::SpecInvalid);
        assert_eq!(e.code().as_u16(), 4002);
        assert!(e.source().is_some());

        for code in [
            ErrorCode::Syntax,
            ErrorCode::Unresolved,
            ErrorCode::Eval,
            ErrorCode::InvalidRequest,
            ErrorCode::Storage,
            ErrorCode::StorageIo,
            ErrorCode::Corrupt,
            ErrorCode::Runtime,
            ErrorCode::Feed,
            ErrorCode::SpecInvalid,
            ErrorCode::RateLimited,
            ErrorCode::Overloaded,
            ErrorCode::ShuttingDown,
            ErrorCode::Io,
            ErrorCode::Protocol,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u16(code.as_u16()), Some(code));
        }
        assert_eq!(ErrorCode::from_u16(1), None);
        assert!(ErrorCode::RateLimited.is_shed());
        assert!(!ErrorCode::Eval.is_shed());
    }

    #[test]
    fn storage_io_and_corruption_map_to_their_own_codes() {
        let e: Error = StorageError::Io("fsync wal: disk full".into()).into();
        assert_eq!(e.code(), ErrorCode::StorageIo);
        assert_eq!(e.code().as_u16(), 2002);
        let e: Error = StorageError::Corrupt("block 3 checksum mismatch".into()).into();
        assert_eq!(e.code(), ErrorCode::Corrupt);
        assert_eq!(e.code().as_u16(), 2003);
        // Other storage failures keep the generic code.
        let e: Error = StorageError::DuplicateKey("7".into()).into();
        assert_eq!(e.code(), ErrorCode::Storage);
        // A query that hits a corrupt block keeps the corruption code.
        let e: Error = QueryError::from(StorageError::Corrupt("page 2".into())).into();
        assert_eq!(e.code().as_u16(), 2003);
    }

    #[test]
    fn wraps_preserve_source() {
        let e: IngestError = QueryError::Eval("bad arity".into()).into();
        assert_eq!(e.source().unwrap().to_string(), "evaluation error: bad arity");
        let e: IngestError = StorageError::DuplicateKey("7".into()).into();
        assert!(matches!(&e, IngestError::Storage(StorageError::DuplicateKey(k)) if k == "7"));
        let e: IngestError = HyracksError::Config("no stages".into()).into();
        assert!(e.source().is_some());
        assert!(IngestError::Feed("x".into()).source().is_none());
    }
}
