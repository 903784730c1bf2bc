//! Query-engine error type.

use std::fmt;

use idea_adm::AdmError;
use idea_storage::StorageError;

/// Errors from parsing, planning, or evaluating SQL++.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Lexer/parser errors; carries position info in the message.
    Syntax(String),
    /// Unknown dataset / type / function / variable.
    Unresolved(String),
    /// Runtime evaluation failure (bad types, arity, division by zero).
    Eval(String),
    /// Storage-layer failure surfaced by a scan, a probe or DML; keeps
    /// the storage error's kind (a corrupt block stays `Corrupt`).
    Storage(StorageError),
    /// Semantically invalid statement (e.g. duplicate CREATE).
    Invalid(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Syntax(m) => write!(f, "syntax error: {m}"),
            QueryError::Unresolved(m) => write!(f, "cannot resolve: {m}"),
            QueryError::Eval(m) => write!(f, "evaluation error: {m}"),
            QueryError::Storage(m) => write!(f, "storage error: {m}"),
            QueryError::Invalid(m) => write!(f, "invalid statement: {m}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<AdmError> for QueryError {
    fn from(e: AdmError) -> Self {
        QueryError::Eval(e.to_string())
    }
}

impl From<StorageError> for QueryError {
    fn from(e: StorageError) -> Self {
        QueryError::Storage(e)
    }
}
