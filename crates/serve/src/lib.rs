//! # idea-serve — the network SQL++ frontend
//!
//! Serves an [`IngestionEngine`](idea_core::IngestionEngine) over TCP:
//! a length-prefixed frame protocol carries SQL++ text in and streamed
//! ADM result frames out (see [`protocol`] for the wire format).
//!
//! The server ([`Server`]) is built on blocking `std::net` I/O:
//! acceptor threads feed per-connection reader threads, which hand
//! admitted requests to a sized pool of worker sessions sharing one
//! plan cache. Before any request executes it passes the per-tenant
//! [`AdmissionController`] — token-bucket rate limits, bounded queueing
//! with backpressure, and concurrency caps; shed requests get a
//! 429-style error frame with a stable [`ErrorCode`](idea_core::ErrorCode)
//! instead of a hung or dropped connection.
//!
//! Results stream: a query's rows leave the server one
//! [`RowStream`](idea_query::RowStream) batch at a time. A
//! single-dataset block without ORDER BY, GROUP BY, aggregates or
//! DISTINCT streams off its driver scan on the worker's thread — the
//! same vectorized kernels and columnar page skipping an in-process
//! query gets; anything else is evaluated like an in-process query
//! (its scan fanned out over the partitions), then re-chunked.
//! Statements nesting deeper than the parser's limit — long operator
//! chains included — are answered with a syntax error frame, so
//! hostile input never exhausts a connection thread's small stack.
//!
//! [`Client`] is the matching blocking client.

pub mod admission;
pub mod client;
pub mod protocol;
pub mod server;

pub use admission::{AdmissionConfig, AdmissionController, Permit, RateLimit};
pub use client::{Client, QuerySummary};
pub use protocol::{read_frame, write_frame, Frame, MAX_FRAME};
pub use server::{Server, ServerConfig};
