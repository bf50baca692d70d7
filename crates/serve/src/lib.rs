//! # hos-serve
//!
//! A resident query server for HOS-Miner (Zhang et al., VLDB'04):
//! instead of refitting per CLI invocation, a fitted miner stays
//! warm in memory and answers outlying-subspace queries over
//! HTTP/1.1 (see `vendor/tinyhttp` — the environment has no
//! registry access, so the HTTP layer is a vendored stub over
//! `std::net`).
//!
//! Architecture (DESIGN.md §11):
//!
//! * [`server`] — thread-per-core accept workers, each owning its
//!   connections end to end plus a reusable response buffer.
//! * [`state`] — the miner behind a single-writer/many-reader lock;
//!   a cross-request **dynamic batcher** that coalesces concurrent
//!   queries into windows (closed when the queue is dry or at
//!   `batch_max` specs) and drives each window through one
//!   `HosMiner::query_each` fan-out (answers are
//!   bit-identical to serial execution — pinned by the concurrency
//!   oracle test); a bounded write queue drained by one writer
//!   thread that bumps a version counter under the write lock.
//! * [`json`] — dependency-free JSON with round-trip `f64`
//!   formatting, which is what makes bit-identity provable over the
//!   wire.
//!
//! * [`codec`] — the protocol-neutral request/reply model shared by
//!   both wire formats: one `execute` path per endpoint, with JSON
//!   and `hosbin` (length-prefixed binary, DESIGN.md §13) encoders
//!   over the same replies. Cross-protocol bit-identity is pinned by
//!   the differential oracle test.
//!
//! Endpoints: `POST /query` (id/ids/point/points), `POST /scan`,
//! `POST /insert`, `POST /retire`, `POST /explain`, `GET /stats`,
//! `GET /healthz`, `POST /shutdown` (graceful drain). Every error is
//! a typed JSON envelope; backpressure is a 429, drain a 503 (on
//! `healthz` too). The
//! same listener also speaks `hosbin`: a connection that opens with
//! the `\0HSB` preamble switches to framed binary with the same
//! endpoint set and error taxonomy.

pub mod codec;
pub mod json;
pub mod server;
pub mod state;

pub use codec::{ApiError, ApiReply, ApiRequest};
pub use json::Json;
pub use server::{ServeConfig, ServeReport, Server};
pub use state::{ServeError, SharedState, WriteOk, WriteOp};
