//! # lcl-server
//!
//! A dependency-free (`std::net` + raw `epoll`, so Linux only) service exposing
//! the LCL classification pipeline — the `Engine` of `lcl-classifier` — over
//! a newline-delimited JSON (NDJSON) protocol.
//!
//! Every frame is one line of JSON: requests are
//! [`RequestEnvelope`](lcl_paths::problem::RequestEnvelope)s
//! (`{"v":1,"id":7,"kind":"classify","payload":{…}}`), responses are
//! [`ResponseEnvelope`](lcl_paths::problem::ResponseEnvelope)s echoing the
//! request id and carrying either a payload or a structured error reply
//! derived from [`lcl_paths::Error`]. Nine request kinds are served:
//! `classify`, `classify_many`, `solve`, `solve_stream`, `generate`,
//! `stats`, `health`, `metrics` and `snapshot` (see `docs/PROTOCOL.md` at the
//! repository root for the full specification). `solve_stream` labels paths and cycles of
//! millions of nodes without ever materializing them: the reply is a
//! sequence of ordered chunk frames bounded by
//! [`Service::max_chunk_bytes`], produced under end-to-end backpressure on
//! every front-end; `generate` draws seeded problems from the
//! [`lcl_paths::gen`] workload families.
//!
//! Every front-end takes one frame path: bytes → one incremental NDJSON
//! decoder (`frame.rs`, which owns the 1 MiB bound, blank-line skipping,
//! lossy UTF-8 and the final-unterminated-line rule) → `Service::dispatch`
//! (splice hits, admission denials and oversized frames answered on the
//! calling thread, everything else one worker-pool job) → in-order reply.
//! The front-ends differ only in how they move bytes:
//!
//! * **TCP** ([`Server`]) — *pipelined* connections on one epoll
//!   **reactor**: a single event-loop thread serves *all* connections —
//!   thousands of sockets on a fixed thread budget. Every frame is
//!   dispatched into the engine's *persistent worker pool* immediately
//!   (bounded per-connection window, [`Server::max_inflight`]) and replies
//!   are emitted **in request order**, so a single connection can keep the
//!   whole pool busy; nothing is spawned on the per-request path,
//!   [`Server::max_conns`] caps the accepted-connection count, and
//!   [`ServerHandle`] shuts the listener and every open connection down
//!   gracefully;
//! * **stdio** ([`serve_stdio`]) — the `lcl-serve --stdio` pipe mode, same
//!   frames over stdin/stdout: a connection with an in-flight window of one.
//!
//! [`Client`] is the matching blocking client helper used by the integration
//! tests, the CI smoke step and the `server_throughput` bench;
//! [`Client::classify_many_pipelined`] floods the server's window instead of
//! lock-stepping round-trips. See `docs/ARCHITECTURE.md` at the repository
//! root for how the crates fit together, and `docs/PROTOCOL.md` for the
//! ordering guarantees a pipelined client may rely on.
//!
//! # Example
//!
//! ```
//! use lcl_paths::{problems, Engine};
//! use lcl_server::{Client, Server, Service};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = Arc::new(Service::new(Engine::builder().parallelism(2).build()));
//! let server = Server::bind(service, "127.0.0.1:0")?; // ephemeral port
//! let handle = server.start()?;
//!
//! let mut client = Client::connect(handle.addr())?;
//! let verdict = client.classify(&problems::coloring(3).to_spec())?;
//! assert_eq!(verdict.complexity.wire_name(), "log-star");
//! assert_eq!(client.health()?.require("status")?.as_str()?, "ok");
//!
//! drop(client);
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the reactor's epoll binding
// (`reactor/sys.rs`) is the one module allowed to contain `unsafe` — raw
// `extern "C"` declarations in the spirit of the workspace's offline
// `shims/`. Everything else in the crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

// The TCP front-end is an epoll reactor; Linux is the only target.
#[cfg(not(target_os = "linux"))]
compile_error!("lcl-server supports Linux only: its TCP front-end is an epoll reactor");

mod admission;
pub mod client;
mod expo;
mod frame;
mod metrics;
mod reactor;
mod scrape;
mod service;
mod splice;
mod stdio;
mod tcp;
mod trace;

pub use admission::AdmissionConfig;
pub use client::{Client, ClientError, SolveReply, StreamSummary, DEFAULT_PIPELINE_WINDOW};
pub use expo::{render_exposition, validate_exposition};
pub use frame::MAX_FRAME_BYTES;
pub use metrics::{Backend, Counter, KindStats, ServerMetrics};
pub use scrape::MetricsListener;
pub use service::{error_reply, RequestKind, Service, DEFAULT_MAX_CHUNK_BYTES};
pub use stdio::serve_stdio;
pub use tcp::{Server, ServerHandle, DEFAULT_MAX_INFLIGHT};
pub use trace::{slow_trace_line, TraceSink, DEFAULT_TRACE_RING_CAPACITY};
