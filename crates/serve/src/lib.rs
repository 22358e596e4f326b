//! `diffy-serve` — the evaluation simulator as a long-lived service.
//!
//! A std-only HTTP/1.1 front end to the Diffy evaluation stack: JSON
//! requests name a `(model, dataset, sample, resolution, seed,
//! architecture, scheme, memory)` point of the paper's grid, a fixed
//! worker pool prices it through the shared bounded `SweepCache`, and the
//! response carries the exact per-layer/network counters the runner
//! produces — bit-identical to calling `evaluate_network` directly.
//!
//! Production semantics are first-class, not bolted on:
//!
//! * **Bounded admission** — at most `queue_depth` connections wait; the
//!   acceptor sheds overload with `503` instead of queueing unboundedly.
//! * **Keep-alive** — connections persist across requests (HTTP/1.1
//!   semantics); a worker serves one request then re-enqueues the
//!   connection through the same bounded queue, so a chatty client
//!   waits its turn like everyone else. Idle connections are *parked*
//!   with an event loop blocking on an `epoll` readiness poller — never
//!   pinned to a worker, never occupying an admission slot, costing no
//!   periodic sweeps — and closed after `idle_timeout_ms`; every
//!   connection turns over after `max_requests_per_conn`.
//! * **Batching** — `POST /evaluate/batch` evaluates many grid points in
//!   one request, fanned over the worker pool through the shared cache
//!   (term planes build once per layer across the batch) under a
//!   server-wide fan cap; every item's result is bit-identical to its
//!   standalone `POST /evaluate`.
//! * **Deadlines** — each request's budget runs from its arrival;
//!   workers check it between pipeline stages and answer `504` the
//!   moment it passes (an expired queued request is never evaluated),
//!   and the socket read budget is the remaining deadline, re-armed
//!   before every read — a peer trickling bytes cannot stretch it.
//! * **Streaming sessions** — `POST /session` opens a stateful video
//!   session that retains the previous frame's activations; each `POST
//!   /session/{id}/frame` evaluates only the cross-frame delta through
//!   the temporal engine (paper §V) and reports cumulative savings
//!   against full re-evaluation. Sessions are LRU-bounded, expire when
//!   idle, and close via `DELETE /session/{id}`.
//! * **Graceful drain** — SIGTERM/SIGINT (opt-in), `POST /shutdown`, or
//!   [`ServerHandle::shutdown`] stop admissions, finish the backlog, and
//!   let [`Server::run`] return.
//! * **Live metrics** — `GET /metrics` reports request/response counts,
//!   queue depth, cache and session counters and latency percentiles.
//!
//! ```no_run
//! use diffy_serve::{Server, ServeConfig};
//!
//! let server = Server::bind(ServeConfig {
//!     addr: "127.0.0.1:7878".into(),
//!     ..ServeConfig::default()
//! })?;
//! println!("listening on {}", server.local_addr());
//! server.run()?; // blocks until graceful drain completes
//! # std::io::Result::Ok(())
//! ```
//!
//! Endpoints: `POST /evaluate`, `POST /evaluate/batch`, `POST /session`,
//! `POST /session/{id}/frame`, `DELETE /session/{id}`, `GET /metrics`,
//! `GET /healthz`, `POST /shutdown`. See DESIGN.md §"Service layer" for
//! the threading model and the determinism argument.

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod load;
pub mod metrics;
pub mod poller;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::{get, post, HttpResponse, KeepAliveClient, SessionClient};
pub use load::{batch_body, closed_loop_mode, LoadMode, LoadReport};
pub use metrics::{CloseReason, LatencyHistogram, Metrics};
pub use poller::Poller;
pub use protocol::{result_to_json, BatchRequest, EvalRequest, FrameRequest, SessionRequest};
pub use server::{ServeConfig, Server, ServerHandle};
pub use session::{SessionStats, SessionStore};
