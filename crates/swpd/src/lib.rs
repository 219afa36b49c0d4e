//! `swpd` — a fault-isolated scheduling daemon.
//!
//! The workspace's solver stack answers one question — "what is the best
//! initiation interval for this loop on this machine, and what schedule
//! achieves it?" — as a library call. This crate turns that call into a
//! *service*: a daemon that accepts schedule requests over plain TCP
//! (newline-delimited JSON, with a minimal HTTP/1.1 front door for
//! curl-ability), dispatches them onto a worker pool, and answers repeat
//! requests from the same fingerprint-keyed result cache the corpus
//! harness uses ([`swp_harness::ResultCache`]).
//!
//! The interesting part is not the transport but the failure behaviour:
//!
//! * **Admission control** — every request's solve budget is sliced from
//!   one global pool with [`swp_milp::Budget::try_slice`], so a drained
//!   pool refuses new work *at admission* instead of spawning solves
//!   whose first tick trips. Client deadlines (`timeout_ms`) propagate
//!   into the per-request [`Budget`](swp_milp::Budget).
//! * **Backpressure** — the request queue is bounded; when it is full
//!   the daemon load-sheds with an `overloaded` reply carrying a
//!   `retry_after_ms` hint derived from observed solve times, and the
//!   bundled [`client`] retries with jittered exponential backoff.
//! * **Panic isolation** — each solve runs under
//!   `std::panic::catch_unwind`; a poisoned solve kills exactly one
//!   request (reply `internal_panic`, counter `panics`), never a worker
//!   or the daemon.
//! * **Cancellation** — a dropped connection fires the request's
//!   [`CancelToken`](swp_milp::CancelToken), so in-flight solves for
//!   dead clients stop within one budget check interval.
//! * **Incremental sessions** — `POST /session` (op `session_open`)
//!   pins a [`swp_incr::SolveSession`] in daemon memory; edits
//!   (`/session/{id}/edit`) adjust its carried schedule hint, solves
//!   (`/session/{id}/solve`) replay a cached result or run with that
//!   hint, and the per-operation reuse deltas (replays, IMS hint hits,
//!   cone sizes) land in the monotone `stats` counters.
//! * **Graceful drain, crash-only recovery** — a shutdown request stops
//!   the accept loop, finishes (or budget-cancels, after a grace
//!   period) in-flight work, and flushes the JSONL artifact; because
//!   every cacheable result was already streamed to the artifact, a
//!   restart simply replays it into the cache and serves previously
//!   solved fingerprints warm. There is no other persistence path —
//!   recovery after a crash and after a clean drain are the same code.
//!
//! Two binaries ship with the crate: `swpd` (the daemon) and
//! `swpd-load` (a load generator that hammers a daemon with thousands
//! of concurrent mixed requests — hot and cold fingerprints,
//! adversarial DDGs, mid-solve disconnects, injected panics — and
//! asserts zero lost or hung requests, monotone telemetry, and a 100%
//! warm-cache hit rate after a restart).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;
mod session;
pub mod state;
pub mod stats;
mod worker;

pub use client::SwpdClient;
pub use proto::{Reply, ReplyStatus, Request, SolveRequest, PROTO_VERSION};
pub use server::{Daemon, DaemonHandle};
pub use state::DaemonConfig;
pub use stats::StatsSnapshot;
