//! The long-running simulation service behind `valign serve` /
//! `valign submit`.
//!
//! Four layers:
//!
//! * [`protocol`] — the wire format (4-byte big-endian length-prefixed
//!   UTF-8 JSON frames, one write per frame, sockets set up with
//!   `TCP_NODELAY`), a dependency-free total JSON parser, request
//!   parsing and every response renderer. The scorecard renderer here is
//!   shared by the daemon, the `--local` path and the tests — it is the
//!   mechanism behind the bit-identical-output contract.
//! * [`journal`] — the durable job journal: an append-only, checksummed
//!   record log under `--store-dir` that makes an `accepted` frame a
//!   promise a `kill -9` cannot revoke. Replayed on startup; torn tails
//!   truncated; compacted on drain.
//! * [`server`] — the daemon: accept loop, priority queue, admission
//!   control against the cycle-budget watchdog, per-client quotas with
//!   jittered reject-with-retry-after backpressure, journal-backed
//!   crash recovery and job dedup, a worker pool running each job
//!   through its own single-threaded [`SupervisedRunner`], connection
//!   chaos injection and socket deadlines, live `/stats`, graceful
//!   drain-then-exit shutdown.
//! * [`client`] — a blocking client that restores submission order over
//!   the racy completion-order scorecard stream, under a read deadline,
//!   surfacing a daemon death mid-batch as
//!   [`ServeError::Disconnected`] with the partial results.
//!
//! This service tree (plus the `valign-store` crate) handles real
//! files and sockets, so it carries the crash-safety lint wall: an
//! `unwrap`/`expect` on an I/O result is a latent daemon-killer and is
//! denied outside tests.
//!
//! [`SupervisedRunner`]: crate::supervise::SupervisedRunner

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod journal;
pub mod protocol;
pub mod server;

pub use client::{Client, ServeError, SubmitOutcome, DEFAULT_DEADLINE};
pub use journal::{job_hash, DoneRecord, Journal, JournalStats, PendingRecord, JOURNAL_FILE};
pub use protocol::{JobSpec, Priority, Request, SubmitRequest, MAX_FRAME};
pub use server::{jittered_retry_after, run_local, ServeConfig, Server};
