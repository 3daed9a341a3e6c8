//! # valign-pipeline — cycle-accurate trace-driven superscalar simulator
//!
//! The reproduction's stand-in for the paper's Turandot-based processor
//! simulator. Traces produced by `valign-vm` are replayed through a
//! superscalar timing model with:
//!
//! * the three Table II configurations ([`PipelineConfig::two_way`],
//!   [`PipelineConfig::four_way`], [`PipelineConfig::eight_way`]);
//! * per-unit pools (FX, FP, LS, BR, VI, VPERM, VCMPLX), register-rename
//!   windows, issue queues and D-cache ports;
//! * a gshare + BTB branch predictor;
//! * the `valign-cache` memory hierarchy, including the realignment
//!   network latency for the paper's unaligned `lvxu`/`stvxu` accesses;
//! * a packed structure-of-arrays [`ReplayImage`] (see [`image`]) that a
//!   trace is compiled into once, record by record through an
//!   [`ImageBuilder`], and replayed from many times — the
//!   generate-once / replay-many hot path of the whole evaluation
//!   ([`Simulator::simulate_image`]). One replay walk serves both the
//!   image and the record-form trace ([`Simulator::simulate_reference`]),
//!   the reference the image is equivalence-tested against;
//! * a functional warm-up ([`Machine::warmed`]) whose result can be kept
//!   compactly as a [`WarmState`] — the valid cache lines and the
//!   predictor — so an image replayed warm many times is walked for its
//!   warm-up once ([`Simulator::simulate_restored`]);
//! * cycle attribution (see [`attribution`]): every replayed cycle charged
//!   to exactly one stall bucket in the [`StallBreakdown`] carried by each
//!   [`SimResult`], with `sum(buckets) == cycles` guaranteed;
//! * a guarded replay path that bounds-checks the pre-resolved dependence
//!   walk and enforces a deterministic cycle-budget watchdog plus injected
//!   stalls through [`RunGuards`] — returning structured [`SimError`]s
//!   instead of panicking, so a supervisor can retry or degrade.
//!   [`Simulator::try_simulate_image`] validates its images first
//!   ([`ReplayImage::validate`]) on every call;
//!   [`Simulator::try_simulate_verified`] takes a [`VerifiedImage`], whose
//!   only constructor validates, so an image proven once (checksums via
//!   [`hash`]) is replayed on every later job without re-checking, from
//!   a [`WarmState`] rather than a warm-up walk.
//!
//! ## Example
//!
//! ```
//! use valign_pipeline::{PipelineConfig, ReplayImage, Simulator};
//! use valign_vm::Vm;
//!
//! let mut vm = Vm::new();
//! let buf = vm.mem_mut().alloc(256, 16);
//! let p = vm.li((buf + 5) as i64); // unaligned pointer
//! let i0 = vm.li(0);
//! for _ in 0..32 {
//!     let _ = vm.lvxu(i0, p);
//! }
//! let trace = vm.take_trace();
//!
//! // Compile once, then warm up and measure on the same image.
//! let image = ReplayImage::build(&trace);
//! let result = Simulator::simulate_image(PipelineConfig::four_way(), Some(&image), &image);
//! assert_eq!(result.unaligned_accesses, 32);
//! assert!(result.cycles > 0);
//! // The record-form reference walk agrees bit for bit.
//! let reference = Simulator::simulate_reference(PipelineConfig::four_way(), Some(&trace), &trace);
//! assert_eq!(result, reference);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod attribution;
mod backend;
pub mod config;
pub mod costmodel;
pub mod engine;
mod frontend;
pub mod hash;
pub mod image;
pub mod latency;
mod lsu;
pub mod predictor;
pub mod result;

pub use attribution::{Bucket, StallBreakdown};
pub use config::{IssuePolicy, PipelineConfig};
pub use costmodel::CostBounds;
pub use engine::{Machine, RunGuards, Simulator, StallInjection, WarmState};
pub use hash::WordHash;
pub use image::{AuditSabotage, ImageBuilder, ReplayImage, Sabotage, VerifiedImage};
pub use latency::{Latency, LatencyTable};
pub use lsu::{ranges_overlap, STORE_QUEUE_TRACK};
pub use predictor::{BranchPredictor, PredictorStats};
pub use result::{SimError, SimResult};
