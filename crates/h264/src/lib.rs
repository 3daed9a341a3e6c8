//! # valign-h264 — H.264/AVC video substrate
//!
//! Everything the unaligned-SIMD study needs from the video-codec side:
//!
//! * [`plane`] — pixel planes/frames with 16-byte-aligned strides, the
//!   layout that makes MC pointer alignment behave as in the paper's
//!   Fig. 4;
//! * [`interp`] — golden quarter-pel luma (6-tap) and eighth-pel chroma
//!   (bilinear) interpolation, the reference the SIMD kernels are verified
//!   against;
//! * [`transform`] — golden 4x4 (factorised and matrix-form) and 8x8
//!   inverse transforms, plus the forward 4x4 for round-trip tests;
//! * [`sad`] — reference SAD and full-search motion estimation;
//! * [`deblock`] — the complete in-loop deblocking filter (scalar stage in
//!   the paper);
//! * [`cabac`] — a real context-adaptive binary arithmetic encoder/decoder
//!   pair (the strongly serial entropy stage of Fig. 10);
//! * [`mb`] — macroblocks, variable-size partitions and quarter-pel motion
//!   vectors;
//! * [`synth`] — deterministic synthetic stand-ins for the paper's four
//!   test sequences at the three evaluated resolutions, with
//!   alignment-offset statistics (Fig. 4);
//! * [`decoder`] — the decoder-stage work model used to estimate
//!   application-level impact (Fig. 10).
//!
//! ## Example: reproducing a Fig. 4 curve
//!
//! ```
//! use valign_h264::plane::Resolution;
//! use valign_h264::synth::{mc_alignment_stats, plan_frame, Sequence};
//!
//! let plan = plan_frame(Sequence::Pedestrian, Resolution::Hd720, 1);
//! let stats = mc_alignment_stats(&plan);
//! // MC load pointers are spread over the whole 0..16 offset range…
//! assert!(stats.luma_load.unaligned_fraction() > 0.5);
//! // …while store pointers only hit partition-aligned offsets.
//! assert_eq!(stats.luma_store.counts()[1], 0);
//! ```

#![forbid(unsafe_code)]

pub mod cabac;
pub mod deblock;
pub mod decoder;
pub mod interp;
pub mod mb;
pub mod plane;
pub mod sad;
pub mod synth;
pub mod transform;

pub use mb::{BlockSize, InterPlan, MbPlan, MotionVector};
pub use plane::{Frame, Plane, Resolution};
pub use synth::{AlignmentStats, FramePlan, OffsetHistogram, Sequence};
