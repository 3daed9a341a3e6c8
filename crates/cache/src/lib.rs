//! # valign-cache — memory-hierarchy timing models
//!
//! The cache substrate for the unaligned-SIMD study:
//!
//! * [`set_assoc::SetAssocCache`] — an LRU set-associative cache used for
//!   the D-L1 and L2 levels of the paper's Table II hierarchy.
//! * [`hierarchy::Hierarchy`] — the composed two-level hierarchy returning
//!   per-access latencies, with parallel (two-bank interleaved) or serial
//!   (single-bank) handling of line-crossing accesses.
//! * [`align::RealignConfig`] — the realignment-network latency model of
//!   the paper's Fig. 7 hardware (+1-cycle unaligned loads, +2-cycle
//!   unaligned stores in the proposed design, with the Fig. 9 sweep knob).
//!
//! ## Example
//!
//! ```
//! use valign_cache::{Hierarchy, HierarchyConfig, BankScheme, RealignConfig};
//!
//! let mut mem = Hierarchy::new(HierarchyConfig::table_ii());
//! let cold = mem.access(0x1234_0000, 16, false, BankScheme::TwoBankInterleaved);
//! assert_eq!(cold.latency, 4 + 12 + 250); // L1 + L2 + memory
//!
//! // The proposed realignment network adds one cycle to an unaligned load.
//! let realign = RealignConfig::proposed();
//! assert_eq!(realign.penalty(true, false, cold.split, 4), 1);
//! ```

#![forbid(unsafe_code)]

pub mod align;
pub mod hierarchy;
pub mod set_assoc;

pub use align::{BankScheme, RealignConfig};
pub use hierarchy::{AccessOutcome, Hierarchy, HierarchyConfig};
pub use set_assoc::{CacheConfig, CacheStats, SetAssocCache, ValidLines};
