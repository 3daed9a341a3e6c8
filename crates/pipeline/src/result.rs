//! Simulation results, derived metrics, and the structured error taxonomy
//! of the checked replay path.

use crate::attribution::StallBreakdown;
use crate::predictor::PredictorStats;
use std::fmt;
use valign_cache::CacheStats;
use valign_isa::Opcode;

/// A structured replay failure, produced by the guarded engine path
/// ([`crate::Simulator::try_simulate_image`]) and by
/// [`crate::ReplayImage::validate`] in place of the ad-hoc panics the
/// unguarded hot path keeps.
///
/// Every variant carries enough context to locate the failure (the
/// instruction index where applicable); callers add trace-level context
/// (which `TraceKey`, which config) when they report it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The latency table has no fixed-latency entry for a non-memory op —
    /// a configuration-level defect, not an image corruption.
    MissingLatency {
        /// The opcode without an entry.
        op: Opcode,
        /// Record index of the offending instruction.
        index: usize,
    },
    /// The packed image violates a structural invariant (array lengths,
    /// presence-mask consistency, dependence-cursor monotonicity, ...).
    CorruptImage {
        /// Record index when the defect is per-record, `None` for
        /// whole-array defects.
        index: Option<usize>,
        /// Human-readable description of the violated invariant.
        detail: String,
    },
    /// The image's content hash does not match the checksum stored at
    /// build time — the bytes changed after preparation.
    ChecksumMismatch {
        /// Checksum recorded when the image was prepared.
        expected: u64,
        /// Checksum of the image as loaded.
        actual: u64,
    },
    /// A pre-resolved store-to-load dependence names a store ordinal
    /// outside the LSU's trailing store window — the dependence lists
    /// disagree with the store ring they index.
    DepOutOfWindow {
        /// Record index of the load.
        index: usize,
        /// The out-of-window store ordinal.
        ordinal: u32,
        /// Stores executed when the load was reached.
        stores_seen: u64,
    },
    /// The replay blew through its cycle budget — the deterministic
    /// watchdog's deadline, measured in simulated cycles, not wall-clock.
    BudgetExceeded {
        /// Record index that retired past the deadline.
        index: usize,
        /// Its retire cycle.
        cycles: u64,
        /// The budget it exceeded.
        budget: u64,
    },
}

impl SimError {
    /// Whether the failure indicts only the *packed image* — in which case
    /// a supervisor can degrade to the record-form reference walker and
    /// still produce a trustworthy result. [`SimError::MissingLatency`]
    /// and [`SimError::BudgetExceeded`] indict the configuration or the
    /// workload itself, which the reference walker shares, so they are not
    /// degradable.
    pub fn degradable(&self) -> bool {
        matches!(
            self,
            SimError::CorruptImage { .. }
                | SimError::ChecksumMismatch { .. }
                | SimError::DepOutOfWindow { .. }
        )
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingLatency { op, index } => {
                write!(f, "no fixed latency entry for {op} (record {index})")
            }
            SimError::CorruptImage {
                index: Some(i),
                detail,
            } => {
                write!(f, "corrupt replay image at record {i}: {detail}")
            }
            SimError::CorruptImage {
                index: None,
                detail,
            } => {
                write!(f, "corrupt replay image: {detail}")
            }
            SimError::ChecksumMismatch { expected, actual } => write!(
                f,
                "image checksum mismatch: expected {expected:#018x}, found {actual:#018x}"
            ),
            SimError::DepOutOfWindow {
                index,
                ordinal,
                stores_seen,
            } => write!(
                f,
                "record {index} depends on store ordinal {ordinal} outside the \
                 store window ({stores_seen} stores seen)"
            ),
            SimError::BudgetExceeded {
                index,
                cycles,
                budget,
            } => write!(
                f,
                "cycle budget exceeded: record {index} retired at cycle {cycles} \
                 past the {budget}-cycle deadline"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// The outcome of replaying one trace through the cycle-accurate model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimResult {
    /// Total cycles from first fetch to last retire.
    pub cycles: u64,
    /// Dynamic instructions retired.
    pub instructions: u64,
    /// Branch predictor statistics.
    pub predictor: PredictorStats,
    /// D-L1 statistics.
    pub l1: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// Vector accesses that were actually unaligned (non-zero 16-byte
    /// offset through `lvxu`/`stvxu`).
    pub unaligned_accesses: u64,
    /// Extra cycles charged by the realignment network across the run.
    pub realign_penalty_cycles: u64,
    /// Accesses that spanned two cache lines.
    pub split_accesses: u64,
    /// Cycle attribution: every cycle of the run charged to exactly one
    /// stall bucket, `breakdown.total() == cycles`.
    pub breakdown: StallBreakdown,
}

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Speed-up of this run relative to `baseline` (baseline cycles divided
    /// by this run's cycles), or `None` when this run has zero cycles (an
    /// empty trace) and the ratio is undefined. Drivers that can receive an
    /// empty trace use this and surface a diagnostic error.
    pub fn try_speedup_over(&self, baseline: &SimResult) -> Option<f64> {
        if self.cycles == 0 {
            None
        } else {
            Some(baseline.cycles as f64 / self.cycles as f64)
        }
    }

    /// Speed-up of this run relative to `baseline` (baseline cycles divided
    /// by this run's cycles).
    ///
    /// # Panics
    ///
    /// Panics if this run has zero cycles — call
    /// [`SimResult::try_speedup_over`] where an empty run is reachable.
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        self.try_speedup_over(baseline)
            .expect("speedup of an empty run is undefined")
    }

    /// Mean realignment penalty per unaligned access, in cycles.
    pub fn realign_per_access(&self) -> f64 {
        if self.unaligned_accesses == 0 {
            0.0
        } else {
            self.realign_penalty_cycles as f64 / self.unaligned_accesses as f64
        }
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles, {} instructions (IPC {:.2}), {:.2}% branch mispredicts, \
             L1 {:.2}% / L2 {:.2}% miss, {} unaligned accesses \
             (+{} realign cycles, {:.2}/access), {} split accesses; \
             breakdown: {}",
            self.cycles,
            self.instructions,
            self.ipc(),
            self.predictor.mispredict_ratio() * 100.0,
            self.l1.miss_ratio() * 100.0,
            self.l2.miss_ratio() * 100.0,
            self.unaligned_accesses,
            self.realign_penalty_cycles,
            self.realign_per_access(),
            self.split_accesses,
            self.breakdown,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_speedup() {
        let a = SimResult {
            cycles: 100,
            instructions: 250,
            ..Default::default()
        };
        let b = SimResult {
            cycles: 50,
            instructions: 250,
            ..Default::default()
        };
        assert!((a.ipc() - 2.5).abs() < 1e-9);
        assert!((b.speedup_over(&a) - 2.0).abs() < 1e-9);
        assert!((a.speedup_over(&a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_cycles_ipc_is_zero() {
        assert_eq!(SimResult::default().ipc(), 0.0);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn speedup_of_empty_run_panics() {
        let empty = SimResult::default();
        let full = SimResult {
            cycles: 10,
            ..Default::default()
        };
        let _ = empty.speedup_over(&full);
    }

    #[test]
    fn try_speedup_guards_empty_runs() {
        let empty = SimResult::default();
        let full = SimResult {
            cycles: 10,
            ..Default::default()
        };
        assert_eq!(empty.try_speedup_over(&full), None);
        assert!((full.try_speedup_over(&full).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn realign_per_access_handles_zero() {
        let mut r = SimResult::default();
        assert_eq!(r.realign_per_access(), 0.0);
        r.unaligned_accesses = 4;
        r.realign_penalty_cycles = 10;
        assert!((r.realign_per_access() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn display_has_key_numbers() {
        let mut r = SimResult {
            cycles: 123,
            instructions: 456,
            split_accesses: 7,
            unaligned_accesses: 2,
            realign_penalty_cycles: 6,
            ..Default::default()
        };
        r.breakdown.useful = 100;
        r.breakdown.raw_dependence = 23;
        let s = r.to_string();
        assert!(s.contains("123"));
        assert!(s.contains("456"));
        assert!(s.contains("7 split accesses"));
        assert!(s.contains("L2"));
        assert!(s.contains("3.00/access"));
        assert!(s.contains("useful 100"));
        assert!(s.contains("raw-dep 23"));
    }

    #[test]
    fn sim_error_degradability_splits_image_from_config_faults() {
        let image_faults = [
            SimError::CorruptImage {
                index: Some(3),
                detail: "x".into(),
            },
            SimError::ChecksumMismatch {
                expected: 1,
                actual: 2,
            },
            SimError::DepOutOfWindow {
                index: 7,
                ordinal: 1000,
                stores_seen: 3,
            },
        ];
        for e in image_faults {
            assert!(e.degradable(), "{e}");
        }
        let config_faults = [
            SimError::MissingLatency {
                op: Opcode::Add,
                index: 0,
            },
            SimError::BudgetExceeded {
                index: 11,
                cycles: 500,
                budget: 100,
            },
        ];
        for e in config_faults {
            assert!(!e.degradable(), "{e}");
        }
    }

    #[test]
    fn sim_error_display_carries_context() {
        let e = SimError::DepOutOfWindow {
            index: 42,
            ordinal: 7,
            stores_seen: 3,
        };
        let s = e.to_string();
        assert!(
            s.contains("42") && s.contains("ordinal 7") && s.contains("3 stores"),
            "{s}"
        );
        let e = SimError::BudgetExceeded {
            index: 8,
            cycles: 999,
            budget: 100,
        };
        let s = e.to_string();
        assert!(
            s.contains("record 8") && s.contains("999") && s.contains("100"),
            "{s}"
        );
        let e = SimError::CorruptImage {
            index: None,
            detail: "ops array short".into(),
        };
        assert!(e.to_string().contains("ops array short"));
    }
}
