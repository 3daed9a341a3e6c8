//! Branch prediction: gshare direction predictor + a simple BTB.
//!
//! All three Table II configurations share one branch-predictor
//! configuration, so a single model serves them: a gshare table of 2-bit
//! saturating counters indexed by (synthetic) PC xor global history, and a
//! branch target buffer that records which branch sites have been seen so
//! the first dynamic encounter of a taken branch costs a misfetch.

use valign_isa::StaticId;

/// Statistics of one predictor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Dynamic branches predicted.
    pub branches: u64,
    /// Mispredicted dynamic branches.
    pub mispredicts: u64,
}

impl PredictorStats {
    /// Misprediction ratio in `[0, 1]`.
    pub fn mispredict_ratio(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

/// Gshare + BTB branch predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchPredictor {
    counters: Vec<u8>,
    history: u64,
    history_bits: u32,
    btb: Vec<bool>,
    stats: PredictorStats,
}

const TABLE_BITS: u32 = 12;

impl Default for BranchPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl BranchPredictor {
    /// A predictor with a 4096-entry gshare table and 8 bits of global
    /// history.
    pub fn new() -> Self {
        BranchPredictor {
            counters: vec![1; 1 << TABLE_BITS], // weakly not-taken
            history: 0,
            history_bits: 8,
            btb: vec![false; 1 << TABLE_BITS],
            stats: PredictorStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PredictorStats {
        self.stats
    }

    /// Approximate heap plus inline bytes.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.counters.capacity() + self.btb.capacity()
    }

    fn index(&self, sid: StaticId) -> usize {
        let pc = sid.pc() >> 2;
        ((pc ^ (self.history & ((1 << self.history_bits) - 1))) as usize) & ((1 << TABLE_BITS) - 1)
    }

    fn btb_index(sid: StaticId) -> usize {
        ((sid.pc() >> 2) as usize) & ((1 << TABLE_BITS) - 1)
    }

    /// Predicts and updates for one dynamic branch; returns `true` when the
    /// branch was **mispredicted** (direction wrong, or target unknown for
    /// a taken branch — a BTB cold miss).
    pub fn access(&mut self, sid: StaticId, taken: bool, unconditional: bool) -> bool {
        self.stats.branches += 1;
        let btb_known = self.btb[Self::btb_index(sid)];

        let mispredict = if unconditional {
            // Direction is trivially known; only the target can miss.
            taken && !btb_known
        } else {
            let idx = self.index(sid);
            let predicted_taken = self.counters[idx] >= 2;
            // Update the 2-bit counter.
            if taken {
                self.counters[idx] = (self.counters[idx] + 1).min(3);
            } else {
                self.counters[idx] = self.counters[idx].saturating_sub(1);
            }
            // Update history.
            self.history = (self.history << 1) | u64::from(taken);
            predicted_taken != taken || (taken && !btb_known)
        };

        if taken {
            self.btb[Self::btb_index(sid)] = true;
        }
        if mispredict {
            self.stats.mispredicts += 1;
        }
        mispredict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(n: u16) -> StaticId {
        StaticId(n)
    }

    #[test]
    fn learns_always_taken_loop_branch() {
        let mut p = BranchPredictor::new();
        let s = sid(7);
        // Warm up: the global history register needs to saturate (8 bits)
        // and the final gshare counter needs two taken updates.
        for _ in 0..20 {
            p.access(s, true, false);
        }
        let before = p.stats().mispredicts;
        for _ in 0..100 {
            assert!(!p.access(s, true, false));
        }
        assert_eq!(p.stats().mispredicts, before);
    }

    #[test]
    fn loop_exit_costs_one_mispredict() {
        let mut p = BranchPredictor::new();
        let s = sid(3);
        for _ in 0..50 {
            p.access(s, true, false);
        }
        assert!(p.access(s, false, false), "the final not-taken iteration");
    }

    #[test]
    fn unconditional_mispredicts_only_cold() {
        let mut p = BranchPredictor::new();
        let s = sid(9);
        assert!(p.access(s, true, true), "BTB cold");
        assert!(!p.access(s, true, true), "BTB warm");
        assert!(!p.access(s, true, true));
    }

    #[test]
    fn alternating_pattern_learned_via_history() {
        let mut p = BranchPredictor::new();
        let s = sid(21);
        // Alternating T/N: gshare with history should converge well.
        let mut last_misses = 0;
        for i in 0..400 {
            if p.access(s, i % 2 == 0, false) && i >= 200 {
                last_misses += 1;
            }
        }
        assert!(
            last_misses <= 4,
            "gshare should learn an alternating pattern, got {last_misses} late misses"
        );
    }

    #[test]
    fn stats_ratio() {
        let mut p = BranchPredictor::new();
        for _ in 0..100 {
            p.access(sid(1), true, false);
        }
        let s = p.stats();
        assert_eq!(s.branches, 100);
        // Only the cold warm-up iterations mispredict.
        assert!(
            s.mispredict_ratio() <= 0.2,
            "ratio {}",
            s.mispredict_ratio()
        );
        assert_eq!(PredictorStats::default().mispredict_ratio(), 0.0);
    }
}
