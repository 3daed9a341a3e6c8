//! Two-level memory hierarchy composition (Table II).
//!
//! All three processor configurations in the paper share one memory
//! hierarchy: 32 KB 2-way D-L1 with 128-byte lines, a 1 MB 8-way unified
//! L2 at 12 cycles, and 250-cycle main memory. [`Hierarchy`] composes the
//! [`SetAssocCache`] levels and returns a per-access latency; accesses that
//! span two cache lines perform two line lookups which are combined either
//! in parallel (two-bank interleaved L1, the paper's proposal) or
//! serially (single-banked L1).

use crate::align::BankScheme;
use crate::set_assoc::{CacheConfig, CacheStats, SetAssocCache, ValidLines};

/// Latencies and geometries for the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// D-L1 geometry.
    pub l1d: CacheConfig,
    /// D-L1 hit latency in cycles (the paper's 4-cycle vector load).
    pub l1_latency: u32,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// L2 hit latency in cycles, added on an L1 miss.
    pub l2_latency: u32,
    /// Main-memory latency in cycles, added on an L2 miss.
    pub mem_latency: u32,
}

impl HierarchyConfig {
    /// The Table II hierarchy shared by all three processor configurations.
    pub fn table_ii() -> Self {
        HierarchyConfig {
            l1d: CacheConfig::new(32 * 1024, 128, 2),
            l1_latency: 4,
            l2: CacheConfig::new(1024 * 1024, 128, 8),
            l2_latency: 12,
            mem_latency: 250,
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::table_ii()
    }
}

/// The outcome of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Total access latency in cycles (before any realignment penalty,
    /// which the LSU adds from [`crate::align::RealignConfig`]).
    pub latency: u32,
    /// Whether every touched line hit in the D-L1.
    pub l1_hit: bool,
    /// Whether the access missed all the way to main memory.
    pub to_memory: bool,
    /// Whether the access spanned two cache lines.
    pub split: bool,
}

/// A composed D-L1 + L2 + memory hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hierarchy {
    config: HierarchyConfig,
    l1d: SetAssocCache,
    l2: SetAssocCache,
    // log2 of the D-L1 line size: split detection compares line numbers
    // on every access, and a shift beats the divide the compiler would
    // otherwise emit for the runtime line size.
    line_shift: u32,
}

impl Hierarchy {
    /// Builds an empty hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        Hierarchy {
            l1d: SetAssocCache::new(config.l1d),
            l2: SetAssocCache::new(config.l2),
            line_shift: config.l1d.line_shift(),
            config,
        }
    }

    /// The configured latencies/geometries.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// D-L1 statistics.
    pub fn l1_stats(&self) -> CacheStats {
        self.l1d.stats()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Both levels without their invalid ways
    /// ([`SetAssocCache::valid_lines`]): the D-L1, then the L2.
    pub fn valid_lines(&self) -> (ValidLines, ValidLines) {
        (self.l1d.valid_lines(), self.l2.valid_lines())
    }

    /// The hierarchy on `config` that [`Hierarchy::valid_lines`] returned
    /// `l1d` and `l2` for, exactly.
    pub fn from_valid_lines(config: HierarchyConfig, l1d: &ValidLines, l2: &ValidLines) -> Self {
        Hierarchy {
            l1d: SetAssocCache::from_valid_lines(l1d),
            l2: SetAssocCache::from_valid_lines(l2),
            line_shift: config.l1d.line_shift(),
            config,
        }
    }

    fn access_line(&mut self, addr: u64, write: bool) -> (u32, bool, bool) {
        let l1_hit = self.l1d.access(addr, write);
        if l1_hit {
            return (self.config.l1_latency, true, false);
        }
        let l2_hit = self.l2.access(addr, write);
        if l2_hit {
            (
                self.config.l1_latency + self.config.l2_latency,
                false,
                false,
            )
        } else {
            (
                self.config.l1_latency + self.config.l2_latency + self.config.mem_latency,
                false,
                true,
            )
        }
    }

    /// Performs one access of `bytes` bytes at `addr`.
    ///
    /// A line-crossing access looks up both lines; with
    /// [`BankScheme::TwoBankInterleaved`] the two lookups proceed in
    /// parallel (latency is their maximum), with [`BankScheme::SingleBank`]
    /// they serialise (latency is their sum).
    pub fn access(
        &mut self,
        addr: u64,
        bytes: u32,
        write: bool,
        banks: BankScheme,
    ) -> AccessOutcome {
        // The widest access in the ISA is one quadword, so an access spans
        // at most two lines — the invariant the two-lookup model relies on.
        debug_assert!(
            u64::from(bytes) <= valign_isa::align::QUAD_BYTES,
            "access wider than a vector register: {bytes} bytes"
        );
        let first = addr;
        let last = addr + u64::from(bytes.max(1)) - 1;
        let split = first >> self.line_shift != last >> self.line_shift;

        let (lat1, hit1, mem1) = self.access_line(first, write);
        if !split {
            return AccessOutcome {
                latency: lat1,
                l1_hit: hit1,
                to_memory: mem1,
                split,
            };
        }
        let (lat2, hit2, mem2) = self.access_line(last, write);
        let latency = match banks {
            BankScheme::TwoBankInterleaved => lat1.max(lat2),
            BankScheme::SingleBank => lat1 + lat2,
        };
        AccessOutcome {
            latency,
            l1_hit: hit1 && hit2,
            to_memory: mem1 || mem2,
            split,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Hierarchy {
        Hierarchy::new(HierarchyConfig::table_ii())
    }

    #[test]
    fn latency_composition() {
        let mut m = h();
        // Cold: miss everywhere.
        let cold = m.access(0x1000, 16, false, BankScheme::TwoBankInterleaved);
        assert_eq!(cold.latency, 4 + 12 + 250);
        assert!(!cold.l1_hit);
        assert!(cold.to_memory);
        // Now hot in L1.
        let hot = m.access(0x1000, 16, false, BankScheme::TwoBankInterleaved);
        assert_eq!(hot.latency, 4);
        assert!(hot.l1_hit);
        assert!(!hot.to_memory);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = h();
        m.access(0x0, 16, false, BankScheme::TwoBankInterleaved);
        // Evict from 2-way L1: touch two more lines mapping to set 0.
        // Set stride for L1 = 128 sets * 128 B = 16 KB.
        m.access(16 * 1024, 16, false, BankScheme::TwoBankInterleaved);
        m.access(32 * 1024, 16, false, BankScheme::TwoBankInterleaved);
        // 0x0 now misses L1 but hits L2 (L2 is 8-way, far bigger).
        let again = m.access(0x0, 16, false, BankScheme::TwoBankInterleaved);
        assert_eq!(again.latency, 4 + 12);
        assert!(!again.to_memory);
    }

    #[test]
    fn split_detection_uses_line_size() {
        let mut m = h();
        let inside = m.access(0x1000 + 112, 16, false, BankScheme::TwoBankInterleaved);
        assert!(!inside.split, "112..128 stays in a 128B line");
        let cross = m.access(0x1000 + 113, 16, false, BankScheme::TwoBankInterleaved);
        assert!(cross.split);
    }

    /// Brings the line holding `addr` into both levels.
    fn touch(m: &mut Hierarchy, addr: u64) {
        m.access(addr, 1, false, BankScheme::TwoBankInterleaved);
    }

    #[test]
    fn two_bank_parallel_vs_single_bank_serial() {
        // Touch both lines first so the base is L1-hit latency on each.
        let mut m = h();
        touch(&mut m, 0x1000 + 120);
        touch(&mut m, 0x1080);
        let par = m.access(0x1000 + 120, 16, false, BankScheme::TwoBankInterleaved);
        assert_eq!(par.latency, 4, "parallel banks: max(4,4)");
        let mut m2 = h();
        touch(&mut m2, 0x1000 + 120);
        touch(&mut m2, 0x1080);
        let ser = m2.access(0x1000 + 120, 16, false, BankScheme::SingleBank);
        assert_eq!(ser.latency, 8, "single bank: 4+4");
    }

    #[test]
    fn split_with_one_cold_line_takes_the_max() {
        let mut m = h();
        touch(&mut m, 0x1000 + 120); // first line resident, second cold
        let out = m.access(0x1000 + 120, 16, false, BankScheme::TwoBankInterleaved);
        assert!(out.split);
        assert_eq!(out.latency, 4 + 12 + 250, "dominated by the cold line");
        assert!(!out.l1_hit);
    }

    #[test]
    fn stats_count_per_level() {
        let mut m = h();
        m.access(0x0, 4, true, BankScheme::TwoBankInterleaved);
        m.access(0x0, 4, false, BankScheme::TwoBankInterleaved);
        assert_eq!(m.l1_stats().accesses(), 2);
        assert_eq!(m.l1_stats().hits, 1);
        assert_eq!(m.l2_stats().accesses(), 1);
    }

    #[test]
    fn valid_lines_restore_both_levels() {
        let mut m = h();
        for addr in [0x0, 16 * 1024, 32 * 1024, 0x1000 + 120] {
            m.access(addr, 16, addr == 0, BankScheme::SingleBank);
        }
        let (l1d, l2) = m.valid_lines();
        let mut restored = Hierarchy::from_valid_lines(*m.config(), &l1d, &l2);
        assert_eq!(restored, m);
        let again = restored.access(0x0, 16, false, BankScheme::TwoBankInterleaved);
        assert_eq!(again.latency, 4 + 12, "0x0 was evicted from the L1 only");
        m.access(0x0, 16, false, BankScheme::TwoBankInterleaved);
        assert_eq!(restored, m);
    }

    #[test]
    fn zero_byte_access_treated_as_one() {
        let mut m = h();
        let out = m.access(0x7f, 0, false, BankScheme::TwoBankInterleaved);
        assert!(!out.split);
    }
}
