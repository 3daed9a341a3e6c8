//! Processor configurations (the paper's Table II).
//!
//! Three machines are modelled, all sharing pipeline depth, branch
//! predictor and memory hierarchy:
//!
//! * **2-way in-order** — "somewhat similar to some current embedded media
//!   processors like the Cell SPE";
//! * **4-way out-of-order** — POWER4-like with an Altivec pipeline;
//! * **8-way out-of-order** — a scaled-up POWER4-like core.

use valign_cache::{HierarchyConfig, RealignConfig};
use valign_isa::Unit;

/// Issue discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssuePolicy {
    /// Instructions issue strictly in program order.
    InOrder,
    /// Instructions issue when their operands and a unit are available.
    OutOfOrder,
}

/// One Table II processor configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Human-readable name ("2-way", "4-way", "8-way").
    pub name: &'static str,
    /// Issue discipline.
    pub policy: IssuePolicy,
    /// Fetch/rename/dispatch width (instructions per cycle).
    pub fetch_width: u32,
    /// Retire width (instructions per cycle).
    pub retire_width: u32,
    /// Maximum in-flight instructions (fetched, not yet retired). Sixteen
    /// bits: the replay image stores each producer as a `u16` distance
    /// back from its consumer, which is exact because a producer farther
    /// back than this window imposes no constraint.
    pub inflight: u16,
    /// Number of execution-unit instances per [`Unit`].
    pub units: [u32; Unit::COUNT],
    /// Physical integer registers (renaming pool, includes the 32
    /// architectural ones).
    pub phys_gpr: u32,
    /// Physical vector registers.
    pub phys_vpr: u32,
    /// Non-branch issue-queue capacity.
    pub issue_queue: u32,
    /// Branch issue-queue capacity.
    pub br_issue_queue: u32,
    /// D-cache read ports.
    pub dcache_read_ports: u32,
    /// D-cache write ports.
    pub dcache_write_ports: u32,
    /// Maximum outstanding cache misses (miss-queue entries).
    pub miss_max: u32,
    /// Front-end depth in cycles (fetch→issue); identical across the three
    /// configurations, as in the paper.
    pub frontend_depth: u32,
    /// Memory-hierarchy configuration.
    pub memory: HierarchyConfig,
    /// Realignment-network latency model for unaligned vector accesses.
    pub realign: RealignConfig,
}

fn units(
    fx: u32,
    fp: u32,
    ls: u32,
    br: u32,
    vi: u32,
    vperm: u32,
    vcmplx: u32,
) -> [u32; Unit::COUNT] {
    let mut u = [0; Unit::COUNT];
    u[Unit::Fx.index()] = fx;
    u[Unit::Fp.index()] = fp;
    u[Unit::Ls.index()] = ls;
    u[Unit::Br.index()] = br;
    u[Unit::Vi.index()] = vi;
    u[Unit::Vperm.index()] = vperm;
    u[Unit::Vcmplx.index()] = vcmplx;
    u
}

impl PipelineConfig {
    /// The 2-way in-order configuration of Table II.
    pub fn two_way() -> Self {
        PipelineConfig {
            name: "2-way",
            policy: IssuePolicy::InOrder,
            fetch_width: 2,
            retire_width: 4,
            inflight: 80,
            units: units(2, 1, 1, 1, 1, 1, 1),
            phys_gpr: 60,
            phys_vpr: 60,
            issue_queue: 10,
            br_issue_queue: 5,
            dcache_read_ports: 1,
            dcache_write_ports: 1,
            miss_max: 2,
            frontend_depth: 10,
            memory: HierarchyConfig::table_ii(),
            realign: RealignConfig::proposed(),
        }
    }

    /// The 4-way out-of-order configuration of Table II.
    pub fn four_way() -> Self {
        PipelineConfig {
            name: "4-way",
            policy: IssuePolicy::OutOfOrder,
            fetch_width: 4,
            retire_width: 6,
            inflight: 160,
            units: units(3, 2, 2, 2, 2, 1, 1),
            phys_gpr: 80,
            phys_vpr: 80,
            issue_queue: 20,
            br_issue_queue: 12,
            dcache_read_ports: 2,
            dcache_write_ports: 1,
            miss_max: 4,
            frontend_depth: 10,
            memory: HierarchyConfig::table_ii(),
            realign: RealignConfig::proposed(),
        }
    }

    /// The 8-way out-of-order configuration of Table II.
    pub fn eight_way() -> Self {
        PipelineConfig {
            name: "8-way",
            policy: IssuePolicy::OutOfOrder,
            fetch_width: 8,
            retire_width: 12,
            inflight: 255,
            units: units(6, 4, 4, 4, 4, 2, 2),
            phys_gpr: 128,
            phys_vpr: 128,
            issue_queue: 40,
            br_issue_queue: 40,
            dcache_read_ports: 4,
            dcache_write_ports: 2,
            miss_max: 8,
            frontend_depth: 10,
            memory: HierarchyConfig::table_ii(),
            realign: RealignConfig::proposed(),
        }
    }

    /// All three Table II configurations.
    pub fn table_ii() -> Vec<PipelineConfig> {
        vec![Self::two_way(), Self::four_way(), Self::eight_way()]
    }

    /// Returns this configuration with a different realignment model
    /// (the Fig. 9 latency sweep).
    pub fn with_realign(mut self, realign: RealignConfig) -> Self {
        self.realign = realign;
        self
    }

    /// Number of instances of `unit`.
    pub fn unit_count(&self, unit: Unit) -> u32 {
        self.units[unit.index()]
    }

    /// Renders the configuration as Table II rows.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let policy = match self.policy {
            IssuePolicy::InOrder => "In-order",
            IssuePolicy::OutOfOrder => "Out-of-Order",
        };
        let _ = writeln!(s, "Configuration: {}", self.name);
        let _ = writeln!(s, "  Issue policy          {policy}");
        let _ = writeln!(s, "  Fetch-Rename-Dispatch {}", self.fetch_width);
        let _ = writeln!(s, "  Retire                {}", self.retire_width);
        let _ = writeln!(s, "  Inflight              {}", self.inflight);
        let _ = writeln!(
            s,
            "  Units FX={} FP={} LS={} BR={} VI={} VPERM={} VCMPLX={}",
            self.unit_count(Unit::Fx),
            self.unit_count(Unit::Fp),
            self.unit_count(Unit::Ls),
            self.unit_count(Unit::Br),
            self.unit_count(Unit::Vi),
            self.unit_count(Unit::Vperm),
            self.unit_count(Unit::Vcmplx),
        );
        let _ = writeln!(s, "  PhysRegs GPR={} VPR={}", self.phys_gpr, self.phys_vpr);
        let _ = writeln!(
            s,
            "  Queues BR-issue={} issue={}",
            self.br_issue_queue, self.issue_queue
        );
        let _ = writeln!(
            s,
            "  D-cache ports R={} W={} MissMax={}",
            self.dcache_read_ports, self.dcache_write_ports, self.miss_max
        );
        let _ = writeln!(
            s,
            "  L1-D {}KB/{}B/{}-way  L2 {}KB/{}-way {}cyc  Mem {}cyc",
            self.memory.l1d.size_bytes / 1024,
            self.memory.l1d.line_bytes,
            self.memory.l1d.assoc,
            self.memory.l2.size_bytes / 1024,
            self.memory.l2.assoc,
            self.memory.l2_latency,
            self.memory.mem_latency
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_widths_match_paper() {
        let two = PipelineConfig::two_way();
        assert_eq!(two.policy, IssuePolicy::InOrder);
        assert_eq!(
            (two.fetch_width, two.retire_width, two.inflight),
            (2, 4, 80)
        );
        assert_eq!(two.unit_count(Unit::Fx), 2);
        assert_eq!(two.miss_max, 2);

        let four = PipelineConfig::four_way();
        assert_eq!(four.policy, IssuePolicy::OutOfOrder);
        assert_eq!(
            (four.fetch_width, four.retire_width, four.inflight),
            (4, 6, 160)
        );
        assert_eq!(four.unit_count(Unit::Fx), 3);
        assert_eq!(four.unit_count(Unit::Vperm), 1);
        assert_eq!(four.dcache_read_ports, 2);

        let eight = PipelineConfig::eight_way();
        assert_eq!(
            (eight.fetch_width, eight.retire_width, eight.inflight),
            (8, 12, 255)
        );
        assert_eq!(eight.unit_count(Unit::Ls), 4);
        assert_eq!(eight.unit_count(Unit::Vcmplx), 2);
        assert_eq!(eight.miss_max, 8);
        assert_eq!(eight.phys_gpr, 128);
    }

    #[test]
    fn shared_hierarchy_and_depth() {
        let cfgs = PipelineConfig::table_ii();
        assert_eq!(cfgs.len(), 3);
        for c in &cfgs {
            assert_eq!(c.frontend_depth, 10);
            assert_eq!(c.memory, HierarchyConfig::table_ii());
        }
    }

    #[test]
    fn with_realign_swaps_model() {
        let c = PipelineConfig::four_way().with_realign(RealignConfig::extra(6));
        assert_eq!(c.realign.load_extra, 6);
        assert_eq!(c.realign.store_extra, 6);
    }

    #[test]
    fn describe_mentions_key_fields() {
        let d = PipelineConfig::four_way().describe();
        assert!(d.contains("4-way"));
        assert!(d.contains("Out-of-Order"));
        assert!(d.contains("MissMax=4"));
    }
}
