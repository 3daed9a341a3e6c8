//! Cycle attribution: where did every cycle of a replay go?
//!
//! The engine reports end-of-run totals; the paper's argument (Fig. 8–10)
//! is about *decomposing* them — how much of a speed-up comes from removed
//! realignment overhead versus pipeline width versus memory behaviour.
//! This module charges **every cycle of a replay to exactly one bucket**
//! so a result can be read the way the paper reads it.
//!
//! ## Charging model
//!
//! Retirement is in-order and monotone, so the replay's total cycle count
//! is exactly the sum over instructions of the gap between consecutive
//! retire cycles. For each instruction the engine knows the full milestone
//! chain that produced its retire cycle — redirect floor, fetch, dispatch,
//! issue-queue release, operand readiness, program-order floor, unit
//! grant, D-cache port grant, store-to-load ordering, miss-queue (MSHR)
//! admission, cache latency, realignment penalty, completion, retirement —
//! and the milestones are non-decreasing by construction. Attribution
//! walks that chain across the gap `(prev_retire, retire]`: the portion of
//! the gap that falls between two adjacent milestones is charged to the
//! bucket that owns the later milestone. Cycles already covered by an
//! older instruction's retirement are never charged twice, and segments
//! the gap does not reach are never charged at all, so
//! `sum(buckets) == cycles` holds exactly — the conservation invariant the
//! `attribution-conservation` analyze rule and the engine's own debug
//! assertion check after every simulation.
//!
//! The engine's one replay walk builds the [`Timeline`] for both record
//! sources, so attribution is bit-identical between the packed image and
//! the record-form reference path (enforced by the replay-image
//! equivalence suite).

use std::fmt;

/// Why a cycle elapsed. Every replayed cycle lands in exactly one bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bucket {
    /// Pipeline execution that makes forward progress: fixed execute
    /// latencies and the L1-hit portion of memory accesses.
    Useful,
    /// Front-end bound: fetch-width packing, I-cache misses, rename-window
    /// pressure, the in-flight-window floor and pipeline-fill depth.
    Frontend,
    /// Width/structural issue bound: issue-queue back-pressure, in-order
    /// program-order serialisation, execution-unit instance contention and
    /// retire-width packing.
    IssueWidth,
    /// Waiting for operands: register RAW dependences and store-to-load
    /// ordering through the LSU store queue.
    RawDependence,
    /// D-cache port contention, including the serialised second line
    /// lookup of a split access on a single-banked L1.
    DcachePort,
    /// Waiting for a miss-queue (MSHR) entry to free up.
    Mshr,
    /// L1/L2 miss latency beyond the L1 hit time.
    MissLatency,
    /// The realignment-network penalty for unaligned vector accesses.
    Realign,
    /// Fetch stalled on a branch-misprediction redirect.
    BranchMispredict,
}

impl Bucket {
    /// All buckets, in reporting order.
    pub const ALL: [Bucket; 9] = [
        Bucket::Useful,
        Bucket::Frontend,
        Bucket::IssueWidth,
        Bucket::RawDependence,
        Bucket::DcachePort,
        Bucket::Mshr,
        Bucket::MissLatency,
        Bucket::Realign,
        Bucket::BranchMispredict,
    ];

    /// Stable short label (used by tables and JSON keys).
    pub fn label(self) -> &'static str {
        match self {
            Bucket::Useful => "useful",
            Bucket::Frontend => "frontend",
            Bucket::IssueWidth => "issue-width",
            Bucket::RawDependence => "raw-dep",
            Bucket::DcachePort => "dcache-port",
            Bucket::Mshr => "mshr",
            Bucket::MissLatency => "miss-latency",
            Bucket::Realign => "realign",
            Bucket::BranchMispredict => "branch-misp",
        }
    }
}

impl fmt::Display for Bucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-bucket cycle totals of one replay. `sum(buckets) == cycles` always
/// holds for a breakdown produced by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Cycles of forward progress (execute latencies, L1 hit time).
    pub useful: u64,
    /// Front-end-bound cycles (fetch packing, I-cache, rename, refill).
    pub frontend: u64,
    /// Width-bound cycles (issue queues, units, in-order, retire width).
    pub issue_width: u64,
    /// Operand-wait cycles (register RAW + store-to-load ordering).
    pub raw_dependence: u64,
    /// D-cache port contention cycles.
    pub dcache_port: u64,
    /// Miss-queue (MSHR) admission stalls.
    pub mshr: u64,
    /// L1/L2 miss latency beyond the hit time.
    pub miss_latency: u64,
    /// Realignment-network penalty cycles on the retire critical path.
    pub realign: u64,
    /// Branch-misprediction redirect cycles.
    pub branch_mispredict: u64,
}

impl StallBreakdown {
    /// Cycles charged to `bucket`.
    pub fn get(&self, bucket: Bucket) -> u64 {
        match bucket {
            Bucket::Useful => self.useful,
            Bucket::Frontend => self.frontend,
            Bucket::IssueWidth => self.issue_width,
            Bucket::RawDependence => self.raw_dependence,
            Bucket::DcachePort => self.dcache_port,
            Bucket::Mshr => self.mshr,
            Bucket::MissLatency => self.miss_latency,
            Bucket::Realign => self.realign,
            Bucket::BranchMispredict => self.branch_mispredict,
        }
    }

    fn slot(&mut self, bucket: Bucket) -> &mut u64 {
        match bucket {
            Bucket::Useful => &mut self.useful,
            Bucket::Frontend => &mut self.frontend,
            Bucket::IssueWidth => &mut self.issue_width,
            Bucket::RawDependence => &mut self.raw_dependence,
            Bucket::DcachePort => &mut self.dcache_port,
            Bucket::Mshr => &mut self.mshr,
            Bucket::MissLatency => &mut self.miss_latency,
            Bucket::Realign => &mut self.realign,
            Bucket::BranchMispredict => &mut self.branch_mispredict,
        }
    }

    /// Sum over all buckets. Equal to the replay's `cycles` by the
    /// conservation invariant.
    pub fn total(&self) -> u64 {
        Bucket::ALL.iter().map(|&b| self.get(b)).sum()
    }

    /// The conservation invariant: attributed cycles sum exactly to the
    /// replay's total cycle count.
    pub fn conserves(&self, cycles: u64) -> bool {
        self.total() == cycles
    }

    /// Fraction of `cycles` charged to `bucket` (0 when `cycles` is 0).
    pub fn share(&self, bucket: Bucket, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.get(bucket) as f64 / cycles as f64
        }
    }

    /// Memory-bound cycles: port contention + MSHR + miss latency.
    pub fn memory_stall(&self) -> u64 {
        self.dcache_port + self.mshr + self.miss_latency
    }

    /// Adds another breakdown bucket-by-bucket (batch aggregation).
    pub fn accumulate(&mut self, other: &StallBreakdown) {
        for b in Bucket::ALL {
            *self.slot(b) += other.get(b);
        }
    }

    /// Charges the retire gap `(prev_retire, retire]` of one instruction
    /// across its milestone chain. `timeline` milestones are
    /// non-decreasing; the final segment (completion to retirement) is
    /// charged to [`Bucket::IssueWidth`] (retire-width packing).
    ///
    /// This runs once per retired instruction, so it is shaped for the
    /// replay hot loop: each segment is a branchless clamp
    /// (`min(milestone, retire)` floored at the cursor, charging a
    /// possibly-zero delta), and a single comparison on `after_mshr`
    /// skips the entire issue-side half of the chain — in a saturated
    /// pipeline those milestones almost always lie behind the previous
    /// retirement, and the chain being non-decreasing makes the skip
    /// exact (everything before a covered milestone is covered too).
    #[inline]
    pub(crate) fn charge(&mut self, prev_retire: u64, retire: u64, t: &Timeline) {
        // Several instructions retiring in the same cycle leave a
        // zero-width gap with nothing to charge.
        if retire <= prev_retire {
            return;
        }
        // An instruction that completed behind the previous retirement
        // waited only for retire bandwidth: every milestone sits at or
        // before `complete`, so the whole gap is width-bound.
        if t.complete <= prev_retire {
            self.issue_width += retire - prev_retire;
            return;
        }
        let mut cursor = prev_retire;
        macro_rules! seg {
            ($milestone:expr, $field:ident) => {{
                let m = $milestone.min(retire).max(cursor);
                self.$field += m - cursor;
                cursor = m;
            }};
        }
        if t.after_mshr > cursor {
            seg!(t.redirect, branch_mispredict);
            seg!(t.dispatch, frontend);
            seg!(t.after_queue, issue_width);
            seg!(t.after_deps, raw_dependence);
            seg!(t.after_order, issue_width);
            seg!(t.unit_at, issue_width);
            seg!(t.port_at, dcache_port);
            seg!(t.after_store_dep, raw_dependence);
            seg!(t.after_mshr, mshr);
        }
        seg!(t.useful_end, useful);
        let m = t.extra_end.min(retire).max(cursor);
        *self.slot(t.extra_bucket) += m - cursor;
        cursor = m;
        seg!(t.complete, realign);
        self.issue_width += retire - cursor;
    }
}

impl fmt::Display for StallBreakdown {
    /// Renders the non-zero buckets as `label N` pairs, reporting order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for b in Bucket::ALL {
            let v = self.get(b);
            if v == 0 {
                continue;
            }
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "{b} {v}")?;
            first = false;
        }
        if first {
            f.write_str("empty")?;
        }
        Ok(())
    }
}

/// The milestone chain of one replayed instruction, in charging order.
/// Every field is an absolute cycle; the sequence is non-decreasing. Both
/// engine paths fill it from the same stage calls, which is what makes
/// attribution bit-identical between them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Timeline {
    /// Branch-redirect floor in force when the instruction fetched.
    pub redirect: u64,
    /// Dispatch cycle (fetch + front-end depth); the span up to here not
    /// explained by the redirect is front-end bound.
    pub dispatch: u64,
    /// After issue-queue back-pressure.
    pub after_queue: u64,
    /// After register RAW readiness.
    pub after_deps: u64,
    /// After the in-order program-order floor.
    pub after_order: u64,
    /// After an execution-unit instance was granted.
    pub unit_at: u64,
    /// After a D-cache port was granted (equals `unit_at` for non-memory).
    pub port_at: u64,
    /// After store-to-load ordering (memory only; else `port_at`).
    pub after_store_dep: u64,
    /// After miss-queue admission (memory only; else `after_store_dep`).
    pub after_mshr: u64,
    /// End of the useful-latency segment (fixed latency, or the L1-hit
    /// portion of a memory access).
    pub useful_end: u64,
    /// End of the extra-latency segment (miss latency, or the serialised
    /// split lookup), charged to `extra_bucket`.
    pub extra_end: u64,
    /// Bucket owning the extra-latency segment.
    pub extra_bucket: Bucket,
    /// Completion cycle (after any realignment penalty).
    pub complete: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(at: u64) -> Timeline {
        Timeline {
            redirect: 0,
            dispatch: at,
            after_queue: at,
            after_deps: at,
            after_order: at,
            unit_at: at,
            port_at: at,
            after_store_dep: at,
            after_mshr: at,
            useful_end: at + 1,
            extra_end: at + 1,
            extra_bucket: Bucket::MissLatency,
            complete: at + 1,
        }
    }

    #[test]
    fn gap_is_charged_exactly_once() {
        let mut bd = StallBreakdown::default();
        bd.charge(0, 11, &flat(10));
        assert_eq!(bd.total(), 11);
        assert_eq!(bd.frontend, 10, "up to dispatch is front-end");
        assert_eq!(bd.useful, 1);
        assert!(bd.conserves(11));
    }

    #[test]
    fn covered_milestones_charge_nothing() {
        // The previous instruction retired past every milestone: only the
        // retire-packing tail is charged.
        let mut bd = StallBreakdown::default();
        bd.charge(20, 21, &flat(10));
        assert_eq!(bd.total(), 1);
        assert_eq!(bd.issue_width, 1);
    }

    #[test]
    fn redirect_cycles_go_to_branch_mispredict() {
        let mut bd = StallBreakdown::default();
        let mut t = flat(9);
        t.redirect = 6;
        bd.charge(2, 10, &t);
        assert_eq!(bd.branch_mispredict, 4, "(2,6] is redirect wait");
        assert_eq!(bd.frontend, 3, "(6,9] is fetch/refill");
        assert_eq!(bd.useful, 1);
        assert!(bd.conserves(8));
    }

    #[test]
    fn accumulate_and_shares() {
        let mut a = StallBreakdown {
            useful: 3,
            realign: 1,
            ..Default::default()
        };
        let b = StallBreakdown {
            useful: 1,
            mshr: 2,
            dcache_port: 1,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.useful, 4);
        assert_eq!(a.total(), 8);
        assert_eq!(a.memory_stall(), 3);
        assert!((a.share(Bucket::Useful, 8) - 0.5).abs() < 1e-12);
        assert_eq!(StallBreakdown::default().share(Bucket::Useful, 0), 0.0);
    }

    #[test]
    fn display_lists_nonzero_buckets() {
        let bd = StallBreakdown {
            useful: 5,
            realign: 2,
            ..Default::default()
        };
        let s = bd.to_string();
        assert!(s.contains("useful 5"));
        assert!(s.contains("realign 2"));
        assert!(!s.contains("mshr"));
        assert_eq!(StallBreakdown::default().to_string(), "empty");
    }
}
