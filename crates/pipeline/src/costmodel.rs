//! Zero-simulation static cost model over a [`ReplayImage`].
//!
//! The paper's core claim is that misalignment cost is *predictable from
//! the structure of the memory access stream*: which accesses are
//! unaligned, whether they cross a line, and how stores feed loads are
//! all recorded in the packed image, before any cycle is simulated. This
//! module turns that structure into **sound lower/upper bounds** on three
//! of the attribution buckets of [`crate::attribution`] — `realign`,
//! `raw-dep` and `issue-width` — plus a lower bound on total cycles, per
//! {image × [`PipelineConfig`]}.
//!
//! The bounds are *certificates*, not estimates: the `valign-analyze`
//! `costmodel-soundness` rule replays the trace and flags any measured
//! bucket escaping its static interval as an ERROR. Derivations (see
//! DESIGN.md §15 for the full argument):
//!
//! * **realign ∈ \[0, Σ penalties\]** — the attribution walk charges the
//!   realign bucket exactly the segment `(extra_end, complete]` of each
//!   memory instruction, whose length is the realignment penalty of that
//!   access. The penalty is a pure function of recorded structure
//!   ([`valign_cache::RealignConfig::penalty`]: unaligned flag, store
//!   flag, line crossing), so the sum over all records is an exact
//!   ceiling; clipping against the previous retire cycle can only shrink
//!   the charged share, hence the 0 lower bound.
//! * **raw-dep ∈ \[0, critical path\]** — raw-dependence stalls wait on
//!   producers, so the total charge cannot exceed the longest dataflow
//!   chain through the image: edges are the packed producer slots
//!   ([`ReplayImage::src_defs`]) plus the pre-resolved store→load
//!   dependence lists, weighted by each record's *worst-case* completion
//!   latency (fixed latency, or a full L1+L2+memory miss for memory
//!   records — doubled for line-splits under a single-banked L1 — plus
//!   its realignment penalty).
//! * **issue-width ∈ \[0, serial ceiling\]** — issue-width charges are a
//!   subset of total cycles, and total cycles are bounded by fully serial
//!   execution: every inter-retire gap decomposes into waits on resources
//!   held by already-retired instructions (free by the previous retire),
//!   at most two front-end traversals (redirect + refill), the record's
//!   own worst-case execution, and constant stage handoffs. The ceiling
//!   `depth + Σ (lat_max + penalty + 2·depth + 16)` is deliberately
//!   generous — soundness is the contract, tightness is only reported for
//!   `realign`.
//! * **cycles ≥ ⌈n / retire_width⌉** — at most `retire_width` records
//!   retire per cycle.

use crate::config::PipelineConfig;
use crate::image::{flags, ReplayImage, NO_DEF};
use crate::latency::{Latency, LatencyTable};
use valign_cache::BankScheme;

/// Sound static bounds on the attribution of one image under one
/// configuration. All `_lo`/`_hi` pairs are inclusive cycle intervals.
#[derive(Debug, Clone)]
pub struct CostBounds {
    /// Configuration name ("2-way", "4-way", "8-way").
    pub config: &'static str,
    /// Records in the image.
    pub records: usize,
    /// Lower bound on the `realign` bucket (always 0).
    pub realign_lo: u64,
    /// Upper bound on the `realign` bucket: the exact sum of static
    /// realignment penalties over every memory record.
    pub realign_hi: u64,
    /// First and last record index (inclusive) carrying a non-zero
    /// realignment penalty — the window an escape is reported against.
    pub realign_window: Option<(u32, u32)>,
    /// Lower bound on the `raw-dep` bucket (always 0).
    pub raw_dep_lo: u64,
    /// Upper bound on the `raw-dep` bucket: the worst-case-latency
    /// critical path through producer and store→load dependence edges.
    pub raw_dep_hi: u64,
    /// First and last record index (inclusive) of the critical chain.
    pub raw_dep_window: Option<(u32, u32)>,
    /// Lower bound on the `issue-width` bucket (always 0).
    pub issue_width_lo: u64,
    /// Upper bound on the `issue-width` bucket: the serial-execution
    /// cycle ceiling.
    pub issue_width_hi: u64,
    /// Lower bound on total cycles: `⌈records / retire_width⌉`.
    pub cycles_lo: u64,
}

/// Worst-case completion latency of one record, including a full miss at
/// every hierarchy level for memory records (and both lines of a split
/// serialising under a single-banked L1), but *excluding* the
/// realignment penalty (accounted separately).
fn worst_latency(
    table: &LatencyTable,
    cfg: &PipelineConfig,
    op: valign_isa::Opcode,
    split: bool,
) -> u64 {
    match table.get(op) {
        Some(Latency::Fixed(c)) => u64::from(c),
        Some(Latency::Memory { .. }) | None => {
            let m = &cfg.memory;
            let line = u64::from(m.l1_latency + m.l2_latency + m.mem_latency);
            match cfg.realign.banks {
                BankScheme::SingleBank if split => line * 2,
                _ => line,
            }
        }
    }
}

/// Computes the static bounds of `image` under `cfg` — one forward pass
/// over the packed arrays, no simulation. The image must be structurally
/// valid ([`ReplayImage::validate`] / the `valign-analyze` image rules);
/// run those first on untrusted images.
pub fn bounds(image: &ReplayImage, cfg: &PipelineConfig) -> CostBounds {
    let n = image.len();
    let table = cfg.latency_table();
    let line = cfg.memory.l1d.line_bytes as u64;
    let l1 = cfg.memory.l1_latency;

    let mut realign_hi = 0u64;
    let mut realign_window: Option<(u32, u32)> = None;
    // Longest worst-case dataflow chain ending at each record, and the
    // record that chain starts at (for the escape window).
    let mut depth = vec![0u64; n];
    let mut chain_start: Vec<u32> = (0..n as u32).collect();
    let mut raw_dep_hi = 0u64;
    let mut raw_dep_window: Option<(u32, u32)> = None;
    // Record index of each store ordinal, for dependence-list edges.
    let mut store_records: Vec<u32> = Vec::new();
    let mut serial = u64::from(cfg.frontend_depth);
    let mut cursor = 0usize;

    for idx in 0..n {
        let f = image.flags()[idx];
        let is_mem = f & flags::MEM != 0;
        let is_store = f & flags::STORE != 0;

        let (split, penalty) = if is_mem {
            let addr = image.mem_addrs()[cursor];
            let bytes = u64::from(image.mem_bytes()[cursor]).max(1);
            let split = addr / line != (addr + bytes - 1) / line;
            let pen =
                u64::from(
                    cfg.realign
                        .penalty(f & flags::UNALIGNED != 0, is_store, split, l1),
                );
            (split, pen)
        } else {
            (false, 0)
        };
        if penalty > 0 {
            realign_hi += penalty;
            realign_window = match realign_window {
                None => Some((idx as u32, idx as u32)),
                Some((first, _)) => Some((first, idx as u32)),
            };
        }

        let lat = worst_latency(&table, cfg, image.ops()[idx], split);

        // Longest chain into this record: producer slots, then the
        // pre-resolved store→load dependence edges.
        let mut base = 0u64;
        let mut start = idx as u32;
        let feed = |rec: usize, base: &mut u64, start: &mut u32| {
            if depth[rec] > *base {
                *base = depth[rec];
                *start = chain_start[rec];
            }
        };
        for &d in &image.src_defs()[idx] {
            if d != NO_DEF {
                if let Some(producer) = idx.checked_sub(usize::from(d)) {
                    feed(producer, &mut base, &mut start);
                }
            }
        }
        if is_mem && !is_store {
            for &ord in image.mem_deps_at(cursor) {
                if let Some(&rec) = store_records.get(ord as usize) {
                    feed(rec as usize, &mut base, &mut start);
                }
            }
        }
        depth[idx] = base + lat + penalty;
        chain_start[idx] = start;
        if depth[idx] > raw_dep_hi {
            raw_dep_hi = depth[idx];
            raw_dep_window = Some((start, idx as u32));
        }

        serial += lat + penalty + 2 * u64::from(cfg.frontend_depth) + 16;
        if is_mem {
            if is_store {
                store_records.push(idx as u32);
            }
            cursor += 1;
        }
    }

    CostBounds {
        config: cfg.name,
        records: n,
        realign_lo: 0,
        realign_hi,
        realign_window,
        raw_dep_lo: 0,
        raw_dep_hi,
        raw_dep_window,
        issue_width_lo: 0,
        issue_width_hi: if n == 0 { 0 } else { serial },
        cycles_lo: (n as u64).div_ceil(u64::from(cfg.retire_width)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use valign_cache::RealignConfig;
    use valign_isa::{DynInstr, Gpr, MemKind, MemRef, Opcode, StaticId, Trace, Vpr};

    fn unaligned_trace() -> Trace {
        let mut t = Trace::new();
        t.push(DynInstr::alu(
            Opcode::Li,
            StaticId(0),
            Some(Gpr::new(1).into()),
            &[],
        ));
        for i in 0..8u64 {
            t.push(DynInstr::mem(
                Opcode::Lvxu,
                StaticId(1),
                Some(Vpr::new((i % 8) as u8).into()),
                &[],
                MemRef {
                    addr: 0x1000 + i * 16 + 3,
                    bytes: 16,
                    kind: MemKind::Load,
                },
            ));
            t.push(DynInstr::mem(
                Opcode::Stvxu,
                StaticId(2),
                None,
                &[],
                MemRef {
                    addr: 0x4000 + i * 16 + 3,
                    bytes: 16,
                    kind: MemKind::Store,
                },
            ));
        }
        t
    }

    #[test]
    fn realign_ceiling_is_the_exact_penalty_sum() {
        let img = ReplayImage::build(&unaligned_trace());
        let cfg = PipelineConfig::four_way();
        let b = bounds(&img, &cfg);
        // 8 unaligned loads (+1 each) + 8 unaligned stores (+2 each)
        // under the proposed two-bank network.
        assert_eq!(b.realign_hi, 8 + 16);
        assert_eq!(b.realign_lo, 0);
        let (first, last) = b.realign_window.expect("unaligned records exist");
        assert_eq!(first, 1);
        assert_eq!(last as usize, img.len() - 1);

        // With equal-latency realignment the ceiling collapses to zero.
        let free = PipelineConfig::four_way().with_realign(RealignConfig::equal_latency());
        let b = bounds(&img, &free);
        assert_eq!(b.realign_hi, 0);
        assert!(b.realign_window.is_none());
    }

    #[test]
    fn raw_dep_ceiling_covers_a_serial_chain() {
        // A pure dependence chain: each record consumes the previous.
        let mut t = Trace::new();
        t.push(DynInstr::alu(
            Opcode::Add,
            StaticId(0),
            Some(Gpr::new(1).into()),
            &[],
        ));
        for i in 1..10u32 {
            t.push(DynInstr::alu(
                Opcode::Add,
                StaticId(i as u16),
                Some(Gpr::new(1).into()),
                &[valign_isa::SrcRef::produced_by(Gpr::new(1).into(), i - 1)],
            ));
        }
        let img = ReplayImage::build(&t);
        let cfg = PipelineConfig::eight_way();
        let b = bounds(&img, &cfg);
        let add = match cfg.latency_table().get(Opcode::Add) {
            Some(Latency::Fixed(c)) => u64::from(c),
            other => panic!("Add should have a fixed latency, got {other:?}"),
        };
        assert_eq!(b.raw_dep_hi, add * 10);
        assert_eq!(b.raw_dep_window, Some((0, 9)));
    }

    #[test]
    fn empty_image_has_degenerate_bounds() {
        let img = ReplayImage::build(&Trace::new());
        let b = bounds(&img, &PipelineConfig::two_way());
        assert_eq!(b.records, 0);
        assert_eq!(b.realign_hi, 0);
        assert_eq!(b.raw_dep_hi, 0);
        assert_eq!(b.issue_width_hi, 0);
        assert_eq!(b.cycles_lo, 0);
    }

    #[test]
    fn measured_attribution_stays_inside_the_bounds() {
        let trace = unaligned_trace();
        let img = ReplayImage::build(&trace);
        for cfg in PipelineConfig::table_ii() {
            let b = bounds(&img, &cfg);
            let r = Simulator::simulate_image(cfg, None, &img);
            let realign = r.breakdown.get(crate::Bucket::Realign);
            let raw_dep = r.breakdown.get(crate::Bucket::RawDependence);
            let issue = r.breakdown.get(crate::Bucket::IssueWidth);
            assert!(realign <= b.realign_hi, "{realign} > {}", b.realign_hi);
            assert!(raw_dep <= b.raw_dep_hi, "{raw_dep} > {}", b.raw_dep_hi);
            assert!(issue <= b.issue_width_hi, "{issue} > {}", b.issue_width_hi);
            assert!(r.cycles >= b.cycles_lo, "{} < {}", r.cycles, b.cycles_lo);
        }
    }
}
