//! Property-based tests of the cycle-accurate engine: structural bounds
//! and monotonicity over randomly generated programs.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use valign_cache::RealignConfig;
use valign_isa::{DynInstr, MemKind, MemRef, Opcode, StaticId, Trace};
use valign_pipeline::{
    ranges_overlap, IssuePolicy, PipelineConfig, ReplayImage, RunGuards, Simulator,
    STORE_QUEUE_TRACK,
};
use valign_vm::{Scalar, Vm};

/// Generates a random but well-formed program: ALU work, loads/stores
/// into a private buffer, unaligned vector accesses and loop-like
/// branches.
fn random_trace(seed: u64, len: usize) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut vm = Vm::new();
    let buf = vm.mem_mut().alloc(1 << 16, 16);
    let base = vm.li(buf as i64);
    let i0 = vm.li(0);
    vm.clear_trace();
    let mut regs: Vec<Scalar> = vec![base, i0];
    let top = vm.label();
    while vm.instr_count() < len {
        match rng.gen_range(0..10) {
            0..=3 => {
                let a = regs[rng.gen_range(0..regs.len())];
                let b = regs[rng.gen_range(0..regs.len())];
                regs.push(vm.add(a, b));
            }
            4 | 5 => {
                let off = rng.gen_range(0..(1 << 15)) & !3;
                let p = vm.addi(base, off);
                regs.push(vm.lwz(p, 0));
            }
            6 => {
                let off = rng.gen_range(0..(1 << 15)) & !3;
                let p = vm.addi(base, off);
                let v = regs[rng.gen_range(0..regs.len())];
                vm.stw(v, p, 0);
            }
            7 => {
                let off = rng.gen_range(0..((1 << 15) - 16));
                let p = vm.addi(base, off);
                let _ = vm.lvxu(i0, p);
            }
            8 => {
                let a = regs[rng.gen_range(0..regs.len())];
                let c = vm.cmpwi(a, 0);
                vm.bc(c, rng.gen_bool(0.8), top);
            }
            _ => {
                let a = regs[rng.gen_range(0..regs.len())];
                regs.push(vm.slwi(a, rng.gen_range(0..8)));
            }
        }
        if regs.len() > 24 {
            regs.drain(0..8);
        }
    }
    vm.take_trace()
}

/// A trace of the given memory accesses and nothing else.
fn access_trace(accesses: &[MemRef]) -> Trace {
    let mut t = Trace::new();
    for (i, &mem) in accesses.iter().enumerate() {
        let op = match (mem.kind, mem.bytes) {
            (MemKind::Load, 1) => Opcode::Lbz,
            (MemKind::Load, 2) => Opcode::Lhz,
            (MemKind::Load, 4) => Opcode::Lwz,
            (MemKind::Load, _) => Opcode::Lvxu,
            (MemKind::Store, 1) => Opcode::Stb,
            (MemKind::Store, 2) => Opcode::Sth,
            (MemKind::Store, 4) => Opcode::Stw,
            (MemKind::Store, _) => Opcode::Stvxu,
        };
        t.push(DynInstr::mem(op, StaticId(i as u16), None, &[], mem));
    }
    t
}

/// The reference dependence lists: each load tested against every one of
/// the last [`STORE_QUEUE_TRACK`] stores, oldest first, as the LSU's
/// store queue does. One list per access (stores' empty).
fn linear_scan_deps(accesses: &[MemRef]) -> Vec<Vec<u32>> {
    let mut recent: VecDeque<(u64, u64, u32)> = VecDeque::new();
    let mut stores = 0u32;
    let mut lists = Vec::new();
    for mem in accesses {
        let bytes = u64::from(mem.bytes);
        let mut deps = Vec::new();
        if mem.kind == MemKind::Store {
            if recent.len() == STORE_QUEUE_TRACK {
                recent.pop_front();
            }
            recent.push_back((mem.addr, bytes, stores));
            stores += 1;
        } else {
            for &(addr, len, ordinal) in &recent {
                if ranges_overlap(addr, len, mem.addr, bytes) {
                    deps.push(ordinal);
                }
            }
        }
        lists.push(deps);
    }
    lists
}

fn cold_cycles(cfg: PipelineConfig, t: &Trace) -> u64 {
    Simulator::simulate_reference(cfg, None, t).cycles
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cycles_bounded_below_by_width_and_above_by_serial(seed in 0u64..5000) {
        let t = random_trace(seed, 400);
        for cfg in PipelineConfig::table_ii() {
            let width = u64::from(cfg.fetch_width);
            let cycles = cold_cycles(cfg.clone(), &t);
            // Lower bound: cannot beat fetch bandwidth.
            prop_assert!(cycles >= t.len() as u64 / width, "{}", cfg.name);
            // Upper bound: fully serial execution with worst-case memory.
            let worst_instr = 4u64 + 12 + 250 + 20;
            prop_assert!(cycles <= t.len() as u64 * worst_instr + 1000, "{}", cfg.name);
        }
    }

    #[test]
    fn out_of_order_never_loses_to_in_order(seed in 0u64..5000) {
        let t = random_trace(seed, 400);
        let ooo = PipelineConfig::four_way();
        let mut ino = PipelineConfig::four_way();
        ino.policy = IssuePolicy::InOrder;
        prop_assert!(cold_cycles(ooo, &t) <= cold_cycles(ino, &t));
    }

    #[test]
    fn cycles_monotone_in_latency_without_structural_hazards(seed in 0u64..5000) {
        // With the miss queue unbounded, extra unaligned latency sits
        // purely on dependency paths and cycles are monotone
        // non-decreasing. (With bounded MSHRs the occupancy dynamics can
        // legitimately jump either way — a later start may dodge a full
        // queue — just as on real hardware; see the trend test below.)
        let t = random_trace(seed, 300);
        let mut prev = 0u64;
        for extra in [0u32, 1, 2, 4, 6, 10] {
            let mut cfg = PipelineConfig::four_way().with_realign(RealignConfig::extra(extra));
            cfg.miss_max = 1_000_000;
            let c = cold_cycles(cfg, &t);
            prop_assert!(c >= prev, "extra {extra}: {c} < {prev}");
            prev = c;
        }
    }

    #[test]
    fn cycles_trend_upward_with_realign_latency(seed in 0u64..5000) {
        // Default (bounded-MSHR) configuration: require the trend with a
        // ~8% tolerance for structural-hazard scheduling jumps.
        let t = random_trace(seed, 300);
        let base = cold_cycles(
            PipelineConfig::four_way().with_realign(RealignConfig::extra(0)),
            &t,
        );
        let mut worst = 0u64;
        for extra in [0u32, 1, 2, 4, 6, 10] {
            let cfg = PipelineConfig::four_way().with_realign(RealignConfig::extra(extra));
            let c = cold_cycles(cfg, &t);
            prop_assert!(
                c * 25 >= worst * 23,
                "extra {extra}: {c} far below best-so-far {worst}"
            );
            worst = worst.max(c);
        }
        prop_assert!(worst + worst / 12 >= base, "+10 cycles cannot beat +0 by >8%");
    }

    #[test]
    fn more_resources_never_hurt(seed in 0u64..5000) {
        let t = random_trace(seed, 400);
        let base = cold_cycles(PipelineConfig::four_way(), &t);
        // Double every unit and port.
        let mut big = PipelineConfig::four_way();
        for u in big.units.iter_mut() {
            *u *= 2;
        }
        big.dcache_read_ports *= 2;
        big.dcache_write_ports *= 2;
        big.miss_max *= 2;
        prop_assert!(cold_cycles(big, &t) <= base);
    }

    #[test]
    fn determinism(seed in 0u64..5000) {
        let t = random_trace(seed, 300);
        let image = ReplayImage::build(&t);
        let a = Simulator::simulate_image(PipelineConfig::eight_way(), Some(&image), &image);
        let b = Simulator::simulate_image(PipelineConfig::eight_way(), Some(&image), &image);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn image_replay_is_bit_identical_to_reference(seed in 0u64..5000) {
        // The packed image is a lossless re-encoding: on arbitrary
        // programs (ALU chains, overlapping loads/stores, unaligned
        // vector accesses, loop branches) the record-form reference walk,
        // the image walk and the guarded image walk produce equal results
        // on every configuration, cold and warm; its opcode column alone
        // yields the trace's instruction mix.
        let t = random_trace(seed, 400);
        let image = ReplayImage::build(&t);
        prop_assert_eq!(image.mix(), t.mix());
        for cfg in PipelineConfig::table_ii() {
            for warm in [false, true] {
                let r = Simulator::simulate_reference(cfg.clone(), warm.then_some(&t), &t);
                let i = Simulator::simulate_image(cfg.clone(), warm.then_some(&image), &image);
                let g = Simulator::try_simulate_image(
                    cfg.clone(),
                    warm.then_some(&image),
                    &image,
                    &RunGuards::default(),
                );
                prop_assert_eq!(&r, &i, "{} warm={}", cfg.name, warm);
                prop_assert_eq!(Ok(r), g, "{} warm={} (guarded)", cfg.name, warm);
            }
        }
    }

    #[test]
    fn result_accounting_is_consistent(seed in 0u64..5000) {
        let t = random_trace(seed, 300);
        let r = Simulator::simulate_reference(PipelineConfig::four_way(), None, &t);
        prop_assert_eq!(r.instructions, t.len() as u64);
        prop_assert_eq!(r.unaligned_accesses, t.unaligned_vector_accesses());
        prop_assert!(r.predictor.mispredicts <= r.predictor.branches);
        prop_assert!(r.l1.miss_ratio() <= 1.0);
        prop_assert!(r.ipc() > 0.0);
    }

    #[test]
    fn attribution_conserves_on_every_config(seed in 0u64..5000) {
        // The one-bucket-per-cycle invariant: on arbitrary programs and
        // every Table II configuration, the attributed buckets sum exactly
        // to the replay's cycle count, cold and warm.
        let t = random_trace(seed, 300);
        let image = ReplayImage::build(&t);
        for cfg in PipelineConfig::table_ii() {
            for pass in 0..2 {
                let warmup = (pass == 1).then_some(&image);
                let r = Simulator::simulate_image(cfg.clone(), warmup, &image);
                prop_assert!(
                    r.breakdown.conserves(r.cycles),
                    "{} pass {}: {} attributed vs {} cycles",
                    cfg.name, pass, r.breakdown.total(), r.cycles
                );
            }
        }
    }

    #[test]
    fn ranges_overlap_matches_unbounded_arithmetic(
        a in prop_oneof![0u64..512, u64::MAX - 512..=u64::MAX],
        alen in 0u64..64,
        b in prop_oneof![0u64..512, u64::MAX - 512..=u64::MAX],
        blen in 0u64..64,
    ) {
        // Oracle in u128, where `a + alen` cannot wrap: intervals
        // [a, a+alen) and [b, b+blen) intersect. Boundary addresses at the
        // top of the 64-bit space are drawn explicitly — the case the old
        // end-address formulation got wrong.
        let (a128, b128) = (u128::from(a), u128::from(b));
        let expected = a128 < b128 + u128::from(blen) && b128 < a128 + u128::from(alen)
            && alen > 0 && blen > 0;
        prop_assert_eq!(ranges_overlap(a, alen, b, blen), expected);
        prop_assert_eq!(ranges_overlap(b, blen, a, alen), expected, "symmetry");
    }
}

proptest! {
    /// The builder's block index finds exactly the dependences the old
    /// linear store-queue scan found, in the same order. Streams mix
    /// widths 1/2/4/16 over three 81-byte regions — low addresses, the
    /// same blocks 64 KiB up (which share the index's buckets) and the
    /// address-space top — so accesses straddle 16-byte blocks and the
    /// top, addresses repeat, buckets alias and the 64-store window
    /// evicts.
    #[test]
    fn block_index_deps_equal_the_linear_scan(
        stream in proptest::collection::vec(
            (
                0u8..5,
                0usize..4,
                prop_oneof![0u64..=80, 65_536u64..=65_616, u64::MAX - 80..=u64::MAX],
            ),
            200..400,
        ),
    ) {
        let accesses: Vec<MemRef> = stream
            .iter()
            .map(|&(kind, width, addr)| MemRef {
                addr,
                bytes: [1, 2, 4, 16][width],
                kind: if kind < 3 { MemKind::Store } else { MemKind::Load },
            })
            .collect();
        let stores = accesses.iter().filter(|m| m.kind == MemKind::Store).count();
        prop_assert!(stores > STORE_QUEUE_TRACK, "{} stores", stores);
        prop_assert!(accesses.iter().any(|m| m.addr % 16 + u64::from(m.bytes) > 16));

        let img = ReplayImage::build(&access_trace(&accesses));
        let built: Vec<Vec<u32>> = (0..img.memory_records())
            .map(|c| img.mem_deps_at(c).to_vec())
            .collect();
        let expected = linear_scan_deps(&accesses);
        prop_assert!(expected.iter().any(|d| d.len() > 1), "some load has several producers");
        prop_assert_eq!(built, expected);
    }
}
