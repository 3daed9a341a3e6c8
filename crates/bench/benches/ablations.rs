//! Ablation benches for the design choices called out in DESIGN.md.
//!
//! 1. **Two-bank interleaved vs single-banked L1** — the paper's Fig. 7
//!    hardware reads both lines of a line-crossing unaligned access in
//!    parallel; shipping designs that serialise the second access lose.
//! 2. **Realignment-token hoisting (Fig. 2a vs 2b)** — reusing the `lvsl`
//!    mask across rows when the stride allows it.
//! 3. **Miss-queue depth (MSHRs)** — memory-level parallelism available to
//!    the scalar kernels.
//! 4. **Store path** — the Fig. 5 load-merge-store software sequence vs
//!    the hardware `stvxu`.
//!
//! All four run against one shared [`SimContext`]; the custom VM traces of
//! ablations 2 and 3 enter the batch runner as shared (store-bypassing)
//! jobs, and ablation 3 replays cold on purpose.

use std::sync::Arc;
use valign_bench::{execs, SEED};
use valign_cache::{BankScheme, RealignConfig};
use valign_core::sim::{SimJob, TraceKey};
use valign_core::workload::KernelId;
use valign_core::SimContext;
use valign_h264::BlockSize;
use valign_isa::Trace;
use valign_kernels::sad::SadArgs;
use valign_kernels::util::{vload_unaligned, Variant};
use valign_pipeline::PipelineConfig;
use valign_vm::Vm;

fn main() {
    let n = execs(200);
    let ctx = SimContext::new(valign_bench::threads());
    banking(&ctx, n);
    hoisting(&ctx, n);
    mshrs(&ctx, n);
    store_path(&ctx, n);
    println!("{}", ctx.scorecard());
}

fn banking(ctx: &SimContext, n: usize) {
    println!("== Ablation 1: two-bank interleaved vs single-banked L1 ==");
    println!("(unaligned luma kernel; line-crossing accesses serialise on a single bank)\n");
    let key = TraceKey {
        kernel: KernelId::Luma(BlockSize::B16x16),
        variant: Variant::Unaligned,
        execs: n,
        seed: SEED,
    };
    let schemes = [
        ("two-bank interleaved", BankScheme::TwoBankInterleaved),
        ("single bank", BankScheme::SingleBank),
    ];
    let jobs = schemes
        .iter()
        .map(|&(_, banks)| {
            let realign = RealignConfig {
                load_extra: 1,
                store_extra: 2,
                banks,
            };
            SimJob::keyed(key, PipelineConfig::four_way().with_realign(realign))
        })
        .collect();
    let results = ctx.run_batch("ablation-banking", jobs);
    for ((name, _), r) in schemes.iter().zip(&results) {
        println!(
            "  {name:<22} {:>10} cycles ({} split accesses, +{} realign cycles)",
            r.cycles, r.split_accesses, r.realign_penalty_cycles
        );
    }
    println!();
}

/// A SAD 16x16 whose altivec realignment does or does not hoist the
/// `lvsl` token out of the row loop (Fig. 2b vs Fig. 2a).
fn sad_altivec_hoisting(vm: &mut Vm, args: &SadArgs, hoist: bool) {
    let i0 = vm.li(0);
    let i15 = vm.li(15);
    let ones = vm.vspltisb(-1);
    let vzero = vm.vxor(ones, ones);
    let ref0 = vm.li(args.refp as i64);
    let hoisted = hoist.then(|| vm.lvsl(i0, ref0));
    let mut acc = vzero;
    let mut crow = vm.li(args.cur as i64);
    let mut rrow = ref0;
    let lp = vm.label();
    for y in 0..args.h {
        let a = vm.lvx(i0, crow);
        let b = vload_unaligned(vm, Variant::Altivec, i0, i15, rrow, hoisted);
        let hi = vm.vmaxub(a, b);
        let lo = vm.vminub(a, b);
        let diff = vm.vsububm(hi, lo);
        acc = vm.vsum4ubs(diff, acc);
        crow = vm.addi(crow, args.cur_stride);
        rrow = vm.addi(rrow, args.ref_stride);
        let c = vm.cmpwi(crow, 0);
        vm.bc(c, y + 1 != args.h, lp);
    }
    let total = vm.vsumsws(acc, vzero);
    let i12 = vm.li(12);
    let sbase = vm.li(args.scratch as i64);
    vm.stvewx(total, i12, sbase);
    let _ = vm.lwz(sbase, 12);
}

fn hoisting(ctx: &SimContext, n: usize) {
    println!("== Ablation 2: realignment-token hoisting (Fig. 2b vs Fig. 2a) ==");
    println!("(altivec SAD 16x16; the aligned stride lets lvsl move out of the loop)\n");
    let cases = [
        ("hoisted lvsl (Fig. 2b)", true),
        ("per-row lvsl (Fig. 2a)", false),
    ];
    let traces: Vec<Arc<Trace>> = cases
        .iter()
        .map(|&(_, hoist)| {
            let mut vm = Vm::new();
            let buf = vm.mem_mut().alloc(512 * 512, 16);
            for i in 0..512 * 512 {
                vm.mem_mut().write_u8(buf + i, (i * 31 % 251) as u8);
            }
            let scratch = vm.mem_mut().alloc(16, 16);
            vm.clear_trace();
            for e in 0..n as u64 {
                let args = SadArgs {
                    cur: buf + (e % 64) * 512 + 64,
                    cur_stride: 512,
                    refp: buf + (e % 61) * 512 + 128 + (e * 7 % 16),
                    ref_stride: 512,
                    scratch,
                    w: 16,
                    h: 16,
                };
                sad_altivec_hoisting(&mut vm, &args, hoist);
            }
            vm.take_shared_trace()
        })
        .collect();
    let jobs = traces
        .iter()
        .map(|t| SimJob::shared(Arc::clone(t), PipelineConfig::four_way()))
        .collect();
    let results = ctx.run_batch("ablation-hoisting", jobs);
    for (((name, _), trace), r) in cases.iter().zip(&traces).zip(&results) {
        println!(
            "  {name:<24} {:>8} instructions, {:>9} cycles",
            trace.len(),
            r.cycles
        );
    }
    println!();
}

fn mshrs(ctx: &SimContext, n: usize) {
    println!("== Ablation 3: miss-queue depth (MSHRs) ==");
    println!("(strided scan over a 16 MB region — one miss per line, 8-way machine)\n");
    // The H.264 kernels are largely L1-resident; memory-level parallelism
    // shows on a cold strided sweep like a reference-frame prefetch pass.
    let mut vm = Vm::new();
    let buf = vm.mem_mut().alloc(16 << 20, 128);
    let base = vm.li(buf as i64);
    vm.clear_trace();
    let i0 = vm.li(0);
    for i in 0..(n as i64 * 8) {
        // Pseudo-random distinct lines within the region.
        let line = (i * 131) % ((16 << 20) / 128);
        let p = vm.addi(base, line * 128);
        let _ = vm.lvx(i0, p);
    }
    let trace = vm.take_shared_trace();
    let depths = [1u32, 2, 4, 8];
    let jobs = depths
        .iter()
        .map(|&miss_max| {
            let mut cfg = PipelineConfig::eight_way();
            cfg.miss_max = miss_max;
            // Cold caches each time: this ablation is about the misses.
            SimJob::shared(Arc::clone(&trace), cfg).cold()
        })
        .collect();
    let results = ctx.run_batch("ablation-mshrs", jobs);
    for (miss_max, r) in depths.iter().zip(&results) {
        println!(
            "  miss_max={miss_max:<2} {:>10} cycles (IPC {:.2})",
            r.cycles,
            r.ipc()
        );
    }
    println!();
}

fn store_path(ctx: &SimContext, n: usize) {
    println!("== Ablation 4: store path — Fig. 5 software sequence vs stvxu ==");
    println!("(luma 8x8, whose narrow stores need the partial-store idiom)\n");
    let variants = [Variant::Altivec, Variant::Unaligned];
    let key = |variant| TraceKey {
        kernel: KernelId::Luma(BlockSize::B8x8),
        variant,
        execs: n,
        seed: SEED,
    };
    let jobs = variants
        .iter()
        .map(|&variant| SimJob::keyed(key(variant), PipelineConfig::four_way()))
        .collect();
    let results = ctx.run_batch("ablation-store", jobs);
    for (&variant, r) in variants.iter().zip(&results) {
        println!(
            "  {:<10} {:>8} instructions, {:>9} cycles, {} unaligned accesses",
            variant.label(),
            ctx.store().prepared(key(variant)).image.len(),
            r.cycles,
            r.unaligned_accesses
        );
    }
    println!();
}
