//! The static image audit rules prove they fire: each seeded corruption
//! (via [`AuditSabotage`], the deterministic test-only mutators of the
//! image) must be caught by exactly the rule that owns the violated
//! invariant, with its named diagnostic — plus clean-pass checks that
//! images built from every kernel × variant audit with zero diagnostics.

use proptest::prelude::*;
use valign_analyze::rules::costmodel;
use valign_analyze::rules::{image_dep_oracle, image_structure};
use valign_analyze::{analyze_image, Diagnostic, ImageCtx, Severity, TraceCtx};
use valign_core::workload::{trace_kernel, KernelId};
use valign_isa::{DynInstr, Gpr, MemKind, MemRef, Opcode, Reg, SrcRef, StaticId, Trace};
use valign_kernels::util::Variant;
use valign_pipeline::image::NO_DEF;
use valign_pipeline::{AuditSabotage, PipelineConfig, ReplayImage, RunGuards, Simulator};
use valign_vm::{Vm, MEM_BASE};

fn g(i: u8) -> Reg {
    Reg::Gpr(Gpr::new(i))
}

/// A small trace with ALU work and genuine store→load dependences, so
/// every sabotage kind has a site to bite: interleaved same-address
/// stores and loads give each load a nonempty dependence list.
fn synthetic_trace() -> Trace {
    let mut t = Trace::new();
    t.push(DynInstr::alu(Opcode::Li, StaticId(1), Some(g(0)), &[]));
    for _ in 0..3 {
        t.push(DynInstr::mem(
            Opcode::Stw,
            StaticId(2),
            None,
            &[SrcRef::produced_by(g(0), 0)],
            MemRef {
                addr: MEM_BASE + 0x40,
                bytes: 4,
                kind: MemKind::Store,
            },
        ));
        t.push(DynInstr::mem(
            Opcode::Lwz,
            StaticId(3),
            Some(g(1)),
            &[],
            MemRef {
                addr: MEM_BASE + 0x40,
                bytes: 4,
                kind: MemKind::Load,
            },
        ));
    }
    t
}

fn audit(image: &ReplayImage) -> Vec<Diagnostic> {
    let ctx = ImageCtx::new(image, "seeded", "image");
    analyze_image(&ctx)
}

fn errors_of<'a>(diags: &'a [Diagnostic], rule: &str) -> Vec<&'a Diagnostic> {
    diags
        .iter()
        .filter(|d| d.rule == rule && d.severity == Severity::Error)
        .collect()
}

#[test]
fn clean_synthetic_image_audits_clean() {
    let image = ReplayImage::build(&synthetic_trace());
    assert!(audit(&image).is_empty());
}

#[test]
fn mask_popcount_lie_is_caught_by_image_structure() {
    let mut image = ReplayImage::build(&synthetic_trace());
    assert!(image.sabotage_audit(AuditSabotage::MaskPopcountLie));
    let diags = audit(&image);
    let errs = errors_of(&diags, image_structure::RULE);
    assert!(
        errs.iter()
            .any(|d| d.message.contains("memory presence popcount")),
        "bitset rule must report the popcount mismatch: {diags:?}"
    );
    assert!(
        errs.iter()
            .any(|d| d.message.contains("flag disagrees with the presence mask")),
        "and the per-record flag/mask disagreement: {diags:?}"
    );
}

#[test]
fn dependence_cycle_is_caught_by_image_dep_oracle() {
    let mut image = ReplayImage::build(&synthetic_trace());
    assert!(image.sabotage_audit(AuditSabotage::DepCycle));
    let diags = audit(&image);
    let errs = errors_of(&diags, image_dep_oracle::RULE);
    assert_eq!(errs.len(), 1, "diags: {diags:?}");
    assert!(errs[0].message.contains("forward (cyclic) dependence"));
    assert!(errs[0].instr_index.is_some(), "names the offending load");
}

#[test]
fn out_of_range_dependence_is_caught_by_image_dep_oracle() {
    let mut image = ReplayImage::build(&synthetic_trace());
    assert!(image.sabotage_audit(AuditSabotage::DepOutOfRange));
    let diags = audit(&image);
    let errs = errors_of(&diags, image_dep_oracle::RULE);
    assert_eq!(errs.len(), 1, "diags: {diags:?}");
    assert!(
        errs[0].message.contains("out of bounds"),
        "{}",
        errs[0].message
    );
}

#[test]
fn truncated_side_array_is_caught_by_image_structure() {
    let mut image = ReplayImage::build(&synthetic_trace());
    assert!(image.sabotage_audit(AuditSabotage::SideArrayTruncate));
    let diags = audit(&image);
    let errs = errors_of(&diags, image_structure::RULE);
    assert!(
        errs.iter()
            .any(|d| d.message.contains("side array sids") && d.message.contains("truncated")),
        "diags: {diags:?}"
    );
}

/// The image stores producers as 16-bit back-distances and drops one
/// farther back than `u16::MAX`. That is exact because no in-flight
/// window reaches so far: every replay path agrees with the reference
/// walker, and the cost model stays sound.
#[test]
fn producers_beyond_sixteen_bits_replay_exactly_and_stay_sound() {
    let mut vm = Vm::new();
    let x = vm.li(1);
    let far = usize::from(u16::MAX);
    for _ in 1..far {
        let _ = vm.li(0);
    }
    let _ = vm.addi(x, 1); // record 65,535: its producer is exactly u16::MAX back
    for _ in far + 1..70_000 {
        let _ = vm.li(0);
    }
    let _ = vm.addi(x, 2); // record 70,000: 70,000 back
    let trace = vm.take_trace();
    let image = ReplayImage::build(&trace);
    assert_eq!(trace.instrs()[far].source_defs().next(), Some(0));
    assert_eq!(trace.instrs()[70_000].source_defs().next(), Some(0));
    assert_eq!(image.src_defs()[far][0], u16::MAX);
    assert_eq!(image.src_defs()[70_000][0], NO_DEF);
    image.validate().expect("clean image");

    for cfg in PipelineConfig::table_ii() {
        let reference = Simulator::simulate_reference(cfg.clone(), Some(&trace), &trace);
        let plain = Simulator::simulate_image(cfg.clone(), Some(&image), &image);
        let guarded =
            Simulator::try_simulate_image(cfg.clone(), Some(&image), &image, &RunGuards::default());
        assert_eq!(plain, reference, "{}", cfg.name);
        assert_eq!(guarded, Ok(reference), "{}", cfg.name);
    }
    let ctx = TraceCtx::new(&trace, "far-producer", Variant::Scalar, None);
    let diags = costmodel::check(&ctx, &image);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn every_kernel_variant_image_audits_clean() {
    for &kernel in KernelId::ALL {
        for &variant in Variant::ALL {
            let image = ReplayImage::build(&trace_kernel(kernel, variant, 2, 7));
            let diags = audit(&image);
            assert!(diags.is_empty(), "{kernel}/{variant}: {diags:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Clean images audit clean at any workload size and seed — the audit
    /// rules re-derive invariants the builder guarantees, so the only way
    /// this fires is a builder/rule disagreement.
    #[test]
    fn clean_images_produce_zero_audit_diagnostics(
        execs in 2usize..5,
        seed in any::<u64>(),
        kernel_idx in 0usize..KernelId::ALL.len(),
        variant_idx in 0usize..Variant::ALL.len(),
    ) {
        let kernel = KernelId::ALL[kernel_idx];
        let variant = Variant::ALL[variant_idx];
        let image = ReplayImage::build(&trace_kernel(kernel, variant, execs, seed));
        let diags = audit(&image);
        prop_assert!(diags.is_empty(), "{kernel}/{variant}: {diags:?}");
    }
}
