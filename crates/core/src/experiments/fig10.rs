//! Fig. 10 — profile of the complete H.264/AVC decoder.
//!
//! The paper estimates application impact by profiling the decoder per
//! stage and scaling the SIMD stages by kernel speed-ups. This driver
//! performs the same composition explicitly:
//!
//! 1. per-call cycle costs of every SIMD kernel are *measured* on the
//!    4-way configuration (with the proposed +1/+2-cycle realignment
//!    hardware) for each of the three implementations;
//! 2. the synthetic decoder model counts per-stage work for each test
//!    sequence;
//! 3. work × cost yields the per-stage execution-time breakdown
//!    (MotionComp, Inv.Transform, Deb.Filter, CABAC, VideoOut, OS,
//!    Others) and the application-level speed-ups.

use super::ExperimentError;
use crate::sim::{SimContext, SimJob, TraceKey};
use crate::workload::KernelId;
use std::collections::HashMap;
use std::fmt::Write as _;
use valign_cache::RealignConfig;
use valign_h264::decoder::{
    compose, decoder_work, DecoderWork, KernelCycleCosts, ScalarStageCosts, StageBreakdown,
};
use valign_h264::plane::Resolution;
use valign_h264::synth::{plan_frame, Sequence};
use valign_h264::BlockSize;
use valign_kernels::util::Variant;
use valign_pipeline::{Bucket, PipelineConfig, StallBreakdown};

/// Nominal clock of the modelled machine (PowerPC 970-class, 2 GHz).
pub const CLOCK_HZ: f64 = 2.0e9;
/// The experiment reports time for this many decoded frames.
pub const REPORT_FRAMES: u32 = 100;

/// Measured per-call kernel costs for one variant.
#[derive(Debug, Clone)]
pub struct VariantCosts {
    /// Implementation variant.
    pub variant: Variant,
    /// Composable cost table.
    pub kernels: KernelCycleCosts,
    /// Aggregate cycle attribution over the cost-kernel replays.
    pub attribution: StallBreakdown,
    /// Total cycles across the cost-kernel replays (the attribution's
    /// conservation denominator).
    pub attribution_cycles: u64,
}

/// Kernels whose per-call costs feed the decoder composition, in the
/// [`KernelCycleCosts`] field order.
const COST_KERNELS: [KernelId; 7] = [
    KernelId::Luma(BlockSize::B16x16),
    KernelId::Luma(BlockSize::B8x8),
    KernelId::Luma(BlockSize::B4x4),
    KernelId::Chroma(BlockSize::B8x8),
    KernelId::Chroma(BlockSize::B4x4),
    KernelId::Idct4x4,
    KernelId::Idct8x8,
];

/// Measures per-call kernel cycle costs for every variant as one batch
/// (variant-major, [`COST_KERNELS`] order) on a shared context.
pub fn measure_kernel_costs_with(
    ctx: &SimContext,
    execs: usize,
    seed: u64,
) -> Result<Vec<VariantCosts>, ExperimentError> {
    let cfg = PipelineConfig::four_way().with_realign(RealignConfig::proposed());
    let jobs: Vec<SimJob> = Variant::ALL
        .iter()
        .flat_map(|&variant| {
            COST_KERNELS.iter().map(move |&kernel| TraceKey {
                kernel,
                variant,
                execs,
                seed,
            })
        })
        .map(|key| SimJob::keyed(key, cfg.clone()))
        .collect();
    let results = ctx.run_batch("fig10-kernels", jobs);
    Variant::ALL
        .iter()
        .zip(results.chunks_exact(COST_KERNELS.len()))
        .map(|(&variant, chunk)| {
            let mut attribution = StallBreakdown::default();
            let mut attribution_cycles = 0u64;
            for (r, &kernel) in chunk.iter().zip(COST_KERNELS.iter()) {
                if r.cycles == 0 {
                    return Err(ExperimentError::EmptyReplay {
                        context: format!("fig10 {}/{}", kernel.label(), variant.label()),
                    });
                }
                attribution.accumulate(&r.breakdown);
                attribution_cycles += r.cycles;
            }
            let c = |i: usize| chunk[i].cycles as f64 / execs as f64;
            Ok(VariantCosts {
                variant,
                kernels: KernelCycleCosts {
                    luma: [c(0), c(1), c(2)],
                    chroma: [c(3), c(4)],
                    idct4: c(5),
                    idct8: c(6),
                },
                attribution,
                attribution_cycles,
            })
        })
        .collect()
}

/// One decoded-sequence result: stage breakdowns per variant.
#[derive(Debug, Clone)]
pub struct SequenceResult {
    /// The sequence decoded.
    pub seq: Sequence,
    /// Stage breakdowns in variant order (scalar, altivec, unaligned).
    pub breakdowns: Vec<(Variant, StageBreakdown)>,
}

impl SequenceResult {
    /// Total seconds for a variant.
    pub fn seconds(&self, variant: Variant) -> f64 {
        self.breakdowns
            .iter()
            .find(|(v, _)| *v == variant)
            .map(|(_, b)| b.seconds_at(CLOCK_HZ))
            .expect("variant present")
    }
}

/// The full Fig. 10 dataset.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Per-sequence results.
    pub sequences: Vec<SequenceResult>,
    /// The measured kernel costs used for the composition.
    pub costs: Vec<VariantCosts>,
    /// Sequence → position in `sequences`.
    index: HashMap<Sequence, usize>,
}

/// Measures CABAC cycles per bin by tracing the real (scalar, serial)
/// arithmetic-decoder kernel over an encoded bin stream and replaying it
/// on the 4-way machine. The custom VM trace bypasses the context's
/// store (it is not a keyed kernel workload) but the replay still runs —
/// and is timed — as a batch job.
pub fn measure_cabac_cost_with(ctx: &SimContext, bins: usize, seed: u64) -> f64 {
    use valign_h264::cabac::{CabacEncoder, Context};
    use valign_kernels::cabac::{cabac_decode_bins, setup_cabac};
    use valign_vm::Vm;

    let states: Vec<u8> = (0..8).map(|i| (i * 6 % 48) as u8).collect();
    let mut s = seed | 1;
    let bin_values: Vec<u8> = (0..bins)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            u8::from(s % 100 < 30)
        })
        .collect();
    let mut enc = CabacEncoder::new();
    let mut ctxs: Vec<Context> = states.iter().map(|&st| Context::new(st)).collect();
    for (i, &b) in bin_values.iter().enumerate() {
        enc.encode(&mut ctxs[i % states.len()], b);
    }
    let stream = enc.finish();

    let mut vm = Vm::new();
    let layout = setup_cabac(&mut vm, &states, &stream);
    vm.clear_trace();
    let _ = cabac_decode_bins(&mut vm, &layout, bins);
    let trace = vm.take_shared_trace();
    let results = ctx.run_batch(
        "fig10-cabac",
        vec![SimJob::shared(trace, PipelineConfig::four_way())],
    );
    results[0].cycles as f64 / bins as f64
}

/// Runs the Fig. 10 experiment: kernel costs measured with `execs`
/// executions, decoder work accumulated over `frames` planned frames and
/// scaled to [`REPORT_FRAMES`].
pub fn run(execs: usize, frames: u32, seed: u64) -> Result<Fig10, ExperimentError> {
    run_with(&SimContext::new(1), execs, frames, seed)
}

/// [`run`] against a shared context: kernel costs and the CABAC pricing
/// replay come from the context's store and batch runner.
pub fn run_with(
    ctx: &SimContext,
    execs: usize,
    frames: u32,
    seed: u64,
) -> Result<Fig10, ExperimentError> {
    let costs = measure_kernel_costs_with(ctx, execs, seed)?;
    // The CABAC stage is priced from the measured serial decoder kernel
    // rather than a guessed constant (it is scalar in every variant).
    let scalar_costs = ScalarStageCosts {
        cabac_per_bin: measure_cabac_cost_with(ctx, (execs * 30).clamp(500, 20_000), seed),
        ..ScalarStageCosts::default()
    };
    let mut sequences = Vec::new();
    for &seq in Sequence::ALL {
        let mut work = DecoderWork::default();
        for f in 0..frames {
            let plan = plan_frame(seq, Resolution::Hd1088, seed + u64::from(f));
            work.accumulate(&decoder_work(&plan));
        }
        let work = scale_work(&work, f64::from(REPORT_FRAMES) / f64::from(frames));
        let breakdowns = costs
            .iter()
            .map(|vc| (vc.variant, compose(&work, &vc.kernels, &scalar_costs)))
            .collect();
        sequences.push(SequenceResult { seq, breakdowns });
    }
    let index = sequences
        .iter()
        .enumerate()
        .map(|(i, s)| (s.seq, i))
        .collect();
    Ok(Fig10 {
        sequences,
        costs,
        index,
    })
}

fn scale_work(w: &DecoderWork, factor: f64) -> DecoderWork {
    let s = |v: u64| (v as f64 * factor).round() as u64;
    DecoderWork {
        mbs: s(w.mbs),
        intra_mbs: s(w.intra_mbs),
        inter_mbs: s(w.inter_mbs),
        luma_blocks: [
            s(w.luma_blocks[0]),
            s(w.luma_blocks[1]),
            s(w.luma_blocks[2]),
        ],
        chroma8_blocks: s(w.chroma8_blocks),
        chroma4_blocks: s(w.chroma4_blocks),
        chroma2_blocks: s(w.chroma2_blocks),
        idct4_blocks: s(w.idct4_blocks),
        idct8_blocks: s(w.idct8_blocks),
        cabac_bins: s(w.cabac_bins),
        deblock_edges: s(w.deblock_edges),
        pixels: s(w.pixels),
    }
}

impl Fig10 {
    /// Finds a sequence's result via the index.
    pub fn sequence(&self, seq: Sequence) -> Option<&SequenceResult> {
        self.sequences.get(*self.index.get(&seq)?)
    }

    /// Average total seconds across sequences for a variant.
    pub fn average_seconds(&self, variant: Variant) -> f64 {
        self.sequences
            .iter()
            .map(|s| s.seconds(variant))
            .sum::<f64>()
            / self.sequences.len() as f64
    }

    /// Application-level speed-up of `num` over `den`, averaged.
    pub fn speedup(&self, num: Variant, den: Variant) -> f64 {
        self.average_seconds(den) / self.average_seconds(num)
    }

    /// Renders the figure: stacked-stage seconds per sequence and variant.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "FIG. 10: PROFILING OF SCALAR, ALTIVEC AND ALTIVEC-UNALIGNED H.264/AVC DECODER\n\
             (1920x1088, {REPORT_FRAMES} frames at {:.1} GHz; seconds per stage)\n",
            CLOCK_HZ / 1e9
        );
        let _ = writeln!(
            out,
            "{:<12} {:<10} {:>9} {:>10} {:>9} {:>8} {:>9} {:>6} {:>8} {:>8}",
            "sequence",
            "impl",
            "MotionCmp",
            "InvTrans",
            "DebFilt",
            "CABAC",
            "VideoOut",
            "OS",
            "Others",
            "TOTAL"
        );
        let _ = writeln!(out, "{}", "-".repeat(98));
        for sr in &self.sequences {
            for (variant, b) in &sr.breakdowns {
                let sec = |v: f64| v / CLOCK_HZ;
                let _ = writeln!(
                    out,
                    "{:<12} {:<10} {:>9.2} {:>10.2} {:>9.2} {:>8.2} {:>9.2} {:>6.2} {:>8.2} {:>8.2}",
                    sr.seq.label(),
                    variant.label(),
                    sec(b.motion_comp),
                    sec(b.inv_transform),
                    sec(b.deblock),
                    sec(b.cabac),
                    sec(b.video_out),
                    sec(b.os),
                    sec(b.others),
                    b.seconds_at(CLOCK_HZ),
                );
            }
        }
        let _ = writeln!(out, "{}", "-".repeat(98));
        for &v in Variant::ALL {
            let _ = writeln!(
                out,
                "AVG {:<10} {:>8.2} s",
                v.label(),
                self.average_seconds(v)
            );
        }
        let _ = writeln!(
            out,
            "\nKernel attribution over the measured cost kernels (share of replay cycles):"
        );
        for vc in &self.costs {
            let _ = write!(out, "{:<10}", vc.variant.label());
            for b in Bucket::ALL {
                let share = vc.attribution.share(b, vc.attribution_cycles);
                if share >= 0.0005 {
                    let _ = write!(out, " {}={:.1}%", b.label(), share * 100.0);
                }
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "\nApplication speed-ups: altivec vs scalar {:.2}x, unaligned vs altivec {:.2}x, unaligned vs scalar {:.2}x",
            self.speedup(Variant::Altivec, Variant::Scalar),
            self.speedup(Variant::Unaligned, Variant::Altivec),
            self.speedup(Variant::Unaligned, Variant::Scalar),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_costs_are_ordered() {
        let costs = measure_kernel_costs_with(&SimContext::new(1), 8, 42).unwrap();
        assert_eq!(costs.len(), 3);
        // Attribution aggregates conserve against their summed cycles.
        for vc in &costs {
            assert!(
                vc.attribution.conserves(vc.attribution_cycles),
                "{}: {} attributed vs {}",
                vc.variant.label(),
                vc.attribution.total(),
                vc.attribution_cycles
            );
        }
        let by = |v: Variant| costs.iter().find(|c| c.variant == v).unwrap().kernels;
        let s = by(Variant::Scalar);
        let a = by(Variant::Altivec);
        let u = by(Variant::Unaligned);
        // Vectorisation accelerates the big kernels.
        assert!(
            a.luma[0] < s.luma[0],
            "altivec {} vs scalar {}",
            a.luma[0],
            s.luma[0]
        );
        // Unaligned accelerates MC further.
        assert!(u.luma[0] < a.luma[0]);
        assert!(u.chroma[0] <= a.chroma[0] * 1.05);
        // Bigger blocks cost more.
        assert!(s.luma[0] > s.luma[1] && s.luma[1] > s.luma[2]);
    }

    #[test]
    fn decoder_totals_have_the_paper_shape() {
        let f = run(6, 1, 42).unwrap();
        assert_eq!(f.sequences.len(), 4);
        // Every variant total positive; unaligned <= altivec <= scalar.
        for sr in &f.sequences {
            let s = sr.seconds(Variant::Scalar);
            let a = sr.seconds(Variant::Altivec);
            let u = sr.seconds(Variant::Unaligned);
            assert!(s > 0.0);
            assert!(a < s, "{}: altivec {a} vs scalar {s}", sr.seq);
            assert!(u <= a, "{}: unaligned {u} vs altivec {a}", sr.seq);
        }
        // Riverbed benefits least from MC optimisation (few inter MBs).
        let gain = |seq: Sequence| {
            let sr = f.sequence(seq).unwrap();
            sr.seconds(Variant::Scalar) / sr.seconds(Variant::Unaligned)
        };
        assert!(
            gain(Sequence::Riverbed) < gain(Sequence::BlueSky),
            "riverbed {} vs blue_sky {}",
            gain(Sequence::Riverbed),
            gain(Sequence::BlueSky)
        );
        // Application-level gains are modest, as in the paper (~1.2x).
        let app = f.speedup(Variant::Unaligned, Variant::Altivec);
        assert!(app > 1.0 && app < 1.8, "app speedup {app}");
    }

    #[test]
    fn render_has_all_stages_and_sequences() {
        let f = run(4, 1, 3).unwrap();
        let s = f.render();
        for label in [
            "MotionCmp",
            "CABAC",
            "riverbed",
            "rush_hour",
            "AVG",
            "speed-ups",
            "Kernel attribution",
            "useful=",
        ] {
            assert!(s.contains(label), "missing {label}");
        }
    }
}
