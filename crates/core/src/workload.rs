//! Kernel workload driver: builds VM memory images from synthetic video
//! content and traces repeated kernel executions.
//!
//! The paper's methodology traces "1000 executions of each kernel" over
//! real decoder data; here each execution draws its block position,
//! motion-vector offset and (for chroma) sub-pel fraction from the
//! synthetic content models, so pointer alignments are distributed as in
//! Fig. 4 and the data footprint exceeds the D-L1 (realistic miss rates).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use valign_h264::mb::BlockSize;
use valign_isa::Trace;
use valign_kernels::chroma::{chroma_bilin, ChromaArgs};
use valign_kernels::idct::{idct4x4, idct4x4_matrix, idct8x8, setup_matrix_consts, IdctArgs};
use valign_kernels::luma::{luma_hv, McArgs};
use valign_kernels::sad::{sad, SadArgs};
use valign_kernels::util::Variant;
use valign_pipeline::{ImageBuilder, ReplayImage};
use valign_vm::Vm;

/// The kernels of the paper's evaluation (Fig. 8's x-axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelId {
    /// Luma half-pel interpolation at a block size.
    Luma(BlockSize),
    /// Chroma bilinear interpolation (8x8 or 4x4).
    Chroma(BlockSize),
    /// Factorised 4x4 inverse transform.
    Idct4x4,
    /// Matrix-form 4x4 inverse transform.
    Idct4x4Matrix,
    /// High-profile 8x8 inverse transform.
    Idct8x8,
    /// Sum of absolute differences at a block size.
    Sad(BlockSize),
}

impl KernelId {
    /// Every kernel point evaluated in Fig. 8, in plotting order.
    pub const ALL: &'static [KernelId] = &[
        KernelId::Luma(BlockSize::B16x16),
        KernelId::Luma(BlockSize::B8x8),
        KernelId::Luma(BlockSize::B4x4),
        KernelId::Chroma(BlockSize::B8x8),
        KernelId::Chroma(BlockSize::B4x4),
        KernelId::Idct8x8,
        KernelId::Idct4x4,
        KernelId::Idct4x4Matrix,
        KernelId::Sad(BlockSize::B16x16),
        KernelId::Sad(BlockSize::B8x8),
        KernelId::Sad(BlockSize::B4x4),
    ];

    /// The kernels of Table III, with the paper's row labels.
    pub const TABLE_III: &'static [(KernelId, &'static str)] = &[
        (KernelId::Luma(BlockSize::B16x16), "LUMA 16x16"),
        (KernelId::Chroma(BlockSize::B8x8), "CHROMA 8x8"),
        (KernelId::Idct4x4, "IDCT 4x4"),
        (KernelId::Idct4x4Matrix, "IDCT 4x4 mat"),
        (KernelId::Sad(BlockSize::B16x16), "SAD 16x16"),
    ];

    /// Display label ("luma16x16", "idct4x4_matrix", …).
    pub fn label(self) -> String {
        match self {
            KernelId::Luma(b) => format!("luma{}", b.label()),
            KernelId::Chroma(b) => format!("chroma{}", b.label()),
            KernelId::Idct4x4 => "idct4x4".to_string(),
            KernelId::Idct4x4Matrix => "idct4x4_matrix".to_string(),
            KernelId::Idct8x8 => "idct8x8".to_string(),
            KernelId::Sad(b) => format!("sad{}", b.label()),
        }
    }

    /// Inverse of [`KernelId::label`], for CLI argument parsing.
    pub fn from_label(label: &str) -> Option<KernelId> {
        KernelId::ALL.iter().copied().find(|k| k.label() == label)
    }
}

impl std::fmt::Display for KernelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Size of the square texture region kernels read from; two of these (a
/// "current" and a "reference" area) exceed the 32 KB D-L1, giving
/// realistic miss behaviour.
const AREA: usize = 256;
/// Stride of the texture region (16-byte aligned).
const STRIDE: usize = AREA + 32;

/// A reusable workload: a VM whose memory holds textured source areas and
/// destination/scratch buffers.
pub struct Workload {
    vm: Vm,
    /// Address of pixel (0,0) of the reference area (16-byte aligned).
    src_base: u64,
    /// Address of pixel (0,0) of the current area.
    cur_base: u64,
    dst_base: u64,
    scratch: u64,
    coeff_base: u64,
    pred_base: u64,
    matrix_pool: u64,
    rng: SmallRng,
}

/// Number of pre-initialised coefficient blocks cycled by the IDCT
/// workloads.
const COEFF_SLOTS: u64 = 64;

impl Workload {
    /// Builds a workload image seeded deterministically.
    pub fn new(seed: u64) -> Self {
        let mut vm = Vm::new();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_cafe);

        let alloc_area = |vm: &mut Vm, rng: &mut SmallRng| {
            // Guard rows above/below so 6-tap filters can read outside.
            let buf = vm.mem_mut().alloc(STRIDE * (AREA + 16), 16);
            for i in 0..(STRIDE * (AREA + 16)) as u64 {
                vm.mem_mut().write_u8(buf + i, rng.gen());
            }
            buf + 8 * STRIDE as u64
        };
        let src_base = alloc_area(&mut vm, &mut rng);
        let cur_base = alloc_area(&mut vm, &mut rng);
        let dst_base = vm.mem_mut().alloc(STRIDE * AREA, 16);
        let scratch = vm.mem_mut().alloc(32 * 32, 16);
        // Coefficient slots: plausible dequantised residuals.
        let coeff_base = vm.mem_mut().alloc((COEFF_SLOTS as usize) * 128, 16);
        for i in 0..COEFF_SLOTS * 64 {
            let v: i16 = rng.gen_range(-200..=200);
            vm.mem_mut().write_u16(coeff_base + 2 * i, v as u16);
        }
        let pred_base = alloc_area(&mut vm, &mut rng);
        let matrix_pool = setup_matrix_consts(&mut vm);
        vm.clear_trace();
        Workload {
            vm,
            src_base,
            cur_base,
            dst_base,
            scratch,
            coeff_base,
            pred_base,
            matrix_pool,
            rng,
        }
    }

    /// Runs `execs` executions of `kernel` in `variant`, returning the
    /// dynamic trace of exactly the kernel code (workload setup is not
    /// traced).
    pub fn trace(&mut self, kernel: KernelId, variant: Variant, execs: usize) -> Trace {
        self.vm.clear_trace();
        for e in 0..execs {
            self.run_once(kernel, variant, e);
        }
        self.vm.take_trace()
    }

    /// [`Workload::trace`] compiled straight into its replay image: the
    /// records of each kernel execution go into an [`ImageBuilder`] as
    /// soon as it returns, so only one execution's records are ever
    /// buffered. The image equals `ReplayImage::build(&self.trace(..))`
    /// on the same workload.
    pub fn trace_image(&mut self, kernel: KernelId, variant: Variant, execs: usize) -> ReplayImage {
        self.vm.clear_trace();
        let mut builder = ImageBuilder::new();
        for e in 0..execs {
            self.run_once(kernel, variant, e);
            self.vm.drain_records(|record| builder.push(record));
        }
        builder.finish()
    }

    /// Exclusive upper bound of the VM memory image. All allocation
    /// happens in [`Workload::new`], so every effective address in a trace
    /// of this workload lies in `[valign_vm::MEM_BASE, mem_limit())` — the
    /// bound the analyzer's trace well-formedness rule checks against.
    pub fn mem_limit(&self) -> u64 {
        self.vm.mem().limit()
    }

    fn block_pos(&mut self, edge: usize) -> (u64, u64) {
        // Grid-aligned block position inside the area.
        let bx = self.rng.gen_range(0..(AREA - 32) / edge) * edge + 16;
        let by = self.rng.gen_range(0..(AREA - 32) / edge) * edge + 16;
        (bx as u64, by as u64)
    }

    fn run_once(&mut self, kernel: KernelId, variant: Variant, _exec: usize) {
        let stride = STRIDE as i64;
        match kernel {
            KernelId::Luma(b) => {
                let edge = b.pixels();
                let (bx, by) = self.block_pos(edge);
                // Unpredictable source offset (integer MV part), offsets
                // spread over 0..16 as in Fig. 4(a).
                let mvx = self.rng.gen_range(-12i64..=12);
                let mvy = self.rng.gen_range(-12i64..=12);
                let src =
                    (self.src_base as i64 + (by as i64 + mvy) * stride + bx as i64 + mvx) as u64;
                // The grid-aligned bx keeps the store offset legal: it is
                // a multiple of the block edge within a 16-byte word.
                let dst = self.dst_base + (by % 128) * STRIDE as u64 + bx;
                let args = McArgs {
                    src,
                    src_stride: stride,
                    dst,
                    dst_stride: stride,
                    scratch: self.scratch,
                    w: edge,
                    h: edge,
                };
                luma_hv(&mut self.vm, variant, &args);
            }
            KernelId::Chroma(b) => {
                // Chroma block sizes are used directly (8x8 / 4x4), as in
                // the paper's kernel set.
                let edge = b.pixels();
                let (bx, by) = self.block_pos(edge);
                let mvx = self.rng.gen_range(-10i64..=10);
                let mvy = self.rng.gen_range(-10i64..=10);
                let src =
                    (self.src_base as i64 + (by as i64 + mvy) * stride + bx as i64 + mvx) as u64;
                let dst = self.dst_base + (by % 128) * STRIDE as u64 + bx;
                let args = ChromaArgs {
                    src,
                    src_stride: stride,
                    dst,
                    dst_stride: stride,
                    w: edge,
                    h: edge,
                    dx: self.rng.gen_range(0..8),
                    dy: self.rng.gen_range(0..8),
                };
                chroma_bilin(&mut self.vm, variant, &args);
            }
            KernelId::Idct4x4 | KernelId::Idct4x4Matrix | KernelId::Idct8x8 => {
                let n = if kernel == KernelId::Idct8x8 { 8 } else { 4 };
                let slot = self.rng.gen_range(0..COEFF_SLOTS);
                let (bx, by) = self.block_pos(n);
                let pred = self.pred_base + by * STRIDE as u64 + bx;
                let dst = self.dst_base + (by % 128) * STRIDE as u64 + bx;
                let args = IdctArgs {
                    coeffs: self.coeff_base + slot * 128,
                    pred,
                    pred_stride: stride,
                    dst,
                    dst_stride: stride,
                };
                match kernel {
                    KernelId::Idct4x4 => idct4x4(&mut self.vm, variant, &args),
                    KernelId::Idct4x4Matrix => {
                        idct4x4_matrix(&mut self.vm, variant, &args, self.matrix_pool);
                    }
                    _ => idct8x8(&mut self.vm, variant, &args),
                }
            }
            KernelId::Sad(b) => {
                let edge = b.pixels();
                let (bx, by) = self.block_pos(edge);
                // Candidate displacement inside a +/-16 search window.
                let dx = self.rng.gen_range(-16i64..=16);
                let dy = self.rng.gen_range(-16i64..=16);
                let args = SadArgs {
                    cur: self.cur_base + by * STRIDE as u64 + bx,
                    cur_stride: stride,
                    refp: (self.src_base as i64 + (by as i64 + dy) * stride + bx as i64 + dx)
                        as u64,
                    ref_stride: stride,
                    scratch: self.scratch,
                    w: edge,
                    h: edge,
                };
                let _ = sad(&mut self.vm, variant, &args);
            }
        }
    }
}

/// Traces `execs` executions of a kernel on a fresh deterministic
/// workload.
pub fn trace_kernel(kernel: KernelId, variant: Variant, execs: usize, seed: u64) -> Trace {
    Workload::new(seed).trace(kernel, variant, execs)
}

/// The replay image of [`trace_kernel`]'s trace, compiled as the VM emits
/// it ([`Workload::trace_image`]) without staging the trace.
pub fn image_kernel(kernel: KernelId, variant: Variant, execs: usize, seed: u64) -> ReplayImage {
    Workload::new(seed).trace_image(kernel, variant, execs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use valign_isa::InstrClass;

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            KernelId::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), KernelId::ALL.len());
        assert_eq!(KernelId::Luma(BlockSize::B16x16).to_string(), "luma16x16");
    }

    #[test]
    fn traces_are_deterministic() {
        let a = trace_kernel(KernelId::Sad(BlockSize::B8x8), Variant::Altivec, 5, 42);
        let b = trace_kernel(KernelId::Sad(BlockSize::B8x8), Variant::Altivec, 5, 42);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.mix(), b.mix());
        assert_ne!(a.len(), 0);
        // For 16x16 the current block is always grid-aligned, so the code
        // shape (and instruction count) is seed-independent.
        let c = trace_kernel(KernelId::Sad(BlockSize::B16x16), Variant::Altivec, 5, 43);
        let d = trace_kernel(KernelId::Sad(BlockSize::B16x16), Variant::Altivec, 5, 44);
        assert_eq!(c.mix().total(), d.mix().total());
    }

    #[test]
    fn every_kernel_variant_traces_nonempty() {
        for &kernel in KernelId::ALL {
            for &variant in Variant::ALL {
                let t = trace_kernel(kernel, variant, 2, 7);
                assert!(!t.is_empty(), "{kernel} {variant}");
                let mix = t.mix();
                if variant == Variant::Scalar {
                    assert_eq!(mix.vector_total(), 0, "{kernel} scalar must be scalar");
                } else {
                    assert!(mix.vector_total() > 0, "{kernel} {variant} must vectorise");
                }
            }
        }
    }

    #[test]
    fn unaligned_reduces_instructions_on_mc_kernels() {
        for kernel in [
            KernelId::Luma(BlockSize::B16x16),
            KernelId::Luma(BlockSize::B4x4),
            KernelId::Chroma(BlockSize::B8x8),
            KernelId::Sad(BlockSize::B16x16),
        ] {
            let av = trace_kernel(kernel, Variant::Altivec, 20, 11).len();
            let un = trace_kernel(kernel, Variant::Unaligned, 20, 11).len();
            assert!(un < av, "{kernel}: unaligned {un} vs altivec {av}");
        }
    }

    #[test]
    fn luma_source_offsets_cover_the_range() {
        let t = trace_kernel(KernelId::Luma(BlockSize::B8x8), Variant::Unaligned, 64, 3);
        let mut seen = [false; 16];
        for i in t.iter() {
            if let Some(m) = i.mem {
                if i.op.is_unaligned_capable() {
                    seen[m.quad_offset() as usize] = true;
                }
            }
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert!(covered >= 12, "offsets covered: {covered}");
    }

    #[test]
    fn scalar_traces_have_no_vector_class() {
        let t = trace_kernel(KernelId::Idct8x8, Variant::Scalar, 3, 9);
        let m = t.mix();
        assert_eq!(m.get(InstrClass::VecLoad), 0);
        assert_eq!(m.get(InstrClass::VecPerm), 0);
        assert!(m.get(InstrClass::IntAlu) > 0);
    }
}
