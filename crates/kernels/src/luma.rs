//! Luma quarter-pel interpolation kernel — the paper's headline case.
//!
//! Implements the H.264 centre half-pel position (`dx=2, dy=2`): a 6-tap
//! horizontal filter producing 16-bit intermediates, followed by a 6-tap
//! vertical filter over them with 10-bit rounding — the heaviest and most
//! common luma MC path, and the kernel whose source pointer alignment is
//! fully unpredictable (Fig. 4a).
//!
//! Three implementations, as in the paper:
//!
//! * **scalar** — integer loops with branchless clipping;
//! * **altivec** — every tap window is fetched with the software
//!   realignment idiom (hoisted `lvsl` masks, two `lvx` plus a `vperm`
//!   per window per row, as intrinsics-written FFmpeg-era code does);
//! * **unaligned** — each tap window is a single `lvxu`.
//!
//! The horizontal pass spills its 16-bit intermediates to an aligned
//! scratch buffer (register pressure makes this unavoidable in real code);
//! the vertical pass streams them back with a sliding window.

use crate::util::{
    const_u16, realign_mask, scalar_clip8, store_masks, vload_unaligned, vstore_partial, Variant,
};
use valign_vm::{Scalar, Vector, Vm};

/// Arguments for a motion-compensation kernel call.
#[derive(Debug, Clone, Copy)]
pub struct McArgs {
    /// Address of the block's top-left source pixel (any alignment).
    pub src: u64,
    /// Source row stride in bytes (16-byte aligned in the decoder).
    pub src_stride: i64,
    /// Destination address (offset is a multiple of the block width).
    pub dst: u64,
    /// Destination row stride in bytes.
    pub dst_stride: i64,
    /// Caller-provided 16-byte-aligned scratch buffer of at least
    /// `(h + 5) * 32` bytes.
    pub scratch: u64,
    /// Block width (4, 8 or 16).
    pub w: usize,
    /// Block height (4, 8 or 16).
    pub h: usize,
}

impl McArgs {
    fn validate(&self) {
        assert!(
            matches!(self.w, 4 | 8 | 16) && matches!(self.h, 4 | 8 | 16),
            "luma blocks are 4/8/16 on a side"
        );
        assert_eq!(self.scratch % 16, 0, "scratch must be 16-byte aligned");
        assert_eq!(self.dst % 4, 0, "dst must be 4-byte aligned");
        if self.w < 16 {
            assert!(
                (self.dst % 16) + self.w as u64 <= 16,
                "narrow blocks must not straddle a 16-byte boundary"
            );
        } else {
            assert_eq!(self.dst % 16, 0, "16-wide blocks store aligned");
        }
    }
}

/// Runs the centre (half-pel H + half-pel V) luma interpolation in the
/// chosen variant.
///
/// # Panics
///
/// Panics on invalid [`McArgs`] (see its field docs).
pub fn luma_hv(vm: &mut Vm, variant: Variant, args: &McArgs) {
    args.validate();
    match variant {
        Variant::Scalar => luma_hv_scalar(vm, args),
        Variant::Altivec | Variant::Unaligned => luma_hv_vector(vm, variant, args),
    }
}

// ---------------------------------------------------------------------
// Scalar implementation
// ---------------------------------------------------------------------

fn luma_hv_scalar(vm: &mut Vm, args: &McArgs) {
    let (w, h) = (args.w, args.h);
    let rows = h + 5;
    let tmp = args.scratch;

    // Horizontal pass: 6-tap over bytes, 16-bit intermediates to scratch.
    let src0 = vm.li((args.src as i64) - 2 * args.src_stride - 2);
    let tmp0 = vm.li(tmp as i64);
    let mut srow = src0;
    let mut trow = tmp0;
    let hloop = vm.label();
    for ty in 0..rows {
        // Inner columns are unrolled (fixed width), like compiled C.
        for x in 0..w {
            let x = x as i64;
            let e = vm.lbz(srow, x);
            let f = vm.lbz(srow, x + 1);
            let g = vm.lbz(srow, x + 2);
            let hh = vm.lbz(srow, x + 3);
            let i = vm.lbz(srow, x + 4);
            let j = vm.lbz(srow, x + 5);
            let v = filter6_scalar(vm, e, f, g, hh, i, j);
            vm.sth(v, trow, 2 * x);
        }
        srow = vm.addi(srow, args.src_stride);
        trow = vm.addi(trow, 2 * w as i64);
        let c = vm.cmpwi(trow, 0);
        vm.bc(c, ty + 1 != rows, hloop);
    }

    // Vertical pass: 6-tap over the 16-bit intermediates, round, clip.
    let tcur = vm.li(tmp as i64);
    let dst0 = vm.li(args.dst as i64);
    let mut tread = tcur;
    let mut drow = dst0;
    let stride2 = 2 * w as i64;
    let vloop = vm.label();
    for y in 0..h {
        for x in 0..w {
            let x2 = 2 * x as i64;
            let e = vm.lha(tread, x2);
            let f = vm.lha(tread, x2 + stride2);
            let g = vm.lha(tread, x2 + 2 * stride2);
            let hh = vm.lha(tread, x2 + 3 * stride2);
            let i = vm.lha(tread, x2 + 4 * stride2);
            let j = vm.lha(tread, x2 + 5 * stride2);
            let raw = filter6_scalar(vm, e, f, g, hh, i, j);
            let rounded = vm.addi(raw, 512);
            let shifted = vm.srawi(rounded, 10);
            let clipped = scalar_clip8(vm, shifted);
            vm.stb(clipped, drow, x as i64);
        }
        tread = vm.addi(tread, stride2);
        drow = vm.addi(drow, args.dst_stride);
        let c = vm.cmpwi(drow, 0);
        vm.bc(c, y + 1 != h, vloop);
    }
}

/// `e - 5f + 20g + 20h - 5i + j` with shift/add strength reduction, as a
/// compiler emits it.
fn filter6_scalar(
    vm: &mut Vm,
    e: Scalar,
    f: Scalar,
    g: Scalar,
    h: Scalar,
    i: Scalar,
    j: Scalar,
) -> Scalar {
    let s20 = vm.add(g, h);
    let s5 = vm.add(f, i);
    let s1 = vm.add(e, j);
    // 20*s20 = (s20 << 4) + (s20 << 2)
    let a = vm.slwi(s20, 4);
    let b = vm.slwi(s20, 2);
    let t20 = vm.add(a, b);
    // 5*s5 = (s5 << 2) + s5
    let c = vm.slwi(s5, 2);
    let t5 = vm.add(c, s5);
    let d = vm.subf(t5, t20); // t20 - t5
    vm.add(d, s1)
}

// ---------------------------------------------------------------------
// Vector implementation (Altivec and unaligned variants)
// ---------------------------------------------------------------------

/// Hoisted register context shared by the vector passes.
struct VecCtx {
    i0: Scalar,
    i15: Scalar,
    vzero: Vector,
    v20: Vector,
    v5: Vector,
    v1: Vector,
    v512w: Vector,
    v10w: Vector,
}

fn vec_ctx(vm: &mut Vm) -> VecCtx {
    let i0 = vm.li(0);
    let i15 = vm.li(15);
    let ones = vm.vspltisb(-1);
    let vzero = vm.vxor(ones, ones);
    let v20 = const_u16(vm, 20);
    let v5 = vm.vspltish(5);
    let v1 = vm.vspltish(1);
    // 512 = 8 << 6 in each word.
    let v8w = vm.vspltisw(8);
    let v6w = vm.vspltisw(6);
    let v512w = vm.vslw(v8w, v6w);
    let v10w = vm.vspltisw(10);
    VecCtx {
        i0,
        i15,
        vzero,
        v20,
        v5,
        v1,
        v512w,
        v10w,
    }
}

fn luma_hv_vector(vm: &mut Vm, variant: Variant, args: &McArgs) {
    let ctx = vec_ctx(vm);
    let (w, h) = (args.w, args.h);
    let rows = h + 5;
    let wide = w == 16;

    // Six hoisted realignment masks, one per tap offset (Altivec only).
    let masks: [Option<Vector>; 6] = if variant == Variant::Altivec {
        std::array::from_fn(|k| {
            let base = vm.li((args.src as i64) - 2 * args.src_stride - 2 + k as i64);
            Some(realign_mask(vm, ctx.i0, base))
        })
    } else {
        [None; 6]
    };

    // ---- horizontal pass: raw 16-bit intermediates to scratch ----
    // Scratch row layout: hi half at +0, lo half at +16 (wide blocks).
    let src0 = vm.li((args.src as i64) - 2 * args.src_stride - 2);
    let t0 = vm.li(args.scratch as i64);
    let i16r = vm.li(16);
    let mut srow = src0;
    let mut trow = t0;
    let hloop = vm.label();
    for ty in 0..rows {
        // Load the six tap windows.
        let mut win = [ctx.vzero; 6];
        for (k, slot) in win.iter_mut().enumerate() {
            let base = vm.addi(srow, k as i64);
            *slot = vload_unaligned(vm, variant, ctx.i0, ctx.i15, base, masks[k]);
        }
        // High half (pixels 0..8).
        let raw_hi = hfilter_half(vm, &ctx, &win, true);
        vm.stvx(raw_hi, ctx.i0, trow);
        if wide {
            let raw_lo = hfilter_half(vm, &ctx, &win, false);
            vm.stvx(raw_lo, i16r, trow);
        }
        srow = vm.addi(srow, args.src_stride);
        trow = vm.addi(trow, 32);
        let c = vm.cmpwi(trow, 0);
        vm.bc(c, ty + 1 != rows, hloop);
    }

    // ---- vertical pass: 6-tap over intermediates, pack, store ----
    let dst0 = vm.li(args.dst as i64);
    let store_mask = if w < 16 {
        Some(store_masks(vm, w as u8))
    } else {
        None
    };
    // Altivec partial stores hoist the lvsr rotation (dst offset constant
    // down the rows because the stride is 16-byte aligned).
    let dst_rot = if variant == Variant::Altivec && w < 16 {
        Some(vm.lvsr(ctx.i0, dst0))
    } else {
        None
    };

    // Sliding windows over the scratch rows.
    let mut tread = vm.li(args.scratch as i64);
    let mut win_hi: Vec<Vector> = Vec::with_capacity(6);
    let mut win_lo: Vec<Vector> = Vec::with_capacity(6);
    for _ in 0..5 {
        win_hi.push(vm.lvx(ctx.i0, tread));
        if wide {
            win_lo.push(vm.lvx(i16r, tread));
        }
        tread = vm.addi(tread, 32);
    }

    let mut drow = dst0;
    let vloop = vm.label();
    for y in 0..h {
        win_hi.push(vm.lvx(ctx.i0, tread));
        if wide {
            win_lo.push(vm.lvx(i16r, tread));
        }
        tread = vm.addi(tread, 32);

        let r16_hi = vfilter_half(vm, &ctx, &win_hi);
        let packed = if wide {
            let r16_lo = vfilter_half(vm, &ctx, &win_lo);
            vm.vpkshus(r16_hi, r16_lo)
        } else {
            vm.vpkshus(r16_hi, r16_hi)
        };
        if wide {
            vm.stvx(packed, ctx.i0, drow);
        } else {
            vstore_partial(
                vm,
                variant,
                packed,
                store_mask.as_ref().expect("mask built for narrow blocks"),
                ctx.i0,
                drow,
                w as u8,
                dst_rot,
            );
        }
        win_hi.remove(0);
        if wide {
            win_lo.remove(0);
        }
        drow = vm.addi(drow, args.dst_stride);
        let c = vm.cmpwi(drow, 0);
        vm.bc(c, y + 1 != h, vloop);
    }
}

/// Horizontal 6-tap on one 8-pixel half of the six byte windows:
/// zero-extends the half, forms the tap sums and evaluates
/// `s1 + 20*s20 - 5*s5` in 16-bit modular arithmetic.
fn hfilter_half(vm: &mut Vm, ctx: &VecCtx, win: &[Vector; 6], high: bool) -> Vector {
    let ext = |vm: &mut Vm, v: Vector| {
        if high {
            vm.vmrghb(ctx.vzero, v)
        } else {
            vm.vmrglb(ctx.vzero, v)
        }
    };
    let m2 = ext(vm, win[0]);
    let m1 = ext(vm, win[1]);
    let p0 = ext(vm, win[2]);
    let p1 = ext(vm, win[3]);
    let p2 = ext(vm, win[4]);
    let p3 = ext(vm, win[5]);
    let s20 = vm.vadduhm(p0, p1);
    let s5 = vm.vadduhm(m1, p2);
    let s1 = vm.vadduhm(m2, p3);
    let t = vm.vmladduhm(s20, ctx.v20, s1);
    let q = vm.vmladduhm(s5, ctx.v5, ctx.vzero);
    vm.vsubuhm(t, q)
}

/// Vertical 6-tap over six 16-bit intermediate rows with 32-bit precision:
/// widening even/odd multiplies, combine, round by 512, shift by 10, pack
/// back to 16-bit lanes with signed saturation.
fn vfilter_half(vm: &mut Vm, ctx: &VecCtx, win: &[Vector]) -> Vector {
    let s1 = vm.vadduhm(win[0], win[5]);
    let s5 = vm.vadduhm(win[1], win[4]);
    let s20 = vm.vadduhm(win[2], win[3]);
    let ce = vm.vmulesh(s20, ctx.v20);
    let co = vm.vmulosh(s20, ctx.v20);
    let be = vm.vmulesh(s5, ctx.v5);
    let bo = vm.vmulosh(s5, ctx.v5);
    let ae = vm.vmulesh(s1, ctx.v1);
    let ao = vm.vmulosh(s1, ctx.v1);
    let te = {
        let t = vm.vadduwm(ae, ce);
        let t = vm.vsubuwm(t, be);
        let t = vm.vadduwm(t, ctx.v512w);
        vm.vsraw(t, ctx.v10w)
    };
    let to = {
        let t = vm.vadduwm(ao, co);
        let t = vm.vsubuwm(t, bo);
        let t = vm.vadduwm(t, ctx.v512w);
        vm.vsraw(t, ctx.v10w)
    };
    let e16 = vm.vpkswss(te, te);
    let o16 = vm.vpkswss(to, to);
    vm.vmrghh(e16, o16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use valign_h264::interp::luma_qpel;
    use valign_h264::plane::Plane;
    use valign_isa::{InstrClass, Opcode};

    fn textured_plane() -> Plane {
        let mut p = Plane::new(64, 64);
        p.fill_with(|x, y| ((x * 37 + y * 91 + (x * y) % 23) % 256) as u8);
        p
    }

    /// Copies a plane into VM memory at a 16-byte-aligned base; returns
    /// the VM address of pixel (0,0).
    fn load_plane(vm: &mut Vm, p: &Plane) -> u64 {
        let base = vm.mem_mut().alloc(p.raw().len(), 16);
        vm.mem_mut().write_bytes(base, p.raw());
        base + p.index_of(0, 0) as u64
    }

    fn run_case(variant: Variant, w: usize, h: usize, sx: isize, sy: isize) -> (Vec<u8>, Vec<u8>) {
        let plane = textured_plane();
        let mut vm = Vm::new();
        let src00 = load_plane(&mut vm, &plane);
        let stride = plane.stride() as i64;
        let dst = vm.mem_mut().alloc(64 * 32, 16) + 4; // dst offset 4 (multiple of 4)
        let dst = if w == 16 { dst + 12 } else { dst }; // keep multiple of w
        let scratch = vm.mem_mut().alloc((h + 5) * 32, 16);
        let args = McArgs {
            src: (src00 as i64 + sy as i64 * stride + sx as i64) as u64,
            src_stride: stride,
            dst,
            dst_stride: 32,
            scratch,
            w,
            h,
        };
        luma_hv(&mut vm, variant, &args);
        let mut got = Vec::new();
        for y in 0..h {
            got.extend_from_slice(vm.mem().read_bytes(dst + y as u64 * 32, w));
        }
        let golden = luma_qpel(&plane, sx, sy, 2, 2, w, h);
        (got, golden)
    }

    #[test]
    fn scalar_matches_golden_all_sizes() {
        for (w, h) in [(16, 16), (8, 8), (4, 4)] {
            let (got, want) = run_case(Variant::Scalar, w, h, 7, 9);
            assert_eq!(got, want, "scalar {w}x{h}");
        }
    }

    #[test]
    fn altivec_matches_golden_across_offsets() {
        for sx in [0isize, 1, 3, 7, 8, 13, 15] {
            let (got, want) = run_case(Variant::Altivec, 8, 8, 16 + sx, 11);
            assert_eq!(got, want, "altivec offset {sx}");
        }
    }

    #[test]
    fn unaligned_matches_golden_across_offsets() {
        for sx in [0isize, 2, 5, 9, 12, 15] {
            let (got, want) = run_case(Variant::Unaligned, 8, 8, 16 + sx, 6);
            assert_eq!(got, want, "unaligned offset {sx}");
        }
    }

    #[test]
    fn wide_and_narrow_blocks_match_golden() {
        for variant in [Variant::Altivec, Variant::Unaligned] {
            for (w, h) in [(16, 16), (8, 8), (4, 4), (8, 16), (16, 8)] {
                let (got, want) = run_case(variant, w, h, 21, 13);
                assert_eq!(got, want, "{variant} {w}x{h}");
            }
        }
    }

    #[test]
    fn unaligned_variant_reduces_instructions() {
        let count = |variant| {
            let plane = textured_plane();
            let mut vm = Vm::new();
            let src00 = load_plane(&mut vm, &plane);
            let stride = plane.stride() as i64;
            let dst = vm.mem_mut().alloc(64 * 32, 16);
            let scratch = vm.mem_mut().alloc(32 * 21, 16);
            let args = McArgs {
                src: (src00 as i64 + 3 * stride + 5) as u64,
                src_stride: stride,
                dst,
                dst_stride: 32,
                scratch,
                w: 16,
                h: 16,
            };
            vm.clear_trace();
            luma_hv(&mut vm, variant, &args);
            vm.take_trace()
        };
        let scalar = count(Variant::Scalar);
        let altivec = count(Variant::Altivec);
        let unaligned = count(Variant::Unaligned);
        assert!(
            altivec.len() * 3 < scalar.len(),
            "vectorisation: altivec {} vs scalar {}",
            altivec.len(),
            scalar.len()
        );
        assert!(
            unaligned.len() < altivec.len(),
            "unaligned {} must beat altivec {}",
            unaligned.len(),
            altivec.len()
        );
        // The win comes mostly from loads and permutes, as in Table III.
        let m_av = altivec.mix();
        let m_un = unaligned.mix();
        assert!(m_un.get(InstrClass::VecLoad) < m_av.get(InstrClass::VecLoad));
        assert!(m_un.get(InstrClass::VecPerm) < m_av.get(InstrClass::VecPerm));
        // And the unaligned version really used the new instructions.
        assert!(unaligned.iter().any(|i| i.op == Opcode::Lvxu));
        assert!(altivec.iter().all(|i| !i.op.is_unaligned_capable()));
    }

    #[test]
    #[should_panic(expected = "scratch must be 16-byte aligned")]
    fn scratch_alignment_validated() {
        let mut vm = Vm::new();
        let args = McArgs {
            src: 0x11000,
            src_stride: 32,
            dst: 0x12000,
            dst_stride: 32,
            scratch: 0x13001,
            w: 8,
            h: 8,
        };
        luma_hv(&mut vm, Variant::Scalar, &args);
    }
}
