//! The tracing virtual machine.
//!
//! [`Vm`] plays the role of the paper's Aria-based instruction emulator:
//! kernels are written against an intrinsics-style API (one method per ISA
//! instruction), the machine executes each operation *functionally* against
//! its [`Memory`] image and simultaneously appends a [`DynInstr`] record to
//! the execution [`Trace`].
//!
//! ## Value handles
//!
//! Intrinsics return [`Scalar`] / [`Vector`] handles that pair the computed
//! value with (a) the architectural register the tracing register
//! allocator assigned and (b) the index of the dynamic instruction that
//! produced the value. Handles are `Copy`; holding one and using it later
//! is exactly a register reference in hand-written assembly. Source
//! operands in the trace carry the *producer index* ([`SrcRef`]), so the
//! timing model sees true dataflow — what a renaming core recovers —
//! rather than artefacts of the allocator's round-robin register choice;
//! architectural-register pressure is modelled separately by the
//! simulator's rename windows.
//!
//! ## Trace segments and draining
//!
//! A trace starts at [`Vm::take_trace`] or [`Vm::clear_trace`]; the VM
//! remembers where (its `origin`, the global index of the trace's record
//! 0) and counts every producer index from there, so a handle from before
//! the trace started becomes an external source. [`Vm::drain_records`]
//! hands the buffered records out and empties the buffer without starting
//! a new trace: producer indices keep counting from the same origin, and
//! the drained chunks concatenate to exactly the trace `take_trace` would
//! have returned. A consumer that compiles records as they arrive (the
//! replay-image builder) therefore never holds more than one chunk.
//!
//! ## Static instruction sites
//!
//! Every intrinsic is `#[track_caller]`: the Rust source location of the
//! call is memoised to a stable [`StaticId`] that stands in for the
//! instruction's PC. Loop bodies therefore replay the *same* static sites
//! each iteration — which is what the branch predictor needs.
//!
//! A location's identity is its content (file, line, column), and ids
//! are numbered in first-seen order. Hashing the file string on every
//! emitted record was most of a record's tracing cost, so the lookup
//! goes through two maps: a cache keyed by the address of the
//! `&'static Location` (one word to hash), and behind it the
//! content-keyed map, consulted only on a cache miss. The content map
//! alone issues ids, so a location whose static is duplicated across
//! codegen units (two addresses, one content) still gets one id.
//!
//! ## Alignment semantics
//!
//! * `lvx`/`stvx` truncate the effective address to 16 bytes (Altivec).
//! * `lvxu`/`stvxu` — the paper's extension — use the full address.
//! * `lvsl`/`lvsr` produce the realignment permute masks.

use crate::mem::Memory;
use crate::ops;
use crate::v128::V128;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::panic::Location;

use valign_isa::align;
use valign_isa::{
    BranchInfo, DynInstr, Gpr, MemKind, MemRef, Opcode, SrcRef, StaticId, Trace, Vpr, NUM_GPRS,
    NUM_VPRS,
};

/// A scalar (integer) value handle: the value, the GPR holding it, and
/// the producing instruction.
#[derive(Debug, Clone, Copy)]
pub struct Scalar {
    reg: Gpr,
    value: u64,
    def: u64,
}

impl Scalar {
    /// The current value.
    pub fn value(self) -> u64 {
        self.value
    }

    /// The value as a signed 64-bit integer.
    pub fn value_i64(self) -> i64 {
        self.value as i64
    }

    /// The architectural register assigned to this value.
    pub fn reg(self) -> Gpr {
        self.reg
    }
}

/// A vector value handle: the 128-bit value, the VPR holding it, and the
/// producing instruction.
#[derive(Debug, Clone, Copy)]
pub struct Vector {
    reg: Vpr,
    value: V128,
    def: u64,
}

impl Vector {
    /// The current value.
    pub fn value(self) -> V128 {
        self.value
    }

    /// The architectural register assigned to this value.
    pub fn reg(self) -> Vpr {
        self.reg
    }
}

/// A branch-target label with a stable static id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(StaticId);

impl Label {
    /// The static id of the labelled site.
    pub fn sid(self) -> StaticId {
        self.0
    }
}

type Loc = (&'static str, u32, u32);

/// An Fx-style hasher (rotate, xor, multiply per word) for the site maps.
/// [`Vm`] resolves a site on every dynamic instruction, where SipHash
/// was a measurable share of tracing. It is not DoS-resistant, which keys
/// that are source locations do not need.
#[derive(Debug, Default)]
struct SiteHasher(u64);

impl SiteHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for SiteHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The tracing virtual machine. See the [module docs](self).
#[derive(Debug)]
pub struct Vm {
    mem: Memory,
    trace: Trace,
    /// The authority: site content to id, numbered in first-seen order.
    sites: HashMap<Loc, StaticId, BuildHasherDefault<SiteHasher>>,
    /// `Location` address to id: a cache in front of `sites`.
    site_cache: HashMap<usize, StaticId, BuildHasherDefault<SiteHasher>>,
    next_sid: u32,
    next_gpr: u8,
    next_vpr: u8,
    /// Total instructions ever emitted (not reset by trace draining);
    /// handle `def`s are indices in this global stream.
    emitted: u64,
    /// `emitted` as of the last [`Vm::take_trace`] / [`Vm::clear_trace`]:
    /// the global index of the current trace's record 0. Producer indices
    /// in emitted records count from here, also after
    /// [`Vm::drain_records`] has handed some records out.
    origin: u64,
}

impl Default for Vm {
    fn default() -> Self {
        Self::new()
    }
}

macro_rules! vv_ops {
    ($( $(#[$meta:meta])* $name:ident => $opcode:ident; )+) => {
        $(
            $(#[$meta])*
            #[track_caller]
            pub fn $name(&mut self, a: Vector, b: Vector) -> Vector {
                let sid = self.site();
                self.emit_vv(Opcode::$opcode, sid, a, b, ops::$name(a.value, b.value))
            }
        )+
    };
}

macro_rules! vvv_ops {
    ($( $(#[$meta:meta])* $name:ident => $opcode:ident; )+) => {
        $(
            $(#[$meta])*
            #[track_caller]
            pub fn $name(&mut self, a: Vector, b: Vector, c: Vector) -> Vector {
                let sid = self.site();
                self.emit_vvv(Opcode::$opcode, sid, a, b, c, ops::$name(a.value, b.value, c.value))
            }
        )+
    };
}

macro_rules! v_unary_ops {
    ($( $(#[$meta:meta])* $name:ident => $opcode:ident; )+) => {
        $(
            $(#[$meta])*
            #[track_caller]
            pub fn $name(&mut self, a: Vector) -> Vector {
                let sid = self.site();
                let value = ops::$name(a.value);
                let srcs = [self.vref(a)];
                self.emit_vpr(Opcode::$opcode, sid, &srcs, value)
            }
        )+
    };
}

impl Vm {
    /// A fresh machine with an empty memory image and trace.
    pub fn new() -> Self {
        Vm {
            mem: Memory::new(),
            trace: Trace::new(),
            sites: HashMap::default(),
            site_cache: HashMap::default(),
            next_sid: 1,
            next_gpr: 0,
            next_vpr: 0,
            emitted: 0,
            origin: 0,
        }
    }

    /// The memory image.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to the memory image (workload setup).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// The records buffered so far: the trace recorded since the last
    /// [`Vm::take_trace`] / [`Vm::clear_trace`], minus any records
    /// [`Vm::drain_records`] has handed out.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Takes the recorded trace, leaving an empty one, and starts a new
    /// trace. Handles created before remain usable; their producers
    /// simply become external to the new trace.
    pub fn take_trace(&mut self) -> Trace {
        self.origin = self.emitted;
        std::mem::take(&mut self.trace)
    }

    /// Takes the recorded trace frozen behind an `Arc`, ready to be
    /// shared across simulation workers without copying.
    pub fn take_shared_trace(&mut self) -> std::sync::Arc<Trace> {
        self.take_trace().into_shared()
    }

    /// Clears the recorded trace (memory image is kept) and starts a new
    /// one; as with [`Vm::take_trace`], earlier handles become external.
    pub fn clear_trace(&mut self) {
        self.origin = self.emitted;
        self.trace.clear();
    }

    /// Hands the buffered records to `sink` in program order and empties
    /// the buffer, without ending the trace: records emitted afterwards
    /// continue it, their producer indices still counting from its first
    /// record. Concatenating every drain and the final
    /// [`Vm::take_trace`] gives exactly the trace `take_trace` alone would
    /// have returned, so a consumer can compile records as they are
    /// emitted and never hold the whole trace.
    pub fn drain_records(&mut self, mut sink: impl FnMut(&DynInstr)) {
        for instr in &self.trace {
            sink(instr);
        }
        self.trace.clear();
    }

    /// Number of dynamic instructions buffered: recorded since the last
    /// [`Vm::take_trace`], [`Vm::clear_trace`] or [`Vm::drain_records`].
    pub fn instr_count(&self) -> usize {
        self.trace.len()
    }

    #[track_caller]
    fn site(&mut self) -> StaticId {
        self.site_of(Location::caller())
    }

    /// The id of the site at `l`: from the address cache, else from the
    /// content map (issuing the next id on first sight), then cached.
    fn site_of(&mut self, l: &'static Location<'static>) -> StaticId {
        let addr = std::ptr::from_ref(l) as usize;
        if let Some(&sid) = self.site_cache.get(&addr) {
            return sid;
        }
        let next = &mut self.next_sid;
        let sid = *self
            .sites
            .entry((l.file(), l.line(), l.column()))
            .or_insert_with(|| {
                let sid = StaticId(
                    u16::try_from(*next).expect("more than 65,535 static sites in one program"),
                );
                *next += 1;
                sid
            });
        self.site_cache.insert(addr, sid);
        sid
    }

    fn alloc_gpr(&mut self) -> Gpr {
        let r = Gpr::new(self.next_gpr);
        self.next_gpr = (self.next_gpr + 1) % NUM_GPRS;
        r
    }

    fn alloc_vpr(&mut self) -> Vpr {
        let r = Vpr::new(self.next_vpr);
        self.next_vpr = (self.next_vpr + 1) % NUM_VPRS;
        r
    }

    /// Converts a handle's global producer index to a trace-local
    /// [`SrcRef`].
    fn make_sref(&self, reg: valign_isa::Reg, def: u64) -> SrcRef {
        if def >= self.origin {
            SrcRef::produced_by(
                reg,
                u32::try_from(def - self.origin).expect("trace fits u32"),
            )
        } else {
            SrcRef::external(reg)
        }
    }

    fn sref(&self, s: Scalar) -> SrcRef {
        self.make_sref(s.reg.into(), s.def)
    }

    fn vref(&self, v: Vector) -> SrcRef {
        self.make_sref(v.reg.into(), v.def)
    }

    /// Pushes a record and returns its global index.
    fn push(&mut self, i: DynInstr) -> u64 {
        self.trace.push(i);
        let idx = self.emitted;
        self.emitted += 1;
        idx
    }

    fn emit_gpr(&mut self, op: Opcode, sid: StaticId, srcs: &[SrcRef], value: u64) -> Scalar {
        let reg = self.alloc_gpr();
        let def = self.push(DynInstr::alu(op, sid, Some(reg.into()), srcs));
        Scalar { reg, value, def }
    }

    fn emit_vpr(&mut self, op: Opcode, sid: StaticId, srcs: &[SrcRef], value: V128) -> Vector {
        let reg = self.alloc_vpr();
        let def = self.push(DynInstr::alu(op, sid, Some(reg.into()), srcs));
        Vector { reg, value, def }
    }

    fn emit_vv(&mut self, op: Opcode, sid: StaticId, a: Vector, b: Vector, value: V128) -> Vector {
        let srcs = [self.vref(a), self.vref(b)];
        self.emit_vpr(op, sid, &srcs, value)
    }

    fn emit_vvv(
        &mut self,
        op: Opcode,
        sid: StaticId,
        a: Vector,
        b: Vector,
        c: Vector,
        value: V128,
    ) -> Vector {
        let srcs = [self.vref(a), self.vref(b), self.vref(c)];
        self.emit_vpr(op, sid, &srcs, value)
    }

    // -----------------------------------------------------------------
    // Scalar integer intrinsics
    // -----------------------------------------------------------------

    /// `li rD, imm` — load immediate.
    #[track_caller]
    pub fn li(&mut self, imm: i64) -> Scalar {
        let sid = self.site();
        self.emit_gpr(Opcode::Li, sid, &[], imm as u64)
    }

    /// `addi rD, rA, imm` — add immediate.
    #[track_caller]
    pub fn addi(&mut self, a: Scalar, imm: i64) -> Scalar {
        let sid = self.site();
        let srcs = [self.sref(a)];
        self.emit_gpr(Opcode::Addi, sid, &srcs, a.value.wrapping_add(imm as u64))
    }

    /// `add rD, rA, rB`.
    #[track_caller]
    pub fn add(&mut self, a: Scalar, b: Scalar) -> Scalar {
        let sid = self.site();
        let srcs = [self.sref(a), self.sref(b)];
        self.emit_gpr(Opcode::Add, sid, &srcs, a.value.wrapping_add(b.value))
    }

    /// `subf rD, rA, rB` — `rB - rA` (PowerPC subtract-from).
    #[track_caller]
    pub fn subf(&mut self, a: Scalar, b: Scalar) -> Scalar {
        let sid = self.site();
        let srcs = [self.sref(a), self.sref(b)];
        self.emit_gpr(Opcode::Subf, sid, &srcs, b.value.wrapping_sub(a.value))
    }

    /// `neg rD, rA`.
    #[track_caller]
    pub fn neg(&mut self, a: Scalar) -> Scalar {
        let sid = self.site();
        let srcs = [self.sref(a)];
        self.emit_gpr(
            Opcode::Neg,
            sid,
            &srcs,
            (a.value as i64).wrapping_neg() as u64,
        )
    }

    /// `mullw rD, rA, rB` — 32-bit multiply (low word).
    #[track_caller]
    pub fn mullw(&mut self, a: Scalar, b: Scalar) -> Scalar {
        let sid = self.site();
        let v = (a.value as i32).wrapping_mul(b.value as i32) as i64 as u64;
        let srcs = [self.sref(a), self.sref(b)];
        self.emit_gpr(Opcode::Mullw, sid, &srcs, v)
    }

    /// `slwi rD, rA, sh` — shift left word immediate.
    #[track_caller]
    pub fn slwi(&mut self, a: Scalar, sh: u8) -> Scalar {
        let sid = self.site();
        let v = ((a.value as u32) << (sh & 31)) as u64;
        let srcs = [self.sref(a)];
        self.emit_gpr(Opcode::Slwi, sid, &srcs, v)
    }

    /// `srwi rD, rA, sh` — logical shift right word immediate.
    #[track_caller]
    pub fn srwi(&mut self, a: Scalar, sh: u8) -> Scalar {
        let sid = self.site();
        let v = ((a.value as u32) >> (sh & 31)) as u64;
        let srcs = [self.sref(a)];
        self.emit_gpr(Opcode::Srwi, sid, &srcs, v)
    }

    /// `srawi rD, rA, sh` — arithmetic shift right word immediate.
    #[track_caller]
    pub fn srawi(&mut self, a: Scalar, sh: u8) -> Scalar {
        let sid = self.site();
        let v = ((a.value as i32) >> (sh & 31)) as i64 as u64;
        let srcs = [self.sref(a)];
        self.emit_gpr(Opcode::Srawi, sid, &srcs, v)
    }

    /// `slw rD, rA, rB` — shift left word by register amount (low 6 bits).
    #[track_caller]
    pub fn slw(&mut self, a: Scalar, b: Scalar) -> Scalar {
        let sid = self.site();
        let sh = (b.value & 0x3f) as u32;
        let v = if sh > 31 {
            0
        } else {
            ((a.value as u32) << sh) as u64
        };
        let srcs = [self.sref(a), self.sref(b)];
        self.emit_gpr(Opcode::Slw, sid, &srcs, v)
    }

    /// `srw rD, rA, rB` — logical shift right word by register amount.
    #[track_caller]
    pub fn srw(&mut self, a: Scalar, b: Scalar) -> Scalar {
        let sid = self.site();
        let sh = (b.value & 0x3f) as u32;
        let v = if sh > 31 {
            0
        } else {
            ((a.value as u32) >> sh) as u64
        };
        let srcs = [self.sref(a), self.sref(b)];
        self.emit_gpr(Opcode::Srw, sid, &srcs, v)
    }

    /// `sraw rD, rA, rB` — arithmetic shift right word by register amount.
    #[track_caller]
    pub fn sraw(&mut self, a: Scalar, b: Scalar) -> Scalar {
        let sid = self.site();
        let sh = ((b.value & 0x3f) as u32).min(31);
        let v = ((a.value as i32) >> sh) as i64 as u64;
        let srcs = [self.sref(a), self.sref(b)];
        self.emit_gpr(Opcode::Sraw, sid, &srcs, v)
    }

    /// `and rD, rA, rB`.
    #[track_caller]
    pub fn and(&mut self, a: Scalar, b: Scalar) -> Scalar {
        let sid = self.site();
        let srcs = [self.sref(a), self.sref(b)];
        self.emit_gpr(Opcode::And, sid, &srcs, a.value & b.value)
    }

    /// `andi. rD, rA, imm`.
    #[track_caller]
    pub fn andi(&mut self, a: Scalar, imm: u64) -> Scalar {
        let sid = self.site();
        let srcs = [self.sref(a)];
        self.emit_gpr(Opcode::Andi, sid, &srcs, a.value & imm)
    }

    /// `or rD, rA, rB`.
    #[track_caller]
    pub fn or(&mut self, a: Scalar, b: Scalar) -> Scalar {
        let sid = self.site();
        let srcs = [self.sref(a), self.sref(b)];
        self.emit_gpr(Opcode::Or, sid, &srcs, a.value | b.value)
    }

    /// `ori rD, rA, imm`.
    #[track_caller]
    pub fn ori(&mut self, a: Scalar, imm: u64) -> Scalar {
        let sid = self.site();
        let srcs = [self.sref(a)];
        self.emit_gpr(Opcode::Ori, sid, &srcs, a.value | imm)
    }

    /// `xor rD, rA, rB`.
    #[track_caller]
    pub fn xor(&mut self, a: Scalar, b: Scalar) -> Scalar {
        let sid = self.site();
        let srcs = [self.sref(a), self.sref(b)];
        self.emit_gpr(Opcode::Xor, sid, &srcs, a.value ^ b.value)
    }

    /// `extsb rD, rA` — sign-extend byte.
    #[track_caller]
    pub fn extsb(&mut self, a: Scalar) -> Scalar {
        let sid = self.site();
        let srcs = [self.sref(a)];
        self.emit_gpr(Opcode::Extsb, sid, &srcs, a.value as u8 as i8 as i64 as u64)
    }

    /// `extsh rD, rA` — sign-extend halfword.
    #[track_caller]
    pub fn extsh(&mut self, a: Scalar) -> Scalar {
        let sid = self.site();
        let srcs = [self.sref(a)];
        self.emit_gpr(
            Opcode::Extsh,
            sid,
            &srcs,
            a.value as u16 as i16 as i64 as u64,
        )
    }

    /// `cmpw rA, rB` — signed compare; result encodes -1/0/1.
    #[track_caller]
    pub fn cmpw(&mut self, a: Scalar, b: Scalar) -> Scalar {
        let sid = self.site();
        let v = match (a.value as i64).cmp(&(b.value as i64)) {
            std::cmp::Ordering::Less => -1i64,
            std::cmp::Ordering::Equal => 0,
            std::cmp::Ordering::Greater => 1,
        } as u64;
        let srcs = [self.sref(a), self.sref(b)];
        self.emit_gpr(Opcode::Cmpw, sid, &srcs, v)
    }

    /// `cmpwi rA, imm` — signed compare with immediate.
    #[track_caller]
    pub fn cmpwi(&mut self, a: Scalar, imm: i64) -> Scalar {
        let sid = self.site();
        let v = match (a.value as i64).cmp(&imm) {
            std::cmp::Ordering::Less => -1i64,
            std::cmp::Ordering::Equal => 0,
            std::cmp::Ordering::Greater => 1,
        } as u64;
        let srcs = [self.sref(a)];
        self.emit_gpr(Opcode::Cmpwi, sid, &srcs, v)
    }

    /// `isel rD, rA, rB, cond` — select `a` if `cond`'s value is non-zero,
    /// else `b` (if-conversion idiom).
    #[track_caller]
    pub fn isel(&mut self, cond: Scalar, a: Scalar, b: Scalar) -> Scalar {
        let sid = self.site();
        let v = if cond.value != 0 { a.value } else { b.value };
        let srcs = [self.sref(cond), self.sref(a), self.sref(b)];
        self.emit_gpr(Opcode::Isel, sid, &srcs, v)
    }

    // -----------------------------------------------------------------
    // Scalar memory intrinsics
    // -----------------------------------------------------------------

    fn scalar_load(&mut self, op: Opcode, sid: StaticId, base: Scalar, disp: i64) -> Scalar {
        let addr = base.value.wrapping_add(disp as u64);
        let bytes = op.access_bytes().expect("load has a size") as u8;
        let value = match op {
            Opcode::Lbz => u64::from(self.mem.read_u8(addr)),
            Opcode::Lhz => u64::from(self.mem.read_u16(addr)),
            Opcode::Lha => self.mem.read_u16(addr) as i16 as i64 as u64,
            Opcode::Lwz => u64::from(self.mem.read_u32(addr)),
            _ => unreachable!("not a scalar load"),
        };
        let reg = self.alloc_gpr();
        let srcs = [self.sref(base)];
        let def = self.push(DynInstr::mem(
            op,
            sid,
            Some(reg.into()),
            &srcs,
            MemRef {
                addr,
                bytes,
                kind: MemKind::Load,
            },
        ));
        Scalar { reg, value, def }
    }

    /// `lbz rD, disp(rA)` — load byte and zero.
    #[track_caller]
    pub fn lbz(&mut self, base: Scalar, disp: i64) -> Scalar {
        let sid = self.site();
        self.scalar_load(Opcode::Lbz, sid, base, disp)
    }

    /// `lhz rD, disp(rA)` — load halfword and zero.
    #[track_caller]
    pub fn lhz(&mut self, base: Scalar, disp: i64) -> Scalar {
        let sid = self.site();
        self.scalar_load(Opcode::Lhz, sid, base, disp)
    }

    /// `lha rD, disp(rA)` — load halfword algebraic (sign-extended).
    #[track_caller]
    pub fn lha(&mut self, base: Scalar, disp: i64) -> Scalar {
        let sid = self.site();
        self.scalar_load(Opcode::Lha, sid, base, disp)
    }

    /// `lwz rD, disp(rA)` — load word and zero.
    #[track_caller]
    pub fn lwz(&mut self, base: Scalar, disp: i64) -> Scalar {
        let sid = self.site();
        self.scalar_load(Opcode::Lwz, sid, base, disp)
    }

    fn scalar_store(&mut self, op: Opcode, sid: StaticId, val: Scalar, base: Scalar, disp: i64) {
        let addr = base.value.wrapping_add(disp as u64);
        let bytes = op.access_bytes().expect("store has a size") as u8;
        match op {
            Opcode::Stb => self.mem.write_u8(addr, val.value as u8),
            Opcode::Sth => self.mem.write_u16(addr, val.value as u16),
            Opcode::Stw => self.mem.write_u32(addr, val.value as u32),
            _ => unreachable!("not a scalar store"),
        }
        let srcs = [self.sref(val), self.sref(base)];
        self.push(DynInstr::mem(
            op,
            sid,
            None,
            &srcs,
            MemRef {
                addr,
                bytes,
                kind: MemKind::Store,
            },
        ));
    }

    /// `stb rS, disp(rA)` — store byte.
    #[track_caller]
    pub fn stb(&mut self, val: Scalar, base: Scalar, disp: i64) {
        let sid = self.site();
        self.scalar_store(Opcode::Stb, sid, val, base, disp);
    }

    /// `sth rS, disp(rA)` — store halfword.
    #[track_caller]
    pub fn sth(&mut self, val: Scalar, base: Scalar, disp: i64) {
        let sid = self.site();
        self.scalar_store(Opcode::Sth, sid, val, base, disp);
    }

    /// `stw rS, disp(rA)` — store word.
    #[track_caller]
    pub fn stw(&mut self, val: Scalar, base: Scalar, disp: i64) {
        let sid = self.site();
        self.scalar_store(Opcode::Stw, sid, val, base, disp);
    }

    // -----------------------------------------------------------------
    // Branch intrinsics
    // -----------------------------------------------------------------

    /// Allocates (or retrieves, at the same call site) a branch-target
    /// label with a stable static id.
    #[track_caller]
    pub fn label(&mut self) -> Label {
        Label(self.site())
    }

    /// `bc` — conditional branch on `cond`, with the resolved direction
    /// supplied by the (Rust-level) control flow of the kernel.
    #[track_caller]
    pub fn bc(&mut self, cond: Scalar, taken: bool, target: Label) {
        let sid = self.site();
        let srcs = [self.sref(cond)];
        self.push(DynInstr::branch(
            Opcode::Bc,
            sid,
            &srcs,
            BranchInfo {
                taken,
                target: target.0,
                unconditional: false,
            },
        ));
    }

    /// `b` — unconditional branch.
    #[track_caller]
    pub fn b(&mut self, target: Label) {
        let sid = self.site();
        self.push(DynInstr::branch(
            Opcode::B,
            sid,
            &[],
            BranchInfo {
                taken: true,
                target: target.0,
                unconditional: true,
            },
        ));
    }

    // -----------------------------------------------------------------
    // Vector memory intrinsics
    // -----------------------------------------------------------------

    fn ea(idx: Scalar, base: Scalar) -> u64 {
        base.value.wrapping_add(idx.value)
    }

    #[allow(clippy::too_many_arguments)]
    fn vec_load(
        &mut self,
        op: Opcode,
        sid: StaticId,
        idx: Scalar,
        base: Scalar,
        addr: u64,
        bytes: u8,
        value: V128,
    ) -> Vector {
        let reg = self.alloc_vpr();
        let srcs = [self.sref(idx), self.sref(base)];
        let def = self.push(DynInstr::mem(
            op,
            sid,
            Some(reg.into()),
            &srcs,
            MemRef {
                addr,
                bytes,
                kind: MemKind::Load,
            },
        ));
        Vector { reg, value, def }
    }

    #[allow(clippy::too_many_arguments)]
    fn vec_store(
        &mut self,
        op: Opcode,
        sid: StaticId,
        val: Vector,
        idx: Scalar,
        base: Scalar,
        addr: u64,
        bytes: u8,
    ) {
        let srcs = [self.vref(val), self.sref(idx), self.sref(base)];
        self.push(DynInstr::mem(
            op,
            sid,
            None,
            &srcs,
            MemRef {
                addr,
                bytes,
                kind: MemKind::Store,
            },
        ));
    }

    /// `lvx vD, rA, rB` — aligned vector load; the effective address is
    /// truncated to a 16-byte boundary (Altivec semantics).
    #[track_caller]
    pub fn lvx(&mut self, idx: Scalar, base: Scalar) -> Vector {
        let sid = self.site();
        let addr = align::quad_truncate(Self::ea(idx, base));
        let value = self.mem.read_v128(addr);
        self.vec_load(Opcode::Lvx, sid, idx, base, addr, 16, value)
    }

    /// `lvxu vD, rA, rB` — **the paper's unaligned vector load**: no
    /// alignment restriction on the effective address.
    #[track_caller]
    pub fn lvxu(&mut self, idx: Scalar, base: Scalar) -> Vector {
        let sid = self.site();
        let addr = Self::ea(idx, base);
        let value = self.mem.read_v128(addr);
        self.vec_load(Opcode::Lvxu, sid, idx, base, addr, 16, value)
    }

    /// `stvx vS, rA, rB` — aligned vector store (address truncated).
    #[track_caller]
    pub fn stvx(&mut self, val: Vector, idx: Scalar, base: Scalar) {
        let sid = self.site();
        let addr = align::quad_truncate(Self::ea(idx, base));
        self.mem.write_v128(addr, val.value);
        self.vec_store(Opcode::Stvx, sid, val, idx, base, addr, 16);
    }

    /// `stvxu vS, rA, rB` — **the paper's unaligned vector store**.
    #[track_caller]
    pub fn stvxu(&mut self, val: Vector, idx: Scalar, base: Scalar) {
        let sid = self.site();
        let addr = Self::ea(idx, base);
        self.mem.write_v128(addr, val.value);
        self.vec_store(Opcode::Stvxu, sid, val, idx, base, addr, 16);
    }

    /// `lvewx vD, rA, rB` — load the 32-bit word containing the effective
    /// address into its lane (other lanes zero in this model).
    #[track_caller]
    pub fn lvewx(&mut self, idx: Scalar, base: Scalar) -> Vector {
        let sid = self.site();
        let ea = align::word_truncate(Self::ea(idx, base));
        let lane = ((ea >> 2) & 0x3) as usize;
        let mut value = V128::ZERO;
        value.set_u32(lane, self.mem.read_u32(ea));
        self.vec_load(Opcode::Lvewx, sid, idx, base, ea, 4, value)
    }

    /// `stvewx vS, rA, rB` — store the lane word selected by the effective
    /// address.
    #[track_caller]
    pub fn stvewx(&mut self, val: Vector, idx: Scalar, base: Scalar) {
        let sid = self.site();
        let ea = align::word_truncate(Self::ea(idx, base));
        let lane = ((ea >> 2) & 0x3) as usize;
        self.mem.write_u32(ea, val.value.u32(lane));
        self.vec_store(Opcode::Stvewx, sid, val, idx, base, ea, 4);
    }

    /// `lvsl vD, rA, rB` — load-vector-for-shift-left realignment mask.
    /// Executes in the LS unit but performs no memory access.
    #[track_caller]
    pub fn lvsl(&mut self, idx: Scalar, base: Scalar) -> Vector {
        let sid = self.site();
        let sh = align::quad_offset(Self::ea(idx, base));
        let value = ops::lvsl_mask(sh);
        let srcs = [self.sref(idx), self.sref(base)];
        self.emit_vpr(Opcode::Lvsl, sid, &srcs, value)
    }

    /// `lvsr vD, rA, rB` — load-vector-for-shift-right realignment mask.
    #[track_caller]
    pub fn lvsr(&mut self, idx: Scalar, base: Scalar) -> Vector {
        let sid = self.site();
        let sh = align::quad_offset(Self::ea(idx, base));
        let value = ops::lvsr_mask(sh);
        let srcs = [self.sref(idx), self.sref(base)];
        self.emit_vpr(Opcode::Lvsr, sid, &srcs, value)
    }

    // -----------------------------------------------------------------
    // Vector splat-immediate and element-splat intrinsics
    // -----------------------------------------------------------------

    /// `vspltisb vD, imm` — splat 5-bit immediate into bytes.
    #[track_caller]
    pub fn vspltisb(&mut self, imm: i8) -> Vector {
        let sid = self.site();
        self.emit_vpr(Opcode::Vspltisb, sid, &[], ops::vspltisb(imm))
    }

    /// `vspltish vD, imm` — splat 5-bit immediate into halfwords.
    #[track_caller]
    pub fn vspltish(&mut self, imm: i8) -> Vector {
        let sid = self.site();
        self.emit_vpr(Opcode::Vspltish, sid, &[], ops::vspltish(imm))
    }

    /// `vspltisw vD, imm` — splat 5-bit immediate into words.
    #[track_caller]
    pub fn vspltisw(&mut self, imm: i8) -> Vector {
        let sid = self.site();
        self.emit_vpr(Opcode::Vspltisw, sid, &[], ops::vspltisw(imm))
    }

    /// `vspltb vD, vB, idx` — splat byte element.
    #[track_caller]
    pub fn vspltb(&mut self, a: Vector, idx: u8) -> Vector {
        let sid = self.site();
        let value = ops::vspltb(a.value, idx);
        let srcs = [self.vref(a)];
        self.emit_vpr(Opcode::Vspltb, sid, &srcs, value)
    }

    /// `vsplth vD, vB, idx` — splat halfword element.
    #[track_caller]
    pub fn vsplth(&mut self, a: Vector, idx: u8) -> Vector {
        let sid = self.site();
        let value = ops::vsplth(a.value, idx);
        let srcs = [self.vref(a)];
        self.emit_vpr(Opcode::Vsplth, sid, &srcs, value)
    }

    /// `vspltw vD, vB, idx` — splat word element.
    #[track_caller]
    pub fn vspltw(&mut self, a: Vector, idx: u8) -> Vector {
        let sid = self.site();
        let value = ops::vspltw(a.value, idx);
        let srcs = [self.vref(a)];
        self.emit_vpr(Opcode::Vspltw, sid, &srcs, value)
    }

    /// `vsldoi vD, vA, vB, sh` — shift-left-double by octet immediate.
    #[track_caller]
    pub fn vsldoi(&mut self, a: Vector, b: Vector, sh: u8) -> Vector {
        let sid = self.site();
        self.emit_vv(Opcode::Vsldoi, sid, a, b, ops::vsldoi(a.value, b.value, sh))
    }

    // -----------------------------------------------------------------
    // Two- and three-operand vector ALU intrinsics (macro-generated)
    // -----------------------------------------------------------------

    vv_ops! {
        /// `vperm`-class merge high bytes.
        vmrghb => Vmrghb;
        /// Merge low bytes.
        vmrglb => Vmrglb;
        /// Merge high halfwords.
        vmrghh => Vmrghh;
        /// Merge low halfwords.
        vmrglh => Vmrglh;
        /// Merge high words.
        vmrghw => Vmrghw;
        /// Merge low words.
        vmrglw => Vmrglw;
        /// Pack halfwords to bytes, modulo.
        vpkuhum => Vpkuhum;
        /// Pack words to halfwords, modulo.
        vpkuwum => Vpkuwum;
        /// Pack signed halfwords to unsigned bytes, saturating.
        vpkshus => Vpkshus;
        /// Pack unsigned halfwords to unsigned bytes, saturating.
        vpkuhus => Vpkuhus;
        /// Pack signed words to signed halfwords, saturating.
        vpkswss => Vpkswss;
        /// Pack signed words to unsigned halfwords, saturating.
        vpkswus => Vpkswus;
        /// Byte add, modulo.
        vaddubm => Vaddubm;
        /// Halfword add, modulo.
        vadduhm => Vadduhm;
        /// Word add, modulo.
        vadduwm => Vadduwm;
        /// Unsigned byte add, saturating.
        vaddubs => Vaddubs;
        /// Unsigned halfword add, saturating.
        vadduhs => Vadduhs;
        /// Signed halfword add, saturating.
        vaddshs => Vaddshs;
        /// Signed word add, saturating.
        vaddsws => Vaddsws;
        /// Byte subtract, modulo.
        vsububm => Vsububm;
        /// Halfword subtract, modulo.
        vsubuhm => Vsubuhm;
        /// Word subtract, modulo.
        vsubuwm => Vsubuwm;
        /// Unsigned byte subtract, saturating.
        vsububs => Vsububs;
        /// Signed halfword subtract, saturating.
        vsubshs => Vsubshs;
        /// Unsigned byte rounded average.
        vavgub => Vavgub;
        /// Unsigned halfword rounded average.
        vavguh => Vavguh;
        /// Unsigned byte max.
        vmaxub => Vmaxub;
        /// Unsigned byte min.
        vminub => Vminub;
        /// Signed halfword max.
        vmaxsh => Vmaxsh;
        /// Signed halfword min.
        vminsh => Vminsh;
        /// Bitwise and.
        vand => Vand;
        /// Bitwise and-complement.
        vandc => Vandc;
        /// Bitwise or.
        vor => Vor;
        /// Bitwise xor.
        vxor => Vxor;
        /// Bitwise nor.
        vnor => Vnor;
        /// Halfword shift left.
        vslh => Vslh;
        /// Halfword logical shift right.
        vsrh => Vsrh;
        /// Halfword arithmetic shift right.
        vsrah => Vsrah;
        /// Word shift left.
        vslw => Vslw;
        /// Word logical shift right.
        vsrw => Vsrw;
        /// Word arithmetic shift right.
        vsraw => Vsraw;
        /// Byte equality compare.
        vcmpequb => Vcmpequb;
        /// Unsigned byte greater-than compare.
        vcmpgtub => Vcmpgtub;
        /// Signed halfword greater-than compare.
        vcmpgtsh => Vcmpgtsh;
        /// Sum four unsigned bytes per word, saturating.
        vsum4ubs => Vsum4ubs;
        /// Sum signed halfword pairs per word, saturating.
        vsum4shs => Vsum4shs;
        /// Sum across signed words, saturating.
        vsumsws => Vsumsws;
        /// Multiply even unsigned bytes.
        vmuleub => Vmuleub;
        /// Multiply odd unsigned bytes.
        vmuloub => Vmuloub;
        /// Multiply even signed halfwords.
        vmulesh => Vmulesh;
        /// Multiply odd signed halfwords.
        vmulosh => Vmulosh;
    }

    vvv_ops! {
        /// Byte-wise permute of `a ‖ b` by `c`.
        vperm => Vperm;
        /// Bit-wise select.
        vsel => Vsel;
        /// Halfword multiply-low-add, modulo.
        vmladduhm => Vmladduhm;
        /// Signed halfword multiply-high-round-add, saturating.
        vmhraddshs => Vmhraddshs;
        /// Unsigned byte dot product per word with accumulate.
        vmsumubm => Vmsumubm;
        /// Signed halfword dot product per word with accumulate.
        vmsumshm => Vmsumshm;
    }

    v_unary_ops! {
        /// Unpack high signed bytes to halfwords.
        vupkhsb => Vupkhsb;
        /// Unpack low signed bytes to halfwords.
        vupklsb => Vupklsb;
        /// Unpack high signed halfwords to words.
        vupkhsh => Vupkhsh;
        /// Unpack low signed halfwords to words.
        vupklsh => Vupklsh;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valign_isa::InstrClass;

    #[test]
    fn li_add_trace_and_values() {
        let mut vm = Vm::new();
        let a = vm.li(5);
        let b = vm.li(7);
        let c = vm.add(a, b);
        assert_eq!(c.value(), 12);
        assert_eq!(vm.instr_count(), 3);
        let mix = vm.trace().mix();
        assert_eq!(mix.get(InstrClass::IntAlu), 3);
    }

    #[test]
    fn site_ids_are_stable_and_the_65536th_site_is_refused() {
        let mut vm = Vm::new();
        // As if 65,534 distinct sites had already been issued.
        vm.next_sid = u32::from(u16::MAX);
        for _ in 0..2 {
            let _ = vm.li(1); // the 65,535th site, then the same site again
        }
        let sids: Vec<StaticId> = vm.trace().iter().map(|i| i.sid).collect();
        assert_eq!(sids, [StaticId(u16::MAX); 2]);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| vm.li(2)));
        let message = refused.expect_err("a 65,536th site has no 16-bit id");
        assert!(
            message
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("65,535 static sites")),
            "{message:?}"
        );
    }

    /// One emitting call in a generic helper, reached through two
    /// monomorphisations, keeps one id, and ids number in first-seen
    /// order. A copy of a `Location` at another address (as a location
    /// duplicated across codegen units would be) misses the address
    /// cache and gets its id from the content map.
    #[test]
    fn a_site_keeps_one_id_across_callers_and_location_copies() {
        fn emit<T: Into<i64>>(vm: &mut Vm, v: T) -> Scalar {
            vm.li(v.into())
        }
        let mut vm = Vm::new();
        let _ = vm.li(0);
        let _ = emit(&mut vm, 1u8);
        let _ = emit(&mut vm, 2i32);
        let _ = vm.li(3);
        let _ = emit(&mut vm, 4u16);
        let sids: Vec<u16> = vm.trace().iter().map(|i| i.sid.0).collect();
        assert_eq!(sids, [1, 2, 2, 3, 2]);

        let here = Location::caller();
        let copy: &'static Location<'static> = Box::leak(Box::new(*here));
        assert!(!std::ptr::eq(here, copy));
        assert_eq!(vm.site_of(here), StaticId(4));
        assert_eq!(vm.site_of(copy), StaticId(4));
        assert_eq!(vm.next_sid, 5, "the copy issued no id");
    }

    #[test]
    fn source_defs_point_at_true_producers() {
        let mut vm = Vm::new();
        let a = vm.li(5); // index 0
        let b = vm.li(7); // index 1
        let _c = vm.add(a, b); // index 2
        let add = vm.trace().instrs()[2];
        assert_eq!(add.source_defs().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn defs_survive_register_reuse() {
        // Allocate enough values that the round-robin allocator reuses
        // `a`'s architectural register, then consume `a`: the trace must
        // still point at the true producer (index 0).
        let mut vm = Vm::new();
        let a = vm.li(1);
        for _ in 0..40 {
            let _ = vm.li(0);
        }
        let n = vm.instr_count();
        let _ = vm.addi(a, 1);
        let last = vm.trace().instrs()[n];
        assert_eq!(last.source_defs().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn defs_across_trace_drain_become_external() {
        let mut vm = Vm::new();
        let a = vm.li(1);
        let _ = vm.take_trace();
        let _ = vm.addi(a, 1);
        let i = vm.trace().instrs()[0];
        assert_eq!(i.source_defs().count(), 0, "producer is outside this trace");
        assert_eq!(i.sources().count(), 1, "register name is still recorded");
    }

    #[test]
    fn static_ids_stable_across_loop_iterations() {
        let mut vm = Vm::new();
        for _ in 0..4 {
            let _ = vm.li(1); // same call site every iteration
        }
        let sids: Vec<_> = vm.trace().iter().map(|i| i.sid).collect();
        assert!(sids.windows(2).all(|w| w[0] == w[1]));
        // A different site gets a different id.
        let _ = vm.li(2);
        assert_ne!(vm.trace().instrs().last().unwrap().sid, sids[0]);
    }

    #[test]
    fn lvx_truncates_lvxu_does_not() {
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(64, 16);
        for i in 0..64 {
            vm.mem_mut().write_u8(buf + i, i as u8);
        }
        let base = vm.li((buf + 5) as i64);
        let zero = vm.li(0);
        let aligned = vm.lvx(zero, base);
        assert_eq!(aligned.value().u8(0), 0, "lvx must truncate to 16B");
        let unaligned = vm.lvxu(zero, base);
        assert_eq!(unaligned.value().u8(0), 5, "lvxu reads the raw address");
        // Trace has the truncated vs raw addresses.
        let mems: Vec<_> = vm.trace().iter().filter_map(|i| i.mem).collect();
        assert_eq!(mems[0].addr % 16, 0);
        assert_eq!(mems[1].addr % 16, 5);
        assert_eq!(vm.trace().unaligned_vector_accesses(), 1);
    }

    #[test]
    fn software_realignment_equals_lvxu() {
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(64, 16);
        for i in 0..64 {
            vm.mem_mut().write_u8(buf + i, (i * 3 + 1) as u8);
        }
        for off in 0..16u64 {
            let p = vm.li((buf + off) as i64);
            let i0 = vm.li(0);
            let i15 = vm.li(15);
            let mask = vm.lvsl(i0, p);
            let lo = vm.lvx(i0, p);
            let hi = vm.lvx(i15, p);
            let sw = vm.vperm(lo, hi, mask);
            let hw = vm.lvxu(i0, p);
            assert_eq!(sw.value(), hw.value(), "offset {off}");
        }
    }

    #[test]
    fn unaligned_store_sequence_equals_stvxu() {
        // Fig. 5 store sequence vs the hardware stvxu.
        let mut vm = Vm::new();
        let a_sw = vm.mem_mut().alloc(48, 16);
        let a_hw = vm.mem_mut().alloc(48, 16);
        // Pre-fill both regions identically.
        for i in 0..48 {
            vm.mem_mut().write_u8(a_sw + i, 0x40 + i as u8);
            vm.mem_mut().write_u8(a_hw + i, 0x40 + i as u8);
        }
        for off in 0..16u64 {
            // Build the data vector (0xa0..0xb0) via memory.
            let scratch = vm.mem_mut().alloc(16, 16);
            for i in 0..16 {
                vm.mem_mut().write_u8(scratch + i, 0xa0 + i as u8);
            }
            let sp = vm.li(scratch as i64);
            let i0 = vm.li(0);
            let data = vm.lvx(i0, sp);

            // Software sequence at a_sw + off.
            let dst = vm.li((a_sw + off) as i64);
            let i16r = vm.li(16);
            let d1 = vm.lvx(i0, dst);
            let d2 = vm.lvx(i16r, dst);
            let perm = vm.lvsr(i0, dst);
            let vzero = vm.vxor(data, data);
            let ones = vm.vspltisb(-1);
            let mask = vm.vperm(vzero, ones, perm);
            let rsum = vm.vperm(data, data, perm);
            let f1 = vm.vsel(d1, rsum, mask);
            let f2 = vm.vsel(rsum, d2, mask);
            vm.stvx(f1, i0, dst);
            vm.stvx(f2, i16r, dst);

            // Hardware store at a_hw + off.
            let dsth = vm.li((a_hw + off) as i64);
            vm.stvxu(data, i0, dsth);

            let sw: Vec<u8> = vm.mem().read_bytes(a_sw, 48).to_vec();
            let hw: Vec<u8> = vm.mem().read_bytes(a_hw, 48).to_vec();
            assert_eq!(sw, hw, "offset {off}");
            // Restore regions for the next offset.
            for i in 0..48 {
                vm.mem_mut().write_u8(a_sw + i, 0x40 + i as u8);
                vm.mem_mut().write_u8(a_hw + i, 0x40 + i as u8);
            }
        }
    }

    #[test]
    fn scalar_memory_roundtrip() {
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(16, 16);
        let base = vm.li(buf as i64);
        let v = vm.li(0x1234);
        vm.sth(v, base, 2);
        let r = vm.lhz(base, 2);
        assert_eq!(r.value(), 0x1234);
        let ra = vm.lha(base, 2);
        assert_eq!(ra.value(), 0x1234);
        let vb = vm.li(0xff);
        vm.stb(vb, base, 0);
        assert_eq!(vm.lbz(base, 0).value(), 0xff);
        let vw = vm.li(0xdeadbeefu32 as i64);
        vm.stw(vw, base, 8);
        assert_eq!(vm.lwz(base, 8).value(), 0xdeadbeef);
        // Negative value sign-extends through lha.
        let neg = vm.li(-2i64);
        vm.sth(neg, base, 4);
        assert_eq!(vm.lha(base, 4).value_i64(), -2);
        assert_eq!(vm.lhz(base, 4).value(), 0xfffe);
    }

    #[test]
    fn branches_record_direction_and_target() {
        let mut vm = Vm::new();
        let top = vm.label();
        for i in 0..3 {
            let c = vm.li(i);
            let cond = vm.cmpwi(c, 2);
            vm.bc(cond, i != 2, top);
        }
        let branches: Vec<_> = vm.trace().iter().filter(|i| i.op.is_branch()).collect();
        assert_eq!(branches.len(), 3);
        assert!(branches[0].branch.unwrap().taken);
        assert!(branches[1].branch.unwrap().taken);
        assert!(!branches[2].branch.unwrap().taken);
        assert!(branches
            .iter()
            .all(|b| b.branch.unwrap().target == top.sid()));
        // Same static site for all three dynamic branches.
        assert!(branches.windows(2).all(|w| w[0].sid == w[1].sid));
    }

    #[test]
    fn scalar_alu_semantics() {
        let mut vm = Vm::new();
        let a = vm.li(-6);
        assert_eq!(vm.neg(a).value_i64(), 6);
        let b = vm.li(10);
        assert_eq!(vm.subf(a, b).value_i64(), 16); // b - a
        assert_eq!(vm.mullw(a, b).value_i64(), -60);
        let c = vm.li(3);
        assert_eq!(vm.slwi(c, 4).value(), 48);
        let d = vm.li(-64);
        assert_eq!(vm.srawi(d, 3).value_i64(), -8);
        let e = vm.li(64);
        assert_eq!(vm.srwi(e, 3).value(), 8);
        let f = vm.li(0b1100);
        let g = vm.li(0b1010);
        assert_eq!(vm.and(f, g).value(), 0b1000);
        assert_eq!(vm.or(f, g).value(), 0b1110);
        assert_eq!(vm.xor(f, g).value(), 0b0110);
        assert_eq!(vm.andi(f, 0b0100).value(), 0b0100);
        assert_eq!(vm.ori(f, 1).value(), 0b1101);
        let h = vm.li(0x80);
        assert_eq!(vm.extsb(h).value_i64(), -128);
        let i = vm.li(0x8000);
        assert_eq!(vm.extsh(i).value_i64(), -32768);
        let cond = vm.cmpw(a, b);
        assert_eq!(cond.value_i64(), -1);
        let sel = vm.isel(cond, f, g);
        assert_eq!(sel.value(), f.value());
        let z = vm.li(0);
        let sel2 = vm.isel(z, f, g);
        assert_eq!(sel2.value(), g.value());
    }

    #[test]
    fn lvewx_stvewx_move_words() {
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(32, 16);
        vm.mem_mut().write_u32(buf + 8, 0xcafebabe);
        let base = vm.li(buf as i64);
        let i8r = vm.li(8);
        let v = vm.lvewx(i8r, base);
        assert_eq!(v.value().u32(2), 0xcafebabe);
        // Store lane 3 of a vector to offset 12.
        let dst = vm.mem_mut().alloc(16, 16);
        let dbase = vm.li(dst as i64);
        let i12 = vm.li(12);
        let mut raw = V128::ZERO;
        raw.set_u32(3, 0x11223344);
        // Round-trip the raw value through memory to get a handle.
        let tmp = vm.mem_mut().alloc(16, 16);
        vm.mem_mut().write_v128(tmp, raw);
        let tb = vm.li(tmp as i64);
        let i0 = vm.li(0);
        let vh = vm.lvx(i0, tb);
        vm.stvewx(vh, i12, dbase);
        assert_eq!(vm.mem().read_u32(dst + 12), 0x11223344);
    }

    #[test]
    fn take_and_clear_trace() {
        let mut vm = Vm::new();
        let _ = vm.li(1);
        let t = vm.take_trace();
        assert_eq!(t.len(), 1);
        assert_eq!(vm.instr_count(), 0);
        let _ = vm.li(2);
        vm.clear_trace();
        assert_eq!(vm.instr_count(), 0);
    }

    /// One chunk of a program whose values flow into the next chunk: a
    /// dependent add chain, a load/store pair and a loop-closing branch.
    fn chunk(vm: &mut Vm, x: Scalar, base: Scalar) -> Scalar {
        let lp = vm.label();
        let y = vm.addi(x, 16);
        let sum = vm.add(x, y);
        let v = vm.lvx(y, base);
        vm.stvx(v, x, base);
        let c = vm.cmpwi(sum, 0);
        vm.bc(c, true, lp);
        y
    }

    fn chunked_program(vm: &mut Vm, mut between: impl FnMut(&mut Vm)) {
        let buf = vm.mem_mut().alloc(256, 16);
        vm.clear_trace();
        let base = vm.li(buf as i64);
        let mut x = vm.li(0);
        for _ in 0..5 {
            x = chunk(vm, x, base);
            between(vm);
        }
        let _ = vm.add(x, base);
    }

    #[test]
    fn drained_chunks_concatenate_to_the_taken_trace() {
        let mut whole = Vm::new();
        chunked_program(&mut whole, |_| {});
        let want = whole.take_trace();

        let mut vm = Vm::new();
        let mut got = Vec::new();
        let mut drains = 0;
        chunked_program(&mut vm, |vm| {
            vm.drain_records(|r| got.push(*r));
            assert_eq!(vm.instr_count(), 0, "a drain empties the buffer");
            drains += 1;
        });
        got.extend(vm.take_trace().iter().copied());
        assert_eq!(drains, 5);
        assert_eq!(got, want.instrs());
        // Producers stay continuous across drains: every chunk after the
        // first reads `x` and `base` from earlier chunks by their index
        // in the whole trace, never as an external source.
        assert!(got
            .iter()
            .all(|r| r.srcs.iter().flatten().all(|s| s.def.is_some())));
        // The closing add reads the last chunk's `addi` (six records
        // before it) and `base`, record 0.
        let last = got.len() as u32 - 1;
        let closing = got.last().map(|r| r.source_defs().collect::<Vec<_>>());
        assert_eq!(closing, Some(vec![last - 6, 0]));
    }

    #[test]
    fn take_and_clear_start_a_new_trace_after_drains() {
        for take in [true, false] {
            let mut vm = Vm::new();
            let a = vm.li(1);
            vm.drain_records(|_| {});
            let b = vm.addi(a, 1);
            vm.drain_records(|_| {});
            if take {
                let _ = vm.take_trace();
            } else {
                vm.clear_trace();
            }
            let _ = vm.add(a, b);
            let i = vm.trace().instrs()[0];
            assert_eq!(
                i.source_defs().count(),
                0,
                "take={take}: both producers are external"
            );
            assert_eq!(
                i.sources().count(),
                2,
                "take={take}: register names are kept"
            );
        }
    }

    #[test]
    fn register_allocation_round_robin_wraps() {
        let mut vm = Vm::new();
        let first = vm.li(0).reg();
        for _ in 0..(NUM_GPRS as usize - 1) {
            let _ = vm.li(0);
        }
        let wrapped = vm.li(0).reg();
        assert_eq!(first, wrapped);
        let v1 = vm.vspltisb(0).reg();
        for _ in 0..(NUM_VPRS as usize - 1) {
            let _ = vm.vspltisb(0);
        }
        assert_eq!(vm.vspltisb(0).reg(), v1);
    }
}
