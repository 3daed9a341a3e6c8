//! Dynamic instruction trace format.
//!
//! The functional VM (`valign-vm`) executes a kernel and emits one
//! [`DynInstr`] per dynamically executed instruction. The cycle-accurate
//! simulator (`valign-pipeline`) replays the stream. This mirrors the
//! paper's methodology: an Aria-based instruction emulator produced traces
//! that a Turandot-based cycle-accurate simulator consumed.
//!
//! Each record carries:
//!
//! * the [`Opcode`] (class, unit and latency are derived from it),
//! * a [`StaticId`] — a stable identifier of the static emission site,
//!   which plays the role of the instruction's PC for branch prediction,
//! * destination and source architectural registers for dependence
//!   tracking,
//! * an optional [`MemRef`] (effective address + width) for loads/stores,
//! * optional [`BranchInfo`] (direction + target site) for branches.

use crate::class::MixCounts;
use crate::op::Opcode;
use crate::reg::Reg;
use std::fmt;

/// Stable identifier of a static instruction site.
///
/// Kernels are written in Rust against the tracing VM, so there is no real
/// program counter; every static emission site receives a stable id instead
/// and dynamic instances of the same site share it. The branch predictor
/// and I-fetch model index on this value exactly as they would on a PC.
///
/// Sixteen bits: sites come from kernel source, not from the workload
/// size, so a program has a fixed handful of them (about a hundred), and
/// the replay image stores one per record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct StaticId(pub u16);

impl StaticId {
    /// The synthetic word address used where a numeric PC is required.
    pub fn pc(self) -> u64 {
        u64::from(self.0) << 2
    }
}

impl fmt::Display for StaticId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{:#x}", self.pc())
    }
}

/// Direction of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// The access reads memory.
    Load,
    /// The access writes memory.
    Store,
}

/// A memory access performed by one dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Effective byte address.
    pub addr: u64,
    /// Access width in bytes.
    pub bytes: u8,
    /// Load or store.
    pub kind: MemKind,
}

impl MemRef {
    /// The offset of the effective address within a 16-byte vector word —
    /// the `(src % 16)` quantity of the paper's Fig. 4.
    pub fn quad_offset(&self) -> u8 {
        crate::align::quad_offset(self.addr)
    }

    /// Whether the access is unaligned with respect to its own width.
    pub fn is_unaligned(&self) -> bool {
        !self.addr.is_multiple_of(u64::from(self.bytes.max(1)))
    }

    /// Whether the access crosses a cache-line boundary of the given size.
    pub fn crosses_line(&self, line_bytes: u64) -> bool {
        debug_assert!(line_bytes.is_power_of_two());
        (self.addr / line_bytes) != ((self.addr + u64::from(self.bytes) - 1) / line_bytes)
    }
}

/// The resolved outcome of one dynamic branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// Whether the branch was taken.
    pub taken: bool,
    /// Static site of the branch target (the next instruction's site when
    /// not taken).
    pub target: StaticId,
    /// Whether the branch is unconditional (always taken, trivially
    /// predictable once the BTB knows the target).
    pub unconditional: bool,
}

/// A source operand: the architectural register read, plus the
/// trace-local index of the dynamic instruction that produced the value.
///
/// The producer index gives the timing model *true dataflow* — exactly
/// what a renaming out-of-order core recovers — independent of how the
/// tracing register allocator happened to assign architectural names.
/// `def` is `None` when the producer is outside the trace (initial state
/// or an earlier, already-drained trace segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrcRef {
    /// The architectural register read (for display and accounting).
    pub reg: Reg,
    /// Trace-local index of the producing instruction, if in this trace.
    pub def: Option<u32>,
}

impl SrcRef {
    /// A source with an unknown/external producer.
    pub fn external(reg: Reg) -> Self {
        SrcRef { reg, def: None }
    }

    /// A source produced by the instruction at trace index `def`.
    pub fn produced_by(reg: Reg, def: u32) -> Self {
        SrcRef {
            reg,
            def: Some(def),
        }
    }
}

impl From<Reg> for SrcRef {
    fn from(reg: Reg) -> Self {
        SrcRef::external(reg)
    }
}

impl From<crate::reg::Gpr> for SrcRef {
    fn from(g: crate::reg::Gpr) -> Self {
        SrcRef::external(g.into())
    }
}

impl From<crate::reg::Vpr> for SrcRef {
    fn from(v: crate::reg::Vpr) -> Self {
        SrcRef::external(v.into())
    }
}

/// One dynamically executed instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInstr {
    /// Opcode; class/unit/latency derive from it.
    pub op: Opcode,
    /// Static emission site (synthetic PC).
    pub sid: StaticId,
    /// Destination register, if the instruction writes one.
    pub dst: Option<Reg>,
    /// Source operands (up to three, e.g. `vperm vD, vA, vB, vC`).
    pub srcs: [Option<SrcRef>; 3],
    /// Memory access, for loads and stores.
    pub mem: Option<MemRef>,
    /// Branch outcome, for branches.
    pub branch: Option<BranchInfo>,
}

impl DynInstr {
    /// A non-memory, non-branch instruction record.
    pub fn alu(op: Opcode, sid: StaticId, dst: Option<Reg>, srcs: &[SrcRef]) -> Self {
        debug_assert!(!op.touches_memory() && !op.is_branch());
        Self {
            op,
            sid,
            dst,
            srcs: Self::pack_srcs(srcs),
            mem: None,
            branch: None,
        }
    }

    /// A memory instruction record.
    pub fn mem(op: Opcode, sid: StaticId, dst: Option<Reg>, srcs: &[SrcRef], mem: MemRef) -> Self {
        debug_assert!(op.touches_memory());
        debug_assert_eq!(op.is_load(), mem.kind == MemKind::Load);
        Self {
            op,
            sid,
            dst,
            srcs: Self::pack_srcs(srcs),
            mem: Some(mem),
            branch: None,
        }
    }

    /// A branch instruction record.
    pub fn branch(op: Opcode, sid: StaticId, srcs: &[SrcRef], info: BranchInfo) -> Self {
        debug_assert!(op.is_branch());
        Self {
            op,
            sid,
            dst: None,
            srcs: Self::pack_srcs(srcs),
            mem: None,
            branch: Some(info),
        }
    }

    fn pack_srcs(srcs: &[SrcRef]) -> [Option<SrcRef>; 3] {
        assert!(srcs.len() <= 3, "at most three source registers");
        let mut out = [None; 3];
        for (slot, &r) in out.iter_mut().zip(srcs.iter()) {
            *slot = Some(r);
        }
        out
    }

    /// Iterates the present source registers.
    pub fn sources(&self) -> impl Iterator<Item = Reg> + '_ {
        self.srcs.iter().filter_map(|s| s.map(|r| r.reg))
    }

    /// Iterates the in-trace producer indices of the present sources.
    pub fn source_defs(&self) -> impl Iterator<Item = u32> + '_ {
        self.srcs.iter().filter_map(|s| s.and_then(|r| r.def))
    }

    /// Whether this record is a vector memory access to an address that is
    /// not 16-byte aligned. Only meaningful for `lvxu`/`stvxu`; aligned
    /// Altivec ops always present truncated addresses.
    pub fn is_unaligned_vector_access(&self) -> bool {
        self.op.is_unaligned_capable() && self.mem.is_some_and(|m| m.quad_offset() != 0)
    }
}

impl fmt::Display for DynInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.sid, self.op.mnemonic())?;
        if let Some(d) = self.dst {
            write!(f, " {d},")?;
        }
        for s in self.sources() {
            write!(f, " {s}")?;
        }
        if let Some(m) = self.mem {
            let k = match m.kind {
                MemKind::Load => "R",
                MemKind::Store => "W",
            };
            write!(f, " [{k} {:#x} x{}]", m.addr, m.bytes)?;
        }
        if let Some(b) = self.branch {
            write!(f, " ({} -> {})", if b.taken { "T" } else { "N" }, b.target)?;
        }
        Ok(())
    }
}

/// An execution trace: the ordered stream of dynamic instructions.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    instrs: Vec<DynInstr>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one dynamic instruction.
    pub fn push(&mut self, i: DynInstr) {
        self.instrs.push(i);
    }

    /// The recorded instructions, in program order.
    pub fn instrs(&self) -> &[DynInstr] {
        &self.instrs
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Clears the trace, keeping its allocation.
    pub fn clear(&mut self) {
        self.instrs.clear();
    }

    /// Per-class dynamic instruction counts (a Table III row).
    pub fn mix(&self) -> MixCounts {
        let mut m = MixCounts::new();
        for i in &self.instrs {
            m.record(i.op.class());
        }
        m
    }

    /// Number of dynamic vector memory accesses with a non-zero 16-byte
    /// offset (i.e. uses of the unaligned extension that were actually
    /// unaligned).
    pub fn unaligned_vector_accesses(&self) -> u64 {
        self.instrs
            .iter()
            .filter(|i| i.is_unaligned_vector_access())
            .count() as u64
    }

    /// Iterate over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, DynInstr> {
        self.instrs.iter()
    }

    /// Freezes the trace behind an [`std::sync::Arc`] for shared,
    /// immutable replay — the ownership form the simulation-job layer
    /// passes between worker threads.
    pub fn into_shared(self) -> std::sync::Arc<Trace> {
        std::sync::Arc::new(self)
    }

    /// Approximate heap footprint of the recorded stream, for cache
    /// accounting in reports.
    pub fn approx_bytes(&self) -> usize {
        self.instrs.capacity() * std::mem::size_of::<DynInstr>()
    }
}

impl Extend<DynInstr> for Trace {
    fn extend<T: IntoIterator<Item = DynInstr>>(&mut self, iter: T) {
        self.instrs.extend(iter);
    }
}

impl FromIterator<DynInstr> for Trace {
    fn from_iter<T: IntoIterator<Item = DynInstr>>(iter: T) -> Self {
        Trace {
            instrs: Vec::from_iter(iter),
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a DynInstr;
    type IntoIter = std::slice::Iter<'a, DynInstr>;
    fn into_iter(self) -> Self::IntoIter {
        self.instrs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{Gpr, Vpr};

    fn sid(n: u16) -> StaticId {
        StaticId(n)
    }

    #[test]
    fn memref_quad_offset_and_alignment() {
        let m = MemRef {
            addr: 0x1002,
            bytes: 16,
            kind: MemKind::Load,
        };
        assert_eq!(m.quad_offset(), 2);
        assert!(m.is_unaligned());
        let a = MemRef {
            addr: 0x1000,
            bytes: 16,
            kind: MemKind::Load,
        };
        assert_eq!(a.quad_offset(), 0);
        assert!(!a.is_unaligned());
    }

    #[test]
    fn memref_line_crossing() {
        // 128-byte lines as in Table II.
        let cross = MemRef {
            addr: 0x1078,
            bytes: 16,
            kind: MemKind::Load,
        };
        assert!(cross.crosses_line(128));
        let inside = MemRef {
            addr: 0x1070,
            bytes: 16,
            kind: MemKind::Load,
        };
        assert!(!inside.crosses_line(128));
    }

    #[test]
    fn unaligned_detection_requires_capable_opcode() {
        let m = MemRef {
            addr: 0x1003,
            bytes: 16,
            kind: MemKind::Load,
        };
        let lvxu = DynInstr::mem(
            Opcode::Lvxu,
            sid(1),
            Some(Vpr::new(0).into()),
            &[Gpr::new(1).into()],
            m,
        );
        assert!(lvxu.is_unaligned_vector_access());
        // An aligned Altivec load never reports unaligned (its address has
        // already been truncated by the VM).
        let aligned = MemRef {
            addr: 0x1000,
            bytes: 16,
            kind: MemKind::Load,
        };
        let lvx = DynInstr::mem(
            Opcode::Lvx,
            sid(2),
            Some(Vpr::new(1).into()),
            &[Gpr::new(1).into()],
            aligned,
        );
        assert!(!lvx.is_unaligned_vector_access());
    }

    #[test]
    fn trace_mix_counts_classes() {
        let mut t = Trace::new();
        t.push(DynInstr::alu(
            Opcode::Add,
            sid(1),
            Some(Gpr::new(3).into()),
            &[Gpr::new(1).into(), Gpr::new(2).into()],
        ));
        t.push(DynInstr::alu(
            Opcode::Vperm,
            sid(2),
            Some(Vpr::new(3).into()),
            &[Vpr::new(0).into(), Vpr::new(1).into(), Vpr::new(2).into()],
        ));
        t.push(DynInstr::branch(
            Opcode::Bc,
            sid(3),
            &[Gpr::new(3).into()],
            BranchInfo {
                taken: true,
                target: sid(1),
                unconditional: false,
            },
        ));
        let m = t.mix();
        assert_eq!(m.total(), 3);
        assert_eq!(m.get(crate::InstrClass::IntAlu), 1);
        assert_eq!(m.get(crate::InstrClass::VecPerm), 1);
        assert_eq!(m.get(crate::InstrClass::Branch), 1);
        assert_eq!(t.unaligned_vector_accesses(), 0);
    }

    #[test]
    fn display_formats() {
        let i = DynInstr::mem(
            Opcode::Lvxu,
            sid(5),
            Some(Vpr::new(7).into()),
            &[Gpr::new(4).into()],
            MemRef {
                addr: 0x2001,
                bytes: 16,
                kind: MemKind::Load,
            },
        );
        let s = i.to_string();
        assert!(s.contains("lvxu"), "{s}");
        assert!(s.contains("v7"), "{s}");
        assert!(s.contains("0x2001"), "{s}");
        assert!(!StaticId(3).to_string().is_empty());
    }

    #[test]
    fn sources_iterator_skips_missing() {
        let i = DynInstr::alu(
            Opcode::Neg,
            sid(1),
            Some(Gpr::new(2).into()),
            &[Gpr::new(1).into()],
        );
        assert_eq!(i.sources().count(), 1);
    }

    #[test]
    #[should_panic(expected = "at most three")]
    fn too_many_sources_panics() {
        let r = SrcRef::external(Gpr::new(1).into());
        let _ = DynInstr::alu(Opcode::Add, sid(1), None, &[r, r, r, r]);
    }

    #[test]
    fn src_refs_carry_producers() {
        let i = DynInstr::alu(
            Opcode::Add,
            sid(1),
            Some(Gpr::new(2).into()),
            &[
                SrcRef::produced_by(Gpr::new(0).into(), 7),
                SrcRef::external(Gpr::new(1).into()),
            ],
        );
        assert_eq!(i.source_defs().collect::<Vec<_>>(), vec![7]);
        assert_eq!(i.sources().count(), 2);
    }

    #[test]
    fn trace_collect_and_extend() {
        let mk = |n| {
            DynInstr::alu(
                Opcode::Li,
                sid(n),
                Some(Gpr::new((n % 32) as u8).into()),
                &[],
            )
        };
        let t: Trace = (0..10).map(mk).collect();
        assert_eq!(t.len(), 10);
        let mut t2 = Trace::new();
        t2.extend(t.iter().copied());
        assert_eq!(t2.len(), 10);
        assert!(!t2.is_empty());
        t2.clear();
        assert!(t2.is_empty());
    }
}
