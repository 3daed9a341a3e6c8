//! Load/store unit of the engine: D-cache port arbitration, store-to-load
//! ordering through a bounded store queue, the bounded miss queue (MSHRs),
//! and the realignment-network penalty for unaligned vector accesses.
//!
//! Borrows the persistent memory [`Hierarchy`] mutably for one replay; all
//! other state is per-replay.

use crate::backend::UnitPool;
use crate::config::PipelineConfig;
use crate::result::{SimError, SimResult};
use valign_cache::{BankScheme, Hierarchy, RealignConfig};
use valign_isa::MemKind;

#[derive(Debug, Clone, Copy, Default)]
struct PendingStore {
    addr: u64,
    bytes: u64,
    complete: u64,
}

/// Number of most-recent stores the LSU tracks for store-to-load
/// ordering. A load overlapping only stores older than this window is not
/// ordered by the model — the `valign-analyze` memory-dependence rule
/// audits traces against exactly this assumption.
pub const STORE_QUEUE_TRACK: usize = 64;

/// One memory access as the replay walk hands it to [`Lsu::execute`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemAccess<'a> {
    /// Effective address.
    pub addr: u64,
    /// Access width in bytes.
    pub bytes: u8,
    /// Load or store.
    pub kind: MemKind,
    /// The record's unaligned-vector-access flag (unaligned-capable
    /// opcode with a non-zero quad offset).
    pub unaligned: bool,
    /// The replay image's pre-resolved store-to-load dependences (store
    /// ordinals); `None` for a record-form access, which scans instead.
    pub deps: Option<&'a [u32]>,
}

/// The timing decomposition of one executed memory access, consumed by
/// the engine's cycle attribution. The milestones are non-decreasing and
/// `complete - after_mshr == latency + realign penalty` with
/// `latency == hit_cycles + extra_cycles`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemExec {
    /// Completion cycle of the access.
    pub complete: u64,
    /// Issue raised by store-to-load ordering (RAW through memory).
    pub after_store_dep: u64,
    /// Then raised by miss-queue (MSHR) admission.
    pub after_mshr: u64,
    /// The L1-hit portion of the access latency (useful work).
    pub hit_cycles: u32,
    /// Latency beyond the hit time: miss latency, or the serialised
    /// second lookup of a split access when every line actually hit.
    pub extra_cycles: u32,
    /// Whether `extra_cycles` is miss latency (else split serialisation,
    /// charged as D-cache port contention). The realignment penalty is the
    /// remainder `complete - (after_mshr + hit_cycles + extra_cycles)`.
    pub extra_is_miss: bool,
}

/// Per-replay load/store-unit state around the persistent cache hierarchy.
#[derive(Debug)]
pub(crate) struct Lsu<'a> {
    mem: &'a mut Hierarchy,
    read_ports: UnitPool,
    write_ports: UnitPool,
    // The last STORE_QUEUE_TRACK stores, indexed by store ordinal modulo
    // the window: addressed directly through an image's pre-resolved
    // dependence lists, scanned for a record-form access.
    store_ring: [PendingStore; STORE_QUEUE_TRACK],
    stores_seen: usize,
    miss_queue: Vec<u64>,
    miss_cap: usize,
    banks: BankScheme,
    realign: RealignConfig,
    l1_latency: u32,
}

impl<'a> Lsu<'a> {
    pub(crate) fn new(cfg: &PipelineConfig, mem: &'a mut Hierarchy) -> Self {
        let miss_cap = cfg.miss_max.max(1) as usize;
        Lsu {
            mem,
            read_ports: UnitPool::new(cfg.dcache_read_ports),
            write_ports: UnitPool::new(cfg.dcache_write_ports),
            store_ring: [PendingStore::default(); STORE_QUEUE_TRACK],
            stores_seen: 0,
            miss_queue: Vec::with_capacity(miss_cap),
            miss_cap,
            banks: cfg.realign.banks,
            realign: cfg.realign,
            l1_latency: cfg.memory.l1_latency,
        }
    }

    /// Books a D-cache port of the right kind from `min` onwards.
    pub(crate) fn acquire_port(&mut self, kind: MemKind, min: u64) -> u64 {
        let port = match kind {
            MemKind::Load => &mut self.read_ports,
            MemKind::Store => &mut self.write_ports,
        };
        port.acquire(min)
    }

    /// Executes one memory access issued at `issue_cycle` — store-to-load
    /// ordering, hierarchy access, bounded miss queue, realignment
    /// penalty — and returns its timing decomposition (completion cycle
    /// plus attribution milestones), accumulating penalty statistics into
    /// `result`.
    ///
    /// Store-to-load ordering comes from `access.deps` when the replay
    /// image pre-resolved it: the ordinals of exactly the stores a scan
    /// would find overlapping, looked up directly in the store ring. A
    /// record-form access (`deps: None`) scans the ring instead. A
    /// well-formed image only names stores within the trailing
    /// [`STORE_QUEUE_TRACK`]-store window; an ordinal outside it would
    /// read a slot belonging to a *different* store and silently skew the
    /// timing, so `CHECKED` (the guarded replay) reports it as
    /// [`SimError::DepOutOfWindow`] at record `index`.
    // Forced inline: the inliner outlined it from the unguarded walk,
    // which cost the image walk several percent.
    #[inline(always)]
    pub(crate) fn execute<const CHECKED: bool>(
        &mut self,
        access: &MemAccess<'_>,
        index: usize,
        issue_cycle: u64,
        result: &mut SimResult,
    ) -> Result<MemExec, SimError> {
        let mut start = issue_cycle;
        let is_store = access.kind == MemKind::Store;
        match access.deps {
            Some(deps) => {
                for &ordinal in deps {
                    let o = ordinal as usize;
                    if CHECKED
                        && (o >= self.stores_seen || self.stores_seen - o > STORE_QUEUE_TRACK)
                    {
                        return Err(SimError::DepOutOfWindow {
                            index,
                            ordinal,
                            stores_seen: self.stores_seen as u64,
                        });
                    }
                    start = start.max(self.store_ring[o % STORE_QUEUE_TRACK].complete);
                }
            }
            None if !is_store => {
                let live = self.stores_seen.min(STORE_QUEUE_TRACK);
                for st in &self.store_ring[..live] {
                    if ranges_overlap(st.addr, st.bytes, access.addr, u64::from(access.bytes)) {
                        start = start.max(st.complete);
                    }
                }
            }
            None => {}
        }

        let after_store_dep = start;
        let outcome = self
            .mem
            .access(access.addr, u32::from(access.bytes), is_store, self.banks);
        if outcome.split {
            result.split_accesses += 1;
        }

        // Bounded miss queue.
        if !outcome.l1_hit {
            self.miss_queue.retain(|&c| c > start);
            if self.miss_queue.len() >= self.miss_cap {
                let (i, &soonest) = self
                    .miss_queue
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &c)| c)
                    .expect("non-empty");
                start = start.max(soonest);
                self.miss_queue.swap_remove(i);
            }
        }
        let after_mshr = start;

        // Realignment-network penalty for unaligned vector access.
        let unaligned = access.unaligned;
        let penalty = self
            .realign
            .penalty(unaligned, is_store, outcome.split, self.l1_latency);
        if unaligned {
            result.unaligned_accesses += 1;
            result.realign_penalty_cycles += u64::from(penalty);
        }

        let complete = start + u64::from(outcome.latency + penalty);
        if !outcome.l1_hit {
            self.miss_queue.push(complete);
        }
        if is_store {
            self.store_ring[self.stores_seen % STORE_QUEUE_TRACK] = PendingStore {
                addr: access.addr,
                bytes: u64::from(access.bytes),
                complete,
            };
            self.stores_seen += 1;
        }
        // Attribution split of the hierarchy latency: the L1-hit portion
        // is useful work; anything beyond is miss latency, unless every
        // line hit and the excess is the serialised split lookup (port
        // contention on a single-banked L1).
        let hit_cycles = outcome.latency.min(self.l1_latency);
        Ok(MemExec {
            complete,
            after_store_dep,
            after_mshr,
            hit_cycles,
            extra_cycles: outcome.latency - hit_cycles,
            extra_is_miss: !outcome.l1_hit,
        })
    }
}

/// Whether the byte ranges `[a, a+alen)` and `[b, b+blen)` overlap — the
/// exact predicate the store queue uses for store-to-load ordering,
/// exported so the static analyzer cross-checks against the same test.
///
/// Overflow-safe: ranges are compared by distance, never by computed end
/// addresses, so effective addresses near the top of the 64-bit address
/// space do not wrap (a wrapped end silently dropped store-to-load
/// ordering for such accesses). A range whose unbounded end would pass
/// `u64::MAX` is treated as clipped to the address-space top.
pub fn ranges_overlap(a: u64, alen: u64, b: u64, blen: u64) -> bool {
    if a <= b {
        b - a < alen && blen > 0
    } else {
        a - b < blen && alen > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_is_symmetric_and_exact() {
        assert!(ranges_overlap(0, 4, 3, 4));
        assert!(ranges_overlap(3, 4, 0, 4));
        assert!(!ranges_overlap(0, 4, 4, 4));
        assert!(!ranges_overlap(4, 4, 0, 4));
    }

    #[test]
    fn zero_length_ranges_never_overlap() {
        assert!(!ranges_overlap(8, 0, 8, 4));
        assert!(!ranges_overlap(8, 4, 8, 0));
        assert!(!ranges_overlap(8, 0, 8, 0));
    }

    #[test]
    fn top_of_address_space_does_not_wrap() {
        let top = u64::MAX - 8;
        // [MAX-8, MAX-8+16) vs [MAX-4, MAX-4+16): overlapping quadword
        // stores whose unbounded ends pass u64::MAX. The old end-address
        // form wrapped both ends to small values and reported disjoint.
        assert!(ranges_overlap(top, 16, top + 4, 16));
        assert!(ranges_overlap(top + 4, 16, top, 16));
        // Adjacent-but-disjoint near the top stays disjoint.
        assert!(!ranges_overlap(top, 4, top + 4, 4));
        // A range ending exactly at u64::MAX vs one starting there.
        assert!(ranges_overlap(u64::MAX, 1, u64::MAX, 16));
        assert!(!ranges_overlap(u64::MAX - 1, 1, u64::MAX, 1));
    }
}
