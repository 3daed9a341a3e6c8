//! Back-end stage of the engine: issue-queue back-pressure, operand
//! readiness through the register scoreboard, execution-unit instance
//! arbitration, and in-order retirement.
//!
//! All state is per-replay and owned, so the stage is trivially `Send`.

use crate::config::{IssuePolicy, PipelineConfig};
use crate::frontend::CyclePacker;
use crate::image::NO_DEF;
use std::collections::VecDeque;
use valign_isa::Opcode;

/// Pool of identical fully-pipelined unit instances.
#[derive(Debug, Clone)]
pub(crate) struct UnitPool {
    next_free: Vec<u64>,
}

impl UnitPool {
    pub(crate) fn new(n: u32) -> Self {
        UnitPool {
            next_free: vec![0; n.max(1) as usize],
        }
    }

    /// Earliest cycle `>= min` at which an instance can accept one op;
    /// books the chosen instance for one cycle. Hand-rolled first-minimum
    /// scan: pools hold a handful of instances and this runs once per
    /// instruction, so the iterator adaptor chain is worth trimming.
    #[inline]
    pub(crate) fn acquire(&mut self, min: u64) -> u64 {
        let mut best = 0;
        for i in 1..self.next_free.len() {
            if self.next_free[i] < self.next_free[best] {
                best = i;
            }
        }
        let at = min.max(self.next_free[best]);
        self.next_free[best] = at + 1;
        at
    }
}

/// Cumulative issue-readiness milestones of one instruction, in the order
/// the back end applies its constraints. Each field is the running maximum
/// after that constraint, so the sequence is non-decreasing:
/// `dispatch <= after_queue <= after_deps <= after_order`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ready {
    /// After issue-queue back-pressure.
    pub after_queue: u64,
    /// Then after operand readiness (RAW dependences).
    pub after_deps: u64,
    /// Then after in-order issue (equals `after_deps` on OoO machines).
    /// This is the cycle the instruction is ready to contend for a unit.
    pub after_order: u64,
}

/// Per-replay back-end state: queues, scoreboard rings and unit pools.
#[derive(Debug)]
pub(crate) struct Backend {
    units: Vec<UnitPool>,
    /// Dense unit index of each opcode, by [`Opcode::index`]: the replay
    /// image stores no unit column, so the walk looks it up here.
    unit_of: [u8; Opcode::COUNT],
    // Issue-queue occupancy rings (dispatch blocks until the entry
    // `queue_size` older has issued).
    iq_ring: VecDeque<u64>,
    iq_cap: usize,
    brq_ring: VecDeque<u64>,
    brq_cap: usize,
    retire: CyclePacker,
    // Rings of retire/completion cycles for the in-flight window. An
    // instruction can only fetch once the one `window` older retired, so
    // any producer older than `window` has completed by now and imposes no
    // constraint — the completion ring therefore only needs `window`
    // entries.
    retire_ring: Vec<u64>,
    complete_ring: Vec<u64>,
    window: usize,
    // `idx % window` maintained incrementally. Instructions pass through
    // `window_floor` → `ready_at` → `retire` once each, in index order,
    // so a wrapping cursor replaces the per-call divide the runtime
    // window size would otherwise cost (several per instruction, on the
    // replay hot path).
    slot: usize,
    in_order: bool,
    last_issue: u64,
    last_retire: u64,
}

impl Backend {
    pub(crate) fn new(cfg: &PipelineConfig) -> Self {
        let window = cfg.inflight.max(1) as usize;
        Backend {
            units: cfg.units.iter().map(|&c| UnitPool::new(c)).collect(),
            unit_of: std::array::from_fn(|i| Opcode::ALL[i].unit().index() as u8),
            iq_ring: VecDeque::with_capacity(cfg.issue_queue as usize),
            iq_cap: cfg.issue_queue as usize,
            brq_ring: VecDeque::with_capacity(cfg.br_issue_queue as usize),
            brq_cap: cfg.br_issue_queue as usize,
            retire: CyclePacker::new(cfg.retire_width),
            retire_ring: vec![0; window],
            complete_ring: vec![0; window],
            window,
            slot: 0,
            in_order: cfg.policy == IssuePolicy::InOrder,
            last_issue: 0,
            last_retire: 0,
        }
    }

    /// In-flight-window constraint on fetching instruction `idx`: it may
    /// not fetch before the instruction `window` older has retired.
    pub(crate) fn window_floor(&self, idx: usize) -> Option<u64> {
        debug_assert_eq!(self.slot, idx % self.window, "cursor out of step");
        if idx >= self.window {
            // `slot` is exactly `idx % window`: the ring entry about to be
            // overwritten by this instruction's own retirement, i.e. the
            // instruction `window` older.
            Some(self.retire_ring[self.slot])
        } else {
            None
        }
    }

    /// Earliest cycle the next instruction can issue given dispatch time,
    /// issue-queue back-pressure, operand readiness and (for in-order
    /// machines) program order. `defs` are the record's producer
    /// back-distances ([`NO_DEF`] marks a slot with no producer). Returns
    /// the per-constraint [`Ready`] milestones; `after_order` is the
    /// earliest issue cycle callers previously received.
    #[inline]
    pub(crate) fn ready_at(&mut self, is_branch: bool, defs: &[u16; 3], dispatch: u64) -> Ready {
        let mut earliest = dispatch;

        // Issue-queue back-pressure.
        let (queue, cap) = self.queue_mut(is_branch);
        if queue.len() == cap {
            let oldest_issue = queue.pop_front().expect("queue non-empty");
            earliest = earliest.max(oldest_issue);
        }
        let after_queue = earliest;

        // Operand readiness: true dataflow via producer distances (what
        // the renamed machine recovers); a distance is the producer's age,
        // and producers outside the in-flight window completed long ago.
        for &d in defs {
            let age = usize::from(d);
            if d != NO_DEF && age <= self.window {
                // The producer's ring slot, derived from the maintained
                // cursor by subtraction: age is in [1, window], so one
                // conditional wrap suffices and no divide is emitted.
                let mut def_slot = self.slot + self.window - age;
                if def_slot >= self.window {
                    def_slot -= self.window;
                }
                earliest = earliest.max(self.complete_ring[def_slot]);
            }
        }
        let after_deps = earliest;

        if self.in_order {
            earliest = earliest.max(self.last_issue);
        }
        Ready {
            after_queue,
            after_deps,
            after_order: earliest,
        }
    }

    /// Books an instance of the execution unit that services `op`.
    pub(crate) fn acquire_unit(&mut self, op: Opcode, earliest: u64) -> u64 {
        self.units[usize::from(self.unit_of[op.index()])].acquire(earliest)
    }

    /// Records the final issue cycle (after D-cache port arbitration) in
    /// the issue queue and the in-order tracker.
    pub(crate) fn note_issue(&mut self, is_branch: bool, issue_cycle: u64) {
        if self.in_order {
            self.last_issue = issue_cycle;
        }
        let (queue, cap) = self.queue_mut(is_branch);
        if cap == 0 {
            return;
        }
        if queue.len() == cap {
            queue.pop_front();
        }
        queue.push_back(issue_cycle);
    }

    /// Retires instruction `idx` in order and updates the scoreboard rings.
    /// Returns the retire cycle.
    #[inline]
    pub(crate) fn retire(&mut self, idx: usize, complete: u64) -> u64 {
        debug_assert_eq!(self.slot, idx % self.window, "cursor out of step");
        let _ = idx;
        let retire_cycle = self.retire.reserve(complete.max(self.last_retire));
        self.last_retire = retire_cycle;
        self.retire_ring[self.slot] = retire_cycle;
        self.complete_ring[self.slot] = complete;
        // Advance the cursor for the next instruction — retire is the one
        // per-instruction call, so this is where `idx % window` steps.
        self.slot += 1;
        if self.slot == self.window {
            self.slot = 0;
        }
        retire_cycle
    }

    /// Retire cycle of the youngest retired instruction (total cycles).
    #[inline]
    pub(crate) fn last_retire(&self) -> u64 {
        self.last_retire
    }

    fn queue_mut(&mut self, is_branch: bool) -> (&mut VecDeque<u64>, usize) {
        if is_branch {
            (&mut self.brq_ring, self.brq_cap)
        } else {
            (&mut self.iq_ring, self.iq_cap)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_pool_round_robins() {
        let mut u = UnitPool::new(2);
        assert_eq!(u.acquire(0), 0);
        assert_eq!(u.acquire(0), 0);
        assert_eq!(u.acquire(0), 1);
        assert_eq!(u.acquire(5), 5);
    }
}
