//! Supervised batch execution: panic isolation, integrity-checked
//! replay, bounded retries, quarantine and graceful degradation.
//!
//! The plain [`BatchRunner`](crate::sim::BatchRunner) is the right tool
//! when every job is trusted: it is the measured hot path, and a failure
//! is a bug. The [`SupervisedRunner`] is the tool for *surviving*
//! failures — injected by [`crate::faults`] in tests and CI, or real ones
//! in long sweeps — while keeping the healthy part of the batch
//! bit-identical to an unsupervised run.
//!
//! Every job attempt climbs an integrity ladder before its result is
//! trusted:
//!
//! 0. **Provenance** — if the entry's image came from a persistent-store
//!    file that failed `valign-store`'s integrity ladder (evicted and
//!    rebuilt, [`ImageProvenance::DiskRebuilt`]), the attempt degrades
//!    immediately: the rebuilt bytes are fine, but a store that served
//!    corrupt bytes is surfaced as a degraded outcome, never silently.
//! 1. **Checksum** — the image is re-hashed and compared with the
//!    checksum the entry took (`PreparedTrace::checksum`); a mismatch
//!    means the bytes changed since then.
//! 2. **Static validation** — [`ReplayImage::validate`] proves the
//!    structure internally consistent (array lengths, mask/cursor
//!    agreement, producer bounds).
//! 3. **Guarded replay** — [`Simulator::try_simulate_verified`]
//!    bounds-checks the pre-resolved dependence walk and enforces a
//!    deterministic cycle-budget watchdog (simulated cycles, never
//!    wall-clock, so the watchdog itself is reproducible).
//!
//! A store entry's image is immutable behind its `Arc`, so rungs 1 and 2
//! run at most once per entry: the first supervised attempt keeps their
//! verdict in the [`PreparedTrace`](crate::sim::PreparedTrace) (a
//! [`VerifiedImage`] or the failing rung's error) and every later
//! attempt reuses it. A decoded entry starts verified, because the
//! store's decode ran both rungs. Once verified, the entry also keeps
//! its warm state from its second warm replay on, and later warm
//! attempts start from it instead of walking the image. A fault that
//! swaps in a sabotaged copy makes a new image, which climbs rungs 1 and
//! 2 itself on every attempt, warms on itself and never inherits the
//! entry's verdict or warm state. Rung 3 runs on every attempt.
//!
//! What happens on failure depends on what failed:
//!
//! * **Degradable** errors ([`SimError::degradable`]) indict the *image*,
//!   not the workload — so the attempt falls back to the record-form
//!   reference walker ([`Simulator::simulate_reference`]), which shares no
//!   bytes with the image, and the outcome is flagged
//!   [`JobOutcome::Degraded`]. Degraded results are bit-identical to a
//!   reference run because they *are* a reference run.
//! * **Non-degradable** errors (missing latency entry, budget blown) and
//!   panics indict the config, the workload or the code; the job is
//!   retried up to [`SupervisorConfig::retry_budget`] times and then
//!   [`JobOutcome::Quarantined`] with its failure attached. Retry rounds
//!   are the time axis of a decorrelated backoff: within a round, retry
//!   dispatch order is reshuffled by a per-(job, attempt) hash so
//!   colliding jobs don't hammer the pool in submission order again.
//!
//! Determinism: outcomes are a pure function of (job list, fault set,
//! supervisor config). Attempts run through the same scatter loop as the
//! plain runner (results land by submission index) and every fault site,
//! stall cycle and backoff shuffle is hash-derived — so the full
//! [`JobOutcome`] sequence is identical at any worker-thread count.

use crate::faults::{FaultClass, FaultPlan, FaultSet};
use crate::sim::{dispatch_order, BatchRunner, ImageProvenance, SimJob, TraceStore};
use std::cell::Cell;
use std::fmt;
use std::sync::{Arc, OnceLock};
use valign_isa::Trace;
use valign_pipeline::hash::hash_words;
use valign_pipeline::{
    ReplayImage, RunGuards, SimError, SimResult, Simulator, StallInjection, VerifiedImage,
    WarmState,
};

/// How a supervised job ended, in submission order. Every variant that
/// carries a [`SimResult`] is a usable measurement; only
/// [`JobOutcome::Quarantined`] jobs produce none.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// First attempt succeeded on the packed replay path.
    Completed {
        /// The replay measurement.
        result: SimResult,
    },
    /// A retry succeeded after transient failures.
    Retried {
        /// The replay measurement from the successful attempt.
        result: SimResult,
        /// Total attempts used, including the successful one.
        attempts: u32,
    },
    /// The replay image failed an integrity rung; the result comes from
    /// the record-form reference walker instead.
    Degraded {
        /// The reference-walker measurement.
        result: SimResult,
        /// The integrity failure that forced the fallback.
        reason: SimError,
        /// Total attempts used, including the degraded one.
        attempts: u32,
    },
    /// Every attempt failed; the job is excluded from the batch's
    /// results.
    Quarantined {
        /// What the final attempt died with.
        failure: JobFailure,
        /// Total attempts used (always `retry_budget + 1`).
        attempts: u32,
    },
}

impl JobOutcome {
    /// The measurement this outcome carries, `None` for quarantined jobs.
    pub fn result(&self) -> Option<&SimResult> {
        match self {
            JobOutcome::Completed { result }
            | JobOutcome::Retried { result, .. }
            | JobOutcome::Degraded { result, .. } => Some(result),
            JobOutcome::Quarantined { .. } => None,
        }
    }

    /// Total attempts this job consumed.
    pub fn attempts(&self) -> u32 {
        match self {
            JobOutcome::Completed { .. } => 1,
            JobOutcome::Retried { attempts, .. }
            | JobOutcome::Degraded { attempts, .. }
            | JobOutcome::Quarantined { attempts, .. } => *attempts,
        }
    }

    /// Scorecard column name for this outcome kind.
    pub fn kind(&self) -> &'static str {
        match self {
            JobOutcome::Completed { .. } => "completed",
            JobOutcome::Retried { .. } => "retried",
            JobOutcome::Degraded { .. } => "degraded",
            JobOutcome::Quarantined { .. } => "quarantined",
        }
    }
}

/// What a quarantined job's final attempt died with.
#[derive(Debug, Clone, PartialEq)]
pub enum JobFailure {
    /// The attempt panicked; the payload was captured by the executor's
    /// per-job `catch_unwind`.
    Panicked {
        /// The stringified panic payload.
        message: String,
    },
    /// The attempt returned a structured, non-degradable error.
    Faulted {
        /// The error of the final attempt.
        error: SimError,
    },
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobFailure::Panicked { message } => write!(f, "panicked: {message}"),
            JobFailure::Faulted { error } => write!(f, "faulted: {error}"),
        }
    }
}

/// Per-outcome counts of one supervised batch, carried on the batch
/// record and summed into the scorecard's `supervised totals` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeTally {
    /// Jobs whose first attempt succeeded.
    pub completed: usize,
    /// Jobs that needed a retry and then succeeded.
    pub retried: usize,
    /// Jobs served by the reference walker after an integrity failure.
    pub degraded: usize,
    /// Jobs that exhausted their retry budget.
    pub quarantined: usize,
}

impl OutcomeTally {
    /// Tallies a batch's outcomes.
    pub fn of(outcomes: &[JobOutcome]) -> OutcomeTally {
        let mut tally = OutcomeTally::default();
        for outcome in outcomes {
            match outcome {
                JobOutcome::Completed { .. } => tally.completed += 1,
                JobOutcome::Retried { .. } => tally.retried += 1,
                JobOutcome::Degraded { .. } => tally.degraded += 1,
                JobOutcome::Quarantined { .. } => tally.quarantined += 1,
            }
        }
        tally
    }

    /// Element-wise sum of two tallies.
    pub fn merged(self, other: OutcomeTally) -> OutcomeTally {
        OutcomeTally {
            completed: self.completed + other.completed,
            retried: self.retried + other.retried,
            degraded: self.degraded + other.degraded,
            quarantined: self.quarantined + other.quarantined,
        }
    }

    /// True when every job completed first try on the packed path — the
    /// invariant the clean (no-injection) sweep asserts in CI.
    pub fn clean(&self) -> bool {
        self.retried == 0 && self.degraded == 0 && self.quarantined == 0
    }
}

impl fmt::Display for OutcomeTally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} completed, {} retried, {} degraded, {} quarantined",
            self.completed, self.retried, self.degraded, self.quarantined
        )
    }
}

/// Supervision policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Retries granted after a failed first attempt; a job is quarantined
    /// after `retry_budget + 1` total failed attempts.
    pub retry_budget: u32,
    /// Cycle-budget watchdog slope: budget grows by this many cycles per
    /// trace instruction. Even the paper's worst-case kernel (scalar,
    /// 2-way, every access missing) retires well under 100 cycles per
    /// instruction, so 512 never trips on healthy workloads.
    pub cycle_budget_per_instr: u64,
    /// Cycle-budget watchdog intercept, so tiny traces still get headroom
    /// for cold caches and drain.
    pub cycle_budget_floor: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            retry_budget: 2,
            cycle_budget_per_instr: 512,
            cycle_budget_floor: 65_536,
        }
    }
}

impl SupervisorConfig {
    /// The watchdog budget for a trace of `instructions` records:
    /// `floor + per_instr × instructions`, saturating.
    pub fn budget_for(&self, instructions: usize) -> u64 {
        self.cycle_budget_floor.saturating_add(
            self.cycle_budget_per_instr
                .saturating_mul(instructions as u64),
        )
    }
}

thread_local! {
    /// True while the current thread is executing a supervised attempt,
    /// whose panics are caught, captured and reported as outcomes — so
    /// the process-wide panic hook should not also dump them to stderr.
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once per process) a forwarding panic hook that stays silent
/// for supervised attempts and delegates to the pre-existing hook for
/// every other panic.
///
/// The install slot is a [`OnceLock`], not a [`std::sync::Once`]: `Once`
/// *poisons* when its closure unwinds, and this function runs on every
/// supervision round of every batch — a single panicking install (e.g.
/// under an injected allocation fault) would then panic every sibling
/// batch for the life of the process. `OnceLock` rolls the slot back on
/// unwind, so a later round simply retries the install.
fn install_quiet_hook() {
    static INSTALL: OnceLock<()> = OnceLock::new();
    INSTALL.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Marks the current thread's panics as supervised for its lifetime,
/// restoring the previous state on drop (the serial fast path runs
/// attempts on the caller's thread, whose later panics must stay loud).
struct QuietPanics(bool);

impl QuietPanics {
    fn enter() -> Self {
        QuietPanics(QUIET_PANICS.with(|c| c.replace(true)))
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        let prior = self.0;
        QUIET_PANICS.with(|c| c.set(prior));
    }
}

/// How one attempt ended, before retry/quarantine policy is applied.
enum AttemptOutcome {
    Done(SimResult),
    Degraded { result: SimResult, reason: SimError },
    Failed(SimError),
}

/// A [`BatchRunner`] wrapped in supervision: fault injection, per-attempt
/// integrity checks, panic isolation, bounded retries with decorrelated
/// backoff ordering, quarantine and reference-walker degradation.
#[derive(Debug, Clone)]
pub struct SupervisedRunner {
    inner: BatchRunner,
    cfg: SupervisorConfig,
    faults: FaultSet,
}

impl SupervisedRunner {
    /// A supervisor over `threads` workers with the default policy and no
    /// injected faults.
    pub fn new(threads: usize) -> Self {
        SupervisedRunner {
            inner: BatchRunner::new(threads),
            cfg: SupervisorConfig::default(),
            faults: FaultSet::none(),
        }
    }

    /// Same supervisor with `cfg` as the policy.
    pub fn with_config(mut self, cfg: SupervisorConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Same supervisor injecting `faults` (the CLI's `--inject` specs).
    pub fn with_faults(mut self, faults: FaultSet) -> Self {
        self.faults = faults;
        self
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.inner.threads()
    }

    /// The supervision policy.
    pub fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// Runs every job under supervision; `outcomes[i]` corresponds to
    /// `jobs[i]`, at any thread count.
    pub fn run(&self, store: &TraceStore, jobs: &[SimJob]) -> Vec<JobOutcome> {
        // A job's explicit fault (test hook) wins over the injection set.
        let plans: Vec<Option<FaultPlan>> = jobs
            .iter()
            .map(|j| {
                j.fault
                    .clone()
                    .or_else(|| self.faults.plan_for(&j.label(), j.seed()))
            })
            .collect();
        let mut outcomes: Vec<Option<JobOutcome>> = jobs.iter().map(|_| None).collect();
        let mut pending: Vec<usize> = (0..jobs.len()).collect();
        let mut attempt = 0u32;
        while !pending.is_empty() {
            install_quiet_hook();
            let order = self.round_order(store, jobs, &pending, attempt);
            let results = self.inner.scatter(pending.len(), order, |k| {
                let _quiet = QuietPanics::enter();
                let i = pending[k];
                self.execute_attempt(&jobs[i], store, plans[i].as_ref(), attempt)
            });
            let mut next_round = Vec::new();
            for (k, result) in results.into_iter().enumerate() {
                let i = pending[k];
                let attempts = attempt + 1;
                let retryable = attempt < self.cfg.retry_budget;
                match result {
                    Ok(AttemptOutcome::Done(result)) => {
                        outcomes[i] = Some(if attempt == 0 {
                            JobOutcome::Completed { result }
                        } else {
                            JobOutcome::Retried { result, attempts }
                        });
                    }
                    Ok(AttemptOutcome::Degraded { result, reason }) => {
                        outcomes[i] = Some(JobOutcome::Degraded {
                            result,
                            reason,
                            attempts,
                        });
                    }
                    Ok(AttemptOutcome::Failed(_)) if retryable => next_round.push(i),
                    Ok(AttemptOutcome::Failed(error)) => {
                        outcomes[i] = Some(JobOutcome::Quarantined {
                            failure: JobFailure::Faulted { error },
                            attempts,
                        });
                    }
                    Err(_) if retryable => next_round.push(i),
                    Err(panic) => {
                        outcomes[i] = Some(JobOutcome::Quarantined {
                            failure: JobFailure::Panicked {
                                message: panic.message,
                            },
                            attempts,
                        });
                    }
                }
            }
            pending = next_round;
            attempt += 1;
        }
        // Every round either resolves a pending job or re-queues it, so
        // every slot is filled — but a hole must not panic the whole
        // batch (that would let one supervisor bug take every sibling's
        // finished outcome with it). Map it into the failure taxonomy
        // instead, as a quarantine the tally and scorecard surface.
        outcomes
            .into_iter()
            .map(|o| {
                o.unwrap_or_else(|| JobOutcome::Quarantined {
                    failure: JobFailure::Panicked {
                        message: "supervisor lost track of the job outcome".to_string(),
                    },
                    attempts: 0,
                })
            })
            .collect()
    }

    /// Dispatch order for one round. The first round uses the plain
    /// runner's largest-trace-first order; retry rounds are the backoff
    /// time axis, and within one the order is decorrelated — shuffled by
    /// a per-(job, attempt) hash — so retries of clustered failures don't
    /// replay the submission pattern that just failed together.
    fn round_order(
        &self,
        store: &TraceStore,
        jobs: &[SimJob],
        pending: &[usize],
        attempt: u32,
    ) -> Vec<usize> {
        if attempt == 0 {
            return dispatch_order(store, jobs);
        }
        let mut order: Vec<usize> = (0..pending.len()).collect();
        order.sort_by_key(|&k| hash_words(u64::from(attempt), &[pending[k] as u64]));
        order
    }

    /// One attempt of one job: resolve the prepared trace, apply the
    /// fault plan (if active on this attempt), climb the integrity
    /// ladder, and replay — or degrade to the reference walker.
    fn execute_attempt(
        &self,
        job: &SimJob,
        store: &TraceStore,
        plan: Option<&FaultPlan>,
        attempt: u32,
    ) -> AttemptOutcome {
        let prepared = job.prepared(store);
        // Rung 0: a persistent-tier file failed the store's integrity
        // ladder and the image was rebuilt from source. The rebuilt bytes
        // are trustworthy, but silent self-healing would hide the
        // corruption — degrade so the outcome tally shows it.
        if let ImageProvenance::DiskRebuilt { error } = &prepared.provenance {
            let reason = SimError::CorruptImage {
                index: None,
                detail: format!("stored image quarantined and rebuilt: {error}"),
            };
            return self.degrade(job, &prepared.trace(), reason);
        }
        let image = &prepared.image;
        let budget = self.cfg.budget_for(image.len());
        let mut guards = RunGuards {
            cycle_budget: Some(budget),
            stall: None,
        };
        let mut sabotaged = None;
        if let Some(plan) = plan.filter(|p| p.active(attempt)) {
            match plan.class {
                FaultClass::Panic => panic!(
                    "injected fault: forced panic in job {} (site {:#018x})",
                    job.label(),
                    plan.site
                ),
                FaultClass::DiskCorrupt => {
                    // Round-trip the image through the real container
                    // encode, damage the *file bytes*, and make the real
                    // decoder climb its ladder. In-memory, so parallel
                    // jobs sharing one key never race on a real file.
                    let mut bytes = valign_store::encode_file(image, prepared.checksum());
                    valign_store::sabotage_file_bytes(&mut bytes, plan.site);
                    let error = match valign_store::decode_file(&bytes) {
                        Err(e) => e,
                        Ok(_) => {
                            unreachable!("sabotaged store file must fail the integrity ladder")
                        }
                    };
                    let reason = SimError::CorruptImage {
                        index: None,
                        detail: format!("stored image file corrupt: {error}"),
                    };
                    return self.degrade(job, &prepared.trace(), reason);
                }
                FaultClass::Stall => {
                    let at = plan.site % (image.len().max(1) as u64);
                    // One stall larger than the whole budget: guaranteed
                    // to trip the watchdog, still fully deterministic.
                    guards.stall = Some(StallInjection {
                        at,
                        cycles: budget.saturating_add(1),
                    });
                }
                // The I/O and connection classes fire in the storage and
                // service layers (store write-back, the serve connection
                // writer); inside the supervised simulator they are
                // no-ops so a wildcard spec never derails the batch.
                FaultClass::IoError
                | FaultClass::ShortWrite
                | FaultClass::TornFrame
                | FaultClass::Disconnect => {}
                class => {
                    let kind = class
                        .sabotage()
                        .expect("image fault classes map to a sabotage");
                    let mut copy = (**image).clone();
                    copy.sabotage(kind, plan.site);
                    // Truncation and bit-flips model corruption that
                    // happened *before* checksumming, so they must get
                    // past rung 1 and be caught by validation or the
                    // guarded walk. Cursor corruption models
                    // post-checksum rot: the entry's checksum is stale
                    // for the copy and rung 1 catches it.
                    let expected = if class == FaultClass::ImageCorrupt {
                        prepared.checksum()
                    } else {
                        copy.checksum()
                    };
                    sabotaged = Some((copy, expected));
                }
            }
        }
        // Rungs 1 and 2. A sabotaged copy is a new image: it climbs them
        // itself and never inherits the entry's verdict or warm state,
        // which the entry reaches once and keeps for every later job.
        let own_image = sabotaged.is_none();
        let verified = match sabotaged {
            Some((copy, expected)) => verify_image(Arc::new(copy), expected),
            None => prepared.verified(),
        };
        // Rung 3: the guarded walk, on every attempt, from the entry's
        // kept warm state when it has one, else warmed on the image.
        let replay = verified.and_then(|image| {
            let memory = &job.cfg.memory;
            let kept = (job.warm && own_image)
                .then(|| prepared.kept_warm_state(memory))
                .flatten();
            let taken = (job.warm && kept.is_none()).then(|| WarmState::take(*memory, &image));
            let warm = kept.or(taken.as_ref());
            Simulator::try_simulate_verified(job.cfg.clone(), warm, &image, &guards)
        });
        match replay {
            Ok(result) => AttemptOutcome::Done(result),
            Err(reason) if reason.degradable() => self.degrade(job, &prepared.trace(), reason),
            Err(error) => AttemptOutcome::Failed(error),
        }
    }

    /// The graceful-degradation path: replay the canonical record-form
    /// trace through the reference walker, which shares no bytes with the
    /// (distrusted) image, mirroring the job's warm-up discipline.
    fn degrade(&self, job: &SimJob, trace: &Trace, reason: SimError) -> AttemptOutcome {
        AttemptOutcome::Degraded {
            result: Simulator::simulate_reference(
                job.cfg.clone(),
                job.warm.then_some(trace),
                trace,
            ),
            reason,
        }
    }
}

/// Rungs 1 and 2 of the integrity ladder on `image`: its checksum must
/// equal `expected` (the one taken when the image was trusted), then
/// static validation must pass. The resulting [`VerifiedImage`] is what
/// the guarded walk ([`Simulator::try_simulate_verified`]) replays.
pub(crate) fn verify_image(
    image: Arc<ReplayImage>,
    expected: u64,
) -> Result<VerifiedImage, SimError> {
    let actual = image.checksum();
    if actual != expected {
        return Err(SimError::ChecksumMismatch { expected, actual });
    }
    VerifiedImage::new(image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimJob, TraceKey};
    use crate::workload::KernelId;
    use valign_h264::BlockSize;
    use valign_kernels::util::Variant;
    use valign_pipeline::PipelineConfig;

    fn key(variant: Variant) -> TraceKey {
        TraceKey {
            kernel: KernelId::Sad(BlockSize::B8x8),
            variant,
            execs: 2,
            seed: 7,
        }
    }

    fn jobs() -> Vec<SimJob> {
        Variant::ALL
            .iter()
            .map(|&v| SimJob::keyed(key(v), PipelineConfig::four_way()))
            .collect()
    }

    fn faults(spec: &str) -> FaultSet {
        FaultSet::parse(&[spec.to_string()]).expect("spec parses")
    }

    #[test]
    fn clean_supervision_matches_the_plain_runner() {
        let store = TraceStore::new();
        let jobs = jobs();
        let plain = BatchRunner::new(2).run(&store, &jobs);
        let outcomes = SupervisedRunner::new(2).run(&store, &jobs);
        assert_eq!(outcomes.len(), plain.len());
        for (outcome, expected) in outcomes.iter().zip(&plain) {
            assert!(
                matches!(outcome, JobOutcome::Completed { result } if result == expected),
                "clean supervision must be invisible: {outcome:?}"
            );
        }
        assert!(OutcomeTally::of(&outcomes).clean());
    }

    #[test]
    fn stall_faults_are_transient_and_end_in_retried() {
        let store = TraceStore::new();
        let outcomes = SupervisedRunner::new(1)
            .with_faults(faults("stall:*"))
            .run(&store, &jobs());
        for outcome in &outcomes {
            assert!(
                matches!(outcome, JobOutcome::Retried { attempts: 2, .. }),
                "a stall clears on the first retry: {outcome:?}"
            );
        }
        // The retried result is the clean result: the stall never lands
        // on the successful attempt.
        let plain = BatchRunner::new(1).run(&store, &jobs());
        for (outcome, expected) in outcomes.iter().zip(&plain) {
            assert_eq!(outcome.result(), Some(expected));
        }
    }

    #[test]
    fn panic_faults_exhaust_the_budget_and_quarantine() {
        let store = TraceStore::new();
        let cfg = SupervisorConfig::default();
        let outcomes = SupervisedRunner::new(2)
            .with_faults(faults("panic:sad8x8.scalar"))
            .run(&store, &jobs());
        let tally = OutcomeTally::of(&outcomes);
        assert_eq!(tally.quarantined, 1);
        assert_eq!(tally.completed, 2);
        let scalar = &outcomes[0]; // Variant::ALL starts with Scalar
        match scalar {
            JobOutcome::Quarantined { failure, attempts } => {
                assert_eq!(*attempts, cfg.retry_budget + 1);
                assert!(
                    matches!(failure, JobFailure::Panicked { message }
                        if message.contains("injected fault: forced panic")),
                    "{failure:?}"
                );
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
    }

    #[test]
    fn image_faults_degrade_to_the_reference_walker() {
        let store = TraceStore::new();
        let jobs = jobs();
        let plain = BatchRunner::new(2).run(&store, &jobs);
        // An entry's verdict is shared by every later attempt, so no
        // sabotaged copy may leak into it: a clean batch must complete on
        // the shared store before and after the faults, and on a fresh
        // store whose entries a fault attempt reached first.
        let clean_batch_matches_the_plain_runner = |store: &TraceStore| {
            let outcomes = SupervisedRunner::new(2).run(store, &jobs);
            for (outcome, expected) in outcomes.iter().zip(&plain) {
                assert!(
                    matches!(outcome, JobOutcome::Completed { result } if result == expected),
                    "a clean batch after image faults must complete: {outcome:?}"
                );
            }
        };
        clean_batch_matches_the_plain_runner(&store);
        // Each class lands on its designed rung (the `faults` table). An
        // LSU-window overflow needs a dependence list to bend; on an image
        // without one (the scalar variant here) it falls back to a
        // producer distance reaching before record 0, which the static
        // rung refuses.
        fn has_dep_lists(image: &ReplayImage) -> bool {
            (0..image.memory_records()).any(|c| !image.mem_deps_at(c).is_empty())
        }
        type Rung = fn(&SimError, &ReplayImage) -> bool;
        let rungs: [(&str, Rung); 5] = [
            ("truncate:*", |e, _| {
                matches!(e, SimError::CorruptImage { .. })
            }),
            ("bitflip:*", |e, _| {
                matches!(e, SimError::CorruptImage { .. })
            }),
            ("image-corrupt:*", |e, _| {
                matches!(e, SimError::ChecksumMismatch { .. })
            }),
            ("lsu-overflow:*", |e, image| {
                if has_dep_lists(image) {
                    matches!(e, SimError::DepOutOfWindow { .. })
                } else {
                    matches!(e, SimError::CorruptImage { detail, .. }
                        if detail.contains("reaches before record 0"))
                }
            }),
            ("disk-corrupt:*", |e, _| {
                matches!(e, SimError::CorruptImage { detail, .. }
                    if detail.contains("stored image file corrupt"))
            }),
        ];
        let with_deps = jobs
            .iter()
            .filter(|job| has_dep_lists(&job.prepared(&store).image))
            .count();
        assert!(
            (1..jobs.len()).contains(&with_deps),
            "the batch covers images with and without dependence lists"
        );
        for (spec, on_its_rung) in rungs {
            let fresh = TraceStore::new();
            for store in [&store, &fresh] {
                let outcomes = SupervisedRunner::new(2)
                    .with_faults(faults(spec))
                    .run(store, &jobs);
                for (outcome, job) in outcomes.iter().zip(&jobs) {
                    let JobOutcome::Degraded {
                        result,
                        reason,
                        attempts,
                    } = outcome
                    else {
                        panic!("{spec}: expected degradation, got {outcome:?}");
                    };
                    assert_eq!(*attempts, 1, "{spec}: degradation never retries");
                    let prepared = job.prepared(store);
                    assert!(
                        on_its_rung(reason, &prepared.image),
                        "{spec} must land on its designed rung, got {reason}"
                    );
                    let trace = prepared.trace();
                    assert_eq!(
                        result,
                        &Simulator::simulate_reference(job.cfg.clone(), Some(&trace), &trace),
                        "{spec}: degraded result must be bit-identical to the reference walker"
                    );
                }
            }
            clean_batch_matches_the_plain_runner(&fresh);
        }
        clean_batch_matches_the_plain_runner(&store);
    }

    #[test]
    fn rebuilt_disk_entries_degrade_without_any_injection() {
        let root =
            std::env::temp_dir().join(format!("valign-supervise-rebuilt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        {
            let seeder = TraceStore::with_disk(&root).expect("attach tier");
            for variant in Variant::ALL {
                let _ = seeder.prepared(key(*variant));
            }
        }
        // Corrupt exactly the scalar variant's stored file.
        let hash = key(Variant::Scalar).content_hash();
        let path = root.join(valign_store::StoreDir::file_name(hash));
        let mut bytes = std::fs::read(&path).expect("stored file exists");
        valign_store::sabotage_file_bytes(&mut bytes, 5);
        std::fs::write(&path, &bytes).expect("corrupt in place");

        let store = TraceStore::with_disk(&root).expect("attach tier");
        let outcomes = SupervisedRunner::new(2).run(&store, &jobs());
        std::fs::remove_dir_all(&root).expect("cleanup");
        let tally = OutcomeTally::of(&outcomes);
        assert_eq!(
            (tally.degraded, tally.completed),
            (1, 2),
            "exactly the corrupted key degrades: {outcomes:?}"
        );
        let JobOutcome::Degraded { reason, .. } = &outcomes[0] else {
            panic!("scalar job must degrade, got {:?}", outcomes[0]);
        };
        let SimError::CorruptImage { detail, .. } = reason else {
            panic!("unexpected degrade reason {reason}");
        };
        assert!(
            detail.contains("stored image quarantined and rebuilt"),
            "{detail}"
        );
        assert_eq!(store.stats().disk_invalid, 1);
    }

    #[test]
    fn budget_watchdog_quarantines_runaway_jobs() {
        let store = TraceStore::new();
        // A budget no real replay can meet: every attempt trips the
        // watchdog, which is not degradable, so retries exhaust.
        let cfg = SupervisorConfig {
            retry_budget: 1,
            cycle_budget_per_instr: 0,
            cycle_budget_floor: 1,
        };
        let outcomes = SupervisedRunner::new(1)
            .with_config(cfg)
            .run(&store, &jobs()[..1]);
        match &outcomes[0] {
            JobOutcome::Quarantined { failure, attempts } => {
                assert_eq!(*attempts, 2);
                assert!(
                    matches!(
                        failure,
                        JobFailure::Faulted {
                            error: SimError::BudgetExceeded { .. }
                        }
                    ),
                    "{failure:?}"
                );
            }
            other => panic!("expected watchdog quarantine, got {other:?}"),
        }
    }

    #[test]
    fn outcome_sequences_are_identical_across_thread_counts() {
        let reference: Vec<JobOutcome> = SupervisedRunner::new(1)
            .with_faults(faults("panic:sad8x8.altivec"))
            .run(&TraceStore::new(), &jobs());
        for threads in [2, 8] {
            let outcomes = SupervisedRunner::new(threads)
                .with_faults(faults("panic:sad8x8.altivec"))
                .run(&TraceStore::new(), &jobs());
            assert_eq!(outcomes, reference, "{threads} threads");
        }
    }
}
