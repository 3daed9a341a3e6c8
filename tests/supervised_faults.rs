//! Integration tests for supervised batch execution: the acceptance
//! scenarios of the fault-injection layer.
//!
//! * a clean supervised sweep is invisible — every job Completed,
//!   bit-identical to the plain runner;
//! * `panic:<selector>` on an 8-job batch quarantines exactly the
//!   selected job after the retry budget while the other 7 results stay
//!   bit-identical to an uninjected run;
//! * `image-corrupt:*` degrades every job to the reference walker,
//!   bit-identical to running the reference walker directly;
//! * `disk-corrupt:<selector>` pushes the selected job's image through
//!   the persistent container's encode → damage → decode path and
//!   degrades exactly that job, with the decode error in the reason;
//! * a panicking job cannot poison the plain batch runner's
//!   scoped-thread join ([`BatchRunner::try_run`] keeps siblings);
//! * property: for every fault class, the full [`JobOutcome`] sequence
//!   is identical at 1, 2 and 8 worker threads.

use proptest::prelude::*;
use valign::core::faults::{FaultClass, FaultSet};
use valign::core::sim::{BatchRunner, SimJob, TraceKey, TraceStore};
use valign::core::supervise::{JobOutcome, OutcomeTally, SupervisedRunner};
use valign::core::workload::KernelId;
use valign::h264::BlockSize;
use valign::kernels::util::Variant;
use valign::pipeline::{PipelineConfig, SimResult, Simulator};

fn key(kernel: KernelId, variant: Variant) -> TraceKey {
    TraceKey {
        kernel,
        variant,
        execs: 2,
        seed: 7,
    }
}

/// An 8-job batch over distinct kernel/variant pairs, so selectors can
/// single out one job.
fn eight_jobs() -> Vec<SimJob> {
    let pairs = [
        (KernelId::Luma(BlockSize::B8x8), Variant::Unaligned),
        (KernelId::Luma(BlockSize::B8x8), Variant::Altivec),
        (KernelId::Luma(BlockSize::B8x8), Variant::Scalar),
        (KernelId::Sad(BlockSize::B8x8), Variant::Unaligned),
        (KernelId::Sad(BlockSize::B8x8), Variant::Altivec),
        (KernelId::Chroma(BlockSize::B8x8), Variant::Unaligned),
        (KernelId::Chroma(BlockSize::B8x8), Variant::Altivec),
        (KernelId::Idct4x4, Variant::Unaligned),
    ];
    pairs
        .iter()
        .map(|&(k, v)| SimJob::keyed(key(k, v), PipelineConfig::four_way()))
        .collect()
}

fn faults(spec: &str) -> FaultSet {
    FaultSet::parse(&[spec.to_string()]).expect("spec parses")
}

/// The reference-walker result a degraded job must reproduce exactly:
/// same config, same warm-up discipline, record-form walk.
fn reference_result(store: &TraceStore, job: &SimJob) -> SimResult {
    let trace = match &job.source {
        valign::core::TraceSource::Key(k) => store.get(*k),
        valign::core::TraceSource::Shared(t) => t.clone(),
    };
    Simulator::simulate_reference(job.cfg.clone(), job.warm.then_some(&trace), &trace)
}

#[test]
fn clean_supervised_sweep_is_invisible() {
    let store = TraceStore::new();
    let jobs = eight_jobs();
    let plain = BatchRunner::new(4).run(&store, &jobs);
    let outcomes = SupervisedRunner::new(4).run(&store, &jobs);
    let tally = OutcomeTally::of(&outcomes);
    assert!(tally.clean(), "{tally}");
    assert_eq!(tally.completed, 8);
    for (outcome, expected) in outcomes.iter().zip(&plain) {
        assert_eq!(outcome.result(), Some(expected));
    }
}

#[test]
fn panic_injection_quarantines_only_the_selected_job() {
    let store = TraceStore::new();
    let jobs = eight_jobs();
    let clean = SupervisedRunner::new(4).run(&store, &jobs);
    let injected = SupervisedRunner::new(4)
        .with_faults(faults("panic:luma8x8.unaligned"))
        .run(&store, &jobs);
    let tally = OutcomeTally::of(&injected);
    assert_eq!(tally.quarantined, 1);
    assert_eq!(tally.completed, 7);
    let retry_budget = SupervisedRunner::new(1).config().retry_budget;
    for (i, (outcome, clean_outcome)) in injected.iter().zip(&clean).enumerate() {
        if jobs[i].label() == "luma8x8.unaligned" {
            let JobOutcome::Quarantined { failure, attempts } = outcome else {
                panic!("selected job must be quarantined, got {outcome:?}");
            };
            assert_eq!(
                *attempts,
                retry_budget + 1,
                "quarantine comes only after the retry budget"
            );
            assert!(
                failure.to_string().contains("injected fault: forced panic"),
                "{failure}"
            );
        } else {
            assert_eq!(
                outcome,
                clean_outcome,
                "job {i} ({}) must be bit-identical to the uninjected run",
                jobs[i].label()
            );
        }
    }
}

#[test]
fn image_corruption_degrades_every_job_to_the_reference_walker() {
    let store = TraceStore::new();
    let jobs = eight_jobs();
    let outcomes = SupervisedRunner::new(4)
        .with_faults(faults("image-corrupt:*"))
        .run(&store, &jobs);
    assert_eq!(OutcomeTally::of(&outcomes).degraded, jobs.len());
    for (job, outcome) in jobs.iter().zip(&outcomes) {
        let JobOutcome::Degraded { result, reason, .. } = outcome else {
            panic!("{}: expected degradation, got {outcome:?}", job.label());
        };
        assert!(
            reason.to_string().contains("checksum"),
            "cursor corruption is caught by the checksum rung: {reason}"
        );
        assert_eq!(
            result,
            &reference_result(&store, job),
            "{}: degraded result must be bit-identical to simulate_reference",
            job.label()
        );
    }
}

#[test]
fn disk_corruption_degrades_only_the_selected_job() {
    let store = TraceStore::new();
    let jobs = eight_jobs();
    let clean = SupervisedRunner::new(4).run(&store, &jobs);
    let outcomes = SupervisedRunner::new(4)
        .with_faults(faults("disk-corrupt:sad8x8.altivec"))
        .run(&store, &jobs);
    let tally = OutcomeTally::of(&outcomes);
    assert_eq!(tally.degraded, 1);
    assert_eq!(tally.completed, 7);
    for (i, (outcome, clean_outcome)) in outcomes.iter().zip(&clean).enumerate() {
        if jobs[i].label() == "sad8x8.altivec" {
            let JobOutcome::Degraded { result, reason, .. } = outcome else {
                panic!("selected job must degrade, got {outcome:?}");
            };
            assert!(
                reason.to_string().contains("stored image file corrupt"),
                "the container decode rung must name the fault: {reason}"
            );
            assert_eq!(
                result,
                &reference_result(&store, &jobs[i]),
                "degraded result must be bit-identical to simulate_reference"
            );
        } else {
            assert_eq!(outcome, clean_outcome, "job {i} must be untouched");
        }
    }
}

#[test]
fn a_panicking_job_cannot_poison_the_batch_runner() {
    use valign::core::faults::{fault_site, FaultPlan};
    let store = TraceStore::new();
    let mut jobs = eight_jobs();
    let clean = BatchRunner::new(4).run(&store, &jobs);
    let label = jobs[3].label();
    jobs[3] = jobs[3].clone().with_fault(FaultPlan {
        class: FaultClass::Panic,
        site: fault_site(7, &label, FaultClass::Panic),
    });
    let results = BatchRunner::new(4).try_run(&store, &jobs);
    for (i, result) in results.iter().enumerate() {
        if i == 3 {
            let panic = result.as_ref().expect_err("job 3 panics");
            assert!(panic.message.contains("injected fault"), "{panic}");
        } else {
            assert_eq!(
                result.as_ref().ok(),
                Some(&clean[i]),
                "sibling {i} must survive with its result intact"
            );
        }
    }
}

/// Image faults replay a sabotaged copy of the entry's image, which must
/// warm on itself: it never fills the entry's kept warm state and never
/// starts from one. So on a store whose entry keeps a state, a faulted
/// job's outcome is the one it has on a store that never kept any —
/// through the supervisor and through the plain runner (which replays a
/// copy unvalidated, so a copy warmed from the clean state would show).
/// A panic ends the job before any replay. A stall, and a corrupt store
/// file on the plain runner (which reads no store files), replay the
/// entry's own image and may use its state; their outcomes must not
/// change either.
#[test]
fn sabotaged_copies_never_fill_or_read_the_kept_warm_state() {
    use valign::core::faults::{fault_site, FaultPlan};
    let job = SimJob::keyed(
        key(KernelId::Luma(BlockSize::B8x8), Variant::Unaligned),
        PipelineConfig::four_way(),
    );
    let classes = FaultClass::ALL.iter().filter(|c| {
        !matches!(
            c,
            FaultClass::IoError
                | FaultClass::ShortWrite
                | FaultClass::TornFrame
                | FaultClass::Disconnect
        )
    });
    for &class in classes {
        let spec = format!("{}:*", class.label());
        let supervised = |store: &TraceStore| {
            SupervisedRunner::new(1)
                .with_faults(faults(&spec))
                .run(store, std::slice::from_ref(&job))
        };
        let plan = FaultPlan {
            class,
            site: fault_site(7, &job.label(), class),
        };
        let faulted = [job.clone().with_fault(plan)];
        let plain = |store: &TraceStore| BatchRunner::new(1).try_run(store, &faulted);

        // Twice each on a fresh store: a second replay would keep a
        // state if the copies counted as the entry's image.
        let fresh = TraceStore::new();
        let expected = (supervised(&fresh), plain(&fresh));
        assert_eq!(supervised(&fresh), expected.0, "{spec}");
        assert_eq!(plain(&fresh), expected.1, "{spec}");
        if class != FaultClass::Stall && class != FaultClass::DiskCorrupt {
            assert_eq!(fresh.stats().warm_states, 0, "{spec} filled the state");
        }

        // On an entry that keeps a state, the faulted job is unchanged.
        let kept = TraceStore::new();
        let clean = SupervisedRunner::new(1).run(&kept, &[job.clone(), job.clone()]);
        assert_eq!(kept.stats().warm_states, 1);
        assert_eq!(clean[0], clean[1]);
        assert_eq!(supervised(&kept), expected.0, "{spec} read the state");
        assert_eq!(plain(&kept), expected.1, "{spec} read the state");
        assert_eq!(kept.stats().warm_states, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every fault class and selector shape, the outcome sequence of
    /// a supervised batch is identical at 1, 2 and 8 worker threads, and
    /// every degraded result is bit-identical to the reference walker.
    #[test]
    fn outcomes_are_thread_count_invariant_for_every_fault_class(
        class_idx in 0..FaultClass::ALL.len(),
        wildcard in any::<bool>(),
    ) {
        let class = FaultClass::ALL[class_idx];
        let selector = if wildcard { "*" } else { "sad8x8" };
        let spec = format!("{}:{}", class.label(), selector);
        let run = |threads: usize| {
            // A fresh store per run: residency affects only dispatch
            // order, but keep the three runs maximally independent.
            let store = TraceStore::new();
            let outcomes = SupervisedRunner::new(threads)
                .with_faults(faults(&spec))
                .run(&store, &eight_jobs());
            (outcomes, store)
        };
        let (reference, store) = run(1);
        for threads in [2usize, 8] {
            let (outcomes, _) = run(threads);
            prop_assert_eq!(
                &outcomes, &reference,
                "{} diverged between 1 and {} threads", spec, threads
            );
        }
        for (job, outcome) in eight_jobs().iter().zip(&reference) {
            if let JobOutcome::Degraded { result, .. } = outcome {
                prop_assert_eq!(
                    result,
                    &reference_result(&store, job),
                    "{}: degraded result must match simulate_reference", spec
                );
            }
        }
    }
}
