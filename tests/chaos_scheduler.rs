//! Chaos suite for the supervised runtime: deterministic fault
//! injection ([`FaultPlan`]) against the scheduler/service stack,
//! proving the ISSUE-6 robustness contract end to end:
//!
//! * **Isolation** — an injected worker panic, transient error, or
//!   stall damages only the tenant it targets; concurrent clean
//!   tenants produce libraries bit-identical to solo runs.
//! * **Retry** — jobs with a `RetryPolicy` absorb transient faults and
//!   resolve to `Completed` with the same library a never-faulted run
//!   produces; exhausted retries resolve to `Failed` with a typed
//!   `WorkerPanic`.
//! * **Survival** — after any fault, `submit()` and `stats()` both
//!   keep working (no poisoned mutex anywhere), and a worker loop
//!   killed by an escaped panic is respawned by its supervisor.
//! * **Deadlines** — hard deadlines resolve to `JobOutcome::TimedOut`
//!   carrying the partial results that beat the clock.
//!
//! `ci.sh --chaos` sweeps `seeded_fault_plan_is_always_survivable`
//! over fixed seeds via `PP_CHAOS_SEED`.

use patternpaint::core::{
    Engine, Fault, FaultPlan, GenerationRequest, JobOutcome, JobSet, JobSpec, PipelineConfig,
    PpError, RetryPolicy, SchedPolicy, SchedulerOptions, Service, ServiceOptions,
};
use patternpaint::pdk::SynthNode;
use pp_inpaint::MaskSet;
use std::time::{Duration, Instant};

fn tiny_engine(seed: u64) -> Engine {
    Engine::builder(SynthNode::small(), PipelineConfig::tiny())
        .seed(seed)
        .untrained_engine()
        .expect("tiny config is valid")
}

/// An explicit request of `n` jobs cycling the engine's starters and
/// masks, seeded per tenant.
fn request(engine: &Engine, n: usize, seed: u64) -> GenerationRequest {
    let masks = MaskSet::Default.masks(engine.node().clip());
    GenerationRequest::new(JobSet::cycle(engine.starters(), &masks, n), seed)
}

/// The library a never-faulted solo run of `request(n, seed)` grows —
/// the bit-identity reference for every tenant below.
fn solo_patterns(engine: &Engine, n: usize, seed: u64) -> Vec<patternpaint::geometry::Layout> {
    let mut solo = engine.session_seeded(seed);
    solo.run_request(&request(engine, n, seed))
        .expect("solo round runs");
    solo.into_library().patterns().to_vec()
}

fn service_with_faults(engine: &Engine, threads: usize, faults: FaultPlan) -> Service {
    Service::new(
        engine,
        ServiceOptions {
            threads,
            scheduler: SchedulerOptions::new().faults(faults),
            ..Default::default()
        },
    )
}

/// Spins until `cond` holds or a generous deadline passes (the
/// condition is about counters that move within microseconds; the
/// deadline only bounds a genuinely broken run).
fn spin_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// The acceptance-criteria scenario: a worker panic, a transient
/// error, and a stall injected across three concurrent tenants (plus
/// two clean ones). Clean tenants are bit-identical to solo runs,
/// faulted tenants retry to `Completed` with the *same* library a
/// never-faulted run produces, and the pool survives with working
/// `submit()` + `stats()`.
#[test]
fn injected_faults_are_absorbed_by_retry_and_isolated_from_clean_tenants() {
    let engine = tiny_engine(1);
    // Session ids are allocated in submit order starting at 1, so the
    // plan targets: job 1 = panic, job 2 = transient error, job 3 =
    // stall (harmless), jobs 4-5 = clean.
    let plan = FaultPlan::new()
        .inject(1, Fault::PanicAt { batch: 0 })
        .inject(2, Fault::ErrAt { batch: 1 })
        .inject(
            3,
            Fault::StallFor {
                batch: 0,
                duration: Duration::from_millis(5),
            },
        );
    let service = service_with_faults(&engine, 2, plan);
    let retry = RetryPolicy::new(3, Duration::from_millis(1));
    let seeds = [100u64, 200, 300, 400, 500];
    let solos: Vec<_> = seeds
        .iter()
        .map(|&s| solo_patterns(&engine, 8, s))
        .collect();
    let handles: Vec<_> = seeds
        .iter()
        .map(|&s| {
            service
                .submit(JobSpec::raw(request(&engine, 8, s)).with_retry(retry))
                .expect("admitted")
        })
        .collect();
    // Jobs 1-2 needed a retry; everyone resolves to Completed with the
    // exact solo library (retries re-run from scratch on the same
    // seed, so a retried run is indistinguishable from a clean one).
    let expected_attempts = [2u32, 2, 1, 1, 1];
    for (i, handle) in handles.into_iter().enumerate() {
        let outcome = handle.wait();
        assert!(outcome.is_completed(), "tenant {i} outcome: {outcome}");
        let report = outcome.into_report().expect("completed carries a report");
        assert_eq!(
            report.attempts, expected_attempts[i],
            "tenant {i} attempt count"
        );
        assert_eq!(
            report.library.patterns(),
            &solos[i][..],
            "tenant {i} library diverged from its solo run"
        );
    }
    // Observability: the panic and the retries are all accounted.
    let sched = service.scheduler_stats();
    assert_eq!(sched.worker_panics, 1, "one injected panic was caught");
    assert_eq!(sched.workers_lost, 0, "the panic never escaped the batch");
    assert_eq!(service.stats().retries, 2, "panic + transient error");
    // Survival: a post-fault submit and stats both work.
    let post = service
        .submit(JobSpec::raw(request(&engine, 4, 900)))
        .expect("post-fault submit succeeds");
    assert!(post.wait().is_completed());
    assert_eq!(service.stats().active.total(), 0);
}

/// When every attempt hits an injected panic, the job fails *cleanly*:
/// `Failed` wrapping a typed `WorkerPanic`, never a hang or a poisoned
/// mutex — and the pool keeps serving afterwards.
#[test]
fn exhausted_retries_fail_with_a_typed_worker_panic() {
    let engine = tiny_engine(2);
    // Two scheduled panics for session 1: attempts 1 and 2 both die.
    let plan = FaultPlan::new()
        .inject(1, Fault::PanicAt { batch: 0 })
        .inject(1, Fault::PanicAt { batch: 0 });
    let service = service_with_faults(&engine, 2, plan);
    let handle = service
        .submit(
            JobSpec::raw(request(&engine, 6, 50))
                .with_retry(RetryPolicy::new(2, Duration::from_millis(1))),
        )
        .expect("admitted");
    match handle.wait() {
        JobOutcome::Failed(e) => {
            assert!(matches!(e, PpError::WorkerPanic { .. }), "wrong error: {e}");
            assert!(e.to_string().contains("injected fault"), "detail lost: {e}");
        }
        other => panic!("expected Failed, got: {other}"),
    }
    let sched = service.scheduler_stats();
    assert_eq!(sched.worker_panics, 2, "both attempts' panics were caught");
    assert_eq!(service.stats().retries, 1, "one re-run before giving up");
    // Survival after exhaustion.
    let post = service
        .submit(JobSpec::raw(request(&engine, 4, 60)))
        .expect("post-fault submit succeeds");
    assert!(post.wait().is_completed());
}

/// Without a retry policy a worker panic fails the job on the first
/// attempt — retrying is opt-in, never a silent default.
#[test]
fn faults_without_a_retry_policy_fail_fast() {
    let engine = tiny_engine(3);
    let plan = FaultPlan::new().inject(1, Fault::PanicAt { batch: 0 });
    let service = service_with_faults(&engine, 1, plan);
    let handle = service
        .submit(JobSpec::raw(request(&engine, 4, 70)))
        .expect("admitted");
    let outcome = handle.wait();
    assert!(
        matches!(&outcome, JobOutcome::Failed(PpError::WorkerPanic { .. })),
        "expected Failed(WorkerPanic), got: {outcome}"
    );
    assert_eq!(service.stats().retries, 0);
}

/// The `ci.sh --chaos` entry point: a *seeded* fault plan (panics,
/// errors, stalls assigned pseudo-randomly per tenant) must always be
/// survivable — whatever `PP_CHAOS_SEED` says, every tenant resolves
/// to `Completed` with its exact solo library, because one injected
/// fault is always within a 3-attempt retry budget.
#[test]
fn seeded_fault_plan_is_always_survivable() {
    let seed: u64 = std::env::var("PP_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC4A05);
    let engine = tiny_engine(4);
    // One fault per session 1..=3; the plan draws each fault's slot
    // ordinal below 2, and every attempt dispatches 8 jobs (ordinals
    // 0..8), so every scheduled fault actually fires.
    let plan = FaultPlan::seeded(seed, 1..4, 2);
    assert_eq!(plan.remaining(), 3, "one fault per tenant");
    let service = service_with_faults(&engine, 2, plan);
    let retry = RetryPolicy::new(3, Duration::from_millis(1));
    let seeds = [1000u64, 2000, 3000];
    let solos: Vec<_> = seeds
        .iter()
        .map(|&s| solo_patterns(&engine, 8, s))
        .collect();
    let handles: Vec<_> = seeds
        .iter()
        .map(|&s| {
            service
                .submit(JobSpec::raw(request(&engine, 8, s)).with_retry(retry))
                .expect("admitted")
        })
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let outcome = handle.wait();
        assert!(
            outcome.is_completed(),
            "seed {seed}: tenant {i} outcome: {outcome}"
        );
        let report = outcome.into_report().expect("completed carries a report");
        assert!(
            report.attempts <= 2,
            "seed {seed}: one fault needs at most one retry, took {}",
            report.attempts
        );
        assert_eq!(
            report.library.patterns(),
            &solos[i][..],
            "seed {seed}: tenant {i} library diverged"
        );
    }
    // Whatever the plan injected, the pool is intact afterwards.
    let post = service
        .submit(JobSpec::raw(request(&engine, 4, 9000)))
        .expect("post-chaos submit succeeds");
    assert!(post.wait().is_completed());
    let sched = service.scheduler_stats();
    assert_eq!(
        sched.workers_lost, 0,
        "micro-batch faults never kill a loop"
    );
}

/// A hard deadline that has already passed resolves the job to
/// `TimedOut` (empty partial) before any sampling happens — and a
/// generous hard deadline on the same service completes normally.
#[test]
fn expired_hard_deadline_resolves_to_timed_out() {
    let engine = tiny_engine(5);
    let service = Service::new(
        &engine,
        ServiceOptions {
            threads: 1,
            ..Default::default()
        },
    );
    let handle = service
        .submit(JobSpec::raw(request(&engine, 6, 11)).with_hard_deadline(Duration::ZERO))
        .expect("deadlines do not affect admission");
    match handle.wait() {
        JobOutcome::TimedOut { partial } => {
            assert_eq!(partial.generated, 0, "nothing beat a zero deadline");
            assert_eq!(partial.attempts, 1, "timeouts never retry");
        }
        other => panic!("expected TimedOut, got: {other}"),
    }
    spin_until("timed_out counter", || {
        service.scheduler_stats().timed_out.total() == 1
    });
    assert_eq!(service.stats().retries, 0);
    // A generous hard deadline is indistinguishable from none.
    let handle = service
        .submit(JobSpec::raw(request(&engine, 4, 12)).with_hard_deadline(Duration::from_secs(600)))
        .expect("admitted");
    assert!(handle.wait().is_completed());
}

/// A mid-run hard deadline keeps the slots that beat the clock: an
/// injected stall at slot ordinal 0 makes the first refill slow
/// enough that the rest of the submission expires behind it, and the
/// job resolves to `TimedOut` carrying exactly that refill's samples.
#[test]
fn hard_deadline_mid_run_keeps_partial_results() {
    let engine = tiny_engine(6);
    let plan = FaultPlan::new().inject(
        1,
        Fault::StallFor {
            batch: 0,
            duration: Duration::from_millis(300),
        },
    );
    let service = service_with_faults(&engine, 1, plan);
    // 12 jobs at tiny's batch_size 4: the table auto-sizes to 6 slots
    // and the cold-start de-aligner caps the first refill at half of
    // that, so slots 0..3 are admitted immediately (beating the 80 ms
    // deadline), stall 300 ms, and deliver; jobs 3..12 are still
    // queued when the worker next refills, now past the deadline —
    // purged.
    let handle = service
        .submit(
            JobSpec::raw(request(&engine, 12, 13)).with_hard_deadline(Duration::from_millis(80)),
        )
        .expect("admitted");
    match handle.wait() {
        JobOutcome::TimedOut { partial } => {
            assert_eq!(
                partial.generated, 3,
                "exactly the stalled-but-dispatched first refill must survive"
            );
        }
        other => panic!("expected TimedOut, got: {other}"),
    }
    assert_eq!(service.scheduler_stats().timed_out.total(), 1);
}

/// A panic that escapes the per-micro-batch isolation (here: a policy
/// that panics inside the dispatch lock) kills the worker loop — and
/// the supervisor respawns it, recovers the poisoned mutex, and the
/// submission still completes bit-identically. `workers_lost` counts
/// the respawn.
#[test]
fn supervisor_respawns_a_worker_loop_killed_by_a_policy_panic() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// Panics on the first ranking only (the flag flips *before* the
    /// panic, so the respawned loop proceeds normally).
    struct PanicOnce(Arc<AtomicBool>);
    impl SchedPolicy for PanicOnce {
        fn name(&self) -> &str {
            "panic-once"
        }
        fn rank(&mut self, queue: &[patternpaint::core::SchedView]) -> Vec<usize> {
            if !self.0.swap(true, Ordering::SeqCst) {
                panic!("policy panicked inside the dispatch lock");
            }
            (0..queue.len()).collect()
        }
    }

    let engine = tiny_engine(7);
    let solo = solo_patterns(&engine, 8, 21);
    let fired = Arc::new(AtomicBool::new(false));
    let scheduler = engine.scheduler_with(
        1,
        SchedulerOptions::new().policy(PanicOnce(Arc::clone(&fired))),
    );
    let mut session = engine.session_seeded(21).attach(&scheduler);
    let counts = session
        .run_request(&request(&engine, 8, 21))
        .expect("the respawned loop finishes the round");
    assert_eq!(counts.0, 8, "every sample was generated");
    assert_eq!(
        session.library().patterns(),
        &solo[..],
        "library diverged across the respawn"
    );
    assert!(fired.load(Ordering::SeqCst), "the policy panic fired");
    // The loss is counted, and the poisoned state mutex was recovered:
    // stats and a fresh submission both work.
    let stats = scheduler.stats();
    assert_eq!(stats.workers_lost, 1, "one loop lost, one respawn");
    assert_eq!(stats.worker_panics, 0, "no micro-batch panic involved");
    let mut again = engine.session_seeded(22).attach(&scheduler);
    let counts = again
        .run_request(&request(&engine, 4, 22))
        .expect("post-respawn submission runs");
    assert_eq!(counts.0, 4);
}

/// Fault plans key on `(session, slot ordinal)` and each fault
/// fires once: the *same* session's second submission (a service
/// retry) only re-faults if the plan schedules it again.
#[test]
fn faults_fire_once_per_scheduled_occurrence() {
    let engine = tiny_engine(8);
    let plan = FaultPlan::new().inject(1, Fault::ErrAt { batch: 0 });
    let service = service_with_faults(&engine, 1, plan);
    let handle = service
        .submit(
            JobSpec::raw(request(&engine, 4, 31))
                .with_retry(RetryPolicy::new(2, Duration::from_millis(1))),
        )
        .expect("admitted");
    let report = handle
        .wait()
        .into_report()
        .expect("retry absorbs the fault");
    assert_eq!(report.attempts, 2);
    assert_eq!(report.generated, 4);
    assert_eq!(service.stats().retries, 1);
}
