//! The two workloads, driven through the real front doors, and the
//! end-to-end metrics computed from what the load generator observed.

use crate::load::{drive, mix, Client, FrontDoor, JobRecord, Observed, Plan, Role};
use crate::setup::{self, SetupTimes, TailCalls, THREADS};
use crate::stats::{percentile, Sheet};
use crate::trace::Tracer;
use patternpaint_core::{
    Engine, Fleet, FleetOptions, FleetStats, JobOutcome, JobSpec, PatternLibrary, PipelineConfig,
    PpError, QosClass, SchedulerStats, Service, ServiceOptions, ServiceStats,
};
use std::time::{Duration, Instant};

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bulk library growth (the paper's Alg. 2): two closed-loop
    /// clients, each running back-to-back standard `iterative(2)` jobs on
    /// a shared 2-thread [`Service`].
    LibraryBatch,
    /// Four users continuing affinity sessions on a 2-replica [`Fleet`],
    /// each a closed-loop client; two are Interactive, two Batch.
    SessionFleet,
}

/// Every workload, in declaration order.
pub const ALL: [Workload; 2] = [Workload::LibraryBatch, Workload::SessionFleet];

/// Closed-loop clients on `library_batch`. With one, a job's round
/// ends and round tails leave a worker idle while the other finishes its
/// share, and throughput followed the slower core: between runs it
/// spread by about twice as much as `session_fleet`'s. A second client
/// fills those gaps. Each client's first job is a request, so the
/// latency percentiles cover both concurrent jobs.
pub const LIBRARY_CLIENTS: u64 = 2;
/// Users holding affinity sessions on `session_fleet`. User `u` lives
/// on replica `u % 2`, so each replica serves one Interactive user
/// (`u < 2`) and one Batch user.
pub const USERS: u64 = 4;
/// The continuations of each `session_fleet` user that the exact
/// metrics, the library digest and the solo reference cover: the
/// first ones, whose inputs the seed alone fixes. A closed-loop user
/// completes about twenty in a 35 s window; fewer than this many fails
/// the run's checks.
pub const EXACT_CONTINUATIONS: u64 = 2;

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The declared name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LibraryBatch => "library_batch",
            Workload::SessionFleet => "session_fleet",
        }
    }

    /// The latency limit a request must meet to count as on time, ms.
    pub fn limit_ms(self) -> f64 {
        match self {
            // Twice an 800-sample job's time on the 2-thread pool of an
            // unloaded host, sharing it with the other client's job.
            Workload::LibraryBatch => 40_000.0,
            // Twice a continuation's time when each replica alternates
            // between its two users.
            Workload::SessionFleet => 4_000.0,
        }
    }
}

/// A workload's front door.
pub enum Door {
    /// A single [`Service`].
    Service(Service),
    /// A [`Fleet`] of replicas.
    Fleet(Fleet),
}

impl Door {
    fn as_dyn(&self) -> &dyn FrontDoor {
        match self {
            Door::Service(s) => s,
            Door::Fleet(f) => f,
        }
    }

    /// The scheduler counters, merged over replicas for a fleet.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        match self {
            Door::Service(s) => s.scheduler_stats(),
            Door::Fleet(f) => f.stats().aggregated,
        }
    }

    /// Per-class admitted / finished / active job counts.
    fn job_counts(&self) -> [[u64; 3]; 3] {
        let (submitted, finished, active) = match self {
            Door::Service(s) => {
                let ServiceStats {
                    submitted,
                    finished,
                    active,
                    ..
                } = s.stats();
                (submitted, finished, active)
            }
            Door::Fleet(f) => {
                let FleetStats {
                    submitted,
                    finished,
                    active,
                    ..
                } = f.stats();
                (submitted, finished, active)
            }
        };
        let row = |c: patternpaint_core::ClassCounts| [c.interactive, c.batch, c.best_effort];
        [row(submitted), row(finished), row(active)]
    }
}

fn class_index(class: QosClass) -> usize {
    match class {
        QosClass::Interactive => 0,
        QosClass::Batch => 1,
        _ => 2,
    }
}

/// Builds `w`'s front door over `engine`.
fn build_door(w: Workload, engine: &Engine) -> Door {
    match w {
        Workload::LibraryBatch => Door::Service(Service::new(
            engine,
            ServiceOptions {
                threads: THREADS,
                ..Default::default()
            },
        )),
        Workload::SessionFleet => Door::Fleet(Fleet::replicate(
            engine,
            FleetOptions::new().with_replicas(2).with_threads(1),
        )),
    }
}

/// A plan whose requests are all submitted at once and which opens no
/// window: used for warm-up and session seeding.
fn at_once(specs: Vec<JobSpec>) -> Plan {
    Plan {
        at_start: specs,
        clients: Vec::new(),
        window: Duration::ZERO,
    }
}

fn warm_up(door: &Door, tracer: &Tracer) -> Observed {
    let specs = (0..2)
        .map(|r| {
            JobSpec::initial()
                .with_budget(4)
                .with_seed(0xfeed + r)
                .with_placement(r)
        })
        .collect();
    drive(door.as_dyn(), at_once(specs), tracer)
}

/// The measured part of a run: set-up products, the observation, and
/// the per-job records of the set-up phase.
pub struct Measured {
    /// The workload.
    pub workload: Workload,
    /// The run's seed.
    pub seed: u64,
    /// The set-up's duration, s.
    pub setup_s: f64,
    /// Layer timings of the last set-up.
    pub setup_times: SetupTimes,
    /// The fine-tuned engine without decorators.
    pub child: Engine,
    /// The front door the window ran on (kept for its statistics).
    pub door: Door,
    /// Warm-up jobs.
    pub warm_jobs: Vec<JobRecord>,
    /// Session-seeding jobs, one per user (`session_fleet` only).
    pub seed_jobs: Vec<JobRecord>,
    /// The window.
    pub observed: Observed,
}

/// The affinity key of `session_fleet` user `u`.
pub fn user_key(u: u64) -> String {
    format!("user-{u}")
}

/// The session seed of `session_fleet` user `u`.
pub fn user_seed(seed: u64, u: u64) -> u64 {
    mix(seed ^ 0x05e5_5105, u)
}

/// The seed of client `c`'s `n`-th library job on `library_batch`.
pub fn library_job_seed(seed: u64, c: u64, n: u64) -> u64 {
    mix(mix(seed ^ 0x11b7_a7c4, c), n)
}

/// The QoS class of `session_fleet` user `u`.
pub fn user_class(u: u64) -> QosClass {
    if u < USERS / 2 {
        QosClass::Interactive
    } else {
        QosClass::Batch
    }
}

fn plan(w: Workload, seed: u64, seconds: u64) -> Plan {
    let window = Duration::from_secs(seconds);
    match w {
        Workload::LibraryBatch => Plan {
            at_start: Vec::new(),
            // Each client's first job is a request: drained at the end
            // and an exact-metric library. Later jobs are background
            // load, cancelled when the window closes.
            clients: (0..LIBRARY_CLIENTS)
                .map(|c| Client {
                    requests: 1,
                    make: Box::new(move |n| {
                        JobSpec::iterative(2)
                            .with_config(PipelineConfig::standard())
                            .with_class(QosClass::Batch)
                            .with_seed(library_job_seed(seed, c, n))
                    }),
                })
                .collect(),
            window,
        },
        Workload::SessionFleet => Plan {
            at_start: Vec::new(),
            // Client `u` is user `u`: every continuation is a request,
            // drained at the end, so each session stays whole.
            clients: (0..USERS)
                .map(|u| Client {
                    requests: u64::MAX,
                    make: Box::new(move |_| continuation_spec(seed, u)),
                })
                .collect(),
            window,
        },
    }
}

/// A continuation of user `u`'s session on `session_fleet`: resume,
/// one refinement round, save.
pub fn continuation_spec(seed: u64, u: u64) -> JobSpec {
    JobSpec::iterative(1)
        .with_class(user_class(u))
        .with_affinity(user_key(u))
        .with_seed(user_seed(seed, u))
}

/// The seeding job of user `u` on `session_fleet`: the initial round
/// plus one refinement round, saved as the user's session.
pub fn seeding_spec(seed: u64, u: u64) -> JobSpec {
    JobSpec::iterative(1)
        .with_class(QosClass::Batch)
        .with_affinity(user_key(u))
        .with_seed(user_seed(seed, u))
        .with_placement(u)
}

/// Sets up (timed), seeds sessions, and drives the window. With
/// `calls`, the window runs on a traced copy of the engine.
///
/// # Errors
///
/// A message when set-up fails.
pub fn measure(
    w: Workload,
    seed: u64,
    seconds: u64,
    tracer: &Tracer,
    calls: Option<&TailCalls>,
) -> Result<Measured, String> {
    // One set-up per run: a second would not fit a full measurement
    // round (48 runs) in its time budget.
    let t = Instant::now();
    let span = tracer.reserve();
    let (child, setup_times) = setup::common(tracer, Some(span))?;
    let serving = match calls {
        Some(c) => setup::traced_engine(&child, c)?,
        None => child.clone(),
    };
    let door = build_door(w, &serving);
    let warm = warm_up(&door, tracer);
    let setup_s = t.elapsed().as_secs_f64();
    tracer.record_as(span, "setup", t, Instant::now(), None, None);
    eprintln!(
        "[frontbench] set-up {setup_s:.2}s (pretrain {:.2}s, finetune {:.2}s)",
        setup_times.pretrain_s, setup_times.finetune_s
    );
    let seed_jobs = if w == Workload::SessionFleet {
        let specs = (0..USERS).map(|u| seeding_spec(seed, u)).collect();
        drive(door.as_dyn(), at_once(specs), tracer).jobs
    } else {
        Vec::new()
    };
    if let Some(c) = calls {
        // Tail timings cover the window and its drain only.
        c.denoise.clear();
        c.drc.clear();
    }
    let observed = drive(door.as_dyn(), plan(w, seed, seconds), tracer);
    Ok(Measured {
        workload: w,
        seed,
        setup_s,
        setup_times,
        child,
        door,
        warm_jobs: warm.jobs,
        seed_jobs,
        observed,
    })
}

/// A request's contribution to the exact metrics: patterns it added
/// and samples it generated, with its legal count.
#[derive(Debug, Clone, Copy, Default)]
struct Delta {
    new_unique: usize,
    generated: usize,
    legal: usize,
}

/// Per-request deltas. Affinity jobs report their session's cumulative
/// totals, so a continuation's delta is measured against the previous
/// report of the same user.
fn deltas(m: &Measured) -> Vec<(usize, Delta)> {
    let mut prev: std::collections::HashMap<u64, (usize, usize, usize)> =
        std::collections::HashMap::new();
    for (u, rec) in m.seed_jobs.iter().enumerate() {
        if let Some(r) = rec.report() {
            prev.insert(u as u64, (r.library.len(), r.generated, r.legal));
        }
    }
    let mut out = Vec::new();
    for (i, rec) in m.observed.jobs.iter().enumerate() {
        let Some(r) = rec.report().filter(|_| rec.completed()) else {
            continue;
        };
        let now = (r.library.len(), r.generated, r.legal);
        let before = if m.workload == Workload::SessionFleet && rec.role == Role::Request {
            let user = rec.client.map_or(0, |c| c as u64);
            prev.insert(user, now).unwrap_or((0, 0, 0))
        } else {
            (0, 0, 0)
        };
        out.push((
            i,
            Delta {
                new_unique: now.0.saturating_sub(before.0),
                generated: now.1.saturating_sub(before.1),
                legal: now.2.saturating_sub(before.2),
            },
        ));
    }
    out
}

/// The libraries a workload's exact metrics and digest are taken over,
/// in a deterministic order.
pub fn result_libraries(m: &Measured) -> Vec<&PatternLibrary> {
    let requests = m.observed.jobs.iter().filter(|r| r.role == Role::Request);
    match m.workload {
        Workload::LibraryBatch => {
            let mut recs: Vec<&JobRecord> = requests.collect();
            recs.sort_by_key(|r| r.client);
            recs.iter()
                .filter_map(|r| r.report().map(|r| &r.library))
                .collect()
        }
        Workload::SessionFleet => {
            // Each user's session library after its last exact
            // continuation; a user without one keeps its seeding job's.
            (0..USERS)
                .filter_map(|u| {
                    let last = requests
                        .clone()
                        .filter(|r| {
                            r.client == Some(u as usize)
                                && r.index < EXACT_CONTINUATIONS
                                && r.completed()
                        })
                        .max_by_key(|r| r.index)
                        .or_else(|| m.seed_jobs.get(u as usize));
                    last.and_then(|r| r.report().map(|r| &r.library))
                })
                .collect()
        }
    }
}

/// Length of the intervals a window's throughput is taken over.
pub const INTERVAL: Duration = Duration::from_secs(5);

/// Samples credited inside the window to jobs that `count` accepts,
/// per whole [`INTERVAL`] of the window, in order.
pub fn interval_samples(o: &Observed, count: impl Fn(QosClass) -> bool) -> Vec<usize> {
    let intervals = (o.window.as_secs_f64() / INTERVAL.as_secs_f64()).floor() as usize;
    let mut per = vec![0usize; intervals];
    for &(at, n, class) in &o.credits {
        let i = (at.as_secs_f64() / INTERVAL.as_secs_f64()) as usize;
        if let Some(slot) = per.get_mut(i).filter(|_| count(class)) {
            *slot += n;
        }
    }
    per
}

/// Samples per second credited inside the window to jobs that `count`
/// accepts, taken over the window's whole [`INTERVAL`]s without the
/// slowest and the fastest one, so that a few seconds in which the
/// shared host ran slow do not set the result. Samples finish in
/// cohorts of up to 16, so a single interval's rate is coarse; the mean
/// of the middle intervals is not. Over the whole window when it holds
/// fewer than three intervals.
pub fn throughput(o: &Observed, count: impl Fn(QosClass) -> bool) -> f64 {
    let mut per = interval_samples(o, &count);
    if per.len() < 3 {
        let samples: usize = o
            .credits
            .iter()
            .filter(|(_, _, class)| count(*class))
            .map(|&(_, n, _)| n)
            .sum();
        return samples as f64 / o.window.as_secs_f64().max(1e-9);
    }
    per.sort_unstable();
    let middle = &per[1..per.len() - 1];
    middle.iter().sum::<usize>() as f64 / (middle.len() as f64 * INTERVAL.as_secs_f64())
}

/// The end-to-end metrics of a measured run, as a user of the front
/// door sees them: wall-clock time, not scaled by host speed.
pub fn end_to_end(m: &Measured) -> Sheet {
    let o = &m.observed;
    let mut s = Sheet::default();
    let samples_per_s = throughput(o, |_| true);
    s.set("setup_s", m.setup_s, "s");
    s.set("samples_per_s", samples_per_s, "samples/s");
    s.set(
        "background_samples_per_s",
        throughput(o, |c| c == QosClass::Batch),
        "samples/s",
    );

    let d = deltas(m);
    let (new_unique, generated): (usize, usize) = d
        .iter()
        .fold((0, 0), |a, (_, x)| (a.0 + x.new_unique, a.1 + x.generated));
    s.set(
        "patterns_per_s",
        samples_per_s * new_unique as f64 / generated.max(1) as f64,
        "patterns/s",
    );
    // Over every completed request: each one's legal share depends on
    // its seed alone, and more of them make a steadier rate.
    let requests: Vec<Delta> = d
        .iter()
        .filter(|(i, _)| o.jobs[*i].role == Role::Request)
        .map(|&(_, x)| x)
        .collect();
    let legal: usize = requests.iter().map(|x| x.legal).sum();
    let gen: usize = requests.iter().map(|x| x.generated).sum();
    s.set("legal_rate", legal as f64 / gen.max(1) as f64, "share");
    // Exact metrics: over the libraries the seed alone fixes.
    let libs = result_libraries(m);
    let unique: usize = libs.iter().map(|l| l.len()).sum();
    s.set("unique_patterns", unique as f64, "count");
    let h2 = libs.iter().map(|l| l.stats().h2).sum::<f64>() / libs.len().max(1) as f64;
    s.set("h2", h2, "bits");

    let requests: Vec<&JobRecord> = o.jobs.iter().filter(|r| r.role == Role::Request).collect();
    let lat: Vec<f64> = requests.iter().filter_map(|r| r.latency_ms()).collect();
    s.set(
        "request_p50_ms",
        percentile(&lat, 50.0).unwrap_or(0.0),
        "ms",
    );
    s.set(
        "request_p90_ms",
        percentile(&lat, 90.0).unwrap_or(0.0),
        "ms",
    );
    let on_time = requests
        .iter()
        .filter(|r| r.completed() && r.latency_ms().is_some_and(|l| l <= m.workload.limit_ms()))
        .count();
    s.set(
        "request_ontime_rate",
        on_time as f64 / requests.len().max(1) as f64,
        "share",
    );
    s.set("peak_rss_mb", peak_rss_mb(), "MB");
    s
}

/// The process's peak resident set (`VmHWM`), MB; 0 when unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Outcome tallies of a set of job records.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Jobs submitted (admitted or refused).
    pub attempted: u64,
    /// Completed.
    pub completed: u64,
    /// Cancelled by the benchmark at window end.
    pub cancelled: u64,
    /// Failed.
    pub failed: u64,
    /// Refused at submission or downstream.
    pub rejected: u64,
    /// Past a hard deadline.
    pub timed_out: u64,
    /// Admitted by the front door.
    pub admitted: u64,
}

impl Tally {
    /// Tallies `jobs`.
    pub fn of<'a>(jobs: impl IntoIterator<Item = &'a JobRecord>) -> Tally {
        let mut t = Tally::default();
        for j in jobs {
            t.attempted += 1;
            t.admitted += u64::from(j.id.is_some());
            match &j.outcome {
                Ok(JobOutcome::Completed(_)) => t.completed += 1,
                Ok(JobOutcome::Cancelled(_)) => t.cancelled += 1,
                Ok(JobOutcome::Rejected { .. }) | Err(PpError::Rejected { .. }) => t.rejected += 1,
                Ok(JobOutcome::TimedOut { .. }) => t.timed_out += 1,
                _ => t.failed += 1,
            }
        }
        t
    }

    /// Jobs that ended other than completed or cancelled by the
    /// benchmark.
    pub fn bad(&self) -> u64 {
        self.failed + self.rejected + self.timed_out
    }

    /// Whether every attempt has exactly one terminal outcome.
    pub fn balanced(&self) -> bool {
        self.attempted
            == self.completed + self.cancelled + self.failed + self.rejected + self.timed_out
    }
}

/// Checks that every job the generator submitted reached one terminal
/// outcome, per class and phase, and that the front door's own
/// counters agree. Returns the problems found.
pub fn check_accounting(m: &Measured) -> Vec<String> {
    let mut problems = Vec::new();
    if !m.observed.drained {
        problems.push("jobs were still running at the drain limit".into());
    }
    let phases = [
        ("warm-up", &m.warm_jobs),
        ("seeding", &m.seed_jobs),
        ("window", &m.observed.jobs),
    ];
    let mut per_class = [0u64; 3];
    for (phase, jobs) in phases {
        for class in [QosClass::Interactive, QosClass::Batch, QosClass::BestEffort] {
            let t = Tally::of(jobs.iter().filter(|j| j.class == class));
            if !t.balanced() {
                problems.push(format!("{phase}/{class}: outcomes do not add up: {t:?}"));
            }
            per_class[class_index(class)] += t.admitted;
        }
        if jobs.iter().any(|j| j.done.is_none()) {
            problems.push(format!("{phase}: a job never reached a terminal outcome"));
        }
    }
    let [submitted, finished, active] = m.door.job_counts();
    if submitted != per_class || finished != per_class || active != [0; 3] {
        problems.push(format!(
            "front door counters disagree: admitted {submitted:?}, finished {finished:?}, \
             active {active:?}; the generator saw {per_class:?} admitted"
        ));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The specs a workload's plan submits first, as text.
    fn specs(w: Workload, seed: u64) -> Vec<String> {
        let mut p = plan(w, seed, 25);
        let mut out: Vec<String> = p.at_start.iter().map(|s| format!("{s:?}")).collect();
        for c in &mut p.clients {
            out.extend((0..3).map(|n| format!("{:?}", (c.make)(n))));
        }
        out
    }

    #[test]
    fn job_specs_are_a_pure_function_of_the_seed() {
        for w in ALL {
            assert_eq!(specs(w, 7), specs(w, 7), "{}", w.name());
            assert_ne!(specs(w, 7), specs(w, 8), "{}", w.name());
        }
    }

    fn observed(window_s: u64, credits: Vec<(u64, usize, QosClass)>) -> Observed {
        let start = Instant::now();
        Observed {
            jobs: Vec::new(),
            start,
            window: Duration::from_secs(window_s),
            finished: start,
            credits: credits
                .into_iter()
                .map(|(ms, n, c)| (Duration::from_millis(ms), n, c))
                .collect(),
            cancelled_by_bench: 0,
            drained: true,
        }
    }

    #[test]
    fn throughput_drops_the_slowest_and_fastest_interval() {
        use QosClass::{Batch, Interactive};
        // 10/s, then a slow interval at 2/s, then 8/s; a sample after
        // the last whole interval is not counted.
        let o = observed(
            16,
            vec![
                (1_000, 30, Batch),
                (4_000, 20, Interactive),
                (7_000, 10, Batch),
                (12_000, 40, Batch),
                (15_500, 99, Batch),
            ],
        );
        assert!((throughput(&o, |_| true) - 8.0).abs() < 1e-12);
        // Batch only: 6/s, 2/s, 8/s.
        assert!((throughput(&o, |c| c == Batch) - 6.0).abs() < 1e-12);
        // Under three whole intervals: the mean over the window.
        let short = observed(8, vec![(1_000, 30, Batch), (6_000, 10, Batch)]);
        assert!((throughput(&short, |_| true) - 5.0).abs() < 1e-12);
    }
}
