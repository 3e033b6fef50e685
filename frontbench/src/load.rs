//! The load generator: one thread that submits a plan's requests, keeps
//! its closed-loop clients busy, and polls every in-flight
//! [`JobHandle`] until each reaches its terminal outcome. Latency is
//! timed from submission.

use crate::trace::Tracer;
use patternpaint_core::{
    Fleet, JobHandle, JobOutcome, JobReport, JobSpec, JobStatus, PpError, QosClass, Service,
};
use std::time::{Duration, Instant};

/// Anything jobs can be submitted to: a [`Service`] or a [`Fleet`].
pub trait FrontDoor {
    /// Submits `spec`.
    ///
    /// # Errors
    ///
    /// Whatever the front door's admission reports.
    fn submit(&self, spec: JobSpec) -> Result<JobHandle, PpError>;
}

impl FrontDoor for Service {
    fn submit(&self, spec: JobSpec) -> Result<JobHandle, PpError> {
        Service::submit(self, spec)
    }
}

impl FrontDoor for Fleet {
    fn submit(&self, spec: JobSpec) -> Result<JobHandle, PpError> {
        Fleet::submit(self, spec)
    }
}

/// Which part of a workload a job belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A request whose latency the workload reports; drained at the end.
    Request,
    /// Background load; cancelled when the window closes.
    Background,
}

/// A well-mixed 64-bit value derived from `(seed, index)` (splitmix64):
/// the source of every job seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A closed-loop client: submits its next job only after the previous
/// one reached a terminal outcome, while the window is open.
pub struct Client {
    /// The client's first `requests` jobs are requests (drained at the
    /// end); later ones are background load.
    pub requests: u64,
    /// Builds the `n`-th job's spec.
    pub make: Box<dyn FnMut(u64) -> JobSpec>,
}

/// What one measured window runs.
pub struct Plan {
    /// Requests submitted together when the window opens (warm-up and
    /// session seeding).
    pub at_start: Vec<JobSpec>,
    /// Closed-loop clients.
    pub clients: Vec<Client>,
    /// Window length.
    pub window: Duration,
}

/// Everything observed about one submitted job.
#[derive(Debug)]
pub struct JobRecord {
    /// The job's role.
    pub role: Role,
    /// Its QoS class.
    pub class: QosClass,
    /// Index among the requests submitted at the start, or among the
    /// client's jobs for closed-loop clients.
    pub index: u64,
    /// Which client submitted it (`None` for requests submitted at the
    /// start).
    pub client: Option<usize>,
    /// When it was submitted.
    pub submitted: Instant,
    /// When the first sample was observed.
    pub first_sample: Option<Instant>,
    /// When the terminal outcome was observed.
    pub done: Option<Instant>,
    /// Samples credited in total.
    pub samples: usize,
    /// The terminal outcome (`Err` when submission itself was refused).
    pub outcome: Result<JobOutcome, PpError>,
    /// The front door's job id, when admitted.
    pub id: Option<u64>,
}

impl JobRecord {
    /// Submission → terminal, ms (`None` until terminal).
    pub fn latency_ms(&self) -> Option<f64> {
        self.done
            .map(|d| d.saturating_duration_since(self.submitted).as_secs_f64() * 1e3)
    }

    /// The report, for outcomes that carry one.
    pub fn report(&self) -> Option<&JobReport> {
        self.outcome.as_ref().ok().and_then(JobOutcome::report)
    }

    /// Whether the job ran to completion.
    pub fn completed(&self) -> bool {
        matches!(self.outcome, Ok(JobOutcome::Completed(_)))
    }
}

/// The result of driving a [`Plan`].
#[derive(Debug)]
pub struct Observed {
    /// Every submission, in submission order.
    pub jobs: Vec<JobRecord>,
    /// Window start.
    pub start: Instant,
    /// Actual window length (the generator checks the clock every
    /// millisecond).
    pub window: Duration,
    /// When the last job reached its terminal outcome.
    pub finished: Instant,
    /// Samples credited inside the window: offset from the window
    /// start, count, and the job's class.
    pub credits: Vec<(Duration, usize, QosClass)>,
    /// Jobs the generator cancelled when the window closed.
    pub cancelled_by_bench: usize,
    /// Whether every job reached a terminal outcome before the drain
    /// deadline.
    pub drained: bool,
}

struct Live {
    record: usize,
    handle: JobHandle,
    last: (usize, usize),
    cancelled: bool,
}

/// How long the generator waits for in-flight jobs after the window.
const DRAIN_LIMIT: Duration = Duration::from_secs(90);

/// Runs `plan` against `door` and records every job. Jobs submitted
/// before `plan.window` elapses count; requests still running at the
/// end are drained, background jobs are cancelled.
pub fn drive(door: &dyn FrontDoor, mut plan: Plan, tracer: &Tracer) -> Observed {
    let start = Instant::now();
    let end = start + plan.window;
    let mut jobs: Vec<JobRecord> = Vec::new();
    let mut live: Vec<Live> = Vec::new();
    let mut credits = Vec::new();
    let mut client_busy = vec![false; plan.clients.len()];
    let mut client_next = vec![0u64; plan.clients.len()];
    let mut window_closed_at = None;
    let mut cancelled_by_bench = 0;
    for (index, spec) in std::mem::take(&mut plan.at_start).into_iter().enumerate() {
        submit(
            door,
            spec,
            Role::Request,
            None,
            index as u64,
            &mut jobs,
            &mut live,
        );
    }
    loop {
        let now = Instant::now();
        let open = now < end;
        if !open && window_closed_at.is_none() {
            window_closed_at = Some(now);
            for l in &mut live {
                if jobs[l.record].role == Role::Background && !l.cancelled {
                    l.handle.cancel();
                    l.cancelled = true;
                    cancelled_by_bench += 1;
                }
            }
        }
        if open {
            for (c, client) in plan.clients.iter_mut().enumerate() {
                if !client_busy[c] {
                    let n = client_next[c];
                    let spec = (client.make)(n);
                    let role = if n < client.requests {
                        Role::Request
                    } else {
                        Role::Background
                    };
                    let admitted = submit(
                        door,
                        spec,
                        role,
                        Some(c),
                        client_next[c],
                        &mut jobs,
                        &mut live,
                    );
                    client_next[c] += 1;
                    client_busy[c] = admitted;
                }
            }
        }
        // Poll.
        let mut i = 0;
        while i < live.len() {
            let l = &mut live[i];
            let rec = &mut jobs[l.record];
            let p = l.handle.progress();
            let step = if p.total != l.last.1 || p.completed < l.last.0 {
                // A new round began: the previous one ran to its total.
                (l.last.1 - l.last.0) + p.completed
            } else {
                p.completed - l.last.0
            };
            l.last = (p.completed, p.total);
            credit(rec, step, start, end, &mut credits);
            if l.handle.poll() == JobStatus::Done {
                let l = live.swap_remove(i);
                let rec = &mut jobs[l.record];
                let done = Instant::now();
                let outcome = l.handle.wait();
                // A completed job ran its last round to the end; reports
                // cannot say so, since affinity jobs report cumulative
                // session totals.
                if outcome.is_completed() {
                    credit(rec, l.last.1 - l.last.0, start, end, &mut credits);
                }
                rec.done = Some(done);
                rec.outcome = Ok(outcome);
                if let Some(c) = rec.client {
                    client_busy[c] = false;
                }
                record_job_spans(tracer, rec);
                continue;
            }
            i += 1;
        }
        let closed_for = window_closed_at.map(|t| now.saturating_duration_since(t));
        if !open && live.is_empty() {
            return Observed {
                jobs,
                start,
                window: window_closed_at
                    .unwrap_or(now)
                    .saturating_duration_since(start),
                finished: now,
                credits,
                cancelled_by_bench,
                drained: true,
            };
        }
        if closed_for.is_some_and(|d| d > DRAIN_LIMIT) {
            for l in &live {
                l.handle.cancel();
            }
            return Observed {
                jobs,
                start,
                window: plan.window,
                finished: now,
                credits,
                cancelled_by_bench,
                drained: false,
            };
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn credit(
    rec: &mut JobRecord,
    step: usize,
    start: Instant,
    end: Instant,
    credits: &mut Vec<(Duration, usize, QosClass)>,
) {
    if step == 0 {
        return;
    }
    let now = Instant::now();
    if rec.first_sample.is_none() {
        rec.first_sample = Some(now);
    }
    rec.samples += step;
    if now < end {
        credits.push((now - start, step, rec.class));
    }
}

fn submit(
    door: &dyn FrontDoor,
    spec: JobSpec,
    role: Role,
    client: Option<usize>,
    index: u64,
    jobs: &mut Vec<JobRecord>,
    live: &mut Vec<Live>,
) -> bool {
    let class = spec.class;
    let submitted = Instant::now();
    let result = door.submit(spec);
    let mut rec = JobRecord {
        role,
        class,
        index,
        client,
        submitted,
        first_sample: None,
        done: None,
        samples: 0,
        outcome: Err(PpError::Config("pending".into())),
        id: None,
    };
    match result {
        Ok(handle) => {
            rec.id = Some(handle.id());
            jobs.push(rec);
            live.push(Live {
                record: jobs.len() - 1,
                handle,
                last: (0, 0),
                cancelled: false,
            });
            true
        }
        Err(e) => {
            rec.done = Some(submitted);
            rec.outcome = Err(e);
            jobs.push(rec);
            false
        }
    }
}

fn record_job_spans(tracer: &Tracer, rec: &JobRecord) {
    let Some(done) = rec.done else { return };
    let root = tracer.record("job", rec.submitted, done, None, rec.id);
    let first = rec.first_sample.unwrap_or(done);
    tracer.record(
        "job.to_first_sample",
        rec.submitted,
        first,
        Some(root),
        rec.id,
    );
    tracer.record("job.after_first_sample", first, done, Some(root), rec.id);
}
