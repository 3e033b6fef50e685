//! Output checks: every library pattern re-passes sign-off, and one
//! reference job per workload is bit-identical to a solo [`Session`]
//! run with the same seed and config. The reference session is then
//! saved and resumed to time the artifact codec on a real library.

use crate::load::{JobRecord, Role};
use crate::setup::base;
use crate::trace::{TimingStore, Tracer};
use crate::workloads::{
    library_job_seed, result_libraries, user_seed, Measured, Workload, EXACT_CONTINUATIONS, USERS,
};
use patternpaint_core::{
    DrcValidator, JobReport, PatternLibrary, PipelineConfig, PpError, Session, Validator,
};
use std::time::Instant;

/// Session save/resume timings taken on the reference session.
#[derive(Debug, Clone, Default)]
pub struct ArtifactTimes {
    /// `Session::save`, ms each.
    pub save_ms: Vec<f64>,
    /// `Session::resume`, ms each.
    pub resume_ms: Vec<f64>,
    /// Bytes one save writes.
    pub bytes: f64,
}

/// FNV-1a over the squish encoding of `libs`, in order.
pub fn digest(libs: &[&PatternLibrary]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for lib in libs {
        let mut bytes = Vec::new();
        lib.write_squish(&mut bytes)
            .expect("writing to a Vec cannot fail");
        for b in bytes.iter().chain(&(bytes.len() as u64).to_le_bytes()) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Every pattern of every job library the run produced must re-pass the
/// node's sign-off deck. Returns the problems found.
pub fn check_legality(m: &Measured) -> Vec<String> {
    let (node, _) = base();
    let drc = DrcValidator::new(node.rules().clone());
    let mut illegal = 0usize;
    let mut checked = 0usize;
    let jobs = m
        .warm_jobs
        .iter()
        .chain(&m.seed_jobs)
        .chain(&m.observed.jobs);
    for report in jobs.filter_map(JobRecord::report) {
        for p in report.library.patterns() {
            checked += 1;
            illegal += usize::from(!drc.is_legal(p));
        }
    }
    if illegal > 0 {
        vec![format!(
            "{illegal} of {checked} library patterns fail sign-off"
        )]
    } else {
        Vec::new()
    }
}

fn compare(what: &str, report: &JobReport, solo: &Session, problems: &mut Vec<String>) {
    let same = report.generated == solo.generated_total()
        && report.legal == solo.legal_total()
        && digest(&[&report.library]) == digest(&[solo.library()]);
    if !same {
        problems.push(format!(
            "{what}: front-door result (generated {}, legal {}, {} patterns) differs from the \
             solo session (generated {}, legal {}, {} patterns)",
            report.generated,
            report.legal,
            report.library.len(),
            solo.generated_total(),
            solo.legal_total(),
            solo.library().len()
        ));
    }
}

fn request(m: &Measured, client: usize, index: u64) -> Option<&JobReport> {
    m.observed
        .jobs
        .iter()
        .find(|r| {
            r.role == Role::Request && r.client == Some(client) && r.index == index && r.completed()
        })
        .and_then(JobRecord::report)
}

/// Saves and resumes `session` a few times, checking the resumed copy
/// is identical; returns the resumed session.
fn round_trip(
    session: Session,
    name: &str,
    times: &mut ArtifactTimes,
    problems: &mut Vec<String>,
) -> Result<Session, PpError> {
    let engine = session.engine();
    let store = TimingStore::new();
    let before = digest(&[session.library()]);
    let t = Instant::now();
    session.save(&store, name)?;
    times.save_ms.push(t.elapsed().as_secs_f64() * 1e3);
    times.bytes = store.ops().iter().map(|o| o.bytes as f64).sum();
    let t = Instant::now();
    let resumed = Session::resume(&engine, &store, name)?;
    times.resume_ms.push(t.elapsed().as_secs_f64() * 1e3);
    if digest(&[resumed.library()]) != before
        || resumed.generated_total() != session.generated_total()
        || resumed.next_iteration() != session.next_iteration()
    {
        problems.push(format!(
            "session {name}: resume does not reproduce the save"
        ));
    }
    Ok(resumed)
}

/// Re-runs the workload's reference job(s) as a solo session on the
/// undecorated engine and compares libraries bit for bit. Returns the
/// problems found and the artifact timings.
pub fn check_reference(m: &Measured, tracer: &Tracer) -> (Vec<String>, ArtifactTimes) {
    let mut problems = Vec::new();
    let mut times = ArtifactTimes::default();
    let t = Instant::now();
    if let Err(e) = reference(m, &mut problems, &mut times) {
        problems.push(format!("the solo reference run failed: {e}"));
    }
    tracer.record("check.solo_reference", t, Instant::now(), None, None);
    (problems, times)
}

fn reference(
    m: &Measured,
    problems: &mut Vec<String>,
    times: &mut ArtifactTimes,
) -> Result<(), PpError> {
    let missing = |what: &str| format!("{what} did not complete, so it cannot be checked");
    match m.workload {
        Workload::LibraryBatch => {
            let Some(report) = request(m, 0, 0) else {
                problems.push(missing("library job 0"));
                return Ok(());
            };
            let mut s = m
                .child
                .session_seeded(library_job_seed(m.seed, 0, 0))
                .with_config(PipelineConfig::standard())?;
            s.run_request(&s.initial_request())?;
            s.seed_starters();
            for _ in 0..2 {
                s.iterate(1)?;
            }
            compare("library job 0", report, &s, problems);
            for _ in 0..3 {
                s = round_trip(s, "library-0", times, problems)?;
            }
        }
        Workload::SessionFleet => {
            for u in 0..USERS {
                let done = m
                    .observed
                    .jobs
                    .iter()
                    .filter(|r| {
                        r.client == Some(u as usize)
                            && r.index < EXACT_CONTINUATIONS
                            && r.completed()
                    })
                    .count() as u64;
                if done < EXACT_CONTINUATIONS {
                    problems.push(format!(
                        "user {u} completed {done} of its first {EXACT_CONTINUATIONS} continuations"
                    ));
                }
            }
            // User 0's session history up to its last exact continuation,
            // replayed solo with a save and resume between jobs exactly
            // as the fleet does.
            let Some(seeded) = m.seed_jobs.first().and_then(JobRecord::report) else {
                problems.push(missing("user 0's seeding job"));
                return Ok(());
            };
            let mut s = m.child.session_seeded(user_seed(m.seed, 0));
            s.run_request(&s.initial_request())?;
            s.seed_starters();
            s.iterate(1)?;
            compare("user 0 seeding job", seeded, &s, problems);
            let mut continuations: Vec<&JobRecord> = m
                .observed
                .jobs
                .iter()
                .filter(|r| r.client == Some(0) && r.index < EXACT_CONTINUATIONS)
                .collect();
            continuations.sort_by_key(|r| r.index);
            for rec in continuations {
                let Some(report) = rec.report().filter(|_| rec.completed()) else {
                    problems.push(missing(&format!("continuation {}", rec.index)));
                    return Ok(());
                };
                s = round_trip(s, "user-0", times, problems)?;
                s.iterate(1)?;
                compare(&format!("continuation {}", rec.index), report, &s, problems);
            }
        }
    }
    Ok(())
}

/// The run's library digest, its file name, and a comparison with the
/// digest a run of the other tracing mode left for the same workload
/// and seed in `dir`. Returns the problems found.
pub fn check_digest(m: &Measured, trace: bool, dir: &std::path::Path) -> (u64, Vec<String>) {
    let d = digest(&result_libraries(m));
    let name = |t: bool| {
        format!(
            "digest-{}-{}-trace{}",
            m.workload.name(),
            m.seed,
            u8::from(t)
        )
    };
    let mut problems = Vec::new();
    if let Ok(other) = std::fs::read_to_string(dir.join(name(!trace))) {
        if other.trim() != format!("{d:016x}") {
            problems.push(format!(
                "library digest {d:016x} differs from the {} run's {}",
                if trace { "plain" } else { "traced" },
                other.trim()
            ));
        }
    }
    if let Err(e) = std::fs::write(dir.join(name(trace)), format!("{d:016x}\n")) {
        eprintln!("[frontbench] could not record the digest: {e}");
    }
    (d, problems)
}
