//! `frontbench`: the front-door benchmark.
//!
//! ```text
//! frontbench --workload <library_batch|session_fleet>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets up from scratch (pretrain, finetune job, open the
//! child engine, build and warm the workload's front door), drives the
//! workload's traffic for `--seconds`, checks every output, and prints
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones declared in
//! `BENCHMARK.json`; with `--trace 1` the same workload and seed run with
//! timing decorators and spans, and the metrics are the per-layer ones.
//! Spans, library digests and plain-run throughput go to `.bench_out/`
//! in the working directory. See `METRICS.md` for what each metric
//! means and which end-to-end metric it should move.

#![forbid(unsafe_code)]

mod checks;
mod layers;
mod load;
mod setup;
mod stats;
mod trace;
mod workloads;

use crate::checks::{check_digest, check_legality, check_reference, ArtifactTimes};
use crate::load::{JobRecord, Role};
use crate::setup::{TailCalls, THREADS};
use crate::stats::{median, percentile, Declared, Sheet};
use crate::trace::{Calls, Tracer};
use crate::workloads::{check_accounting, end_to_end, measure, Door, Measured, Tally, Workload};
use patternpaint_core::{PipelineConfig, QosClass};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// The benchmark declaration this binary must satisfy.
const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// Where runs leave spans, digests and plain-run throughput.
const OUT_DIR: &str = ".bench_out";

#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1 to 60".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[frontbench] {e}");
            eprintln!(
                "usage: frontbench --workload <name> --seed <n> --seconds <1-60> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("[frontbench] run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let declared = Declared::parse(DECLARATION)?;
    if !declared.workloads.iter().any(|w| w == args.workload.name()) {
        return Err(format!(
            "{} is not a declared workload",
            args.workload.name()
        ));
    }
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let tracer = Tracer::new(args.trace);
    let calls = args.trace.then(TailCalls::default);
    let m = measure(
        args.workload,
        args.seed,
        args.seconds,
        &tracer,
        calls.as_ref(),
    )?;
    let e2e = end_to_end(&m);

    let checks_start = Instant::now();
    let mut problems = check_accounting(&m);
    problems.extend(check_legality(&m));
    let (reference, artifact) = check_reference(&m, &tracer);
    problems.extend(reference);
    let (digest, mismatch) = check_digest(&m, args.trace, out);
    problems.extend(mismatch);

    summarize(&m, &e2e, digest);
    eprintln!(
        "[frontbench] drain {:.2}s, checks {:.2}s",
        m.observed
            .finished
            .saturating_duration_since(m.observed.start + m.observed.window)
            .as_secs_f64(),
        checks_start.elapsed().as_secs_f64()
    );

    let sheet = match &calls {
        Some(calls) => {
            let sheet = per_layer(&m, &e2e, calls, &artifact, &tracer);
            let path = out.join(format!(
                "trace-{}-{}.jsonl",
                args.workload.name(),
                args.seed
            ));
            let mut file = std::fs::File::create(&path)
                .map_err(|e| format!("creating {}: {e}", path.display()))?;
            tracer
                .write_jsonl(&mut file)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            sheet
        }
        None => {
            remember_plain(out, args.workload, e2e.get("samples_per_s").unwrap_or(0.0));
            e2e
        }
    };
    let expected = if args.trace {
        &declared.per_layer
    } else {
        &declared.end_to_end
    };
    problems.extend(sheet.problems(expected));
    for p in &problems {
        eprintln!("[frontbench] CHECK FAILED: {p}");
    }
    let tally = Tally::of(
        m.warm_jobs
            .iter()
            .chain(&m.seed_jobs)
            .chain(&m.observed.jobs),
    );
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        problems.is_empty(),
        tally.attempted,
        tally.bad(),
        sheet.to_json()
    ))
}

/// A human-readable account of the run on stderr, with the sample
/// counts behind each percentile.
fn summarize(m: &Measured, e2e: &Sheet, digest: u64) {
    let requests: Vec<&JobRecord> = m
        .observed
        .jobs
        .iter()
        .filter(|r| r.role == Role::Request)
        .collect();
    let lat: Vec<f64> = requests.iter().filter_map(|r| r.latency_ms()).collect();
    let support = stats::quantile(&lat, 90.0).map_or(0, |q| q.beyond);
    eprintln!(
        "[frontbench] {} seed {}: window {:.2}s, {} jobs ({} requests, p90 over {} with {} beyond), \
         {} cancelled at window end, digest {digest:016x}",
        m.workload.name(),
        m.seed,
        m.observed.window.as_secs_f64(),
        m.observed.jobs.len(),
        requests.len(),
        lat.len(),
        support,
        m.observed.cancelled_by_bench,
    );
    eprintln!(
        "[frontbench] samples per {}s interval: {:?}",
        workloads::INTERVAL.as_secs(),
        workloads::interval_samples(&m.observed, |_| true)
    );
    for name in e2e.names() {
        eprintln!(
            "[frontbench]   {name} = {:.4}",
            e2e.get(name).unwrap_or(0.0)
        );
    }
}

/// Plain runs record their throughput so a later traced run of the same
/// workload can report its overhead against it.
fn remember_plain(out: &Path, w: Workload, samples_per_s: f64) {
    use std::io::Write;
    let path = out.join(format!("plain-{}.txt", w.name()));
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{samples_per_s}"));
    if let Err(e) = written {
        eprintln!("[frontbench] could not record plain throughput: {e}");
    }
}

fn recalled_plain(out: &Path, w: Workload) -> Vec<f64> {
    std::fs::read_to_string(out.join(format!("plain-{}.txt", w.name())))
        .map(|s| s.lines().filter_map(|l| l.trim().parse().ok()).collect())
        .unwrap_or_default()
}

fn us(ns: &[u64], p: f64) -> f64 {
    let v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    percentile(&v, p).unwrap_or(0.0)
}

/// Median over the window's jobs of `class` of `f`, ms (0 when none).
fn class_median(m: &Measured, class: QosClass, f: impl Fn(&JobRecord) -> Option<f64>) -> f64 {
    let v: Vec<f64> = m
        .observed
        .jobs
        .iter()
        .filter(|r| r.class == class)
        .filter_map(f)
        .collect();
    median(&v)
}

/// Seconds per call of one [`Calls::push`], the tracing harness's unit
/// of cost.
fn record_cost_s() -> f64 {
    let calls = Calls::default();
    let n = 20_000;
    let t = Instant::now();
    for _ in 0..n {
        calls.push(Instant::now(), false);
    }
    t.elapsed().as_secs_f64() / f64::from(n)
}

/// The per-layer metrics of a traced run.
fn per_layer(
    m: &Measured,
    e2e: &Sheet,
    calls: &TailCalls,
    artifact: &ArtifactTimes,
    tracer: &Tracer,
) -> Sheet {
    let mut s = Sheet::default();
    let t = Instant::now();
    layers::nn(&mut s);
    tracer.record("layer.nn", t, Instant::now(), None, None);
    let t = Instant::now();
    layers::diffusion(&mut s, &m.child);
    tracer.record("layer.diffusion", t, Instant::now(), None, None);

    // Round tail, from the decorators (window and drain only).
    let denoise = calls.denoise.durations();
    let drc = calls.drc.durations();
    s.set("inpaint.denoise_us.p50", us(&denoise, 50.0), "us");
    s.set("inpaint.denoise_us.p90", us(&denoise, 90.0), "us");
    s.set("drc.check_us.p50", us(&drc, 50.0), "us");
    s.set("drc.check_us.p90", us(&drc, 90.0), "us");
    s.set(
        "drc.legal_share",
        calls.drc.hits() as f64 / drc.len().max(1) as f64,
        "share",
    );
    let busy_s = m
        .observed
        .finished
        .saturating_duration_since(m.observed.start)
        .as_secs_f64()
        * THREADS as f64;
    let tail_s = (denoise.iter().sum::<u64>() + drc.iter().sum::<u64>()) as f64 / 1e9;
    s.set("tail.share", tail_s / busy_s.max(1e-9), "share");

    // Selection on the run's own libraries.
    let cfg = match m.workload {
        Workload::LibraryBatch => PipelineConfig::standard(),
        _ => *m.child.config(),
    };
    let libs = workloads::result_libraries(m);
    let patterns: Vec<&[pp_geometry::Layout]> = libs.iter().map(|l| l.patterns()).collect();
    let t = Instant::now();
    layers::selection(
        &mut s,
        &patterns,
        cfg.select_k,
        cfg.pca_explained,
        cfg.max_density,
    );
    tracer.record("layer.selection", t, Instant::now(), None, None);

    // Scheduler.
    let st = m.door.scheduler_stats();
    s.set(
        "scheduler.wait_p50_us.interactive",
        st.wait_p50_micros_by_class.interactive as f64,
        "us",
    );
    s.set(
        "scheduler.wait_p50_us.batch",
        st.wait_p50_micros_by_class.batch as f64,
        "us",
    );
    s.set(
        "scheduler.wait_p99_us.interactive",
        st.wait_p99_micros_by_class.interactive as f64,
        "us",
    );
    s.set(
        "scheduler.wait_p99_us.batch",
        st.wait_p99_micros_by_class.batch as f64,
        "us",
    );
    s.set(
        "scheduler.slot_fill",
        st.slots_filled as f64 / (st.slots_filled + st.slots_idle).max(1) as f64,
        "share",
    );
    s.set("scheduler.merged_steps", st.batches_merged as f64, "count");
    s.set("scheduler.worker_panics", st.worker_panics as f64, "count");

    // Service / fleet, seen through job handles and public stats.
    for (class, name) in [
        (QosClass::Interactive, "interactive"),
        (QosClass::Batch, "batch"),
    ] {
        s.set(
            format!("job.first_sample_ms.{name}"),
            class_median(m, class, |r| {
                r.first_sample
                    .map(|f| f.saturating_duration_since(r.submitted).as_secs_f64() * 1e3)
            }),
            "ms",
        );
        s.set(
            format!("job.after_first_ms.{name}"),
            class_median(m, class, |r| {
                Some(
                    r.done?
                        .saturating_duration_since(r.first_sample?)
                        .as_secs_f64()
                        * 1e3,
                )
            }),
            "ms",
        );
    }
    let (steals, hits, misses, migrations, rejected, retries) = match &m.door {
        Door::Service(svc) => {
            let st = svc.stats();
            let r = st.rejected;
            (
                0,
                0,
                0,
                0,
                r.interactive + r.batch + r.best_effort,
                st.retries,
            )
        }
        Door::Fleet(fleet) => {
            let st = fleet.stats();
            (
                st.steals,
                st.affinity_hits,
                st.affinity_misses,
                st.migrations,
                st.rejected_depth + st.rejected_backpressure,
                st.retries,
            )
        }
    };
    s.set("fleet.steals", steals as f64, "count");
    s.set("fleet.affinity_hits", hits as f64, "count");
    s.set("fleet.affinity_misses", misses as f64, "count");
    s.set("fleet.migrations", migrations as f64, "count");
    s.set("service.rejected", rejected as f64, "count");
    s.set("service.retries", retries as f64, "count");

    // Artifact codec and engine.
    let st = &m.setup_times;
    s.set("artifact.session_save_ms", median(&artifact.save_ms), "ms");
    s.set(
        "artifact.session_resume_ms",
        median(&artifact.resume_ms),
        "ms",
    );
    s.set("artifact.session_bytes", artifact.bytes, "bytes");
    s.set(
        "artifact.checkpoint_put_ms",
        median(&st.checkpoint_put_ms),
        "ms",
    );
    s.set("artifact.checkpoint_bytes", st.checkpoint_bytes, "bytes");
    s.set("engine.open_trained_ms", st.open_trained_ms, "ms");

    // Training.
    s.set("train.pretrain_s", st.pretrain_s, "s");
    s.set("train.finetune_s", st.finetune_s, "s");
    s.set("train.epoch_ms", median(&st.epoch_ms), "ms");

    // The benchmark's own health.
    let traced = e2e.get("samples_per_s").unwrap_or(0.0);
    let plain = recalled_plain(Path::new(OUT_DIR), m.workload);
    let overhead = if plain.is_empty() || traced <= 0.0 {
        // No plain run in this directory yet: estimate from the cost of
        // one record times the records made.
        let records = (denoise.len() + drc.len() + tracer.len()) as f64;
        records * record_cost_s() / busy_s.max(1e-9)
    } else {
        median(&plain) / traced - 1.0
    };
    s.set("bench.trace_overhead", overhead, "share");
    s.set("bench.spans", tracer.len() as f64, "count");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload session_fleet --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::SessionFleet);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload library_batch --seed x --seconds 1 --trace 0",
            "--workload library_batch --seed 1 --seconds 0 --trace 0",
            "--workload library_batch --seed 1 --seconds 1 --trace 2",
            "--workload library_batch --seed 1 --seconds 1",
            "--workload library_batch --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn declaration_names_are_valid_and_cover_the_workloads() {
        let d = Declared::parse(DECLARATION).unwrap();
        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(d.workloads, names);
        for name in d.end_to_end.iter().chain(&d.per_layer) {
            assert!(stats::valid_name(name), "{name}");
        }
        assert!(d.end_to_end.iter().any(|n| n == "setup_s"));
    }
}
