//! The set-up every workload shares: pretrain the foundation model,
//! few-shot finetune it as a training job, and open the fine-tuned
//! child engine. Nothing is cached between runs.

use crate::trace::{Calls, TimedDenoiser, TimedValidator, TimingStore, Tracer};
use patternpaint_core::{
    ArtifactStore, DrcValidator, Engine, JobOutcome, JobSpec, JobStatus, PipelineConfig, Service,
    ServiceOptions, TrainSpec,
};
use pp_inpaint::TemplateDenoiser;
use pp_pdk::SynthNode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one set-up measured, for the train and artifact layers.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Foundation pretraining, s.
    pub pretrain_s: f64,
    /// The finetune job, submit → terminal, s.
    pub finetune_s: f64,
    /// Per-epoch durations seen through job progress, ms.
    pub epoch_ms: Vec<f64>,
    /// Checkpoint `put`s into the store, ms each.
    pub checkpoint_put_ms: Vec<f64>,
    /// Bytes of the last checkpoint written.
    pub checkpoint_bytes: f64,
    /// `Engine::open_trained`, ms.
    pub open_trained_ms: f64,
}

/// The sampling threads every front door uses: the host has two cores
/// and the benchmark never runs more sampling threads than that.
pub const THREADS: usize = 2;

/// The node and pipeline configuration of the foundation model.
pub fn base() -> (SynthNode, PipelineConfig) {
    (SynthNode::default(), PipelineConfig::quick())
}

/// Pretrains, finetunes as a [`JobSpec::train`] through a [`Service`]
/// whose store is a [`TimingStore`], and opens the child engine.
///
/// # Errors
///
/// A message naming the step that failed.
pub fn common(tracer: &Tracer, parent: Option<u64>) -> Result<(Engine, SetupTimes), String> {
    let (node, cfg) = base();
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let engine = tracer
        .time("setup.pretrain", parent, || {
            Engine::builder(node, cfg).pretrained_engine()
        })
        .map_err(|e| format!("pretraining failed: {e}"))?;
    times.pretrain_s = t.elapsed().as_secs_f64();

    let store = Arc::new(TimingStore::new());
    let service = Service::new(
        &engine,
        ServiceOptions {
            threads: THREADS,
            store: Some(Arc::clone(&store) as Arc<dyn ArtifactStore>),
            ..Default::default()
        },
    );
    // The few-shot finetune of the quick configuration, as 4 epochs so
    // per-epoch time is visible.
    let ft = cfg.finetune;
    let spec = TrainSpec::new("bench")
        .with_epochs(4)
        .with_steps_per_epoch(ft.steps / 4)
        .with_batch(ft.batch)
        .with_lr(ft.lr)
        .with_prior(ft.prior_count, ft.lambda);
    let t = Instant::now();
    let handle = service
        .submit(JobSpec::train(spec))
        .map_err(|e| format!("finetune job refused: {e}"))?;
    // Poll the epoch counter so per-epoch time is visible from outside.
    let mut last_epoch = (0, t);
    while handle.poll() == JobStatus::Running {
        let done = handle.progress().completed;
        if done > last_epoch.0 {
            let now = Instant::now();
            let per = (now - last_epoch.1).as_secs_f64() * 1e3 / (done - last_epoch.0) as f64;
            times
                .epoch_ms
                .extend(std::iter::repeat_n(per, done - last_epoch.0));
            last_epoch = (done, now);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let summary = match handle.wait() {
        JobOutcome::Completed(report) => report.train.ok_or("train job without summary")?,
        other => return Err(format!("finetune job did not complete: {other}")),
    };
    drop(service);
    times.finetune_s = t.elapsed().as_secs_f64();
    tracer.record("setup.finetune", t, Instant::now(), parent, None);
    for op in store.ops() {
        if op.op == "put" && op.key.ends_with(".ppck") {
            times.checkpoint_put_ms.push(op.ns as f64 / 1e6);
            times.checkpoint_bytes = op.bytes as f64;
        }
    }

    let t = Instant::now();
    let (child, _lineage) = engine
        .open_trained(&*store, &summary.checkpoint_key)
        .map_err(|e| format!("opening the fine-tuned checkpoint failed: {e}"))?;
    times.open_trained_ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.record("setup.open_trained", t, Instant::now(), parent, None);
    Ok((child, times))
}

/// The decorators a traced run installs on the round tail.
#[derive(Debug, Default, Clone)]
pub struct TailCalls {
    /// Denoiser calls.
    pub denoise: Arc<Calls>,
    /// Sign-off checker calls.
    pub drc: Arc<Calls>,
}

/// `child`'s weights behind the same default stages, each wrapped in a
/// timing decorator. Every other part of the engine is unchanged, so
/// its outputs must equal `child`'s bit for bit.
///
/// # Errors
///
/// A message when the engine cannot be rebuilt around the weights.
pub fn traced_engine(child: &Engine, calls: &TailCalls) -> Result<Engine, String> {
    let (node, cfg) = base();
    let deck = node.rules().clone();
    Engine::builder(node, cfg)
        .denoiser(TimedDenoiser {
            inner: Arc::new(TemplateDenoiser::new(cfg.denoise_threshold)),
            calls: Arc::clone(&calls.denoise),
        })
        .validator(TimedValidator {
            inner: DrcValidator::new(deck),
            calls: Arc::clone(&calls.drc),
        })
        .untrained_engine()
        .and_then(|e| e.with_model(child.model().clone()))
        .map_err(|e| format!("building the traced engine failed: {e}"))
}
