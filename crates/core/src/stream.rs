//! Streaming generation requests: what to sample and how to observe it.

use crate::error::PpError;
use crate::jobs::JobSet;
use crate::jobspec::QosClass;
use pp_geometry::Layout;
use pp_inpaint::Mask;
use std::sync::Arc;
use std::time::Duration;

pub use pp_diffusion::CancelToken;

/// Progress of a running generation stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Samples finished so far.
    pub completed: usize,
    /// Samples requested.
    pub total: usize,
}

/// Callback invoked after every finished micro-batch (from the thread
/// consuming the stream, never concurrently).
pub type ProgressHook = Arc<dyn Fn(Progress) + Send + Sync>;

/// How a stream is delivered: metering, cancellation, backpressure.
#[derive(Clone, Default)]
pub struct StreamOptions {
    /// Cooperative cancellation; after [`CancelToken::cancel`] the
    /// stream ends early with whatever samples were already finished.
    /// A private worker pool ([`crate::DiffusionSampler`]) drops its
    /// in-flight micro-batches at the next DDIM step; the scheduler
    /// stops admitting the submission's remaining jobs.
    pub cancel: CancelToken,
    /// Invoked after each finished micro-batch.
    pub progress: Option<ProgressHook>,
    /// Micro-batches buffered per sampling worker before sampling
    /// blocks (backpressure for slow consumers); `None` buffers a
    /// worker's whole chunk so sampling never waits on the consumer.
    pub capacity: Option<usize>,
    /// Worker threads for the round tail (denoise → DRC → dedupe).
    /// `Some(0)` forces the serial tail; `None` defers to the
    /// pipeline's [`crate::PipelineConfig::tail_threads`] (or serial,
    /// for the bare `run_round` harness). Any value produces
    /// bit-identical libraries — admission is reassembled in job order.
    pub tail_threads: Option<usize>,
    /// QoS class attached to scheduler submissions made under these
    /// options: it selects the admission queue and the share weight
    /// under class-aware policies ([`crate::WeightedFair`]). Ignored by
    /// private (non-scheduled) worker pools.
    pub class: QosClass,
    /// Deadline attached to scheduler submissions, measured from the
    /// moment of submission. Soft by default: [`crate::DeadlineFirst`]
    /// dispatches earlier deadlines first; nothing is aborted when one
    /// passes. See [`StreamOptions::hard_deadline`] for enforcement.
    pub deadline: Option<Duration>,
    /// Makes [`StreamOptions::deadline`] *hard*: once it passes, the
    /// scheduler cooperatively cancels the submission between
    /// micro-batches with [`crate::PpError::DeadlineExceeded`]
    /// (micro-batches already finished still reach the consumer, so
    /// partial results survive). Meaningless without a deadline set.
    pub hard_deadline: bool,
}

impl std::fmt::Debug for StreamOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamOptions")
            .field("cancel", &self.cancel)
            .field("progress", &self.progress.as_ref().map(|_| "<hook>"))
            .field("capacity", &self.capacity)
            .field("tail_threads", &self.tail_threads)
            .field("class", &self.class)
            .field("deadline", &self.deadline)
            .field("hard_deadline", &self.hard_deadline)
            .finish()
    }
}

impl StreamOptions {
    /// Options with a progress hook.
    pub fn with_progress(mut self, hook: impl Fn(Progress) + Send + Sync + 'static) -> Self {
        self.progress = Some(Arc::new(hook));
        self
    }

    /// Options with a cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Options with a per-worker buffer bound (in micro-batches).
    ///
    /// # Errors
    ///
    /// [`PpError::Config`] for `capacity == 0`: the delivery channels
    /// cannot be rendezvous-only, and `0` must not silently mean
    /// "unbounded" (that is what leaving the field `None` does).
    pub fn with_capacity(mut self, capacity: usize) -> Result<Self, PpError> {
        if capacity == 0 {
            return Err(PpError::Config(
                "capacity: 0 micro-batches would make delivery rendezvous-only; \
                 use 1 for the tightest backpressure or leave the field None for unbounded"
                    .into(),
            ));
        }
        self.capacity = Some(capacity);
        Ok(self)
    }

    /// Options with an explicit tail worker count (`0` = serial),
    /// overriding the pipeline configuration's default.
    pub fn with_tail_threads(mut self, tail_threads: usize) -> Self {
        self.tail_threads = Some(tail_threads);
        self
    }

    /// Options with a QoS class for scheduler submissions.
    pub fn with_class(mut self, class: QosClass) -> Self {
        self.class = class;
        self
    }

    /// Options with a soft deadline (from submission) for scheduler
    /// submissions.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Options with a *hard* deadline (from submission): past it, the
    /// scheduler cancels the submission at the next slot-admission
    /// point and the stream ends with
    /// [`crate::PpError::DeadlineExceeded`] after any
    /// already-finished jobs.
    pub fn with_hard_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self.hard_deadline = true;
        self
    }
}

/// What to generate: a job set plus the base seed deriving every
/// per-job RNG stream (`seed ^ job_index`, matching the batch path).
#[derive(Debug, Clone)]
pub struct GenerationRequest {
    jobs: JobSet,
    seed: u64,
}

impl GenerationRequest {
    /// A request over explicit jobs.
    pub fn new(jobs: JobSet, seed: u64) -> Self {
        GenerationRequest { jobs, seed }
    }

    /// The initial-generation fan-out: every starter × every mask ×
    /// `variations` (paper §IV-C), in that nesting order.
    pub fn fan_out(starters: &[Layout], masks: &[Mask], variations: usize, seed: u64) -> Self {
        let mut jobs = JobSet::new();
        for starter in starters {
            let template = Arc::new(starter.clone());
            for mask in masks {
                let mask = Arc::new(mask.clone());
                jobs.push_fan_out(&template, &mask, variations);
            }
        }
        GenerationRequest { jobs, seed }
    }

    /// The jobs to run.
    pub fn jobs(&self) -> &JobSet {
        &self.jobs
    }

    /// The base seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_inpaint::MaskSet;
    use pp_pdk::SynthNode;

    #[test]
    fn zero_capacity_is_rejected_at_construction() {
        let err = StreamOptions::default().with_capacity(0).unwrap_err();
        assert!(matches!(err, PpError::Config(_)), "wrong error: {err}");
        assert!(err.to_string().contains("capacity"), "message was: {err}");
        let opts = StreamOptions::default().with_capacity(1).unwrap();
        assert_eq!(opts.capacity, Some(1));
    }

    #[test]
    fn qos_options_default_and_chain() {
        let opts = StreamOptions::default();
        assert_eq!(opts.class, QosClass::Batch);
        assert_eq!(opts.deadline, None);
        assert!(!opts.hard_deadline, "deadlines default to soft");
        let opts = opts
            .with_class(QosClass::Interactive)
            .with_deadline(Duration::from_millis(50));
        assert_eq!(opts.class, QosClass::Interactive);
        assert_eq!(opts.deadline, Some(Duration::from_millis(50)));
        assert!(!opts.hard_deadline, "with_deadline stays soft");
        let opts = opts.with_hard_deadline(Duration::from_millis(20));
        assert_eq!(opts.deadline, Some(Duration::from_millis(20)));
        assert!(opts.hard_deadline);
    }

    #[test]
    fn fan_out_matches_nested_order() {
        let node = SynthNode::small();
        let starters = node.starter_patterns();
        let masks: Vec<Mask> = MaskSet::ALL
            .iter()
            .flat_map(|s| s.masks(node.clip()))
            .collect();
        let req = GenerationRequest::fan_out(&starters, &masks, 2, 7);
        assert_eq!(req.jobs().len(), starters.len() * masks.len() * 2);
        assert_eq!(req.seed(), 7);
        // First two jobs share starter 0 and mask 0.
        let jobs = req.jobs().jobs();
        assert_eq!(*jobs[0].0, starters[0]);
        assert!(Arc::ptr_eq(&jobs[0].0, &jobs[1].0));
        assert!(Arc::ptr_eq(&jobs[0].1, &jobs[1].1));
        // Job `variations` moves to mask 1, same starter.
        assert!(Arc::ptr_eq(&jobs[0].0, &jobs[2].0));
        assert!(!Arc::ptr_eq(&jobs[0].1, &jobs[2].1));
    }
}
