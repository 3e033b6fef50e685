//! Streaming delivery of batched inpainting results.
//!
//! [`crate::DiffusionModel::sample_inpaint_stream`] runs the same
//! chunked, micro-batched slot-loop workers as the blocking batch API,
//! but delivers every finished micro-batch through a bounded channel as
//! soon as it completes — in job order — so callers can consume, meter,
//! or abort a round without waiting for the whole batch.

use pp_geometry::GrayImage;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;

/// A cooperative cancellation flag shared between a stream's consumer
/// and its sampling workers.
///
/// Workers check the token at every DDIM step: after
/// [`CancelToken::cancel`] the micro-batches in flight are dropped at
/// the next step boundary and no *new* one starts, while batches
/// already finished still reach the consumer (partial results).
/// Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// One finished micro-batch: `samples[i]` answers job `start + i`.
#[derive(Debug)]
pub struct MicroBatch {
    /// Global index of the first job in this micro-batch.
    pub start: usize,
    /// The sampled images, in job order.
    pub samples: Vec<GrayImage>,
}

/// An in-order stream of [`MicroBatch`]es from the sampling workers.
///
/// Worker `w` owns the contiguous job chunk `[w·c, (w+1)·c)` and sends
/// its micro-batches through its own bounded channel; the iterator
/// drains worker 0's channel, then worker 1's, and so on, so batches
/// arrive sorted by `start`. Dropping the stream early disconnects the
/// channels, which stops the workers at their next send. Cancelling
/// the stream's [`CancelToken`] stops them within one DDIM step.
///
/// A panic on a worker thread is resurfaced on the consumer thread
/// when its channel disconnects (matching the scoped-thread behaviour
/// the blocking path had before streaming) — a dead worker never
/// silently truncates the stream.
#[derive(Debug)]
pub struct InpaintStream {
    rxs: Vec<Receiver<MicroBatch>>,
    current: usize,
    handles: Vec<Option<JoinHandle<()>>>,
    total: usize,
}

impl InpaintStream {
    pub(crate) fn new(
        rxs: Vec<Receiver<MicroBatch>>,
        handles: Vec<JoinHandle<()>>,
        total: usize,
    ) -> Self {
        InpaintStream {
            rxs,
            current: 0,
            handles: handles.into_iter().map(Some).collect(),
            total,
        }
    }

    /// Number of jobs submitted (an upper bound on samples delivered;
    /// cancellation may cut the stream short).
    pub fn total_jobs(&self) -> usize {
        self.total
    }

    /// Joins one worker, resurfacing its panic on this thread.
    fn reap(handle: Option<JoinHandle<()>>) {
        if let Some(h) = handle {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl Iterator for InpaintStream {
    type Item = MicroBatch;

    fn next(&mut self) -> Option<MicroBatch> {
        while self.current < self.rxs.len() {
            match self.rxs[self.current].recv() {
                Ok(mb) => return Some(mb),
                // This worker is done (sender dropped): join it —
                // propagating a panic if it died — then move on.
                Err(_) => {
                    Self::reap(self.handles[self.current].take());
                    self.current += 1;
                }
            }
        }
        None
    }
}

impl Drop for InpaintStream {
    fn drop(&mut self) {
        // Disconnect first so workers blocked on a full channel exit,
        // then reap them. Worker panics are swallowed here: an early
        // drop is an intentional abandon (and may itself be an unwind).
        self.rxs.clear();
        for h in self.handles.drain(..).flatten() {
            let _ = h.join();
        }
    }
}
