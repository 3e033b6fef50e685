//! The tracing harness: in-memory spans recorded around calls into each
//! layer, plus forwarding decorators that time the round tail's stages
//! and the artifact store from outside the program.
//!
//! A plain run uses a disabled [`Tracer`] and installs no decorator, so
//! its end-to-end numbers carry no tracing cost. A traced run records
//! every span in memory and writes them once, at the end.

use patternpaint_core::{
    ArtifactError, ArtifactStore, DrcValidator, MemStore, PatternDenoiser, PatternLibrary,
    RawSample, Validator,
};
use pp_geometry::{Layout, SquishPattern};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within one tracer; 0 is never used.
    pub id: u64,
    /// The layer boundary, e.g. `job` or `drc.check`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (never before `start`).
    pub end: u64,
    /// The span that caused this one, if the benchmark knows it.
    pub parent: Option<u64>,
    /// The front door's job id, for spans of one job.
    pub job: Option<u64>,
}

/// Collects spans in memory. A disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer; `enabled = false` makes every record a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh span id for a span recorded later with
    /// [`Tracer::record_as`], so its children can name it while it is
    /// still open (0 when disabled).
    pub fn reserve(&self) -> u64 {
        if self.enabled {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records `[start, end]` under `name` and returns its id (0 when
    /// disabled).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        job: Option<u64>,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, start, end, parent, job);
        id
    }

    /// Records `[start, end]` under a [`Tracer::reserve`]d id.
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        job: Option<u64>,
    ) {
        if !self.enabled {
            return;
        }
        let start = self.ns(start);
        let span = Span {
            id,
            name,
            start,
            end: self.ns(end).max(start),
            parent: parent.filter(|&p| p != 0),
            job,
        };
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, None);
        out
    }

    /// How many spans were recorded.
    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Writes every span as one JSON line with its self time.
    ///
    /// # Errors
    ///
    /// Any I/O error from `out`.
    pub fn write_jsonl(&self, out: &mut dyn Write) -> std::io::Result<()> {
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let selfs = self_times(&spans);
        for (s, own) in spans.iter().zip(selfs) {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"parent\": {}, \"job\": {}}}",
                s.id,
                s.name,
                s.start,
                s.end,
                own,
                opt(s.parent),
                opt(s.job)
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children count once; child time
/// outside the parent's interval does not count.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Per-call durations (ns) collected by a decorator.
#[derive(Debug, Default)]
pub struct Calls {
    durations: Mutex<Vec<u64>>,
    hits: AtomicU64,
}

impl Calls {
    /// Records one call that began at `start`; `hit` marks a useful
    /// outcome.
    pub fn push(&self, start: Instant, hit: bool) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.durations
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(ns);
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Forgets every call recorded so far.
    pub fn clear(&self) {
        self.durations
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.hits.store(0, Ordering::Relaxed);
    }

    /// Every recorded duration, ns.
    pub fn durations(&self) -> Vec<u64> {
        self.durations
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Calls whose outcome was the useful one (legal, for the checker).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

/// Times every [`PatternDenoiser`] method of the wrapped denoiser and
/// forwards it unchanged, so the round tail keeps its fused fast path.
pub struct TimedDenoiser {
    /// The denoiser being timed.
    pub inner: Arc<dyn PatternDenoiser>,
    /// Where call durations go.
    pub calls: Arc<Calls>,
}

impl PatternDenoiser for TimedDenoiser {
    fn denoise_sample(&self, sample: &RawSample) -> Layout {
        let t = Instant::now();
        let out = self.inner.denoise_sample(sample);
        self.calls.push(t, false);
        out
    }

    fn denoise_squish_sample(&self, sample: &RawSample) -> SquishPattern {
        let t = Instant::now();
        let out = self.inner.denoise_squish_sample(sample);
        self.calls.push(t, false);
        out
    }

    fn denoise_squish_sample_with_lines(
        &self,
        sample: &RawSample,
        lt_x: &[u32],
        lt_y: &[u32],
    ) -> SquishPattern {
        let t = Instant::now();
        let out = self
            .inner
            .denoise_squish_sample_with_lines(sample, lt_x, lt_y);
        self.calls.push(t, false);
        out
    }

    fn denoiser_name(&self) -> &str {
        self.inner.denoiser_name()
    }
}

/// Times every [`Validator`] method of the wrapped checker and forwards
/// it unchanged.
pub struct TimedValidator {
    /// The checker being timed.
    pub inner: DrcValidator,
    /// Where call durations go; hits count legal verdicts.
    pub calls: Arc<Calls>,
}

impl Validator for TimedValidator {
    fn is_legal(&self, layout: &Layout) -> bool {
        let t = Instant::now();
        let out = self.inner.is_legal(layout);
        self.calls.push(t, out);
        out
    }

    fn is_legal_squish(&self, squish: &SquishPattern) -> Option<bool> {
        let t = Instant::now();
        let out = self.inner.is_legal_squish(squish);
        self.calls.push(t, out == Some(true));
        out
    }

    fn admit(&self, layout: Layout, library: &mut PatternLibrary) -> bool {
        let t = Instant::now();
        let out = self.inner.admit(layout, library);
        self.calls.push(t, out);
        out
    }
}

/// One store operation seen by [`TimingStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreOp {
    /// `put` or `get`.
    pub op: &'static str,
    /// The key.
    pub key: String,
    /// Bytes written or read.
    pub bytes: usize,
    /// Duration, ns.
    pub ns: u64,
}

/// An [`ArtifactStore`] over [`MemStore`] that logs every put and get.
#[derive(Debug, Default)]
pub struct TimingStore {
    inner: MemStore,
    log: Mutex<Vec<StoreOp>>,
}

impl TimingStore {
    /// An empty store.
    pub fn new() -> TimingStore {
        TimingStore::default()
    }

    /// Every logged operation, in order.
    pub fn ops(&self) -> Vec<StoreOp> {
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn note(&self, op: &'static str, key: &str, bytes: usize, start: Instant) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(StoreOp {
                op,
                key: key.to_string(),
                bytes,
                ns,
            });
    }
}

impl ArtifactStore for TimingStore {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), ArtifactError> {
        let t = Instant::now();
        let out = self.inner.put(key, bytes);
        self.note("put", key, bytes.len(), t);
        out
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, ArtifactError> {
        let t = Instant::now();
        let out = self.inner.get(key);
        self.note("get", key, out.as_ref().map_or(0, Vec::len), t);
        out
    }

    fn contains(&self, key: &str) -> Result<bool, ArtifactError> {
        self.inner.contains(key)
    }

    fn list(&self) -> Result<Vec<String>, ArtifactError> {
        self.inner.list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: "s",
            start,
            end,
            parent,
            job: None,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span(1, 0, 100, None),
            // Two children overlapping on [30, 40]; union [10, 60].
            span(2, 10, 40, Some(1)),
            span(3, 30, 60, Some(1)),
            // A child poking out past the parent counts only inside it.
            span(4, 90, 130, Some(1)),
            // A grandchild does not reduce the root's self time again.
            span(5, 12, 20, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 8, 30, 40, 8]);
    }

    #[test]
    fn self_time_with_nested_and_disjoint_children() {
        let spans = [
            span(1, 0, 50, None),
            span(2, 5, 10, Some(1)),
            span(3, 6, 9, Some(1)),
            span(4, 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans)[0], 50 - 5 - 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let off = Tracer::new(false);
        assert_eq!(off.time("x", None, || 7), 7);
        assert_eq!(off.len(), 0);
        let on = Tracer::new(true);
        let root = on.reserve();
        let t = Instant::now();
        on.time("child", Some(root), || ());
        on.record_as(root, "root", t, Instant::now(), None, Some(3));
        assert_eq!(on.len(), 2);
        let mut out = Vec::new();
        on.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"job\": 3"));
        assert!(text.contains(&format!("\"parent\": {root}")));
    }

    #[test]
    fn timing_store_logs_and_forwards() {
        let store = TimingStore::new();
        store.put("a.bin", b"hello").unwrap();
        assert_eq!(store.get("a.bin").unwrap(), b"hello");
        assert!(store.get("missing.bin").is_err());
        let ops = store.ops();
        assert_eq!(ops.len(), 3);
        assert_eq!((ops[0].op, ops[0].bytes), ("put", 5));
        assert_eq!((ops[1].op, ops[1].bytes), ("get", 5));
    }
}
