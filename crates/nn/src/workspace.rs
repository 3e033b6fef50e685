//! A reusable buffer arena for allocation-free steady-state inference.
//!
//! Layers grab scratch (shifted conv planes, activation buffers) with
//! [`Workspace::take`] and return it with [`Workspace::give`]; after the
//! first pass through a network every buffer comes from the pool, so a
//! DDIM sampling loop performs no heap allocation per step.

/// A pool of `f32` buffers recycled across forward passes.
///
/// # Example
///
/// ```
/// use pp_nn::Workspace;
///
/// let mut ws = Workspace::new();
/// let buf = ws.take(128);
/// assert_eq!(buf.len(), 128);
/// ws.give(buf);
/// // The next take of any size reuses the same allocation when it fits.
/// let again = ws.take(64);
/// assert!(again.capacity() >= 128);
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    /// Buffers kept sorted ascending by capacity (maintained by
    /// [`Workspace::give`]), so `take` can best-fit in O(log n).
    pool: Vec<Vec<f32>>,
}

/// Upper bound on pooled buffers; beyond this, returned buffers are
/// simply dropped (a U-Net forward holds well under this many live
/// intermediates).
const MAX_POOLED: usize = 64;

impl Workspace {
    /// An empty pool.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// A buffer of exactly `len` elements.
    ///
    /// Contents are unspecified (callers are expected to overwrite every
    /// element). Best-fit reuse: the smallest pooled buffer whose
    /// capacity already covers `len`, else the largest one (grown),
    /// so small requests don't capture — and permanently inflate — the
    /// big activation buffers.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        if self.pool.is_empty() {
            return vec![0.0; len];
        }
        let i = self.pool.partition_point(|b| b.capacity() < len);
        let mut buf = if i < self.pool.len() {
            self.pool.remove(i)
        } else {
            self.pool.pop().expect("pool is non-empty")
        };
        buf.resize(len, 0.0);
        buf
    }

    /// Like [`Workspace::take`] but guarantees an all-zero buffer.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take(len);
        buf.fill(0.0);
        buf
    }

    /// Returns a buffer to the pool for reuse (sorted insert, keeping
    /// the pool ordered by capacity for best-fit `take`).
    pub fn give(&mut self, buf: Vec<f32>) {
        if self.pool.len() < MAX_POOLED && buf.capacity() > 0 {
            let i = self.pool.partition_point(|b| b.capacity() < buf.capacity());
            self.pool.insert(i, buf);
        }
    }

    /// Number of pooled buffers (diagnostics).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

/// Workspaces embedded in layers are scratch, not state: cloning a
/// network must not duplicate (or share) pool memory.
impl Clone for Workspace {
    fn clone(&self) -> Self {
        Workspace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_recycles_allocations() {
        let mut ws = Workspace::new();
        let buf = ws.take(100);
        let ptr = buf.as_ptr();
        ws.give(buf);
        let buf2 = ws.take(50);
        assert_eq!(buf2.as_ptr(), ptr, "expected the pooled allocation back");
        assert_eq!(buf2.len(), 50);
    }

    #[test]
    fn take_zeroed_clears_previous_contents() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(4);
        buf.fill(7.0);
        ws.give(buf);
        let buf = ws.take_zeroed(4);
        assert!(buf.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn large_requests_get_the_large_buffer() {
        let mut ws = Workspace::new();
        let small = ws.take(8);
        let big = ws.take(1024);
        let big_ptr = big.as_ptr();
        ws.give(small);
        ws.give(big);
        let got = ws.take(512);
        assert_eq!(got.as_ptr(), big_ptr);
    }

    /// Small requests must not capture (and then permanently grow) the
    /// big activation buffers: best-fit hands back the smallest buffer
    /// that already fits.
    #[test]
    fn small_requests_do_not_steal_large_buffers() {
        let mut ws = Workspace::new();
        let small = ws.take(8);
        let big = ws.take(1024);
        let small_ptr = small.as_ptr();
        let big_ptr = big.as_ptr();
        ws.give(big);
        ws.give(small);
        let got = ws.take(4);
        assert_eq!(got.as_ptr(), small_ptr);
        let got_big = ws.take(1000);
        assert_eq!(got_big.as_ptr(), big_ptr);
    }

    #[test]
    fn clone_is_empty() {
        let mut ws = Workspace::new();
        ws.give(vec![0.0; 16]);
        assert_eq!(ws.clone().pooled(), 0);
    }

    #[test]
    fn pool_is_bounded() {
        let mut ws = Workspace::new();
        for _ in 0..(MAX_POOLED + 10) {
            ws.give(vec![0.0; 4]);
        }
        assert_eq!(ws.pooled(), MAX_POOLED);
    }
}
