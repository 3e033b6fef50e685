//! Register-blocked, cache-tiled single-precision matrix multiply.
//!
//! This is the workhorse under [`crate::Conv2d`] and [`crate::Linear`]:
//! convolution lowers to `weights · col(x)` and dense layers to
//! `x · Wᵀ`, so one good GEMM accelerates the whole sampling and
//! training hot path. Three memory layouts cover every public call site
//! without materialising transposes:
//!
//! * [`sgemm`]   — `C = A·B + β·C`   with `A: m×k`, `B: k×n`;
//! * [`sgemm_tn`] — `C = Aᵀ·B + β·C` with `A` stored `k×m`;
//! * [`sgemm_nt`] — `C = A·Bᵀ + β·C` with `B` stored `n×k`.
//!
//! All public operands are dense row-major `f32` slices. `sgemm`,
//! `sgemm_tn` and the convolution forward share one blocked driver. It
//! reads A from `MR`-row micro-panels, packed one at a time just before
//! use for a dense product or once per call for a convolution's
//! weights, and finds each row of B through a row-offset function: `p·n`
//! for a dense `k×n` B, an offset into shifted input planes for the
//! convolution, which never builds its im2col matrix. The driver tiles
//! the k-dimension into L1/L2-sized panels (`KC`) and accumulates
//! register micro-tiles: `6×32` with AVX-512F, `6×16` with AVX2+FMA
//! (both runtime-detected), else portable local arrays the compiler
//! vectorises; the portable kernel also covers the ragged right edge. The reduction order over
//! `k` for an output element is a pure function of the call shape
//! `(m, k, n)` and the element's position, whatever the B addressing,
//! so equal-shaped calls on equal data are bit-identical — the property
//! batched sampling relies on, since batching runs the same per-sample
//! GEMM shapes as the solo path.
//!
//! A scalar reference implementation ([`sgemm_naive`] and friends) backs
//! the unit tests and the `force_naive` switch used by `pp-bench` to
//! measure the pre-GEMM baseline.
//!
//! # Example
//!
//! ```
//! use pp_nn::gemm::sgemm;
//!
//! // [1 2; 3 4] · [5 6; 7 8]
//! let a = [1.0, 2.0, 3.0, 4.0];
//! let b = [5.0, 6.0, 7.0, 8.0];
//! let mut c = [0.0; 4];
//! sgemm(2, 2, 2, &a, &b, &mut c, 0.0);
//! assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
//! ```

// Register-tile micro-kernels deliberately drive fixed-size accumulator
// arrays and packed panels by index, and thread the full blocking state
// through their signatures; the iterator/struct rewrites clippy suggests
// obscure the kernel shape.
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]

use std::sync::atomic::{AtomicBool, Ordering};

/// Rows per register micro-tile (6×16 f32 = 12 ymm accumulators).
const MR: usize = 6;
/// Columns per register micro-tile (two 8-lane vectors on AVX2).
const NR: usize = 16;
/// k-panel depth: an `NR`-wide B panel of this depth is ~16 KiB and an
/// `MR`-tall A panel ~6 KiB, so both micro-panels live in L1.
const KC: usize = 256;

static FORCE_NAIVE: AtomicBool = AtomicBool::new(false);

/// Whether the AVX2+FMA micro-kernels are usable on this CPU (checked
/// once; the portable kernel is the fallback everywhere else).
#[cfg(target_arch = "x86_64")]
fn cpu_has_avx2_fma() -> bool {
    use std::sync::OnceLock;
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_has_avx2_fma() -> bool {
    false
}

/// Whether the AVX-512F micro-kernel is usable on this CPU.
#[cfg(target_arch = "x86_64")]
fn cpu_has_avx512f() -> bool {
    use std::sync::OnceLock;
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| is_x86_feature_detected!("avx512f"))
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_has_avx512f() -> bool {
    false
}

/// Routes the hot kernels (`sgemm*` and `Conv2d`'s im2col) through
/// their scalar reference implementations.
///
/// Benchmarks use this to measure the pre-optimisation per-sample
/// baseline on the exact same code path; it is not meant for production
/// use.
pub fn set_force_naive(enabled: bool) {
    FORCE_NAIVE.store(enabled, Ordering::Relaxed);
}

/// Whether [`set_force_naive`] is active.
pub fn force_naive() -> bool {
    FORCE_NAIVE.load(Ordering::Relaxed)
}

#[inline]
fn scale_c(c: &mut [f32], beta: f32) {
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for v in c {
            *v *= beta;
        }
    }
}

/// Element accessors for the three operand layouts, so one blocked
/// driver serves NN/TN and one dot-product driver serves NT.
#[derive(Clone, Copy)]
pub(crate) enum ALayout {
    /// `A` stored `m×k` row-major: `a[i·k + p]`.
    Normal,
    /// `A` stored `k×m` row-major (op = `Aᵀ`): `a[p·m + i]`.
    Transposed,
}

impl ALayout {
    #[inline(always)]
    fn at(self, a: &[f32], i: usize, p: usize, m: usize, k: usize) -> f32 {
        match self {
            ALayout::Normal => a[i * k + p],
            ALayout::Transposed => a[p * m + i],
        }
    }
}

/// Which micro-kernels the driver may use.
#[derive(Clone, Copy)]
struct Isa {
    avx512: bool,
    avx2: bool,
}

impl Isa {
    /// The instruction sets this CPU reports (capped, in unit tests, by
    /// the calling thread's [`tier`] override).
    fn current() -> Isa {
        let isa = Isa {
            avx512: cpu_has_avx512f(),
            avx2: cpu_has_avx2_fma(),
        };
        #[cfg(test)]
        let isa = tier::cap(isa);
        isa
    }

    /// The kernel and width of the column tile starting `rem` columns
    /// before the right edge: the widest instruction set first, the
    /// portable kernel for the ragged edge.
    fn tile(self, rem: usize) -> (Tile, usize) {
        if self.avx512 && rem >= 32 {
            (Tile::Avx512, 32)
        } else if self.avx2 && rem >= NR {
            (Tile::Avx2, NR)
        } else {
            (Tile::Portable, rem.min(NR))
        }
    }
}

/// The micro-kernel computing one column tile.
#[derive(Clone, Copy)]
enum Tile {
    Avx512,
    Avx2,
    Portable,
}

/// Elements [`pack_a`] writes for an `m×k` `op(A)`.
pub(crate) fn packed_a_len(m: usize, k: usize) -> usize {
    m.div_ceil(MR) * MR * k
}

/// Packs `op(A)` (`m×k`) into the micro-panels [`gemm_blocked`] reads:
/// per `KC` panel and `MR`-row tile one contiguous `[kc][MR]` block
/// (rows past `m` zero), the block for panel `p0`, tile `i0` starting at
/// `p0·m̄ + i0·kc` with `m̄` = `m` rounded up to `MR`.
pub(crate) fn pack_a(m: usize, k: usize, a: &[f32], lay: ALayout, ap: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k, "A must hold m·k elements");
    let mpad = m.div_ceil(MR) * MR;
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        for i0 in (0..m).step_by(MR) {
            pack_panel(m, k, a, lay, p0, kc, i0, &mut ap[p0 * mpad + i0 * kc..]);
        }
    }
}

/// Writes the `[kc][MR]` micro-panel of `op(A)` for rows `i0..i0+MR`
/// (zero past `m`) and columns `p0..p0+kc` to the front of `out`.
fn pack_panel(
    m: usize,
    k: usize,
    a: &[f32],
    lay: ALayout,
    p0: usize,
    kc: usize,
    i0: usize,
    out: &mut [f32],
) {
    let mr = MR.min(m - i0);
    for (p, row) in out[..kc * MR].chunks_exact_mut(MR).enumerate() {
        for (r, v) in row.iter_mut().enumerate() {
            *v = if r < mr {
                lay.at(a, i0 + r, p0 + p, m, k)
            } else {
                0.0
            };
        }
    }
}

/// Where [`gemm_blocked`] gets the micro-panels of `op(A)` (`m×k`).
#[derive(Clone, Copy)]
pub(crate) enum APanels<'a> {
    /// Packed up front by [`pack_a`] (reused across calls, e.g. a
    /// conv's weights across a batch).
    Packed(&'a [f32]),
    /// `A` as stored, each micro-panel packed just before its use.
    Unpacked(&'a [f32], ALayout),
}

/// Where the rows of B start: row `p` of B is the `n` elements from
/// `b[offset]` on.
///
/// `panel(p0, kc)` must yield exactly entries `p0..p0 + kc` of
/// `panel(0, k)`: [`gemm_blocked`] bounds-checks the latter once, and its
/// unsafe kernels rely on that check for every panel.
pub(crate) trait BRows: Copy {
    /// The offsets of rows `p0..p0 + kc`, in order.
    fn panel(self, p0: usize, kc: usize) -> impl Iterator<Item = usize> + Clone;
}

/// A dense row-major B: row `p` at `p·stride`.
#[derive(Clone, Copy)]
pub(crate) struct Strided(pub(crate) usize);

impl BRows for Strided {
    #[inline(always)]
    fn panel(self, p0: usize, kc: usize) -> impl Iterator<Item = usize> + Clone {
        (p0..p0 + kc).map(move |p| p * self.0)
    }
}

/// An offset per row (the convolution forward's shifted planes).
impl BRows for &[usize] {
    #[inline(always)]
    fn panel(self, p0: usize, kc: usize) -> impl Iterator<Item = usize> + Clone {
        self[p0..p0 + kc].iter().copied()
    }
}

/// Portable `MR×nr` micro-kernel: accumulates a register tile over one
/// packed A panel (`ap`, `[kc][MR]`) against the B rows starting at the
/// offsets `rows` yields (`kc` of them), and adds it into `C`.
#[inline]
fn kernel_tile(
    ap: &[f32],
    b: &[f32],
    rows: impl Iterator<Item = usize>,
    j0: usize,
    nr: usize,
    c: &mut [f32],
    n: usize,
    i0: usize,
    mr: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (row, apk) in rows.zip(ap.chunks_exact(MR)) {
        let brow = &b[row + j0..row + j0 + nr];
        for r in 0..MR {
            let av = apk[r];
            for (x, &bv) in acc[r][..nr].iter_mut().zip(brow) {
                *x += av * bv;
            }
        }
    }
    for r in 0..mr {
        let crow = &mut c[(i0 + r) * n + j0..(i0 + r) * n + j0 + nr];
        for (cv, &x) in crow.iter_mut().zip(&acc[r][..nr]) {
            *cv += x;
        }
    }
}

/// AVX2+FMA `6×16` micro-kernel: 12 ymm accumulators, one broadcast and
/// two loads per k-iteration.
///
/// # Safety
///
/// Caller must ensure AVX2+FMA are available, that `ap` holds `MR`
/// elements per row `rows` yields, that every B row `b[row + j0..]`
/// holds 16 elements, and that rows `i0..i0+mr` of C (width
/// `n ≥ j0 + 16`) lie within `c`; debug asserts re-check all three.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn kernel_tile_avx(
    ap: &[f32],
    b: &[f32],
    rows: impl Iterator<Item = usize> + Clone,
    j0: usize,
    c: &mut [f32],
    n: usize,
    i0: usize,
    mr: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() >= rows.clone().count() * MR);
    debug_assert!(rows.clone().all(|row| row + j0 + NR <= b.len()));
    debug_assert!((i0 + mr - 1) * n + j0 + NR <= c.len());
    // SAFETY: the caller upholds this fn's `# Safety` contract (AVX2+FMA
    // present, A/B/C index ranges in bounds, re-checked by the
    // debug_asserts above), so every load/store stays in bounds.
    unsafe {
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        let bp = b.as_ptr();
        let app = ap.as_ptr();
        for (p, row) in rows.enumerate() {
            let brow = bp.add(row + j0);
            let b0 = _mm256_loadu_ps(brow);
            let b1 = _mm256_loadu_ps(brow.add(8));
            let apk = app.add(p * MR);
            for r in 0..MR {
                let a = _mm256_set1_ps(*apk.add(r));
                acc[r][0] = _mm256_fmadd_ps(a, b0, acc[r][0]);
                acc[r][1] = _mm256_fmadd_ps(a, b1, acc[r][1]);
            }
        }
        let cp = c.as_mut_ptr();
        for r in 0..mr {
            let crow = cp.add((i0 + r) * n + j0);
            _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc[r][0]));
            _mm256_storeu_ps(
                crow.add(8),
                _mm256_add_ps(_mm256_loadu_ps(crow.add(8)), acc[r][1]),
            );
        }
    }
}

/// AVX-512F `6×32` micro-kernel: 12 zmm accumulators, one broadcast and
/// two loads per k-iteration.
///
/// # Safety
///
/// Caller must ensure AVX-512F is available, that `ap` holds `MR`
/// elements per row `rows` yields, that every B row `b[row + j0..]`
/// holds 32 elements, and that rows `i0..i0+mr` of C (width
/// `n ≥ j0 + 32`) lie within `c`; debug asserts re-check all three.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn kernel_tile_avx512(
    ap: &[f32],
    b: &[f32],
    rows: impl Iterator<Item = usize> + Clone,
    j0: usize,
    c: &mut [f32],
    n: usize,
    i0: usize,
    mr: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() >= rows.clone().count() * MR);
    debug_assert!(rows.clone().all(|row| row + j0 + 32 <= b.len()));
    debug_assert!((i0 + mr - 1) * n + j0 + 32 <= c.len());
    // SAFETY: the caller upholds this fn's `# Safety` contract (AVX-512F
    // present, A/B/C index ranges in bounds, re-checked by the
    // debug_asserts above), so every load/store stays in bounds.
    unsafe {
        let mut acc = [[_mm512_setzero_ps(); 2]; MR];
        let bp = b.as_ptr();
        let app = ap.as_ptr();
        for (p, row) in rows.enumerate() {
            let brow = bp.add(row + j0);
            let b0 = _mm512_loadu_ps(brow);
            let b1 = _mm512_loadu_ps(brow.add(16));
            let apk = app.add(p * MR);
            for r in 0..MR {
                let a = _mm512_set1_ps(*apk.add(r));
                acc[r][0] = _mm512_fmadd_ps(a, b0, acc[r][0]);
                acc[r][1] = _mm512_fmadd_ps(a, b1, acc[r][1]);
            }
        }
        let cp = c.as_mut_ptr();
        for r in 0..mr {
            let crow = cp.add((i0 + r) * n + j0);
            _mm512_storeu_ps(crow, _mm512_add_ps(_mm512_loadu_ps(crow), acc[r][0]));
            _mm512_storeu_ps(
                crow.add(16),
                _mm512_add_ps(_mm512_loadu_ps(crow.add(16)), acc[r][1]),
            );
        }
    }
}

/// `C += op(A)·B` with the micro-panels of `op(A)` (`m×k`) from `a`,
/// and the rows of B located by `rows`.
///
/// A dense row-major `k×n` B is [`Strided`]`(n)`; the convolution
/// forward passes offsets into its shifted input planes instead. Per
/// `KC` panel and `MR`-row tile, the A micro-panel stays in L1 while the
/// kernels sweep the panel's B rows left to right. Each C element
/// accumulates one fma (portable: mul-add) chain per `KC` panel starting
/// from zero and adds the panels into C in panel order, so its bits
/// depend only on its operands, `k`, and its column's tile (a function
/// of `n`, the column and the ISA tier) — never on how B is addressed.
///
/// # Panics
///
/// Panics if `a` or `c` is too short for the shape, or some B row runs
/// past the end of `b`.
pub(crate) fn gemm_blocked(
    m: usize,
    k: usize,
    n: usize,
    a: APanels,
    b: &[f32],
    rows: impl BRows,
    c: &mut [f32],
) {
    match a {
        APanels::Packed(ap) => assert!(ap.len() >= packed_a_len(m, k), "packed A too short"),
        APanels::Unpacked(a, _) => assert_eq!(a.len(), m * k, "A must hold m·k elements"),
    }
    assert!(c.len() >= m * n, "C must hold m×n");
    assert!(
        rows.panel(0, k).all(|row| row + n <= b.len()),
        "B row out of bounds"
    );
    let isa = Isa::current();
    let mpad = m.div_ceil(MR) * MR;
    let mut buf = [0.0f32; MR * KC];
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        for i0 in (0..m).step_by(MR) {
            let a = match a {
                APanels::Packed(ap) => &ap[p0 * mpad + i0 * kc..][..kc * MR],
                APanels::Unpacked(a, lay) => {
                    pack_panel(m, k, a, lay, p0, kc, i0, &mut buf);
                    &buf[..kc * MR]
                }
            };
            let mr = MR.min(m - i0);
            let mut j0 = 0;
            while j0 < n {
                let (kind, width) = isa.tile(n - j0);
                let panel = rows.panel(p0, kc);
                match kind {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: `Isa::current` reported AVX-512F; the
                    // asserts above (which cover `panel`, by the
                    // `BRows` contract) keep every B row's `n ≥ j0 + 32`
                    // columns and C's rows `i0..i0+mr` in bounds.
                    Tile::Avx512 => unsafe { kernel_tile_avx512(a, b, panel, j0, c, n, i0, mr) },
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: `Isa::current` reported AVX2+FMA; the
                    // asserts above (which cover `panel`, by the
                    // `BRows` contract) keep every B row's `n ≥ j0 + 16`
                    // columns and C's rows `i0..i0+mr` in bounds.
                    Tile::Avx2 => unsafe { kernel_tile_avx(a, b, panel, j0, c, n, i0, mr) },
                    _ => kernel_tile(a, b, panel, j0, width, c, n, i0, mr),
                }
                j0 += width;
            }
        }
    }
}

/// `C = op(A)·B + β·C` for a dense row-major `B: k×n`.
fn gemm_nx(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    lay: ALayout,
    b: &[f32],
    c: &mut [f32],
    beta: f32,
) {
    debug_assert_eq!(b.len(), k * n, "B must be k×n");
    debug_assert_eq!(c.len(), m * n, "C must be m×n");
    scale_c(c, beta);
    gemm_blocked(m, k, n, APanels::Unpacked(a, lay), b, Strided(n), c);
}

/// `C = A·B + β·C` (`A: m×k`, `B: k×n`, `C: m×n`, all row-major).
///
/// # Panics
///
/// Panics (debug) on slice-length/shape mismatches.
pub fn sgemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], beta: f32) {
    if force_naive() {
        return sgemm_naive(m, k, n, a, b, c, beta);
    }
    gemm_nx(m, k, n, a, ALayout::Normal, b, c, beta);
}

/// `C = Aᵀ·B + β·C` with `A` stored `k×m` row-major.
pub fn sgemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], beta: f32) {
    if force_naive() {
        return sgemm_tn_naive(m, k, n, a, b, c, beta);
    }
    gemm_nx(m, k, n, a, ALayout::Transposed, b, c, beta);
}

/// `C = A·Bᵀ + β·C` with `B` stored `n×k` row-major.
///
/// Both operand rows are contiguous here, so this uses an unrolled
/// dot-product kernel over k instead of the panel kernel.
pub fn sgemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], beta: f32) {
    if force_naive() {
        return sgemm_nt_naive(m, k, n, a, b, c, beta);
    }
    debug_assert_eq!(a.len(), m * k, "A must be m×k");
    debug_assert_eq!(b.len(), n * k, "B must be n×k");
    debug_assert_eq!(c.len(), m * n, "C must be m×n");
    scale_c(c, beta);
    let avx = Isa::current().avx2;
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (j, cv) in crow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            #[cfg(target_arch = "x86_64")]
            if avx {
                // SAFETY: feature-detected; dot_avx stays within the
                // slices it is given.
                *cv += unsafe { dot_avx(arow, brow) };
                continue;
            }
            let _ = avx;
            *cv += dot_portable(arow, brow);
        }
    }
}

/// Fixed-order portable dot product (eight independent partial sums).
#[inline]
fn dot_portable(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut chunks_a = a.chunks_exact(8);
    let mut chunks_b = b.chunks_exact(8);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for l in 0..8 {
            lanes[l] += ca[l] * cb[l];
        }
    }
    let mut tail = 0.0f32;
    for (&av, &bv) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        tail += av * bv;
    }
    let sum = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    sum + tail
}

/// FMA dot product with a fixed-order horizontal reduction.
///
/// # Safety
///
/// Requires AVX2+FMA; reads only within `a` and `b`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_avx(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    // SAFETY: the caller upholds this fn's `# Safety` contract (AVX2+FMA
    // present); `len = min(a.len(), b.len())` bounds every read.
    unsafe {
        let len = a.len().min(b.len());
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 16 <= len {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 8)),
                _mm256_loadu_ps(bp.add(i + 8)),
                acc1,
            );
            i += 16;
        }
        if i + 8 <= len {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
            i += 8;
        }
        let acc = _mm256_add_ps(acc0, acc1);
        let hi = _mm256_extractf128_ps::<1>(acc);
        let lo = _mm256_castps256_ps128(acc);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps::<1>(s, s));
        let mut sum = _mm_cvtss_f32(s);
        while i < len {
            sum += *ap.add(i) * *bp.add(i);
            i += 1;
        }
        sum
    }
}

/// Scalar reference `C = A·B + β·C` (tests and the force-naive path).
pub fn sgemm_naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], beta: f32) {
    scale_c(c, beta);
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av != 0.0 {
                let brow = &b[p * n..(p + 1) * n];
                let crow = &mut c[i * n..(i + 1) * n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
    }
}

/// Scalar reference for the TN layout.
pub fn sgemm_tn_naive(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    beta: f32,
) {
    scale_c(c, beta);
    for i in 0..m {
        for p in 0..k {
            let av = a[p * m + i];
            if av != 0.0 {
                let brow = &b[p * n..(p + 1) * n];
                let crow = &mut c[i * n..(i + 1) * n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
    }
}

/// Scalar reference for the NT layout.
pub fn sgemm_nt_naive(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    beta: f32,
) {
    scale_c(c, beta);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[j * k + p];
            }
            c[i * n + j] += acc;
        }
    }
}

/// Test-only cap on the kernels [`Isa::current`] picks on the calling
/// thread, so a host with AVX-512 also exercises the AVX2 and portable
/// paths. Not a runtime setting: it does not exist outside unit tests.
#[cfg(test)]
pub(crate) mod tier {
    use super::{cpu_has_avx2_fma, cpu_has_avx512f, Isa};
    use std::cell::Cell;

    /// The widest micro-kernel allowed.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) enum Tier {
        Portable,
        Avx2,
        Avx512,
    }

    thread_local! {
        static CAP: Cell<Tier> = const { Cell::new(Tier::Avx512) };
    }

    /// The tiers this CPU can run.
    pub(crate) fn available() -> Vec<Tier> {
        let mut tiers = vec![Tier::Portable];
        if cpu_has_avx2_fma() {
            tiers.push(Tier::Avx2);
        }
        if cpu_has_avx512f() {
            tiers.push(Tier::Avx512);
        }
        tiers
    }

    /// Runs `f` with the calling thread's kernels capped at `tier`.
    pub(crate) fn with<R>(tier: Tier, f: impl FnOnce() -> R) -> R {
        let prev = CAP.with(|c| c.replace(tier));
        let out = f();
        CAP.with(|c| c.set(prev));
        out
    }

    pub(super) fn cap(isa: Isa) -> Isa {
        match CAP.with(Cell::get) {
            Tier::Avx512 => isa,
            Tier::Avx2 => Isa {
                avx512: false,
                ..isa
            },
            Tier::Portable => Isa {
                avx512: false,
                avx2: false,
            },
        }
    }
}

/// The arithmetic of every blocked product on tier `tier`, one element
/// at a time, as a bit-level test reference that shares no code with the
/// driver: `C = A·B` (`A: m×k`, `B: k×n`) where each element sums one
/// chain per `KC` panel, starting from zero, into C in panel order. The
/// chain is fused multiply-adds in the SIMD column tiles (every column
/// but the last `n % 16` on an AVX2 or AVX-512 tier) and separate
/// multiplies and adds in the portable ones.
#[cfg(test)]
pub(crate) fn panel_order_reference(
    tier: tier::Tier,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
) -> Vec<f32> {
    let simd_cols = if tier == tier::Tier::Portable {
        0
    } else {
        n - n % NR
    };
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            for p0 in (0..k).step_by(KC) {
                let mut acc = 0.0f32;
                for p in p0..k.min(p0 + KC) {
                    let (av, bv) = (a[i * k + p], b[p * n + j]);
                    acc = if j < simd_cols {
                        av.mul_add(bv, acc)
                    } else {
                        acc + av * bv
                    };
                }
                c[i * n + j] += acc;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut out = vec![0.0; src.len()];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = src[r * cols + c];
            }
        }
        out
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "mismatch at {i}: {x} vs {y}"
            );
        }
    }

    /// Shapes chosen to hit every edge: micro-tile remainders in m and n,
    /// multiple KC panels, tiny and skinny matrices.
    const SHAPES: [(usize, usize, usize); 8] = [
        (1, 1, 1),
        (4, 16, 16),
        (3, 7, 5),
        (17, 300, 33),
        (64, 576, 1024),
        (5, 1, 40),
        (2, 513, 19),
        (31, 31, 31),
    ];

    #[test]
    fn sgemm_matches_naive_on_random_shapes() {
        for tier in tier::available() {
            tier::with(tier, || {
                for (si, &(m, k, n)) in SHAPES.iter().enumerate() {
                    let a = random_matrix(m * k, 100 + si as u64);
                    let b = random_matrix(k * n, 200 + si as u64);
                    let mut c_fast = random_matrix(m * n, 300 + si as u64);
                    let mut c_ref = c_fast.clone();
                    sgemm(m, k, n, &a, &b, &mut c_fast, 1.0);
                    sgemm_naive(m, k, n, &a, &b, &mut c_ref, 1.0);
                    assert_close(&c_fast, &c_ref, 1e-4);
                }
            });
        }
    }

    #[test]
    fn sgemm_tn_matches_naive_on_random_shapes() {
        for tier in tier::available() {
            tier::with(tier, || {
                for (si, &(m, k, n)) in SHAPES.iter().enumerate() {
                    let at = random_matrix(k * m, 400 + si as u64); // stored k×m
                    let b = random_matrix(k * n, 500 + si as u64);
                    let mut c_fast = vec![0.0; m * n];
                    let mut c_ref = vec![0.0; m * n];
                    sgemm_tn(m, k, n, &at, &b, &mut c_fast, 0.0);
                    sgemm_tn_naive(m, k, n, &at, &b, &mut c_ref, 0.0);
                    assert_close(&c_fast, &c_ref, 1e-4);
                    // Cross-check against NN on the materialised transpose.
                    let a = transpose(&at, k, m);
                    let mut c_nn = vec![0.0; m * n];
                    sgemm_naive(m, k, n, &a, &b, &mut c_nn, 0.0);
                    assert_close(&c_fast, &c_nn, 1e-4);
                }
            });
        }
    }

    #[test]
    fn sgemm_nt_matches_naive_on_random_shapes() {
        for tier in tier::available() {
            tier::with(tier, || {
                for (si, &(m, k, n)) in SHAPES.iter().enumerate() {
                    let a = random_matrix(m * k, 600 + si as u64);
                    let bt = random_matrix(n * k, 700 + si as u64); // stored n×k
                    let mut c_fast = vec![0.0; m * n];
                    let mut c_ref = vec![0.0; m * n];
                    sgemm_nt(m, k, n, &a, &bt, &mut c_fast, 0.0);
                    sgemm_nt_naive(m, k, n, &a, &bt, &mut c_ref, 0.0);
                    assert_close(&c_fast, &c_ref, 1e-4);
                    let b = transpose(&bt, n, k);
                    let mut c_nn = vec![0.0; m * n];
                    sgemm_naive(m, k, n, &a, &b, &mut c_nn, 0.0);
                    assert_close(&c_fast, &c_nn, 1e-4);
                }
            });
        }
    }

    #[test]
    fn beta_scales_existing_c() {
        let a = [2.0f32];
        let b = [3.0f32];
        let mut c = [10.0f32];
        sgemm(1, 1, 1, &a, &b, &mut c, 0.5);
        assert_eq!(c[0], 11.0);
        sgemm(1, 1, 1, &a, &b, &mut c, 0.0);
        assert_eq!(c[0], 6.0);
    }

    /// Equal-shaped calls on equal data must produce identical bits —
    /// the property that makes batched sampling (which runs the same
    /// per-sample GEMM shapes as the solo path) bit-identical to it.
    #[test]
    fn equal_shapes_are_bit_identical() {
        for &(m, k, n) in &[(8usize, 96usize, 48usize), (16, 432, 1024), (3, 7, 5)] {
            let a = random_matrix(m * k, 1);
            let b = random_matrix(k * n, 2);
            let mut c1 = vec![0.0; m * n];
            let mut c2 = vec![0.0; m * n];
            sgemm(m, k, n, &a, &b, &mut c1, 0.0);
            sgemm(m, k, n, &a, &b, &mut c2, 0.0);
            assert_eq!(c1, c2, "repeat call diverged at {m}x{k}x{n}");
            // Running the same rows through a fresh output buffer of the
            // same shape (what each micro-batch member sees) matches too.
            let mut c3 = vec![1.0; m * n];
            sgemm(m, k, n, &a, &b, &mut c3, 0.0);
            assert_eq!(c1, c3, "beta=0 must fully overwrite");
        }
    }

    /// `sgemm` and `sgemm_tn` reproduce the panel-order reference bit
    /// for bit on every tier, whichever layout A arrives in.
    #[test]
    fn sgemm_matches_panel_order_reference_bitwise() {
        let shapes = [(70usize, 300usize, 40usize), (13, 17, 1024), (6, 600, 75)];
        for tier in tier::available() {
            tier::with(tier, || {
                for (si, &(m, k, n)) in SHAPES.iter().chain(&shapes).enumerate() {
                    let a = random_matrix(m * k, 11 + si as u64);
                    let b = random_matrix(k * n, 12 + si as u64);
                    let want = panel_order_reference(tier, m, k, n, &a, &b);
                    let mut nn = vec![f32::NAN; m * n];
                    sgemm(m, k, n, &a, &b, &mut nn, 0.0);
                    let mut tn = vec![f32::NAN; m * n];
                    sgemm_tn(m, k, n, &transpose(&a, m, k), &b, &mut tn, 0.0);
                    for (what, got) in [("sgemm", nn), ("sgemm_tn", tn)] {
                        let same = got
                            .iter()
                            .zip(&want)
                            .all(|(x, y)| x.to_bits() == y.to_bits());
                        assert!(same, "{tier:?}: {what} {m}x{k}x{n}");
                    }
                }
            });
        }
    }

    // The force_naive switch is process-global, so its routing test
    // lives in tests/force_naive.rs: a separate test binary runs in its
    // own process and cannot race the bitwise-equality tests here.
}
