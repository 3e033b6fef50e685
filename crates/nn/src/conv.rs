//! 2-D convolution (stride 1, "same" padding) as an implicit GEMM.

use crate::gemm::{
    gemm_blocked, pack_a, packed_a_len, sgemm_naive, sgemm_nt, sgemm_tn, ALayout, APanels,
};
use crate::param::Param;
use crate::tensor::Tensor;
use crate::workspace::Workspace;
use crate::Layer;

/// A stride-1 convolution with odd kernel size and same padding.
///
/// Weight layout is `[out_c][in_c][ky][kx]`; bias is per output channel.
/// Forward multiplies the weight matrix with each sample's im2col matrix
/// without building it: the [`crate::gemm`] driver reads every im2col
/// row straight out of `k` horizontally shifted, zero-padded copies of
/// each input plane, with the same per-element arithmetic (and so the
/// same bits) as `sgemm` on the materialised matrix. Backward builds the
/// col matrix (recompute-over-store) and produces both parameter and
/// input gradients through the transposed GEMM variants. Scratch
/// persists across calls (training) or comes from a caller [`Workspace`]
/// (inference), so steady-state passes perform no scratch allocation.
///
/// # Example
///
/// ```
/// use pp_nn::{Conv2d, Layer, Tensor};
///
/// let mut conv = Conv2d::new(1, 4, 3, 0);
/// let y = conv.forward(Tensor::zeros([2, 1, 8, 8]));
/// assert_eq!(y.shape(), [2, 4, 8, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_c: usize,
    out_c: usize,
    k: usize,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
    scratch: Workspace,
    /// Offsets of each im2col row into the shifted planes of an input of
    /// spatial size `rows_hw` (see [`Conv2d::shifted_rows`]).
    rows: Vec<usize>,
    rows_hw: (usize, usize),
}

impl Conv2d {
    /// Creates a convolution with Kaiming-initialised weights.
    ///
    /// # Panics
    ///
    /// Panics if `k` is even (same padding needs odd kernels).
    pub fn new(in_c: usize, out_c: usize, k: usize, seed: u64) -> Self {
        assert!(k % 2 == 1, "kernel size must be odd");
        let fan_in = in_c * k * k;
        Conv2d {
            in_c,
            out_c,
            k,
            weight: Param::kaiming(out_c * fan_in, fan_in, seed),
            bias: Param::zeros(out_c),
            cached_input: None,
            scratch: Workspace::new(),
            rows: Vec::new(),
            rows_hw: (0, 0),
        }
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// Builds the im2col matrix `[in_c·k·k, h·w]` for one sample.
    ///
    /// Each (channel, tap, row) strip is one contiguous copy of
    /// `w − |shift|` pixels plus zeroed edges, instead of a per-pixel
    /// branch; the per-pixel reference below is kept for the
    /// [`crate::gemm::set_force_naive`] baseline and the tests.
    fn im2col(&self, x: &Tensor, n: usize, col: &mut [f32]) {
        if crate::gemm::force_naive() {
            return self.im2col_reference(x, n, col);
        }
        let (h, w) = (x.h(), x.w());
        let k = self.k;
        let pad = k / 2;
        let hw = h * w;
        for ic in 0..self.in_c {
            let plane = x.plane(n, ic);
            for ky in 0..k {
                for kx in 0..k {
                    let row = ((ic * k + ky) * k + kx) * hw;
                    // Source x = out x + shift; valid out x range is
                    // [d0, d0 + len) copied from source offset s0.
                    let shift = kx as isize - pad as isize;
                    let d0 = shift.unsigned_abs().min(w) * usize::from(shift < 0);
                    let s0 = (shift.max(0) as usize).min(w);
                    let len = w - shift.unsigned_abs().min(w);
                    for oy in 0..h {
                        let iy = oy + ky;
                        let dst = &mut col[row + oy * w..row + (oy + 1) * w];
                        if iy < pad || iy >= h + pad {
                            dst.fill(0.0);
                            continue;
                        }
                        let sy = iy - pad;
                        dst[..d0].fill(0.0);
                        dst[d0 + len..].fill(0.0);
                        dst[d0..d0 + len].copy_from_slice(&plane[sy * w + s0..sy * w + s0 + len]);
                    }
                }
            }
        }
    }

    /// Per-pixel reference im2col (the pre-rework implementation).
    fn im2col_reference(&self, x: &Tensor, n: usize, col: &mut [f32]) {
        let (h, w) = (x.h(), x.w());
        let k = self.k;
        let pad = k / 2;
        let hw = h * w;
        for ic in 0..self.in_c {
            let plane = x.plane(n, ic);
            for ky in 0..k {
                for kx in 0..k {
                    let row = ((ic * k + ky) * k + kx) * hw;
                    for oy in 0..h {
                        let iy = oy + ky;
                        let out_row = row + oy * w;
                        if iy < pad || iy >= h + pad {
                            col[out_row..out_row + w].fill(0.0);
                            continue;
                        }
                        let sy = iy - pad;
                        for ox in 0..w {
                            let ix = ox + kx;
                            col[out_row + ox] = if ix < pad || ix >= w + pad {
                                0.0
                            } else {
                                plane[sy * w + (ix - pad)]
                            };
                        }
                    }
                }
            }
        }
    }

    /// Scatter-adds a col-gradient back to an input-gradient plane set.
    fn col2im(&self, colg: &[f32], gx: &mut Tensor, n: usize) {
        let (h, w) = (gx.h(), gx.w());
        let k = self.k;
        let pad = k / 2;
        let hw = h * w;
        for ic in 0..self.in_c {
            let plane = gx.plane_mut(n, ic);
            for ky in 0..k {
                for kx in 0..k {
                    let row = ((ic * k + ky) * k + kx) * hw;
                    for oy in 0..h {
                        let iy = oy + ky;
                        if iy < pad || iy >= h + pad {
                            continue;
                        }
                        let sy = iy - pad;
                        for ox in 0..w {
                            let ix = ox + kx;
                            if ix >= pad && ix < w + pad {
                                plane[sy * w + (ix - pad)] += colg[row + oy * w + ox];
                            }
                        }
                    }
                }
            }
        }
    }

    /// Whether the sample's input planes can feed the GEMM directly: a
    /// 1×1 same-padding conv's im2col matrix *is* the input.
    fn direct_input(&self) -> bool {
        self.k == 1 && !crate::gemm::force_naive()
    }

    /// Writes one sample's shifted planes: for each input channel `ic`
    /// and kernel column `kx`, the `(h + k − 1) × w` plane
    /// `S[ic][kx][r][x] = x[ic][r − pad][x + kx − pad]`, zero outside
    /// the input. im2col row `(ic, ky, kx)` is then the `h·w` contiguous
    /// elements of `S[ic][kx]` from row `ky` on.
    fn shifted_planes(&self, x: &Tensor, n: usize, s: &mut [f32]) {
        let (h, w) = (x.h(), x.w());
        let k = self.k;
        let pad = k / 2;
        let plane_len = (h + k - 1) * w;
        for ic in 0..self.in_c {
            let src = x.plane(n, ic);
            for kx in 0..k {
                let dst = &mut s[(ic * k + kx) * plane_len..][..plane_len];
                dst[..pad * w].fill(0.0);
                dst[(pad + h) * w..].fill(0.0);
                let shift = kx as isize - pad as isize;
                let d0 = shift.unsigned_abs().min(w) * usize::from(shift < 0);
                let s0 = (shift.max(0) as usize).min(w);
                let len = w - shift.unsigned_abs().min(w);
                for y in 0..h {
                    let row = &mut dst[(pad + y) * w..(pad + y + 1) * w];
                    row[..d0].fill(0.0);
                    row[d0 + len..].fill(0.0);
                    row[d0..d0 + len].copy_from_slice(&src[y * w + s0..y * w + s0 + len]);
                }
            }
        }
    }

    /// Points `self.rows` at the shifted planes of an `h×w` input (for a
    /// 1×1 conv, the input planes): entry `p = (ic, ky, kx)` is the
    /// offset of im2col row `p`. Rebuilt only when the input size
    /// changes.
    fn shifted_rows(&mut self, h: usize, w: usize) {
        let k = self.k;
        if self.rows_hw != (h, w) {
            let plane_len = (h + k - 1) * w;
            self.rows = (0..self.in_c * k * k)
                .map(|p| {
                    let (ic, ky, kx) = (p / (k * k), p / k % k, p % k);
                    (ic * k + kx) * plane_len + ky * w
                })
                .collect();
            self.rows_hw = (h, w);
        }
    }

    /// The shared forward body: `out[b] = W · col(x[b]) + bias` per
    /// sample, with scratch and the output buffer drawn from `ws`.
    ///
    /// The weights are packed once per call. Each sample's im2col matrix
    /// is never built: the GEMM reads its rows straight out of the
    /// sample's shifted planes (about `1/k` of im2col's bytes), or, for
    /// a 1×1 conv, out of the input itself. The per-element arithmetic
    /// is that of `sgemm` on the im2col matrix, so the output bits are
    /// too. Under [`crate::gemm::set_force_naive`] the per-pixel im2col
    /// and the scalar GEMM run instead.
    fn run_forward(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(x.c(), self.in_c, "input channel mismatch");
        let (n, h, w) = (x.n(), x.h(), x.w());
        let hw = h * w;
        let k = self.k;
        let ick = self.in_c * k * k;
        let per_sample = self.out_c * hw;
        // Take the scratch first: in the training path (layer-owned
        // pool) it is the buffers `give`n back last call, so they get
        // reused while the returned output draws a fresh allocation.
        if crate::gemm::force_naive() {
            let mut col = ws.take(ick * hw);
            let mut out = Tensor::from_vec([n, self.out_c, h, w], ws.take(n * per_sample));
            for (b, c) in out.data_mut().chunks_exact_mut(per_sample).enumerate() {
                self.im2col_reference(x, b, &mut col);
                sgemm_naive(self.out_c, ick, hw, &self.weight.value, &col, c, 0.0);
            }
            ws.give(col);
            return self.add_bias(out);
        }
        let mut packed = ws.take(packed_a_len(self.out_c, ick));
        pack_a(
            self.out_c,
            ick,
            &self.weight.value,
            ALayout::Normal,
            &mut packed,
        );
        self.shifted_rows(h, w);
        let mut planes = if k == 1 {
            Vec::new()
        } else {
            ws.take(self.in_c * k * (h + k - 1) * w)
        };
        let mut out = Tensor::from_vec([n, self.out_c, h, w], ws.take(n * per_sample));
        for (b, c) in out.data_mut().chunks_exact_mut(per_sample).enumerate() {
            c.fill(0.0);
            // A 1×1 conv's shifted plane is the input plane itself.
            let b_rows = if k == 1 {
                &x.data()[b * ick * hw..(b + 1) * ick * hw]
            } else {
                self.shifted_planes(x, b, &mut planes);
                &planes
            };
            gemm_blocked(
                self.out_c,
                ick,
                hw,
                APanels::Packed(&packed),
                b_rows,
                self.rows.as_slice(),
                c,
            );
        }
        ws.give(planes);
        ws.give(packed);
        self.add_bias(out)
    }

    /// Adds each output channel's bias to its planes.
    fn add_bias(&self, mut out: Tensor) -> Tensor {
        let hw = out.h() * out.w();
        for c in out.data_mut().chunks_exact_mut(self.out_c * hw) {
            for (oc, &bias) in self.bias.value.iter().enumerate() {
                if bias != 0.0 {
                    for v in &mut c[oc * hw..(oc + 1) * hw] {
                        *v += bias;
                    }
                }
            }
        }
        out
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: Tensor) -> Tensor {
        let mut ws = std::mem::take(&mut self.scratch);
        let out = self.run_forward(&x, &mut ws);
        self.scratch = ws;
        self.cached_input = Some(x);
        out
    }

    fn forward_infer(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        self.run_forward(x, ws)
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let x = self
            .cached_input
            .take()
            .expect("backward called without forward");
        let (n, h, w) = (x.n(), x.h(), x.w());
        let hw = h * w;
        let ick = self.in_c * self.k * self.k;
        let mut ws = std::mem::take(&mut self.scratch);
        let mut gx = Tensor::zeros(x.shape());
        let direct = self.direct_input();
        let mut col = if direct {
            Vec::new()
        } else {
            ws.take(ick * hw)
        };
        let mut colg = if direct {
            Vec::new()
        } else {
            ws.take(ick * hw)
        };
        for b in 0..n {
            let go = &grad.data()[b * self.out_c * hw..(b + 1) * self.out_c * hw];
            // Bias gradient: per-channel sums of the output gradient.
            for oc in 0..self.out_c {
                self.bias.grad[oc] += go[oc * hw..(oc + 1) * hw].iter().sum::<f32>();
            }
            if direct {
                // 1×1: the col matrix is the input and col2im is the
                // identity, so both GEMMs run on the tensors in place.
                let xb = &x.data()[b * ick * hw..(b + 1) * ick * hw];
                sgemm_nt(self.out_c, hw, ick, go, xb, &mut self.weight.grad, 1.0);
                let gxb = &mut gx.data_mut()[b * ick * hw..(b + 1) * ick * hw];
                sgemm_tn(ick, self.out_c, hw, &self.weight.value, go, gxb, 0.0);
            } else {
                self.im2col(&x, b, &mut col);
                // Weight gradient: Wg += gradOut · colᵀ.
                sgemm_nt(self.out_c, hw, ick, go, &col, &mut self.weight.grad, 1.0);
                // Input gradient via colᵍ = Wᵀ · gradOut, scattered back.
                sgemm_tn(ick, self.out_c, hw, &self.weight.value, go, &mut colg, 0.0);
                self.col2im(&colg, &mut gx, b);
            }
        }
        ws.give(col);
        ws.give(colg);
        self.scratch = ws;
        gx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::panel_order_reference;
    use crate::gemm::tier::{self, Tier};
    use crate::gradcheck::check_layer;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tensor(shape: [usize; 4], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..shape.iter().product())
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        Tensor::from_vec(shape, data)
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let mut conv = Conv2d::new(1, 1, 3, 0);
        conv.weight.value.fill(0.0);
        conv.weight.value[4] = 1.0; // centre tap
        conv.bias.value[0] = 0.0;
        let x = random_tensor([1, 1, 5, 5], 1);
        let y = conv.forward(x.clone());
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn bias_offsets_output() {
        let mut conv = Conv2d::new(1, 2, 1, 0);
        conv.weight.value.fill(0.0);
        conv.bias.value = vec![1.5, -2.0];
        let y = conv.forward(Tensor::zeros([1, 1, 2, 2]));
        assert!(y.plane(0, 0).iter().all(|&v| v == 1.5));
        assert!(y.plane(0, 1).iter().all(|&v| v == -2.0));
    }

    #[test]
    fn padding_zeroes_outside() {
        // All-ones 3x3 kernel over all-ones image: corners see 4 taps.
        let mut conv = Conv2d::new(1, 1, 3, 0);
        conv.weight.value.fill(1.0);
        let x = Tensor::from_vec([1, 1, 3, 3], vec![1.0; 9]);
        let y = conv.forward(x);
        assert_eq!(y.get(0, 0, 0, 0), 4.0);
        assert_eq!(y.get(0, 0, 1, 1), 9.0);
        assert_eq!(y.get(0, 0, 0, 1), 6.0);
    }

    #[test]
    fn gradcheck_3x3() {
        let mut conv = Conv2d::new(2, 3, 3, 7);
        check_layer(&mut conv, random_tensor([2, 2, 4, 4], 3), 2e-2);
    }

    #[test]
    fn gradcheck_1x1() {
        let mut conv = Conv2d::new(3, 2, 1, 9);
        check_layer(&mut conv, random_tensor([1, 3, 3, 3], 5), 2e-2);
    }

    #[test]
    fn infer_matches_forward_bitwise() {
        let mut conv = Conv2d::new(3, 5, 3, 13);
        let x = random_tensor([2, 3, 6, 6], 21);
        let y_train = conv.forward(x.clone());
        let mut ws = Workspace::new();
        let y_infer = conv.forward_infer(&x, &mut ws);
        assert_eq!(y_train.data(), y_infer.data());
        // Second call reuses pooled buffers and still matches.
        ws.give(y_infer.into_vec());
        let y_again = conv.forward_infer(&x, &mut ws);
        assert_eq!(y_train.data(), y_again.data());
    }

    /// Each sample in a batch must compute exactly what it computes
    /// alone — the invariant batched DDIM sampling relies on.
    #[test]
    fn batch_rows_match_solo_bitwise() {
        let mut conv = Conv2d::new(2, 4, 3, 17);
        let xb = random_tensor([3, 2, 5, 5], 31);
        let yb = conv.forward(xb.clone());
        for b in 0..3 {
            let mut xs = Tensor::zeros([1, 2, 5, 5]);
            for c in 0..2 {
                xs.plane_mut(0, c).copy_from_slice(xb.plane(b, c));
            }
            let ys = conv.forward(xs);
            for c in 0..4 {
                assert_eq!(ys.plane(0, c), yb.plane(b, c), "sample {b} channel {c}");
            }
        }
    }

    #[test]
    fn im2col_fast_matches_reference() {
        for &(ic, k, h, w) in &[
            (2usize, 3usize, 5usize, 5usize),
            (1, 1, 4, 6),
            (3, 5, 4, 4),
            (2, 3, 6, 3),
        ] {
            let conv = Conv2d::new(ic, 2, k, 3);
            let x = random_tensor([2, ic, h, w], (ic + k + h + w) as u64);
            let len = ic * k * k * h * w;
            let mut fast = vec![7.0f32; len];
            let mut reference = vec![-7.0f32; len];
            for b in 0..2 {
                conv.im2col(&x, b, &mut fast);
                conv.im2col_reference(&x, b, &mut reference);
                assert_eq!(fast, reference, "ic={ic} k={k} {h}x{w} sample {b}");
            }
        }
    }

    /// The im2col + `sgemm` composition the implicit forward replaced,
    /// with the product spelled out by [`panel_order_reference`] so the
    /// reference shares no GEMM code with the forward.
    fn im2col_reference_forward(tier: Tier, conv: &Conv2d, x: &Tensor) -> Tensor {
        let hw = x.h() * x.w();
        let ick = conv.in_c * conv.k * conv.k;
        let mut col = vec![0.0; ick * hw];
        let mut out = Tensor::zeros([x.n(), conv.out_c, x.h(), x.w()]);
        for (b, c) in out.data_mut().chunks_exact_mut(conv.out_c * hw).enumerate() {
            conv.im2col_reference(x, b, &mut col);
            let y = panel_order_reference(tier, conv.out_c, ick, hw, &conv.weight.value, &col);
            c.copy_from_slice(&y);
        }
        conv.add_bias(out)
    }

    /// The implicit-GEMM forward must reproduce im2col + GEMM bit for bit
    /// on every ISA tier this CPU has: ragged widths (hw < 16),
    /// hw % 32 == 16 and full 32-column tiles, every kernel size, row
    /// counts on and off the 6-row micro-tile, several k-panels
    /// (in_c·k² > 256) and batches.
    #[test]
    fn implicit_forward_matches_im2col_reference_bitwise() {
        let sides = [(2usize, 2usize), (4, 4), (4, 6), (8, 8), (32, 32)];
        let outs = [1usize, 5, 6, 7, 16, 64];
        let batches = [1usize, 3, 16];
        for tier in tier::available() {
            tier::with(tier, || {
                let mut case = 0u64;
                for &(h, w) in &sides {
                    for k in [1usize, 3, 5] {
                        for &out_c in &outs {
                            case += 1;
                            // Alternate one k-panel with several.
                            let in_c = if case.is_multiple_of(2) {
                                3
                            } else {
                                257 / (k * k) + 1
                            };
                            let batch = batches[case as usize % 3];
                            let mut conv = Conv2d::new(in_c, out_c, k, case);
                            let mut rng = StdRng::seed_from_u64(case);
                            for v in &mut conv.bias.value {
                                *v = rng.gen_range(-1.0f32..1.0);
                            }
                            let x = random_tensor([batch, in_c, h, w], case + 1000);
                            let want = im2col_reference_forward(tier, &conv, &x);
                            // Scratch arrives dirty from the pool: every
                            // element the forward reads it must write.
                            let mut ws = Workspace::new();
                            let ick = in_c * k * k;
                            let dirty =
                                ick * (h + k) * w + batch * out_c * h * w + (out_c + 6) * ick;
                            for _ in 0..3 {
                                ws.give(vec![f32::NAN; dirty]);
                            }
                            let got = conv.forward_infer(&x, &mut ws);
                            let same = want
                                .data()
                                .iter()
                                .zip(got.data())
                                .all(|(a, b)| a.to_bits() == b.to_bits());
                            assert!(
                                same,
                                "{tier:?}: in_c={in_c} out_c={out_c} k={k} {h}x{w} batch={batch}"
                            );
                        }
                    }
                }
            });
        }
    }

    /// Pins the forward's output bits to those of the im2col + `sgemm`
    /// forward it replaced (digests recorded from that implementation):
    /// one digest for the fma tiers (AVX2 and AVX-512 agree), one for the
    /// portable kernels.
    #[test]
    fn forward_output_digest_is_pinned() {
        for tier in tier::available() {
            let digest = tier::with(tier, || {
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for &(in_c, out_c, k, side_h, side_w, batch, seed) in &[
                    (29usize, 7usize, 3usize, 8usize, 8usize, 3usize, 1u64),
                    (16, 16, 3, 32, 32, 2, 2),
                    (5, 6, 5, 4, 6, 1, 3),
                    (48, 16, 1, 16, 16, 2, 4),
                ] {
                    let mut conv = Conv2d::new(in_c, out_c, k, seed);
                    let len = batch * in_c * side_h * side_w;
                    let x = Tensor::from_vec(
                        [batch, in_c, side_h, side_w],
                        (0..len)
                            .map(|i| (i * 7919 % 1000) as f32 / 500.0 - 1.0)
                            .collect(),
                    );
                    let y = conv.forward_infer(&x, &mut Workspace::new());
                    for v in y.data() {
                        h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3);
                    }
                }
                h
            });
            let want = match tier {
                Tier::Portable => 0x171a_bcd1_d22a_91fd,
                Tier::Avx2 | Tier::Avx512 => 0x6503_bdba_158e_d190,
            };
            assert_eq!(digest, want, "{tier:?}: forward output changed");
        }
    }

    #[test]
    fn param_count() {
        let mut conv = Conv2d::new(2, 4, 3, 0);
        assert_eq!(conv.param_count(), 4 * 2 * 9 + 4);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn rejects_wrong_channels() {
        let mut conv = Conv2d::new(2, 2, 3, 0);
        let _ = conv.forward(Tensor::zeros([1, 3, 4, 4]));
    }
}
