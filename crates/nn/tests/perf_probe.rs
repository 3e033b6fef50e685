//! Kernel-throughput diagnostics (not part of tier-1: run with
//! `cargo test --release -p pp-nn --test perf_probe -- --ignored --nocapture`).
//!
//! Prints GF/s for `Conv2d::forward_infer` at every convolution shape of
//! the standard 32×32, base-16 U-Net, at batch 1 and 16, so kernel
//! regressions show up as numbers rather than as a mysteriously slower
//! `sampling_bench`.

use pp_nn::{Conv2d, Layer, Tensor, Workspace};
use std::hint::black_box;
use std::time::Instant;

/// `(block, in_c, out_c, k, side)` of each U-Net convolution, residual
/// blocks' 1×1 skips included.
const SHAPES: [(&str, usize, usize, usize, usize); 17] = [
    ("conv_in", 3, 16, 3, 32),
    ("rb1", 16, 16, 3, 32),
    ("rb1", 16, 16, 3, 32),
    ("rb2", 16, 32, 3, 16),
    ("rb2", 32, 32, 3, 16),
    ("rb2", 16, 32, 1, 16),
    ("rb3", 32, 64, 3, 8),
    ("rb3", 64, 64, 3, 8),
    ("rb3", 32, 64, 1, 8),
    ("mid", 64, 64, 3, 8),
    ("mid", 64, 64, 3, 8),
    ("rb4", 96, 32, 3, 16),
    ("rb4", 32, 32, 3, 16),
    ("rb4", 96, 32, 1, 16),
    ("rb5", 48, 16, 3, 32),
    ("rb5", 16, 16, 3, 32),
    ("rb5", 48, 16, 1, 32),
];

#[test]
#[ignore = "perf diagnostic, not a correctness test"]
fn probe_conv_rates() {
    for (block, in_c, out_c, k, side) in SHAPES {
        for batch in [1usize, 16] {
            let mut conv = Conv2d::new(in_c, out_c, k, 0);
            let x = Tensor::from_vec(
                [batch, in_c, side, side],
                (0..batch * in_c * side * side)
                    .map(|i| ((i % 17) as f32 - 8.0) / 8.0)
                    .collect(),
            );
            let mut ws = Workspace::new();
            let mut run = || {
                let y = conv.forward_infer(black_box(&x), &mut ws);
                ws.give(black_box(y).into_vec());
            };
            run(); // warmup
            let iters = (4000 / batch).max(20);
            let t0 = Instant::now();
            for _ in 0..iters {
                run();
            }
            let secs = t0.elapsed().as_secs_f64() / iters as f64;
            let flops = 2.0 * (batch * side * side * out_c * in_c * k * k) as f64;
            println!(
                "{block:8} {in_c:>3}->{out_c:<3} k{k} {side}x{side} b{batch:<2}: \
                 {:.2} GF/s ({:.1} us/call)",
                flops / secs / 1e9,
                secs * 1e6
            );
        }
    }
}
