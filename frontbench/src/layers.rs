//! Per-layer measurements taken from outside the program: each one
//! times calls into a layer's public functions on the shapes the
//! workloads use, or reads a layer's public statistics.

use crate::stats::{median, Sheet};
use patternpaint_core::Engine;
use pp_diffusion::{SlotFeed, SlotJob, UNet, UNetConfig};
use pp_geometry::{GrayImage, Layout};
use pp_inpaint::{Mask, MaskSet};
use pp_nn::{gemm, Conv2d, Layer, Tensor, Workspace};
use pp_selection::PcaSelector;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median seconds per call of `f`, over at least `min_reps` calls and
/// at least `budget` of wall time, after one untimed warm-up call.
pub fn per_call(budget: Duration, min_reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed() < budget {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

fn filled(shape: [usize; 4]) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec(
        shape,
        (0..n).map(|i| ((i % 17) as f32 - 8.0) / 8.0).collect(),
    )
}

/// One U-Net block's convolutions at their spatial size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvBlock {
    /// The block's field name in the U-Net.
    pub name: &'static str,
    /// Spatial side of its feature maps.
    pub side: usize,
    /// `(in channels, out channels, kernel)` of each convolution.
    pub convs: Vec<(usize, usize, usize)>,
}

/// The convolutions of each block of the standard U-Net (base width
/// `c`, 32×32 clips), residual blocks' 1×1 skip included.
pub fn unet_convs(c: usize) -> Vec<ConvBlock> {
    let rb = |cin: usize, cout: usize| {
        let mut v = vec![(cin, cout, 3), (cout, cout, 3)];
        if cin != cout {
            v.push((cin, cout, 1));
        }
        v
    };
    let block = |name, side, convs| ConvBlock { name, side, convs };
    vec![
        block("conv_in", 32, vec![(3, c, 3)]),
        block("rb1", 32, rb(c, c)),
        block("rb2", 16, rb(c, 2 * c)),
        block("rb3", 8, rb(2 * c, 4 * c)),
        block("mid", 8, rb(4 * c, 4 * c)),
        block("rb4", 16, rb(6 * c, 2 * c)),
        block("rb5", 32, rb(3 * c, c)),
        block("conv_out", 32, vec![(c, 1, 3)]),
    ]
}

/// `pp-nn`: the GEMM kernel's rate on a large square shape and each
/// U-Net block's convolution rate at batch 1 and 16.
pub fn nn(sheet: &mut Sheet) {
    let n = 256;
    let a = vec![0.5f32; n * n];
    let b = vec![0.25f32; n * n];
    let mut c = vec![0f32; n * n];
    let secs = per_call(Duration::from_millis(250), 5, || {
        gemm::sgemm(n, n, n, black_box(&a), black_box(&b), &mut c, 0.0);
        black_box(&c);
    });
    sheet.set(
        "nn.sgemm_peak_gflops",
        2.0 * (n * n * n) as f64 / secs / 1e9,
        "GFLOP/s",
    );
    for ConvBlock { name, side, convs } in unet_convs(16) {
        for batch in [1, 16] {
            let mut layers: Vec<(Conv2d, Tensor)> = convs
                .iter()
                .enumerate()
                .map(|(i, &(cin, cout, k))| {
                    (
                        Conv2d::new(cin, cout, k, i as u64),
                        filled([batch, cin, side, side]),
                    )
                })
                .collect();
            let flops: f64 = convs
                .iter()
                .map(|&(cin, cout, k)| 2.0 * (batch * side * side * cout * cin * k * k) as f64)
                .sum();
            let mut ws = Workspace::new();
            let secs = per_call(Duration::from_millis(60), 3, || {
                for (conv, x) in &mut layers {
                    let y = conv.forward_infer(black_box(x), &mut ws);
                    ws.give(black_box(y).into_vec());
                }
            });
            sheet.set(
                format!("nn.conv.{name}.b{batch}.gflops"),
                flops / secs / 1e9,
                "GFLOP/s",
            );
        }
    }
}

/// Times a slot table step by step: admits its jobs at once, never
/// refills, and records the gap between successive packed passes.
struct StepFeed {
    pending: Vec<SlotJob>,
    last: Option<Instant>,
    steps: Vec<f64>,
    done: usize,
}

impl SlotFeed for StepFeed {
    fn refill(&mut self, _active: usize) -> Vec<SlotJob> {
        std::mem::take(&mut self.pending)
    }

    fn complete(&mut self, _tag: u64, sample: GrayImage) {
        black_box(sample);
        self.done += 1;
    }

    fn on_step(&mut self, _active: usize) {
        let now = Instant::now();
        if let Some(t) = self.last.replace(now) {
            self.steps.push((now - t).as_secs_f64());
        }
    }
}

/// `pp-diffusion`: U-Net forward time per batch width, and one slot-table
/// DDIM step (forward plus per-slot composite and update) per width.
pub fn diffusion(sheet: &mut Sheet, engine: &Engine) {
    let cfg = engine.model().config();
    let mut unet = UNet::new(UNetConfig::standard(cfg.image), cfg.t_max, 1);
    let mut forward_ms = std::collections::HashMap::new();
    for b in [1usize, 4, 8, 16] {
        let side = cfg.image as usize;
        let x = filled([b, 3, side, side]);
        let ts: Vec<usize> = (0..b).map(|i| (i * 7) % cfg.t_max).collect();
        let secs = per_call(Duration::from_millis(200), 3, || {
            let y = unet.forward_infer(black_box(&x), &ts);
            unet.recycle(black_box(y));
        });
        forward_ms.insert(b, secs * 1e3);
        sheet.set(format!("diffusion.unet_forward_ms.b{b}"), secs * 1e3, "ms");
    }

    let model = Arc::new(engine.model().clone());
    let mut worker = model.worker();
    // The initial round's inputs: every starter under every predefined
    // mask.
    let masks: Vec<Mask> = MaskSet::ALL
        .iter()
        .flat_map(|s| s.masks(cfg.image))
        .collect();
    let jobs: Arc<Vec<(GrayImage, GrayImage)>> = Arc::new(
        engine
            .starters()
            .iter()
            .flat_map(|l| {
                masks
                    .iter()
                    .map(|m| (GrayImage::from_layout(l), m.as_image().clone()))
            })
            .collect(),
    );
    for width in [1usize, 8, 16] {
        let mut steps = Vec::new();
        for rep in 0..3 {
            let mut feed = StepFeed {
                pending: (0..width)
                    .map(|i| SlotJob {
                        tag: i as u64,
                        jobs: Arc::clone(&jobs),
                        index: i % jobs.len(),
                        seed: (rep * 100 + i) as u64,
                    })
                    .collect(),
                last: None,
                steps: Vec::new(),
                done: 0,
            };
            if worker.run_slots(&mut feed).is_err() || feed.done != width {
                eprintln!("[frontbench] slot-table run at width {width} did not finish");
            }
            // The last step ends when the run returns.
            if let Some(t) = feed.last {
                feed.steps.push(t.elapsed().as_secs_f64());
            }
            steps.extend(feed.steps);
        }
        let step_ms = median(&steps) * 1e3;
        sheet.set(format!("diffusion.slot_step_ms.b{width}"), step_ms, "ms");
        if width == 16 {
            sheet.set(
                "diffusion.slot_overhead_ms",
                step_ms - forward_ms.get(&16).copied().unwrap_or(0.0),
                "ms",
            );
        }
    }
}

/// `pp-selection`: one PCA selection per library, timed; reports the
/// median time, library size and time per pattern.
pub fn selection(
    sheet: &mut Sheet,
    libraries: &[&[Layout]],
    k: usize,
    explained: f64,
    density: f64,
) {
    let mut ms = Vec::new();
    let mut sizes = Vec::new();
    let mut per_pattern = Vec::new();
    for lib in libraries.iter().filter(|l| !l.is_empty()).take(8) {
        let selector = PcaSelector::new(explained, density, 0x5e1e);
        let t = Instant::now();
        black_box(selector.select(black_box(lib), k));
        let secs = t.elapsed().as_secs_f64();
        ms.push(secs * 1e3);
        sizes.push(lib.len() as f64);
        per_pattern.push(secs * 1e6 / lib.len() as f64);
    }
    sheet.set("selection.select_ms", median(&ms), "ms");
    sheet.set("selection.library_size", median(&sizes), "count");
    sheet.set(
        "selection.select_us_per_pattern",
        median(&per_pattern),
        "us",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unet_block_shapes_chain() {
        let blocks = unet_convs(16);
        let names: Vec<&str> = blocks.iter().map(|b| b.name).collect();
        assert_eq!(
            names,
            ["conv_in", "rb1", "rb2", "rb3", "mid", "rb4", "rb5", "conv_out"]
        );
        // Residual blocks with a width change carry a 1×1 skip conv.
        assert_eq!(blocks[2].convs, vec![(16, 32, 3), (32, 32, 3), (16, 32, 1)]);
        assert_eq!(blocks[4].convs.len(), 2);
    }

    #[test]
    fn per_call_runs_at_least_the_minimum() {
        let mut calls = 0;
        per_call(Duration::ZERO, 4, || calls += 1);
        assert_eq!(calls, 5);
    }
}
