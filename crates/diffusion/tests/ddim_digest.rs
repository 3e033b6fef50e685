//! Pinned digests of the DDIM sampling outputs.
//!
//! The in-crate bit-identity tests compare sampling entry points with
//! each other (batched == solo, slot table == solo). Those comparisons
//! cannot notice a change that moves every entry point the same way,
//! so this binary pins the outputs themselves: FNV-1a over the `f32`
//! bits of every sample, for tiny x0- and ε-parameterised models, the
//! prior sampler and a staggered slot-table script.
//!
//! Every test forces the scalar reference GEMM/activation kernels
//! ([`pp_nn::gemm::set_force_naive`]) so the digests do not depend on
//! which SIMD tier the CPU offers. The switch is process-global, which
//! is why these tests live in their own integration binary; none of
//! them ever clears it, so test order does not matter.

use pp_diffusion::{DiffusionConfig, DiffusionModel, Parameterization, SlotFeed, SlotJob};
use pp_geometry::GrayImage;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// FNV-1a over the bit patterns of every pixel, in sample order.
fn digest(samples: &[GrayImage]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in samples {
        for v in s.as_pixels() {
            h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Distinct template, mask and seed per job.
fn mixed_jobs(n: usize) -> Vec<(GrayImage, GrayImage)> {
    (0..n)
        .map(|i| {
            let mut image = GrayImage::filled(16, 16, -1.0);
            for y in 0..16 {
                image.set((i as u32 * 5) % 16, y, 1.0);
            }
            let mut mask = GrayImage::filled(16, 16, 0.0);
            for y in (i as u32 % 4)..16 {
                for x in (i as u32 % 8)..16 {
                    mask.set(x, y, 1.0);
                }
            }
            (image, mask)
        })
        .collect()
}

fn tiny(parameterization: Parameterization) -> Arc<DiffusionModel> {
    pp_nn::gemm::set_force_naive(true);
    let mut cfg = DiffusionConfig::tiny(16);
    cfg.parameterization = parameterization;
    Arc::new(DiffusionModel::new(cfg, 31))
}

/// Every (threads, micro-batch) layout must reproduce the same pinned
/// outputs.
fn assert_batch_digest(model: &DiffusionModel, want: u64) {
    let jobs = mixed_jobs(7);
    for (threads, batch_size) in [(1usize, 0usize), (2, 2), (2, 3)] {
        let out = model
            .sample_inpaint_batch_sized(&jobs, 0x5eed, threads, batch_size)
            .unwrap();
        assert_eq!(out.len(), jobs.len());
        assert_eq!(
            digest(&out),
            want,
            "threads={threads} batch_size={batch_size}: DDIM output changed"
        );
    }
}

#[test]
fn x0_batch_outputs_are_pinned() {
    assert_batch_digest(&tiny(Parameterization::X0), 0x3d29_ebc4_bda6_a5bc);
}

#[test]
fn epsilon_batch_outputs_are_pinned() {
    assert_batch_digest(&tiny(Parameterization::Epsilon), 0x453e_8da8_d756_8f0d);
}

#[test]
fn prior_samples_are_pinned() {
    let prior = tiny(Parameterization::X0).sample_prior(5, 17);
    assert_eq!(prior.len(), 5);
    assert_eq!(
        digest(&prior),
        0x968e_ecba_0cb9_734b,
        "prior sampler output changed"
    );
}

/// Admits one scripted group per refill call (empty groups skew the
/// step cursors of the slots already in flight).
struct ScriptFeed {
    jobs: Arc<Vec<(GrayImage, GrayImage)>>,
    script: VecDeque<Vec<usize>>,
    done: BTreeMap<u64, GrayImage>,
}

impl SlotFeed for ScriptFeed {
    fn refill(&mut self, _active: usize) -> Vec<SlotJob> {
        self.script
            .pop_front()
            .unwrap_or_default()
            .into_iter()
            .map(|index| SlotJob {
                tag: index as u64,
                jobs: Arc::clone(&self.jobs),
                index,
                seed: 0xd1 ^ index as u64,
            })
            .collect()
    }

    fn complete(&mut self, tag: u64, sample: GrayImage) {
        self.done.insert(tag, sample);
    }
}

#[test]
fn staggered_slot_table_outputs_are_pinned() {
    let model = tiny(Parameterization::Epsilon);
    let mut feed = ScriptFeed {
        jobs: Arc::new(mixed_jobs(6)),
        script: VecDeque::from(vec![
            vec![0, 1],
            vec![],
            vec![2],
            vec![3],
            vec![],
            vec![4, 5],
        ]),
        done: BTreeMap::new(),
    };
    model.worker().run_slots(&mut feed).unwrap();
    let out: Vec<GrayImage> = feed.done.into_values().collect();
    assert_eq!(out.len(), 6);
    assert_eq!(
        digest(&out),
        0x8fde_c4e5_9e1f_cd2f,
        "slot-table output changed"
    );
}
