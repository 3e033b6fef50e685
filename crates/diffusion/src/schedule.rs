//! DDPM noise schedules.

use serde::{Deserialize, Serialize};

/// The β-schedule family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BetaSchedule {
    /// Linearly increasing β (Ho et al. 2020).
    Linear,
    /// Cosine ᾱ schedule (Nichol & Dhariwal 2021).
    Cosine,
}

/// Precomputed DDPM schedule: β_t, α_t and ᾱ_t for `t ∈ [0, T)`.
///
/// The forward process is
/// `q(x_t | x_0) = N(√ᾱ_t · x_0, (1 − ᾱ_t) I)` (paper Eq. 1-3).
///
/// # Example
///
/// ```
/// use pp_diffusion::{BetaSchedule, NoiseSchedule};
///
/// let s = NoiseSchedule::new(100, BetaSchedule::Linear);
/// assert_eq!(s.len(), 100);
/// // ᾱ decays towards 0: late steps are nearly pure noise.
/// assert!(s.alpha_bar(99) < 0.05);
/// assert!(s.alpha_bar(0) > 0.9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseSchedule {
    betas: Vec<f32>,
    alpha_bars: Vec<f32>,
}

impl NoiseSchedule {
    /// Builds a schedule with `t_max` steps.
    ///
    /// # Panics
    ///
    /// Panics if `t_max == 0`.
    pub fn new(t_max: usize, kind: BetaSchedule) -> Self {
        assert!(t_max > 0, "schedule needs at least one step");
        let betas: Vec<f32> = match kind {
            BetaSchedule::Linear => {
                let (lo, hi) = (1e-4f32, 0.09f32);
                (0..t_max)
                    .map(|t| lo + (hi - lo) * t as f32 / (t_max - 1).max(1) as f32)
                    .collect()
            }
            BetaSchedule::Cosine => {
                let f = |t: f32| {
                    let s = 0.008f32;
                    ((t / t_max as f32 + s) / (1.0 + s) * std::f32::consts::FRAC_PI_2)
                        .cos()
                        .powi(2)
                };
                (0..t_max)
                    .map(|t| {
                        let b = 1.0 - f(t as f32 + 1.0) / f(t as f32);
                        b.clamp(1e-5, 0.999)
                    })
                    .collect()
            }
        };
        let mut alpha_bars = Vec::with_capacity(t_max);
        let mut acc = 1.0f32;
        for &b in &betas {
            acc *= 1.0 - b;
            alpha_bars.push(acc);
        }
        NoiseSchedule { betas, alpha_bars }
    }

    /// Number of diffusion steps `T`.
    pub fn len(&self) -> usize {
        self.betas.len()
    }

    /// Whether the schedule is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.betas.is_empty()
    }

    /// β_t.
    pub fn beta(&self, t: usize) -> f32 {
        self.betas[t]
    }

    /// ᾱ_t (cumulative product of 1-β).
    pub fn alpha_bar(&self, t: usize) -> f32 {
        self.alpha_bars[t]
    }

    /// Draws `x_t` from `q(x_t | x_0)` given pre-sampled standard noise.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths differ.
    pub fn q_sample(&self, x0: &[f32], t: usize, noise: &[f32]) -> Vec<f32> {
        assert_eq!(x0.len(), noise.len(), "buffer length mismatch");
        let ab = self.alpha_bar(t);
        let (sa, sn) = (ab.sqrt(), (1.0 - ab).sqrt());
        x0.iter()
            .zip(noise)
            .map(|(&x, &e)| sa * x + sn * e)
            .collect()
    }

    /// One deterministic DDIM update: given `x_t`, the model's `x̂0` and
    /// a target step `s < t`, overwrites `x_t` with `x_s` — each element
    /// depends only on its own position, so the sampling loop needs no
    /// second state buffer.
    ///
    /// Uses `ε̂ = (x_t − √ᾱ_t·x̂0) / √(1−ᾱ_t)` and
    /// `x_s = √ᾱ_s·x̂0 + √(1−ᾱ_s)·ε̂`. Passing `s = usize::MAX` (no
    /// further step) writes `x̂0` directly.
    pub fn ddim_step_in_place(&self, x_t: &mut [f32], x0_hat: &[f32], t: usize, s: usize) {
        if s == usize::MAX {
            x_t.copy_from_slice(x0_hat);
            return;
        }
        let ab_t = self.alpha_bar(t);
        let ab_s = self.alpha_bar(s);
        let (sa_t, sn_t) = (ab_t.sqrt(), (1.0 - ab_t).sqrt());
        let (sa_s, sn_s) = (ab_s.sqrt(), (1.0 - ab_s).sqrt());
        for (xt, &x0) in x_t.iter_mut().zip(x0_hat) {
            let eps = (*xt - sa_t * x0) / sn_t.max(1e-6);
            *xt = sa_s * x0 + sn_s * eps;
        }
    }

    /// The decreasing sequence of timesteps for `n`-step DDIM sampling.
    pub fn ddim_timesteps(&self, n: usize) -> Vec<usize> {
        let t_max = self.len();
        let n = n.clamp(1, t_max);
        let mut ts: Vec<usize> = (0..n)
            .map(|i| (t_max - 1) - i * (t_max - 1) / n.max(1))
            .collect();
        ts.dedup();
        ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alpha_bar_monotone_decreasing() {
        for kind in [BetaSchedule::Linear, BetaSchedule::Cosine] {
            let s = NoiseSchedule::new(50, kind);
            for t in 1..50 {
                assert!(s.alpha_bar(t) < s.alpha_bar(t - 1), "{kind:?} at {t}");
            }
        }
    }

    #[test]
    fn q_sample_at_t0_is_mostly_signal() {
        let s = NoiseSchedule::new(100, BetaSchedule::Linear);
        let x0 = vec![1.0f32; 4];
        let noise = vec![0.5f32; 4];
        let xt = s.q_sample(&x0, 0, &noise);
        assert!(xt.iter().all(|&v| v > 0.9));
    }

    #[test]
    fn ddim_step_recovers_x0_at_end() {
        let s = NoiseSchedule::new(100, BetaSchedule::Linear);
        let x0 = vec![0.7f32, -0.3];
        let mut x = s.q_sample(&x0, 99, &[0.1, -0.2]);
        s.ddim_step_in_place(&mut x, &x0, 99, usize::MAX);
        assert_eq!(x, x0);
    }

    #[test]
    fn ddim_with_perfect_model_reconstructs() {
        // If the model always predicts the true x0, chaining DDIM steps
        // lands exactly on x0 at the end (deterministic sampler).
        let s = NoiseSchedule::new(50, BetaSchedule::Cosine);
        let x0 = vec![0.9f32, -0.9, 0.3];
        let noise = vec![0.3f32, 1.2, -0.5];
        let ts = s.ddim_timesteps(10);
        let mut x = s.q_sample(&x0, ts[0], &noise);
        for w in ts.windows(2) {
            s.ddim_step_in_place(&mut x, &x0, w[0], w[1]);
        }
        s.ddim_step_in_place(&mut x, &x0, *ts.last().unwrap(), usize::MAX);
        for (a, b) in x.iter().zip(&x0) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn timesteps_are_strictly_decreasing() {
        let s = NoiseSchedule::new(100, BetaSchedule::Linear);
        for n in [1, 5, 10, 100] {
            let ts = s.ddim_timesteps(n);
            assert_eq!(ts[0], 99);
            assert!(ts.windows(2).all(|w| w[0] > w[1]), "n={n}: {ts:?}");
        }
    }

    proptest! {
        /// ᾱ stays in (0, 1) for any schedule length.
        #[test]
        fn prop_alpha_bar_bounds(t_max in 1usize..200) {
            let s = NoiseSchedule::new(t_max, BetaSchedule::Linear);
            for t in 0..t_max {
                let ab = s.alpha_bar(t);
                prop_assert!(ab > 0.0 && ab < 1.0);
            }
        }
    }
}
