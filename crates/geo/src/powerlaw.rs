//! The distance power law `P(follow | d) = β·d^α` (paper Sec. 4.1).
//!
//! The paper observes that the probability of a following relationship
//! between two users at distance `d` miles is a straight line in log–log
//! space and fits `α = −0.55`, `β = 0.0045` on their Twitter crawl (vs.
//! `α ≈ −1` on Facebook per Backstrom et al.). The same fit runs inside the
//! Gibbs-EM M-step (Sec. 4.5) to refine `(α, β)` from expected edge
//! distances.

use serde::{Deserialize, Serialize};

/// Distances below this floor are clamped before evaluating `d^α`, because
/// `α < 0` makes the density blow up at `d → 0`. The paper buckets its
/// empirical curve at 1-mile granularity, which amounts to the same floor.
pub const MIN_DISTANCE_MILES: f64 = 1.0;

/// A two-parameter power law `p(d) = β·d^α`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerLaw {
    /// Exponent; negative for decaying probabilities (paper: −0.55).
    pub alpha: f64,
    /// Scale; the probability at `d = 1` mile (paper: 0.0045).
    pub beta: f64,
}

impl PowerLaw {
    /// The fit the paper reports for Twitter following relationships.
    pub const PAPER_TWITTER: PowerLaw = PowerLaw { alpha: -0.55, beta: 0.0045 };

    /// Creates a power law; returns `None` unless both parameters are finite
    /// and `beta > 0`.
    pub fn new(alpha: f64, beta: f64) -> Option<Self> {
        if alpha.is_finite() && beta.is_finite() && beta > 0.0 {
            Some(Self { alpha, beta })
        } else {
            None
        }
    }

    /// Probability (density) at distance `d` miles, with the 1-mile floor.
    ///
    /// The result is additionally capped at 1.0 so it can be used directly as
    /// a Bernoulli parameter.
    #[inline]
    pub fn eval(&self, d: f64) -> f64 {
        let d = d.max(MIN_DISTANCE_MILES);
        (self.beta * d.powf(self.alpha)).min(1.0)
    }

    /// [`Self::eval`] from a [`Self::kernel`] value computed earlier:
    /// `min(β·k, 1)`, the same operations on the same inputs.
    #[inline]
    pub fn eval_kernel(&self, k: f64) -> f64 {
        (self.beta * k).min(1.0)
    }

    /// Log-probability at distance `d`, with the same floor.
    ///
    /// The Gibbs sampler works in log space to avoid underflow when a user
    /// has hundreds of relationships.
    #[inline]
    pub fn log_eval(&self, d: f64) -> f64 {
        let d = d.max(MIN_DISTANCE_MILES);
        (self.beta.ln() + self.alpha * d.ln()).min(0.0)
    }

    /// The unnormalised `d^α` kernel used inside the sampling equations
    /// (Eqs. 7–8 drop β because it cancels in the normalisation).
    #[inline]
    pub fn kernel(&self, d: f64) -> f64 {
        d.max(MIN_DISTANCE_MILES).powf(self.alpha)
    }
}

impl Default for PowerLaw {
    fn default() -> Self {
        Self::PAPER_TWITTER
    }
}

/// Fits `p = β·d^α` to `(d, p)` observations by least squares in log–log
/// space, the standard "straight line on a log–log plot" procedure the paper
/// uses for Fig. 3(a).
///
/// Points with non-positive `d` or `p` carry no information in log space and
/// are skipped. Returns `None` when fewer than two usable points remain or
/// the distances are all identical (the slope is then unidentifiable).
pub fn fit_log_log(observations: &[(f64, f64)]) -> Option<PowerLaw> {
    let mut n = 0.0f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for &(d, p) in observations {
        if d > 0.0 && p > 0.0 && d.is_finite() && p.is_finite() {
            let x = d.ln();
            let y = p.ln();
            n += 1.0;
            sx += x;
            sy += y;
            sxx += x * x;
            sxy += x * y;
        }
    }
    if n < 2.0 {
        return None;
    }
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let alpha = (n * sxy - sx * sy) / denom;
    let ln_beta = (sy - alpha * sx) / n;
    PowerLaw::new(alpha, ln_beta.exp())
}

/// Fits a power law from weighted observations `(d, p, w)`, where `w` is the
/// number of pairs in the distance bucket. Buckets with more pairs estimate
/// their probability more reliably and should pull the line harder.
pub fn fit_log_log_weighted(observations: &[(f64, f64, f64)]) -> Option<PowerLaw> {
    let mut n = 0.0f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for &(d, p, w) in observations {
        if d > 0.0 && p > 0.0 && w > 0.0 && d.is_finite() && p.is_finite() && w.is_finite() {
            let x = d.ln();
            let y = p.ln();
            n += w;
            sx += w * x;
            sy += w * y;
            sxx += w * x * x;
            sxy += w * x * y;
        }
    }
    if n <= 0.0 {
        return None;
    }
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let alpha = (n * sxy - sx * sy) / denom;
    let ln_beta = (sy - alpha * sx) / n;
    PowerLaw::new(alpha, ln_beta.exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_matches_closed_form() {
        let pl = PowerLaw::new(-0.55, 0.0045).unwrap();
        let d: f64 = 100.0;
        let expect = 0.0045 * d.powf(-0.55);
        assert!((pl.eval(d) - expect).abs() < 1e-15);
    }

    #[test]
    fn eval_floors_small_distances() {
        let pl = PowerLaw::PAPER_TWITTER;
        assert_eq!(pl.eval(0.0), pl.eval(1.0));
        assert_eq!(pl.eval(0.5), pl.eval(1.0));
        assert!(pl.eval(0.0) <= 1.0);
    }

    #[test]
    fn eval_is_monotone_decreasing_for_negative_alpha() {
        let pl = PowerLaw::PAPER_TWITTER;
        let mut prev = pl.eval(1.0);
        for d in [2.0, 5.0, 10.0, 100.0, 1000.0, 3000.0] {
            let cur = pl.eval(d);
            assert!(cur < prev, "p({d}) = {cur} not < {prev}");
            prev = cur;
        }
    }

    #[test]
    fn log_eval_consistent_with_eval() {
        let pl = PowerLaw::new(-0.8, 0.01).unwrap();
        for d in [1.0, 3.0, 57.0, 988.0] {
            assert!((pl.log_eval(d) - pl.eval(d).ln()).abs() < 1e-12);
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(PowerLaw::new(f64::NAN, 1.0).is_none());
        assert!(PowerLaw::new(-0.5, 0.0).is_none());
        assert!(PowerLaw::new(-0.5, -1.0).is_none());
        assert!(PowerLaw::new(-0.5, f64::INFINITY).is_none());
    }

    #[test]
    fn fit_recovers_exact_power_law() {
        let truth = PowerLaw::new(-0.55, 0.0045).unwrap();
        let obs: Vec<(f64, f64)> =
            (1..=2000).map(|d| (d as f64, truth.beta * (d as f64).powf(truth.alpha))).collect();
        let fit = fit_log_log(&obs).unwrap();
        assert!((fit.alpha - truth.alpha).abs() < 1e-9, "alpha {}", fit.alpha);
        assert!((fit.beta - truth.beta).abs() < 1e-9, "beta {}", fit.beta);
    }

    #[test]
    fn fit_tolerates_noise() {
        let truth = PowerLaw::new(-1.0, 0.01).unwrap();
        // Deterministic multiplicative "noise" alternating ±10%.
        let obs: Vec<(f64, f64)> = (1..=500)
            .map(|i| {
                let d = i as f64;
                let noise = if i % 2 == 0 { 1.1 } else { 0.9 };
                (d, truth.beta * d.powf(truth.alpha) * noise)
            })
            .collect();
        let fit = fit_log_log(&obs).unwrap();
        assert!((fit.alpha - truth.alpha).abs() < 0.05, "alpha {}", fit.alpha);
        assert!((fit.beta / truth.beta - 1.0).abs() < 0.15, "beta {}", fit.beta);
    }

    #[test]
    fn fit_skips_degenerate_points() {
        let obs = [(0.0, 0.5), (-3.0, 0.2), (10.0, 0.0), (5.0, f64::NAN)];
        assert!(fit_log_log(&obs).is_none());
    }

    #[test]
    fn fit_requires_two_distinct_distances() {
        assert!(fit_log_log(&[(5.0, 0.1)]).is_none());
        assert!(fit_log_log(&[(5.0, 0.1), (5.0, 0.2)]).is_none());
    }

    #[test]
    fn weighted_fit_prefers_heavy_buckets() {
        // Two regimes: d<=10 follows alpha=-0.5; d>10 points are outliers but
        // carry almost no weight, so the fit should track the first regime.
        let mut obs = Vec::new();
        for d in 1..=10 {
            let d = d as f64;
            obs.push((d, 0.01 * d.powf(-0.5), 1000.0));
        }
        obs.push((100.0, 0.5, 0.001));
        let fit = fit_log_log_weighted(&obs).unwrap();
        assert!((fit.alpha + 0.5).abs() < 0.05, "alpha {}", fit.alpha);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Fitting points generated from a power law recovers its parameters.
        #[test]
        fn fit_round_trip(alpha in -2.0f64..-0.1, beta in 1e-5f64..0.5) {
            let truth = PowerLaw::new(alpha, beta).unwrap();
            let obs: Vec<(f64, f64)> = (1..=200)
                .map(|d| (d as f64, truth.beta * (d as f64).powf(truth.alpha)))
                .collect();
            let fit = fit_log_log(&obs).unwrap();
            prop_assert!((fit.alpha - alpha).abs() < 1e-6);
            prop_assert!((fit.beta / beta - 1.0).abs() < 1e-6);
        }

        /// eval() is always a valid probability.
        #[test]
        fn eval_in_unit_interval(
            alpha in -3.0f64..0.0,
            beta in 1e-6f64..10.0,
            d in 0.0f64..10_000.0,
        ) {
            let pl = PowerLaw::new(alpha, beta).unwrap();
            let p = pl.eval(d);
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }
}
