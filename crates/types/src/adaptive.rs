//! Adaptive-planning configuration and the EWMA primitive it runs on.
//!
//! The static planner prices candidates under the site's *advertised*
//! [`crate::CostModel`]. Real sites drift: the advertised prices go stale,
//! or the per-family estimators are systematically off for a particular
//! data distribution. The adaptive layer (`qrs-service`'s `Calibration`)
//! closes that loop by folding *observed* charges into exponentially
//! weighted moving averages and scaling future predictions by them; this
//! module holds the knobs ([`AdaptiveConfig`]) and the deterministic
//! [`Ewma`] accumulator both sides share.

/// Knobs for the closed-loop adaptive planner.
///
/// Two independently switchable behaviours:
///
/// * **calibration** (`calibrate`) — observed-cost statistics are fed from
///   the same metered ledger deltas the session stats use, and
///   `Planner::plan` scales each candidate's static estimate by the
///   learned actual/predicted ratio before ranking;
/// * **re-planning** (`replan`) — a running `Auto` session whose actual
///   weighted spend exceeds `divergence_ratio ×` its calibrated prediction
///   (once at least `min_spend` units were paid, and only before the plan
///   horizon is reached) re-plans among the remaining feasible candidates
///   and switches strategies mid-flight, without losing paid-for
///   knowledge.
///
/// The default is [`AdaptiveConfig::disabled`]: the service behaves
/// exactly like the static planner unless explicitly opted in.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Mid-flight switch trigger: re-plan when
    /// `cost_units_spent > divergence_ratio × calibrated prediction`.
    pub divergence_ratio: f64,
    /// Weighted cost units a session must have paid before the divergence
    /// trigger may fire — guards against switching on the first page of a
    /// front-loaded strategy.
    pub min_spend: u64,
    /// Feed and consult the calibration store at plan time.
    pub calibrate: bool,
    /// Allow divergence-triggered mid-flight strategy switches (at most
    /// one per session, `Auto` sessions only).
    pub replan: bool,
}

impl AdaptiveConfig {
    /// Both loops on, with the stock trigger: switch past 2× the
    /// calibrated prediction, once at least 8 cost units were paid.
    pub fn enabled() -> Self {
        AdaptiveConfig {
            divergence_ratio: 2.0,
            min_spend: 8,
            calibrate: true,
            replan: true,
        }
    }

    /// Everything off — the static planner, bit for bit. The default.
    pub fn disabled() -> Self {
        AdaptiveConfig {
            divergence_ratio: 2.0,
            min_spend: 8,
            calibrate: false,
            replan: false,
        }
    }

    /// Builder: override the divergence trigger ratio (values ≤ 1.0 make
    /// any deviation a trigger; NaN is clamped to the default 2.0).
    pub fn with_divergence_ratio(mut self, ratio: f64) -> Self {
        self.divergence_ratio = if ratio.is_nan() { 2.0 } else { ratio };
        self
    }

    /// Builder: override the minimum paid spend before a switch may fire.
    pub fn with_min_spend(mut self, units: u64) -> Self {
        self.min_spend = units;
        self
    }

    /// Builder: calibration opt-out — keep re-planning (against static
    /// predictions) but never scale plan-time estimates.
    pub fn without_calibration(mut self) -> Self {
        self.calibrate = false;
        self
    }

    /// Builder: re-planning opt-out — keep learning costs but never switch
    /// a running session.
    pub fn without_replan(mut self) -> Self {
        self.replan = false;
        self
    }

    /// True when either loop is on (the service only pays any adaptive
    /// bookkeeping at all in that case).
    pub fn is_active(&self) -> bool {
        self.calibrate || self.replan
    }
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig::disabled()
    }
}

/// A deterministic exponentially weighted moving average.
///
/// The first observation seeds the average exactly; each later one folds
/// in as `value ← (1 − α)·value + α·x`. Plain IEEE `f64` arithmetic in a
/// fixed order, so identical observation sequences produce bit-identical
/// averages on every platform — the property the seed-swept calibration
/// tests lean on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    /// Smoothing factor α ∈ (0, 1]: the weight of the newest observation.
    alpha: f64,
    value: f64,
    samples: u64,
}

impl Ewma {
    /// An empty average with smoothing factor `alpha` (clamped into
    /// `(0, 1]`; non-finite values fall back to 0.5).
    pub fn new(alpha: f64) -> Self {
        let alpha = if alpha.is_finite() {
            alpha.clamp(f64::MIN_POSITIVE, 1.0)
        } else {
            0.5
        };
        Ewma {
            alpha,
            value: 0.0,
            samples: 0,
        }
    }

    /// An empty average whose smoothing factor is expressed as a
    /// **half-life in observations**: after `half_life` further samples, an
    /// old value's weight has decayed to one half (`(1 − α)^h = 1/2`, so
    /// `α = 1 − 2^(−1/h)`). The windowed way to say "forget drift that
    /// reverted": a site whose prices drift and then drift *back* halves
    /// its residual bias every `half_life` sessions. Non-positive or NaN
    /// half-lives collapse to `α = 1` (only the newest sample counts); an
    /// infinite one clamps to the smallest positive weight.
    pub fn with_half_life(half_life: f64) -> Self {
        let alpha = if half_life > 0.0 {
            // An infinite half-life drives α to 0, which `Ewma::new` clamps
            // to the smallest positive weight — "effectively never forget".
            1.0 - 2f64.powf(-1.0 / half_life)
        } else {
            1.0
        };
        Ewma::new(alpha)
    }

    /// The smoothing factor α ∈ (0, 1].
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Fold one observation in. Non-finite observations are ignored — a
    /// poisoned sample must never poison every later prediction.
    pub fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if self.samples == 0 {
            self.value = x;
        } else {
            self.value = (1.0 - self.alpha) * self.value + self.alpha * x;
        }
        self.samples += 1;
    }

    /// The current average, or `None` before any observation landed.
    pub fn value(&self) -> Option<f64> {
        (self.samples > 0).then_some(self.value)
    }

    /// Observations folded in so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_off_and_builders_toggle() {
        let d = AdaptiveConfig::default();
        assert!(!d.is_active());
        assert_eq!(d, AdaptiveConfig::disabled());
        let e = AdaptiveConfig::enabled();
        assert!(e.is_active() && e.calibrate && e.replan);
        assert!(!AdaptiveConfig::enabled().without_replan().replan);
        assert!(!AdaptiveConfig::enabled().without_calibration().calibrate);
        assert!(AdaptiveConfig::enabled().without_replan().is_active());
        let r = AdaptiveConfig::enabled()
            .with_divergence_ratio(3.5)
            .with_min_spend(100);
        assert_eq!((r.divergence_ratio, r.min_spend), (3.5, 100));
        assert_eq!(
            AdaptiveConfig::enabled()
                .with_divergence_ratio(f64::NAN)
                .divergence_ratio,
            2.0
        );
    }

    #[test]
    fn ewma_seeds_exactly_and_converges_deterministically() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        e.observe(10.0);
        assert_eq!(e.value(), Some(10.0));
        e.observe(20.0);
        assert_eq!(e.value(), Some(15.0));
        e.observe(20.0);
        assert_eq!(e.value(), Some(17.5));
        assert_eq!(e.samples(), 3);
        // Bit-identical replay.
        let mut f = Ewma::new(0.5);
        for x in [10.0, 20.0, 20.0] {
            f.observe(x);
        }
        assert_eq!(e, f);
    }

    #[test]
    fn ewma_rejects_poisoned_samples_and_bad_alpha() {
        let mut e = Ewma::new(f64::NAN);
        e.observe(f64::INFINITY);
        e.observe(f64::NAN);
        assert_eq!(e.value(), None);
        e.observe(4.0);
        assert_eq!(e.value(), Some(4.0));
        // Alpha is clamped into (0, 1]: a huge alpha just tracks the
        // newest sample.
        let mut g = Ewma::new(9.0);
        g.observe(1.0);
        g.observe(7.0);
        assert_eq!(g.value(), Some(7.0));
    }

    #[test]
    fn half_life_halves_residual_bias_per_window() {
        // Seed at 3.0, then observe 1.0 forever: the deviation from 1.0
        // must halve every `half_life` observations, exactly.
        let h = 4.0;
        let mut e = Ewma::with_half_life(h);
        e.observe(3.0);
        for _ in 0..4 {
            e.observe(1.0);
        }
        let dev_after_one_window = e.value().unwrap() - 1.0;
        assert!(
            (dev_after_one_window - 1.0).abs() < 1e-12,
            "deviation 2.0 must halve to 1.0 after one half-life, got {dev_after_one_window}"
        );
        for _ in 0..4 {
            e.observe(1.0);
        }
        let dev_after_two = e.value().unwrap() - 1.0;
        assert!(
            (dev_after_two - 0.5).abs() < 1e-12,
            "deviation must halve again to 0.5, got {dev_after_two}"
        );
    }

    #[test]
    fn degenerate_half_lives_track_the_newest_sample() {
        for h in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            let mut e = Ewma::with_half_life(h);
            e.observe(10.0);
            e.observe(2.0);
            // Infinity gives alpha → 0, clamped to MIN_POSITIVE: ~keeps
            // the seed; all others collapse to alpha = 1.
            if h.is_infinite() {
                assert!((e.value().unwrap() - 10.0).abs() < 1e-9);
            } else {
                assert_eq!(e.value(), Some(2.0), "half_life {h}");
            }
        }
        // A sane half-life sits strictly inside (0, 1).
        let a = Ewma::with_half_life(4.0).alpha();
        assert!(a > 0.0 && a < 1.0);
    }
}
