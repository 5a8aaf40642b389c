//! The decayed confidence tracker of discriminative prediction.
//!
//! The paper's Figure 7: `conf ← (1 − γ)·conf + γ·acc` after every run,
//! where `acc` is the sample-weighted prediction accuracy of that run.
//! Prediction is only applied when `conf` exceeds the confidence
//! threshold `TH_c`. Both γ and `TH_c` default to the paper's 0.7.

use serde::{Deserialize, Serialize};

/// The paper's default decay factor γ.
pub const DEFAULT_GAMMA: f64 = 0.7;

/// The paper's default confidence threshold `TH_c`.
pub const DEFAULT_THRESHOLD: f64 = 0.7;

/// Decayed-average confidence over per-run prediction accuracies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceTracker {
    conf: f64,
    gamma: f64,
    threshold: f64,
    updates: u64,
}

impl Default for ConfidenceTracker {
    fn default() -> ConfidenceTracker {
        ConfidenceTracker::new(DEFAULT_GAMMA, DEFAULT_THRESHOLD)
    }
}

impl ConfidenceTracker {
    /// Create a tracker with explicit γ and threshold, both in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is outside `[0, 1]`.
    pub fn new(gamma: f64, threshold: f64) -> ConfidenceTracker {
        assert!((0.0..=1.0).contains(&gamma), "gamma must be in [0,1]");
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0,1]"
        );
        ConfidenceTracker {
            conf: 0.0,
            gamma,
            threshold,
            updates: 0,
        }
    }

    /// Current confidence in `[0, 1]` (starts at 0).
    pub fn value(&self) -> f64 {
        self.conf
    }

    /// The confidence threshold `TH_c`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// True when the model is trusted: `conf > TH_c`.
    pub fn is_confident(&self) -> bool {
        self.conf > self.threshold
    }

    /// Fold in one run's prediction accuracy (clamped to `[0, 1]`).
    pub fn update(&mut self, accuracy: f64) {
        let acc = accuracy.clamp(0.0, 1.0);
        self.conf = (1.0 - self.gamma) * self.conf + self.gamma * acc;
        self.updates += 1;
    }

    /// Number of accuracy updates folded in.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// This tracker's γ and threshold, resumed at a stored confidence
    /// `conf` after `updates` updates; `None` if `conf` is not a
    /// confidence (NaN, or outside `[0, 1]`).
    pub fn resumed(self, conf: f64, updates: u64) -> Option<ConfidenceTracker> {
        (0.0..=1.0).contains(&conf).then_some(ConfidenceTracker {
            conf,
            updates,
            ..self
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_unconfident() {
        let c = ConfidenceTracker::default();
        assert_eq!(c.value(), 0.0);
        assert!(!c.is_confident());
    }

    #[test]
    fn rises_with_accurate_runs() {
        let mut c = ConfidenceTracker::default();
        c.update(1.0);
        assert!((c.value() - 0.7).abs() < 1e-12);
        assert!(!c.is_confident()); // 0.7 is not > 0.7
        c.update(1.0);
        assert!((c.value() - 0.91).abs() < 1e-12);
        assert!(c.is_confident());
    }

    #[test]
    fn falls_after_bad_runs() {
        let mut c = ConfidenceTracker::default();
        c.update(1.0);
        c.update(1.0);
        assert!(c.is_confident());
        c.update(0.0);
        assert!(!c.is_confident());
        assert!((c.value() - 0.273).abs() < 1e-12);
    }

    #[test]
    fn gamma_weights_recency() {
        let mut fast = ConfidenceTracker::new(0.9, 0.7);
        let mut slow = ConfidenceTracker::new(0.1, 0.7);
        fast.update(1.0);
        slow.update(1.0);
        assert!(fast.value() > slow.value());
    }

    #[test]
    fn accuracy_is_clamped() {
        let mut c = ConfidenceTracker::default();
        c.update(7.0);
        assert!(c.value() <= 1.0);
        c.update(-3.0);
        assert!(c.value() >= 0.0);
        assert_eq!(c.updates(), 2);
    }

    #[test]
    fn resumed_keeps_its_own_parameters() {
        let c = ConfidenceTracker::new(0.5, 0.9).resumed(0.95, 4).unwrap();
        assert_eq!(c.value(), 0.95);
        assert_eq!(c.updates(), 4);
        assert_eq!(c.threshold(), 0.9);
        for bad in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            assert_eq!(ConfidenceTracker::default().resumed(bad, 1), None);
        }
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn bad_gamma_panics() {
        let _ = ConfidenceTracker::new(1.5, 0.7);
    }
}
