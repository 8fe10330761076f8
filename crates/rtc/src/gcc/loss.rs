//! Loss-based rate controller: GCC's second estimator (paper §6.2
//! "Mechanism"), driven by the loss fraction in RTCP receiver reports.
//!
//! Classic GCC thresholds: above 10 % loss the rate is cut proportionally;
//! below 2 % it grows by 5 % per report; in between it holds.

/// Loss-based bitrate tracker.
#[derive(Debug, Clone)]
pub struct LossBasedControl {
    rate_bps: f64,
    max_bps: f64,
}

impl LossBasedControl {
    /// Creates the controller at `start_bps`.
    pub fn new(start_bps: f64, max_bps: f64) -> Self {
        LossBasedControl {
            rate_bps: start_bps,
            max_bps,
        }
    }

    /// Current loss-based rate bound (bits/s).
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// Feeds one receiver report's loss fraction (0..=1); the delay-based
    /// target is supplied because the loss controller operates on the
    /// current end-to-end estimate, cutting below it under heavy loss and
    /// releasing back to it when the path is clean.
    pub(crate) fn on_loss_report(&mut self, loss_fraction: f64, delay_based_bps: f64) -> f64 {
        let loss = loss_fraction.clamp(0.0, 1.0);
        // Operate on the current working estimate.
        self.rate_bps = self.rate_bps.min(delay_based_bps);
        if loss > 0.10 {
            self.rate_bps *= 1.0 - 0.5 * loss;
        } else if loss < 0.02 {
            self.rate_bps = (self.rate_bps * 1.05).min(self.max_bps);
            // Don't lag behind the delay-based estimate when the path is clean.
            self.rate_bps = self.rate_bps.max(delay_based_bps);
        }
        self.rate_bps = self.rate_bps.clamp(30_000.0, self.max_bps);
        self.rate_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_loss_cuts_rate() {
        let mut c = LossBasedControl::new(2_000_000.0, 15e6);
        c.on_loss_report(0.2, 2_000_000.0);
        assert!((c.rate_bps() - 2_000_000.0 * 0.9).abs() < 1.0);
    }

    #[test]
    fn low_loss_grows_and_tracks_delay_estimate() {
        let mut c = LossBasedControl::new(1_000_000.0, 15e6);
        c.on_loss_report(0.0, 3_000_000.0);
        assert!(c.rate_bps() >= 3_000_000.0);
    }

    #[test]
    fn moderate_loss_holds() {
        let mut c = LossBasedControl::new(1_000_000.0, 15e6);
        c.on_loss_report(0.05, 5_000_000.0);
        assert_eq!(c.rate_bps(), 1_000_000.0);
    }

    #[test]
    fn bounded() {
        let mut c = LossBasedControl::new(100_000.0, 15e6);
        for _ in 0..100 {
            c.on_loss_report(0.9, 100_000.0);
        }
        assert!(c.rate_bps() >= 30_000.0);
    }
}
