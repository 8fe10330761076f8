//! Minimal distribution samplers.
//!
//! `rand` 0.8 ships only uniform sampling; rather than pulling in
//! `rand_distr`, the three distributions the simulators need are implemented
//! here (Box–Muller normal, log-normal, inverse-CDF exponential) together
//! with a first-order Gauss–Markov (AR(1)) process used by the channel and
//! path-jitter models.

use rand::Rng;

/// Samples a standard normal via the Box–Muller transform.
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Guard the log: u1 in (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples N(mean, sd²).
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    mean + sd * standard_normal(rng)
}

/// Samples a log-normal with the given parameters of the underlying normal.
pub fn log_normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Samples Exp(rate) via inverse CDF; mean = 1/rate.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    let u: f64 = 1.0 - rng.gen::<f64>();
    -u.ln() / rate
}

/// First-order Gauss–Markov (AR(1)) process:
/// `x' = mean + rho*(x - mean) + sigma*sqrt(1-rho^2)*N(0,1)`.
///
/// With `rho` close to 1 this produces the slowly-wandering shadowing the
/// paper's channel traces show; the stationary distribution is
/// N(mean, sigma²) independent of `rho`.
#[derive(Debug, Clone)]
pub struct GaussMarkov {
    /// Long-run mean the process reverts to.
    mean: f64,
    /// Per-step correlation in [0, 1).
    rho: f64,
    /// `sigma * sqrt(1 - rho^2)`, the scale of each step's innovation.
    innovation: f64,
    state: f64,
}

impl GaussMarkov {
    /// Creates the process started at its mean.
    pub fn new(mean: f64, sigma: f64, rho: f64) -> Self {
        assert!((0.0..1.0).contains(&rho), "rho must be in [0,1)");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        GaussMarkov {
            mean,
            rho,
            innovation: sigma * (1.0 - rho * rho).sqrt(),
            state: mean,
        }
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        self.state
    }

    /// Advances one step and returns the new value.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        self.state = self.mean
            + self.rho * (self.state - self.mean)
            + self.innovation * standard_normal(rng);
        self.state
    }

    /// Forces the state (used by scripted scenarios to impose a deep fade).
    pub fn set(&mut self, value: f64) {
        self.state = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xD0_31_10)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut r, 5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng();
        let n = 20_000;
        let mean = (0..n).map(|_| exponential(&mut r, 0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn log_normal_positive() {
        let mut r = rng();
        assert!((0..1000).all(|_| log_normal(&mut r, 0.0, 1.0) > 0.0));
    }

    #[test]
    fn gauss_markov_reverts_to_mean() {
        let mut r = rng();
        let mut p = GaussMarkov::new(10.0, 1.0, 0.95);
        p.set(100.0);
        for _ in 0..2000 {
            p.step(&mut r);
        }
        assert!(
            (p.value() - 10.0).abs() < 5.0,
            "did not revert: {}",
            p.value()
        );
    }

    #[test]
    fn gauss_markov_stationary_sd() {
        let mut r = rng();
        let mut p = GaussMarkov::new(0.0, 3.0, 0.9);
        // Burn in, then measure.
        for _ in 0..500 {
            p.step(&mut r);
        }
        let n = 50_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let v = p.step(&mut r);
            sum += v;
            sum2 += v * v;
        }
        let mean = sum / n as f64;
        let sd = (sum2 / n as f64 - mean * mean).sqrt();
        assert!((sd - 3.0).abs() < 0.5, "sd {sd}");
    }

    #[test]
    #[should_panic(expected = "rho must be in [0,1)")]
    fn gauss_markov_rejects_bad_rho() {
        let _ = GaussMarkov::new(0.0, 1.0, 1.5);
    }
}
