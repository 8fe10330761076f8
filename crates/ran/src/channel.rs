//! Wireless channel model: per-direction SINR evolution.
//!
//! The paper attributes physical-layer capacity drops to "channel condition
//! dynamics (due to mobility, fading, or interference)" (§5.1.1). We model
//! the post-equalization SINR as
//!
//! * a configured base level (cell geometry / UE placement),
//! * slow log-normal shadowing — a first-order Gauss–Markov process,
//! * an occasional two-state (Good/Fade) Markov chain that imposes deep
//!   fades of configurable depth, producing the minute-scale events of
//!   Fig. 12, and
//! * scripted overrides used by the figure-regeneration harness to place a
//!   fade at an exact time.

use rand::Rng;
use simcore::dist::GaussMarkov;
use simcore::{SimDuration, SimTime};

/// Configuration of one direction's channel process.
#[derive(Debug, Clone)]
pub struct ChannelConfig {
    /// Long-run mean SINR in dB.
    pub base_sinr_db: f64,
    /// Shadowing standard deviation in dB.
    pub shadow_sigma_db: f64,
    /// Shadowing correlation per update step (close to 1 = slow wander).
    pub shadow_rho: f64,
    /// Mean time between deep-fade onsets; `None` disables random fades.
    pub fade_every: Option<SimDuration>,
    /// Mean fade duration.
    pub fade_duration: SimDuration,
    /// Fade depth in dB (subtracted from SINR while fading).
    pub fade_depth_db: f64,
    /// Interval between process updates (SINR is held between updates).
    pub update_interval: SimDuration,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            base_sinr_db: 20.0,
            shadow_sigma_db: 2.5,
            shadow_rho: 0.97,
            fade_every: None,
            fade_duration: SimDuration::from_millis(800),
            fade_depth_db: 15.0,
            update_interval: SimDuration::from_millis(10),
        }
    }
}

/// A time window during which the SINR is forced to an absolute value,
/// used by scripted scenarios (e.g. Fig. 12's channel-degradation episode).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SinrOverride {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub to: SimTime,
    /// Forced SINR in dB.
    pub sinr_db: f64,
}

/// Evolving SINR process for one link direction.
#[derive(Debug, Clone)]
pub struct Channel {
    cfg: ChannelConfig,
    shadow: GaussMarkov,
    fading_until: Option<SimTime>,
    next_update: SimTime,
    current_db: f64,
    overrides: Vec<SinrOverride>,
}

impl Channel {
    /// Creates a channel in its mean state.
    pub fn new(cfg: ChannelConfig) -> Self {
        let shadow = GaussMarkov::new(0.0, cfg.shadow_sigma_db, cfg.shadow_rho);
        Channel {
            current_db: cfg.base_sinr_db,
            shadow,
            fading_until: None,
            next_update: SimTime::ZERO,
            overrides: Vec::new(),
            cfg,
        }
    }

    /// Registers a scripted override window.
    pub(crate) fn add_override(&mut self, ov: SinrOverride) {
        self.overrides.push(ov);
    }

    /// Advances the process to `now` and returns the SINR in dB.
    pub fn sinr_db<R: Rng + ?Sized>(&mut self, now: SimTime, rng: &mut R) -> f64 {
        while now >= self.next_update {
            self.step(self.next_update, rng);
            self.next_update += self.cfg.update_interval;
        }
        // Scripted overrides take precedence over everything.
        for ov in &self.overrides {
            if now >= ov.from && now < ov.to {
                return ov.sinr_db;
            }
        }
        self.current_db
    }

    fn step<R: Rng + ?Sized>(&mut self, at: SimTime, rng: &mut R) {
        self.shadow.step(rng);
        // Fade state machine.
        if let Some(until) = self.fading_until {
            if at >= until {
                self.fading_until = None;
            }
        } else if let Some(every) = self.cfg.fade_every {
            let p_onset = self.cfg.update_interval.as_secs_f64() / every.as_secs_f64().max(1e-9);
            if rng.gen::<f64>() < p_onset {
                // Exponential-ish duration: 0.5–1.5× the configured mean.
                let dur = self.cfg.fade_duration.mul_f64(0.5 + rng.gen::<f64>());
                self.fading_until = Some(at + dur);
            }
        }
        let fade = if self.fading_until.is_some() {
            self.cfg.fade_depth_db
        } else {
            0.0
        };
        self.current_db = self.cfg.base_sinr_db + self.shadow.value() - fade;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{rng_for, RngStream};

    fn at_ms(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn stays_near_base_without_fades() {
        let mut ch = Channel::new(ChannelConfig {
            base_sinr_db: 18.0,
            shadow_sigma_db: 2.0,
            ..Default::default()
        });
        let mut rng = rng_for(1, RngStream::ChannelUl);
        let mut sum = 0.0;
        let n = 2000;
        for i in 0..n {
            sum += ch.sinr_db(at_ms(i * 10), &mut rng);
        }
        let mean = sum / n as f64;
        assert!((mean - 18.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn fades_reduce_sinr() {
        let mut ch = Channel::new(ChannelConfig {
            base_sinr_db: 20.0,
            shadow_sigma_db: 0.5,
            fade_every: Some(SimDuration::from_secs(2)),
            fade_duration: SimDuration::from_millis(500),
            fade_depth_db: 18.0,
            ..Default::default()
        });
        let mut rng = rng_for(2, RngStream::ChannelDl);
        let mut min = f64::INFINITY;
        for i in 0..6000 {
            min = min.min(ch.sinr_db(at_ms(i * 10), &mut rng));
        }
        assert!(min < 6.0, "never saw a deep fade; min {min}");
    }

    #[test]
    fn override_wins() {
        let mut ch = Channel::new(ChannelConfig::default());
        ch.add_override(SinrOverride {
            from: at_ms(100),
            to: at_ms(200),
            sinr_db: -3.0,
        });
        let mut rng = rng_for(3, RngStream::ChannelUl);
        assert!(ch.sinr_db(at_ms(50), &mut rng) > 10.0);
        assert_eq!(ch.sinr_db(at_ms(150), &mut rng), -3.0);
        assert!(ch.sinr_db(at_ms(250), &mut rng) > 10.0);
    }

    #[test]
    fn deterministic_for_same_stream() {
        let mk = || {
            let mut ch = Channel::new(ChannelConfig::default());
            let mut rng = rng_for(9, RngStream::ChannelUl);
            (0..100)
                .map(|i| ch.sinr_db(at_ms(i * 10), &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }
}
