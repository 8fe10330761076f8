//! # netpath — non-RAN network path models
//!
//! Everything between the RAN and the peer client: the 5G core, the campus
//! or cloud internet transit, and the baseline access networks (wired,
//! Wi-Fi) the paper compares against in §2.
//!
//! Each [`PathModel`] is a one-way pipe with a propagation delay, optional
//! serialization rate, stochastic queueing jitter, and random loss. Packets
//! never reorder (arrival times are clamped monotone per path), matching
//! FIFO queue behaviour.

use rand::Rng;
use simcore::dist::{log_normal, GaussMarkov};
use simcore::{SimDuration, SimTime};

/// Configuration of a one-way network path segment.
#[derive(Debug, Clone)]
pub struct PathConfig {
    /// Fixed propagation + processing delay.
    pub base_delay: SimDuration,
    /// Median of the log-normal queueing jitter; zero disables jitter.
    pub jitter_median: SimDuration,
    /// Shape of the jitter distribution (σ of the underlying normal).
    pub jitter_sigma: f64,
    /// Slowly-varying congestion level multiplying the jitter (AR(1) around
    /// 1.0); 0 disables.
    pub congestion_sigma: f64,
    /// Link rate for serialization delay; `None` = infinitely fast.
    pub rate_bps: Option<f64>,
    /// Independent packet-loss probability.
    pub loss_probability: f64,
}

impl PathConfig {
    /// Campus wired LAN (sub-millisecond, essentially lossless).
    pub fn wired_lan() -> Self {
        PathConfig {
            base_delay: SimDuration::from_micros(400),
            jitter_median: SimDuration::from_micros(60),
            jitter_sigma: 0.4,
            congestion_sigma: 0.0,
            rate_bps: Some(1e9),
            loss_probability: 1e-6,
        }
    }

    /// Wired WAN to a cloud region ≈150 miles away (paper §2.1's GCP peer).
    /// ~1.9 ms propagation plus routing/processing: the paper's wired
    /// baseline sits at a few ms one-way (Fig. 2).
    pub fn wired_wan() -> Self {
        PathConfig {
            base_delay: SimDuration::from_millis(3),
            jitter_median: SimDuration::from_micros(250),
            jitter_sigma: 0.5,
            congestion_sigma: 0.1,
            rate_bps: Some(1e9),
            loss_probability: 1e-5,
        }
    }

    /// Home/campus Wi-Fi access: moderate jitter, occasional loss.
    pub fn wifi() -> Self {
        PathConfig {
            base_delay: SimDuration::from_millis(3),
            jitter_median: SimDuration::from_millis(2),
            jitter_sigma: 0.9,
            congestion_sigma: 0.3,
            rate_bps: Some(120e6),
            loss_probability: 2e-3,
        }
    }

    /// 5G core network segment (UPF + backhaul).
    pub fn core_network() -> Self {
        PathConfig {
            base_delay: SimDuration::from_millis(2),
            jitter_median: SimDuration::from_micros(150),
            jitter_sigma: 0.4,
            congestion_sigma: 0.0,
            rate_bps: Some(10e9),
            loss_probability: 0.0,
        }
    }
}

/// Cheap always-on per-path counters, read by the observability layer at
/// session teardown. Pure integer accumulation on sim-deterministic
/// events, so totals are identical at any thread/shard/mux partitioning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathStats {
    /// Packets offered to the path.
    pub sent: u64,
    /// Packets dropped by the loss process.
    pub lost: u64,
    /// Packets whose jittered arrival landed before an earlier packet's —
    /// the FIFO clamp hides the inversion, so this counts reorder
    /// *pressure* the path absorbed rather than delivered reorders.
    pub jitter_inversions: u64,
}

impl PathStats {
    /// Element-wise sum, for folding several paths into one rollup.
    pub fn merge(&mut self, other: PathStats) {
        self.sent += other.sent;
        self.lost += other.lost;
        self.jitter_inversions += other.jitter_inversions;
    }
}

/// A stateful one-way path: FIFO, jittered, lossy.
#[derive(Debug, Clone)]
pub struct PathModel {
    cfg: PathConfig,
    /// `ln` of the jitter median in µs (the log-normal's `mu`), or `None`
    /// when jitter is disabled.
    jitter_mu: Option<f64>,
    congestion: GaussMarkov,
    last_arrival: SimTime,
    link_free_at: SimTime,
    stats: PathStats,
}

impl PathModel {
    /// Creates a path from its configuration.
    pub fn new(cfg: PathConfig) -> Self {
        let median_us = cfg.jitter_median.as_micros();
        PathModel {
            jitter_mu: (median_us > 0).then(|| (median_us as f64).ln()),
            congestion: GaussMarkov::new(1.0, cfg.congestion_sigma, 0.995),
            cfg,
            last_arrival: SimTime::ZERO,
            link_free_at: SimTime::ZERO,
            stats: PathStats::default(),
        }
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> PathStats {
        self.stats
    }

    /// Sends a packet of `size_bytes` at `now`; returns its arrival time at
    /// the far end, or `None` if it was lost.
    pub fn traverse<R: Rng + ?Sized>(
        &mut self,
        now: SimTime,
        size_bytes: u32,
        rng: &mut R,
    ) -> Option<SimTime> {
        self.stats.sent += 1;
        if self.cfg.loss_probability > 0.0 && rng.gen::<f64>() < self.cfg.loss_probability {
            self.stats.lost += 1;
            return None;
        }
        // Serialization: FIFO on the bottleneck link.
        let start = now.max(self.link_free_at);
        let tx_time = match self.cfg.rate_bps {
            Some(rate) => SimDuration::from_secs_f64(size_bytes as f64 * 8.0 / rate),
            None => SimDuration::ZERO,
        };
        self.link_free_at = start + tx_time;

        let congestion = if self.cfg.congestion_sigma > 0.0 {
            self.congestion.step(rng).max(0.1)
        } else {
            1.0
        };
        let jitter_us = match self.jitter_mu {
            Some(mu) => log_normal(rng, mu, self.cfg.jitter_sigma) * congestion,
            None => 0.0,
        };
        let arrival = self.link_free_at
            + self.cfg.base_delay
            + SimDuration::from_micros(jitter_us.max(0.0) as u64);
        // FIFO: no reordering within one path.
        if arrival < self.last_arrival {
            self.stats.jitter_inversions += 1;
        }
        let arrival = arrival.max(self.last_arrival);
        self.last_arrival = arrival;
        Some(arrival)
    }

    /// The path's configuration.
    pub fn config(&self) -> &PathConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{rng_for, RngStream};

    fn rng() -> rand::rngs::StdRng {
        rng_for(11, RngStream::PathForward)
    }

    #[test]
    fn wired_lan_is_fast_and_stable() {
        let mut p = PathModel::new(PathConfig::wired_lan());
        let mut r = rng();
        let mut delays = Vec::new();
        for i in 0..1000u64 {
            let sent = SimTime::from_millis(i * 10);
            if let Some(arr) = p.traverse(sent, 1200, &mut r) {
                delays.push(arr.saturating_since(sent).as_millis_f64());
            }
        }
        let cdf = telemetry::Cdf::from_samples(delays);
        assert!(cdf.median().unwrap() < 1.0, "median {:?}", cdf.median());
        assert!(cdf.quantile(0.99).unwrap() < 3.0);
    }

    #[test]
    fn wan_has_base_delay() {
        let mut p = PathModel::new(PathConfig::wired_wan());
        let mut r = rng();
        let sent = SimTime::from_secs(1);
        let arr = p.traverse(sent, 1200, &mut r).unwrap();
        let d = arr.saturating_since(sent).as_millis_f64();
        assert!((2.9..10.0).contains(&d), "delay {d}");
    }

    #[test]
    fn no_reordering() {
        let mut p = PathModel::new(PathConfig::wifi());
        let mut r = rng();
        let mut last = SimTime::ZERO;
        for i in 0..5000u64 {
            let sent = SimTime::from_micros(i * 137);
            if let Some(arr) = p.traverse(sent, 900, &mut r) {
                assert!(arr >= last, "reordered at {i}");
                last = arr;
            }
        }
    }

    #[test]
    fn loss_rate_matches_config() {
        let mut cfg = PathConfig::wifi();
        cfg.loss_probability = 0.05;
        let mut p = PathModel::new(cfg);
        let mut r = rng();
        let n = 20_000u64;
        let lost = (0..n)
            .filter(|i| {
                p.traverse(SimTime::from_millis(i * 5), 500, &mut r)
                    .is_none()
            })
            .count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "loss {rate}");
    }

    #[test]
    fn serialization_backlog_delays_bursts() {
        // 10 Mbit/s link, burst of 10 × 12 kB → each packet ~9.6 ms on the wire.
        let mut p = PathModel::new(PathConfig {
            base_delay: SimDuration::ZERO,
            jitter_median: SimDuration::ZERO,
            jitter_sigma: 0.0,
            congestion_sigma: 0.0,
            rate_bps: Some(10e6),
            loss_probability: 0.0,
        });
        let mut r = rng();
        let sent = SimTime::from_secs(1);
        let mut arrivals = Vec::new();
        for _ in 0..10 {
            arrivals.push(p.traverse(sent, 12_000, &mut r).unwrap());
        }
        let first = arrivals[0].saturating_since(sent).as_millis_f64();
        let last = arrivals[9].saturating_since(sent).as_millis_f64();
        assert!((first - 9.6).abs() < 0.5, "first {first}");
        assert!((last - 96.0).abs() < 2.0, "last {last}");
    }
}
