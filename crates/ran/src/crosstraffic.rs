//! Cross-traffic demand from other UEs sharing the cell.
//!
//! "The number of PRBs allocated to a specific UE is dependent on the demand
//! from both itself and other UEs" (paper §5.1.2). We model the *aggregate*
//! PRB demand of all other UEs as a two-state Markov burst process (idle /
//! burst) plus a low-level background chatter, which is what a busy
//! commercial cell's DCI stream looks like from NR-Scope's vantage point:
//! long quiet stretches interrupted by heavy bursts (Fig. 13's yellow bars).
//!
//! This scalar aggregate coexists with the first-class scripted UEs of
//! [`crate::ue::CellUeTable`]: scripted UEs contend for PRBs individually
//! (each with its own queue, MCS, and HARQ lane, visible as distinct RNTIs
//! in the DCI log), while this process stands in for the unmodelled rest of
//! the cell. In the scheduler, scripted/experiment grants are *hard*
//! reservations and this aggregate is a *soft* one — it yields to HARQ
//! retransmissions, like best-effort background traffic would.

use rand::Rng;
use simcore::{SimDuration, SimTime};

/// Configuration of the cross-traffic process for one direction.
#[derive(Debug, Clone)]
pub struct CrossTrafficConfig {
    /// Mean time between burst onsets; `None` disables bursts entirely.
    pub burst_every: Option<SimDuration>,
    /// Mean burst duration.
    pub burst_duration: SimDuration,
    /// PRB fraction demanded during a burst, sampled per burst in this range.
    pub burst_prb_fraction: (f64, f64),
    /// Probability that a given slot carries background chatter.
    pub background_slot_probability: f64,
    /// PRB fraction of background chatter.
    pub background_prb_fraction: f64,
}

impl CrossTrafficConfig {
    /// No other UEs at all (quiet private cell).
    pub fn quiet() -> Self {
        CrossTrafficConfig {
            burst_every: None,
            burst_duration: SimDuration::from_millis(500),
            burst_prb_fraction: (0.0, 0.0),
            background_slot_probability: 0.0,
            background_prb_fraction: 0.0,
        }
    }

    /// Light background load (private cell with a couple of idle phones).
    pub fn light() -> Self {
        CrossTrafficConfig {
            burst_every: Some(SimDuration::from_secs(30)),
            burst_duration: SimDuration::from_millis(300),
            burst_prb_fraction: (0.1, 0.3),
            background_slot_probability: 0.05,
            background_prb_fraction: 0.05,
        }
    }

    /// Heavily utilised commercial cell (the T-Mobile 15 MHz FDD downlink:
    /// "prevalent asymmetric traffic patterns, where users generate
    /// significantly more DL cross traffic").
    pub fn heavy() -> Self {
        CrossTrafficConfig {
            burst_every: Some(SimDuration::from_secs(6)),
            burst_duration: SimDuration::from_millis(900),
            burst_prb_fraction: (0.5, 0.9),
            background_slot_probability: 0.35,
            background_prb_fraction: 0.15,
        }
    }

    /// Moderate load (commercial cell off-peak / wide TDD carrier).
    pub fn moderate() -> Self {
        CrossTrafficConfig {
            burst_every: Some(SimDuration::from_secs(15)),
            burst_duration: SimDuration::from_millis(600),
            burst_prb_fraction: (0.3, 0.6),
            background_slot_probability: 0.2,
            background_prb_fraction: 0.1,
        }
    }
}

/// A forced cross-traffic window for scripted scenarios.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CrossTrafficOverride {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub to: SimTime,
    /// Forced PRB fraction demanded by other UEs.
    pub prb_fraction: f64,
}

/// Evolving cross-traffic demand for one direction.
#[derive(Debug, Clone)]
pub struct CrossTraffic {
    cfg: CrossTrafficConfig,
    burst_until: Option<SimTime>,
    burst_fraction: f64,
    /// RNTI attributed to the current burst (so the DCI log shows a
    /// plausible distinct user per burst).
    burst_rnti: u32,
    overrides: Vec<CrossTrafficOverride>,
}

/// Demand outcome for one slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossDemand {
    /// Fraction of the cell's PRBs demanded by other UEs in this slot.
    pub prb_fraction: f64,
    /// RNTI to attribute the allocation to in the DCI log.
    pub rnti: u32,
}

impl CrossTraffic {
    /// Creates the process in the idle state.
    pub fn new(cfg: CrossTrafficConfig) -> Self {
        CrossTraffic {
            cfg,
            burst_until: None,
            burst_fraction: 0.0,
            burst_rnti: 40_000,
            overrides: Vec::new(),
        }
    }

    /// Registers a scripted override window.
    pub(crate) fn add_override(&mut self, ov: CrossTrafficOverride) {
        self.overrides.push(ov);
    }

    /// Demand for the slot starting at `now` of duration `slot`.
    pub fn demand<R: Rng + ?Sized>(
        &mut self,
        now: SimTime,
        slot: SimDuration,
        rng: &mut R,
    ) -> CrossDemand {
        for ov in &self.overrides {
            if now >= ov.from && now < ov.to {
                return CrossDemand {
                    prb_fraction: ov.prb_fraction,
                    rnti: 50_001,
                };
            }
        }
        // Burst state machine.
        if let Some(until) = self.burst_until {
            if now >= until {
                self.burst_until = None;
            }
        } else if let Some(every) = self.cfg.burst_every {
            let p = slot.as_secs_f64() / every.as_secs_f64().max(1e-9);
            if rng.gen::<f64>() < p {
                let (lo, hi) = self.cfg.burst_prb_fraction;
                self.burst_fraction = lo + (hi - lo) * rng.gen::<f64>();
                self.burst_until =
                    Some(now + self.cfg.burst_duration.mul_f64(0.5 + rng.gen::<f64>()));
                self.burst_rnti = 40_000 + rng.gen_range(0..10_000);
            }
        }
        if self.burst_until.is_some() {
            return CrossDemand {
                prb_fraction: self.burst_fraction,
                rnti: self.burst_rnti,
            };
        }
        if self.cfg.background_slot_probability > 0.0
            && rng.gen::<f64>() < self.cfg.background_slot_probability
        {
            return CrossDemand {
                prb_fraction: self.cfg.background_prb_fraction,
                rnti: 30_000 + rng.gen_range(0..10_000),
            };
        }
        CrossDemand {
            prb_fraction: 0.0,
            rnti: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{rng_for, RngStream};

    const SLOT: SimDuration = SimDuration::from_micros(500);

    #[test]
    fn quiet_is_quiet() {
        let mut ct = CrossTraffic::new(CrossTrafficConfig::quiet());
        let mut rng = rng_for(1, RngStream::CrossTrafficUl);
        for i in 0..10_000 {
            let d = ct.demand(SimTime::from_micros(i * 500), SLOT, &mut rng);
            assert_eq!(d.prb_fraction, 0.0);
        }
    }

    #[test]
    fn heavy_produces_bursts() {
        let mut ct = CrossTraffic::new(CrossTrafficConfig::heavy());
        let mut rng = rng_for(2, RngStream::CrossTrafficDl);
        let mut burst_slots = 0;
        let n = 120_000; // 60 s of 0.5 ms slots
        for i in 0..n {
            let d = ct.demand(SimTime::from_micros(i * 500), SLOT, &mut rng);
            if d.prb_fraction >= 0.5 {
                burst_slots += 1;
            }
        }
        // ~10 bursts of ~900 ms in 60 s → thousands of heavy slots.
        assert!(burst_slots > 2_000, "only {burst_slots} heavy slots");
    }

    #[test]
    fn override_takes_precedence() {
        let mut ct = CrossTraffic::new(CrossTrafficConfig::quiet());
        ct.add_override(CrossTrafficOverride {
            from: SimTime::from_millis(10),
            to: SimTime::from_millis(20),
            prb_fraction: 0.8,
        });
        let mut rng = rng_for(3, RngStream::CrossTrafficUl);
        let d = ct.demand(SimTime::from_millis(15), SLOT, &mut rng);
        assert_eq!(d.prb_fraction, 0.8);
        let d = ct.demand(SimTime::from_millis(25), SLOT, &mut rng);
        assert_eq!(d.prb_fraction, 0.0);
    }

    #[test]
    fn burst_rnti_is_stable_within_burst() {
        let mut ct = CrossTraffic::new(CrossTrafficConfig::heavy());
        let mut rng = rng_for(4, RngStream::CrossTrafficDl);
        let mut current: Option<(u32, usize)> = None;
        let mut longest = 0;
        for i in 0..200_000u64 {
            let d = ct.demand(SimTime::from_micros(i * 500), SLOT, &mut rng);
            if d.prb_fraction >= 0.5 {
                match current {
                    Some((rnti, count)) if rnti == d.rnti => current = Some((rnti, count + 1)),
                    _ => current = Some((d.rnti, 1)),
                }
                longest = longest.max(current.unwrap().1);
            } else {
                current = None;
            }
        }
        assert!(
            longest > 500,
            "bursts should hold one RNTI for many slots: {longest}"
        );
    }
}
