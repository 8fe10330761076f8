//! Radio Resource Control state machine.
//!
//! The paper observes (§5.3) that the T-Mobile 15 MHz FDD cell sometimes
//! releases the RRC connection *during* active transfer — "aggressive network
//! inactivity timers, specific connection management policies, or transient
//! Radio Link Failures" — producing a ≈300 ms interruption with an RNTI
//! change, during which the UE can neither send nor receive and its buffers
//! grow (Fig. 19). Releases here can be random (rate-configured) or scripted
//! at exact times for the figure-regeneration harness.

use rand::Rng;
use simcore::{SimDuration, SimTime};
use telemetry::RrcState;

/// RRC behaviour configuration.
#[derive(Debug, Clone)]
pub struct RrcConfig {
    /// Mean interval between spontaneous releases while connected;
    /// `None` disables random releases (standard-conforming behaviour).
    pub random_release_every: Option<SimDuration>,
    /// Idle time before re-establishment begins.
    pub idle_duration: SimDuration,
    /// Duration of connection re-establishment.
    pub connecting_duration: SimDuration,
}

impl Default for RrcConfig {
    fn default() -> Self {
        RrcConfig {
            random_release_every: None,
            // ≈300 ms total interruption as measured in the paper.
            idle_duration: SimDuration::from_millis(240),
            connecting_duration: SimDuration::from_millis(60),
        }
    }
}

/// A state change the cell should log / react to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RrcTransition {
    /// When the transition occurred.
    pub at: SimTime,
    /// New state.
    pub state: RrcState,
    /// RNTI valid after the transition (new value on re-establishment).
    pub rnti: u32,
}

/// The UE's RRC state machine as seen from the gNB.
#[derive(Debug, Clone)]
pub struct RrcMachine {
    cfg: RrcConfig,
    state: RrcState,
    state_until: SimTime,
    rnti: u32,
    next_rnti: u32,
    scripted_releases: Vec<SimTime>,
    transitions: Vec<RrcTransition>,
}

impl RrcMachine {
    /// Creates the machine in the Connected state with an initial RNTI.
    pub fn new(cfg: RrcConfig, initial_rnti: u32) -> Self {
        RrcMachine {
            cfg,
            state: RrcState::Connected,
            state_until: SimTime::ZERO,
            rnti: initial_rnti,
            next_rnti: initial_rnti.wrapping_add(7919),
            scripted_releases: Vec::new(),
            transitions: Vec::new(),
        }
    }

    /// Current state.
    #[cfg(test)]
    pub(crate) fn state(&self) -> RrcState {
        self.state
    }

    /// Whether data transfer is possible right now.
    pub(crate) fn is_connected(&self) -> bool {
        self.state == RrcState::Connected
    }

    /// RNTI currently assigned (changes across re-establishments).
    pub fn rnti(&self) -> u32 {
        self.rnti
    }

    /// Schedules a release at an exact time (scripted scenarios).
    pub(crate) fn script_release(&mut self, at: SimTime) {
        self.scripted_releases.push(at);
        self.scripted_releases.sort();
    }

    /// Drains the transitions that occurred since the last call.
    pub(crate) fn drain_transitions(&mut self) -> Vec<RrcTransition> {
        std::mem::take(&mut self.transitions)
    }

    /// Advances the machine to `now` (called once per slot). `dt` is the
    /// step length used for the random-release hazard.
    pub fn step<R: Rng + ?Sized>(&mut self, now: SimTime, dt: SimDuration, rng: &mut R) {
        match self.state {
            RrcState::Connected => {
                let scripted_due = self.scripted_releases.first().is_some_and(|&t| t <= now);
                let random_due = self.cfg.random_release_every.is_some_and(|every| {
                    rng.gen::<f64>() < dt.as_secs_f64() / every.as_secs_f64().max(1e-9)
                });
                if scripted_due {
                    self.scripted_releases.remove(0);
                }
                if scripted_due || random_due {
                    self.state = RrcState::Idle;
                    self.state_until = now + self.cfg.idle_duration;
                    self.transitions.push(RrcTransition {
                        at: now,
                        state: RrcState::Idle,
                        rnti: self.rnti,
                    });
                }
            }
            RrcState::Idle => {
                if now >= self.state_until {
                    self.state = RrcState::Connecting;
                    self.state_until = now + self.cfg.connecting_duration;
                    self.transitions.push(RrcTransition {
                        at: now,
                        state: RrcState::Connecting,
                        rnti: self.rnti,
                    });
                }
            }
            RrcState::Connecting => {
                if now >= self.state_until {
                    self.state = RrcState::Connected;
                    self.rnti = self.next_rnti;
                    self.next_rnti = self.next_rnti.wrapping_mul(31).wrapping_add(17) % 60_000;
                    if self.next_rnti < 1000 {
                        self.next_rnti += 1000;
                    }
                    self.transitions.push(RrcTransition {
                        at: now,
                        state: RrcState::Connected,
                        rnti: self.rnti,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{rng_for, RngStream};

    const DT: SimDuration = SimDuration::from_micros(500);

    fn run_until(m: &mut RrcMachine, from_ms: u64, to_ms: u64) {
        let mut rng = rng_for(1, RngStream::Rrc);
        let mut t = from_ms * 2; // half-ms steps
        while t < to_ms * 2 {
            m.step(SimTime::from_micros(t * 500), DT, &mut rng);
            t += 1;
        }
    }

    #[test]
    fn stays_connected_without_triggers() {
        let mut m = RrcMachine::new(RrcConfig::default(), 17_017);
        run_until(&mut m, 0, 5_000);
        assert!(m.is_connected());
        assert_eq!(m.rnti(), 17_017);
        assert!(m.drain_transitions().is_empty());
    }

    #[test]
    fn scripted_release_cycles_and_changes_rnti() {
        let mut m = RrcMachine::new(RrcConfig::default(), 17_017);
        m.script_release(SimTime::from_millis(100));
        run_until(&mut m, 0, 1_000);
        assert!(m.is_connected());
        assert_ne!(m.rnti(), 17_017, "RNTI must change across re-establishment");
        let tr = m.drain_transitions();
        assert_eq!(tr.len(), 3); // Idle, Connecting, Connected
        assert_eq!(tr[0].state, RrcState::Idle);
        assert_eq!(tr[2].state, RrcState::Connected);
        // Total interruption ≈ idle + connecting ≈ 300 ms.
        let outage = tr[2].at.saturating_since(tr[0].at);
        assert!((250..=350).contains(&outage.as_millis()), "outage {outage}");
    }

    #[test]
    fn not_connected_during_outage() {
        let mut m = RrcMachine::new(RrcConfig::default(), 1);
        m.script_release(SimTime::from_millis(10));
        run_until(&mut m, 0, 100);
        assert!(!m.is_connected(), "should still be in outage at 100 ms");
    }

    #[test]
    fn random_releases_happen_at_configured_rate() {
        let cfg = RrcConfig {
            random_release_every: Some(SimDuration::from_secs(20)),
            ..Default::default()
        };
        let mut m = RrcMachine::new(cfg, 1);
        run_until(&mut m, 0, 120_000); // 2 minutes
        let releases = m
            .drain_transitions()
            .iter()
            .filter(|t| t.state == RrcState::Idle)
            .count();
        // Expect ~6 releases in 120 s at 1/20 s; allow wide slack.
        assert!((2..=14).contains(&releases), "releases {releases}");
    }
}
