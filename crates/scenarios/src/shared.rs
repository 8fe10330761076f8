//! Shared-cell driver: several diagnosed two-party calls riding *one*
//! [`CellSim`], contending for the same PRB budget alongside the cell's
//! scripted traffic UEs.
//!
//! The solo engine couples one session to one private cell; this driver
//! inverts the ownership. It holds the cell, gives each RTC call pair an
//! untapped session whose access is a set of mailboxes the driver fills,
//! and per engine tick runs:
//!
//! 1. [`SessionState::emit_tick`] on every active session — endpoints emit
//!    into their outboxes and the reverse path.
//! 2. Outbox flush — every session's staged packets enter the cell,
//!    addressed to its experiment UE.
//! 3. One `cell.poll` advances all UEs through the shared slot loop.
//! 4. Fan-out — per-UE deliveries and gNB records, plus a per-viewer copy
//!    of the whole control channel (`is_target_ue` stamped per pair), land
//!    in each session's inboxes.
//! 5. [`SessionState::collect_access`] on every session routes the
//!    deliveries onward; due route events dispatch in global
//!    `(time, session, seq)` order from the arena's [`SharedRouteQueue`].
//!
//! With one pair and no traffic UEs this pipeline is byte-identical to the
//! solo run of a [`SessionSpec`] with the same cell, config and scripts —
//! the shared-cell determinism suite asserts it — so sharing a cell is
//! purely additive: existing single-call traces never change.
//!
//! [`SessionSpec`]: crate::grid::SessionSpec
//! [`SharedRouteQueue`]: crate::session::SharedRouteQueue

use ran_sim::{CellConfig, CellSim};
use simcore::{derive_seed, SimDuration, SimTime};
use telemetry::{DciRecord, NullTap, TraceBundle};

use crate::grid::ScriptAction;
use crate::session::{SessionArena, SessionConfig, SessionState};

/// Drives N diagnosed call pairs over one shared cell to completion.
///
/// Pair 0 keeps the base [`SessionConfig`] verbatim (including its seed —
/// that is what makes the single-pair case reproduce a solo run exactly);
/// pair `i > 0` runs the same config under `derive_seed(seed, i)` so the
/// pairs' endpoint behaviour decorrelates.
pub struct SharedCellDriver {
    cell: CellSim,
    lanes: Vec<Option<SessionState>>,
    arena: SessionArena,
    tick: SimDuration,
    dci_scratch: Vec<(u32, DciRecord)>,
}

impl SharedCellDriver {
    /// Builds the cell (with its configured scripted traffic UEs), camps
    /// `pairs` experiment UEs on it, and prepares one shared-access RTC
    /// session per pair. `scripts` are applied to the cell, in order, before
    /// the calls start (cell-level ones like
    /// [`ScriptAction::CrossTraffic`] affect every pair; per-UE ones address
    /// experiment UE 0).
    pub fn new(
        cell_cfg: CellConfig,
        cfg: &SessionConfig,
        pairs: usize,
        scripts: &[ScriptAction],
    ) -> Self {
        assert!(pairs >= 1, "a shared cell needs at least one call pair");
        let mut arena = SessionArena::new();
        let mut cell = CellSim::new_in(cell_cfg, cfg.seed, arena.take_ue_table());
        for _ in 1..pairs {
            cell.add_experiment_ue();
        }
        for action in scripts {
            action.apply(&mut cell);
        }
        let lanes = (0..pairs)
            .map(|i| {
                let lane_cfg = if i == 0 {
                    cfg.clone()
                } else {
                    SessionConfig {
                        seed: derive_seed(cfg.seed, i as u64),
                        ..cfg.clone()
                    }
                };
                Some(SessionState::start_shared(
                    cell.config(),
                    &lane_cfg,
                    i as u32,
                    &mut arena,
                ))
            })
            .collect();
        SharedCellDriver {
            cell,
            lanes,
            arena,
            tick: cfg.tick,
            dci_scratch: Vec::new(),
        }
    }

    /// Number of scripted traffic UEs sharing the cell.
    pub fn n_traffic_ues(&self) -> usize {
        self.cell.n_traffic_ues()
    }

    /// Runs every pair to completion and returns one [`TraceBundle`] per
    /// pair, in pair order. Each bundle carries that pair's packets, app
    /// stats, per-UE gNB records, and its own viewpoint on the cell's whole
    /// control channel.
    pub fn run(mut self) -> Vec<TraceBundle> {
        let tap = &mut NullTap;
        let n = self.lanes.len();
        let mut bundles: Vec<Option<TraceBundle>> = (0..n).map(|_| None).collect();
        // A lane shorter than one tick is done before its first tick; it
        // finishes untouched, as the solo driver finishes it.
        for (lane, bundle) in self.lanes.iter_mut().zip(&mut bundles) {
            if lane.as_ref().is_some_and(SessionState::is_done) {
                let state = lane.take().expect("lane present");
                *bundle = Some(state.finish(tap, &mut self.arena));
            }
        }
        let mut cur: u64 = 0;
        while self.lanes.iter().any(Option::is_some) {
            cur += 1;
            let now = SimTime::ZERO + self.tick * cur;

            // 1. Endpoints emit (into outboxes and the reverse path).
            let (queue, scratch) = self.arena.route_parts();
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                if let Some(state) = lane {
                    state.emit_tick(tap, scratch, &mut queue.sink(i as u64, SimDuration::ZERO));
                }
            }

            // 2. Staged packets enter the shared cell.
            for lane in self.lanes.iter_mut().flatten() {
                lane.flush_shared_outbox(&mut self.cell);
            }

            // 3. One slot-loop advance covers every UE in the cell.
            self.cell.poll(now);

            // 4. Fan the cell's output out to the riding sessions.
            self.dci_scratch.clear();
            self.cell.drain_dci_tagged_into(&mut self.dci_scratch);
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                let Some(state) = lane else { continue };
                let ue = i as u32;
                let (inbox, dci, gnb) = state.shared_inboxes();
                self.cell.drain_deliveries_into(ue, inbox);
                for (tag, rec) in &self.dci_scratch {
                    let mut r = rec.clone();
                    r.is_target_ue = *tag == ue;
                    dci.push(r);
                }
                self.cell.drain_gnb_into(ue, gnb);
            }

            // 5. Deliveries continue along the paths; then the shared queue
            // dispatches due route events in (time, session, seq) order.
            let (queue, scratch) = self.arena.route_parts();
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                if let Some(state) = lane {
                    state.collect_access(scratch, &mut queue.sink(i as u64, SimDuration::ZERO));
                }
            }
            while let Some((at, sid, ev)) = queue.pop_due(now) {
                // Events of an already-finished pair are dropped, exactly as
                // a solo run drops its queue leftovers at session end.
                if let Some(state) = &mut self.lanes[sid as usize] {
                    state.route_event(at, ev, tap);
                }
            }

            // 6. Stats sampling + completion check per pair.
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                let finished = match lane {
                    Some(state) => state.end_tick(tap, self.arena.scratch_mut()),
                    None => false,
                };
                if finished {
                    let state = lane.take().expect("finished lane present");
                    bundles[i] = Some(state.finish(tap, &mut self.arena));
                }
            }
        }
        // The cell's scripted-UE table goes back to the arena free list,
        // keeping the run allocation-flat under repeated driver use.
        self.arena.return_ue_table(self.cell.take_ue_table());
        bundles
            .into_iter()
            .map(|b| b.expect("every pair finished"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells;
    use crate::grid::SessionSpec;
    use ran_sim::traffic_mix;
    use telemetry::Direction;

    fn cfg(seed: u64, secs: u64) -> SessionConfig {
        SessionConfig {
            duration: SimDuration::from_secs(secs),
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn single_pair_matches_solo_session_exactly() {
        // A zero-length call finishes before its first tick in both drivers.
        for session in [cfg(77, 10), cfg(77, 0)] {
            let solo = SessionSpec::cell(cells::amarisoft(), session.clone()).run();
            let shared = SharedCellDriver::new(cells::amarisoft(), &session, 1, &[]).run();
            assert_eq!(shared.len(), 1);
            crate::session::tests_support::assert_bundles_identical(&solo, &shared[0]);
        }
    }

    #[test]
    fn pairs_share_the_cell_and_see_each_other_in_dci() {
        let mut cell = cells::amarisoft();
        cell.traffic_ues = traffic_mix(8);
        let bundles = SharedCellDriver::new(cell, &cfg(5, 8), 2, &[]).run();
        assert_eq!(bundles.len(), 2);
        let rnti0: std::collections::BTreeSet<u32> = bundles[0]
            .dci
            .iter()
            .filter(|d| d.is_target_ue)
            .map(|d| d.rnti)
            .collect();
        let rnti1: std::collections::BTreeSet<u32> = bundles[1]
            .dci
            .iter()
            .filter(|d| d.is_target_ue)
            .map(|d| d.rnti)
            .collect();
        assert!(!rnti0.is_empty() && !rnti1.is_empty());
        assert!(rnti0.is_disjoint(&rnti1), "pairs must own distinct RNTIs");
        // Both viewers decode the same control channel.
        assert_eq!(bundles[0].dci.len(), bundles[1].dci.len());
        // Both pairs actually completed their calls.
        for b in &bundles {
            assert!(b.packets.len() > 500);
            let delivered = b.packets.iter().filter(|p| p.received.is_some()).count();
            assert!(delivered * 10 > b.packets.len() * 8, "most packets deliver");
            assert!(b
                .packets
                .iter()
                .any(|p| p.direction == Direction::Uplink && p.received.is_some()));
        }
    }

    #[test]
    fn driver_is_deterministic_across_runs() {
        let mk = || {
            let mut cell = cells::mosolabs();
            cell.traffic_ues = traffic_mix(4);
            SharedCellDriver::new(cell, &cfg(9, 6), 2, &[]).run()
        };
        let a = mk();
        let b = mk();
        for (x, y) in a.iter().zip(&b) {
            crate::session::tests_support::assert_bundles_identical(x, y);
        }
    }
}
