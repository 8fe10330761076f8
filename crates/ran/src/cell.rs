//! The cell frontend: composes channel, MAC, RLC, RRC and cross traffic into
//! a single pollable simulator with a packet-in / packet-out interface plus
//! telemetry taps (DCI stream, gNB log).
//!
//! The session engine drives a [`CellSim`] smoltcp-style: `enqueue` packets
//! as they reach the RAN edge (UE modem for UL, gNB for DL), call
//! [`CellSim::poll`] to advance slot processing up to the current instant,
//! and drain deliveries/telemetry.
//!
//! One `CellSim` carries N *experiment* UEs (diagnosed RTC endpoints with
//! full per-packet RLC/HARQ state) plus M *scripted traffic* UEs whose
//! state lives in the flat [`CellUeTable`] arrays — all contending for the
//! same PRB budget. Each slot runs one arrivals pass and one link-adaptation
//! sweep over the table, then a rotated round-robin allocation pass across
//! every UE that can still act (once the carrier is covered, only scripted
//! UEs with a busy HARQ lane can); the scalar cross-traffic aggregate
//! remains as a best-effort background load underneath. A cell with one experiment UE and no
//! scripted UEs is byte-identical to the pre-table simulator (pinned by
//! `tests/determinism.rs`).

use domino_obs::RanCellObs;
use rand::rngs::StdRng;
use simcore::{rng_for, RngStream, SimDuration, SimTime};
use telemetry::{CellClass, DciRecord, Direction, GnbEvent, GnbLogRecord, RrcState};

use crate::channel::{Channel, ChannelConfig, SinrOverride};
use crate::crosstraffic::{CrossTraffic, CrossTrafficConfig, CrossTrafficOverride};
use crate::frame::FrameStructure;
use crate::mac::{self, HarqOverride, LinkDir, MacConfig, SlotOutputs};
use crate::phy;
use crate::rlc::Sdu;
use crate::rrc::{RrcConfig, RrcMachine};
use crate::ue::{CellUeTable, TrafficUeConfig, UE_NONE};

/// Full configuration of a simulated 5G cell.
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// Human-readable name (Table 1 row).
    pub name: String,
    /// Commercial carrier or private CBRS.
    pub class: CellClass,
    /// Carrier frequency in MHz (metadata only).
    pub carrier_mhz: f64,
    /// Bandwidth in MHz (metadata only; capacity comes from `mac.n_prbs`).
    pub bandwidth_mhz: f64,
    /// Slot/duplexing structure.
    pub frame: FrameStructure,
    /// MAC/scheduler parameters.
    pub mac: MacConfig,
    /// Uplink channel process.
    pub ul_channel: ChannelConfig,
    /// Downlink channel process.
    pub dl_channel: ChannelConfig,
    /// Uplink cross-traffic process.
    pub ul_cross: CrossTrafficConfig,
    /// Downlink cross-traffic process.
    pub dl_cross: CrossTrafficConfig,
    /// RRC behaviour.
    pub rrc: RrcConfig,
    /// Whether gNB-internal logs (RLC/RRC events, buffer samples) are
    /// emitted — true only for private cells with log access.
    pub has_gnb_log: bool,
    /// Interval between RLC buffer samples in the gNB log.
    pub gnb_buffer_sample_every: SimDuration,
    /// Scripted traffic UEs sharing the cell with the experiment UEs.
    /// Their per-UE state lives in the SoA [`CellUeTable`]; empty means a
    /// private cell exactly as before this field existed.
    pub traffic_ues: Vec<TrafficUeConfig>,
}

/// A packet delivered through the RAN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Caller-assigned packet id (from [`CellSim::enqueue`]).
    pub id: u64,
    /// Direction it traversed.
    pub direction: Direction,
    /// Time the packet left the RAN (in-order RLC release).
    pub delivered_at: SimTime,
}

/// One diagnosed (experiment) UE: full per-packet RLC state, its own RRC
/// machine and RNG streams, and per-UE telemetry outboxes.
struct ExperimentUe {
    ul: LinkDir,
    dl: LinkDir,
    rrc: RrcMachine,
    rng_ch_ul: StdRng,
    rng_ch_dl: StdRng,
    rng_harq: StdRng,
    rng_rrc: StdRng,
    next_buffer_sample_at: SimTime,
    deliveries: Vec<Delivery>,
    gnb_log: Vec<GnbLogRecord>,
}

/// First `RngStream::Custom` id used for extra experiment UEs' streams. UE 0
/// keeps the four legacy streams, so adding UEs never perturbs existing
/// draws (the determinism contract for N=1 cells).
const EXTRA_UE_STREAM_BASE: u16 = 2000;
/// Streams consumed per extra experiment UE (channel ×2, HARQ, RRC).
const EXTRA_UE_STREAMS: u16 = 4;

impl ExperimentUe {
    fn new(cfg: &CellConfig, seed: u64, index: u32) -> Self {
        let streams = if index == 0 {
            [
                RngStream::ChannelUl,
                RngStream::ChannelDl,
                RngStream::HarqDecode,
                RngStream::Rrc,
            ]
        } else {
            let base = EXTRA_UE_STREAM_BASE + (index as u16 - 1) * EXTRA_UE_STREAMS;
            [
                RngStream::Custom(base),
                RngStream::Custom(base + 1),
                RngStream::Custom(base + 2),
                RngStream::Custom(base + 3),
            ]
        };
        ExperimentUe {
            ul: LinkDir::new(
                Direction::Uplink,
                Channel::new(cfg.ul_channel.clone()),
                &cfg.mac,
            ),
            dl: LinkDir::new(
                Direction::Downlink,
                Channel::new(cfg.dl_channel.clone()),
                &cfg.mac,
            ),
            rrc: RrcMachine::new(cfg.rrc.clone(), 17_435 + 977 * index),
            rng_ch_ul: rng_for(seed, streams[0]),
            rng_ch_dl: rng_for(seed, streams[1]),
            rng_harq: rng_for(seed, streams[2]),
            rng_rrc: rng_for(seed, streams[3]),
            next_buffer_sample_at: SimTime::ZERO,
            deliveries: Vec::new(),
            gnb_log: Vec::new(),
        }
    }

    fn link_mut(&mut self, dir: Direction) -> &mut LinkDir {
        match dir {
            Direction::Uplink => &mut self.ul,
            Direction::Downlink => &mut self.dl,
        }
    }
}

/// A slot-accurate simulation of one 5G cell carrying N experiment UEs, M
/// scripted traffic UEs (SoA table), and aggregate cross traffic.
pub struct CellSim {
    cfg: CellConfig,
    seed: u64,
    ues: Vec<ExperimentUe>,
    table: CellUeTable,
    cross_ul: CrossTraffic,
    cross_dl: CrossTraffic,
    next_slot: u64,
    rng_cross_ul: StdRng,
    rng_cross_dl: StdRng,
    /// Shared DCI log of the whole cell, with a parallel owner tag per
    /// record: the experiment-UE index, or [`UE_NONE`] for scripted traffic
    /// UEs and the cross-traffic aggregate. `is_target_ue` is stamped per
    /// viewer at drain time.
    dci_log: Vec<DciRecord>,
    dci_tag: Vec<u32>,
    /// Packets handed over but not yet visible to RLC: `poll` may process
    /// slots that started before the hand-over instant, and a packet must
    /// never ride a transport block older than itself. The `u32` after the
    /// time is the experiment-UE index.
    staged: Vec<(SimTime, u32, Direction, u64, u32)>,
    /// Per-slot output scratch, cleared and reused every slot × UE ×
    /// direction so the slot loop performs no steady-state allocation.
    slot_out: SlotOutputs,
    /// Observability accumulator (PRB utilization, HARQ retx, RLC queue
    /// depths), installed by the session layer when a recorder is on.
    /// `None` costs one predicted branch per direction pass; the
    /// accumulator only *reads* scheduler outputs, so enabling it never
    /// changes simulation behaviour.
    obs: Option<Box<RanCellObs>>,
}

impl CellSim {
    /// Creates a cell simulator with all randomness derived from `seed`,
    /// carrying one experiment UE plus the configured scripted traffic UEs.
    pub fn new(cfg: CellConfig, seed: u64) -> Self {
        Self::new_in(cfg, seed, CellUeTable::new())
    }

    /// Like [`CellSim::new`], but leasing `table` (typically from a session
    /// arena free list) as the scripted-UE storage instead of allocating a
    /// fresh one. The table is reconfigured from scratch, so warm and fresh
    /// tables produce byte-identical cells.
    pub fn new_in(cfg: CellConfig, seed: u64, mut table: CellUeTable) -> Self {
        table.configure(&cfg.traffic_ues, seed, cfg.frame.slot_duration);
        let cross_ul = CrossTraffic::new(cfg.ul_cross.clone());
        let cross_dl = CrossTraffic::new(cfg.dl_cross.clone());
        let ue0 = ExperimentUe::new(&cfg, seed, 0);
        CellSim {
            seed,
            ues: vec![ue0],
            table,
            cross_ul,
            cross_dl,
            next_slot: 0,
            rng_cross_ul: rng_for(seed, RngStream::CrossTrafficUl),
            rng_cross_dl: rng_for(seed, RngStream::CrossTrafficDl),
            dci_log: Vec::new(),
            dci_tag: Vec::new(),
            staged: Vec::new(),
            slot_out: SlotOutputs::default(),
            obs: None,
            cfg,
        }
    }

    /// Installs (or removes) the per-slot observability accumulator.
    pub fn set_obs(&mut self, obs: Option<Box<RanCellObs>>) {
        self.obs = obs;
    }

    /// Takes the accumulator so a worker recorder can absorb it.
    pub fn take_obs(&mut self) -> Option<Box<RanCellObs>> {
        self.obs.take()
    }

    /// Adds another experiment UE to the cell and returns its index. Each
    /// extra UE draws from its own `RngStream::Custom` block, so UE 0's
    /// streams — and therefore every existing single-UE trace — are
    /// unchanged.
    ///
    /// # Panics
    /// If slot processing has already started (UEs must camp before t=0).
    pub fn add_experiment_ue(&mut self) -> u32 {
        assert_eq!(
            self.next_slot, 0,
            "experiment UEs must be added before the first poll"
        );
        let index = self.ues.len() as u32;
        let ue = ExperimentUe::new(&self.cfg, self.seed, index);
        self.ues.push(ue);
        index
    }

    /// Reclaims the scripted-UE table for an arena free list. The cell must
    /// not be polled afterwards.
    pub fn take_ue_table(&mut self) -> CellUeTable {
        let mut t = std::mem::take(&mut self.table);
        t.clear();
        t
    }

    /// The cell's configuration.
    pub fn config(&self) -> &CellConfig {
        &self.cfg
    }

    /// Number of scripted traffic UEs in the SoA table.
    pub fn n_traffic_ues(&self) -> usize {
        self.table.len()
    }

    /// Current RNTI of experiment UE 0.
    pub fn rnti(&self) -> u32 {
        self.ues[0].rrc.rnti()
    }

    /// Hands a packet for experiment UE 0 to the RAN edge (UE modem for UL,
    /// gNB for DL) at time `now`.
    ///
    /// The packet is identified by `id`; its delivery shows up in
    /// [`CellSim::drain_deliveries_into`] once RLC releases it in order on the
    /// far side. It becomes visible to the scheduler only from the first
    /// slot starting at or after `now` (causality).
    pub fn enqueue(&mut self, now: SimTime, dir: Direction, id: u64, size_bytes: u32) {
        self.enqueue_for(0, now, dir, id, size_bytes);
    }

    /// [`CellSim::enqueue`] addressed to experiment UE `ue`.
    pub fn enqueue_for(&mut self, ue: u32, now: SimTime, dir: Direction, id: u64, size_bytes: u32) {
        debug_assert!((ue as usize) < self.ues.len());
        self.staged.push((now, ue, dir, id, size_bytes));
    }

    /// Advances slot processing through all slots starting at or before
    /// `now`.
    pub fn poll(&mut self, now: SimTime) {
        while self.cfg.frame.slot_start(self.next_slot) <= now {
            let slot = self.next_slot;
            self.next_slot += 1;
            self.process_slot(slot);
        }
    }

    fn process_slot(&mut self, slot: u64) {
        let now = self.cfg.frame.slot_start(slot);
        let dt = self.cfg.frame.slot_duration;

        // Admit staged packets that arrived before this slot started.
        let mut i = 0;
        while i < self.staged.len() {
            if self.staged[i].0 <= now {
                let (_, ue, dir, id, size) = self.staged.remove(i);
                self.ues[ue as usize].link_mut(dir).rlc_tx.enqueue(Sdu {
                    id,
                    size_bytes: size,
                });
            } else {
                i += 1;
            }
        }

        // RRC first: transitions gate everything else, per experiment UE.
        for ue in self.ues.iter_mut() {
            ue.rrc.step(now, dt, &mut ue.rng_rrc);
            for tr in ue.rrc.drain_transitions() {
                if tr.state != RrcState::Connected {
                    // Entering an outage: abandon in-flight HARQ, keep data.
                    if tr.state == RrcState::Idle {
                        ue.ul.reset_for_rrc(tr.at);
                        ue.dl.reset_for_rrc(tr.at);
                    }
                }
                if self.cfg.has_gnb_log {
                    ue.gnb_log.push(GnbLogRecord {
                        ts: tr.at,
                        event: GnbEvent::RrcTransition {
                            state: tr.state,
                            rnti: tr.rnti,
                        },
                    });
                }
            }
        }
        let any_connected = self.ues.iter().any(|u| u.rrc.is_connected());
        if !any_connected && self.table.is_empty() {
            return; // No PHY-layer transmissions during the outage (Fig. 19).
        }

        if let Some(o) = &mut self.obs {
            o.on_slot();
            // Per-UE RLC queue-depth samples, every 16th slot: experiment
            // UEs' RLC tx buffers plus every scripted UE's table column.
            if slot.is_multiple_of(16) {
                for ue in &self.ues {
                    o.sample_queue(ue.ul.rlc_tx.buffer_bytes());
                    o.sample_queue(ue.dl.rlc_tx.buffer_bytes());
                }
                for u in 0..self.table.len() {
                    o.sample_queue(self.table.queue_bytes(u, Direction::Uplink));
                    o.sample_queue(self.table.queue_bytes(u, Direction::Downlink));
                }
            }
        }

        // Uplink control plane: SR check and grant issuance (PDCCH slots).
        let dl_serving = self.cfg.frame.serves(slot, Direction::Downlink);
        for ue in self.ues.iter_mut() {
            if !ue.rrc.is_connected() {
                continue;
            }
            mac::check_sr(&mut ue.ul, now, &self.cfg.mac);
            if dl_serving {
                mac::issue_ul_grants(&mut ue.ul, &self.cfg.frame, &self.cfg.mac, slot, now);
            }
        }

        // Scripted-UE pass 1: accrue every traffic UE's offered load.
        if !self.table.is_empty() {
            self.table.pass_arrivals(now);
        }

        // Data plane, per serving direction.
        if dl_serving {
            self.direction_pass(slot, now, dt, Direction::Downlink);
        }
        if self.cfg.frame.serves(slot, Direction::Uplink) {
            self.direction_pass(slot, now, dt, Direction::Uplink);
        }

        // Periodic RLC buffer samples for the gNB log (private cells).
        if self.cfg.has_gnb_log {
            let every = self.cfg.gnb_buffer_sample_every;
            for ue in self.ues.iter_mut() {
                if !ue.rrc.is_connected() || now < ue.next_buffer_sample_at {
                    continue;
                }
                ue.gnb_log.push(GnbLogRecord {
                    ts: now,
                    event: GnbEvent::RlcBuffer {
                        direction: Direction::Uplink,
                        bytes: ue.ul.rlc_tx.buffer_bytes(),
                    },
                });
                ue.gnb_log.push(GnbLogRecord {
                    ts: now,
                    event: GnbEvent::RlcBuffer {
                        direction: Direction::Downlink,
                        bytes: ue.dl.rlc_tx.buffer_bytes(),
                    },
                });
                ue.next_buffer_sample_at = now + every;
            }
        }
    }

    /// One direction's data plane for one slot: cross-traffic demand, the
    /// scripted-UE link-adaptation sweep, then a rotated round-robin
    /// allocation pass over every UE contending for the carrier.
    fn direction_pass(&mut self, slot: u64, now: SimTime, dt: SimDuration, dir: Direction) {
        let (cross, rng_cross) = match dir {
            Direction::Uplink => (&mut self.cross_ul, &mut self.rng_cross_ul),
            Direction::Downlink => (&mut self.cross_dl, &mut self.rng_cross_dl),
        };
        let demand = cross.demand(now, dt, rng_cross);
        let total = self.cfg.mac.n_prbs as u32;
        let cross_prbs = ((demand.prb_fraction * total as f64).round() as u32).min(total);
        let dci_before = self.dci_log.len();

        // Scripted-UE pass 2: one SINR + CQI→MCS sweep over the table.
        if !self.table.is_empty() {
            let ch = match dir {
                Direction::Uplink => &self.cfg.ul_channel,
                Direction::Downlink => &self.cfg.dl_channel,
            };
            self.table.pass_link_adaptation(
                now,
                dir,
                ch.base_sinr_db,
                ch.shadow_sigma_db,
                &self.cfg.mac,
            );
        }

        // Pass 3: rotated round-robin grant allocation over all UEs. The
        // rotation start advances every slot so no UE is structurally
        // favoured; `hard_used` carries the PRBs already granted this slot.
        // Scripted UEs that `can_act` rules out are skipped: once the
        // carrier is covered, only busy HARQ lanes can still act.
        let n_exp = self.ues.len();
        let parts = n_exp + self.table.len();
        let start = (slot % parts as u64) as usize;
        let mut hard_used = 0u32;
        for k in 0..parts {
            let p = (start + k) % parts;
            if p < n_exp {
                let ue = &mut self.ues[p];
                if !ue.rrc.is_connected() {
                    continue;
                }
                let rnti = ue.rrc.rnti();
                let (link, rng_ch) = match dir {
                    Direction::Uplink => (&mut ue.ul, &mut ue.rng_ch_ul),
                    Direction::Downlink => (&mut ue.dl, &mut ue.rng_ch_dl),
                };
                self.slot_out.clear();
                hard_used += mac::process_slot(
                    link,
                    &self.cfg.frame,
                    &self.cfg.mac,
                    slot,
                    rnti,
                    hard_used,
                    cross_prbs,
                    rng_ch,
                    &mut ue.rng_harq,
                    &mut self.slot_out,
                );
                self.collect_for(p, dir);
            } else if self
                .table
                .can_act(p - n_exp, dir, hard_used, cross_prbs, total)
            {
                hard_used += self.table.allocate(
                    p - n_exp,
                    dir,
                    slot,
                    &self.cfg.frame,
                    &self.cfg.mac,
                    hard_used,
                    cross_prbs,
                    &mut self.dci_log,
                );
                self.dci_tag.resize(self.dci_log.len(), UE_NONE);
            }
        }

        if let Some(o) = &mut self.obs {
            o.on_direction_pass((hard_used + cross_prbs).min(total), total);
            let retx = self.dci_log[dci_before..]
                .iter()
                .filter(|d| d.harq_retx_idx > 0)
                .count();
            o.on_harq_retx(retx as u64);
        }

        self.emit_cross_dci(now, dir, demand.prb_fraction, demand.rnti);
    }

    /// Moves the reused `slot_out` scratch into the per-UE and cell logs.
    fn collect_for(&mut self, ue: usize, dir: Direction) {
        let u = &mut self.ues[ue];
        for d in self.slot_out.deliveries.drain(..) {
            u.deliveries.push(Delivery {
                id: d.sdu_id,
                direction: dir,
                delivered_at: d.released_at,
            });
        }
        self.dci_log.append(&mut self.slot_out.dci);
        self.dci_tag.resize(self.dci_log.len(), ue as u32);
        if self.cfg.has_gnb_log {
            for (at, sn) in self.slot_out.rlc_retx.drain(..) {
                u.gnb_log.push(GnbLogRecord {
                    ts: at,
                    event: GnbEvent::RlcRetx { direction: dir, sn },
                });
            }
        }
    }

    fn emit_cross_dci(&mut self, now: SimTime, dir: Direction, fraction: f64, rnti: u32) {
        if fraction <= 0.0 {
            return;
        }
        let n_prbs = ((self.cfg.mac.n_prbs as f64 * fraction).round() as u16).max(1);
        // Cross traffic runs at a nominal mid-range MCS; its exact rate is
        // irrelevant, only its PRB footprint matters to the detector.
        let mcs = 16;
        self.dci_log.push(DciRecord {
            ts: now,
            rnti,
            direction: dir,
            is_target_ue: false,
            n_prbs,
            mcs,
            tbs_bits: phy::tbs_bits(mcs, n_prbs),
            harq_id: 0,
            harq_retx_idx: 0,
            decoded_ok: true,
            proactive: false,
            used_bits: phy::tbs_bits(mcs, n_prbs),
        });
        self.dci_tag.push(UE_NONE);
    }

    /// Drains packets delivered to experiment UE `ue` since the last call
    /// into `out`, keeping both buffers' capacity.
    pub fn drain_deliveries_into(&mut self, ue: u32, out: &mut Vec<Delivery>) {
        out.append(&mut self.ues[ue as usize].deliveries);
    }

    /// Drains DCI records emitted since the last call into `out`, from
    /// experiment UE `ue`'s viewpoint: the whole cell's control channel with
    /// `is_target_ue` true exactly on `ue`'s own records — what a sniffer
    /// camping on that UE would decode.
    pub fn drain_dci_into(&mut self, ue: u32, out: &mut Vec<DciRecord>) {
        for (rec, &tag) in self.dci_log.iter().zip(&self.dci_tag) {
            let mut r = rec.clone();
            r.is_target_ue = tag == ue;
            out.push(r);
        }
        self.dci_log.clear();
        self.dci_tag.clear();
    }

    /// Drains DCI records with their owner tags (the experiment-UE index,
    /// or `u32::MAX` for a record of no experiment UE) — for drivers that
    /// fan one cell's control channel out to several diagnosed sessions.
    pub fn drain_dci_tagged_into(&mut self, out: &mut Vec<(u32, DciRecord)>) {
        for (rec, &tag) in self.dci_log.iter().zip(&self.dci_tag) {
            out.push((tag, rec.clone()));
        }
        self.dci_log.clear();
        self.dci_tag.clear();
    }

    /// Drains experiment UE `ue`'s gNB log records emitted since the last
    /// call into `out` (always empty for commercial cells).
    pub fn drain_gnb_into(&mut self, ue: u32, out: &mut Vec<GnbLogRecord>) {
        out.append(&mut self.ues[ue as usize].gnb_log);
    }

    // ---- Scripted scenario hooks (figure-regeneration harness) ----
    // All hooks address experiment UE 0, the original single diagnosed UE.

    /// Forces the SINR of `dir` to `sinr_db` during `[from, to)`.
    pub fn script_sinr(&mut self, dir: Direction, from: SimTime, to: SimTime, sinr_db: f64) {
        self.ues[0]
            .link_mut(dir)
            .channel
            .add_override(SinrOverride { from, to, sinr_db });
    }

    /// Forces cross traffic in `dir` to `prb_fraction` during `[from, to)`.
    pub fn script_cross_traffic(
        &mut self,
        dir: Direction,
        from: SimTime,
        to: SimTime,
        prb_fraction: f64,
    ) {
        let ov = CrossTrafficOverride {
            from,
            to,
            prb_fraction,
        };
        match dir {
            Direction::Uplink => self.cross_ul.add_override(ov),
            Direction::Downlink => self.cross_dl.add_override(ov),
        }
    }

    /// Forces HARQ attempts with index < `fail_attempts` to fail in `dir`
    /// during `[from, to)`.
    pub fn script_harq_failures(
        &mut self,
        dir: Direction,
        from: SimTime,
        to: SimTime,
        fail_attempts: u8,
    ) {
        self.ues[0].link_mut(dir).add_harq_override(HarqOverride {
            from,
            to,
            fail_attempts,
        });
    }

    /// Forces an RRC release at `at`.
    pub fn script_rrc_release(&mut self, at: SimTime) {
        self.ues[0].rrc.script_release(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crosstraffic::CrossTrafficConfig;
    use crate::frame::FrameStructure;
    use crate::mac::MacConfig;
    use crate::rrc::RrcConfig;
    use crate::ue::TRAFFIC_RNTI_BASE;

    fn quiet_cell() -> CellConfig {
        CellConfig {
            name: "test cell".to_string(),
            class: CellClass::Private,
            carrier_mhz: 3500.0,
            bandwidth_mhz: 20.0,
            frame: FrameStructure::tdd(SimDuration::from_micros(500), "DDDSU"),
            mac: MacConfig {
                n_prbs: 51,
                ..Default::default()
            },
            ul_channel: ChannelConfig {
                base_sinr_db: 25.0,
                shadow_sigma_db: 0.2,
                ..Default::default()
            },
            dl_channel: ChannelConfig {
                base_sinr_db: 25.0,
                shadow_sigma_db: 0.2,
                ..Default::default()
            },
            ul_cross: CrossTrafficConfig::quiet(),
            dl_cross: CrossTrafficConfig::quiet(),
            rrc: RrcConfig::default(),
            has_gnb_log: true,
            gnb_buffer_sample_every: SimDuration::from_millis(5),
            traffic_ues: vec![],
        }
    }

    fn drained_deliveries(cell: &mut CellSim) -> Vec<Delivery> {
        let mut out = Vec::new();
        cell.drain_deliveries_into(0, &mut out);
        out
    }

    fn drained_dci(cell: &mut CellSim) -> Vec<DciRecord> {
        let mut out = Vec::new();
        cell.drain_dci_into(0, &mut out);
        out
    }

    fn drained_gnb(cell: &mut CellSim) -> Vec<GnbLogRecord> {
        let mut out = Vec::new();
        cell.drain_gnb_into(0, &mut out);
        out
    }

    fn run_until(cell: &mut CellSim, ms: u64) -> Vec<Delivery> {
        cell.poll(SimTime::from_millis(ms));
        drained_deliveries(cell)
    }

    #[test]
    fn dl_packet_traverses_cell() {
        let mut cell = CellSim::new(quiet_cell(), 1);
        cell.enqueue(SimTime::ZERO, Direction::Downlink, 7, 1200);
        let out = run_until(&mut cell, 50);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 7);
        assert_eq!(out[0].direction, Direction::Downlink);
        // DL needs no grant: one or two slots plus decode latency.
        assert!(
            out[0].delivered_at.as_millis() <= 5,
            "{:?}",
            out[0].delivered_at
        );
    }

    #[test]
    fn ul_packet_pays_scheduling_delay() {
        let mut cell = CellSim::new(quiet_cell(), 2);
        cell.enqueue(SimTime::from_millis(10), Direction::Uplink, 9, 1200);
        let out = run_until(&mut cell, 100);
        assert_eq!(out.len(), 1);
        let delay = out[0]
            .delivered_at
            .saturating_since(SimTime::from_millis(10));
        // SR wait + grant pipeline + U-slot wait: 5–25 ms per the paper.
        assert!(
            (4..=30).contains(&delay.as_millis()),
            "UL scheduling delay {delay}"
        );
    }

    #[test]
    fn deliveries_preserve_per_direction_order() {
        let mut cell = CellSim::new(quiet_cell(), 3);
        for id in 0..50u64 {
            cell.enqueue(SimTime::from_millis(id), Direction::Uplink, id, 900);
            cell.poll(SimTime::from_millis(id));
        }
        let out = run_until(&mut cell, 400);
        assert_eq!(out.len(), 50);
        let ids: Vec<u64> = out.iter().map(|d| d.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "RLC AM must deliver in order");
        // Delivery timestamps are non-decreasing.
        assert!(out
            .windows(2)
            .all(|w| w[0].delivered_at <= w[1].delivered_at));
    }

    #[test]
    fn dci_log_records_target_ue_activity() {
        let mut cell = CellSim::new(quiet_cell(), 4);
        for id in 0..10u64 {
            cell.enqueue(SimTime::from_millis(id * 5), Direction::Downlink, id, 1500);
        }
        cell.poll(SimTime::from_millis(200));
        let dci = drained_dci(&mut cell);
        assert!(dci.iter().any(|d| d.is_target_ue));
        assert!(dci.iter().all(|d| d.rnti != 0));
        // Second drain is empty.
        assert!(drained_dci(&mut cell).is_empty());
    }

    #[test]
    fn gnb_log_gated_by_config() {
        let mut cfg = quiet_cell();
        cfg.has_gnb_log = false;
        let mut cell = CellSim::new(cfg, 5);
        cell.enqueue(SimTime::ZERO, Direction::Uplink, 1, 800);
        cell.poll(SimTime::from_millis(500));
        assert!(
            drained_gnb(&mut cell).is_empty(),
            "commercial-style cell must not leak gNB logs"
        );

        let mut cell = CellSim::new(quiet_cell(), 5);
        cell.enqueue(SimTime::ZERO, Direction::Uplink, 1, 800);
        cell.poll(SimTime::from_millis(500));
        assert!(
            !drained_gnb(&mut cell).is_empty(),
            "private cell emits buffer samples"
        );
    }

    #[test]
    fn scripted_rrc_release_blocks_delivery_during_outage() {
        let mut cell = CellSim::new(quiet_cell(), 6);
        cell.script_rrc_release(SimTime::from_millis(20));
        cell.poll(SimTime::from_millis(30));
        let rnti_before = cell.rnti();
        assert_ne!(cell.ues[0].rrc.state(), RrcState::Connected);
        // Data enqueued mid-outage waits it out (≈300 ms total interruption).
        cell.enqueue(SimTime::from_millis(30), Direction::Downlink, 42, 500);
        cell.poll(SimTime::from_millis(200));
        assert!(
            drained_deliveries(&mut cell).is_empty(),
            "still in outage at 200 ms"
        );
        cell.poll(SimTime::from_millis(500));
        let out = drained_deliveries(&mut cell);
        assert!(!out.is_empty(), "delivery after re-establishment");
        assert!(
            out[0].delivered_at.as_millis() >= 300,
            "{:?}",
            out[0].delivered_at
        );
        assert_ne!(
            cell.rnti(),
            rnti_before,
            "re-establishment assigns a new RNTI"
        );
    }

    #[test]
    fn no_delivery_before_enqueue_time() {
        let mut cell = CellSim::new(quiet_cell(), 7);
        for id in 0..20u64 {
            let at = SimTime::from_millis(100 + id * 7);
            cell.enqueue(at, Direction::Downlink, id, 700);
            cell.poll(at);
        }
        cell.poll(SimTime::from_secs(2));
        for d in drained_deliveries(&mut cell) {
            let enq = SimTime::from_millis(100 + d.id * 7);
            assert!(d.delivered_at >= enq, "causality violated for {}", d.id);
        }
    }

    #[test]
    fn traffic_ues_emit_dci_and_contend_for_prbs() {
        let mut cfg = quiet_cell();
        cfg.traffic_ues = (0..24)
            .map(|_| TrafficUeConfig::dl_streaming(6_000_000))
            .collect();
        let mut cell = CellSim::new(cfg, 11);
        for id in 0..40u64 {
            cell.enqueue(SimTime::from_millis(id * 5), Direction::Downlink, id, 1200);
        }
        cell.poll(SimTime::from_millis(400));
        let dci = drained_dci(&mut cell);
        let scripted: Vec<_> = dci
            .iter()
            .filter(|d| d.rnti >= TRAFFIC_RNTI_BASE && d.rnti < TRAFFIC_RNTI_BASE + 24)
            .collect();
        assert!(
            scripted.len() > 100,
            "24 streaming UEs should saturate DL slots ({} DCIs)",
            scripted.len()
        );
        assert!(scripted.iter().all(|d| !d.is_target_ue));
        assert!(dci.iter().any(|d| d.is_target_ue), "target still scheduled");
        // Per-slot PRB conservation: all grants in one DL slot fit the carrier.
        use std::collections::BTreeMap;
        let mut per_slot: BTreeMap<u64, u32> = BTreeMap::new();
        for d in dci.iter().filter(|d| d.direction == Direction::Downlink) {
            *per_slot.entry(d.ts.as_micros()).or_default() += d.n_prbs as u32;
        }
        // The scalar cross aggregate is quiet here, so UEs alone must fit.
        assert!(per_slot.values().all(|&p| p <= 51), "PRB overcommit");
    }

    #[test]
    fn second_experiment_ue_keeps_separate_telemetry() {
        let mut cell = CellSim::new(quiet_cell(), 12);
        let ue1 = cell.add_experiment_ue();
        assert_eq!(ue1, 1);
        assert_ne!(cell.ues[0].rrc.rnti(), cell.ues[1].rrc.rnti());
        cell.enqueue_for(0, SimTime::ZERO, Direction::Downlink, 100, 900);
        cell.enqueue_for(1, SimTime::ZERO, Direction::Downlink, 200, 900);
        cell.poll(SimTime::from_millis(100));
        let mut d0 = Vec::new();
        let mut d1 = Vec::new();
        cell.drain_deliveries_into(0, &mut d0);
        cell.drain_deliveries_into(1, &mut d1);
        assert_eq!(d0.len(), 1);
        assert_eq!(d1.len(), 1);
        assert_eq!(d0[0].id, 100);
        assert_eq!(d1[0].id, 200);
        // The shared DCI log tags each UE's records; viewed from UE 1, only
        // its own records are "target".
        let mut dci = Vec::new();
        cell.drain_dci_into(1, &mut dci);
        let rnti1 = cell.ues[1].rrc.rnti();
        assert!(dci
            .iter()
            .filter(|d| d.is_target_ue)
            .all(|d| d.rnti == rnti1));
        assert!(dci.iter().any(|d| d.is_target_ue));
        assert!(dci
            .iter()
            .any(|d| !d.is_target_ue && d.rnti == cell.ues[0].rrc.rnti()));
    }
}
