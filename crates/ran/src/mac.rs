//! MAC layer: per-slot scheduling, the uplink request–grant procedure,
//! proactive grants, and HARQ.
//!
//! This module implements the mechanisms of paper §5.2 and Fig. 15:
//!
//! * **Downlink**: the gNB sees its own RLC buffer and schedules directly,
//!   subject to PRB contention with cross traffic.
//! * **Uplink**: the request–grant loop — Scheduling Request at the next SR
//!   opportunity, Buffer Status Report piggybacked on every uplink TB, a
//!   grant pipeline delay of `k` slots, and (TDD) waiting for the next U
//!   slot. Together these produce the 5–25 ms uplink scheduling delay and
//!   the intra-frame *delay spread* of Fig. 14.
//! * **Proactive grants** (Mosolabs mode, Fig. 16): small periodic grants
//!   issued before any BSR, which cut first-packet latency but waste
//!   capacity when they go unused and cause over-granting because the BSR
//!   is stale by the time its requested grant arrives.
//! * **HARQ** (Fig. 17): per-process retransmission with a fixed RTT; after
//!   `max_harq_attempts` failures the TB is abandoned to RLC ARQ (Fig. 18).

use rand::Rng;
use simcore::{SimDuration, SimTime};
use telemetry::{DciRecord, Direction};

use crate::channel::Channel;
use crate::frame::FrameStructure;
use crate::phy::{self, OuterLoop};
use crate::rlc::{Pdu, RlcRx, RlcTx, SduDelivery, SegmentPool};

/// Proactive-grant configuration (Mosolabs-style).
#[derive(Debug, Clone)]
pub struct ProactiveGrantConfig {
    /// Interval between proactive grants.
    pub period: SimDuration,
    /// Bytes pre-allocated per proactive grant.
    pub bytes: u32,
}

/// MAC/scheduler configuration of a cell.
#[derive(Debug, Clone)]
pub struct MacConfig {
    /// Cell bandwidth in PRBs.
    pub n_prbs: u16,
    /// Maximum HARQ transmission attempts per TB (including the initial).
    pub max_harq_attempts: u8,
    /// Time from a NACKed attempt to its retransmission.
    pub harq_rtt: SimDuration,
    /// Number of parallel HARQ processes per direction.
    pub n_harq_processes: usize,
    /// Latency from slot start to decoded data being available upstream.
    pub decode_latency: SimDuration,
    /// Period of uplink Scheduling Request opportunities.
    pub sr_period: SimDuration,
    /// Slots between a grant decision (PDCCH) and the granted UL slot (k2
    /// plus gNB processing).
    pub grant_pipeline_slots: u64,
    /// Delay from HARQ abandonment to the RLC retransmission becoming
    /// eligible (status-report round trip). Fig. 18: ≈105 ms total delay.
    pub rlc_status_delay: SimDuration,
    /// MCS cap for the uplink (conservative selection on some cells).
    pub mcs_cap_ul: u8,
    /// MCS cap for the downlink.
    pub mcs_cap_dl: u8,
    /// Extra SINR margin (dB, ≤ 0 conservative) for UL MCS selection.
    pub margin_db_ul: f64,
    /// Extra SINR margin for DL MCS selection.
    pub margin_db_dl: f64,
    /// Below this MCS the scheduler also caps the UE's PRB share
    /// ("the scheduler assigns fewer PRBs to a UE with poor channel
    /// conditions", §5.1.1).
    pub poor_channel_mcs_threshold: u8,
    /// PRB fraction cap applied in poor-channel conditions.
    pub poor_channel_prb_cap: f64,
    /// Proactive grants, if the cell uses them.
    pub proactive_grant: Option<ProactiveGrantConfig>,
    /// Outer-loop link adaptation BLER target.
    pub bler_target: f64,
    /// OLLA down-step in dB.
    pub olla_step_db: f64,
}

impl Default for MacConfig {
    fn default() -> Self {
        MacConfig {
            n_prbs: 51,
            max_harq_attempts: 4,
            harq_rtt: SimDuration::from_millis(10),
            n_harq_processes: 16,
            decode_latency: SimDuration::from_millis(1),
            sr_period: SimDuration::from_millis(5),
            grant_pipeline_slots: 8,
            rlc_status_delay: SimDuration::from_millis(55),
            mcs_cap_ul: phy::MAX_MCS,
            mcs_cap_dl: phy::MAX_MCS,
            margin_db_ul: 0.0,
            margin_db_dl: 0.0,
            poor_channel_mcs_threshold: 6,
            poor_channel_prb_cap: 0.5,
            proactive_grant: None,
            bler_target: 0.1,
            olla_step_db: 0.3,
        }
    }
}

/// An uplink grant pending for a future slot.
///
/// BSR-driven and proactive bytes are tracked separately because only the
/// former count against the gNB's in-flight covered-buffer estimate.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Grant {
    /// Bytes granted in response to a Buffer Status Report.
    pub bsr_bytes: u32,
    /// Bytes granted proactively (before/without a BSR).
    pub proactive_bytes: u32,
}

impl Grant {
    /// Total bytes the UE may transmit on this grant.
    pub(crate) fn total_bytes(&self) -> u32 {
        self.bsr_bytes + self.proactive_bytes
    }

    /// Whether any part was issued proactively.
    pub(crate) fn is_proactive(&self) -> bool {
        self.proactive_bytes > 0
    }
}

/// A scripted window during which HARQ attempts with index below
/// `fail_attempts` are forced to fail (figure-regeneration harness).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HarqOverride {
    /// Window start.
    pub from: SimTime,
    /// Window end.
    pub to: SimTime,
    /// Attempts `< fail_attempts` fail deterministically; e.g. 1 forces one
    /// retransmission (Fig. 17), `max_harq_attempts` forces RLC ARQ (Fig. 18).
    pub fail_attempts: u8,
}

#[derive(Debug, Clone)]
struct HarqProcess {
    pdu: Pdu,
    mcs: u8,
    n_prbs: u16,
    tbs_bits: u32,
    /// Transmissions performed so far (1 after the initial attempt).
    attempts_done: u8,
    next_tx_at: SimTime,
}

/// Everything a direction's slot processing produced.
#[derive(Debug, Default)]
pub(crate) struct SlotOutputs {
    /// Completed SDUs released by RLC (in order), with release times.
    pub deliveries: Vec<SduDelivery>,
    /// DCI records emitted this slot.
    pub dci: Vec<DciRecord>,
    /// RLC ARQ retransmissions initiated this slot: `(eligible_at, sn)`.
    pub rlc_retx: Vec<(SimTime, u32)>,
}

impl SlotOutputs {
    /// Empties all three output vectors, keeping their capacity — the cell
    /// frontend reuses one `SlotOutputs` across every slot it processes.
    pub(crate) fn clear(&mut self) {
        self.deliveries.clear();
        self.dci.clear();
        self.rlc_retx.clear();
    }
}

/// Per-direction link state: RLC entities, channel, HARQ, grant machinery.
#[derive(Debug)]
pub(crate) struct LinkDir {
    /// Which direction this link carries.
    pub dir: Direction,
    /// Transmit-side RLC entity (UE for UL, gNB for DL).
    pub rlc_tx: RlcTx,
    /// Receive-side RLC entity.
    pub rlc_rx: RlcRx,
    /// SINR process for this direction.
    pub channel: Channel,
    olla: OuterLoop,
    harq: Vec<Option<HarqProcess>>,
    harq_overrides: Vec<HarqOverride>,
    /// Recycled segment buffers shared by this direction's RLC tx/rx pair.
    seg_pool: SegmentPool,
    // --- Uplink grant machinery (unused for DL) ---
    /// Pending grants as a slot-sorted vec: a handful of near-future entries
    /// at most, so binary search + memmove beat a node-allocating map.
    pending_grants: Vec<(u64, Grant)>,
    gnb_known_buffer: u64,
    granted_inflight: u64,
    next_sr_at: SimTime,
    next_proactive_at: SimTime,
    next_grantable_slot: u64,
    /// Most recent SINR sample (telemetry for the rate-gap plots).
    pub last_sinr_db: f64,
}

impl LinkDir {
    /// Creates link state for one direction.
    pub(crate) fn new(dir: Direction, channel: Channel, mac: &MacConfig) -> Self {
        LinkDir {
            dir,
            rlc_tx: RlcTx::new(),
            rlc_rx: RlcRx::new(),
            channel,
            olla: OuterLoop::new(mac.bler_target, mac.olla_step_db),
            harq: vec![None; mac.n_harq_processes],
            harq_overrides: Vec::new(),
            seg_pool: SegmentPool::default(),
            pending_grants: Vec::new(),
            gnb_known_buffer: 0,
            granted_inflight: 0,
            next_sr_at: SimTime::ZERO,
            next_proactive_at: SimTime::ZERO,
            next_grantable_slot: 0,
            last_sinr_db: 0.0,
        }
    }

    /// Registers a scripted HARQ-failure window.
    pub(crate) fn add_harq_override(&mut self, ov: HarqOverride) {
        self.harq_overrides.push(ov);
    }

    fn forced_fail(&self, now: SimTime, attempt_idx: u8) -> bool {
        self.harq_overrides
            .iter()
            .any(|ov| now >= ov.from && now < ov.to && attempt_idx < ov.fail_attempts)
    }

    fn free_harq_slot(&self) -> Option<usize> {
        self.harq.iter().position(Option::is_none)
    }

    /// Abandons all in-flight HARQ processes, rescheduling their payloads as
    /// immediately-eligible RLC retransmissions (RRC re-establishment path;
    /// sequence numbers are preserved so the receiver's reorder state stays
    /// consistent).
    pub(crate) fn reset_for_rrc(&mut self, now: SimTime) {
        for slot in &mut self.harq {
            if let Some(p) = slot.take() {
                self.rlc_tx.schedule_retx(now, p.pdu);
            }
        }
        self.pending_grants.clear();
        self.gnb_known_buffer = 0;
        self.granted_inflight = 0;
        self.next_sr_at = now;
        self.next_grantable_slot = 0;
    }

    /// Mutable access to the grant pending for `slot`, inserting a default
    /// entry at its sorted position if absent.
    fn grant_entry(&mut self, slot: u64) -> &mut Grant {
        let pos = self.pending_grants.partition_point(|&(s, _)| s < slot);
        if self.pending_grants.get(pos).is_none_or(|&(s, _)| s != slot) {
            self.pending_grants.insert(pos, (slot, Grant::default()));
        }
        &mut self.pending_grants[pos].1
    }

    /// Removes and returns the grant pending for exactly `slot`.
    fn take_grant(&mut self, slot: u64) -> Option<Grant> {
        let pos = self.pending_grants.partition_point(|&(s, _)| s < slot);
        if self
            .pending_grants
            .get(pos)
            .is_some_and(|&(s, _)| s == slot)
        {
            Some(self.pending_grants.remove(pos).1)
        } else {
            None
        }
    }
}

/// Uplink Scheduling Request check — run every slot on the UE side.
///
/// If the UE holds data the gNB does not know about and an SR opportunity
/// has arrived, the gNB learns the buffer status (SR + first BSR).
pub(crate) fn check_sr(link: &mut LinkDir, now: SimTime, mac: &MacConfig) {
    debug_assert_eq!(link.dir, Direction::Uplink);
    let buffered = link.rlc_tx.buffer_bytes();
    if buffered > 0
        && link.gnb_known_buffer == 0
        && link.granted_inflight == 0
        && now >= link.next_sr_at
    {
        link.gnb_known_buffer = buffered;
        // Next opportunity on the SR grid.
        let period = mac.sr_period.as_micros();
        let next = (now.as_micros() / period + 1) * period;
        link.next_sr_at = SimTime::from_micros(next);
    }
}

/// Uplink grant issuance — run in every PDCCH-capable (DL-serving) slot.
pub(crate) fn issue_ul_grants(
    link: &mut LinkDir,
    frame: &FrameStructure,
    mac: &MacConfig,
    slot: u64,
    now: SimTime,
) {
    debug_assert_eq!(link.dir, Direction::Uplink);

    // Proactive grants: periodic, independent of BSR state.
    if let Some(pg) = &mac.proactive_grant {
        if now >= link.next_proactive_at {
            let target =
                frame.next_serving_slot(slot + mac.grant_pipeline_slots, Direction::Uplink);
            link.grant_entry(target).proactive_bytes += pg.bytes;
            link.next_proactive_at = now + pg.period;
        }
    }

    // BSR-driven grants: cover buffer the gNB knows about and has not yet
    // granted; one grant (TB) per uplink slot.
    let uncovered = link.gnb_known_buffer.saturating_sub(link.granted_inflight);
    if uncovered == 0 {
        return;
    }
    let earliest = frame.next_serving_slot(slot + mac.grant_pipeline_slots, Direction::Uplink);
    let target = if link.next_grantable_slot > earliest {
        frame.next_serving_slot(link.next_grantable_slot, Direction::Uplink)
    } else {
        earliest
    };
    // Grant at most one max-size TB based on the gNB's channel estimate.
    let mcs_est = phy::select_mcs(
        link.last_sinr_db,
        link.olla.offset_db(),
        mac.margin_db_ul,
        mac.mcs_cap_ul,
    );
    let max_tb_bytes = (phy::tbs_bits(mcs_est, mac.n_prbs) / 8).max(64);
    let bytes = uncovered.min(max_tb_bytes as u64) as u32;
    link.grant_entry(target).bsr_bytes += bytes;
    link.granted_inflight += bytes as u64;
    link.next_grantable_slot = target + 1;
}

/// Processes one serving slot for a direction: HARQ retransmissions first,
/// then (capacity permitting) one new transport block.
///
/// `hard_reserved_prbs` are PRBs already granted to other UEs this slot by
/// earlier positions in the cell's allocation rotation — they shrink both
/// the retransmission room and the new-TX budget. `cross_prbs` is the
/// scalar cross-traffic aggregate's share (pre-rounded by the caller); like
/// a real scheduler's best-effort background, it yields to retransmissions
/// and only constrains new data. `rnti` is this UE's current identifier.
///
/// Returns the PRBs this UE consumed, so the caller can accumulate the
/// rotation's running `hard_reserved_prbs`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn process_slot<R: Rng + ?Sized>(
    link: &mut LinkDir,
    frame: &FrameStructure,
    mac: &MacConfig,
    slot: u64,
    rnti: u32,
    hard_reserved_prbs: u32,
    cross_prbs: u32,
    rng_channel: &mut R,
    rng_harq: &mut R,
    out: &mut SlotOutputs,
) -> u32 {
    let now = frame.slot_start(slot);
    let sinr = link.channel.sinr_db(now, rng_channel);
    link.last_sinr_db = sinr;
    let total = mac.n_prbs as u32;
    let mut used_prbs = 0u32;

    // ---- 1. HARQ retransmissions due in this slot ----
    for i in 0..link.harq.len() {
        let due = link.harq[i].as_ref().is_some_and(|p| p.next_tx_at <= now);
        if !due {
            continue;
        }
        let p = link.harq[i].as_mut().expect("checked above");
        if hard_reserved_prbs + used_prbs + p.n_prbs as u32 > total {
            // No room this slot; retry next serving slot.
            p.next_tx_at = frame.slot_start(frame.next_serving_slot(slot + 1, link.dir));
            continue;
        }
        used_prbs += p.n_prbs as u32;
        let retx_idx = p.attempts_done;
        let fail = link
            .harq_overrides
            .iter()
            .any(|ov| now >= ov.from && now < ov.to && retx_idx < ov.fail_attempts)
            || rng_harq.gen::<f64>() < phy::fail_probability(sinr, p.mcs, retx_idx);
        out.dci.push(DciRecord {
            ts: now,
            rnti,
            direction: link.dir,
            is_target_ue: true,
            n_prbs: p.n_prbs,
            mcs: p.mcs,
            tbs_bits: p.tbs_bits,
            harq_id: i as u8,
            harq_retx_idx: retx_idx,
            decoded_ok: !fail,
            proactive: false,
            used_bits: p.pdu.bytes * 8,
        });
        if !fail {
            let p = link.harq[i].take().expect("process present");
            link.rlc_rx.receive_into(
                now + mac.decode_latency,
                p.pdu,
                &mut out.deliveries,
                &mut link.seg_pool,
            );
        } else {
            p.attempts_done += 1;
            if p.attempts_done >= mac.max_harq_attempts {
                let p = link.harq[i].take().expect("process present");
                let eligible = now + mac.rlc_status_delay;
                out.rlc_retx.push((eligible, p.pdu.sn));
                link.rlc_tx.schedule_retx(eligible, p.pdu);
            } else {
                p.next_tx_at = now + mac.harq_rtt;
            }
        }
    }

    // ---- 2. One new transmission, if capacity and data allow ----
    let grant = match link.dir {
        Direction::Uplink => {
            let g = link.take_grant(slot);
            if let Some(g) = &g {
                // Only BSR-driven bytes were counted as covering the buffer.
                link.granted_inflight = link.granted_inflight.saturating_sub(g.bsr_bytes as u64);
            }
            g
        }
        Direction::Downlink => None,
    };
    let may_send_new = match link.dir {
        Direction::Uplink => grant.is_some(),
        Direction::Downlink => true,
    };
    if !may_send_new {
        return used_prbs;
    }

    let mut budget = total
        .saturating_sub(cross_prbs)
        .saturating_sub(hard_reserved_prbs)
        .saturating_sub(used_prbs);
    let (cap, margin) = match link.dir {
        Direction::Uplink => (mac.mcs_cap_ul, mac.margin_db_ul),
        Direction::Downlink => (mac.mcs_cap_dl, mac.margin_db_dl),
    };
    let mcs = phy::select_mcs(sinr, link.olla.offset_db(), margin, cap);
    if mcs < mac.poor_channel_mcs_threshold {
        budget = budget.min((total as f64 * mac.poor_channel_prb_cap) as u32);
    }

    let buffered = link.rlc_tx.buffer_bytes();
    let allowance_bytes = match (&grant, link.dir) {
        (Some(g), _) => g.total_bytes(),
        (None, Direction::Downlink) => buffered.min(u32::MAX as u64) as u32,
        (None, Direction::Uplink) => 0,
    };

    if budget == 0 {
        // Grant existed but no PRBs left (cross traffic ate them); the data
        // stays buffered — this *is* the delay mechanism of Fig. 13.
        if link.dir == Direction::Uplink {
            refresh_bsr(link);
        }
        return used_prbs;
    }

    // Size the allocation: enough PRBs for min(data, grant), capped by budget.
    let want_bytes = allowance_bytes.min(buffered.min(u32::MAX as u64) as u32);
    let max_tb_bytes = phy::tbs_bits(mcs, budget as u16) / 8;
    let retx_pending = link.rlc_tx.retx_due(now);
    if want_bytes == 0 && !retx_pending {
        // Nothing to send. An unused proactive grant is still logged — the
        // wasted-bandwidth bars of Fig. 16.
        if let Some(g) = grant {
            if g.is_proactive() {
                let prbs = phy::prbs_needed(mcs, g.total_bytes() * 8)
                    .min(budget as u16)
                    .max(1);
                out.dci.push(DciRecord {
                    ts: now,
                    rnti,
                    direction: link.dir,
                    is_target_ue: true,
                    n_prbs: prbs,
                    mcs,
                    tbs_bits: phy::tbs_bits(mcs, prbs),
                    harq_id: u8::MAX,
                    harq_retx_idx: 0,
                    decoded_ok: true,
                    proactive: true,
                    used_bits: 0,
                });
                // The wasted grant still occupies spectrum.
                used_prbs += prbs as u32;
            }
        }
        if link.dir == Direction::Uplink {
            refresh_bsr(link);
        }
        return used_prbs;
    }

    let Some(hp) = link.free_harq_slot() else {
        return used_prbs; // all HARQ processes busy; retry next slot
    };

    let tb_limit_bytes = want_bytes
        .min(max_tb_bytes)
        .max(if retx_pending { 1 } else { 0 });
    let Some(pdu) = link
        .rlc_tx
        .build_pdu_pooled(now, tb_limit_bytes, &mut link.seg_pool)
    else {
        if link.dir == Direction::Uplink {
            refresh_bsr(link);
        }
        return used_prbs;
    };

    // PRBs actually needed for the payload (retx PDUs keep their size).
    let payload_bits = pdu.bytes * 8;
    let n_prbs = phy::prbs_needed(mcs, payload_bits).min(mac.n_prbs).max(1);
    // Grant nominal size may exceed payload: that gap is over-granting waste
    // (the unfilled green bars of Fig. 16).
    let nominal_bits = match &grant {
        Some(g) => phy::tbs_bits(
            mcs,
            phy::prbs_needed(mcs, g.total_bytes() * 8)
                .min(mac.n_prbs)
                .max(n_prbs),
        ),
        None => phy::tbs_bits(mcs, n_prbs),
    };
    let tbs = phy::tbs_bits(mcs, n_prbs).max(payload_bits);

    let fail =
        link.forced_fail(now, 0) || rng_harq.gen::<f64>() < phy::fail_probability(sinr, mcs, 0);
    link.olla.observe(!fail);
    used_prbs += n_prbs as u32;
    out.dci.push(DciRecord {
        ts: now,
        rnti,
        direction: link.dir,
        is_target_ue: true,
        n_prbs,
        mcs,
        tbs_bits: nominal_bits.max(tbs),
        harq_id: hp as u8,
        harq_retx_idx: 0,
        decoded_ok: !fail,
        proactive: grant.as_ref().is_some_and(|g| g.is_proactive()),
        used_bits: payload_bits,
    });

    if !fail {
        link.rlc_rx.receive_into(
            now + mac.decode_latency,
            pdu,
            &mut out.deliveries,
            &mut link.seg_pool,
        );
    } else if mac.max_harq_attempts <= 1 {
        // HARQ budget exhausted by the initial attempt: straight to RLC ARQ.
        let eligible = now + mac.rlc_status_delay;
        out.rlc_retx.push((eligible, pdu.sn));
        link.rlc_tx.schedule_retx(eligible, pdu);
    } else {
        link.harq[hp] = Some(HarqProcess {
            pdu,
            mcs,
            n_prbs,
            tbs_bits: tbs,
            attempts_done: 1,
            next_tx_at: now + mac.harq_rtt,
        });
    }

    if link.dir == Direction::Uplink {
        refresh_bsr(link);
    }
    used_prbs
}

/// BSR piggyback: after an uplink transmission opportunity the gNB's view of
/// the UE buffer is refreshed to its true current value.
fn refresh_bsr(link: &mut LinkDir) {
    link.gnb_known_buffer = link.rlc_tx.buffer_bytes();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Channel, ChannelConfig};
    use crate::rlc::Sdu;
    use simcore::{rng_for, RngStream};

    fn good_channel() -> Channel {
        Channel::new(ChannelConfig {
            base_sinr_db: 25.0,
            shadow_sigma_db: 0.1,
            ..Default::default()
        })
    }

    fn fdd() -> FrameStructure {
        FrameStructure::fdd(SimDuration::from_millis(1))
    }

    /// Drives DL slots until the queue drains; returns (deliveries, dci).
    fn drain_dl(
        link: &mut LinkDir,
        frame: &FrameStructure,
        mac: &MacConfig,
        max_slots: u64,
    ) -> SlotOutputs {
        let mut rng_ch = rng_for(1, RngStream::ChannelDl);
        let mut rng_harq = rng_for(1, RngStream::HarqDecode);
        let mut out = SlotOutputs::default();
        for slot in 0..max_slots {
            process_slot(
                link,
                frame,
                mac,
                slot,
                4242,
                0,
                0,
                &mut rng_ch,
                &mut rng_harq,
                &mut out,
            );
            // buffer_bytes includes pending RLC retransmissions.
            if link.rlc_tx.buffer_bytes() == 0 && !link.harq.iter().any(Option::is_some) {
                break;
            }
        }
        out
    }

    #[test]
    fn dl_delivers_packet_quickly_on_good_channel() {
        let mac = MacConfig {
            n_prbs: 100,
            ..Default::default()
        };
        let frame = fdd();
        let mut link = LinkDir::new(Direction::Downlink, good_channel(), &mac);
        link.rlc_tx.enqueue(Sdu {
            id: 1,
            size_bytes: 1200,
        });
        let out = drain_dl(&mut link, &frame, &mac, 100);
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(out.deliveries[0].sdu_id, 1);
        // One slot + decode latency.
        assert!(out.deliveries[0].released_at.as_millis() <= 3);
        assert!(out.dci.iter().all(|d| d.decoded_ok));
    }

    #[test]
    fn ul_requires_grant_pipeline() {
        let mac = MacConfig {
            n_prbs: 100,
            grant_pipeline_slots: 8,
            ..Default::default()
        };
        let frame = fdd();
        let mut link = LinkDir::new(Direction::Uplink, good_channel(), &mac);
        link.rlc_tx.enqueue(Sdu {
            id: 7,
            size_bytes: 1200,
        });
        let mut rng_ch = rng_for(2, RngStream::ChannelUl);
        let mut rng_harq = rng_for(2, RngStream::HarqDecode);
        let mut out = SlotOutputs::default();
        for slot in 0..100 {
            let now = frame.slot_start(slot);
            check_sr(&mut link, now, &mac);
            issue_ul_grants(&mut link, &frame, &mac, slot, now);
            process_slot(
                &mut link,
                &frame,
                &mac,
                slot,
                1,
                0,
                0,
                &mut rng_ch,
                &mut rng_harq,
                &mut out,
            );
            if !out.deliveries.is_empty() {
                break;
            }
        }
        assert_eq!(out.deliveries.len(), 1);
        let d = out.deliveries[0].released_at;
        // Must reflect the request-grant latency: > pipeline slots, well under 50 ms.
        assert!(d.as_millis() >= mac.grant_pipeline_slots, "{d:?}");
        assert!(d.as_millis() < 50, "{d:?}");
    }

    #[test]
    fn forced_harq_failure_adds_one_rtt() {
        let mac = MacConfig {
            n_prbs: 100,
            harq_rtt: SimDuration::from_millis(10),
            ..Default::default()
        };
        let frame = fdd();

        // Baseline: no failure.
        let mut link = LinkDir::new(Direction::Downlink, good_channel(), &mac);
        link.rlc_tx.enqueue(Sdu {
            id: 1,
            size_bytes: 800,
        });
        let base = drain_dl(&mut link, &frame, &mac, 200).deliveries[0].released_at;

        // One forced initial failure.
        let mut link = LinkDir::new(Direction::Downlink, good_channel(), &mac);
        link.add_harq_override(HarqOverride {
            from: SimTime::ZERO,
            to: SimTime::from_millis(5),
            fail_attempts: 1,
        });
        link.rlc_tx.enqueue(Sdu {
            id: 1,
            size_bytes: 800,
        });
        let delayed = drain_dl(&mut link, &frame, &mac, 200).deliveries[0].released_at;

        let inflation = delayed.saturating_since(base).as_millis();
        assert!(
            (9..=12).contains(&inflation),
            "HARQ should add ≈ one RTT, got {inflation} ms"
        );
    }

    #[test]
    fn harq_exhaustion_falls_to_rlc_with_status_delay() {
        let mac = MacConfig {
            n_prbs: 100,
            harq_rtt: SimDuration::from_millis(10),
            rlc_status_delay: SimDuration::from_millis(55),
            ..Default::default()
        };
        let frame = fdd();
        let mut link = LinkDir::new(Direction::Downlink, good_channel(), &mac);
        // Fail the initial + all HARQ retx (4 attempts) within the window.
        link.add_harq_override(HarqOverride {
            from: SimTime::ZERO,
            to: SimTime::from_millis(45),
            fail_attempts: 4,
        });
        link.rlc_tx.enqueue(Sdu {
            id: 1,
            size_bytes: 800,
        });
        let out = drain_dl(&mut link, &frame, &mac, 500);
        assert_eq!(out.rlc_retx.len(), 1, "exactly one RLC ARQ event");
        assert_eq!(out.deliveries.len(), 1);
        let d = out.deliveries[0].released_at.as_millis();
        // initial(0) + 3 retx (10,20,30) + status 55 ≈ 85+ ms, ≈105 with slack.
        assert!((80..=130).contains(&d), "RLC recovery delay {d} ms");
    }

    #[test]
    fn hol_blocking_releases_burst_together() {
        let mac = MacConfig {
            n_prbs: 20, // small TBs → several PDUs
            harq_rtt: SimDuration::from_millis(10),
            rlc_status_delay: SimDuration::from_millis(55),
            ..Default::default()
        };
        let frame = fdd();
        let mut link = LinkDir::new(Direction::Downlink, good_channel(), &mac);
        // The first PDU dies through all four HARQ attempts (the window must
        // cover its retransmissions at +10/+20/+30 ms); later PDUs decode
        // fine but must wait behind it.
        link.add_harq_override(HarqOverride {
            from: SimTime::ZERO,
            to: SimTime::from_millis(31),
            fail_attempts: 4,
        });
        for id in 0..20 {
            link.rlc_tx.enqueue(Sdu {
                id,
                size_bytes: 1000,
            });
        }
        let out = drain_dl(&mut link, &frame, &mac, 2000);
        assert_eq!(out.deliveries.len(), 20);
        // Packet 0 blocked until RLC retx; a burst of packets releases at the
        // same instant as packet 0 (identical reception times, Fig. 18).
        let t0 = out
            .deliveries
            .iter()
            .find(|d| d.sdu_id == 0)
            .unwrap()
            .released_at;
        let same = out
            .deliveries
            .iter()
            .filter(|d| d.released_at == t0)
            .count();
        assert!(same >= 5, "HoL release burst too small: {same}");
        assert!(t0.as_millis() >= 80);
    }

    #[test]
    fn cross_traffic_starves_target_ue() {
        let mac = MacConfig {
            n_prbs: 50,
            ..Default::default()
        };
        let frame = fdd();
        let mut link = LinkDir::new(Direction::Downlink, good_channel(), &mac);
        let mut rng_ch = rng_for(3, RngStream::ChannelDl);
        let mut rng_harq = rng_for(3, RngStream::HarqDecode);
        // Enqueue a steady 5 Mbit/s for 200 ms; cross traffic takes 96 % of PRBs.
        let mut out = SlotOutputs::default();
        for slot in 0..200u64 {
            if slot % 10 == 0 {
                link.rlc_tx.enqueue(Sdu {
                    id: slot,
                    size_bytes: 6250,
                });
            }
            process_slot(
                &mut link,
                &frame,
                &mac,
                slot,
                1,
                0,
                48, // 96 % of the 50-PRB carrier
                &mut rng_ch,
                &mut rng_harq,
                &mut out,
            );
        }
        // Severely constrained: buffer must have built up.
        assert!(
            link.rlc_tx.buffer_bytes() > 20_000,
            "buffer {} should grow under cross traffic",
            link.rlc_tx.buffer_bytes()
        );
    }

    #[test]
    fn proactive_grants_emit_waste_when_unused() {
        let mac = MacConfig {
            n_prbs: 50,
            proactive_grant: Some(ProactiveGrantConfig {
                period: SimDuration::from_millis(5),
                bytes: 1000,
            }),
            ..Default::default()
        };
        let frame = fdd();
        let mut link = LinkDir::new(Direction::Uplink, good_channel(), &mac);
        let mut rng_ch = rng_for(4, RngStream::ChannelUl);
        let mut rng_harq = rng_for(4, RngStream::HarqDecode);
        let mut out = SlotOutputs::default();
        for slot in 0..100 {
            let now = frame.slot_start(slot);
            check_sr(&mut link, now, &mac);
            issue_ul_grants(&mut link, &frame, &mac, slot, now);
            process_slot(
                &mut link,
                &frame,
                &mac,
                slot,
                1,
                0,
                0,
                &mut rng_ch,
                &mut rng_harq,
                &mut out,
            );
        }
        // UE had nothing to send: proactive grants logged with used_bits = 0.
        let wasted: Vec<_> = out
            .dci
            .iter()
            .filter(|d| d.proactive && d.used_bits == 0)
            .collect();
        assert!(
            wasted.len() >= 10,
            "wasted proactive grants: {}",
            wasted.len()
        );
    }

    #[test]
    fn rrc_reset_preserves_data() {
        let mac = MacConfig {
            n_prbs: 100,
            ..Default::default()
        };
        let frame = fdd();
        let mut link = LinkDir::new(Direction::Downlink, good_channel(), &mac);
        // Force a failure so a HARQ process is in flight, then reset.
        link.add_harq_override(HarqOverride {
            from: SimTime::ZERO,
            to: SimTime::from_millis(1),
            fail_attempts: 1,
        });
        link.rlc_tx.enqueue(Sdu {
            id: 1,
            size_bytes: 500,
        });
        let mut rng_ch = rng_for(5, RngStream::ChannelDl);
        let mut rng_harq = rng_for(5, RngStream::HarqDecode);
        let mut out = SlotOutputs::default();
        process_slot(
            &mut link,
            &frame,
            &mac,
            0,
            1,
            0,
            0,
            &mut rng_ch,
            &mut rng_harq,
            &mut out,
        );
        assert!(link.harq.iter().any(Option::is_some));
        link.reset_for_rrc(SimTime::from_millis(5));
        assert!(!link.harq.iter().any(Option::is_some));
        // Data recoverable: drain delivers the packet.
        let out = drain_dl(&mut link, &frame, &mac, 300);
        assert_eq!(out.deliveries.len(), 1);
    }
}
