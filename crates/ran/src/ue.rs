//! Scripted traffic UEs and the structure-of-arrays per-UE state table.
//!
//! The paper's operator traces come from cells where dozens of UEs contend
//! for one PRB budget: neighbor-load spikes and scheduler starvation are
//! *cross-UE* phenomena. [`CellUeTable`] holds the per-UE PHY/MAC state of
//! every scripted (cross-traffic) UE in flat parallel arrays, and the cell's
//! slot loop sweeps them in three passes per slot — arrivals, CQI→MCS link
//! adaptation over the memoized PHY tables (skipped until its 10 ms shadow
//! bucket or inputs change), and grant allocation against the shared PRB
//! budget — instead of ticking one object per UE.
//!
//! Scripted UEs are deliberately lighter than the diagnosed (experiment)
//! UEs: their payloads are synthetic byte counts, so the table tracks RLC
//! *queue depth* rather than segmented SDUs, and one stop-and-wait HARQ lane
//! per direction rather than a full process pool. What the detector sees of
//! them — their DCI footprint (PRBs, MCS, retransmissions) — is exact; what
//! nobody observes (their payload contents) is elided. All of their
//! randomness is counter-based (hashed from `(seed, ue, slot)`), so the
//! table's draws never perturb the diagnosed UEs' RNG streams and any slot
//! can be evaluated independently of evaluation order.

use simcore::{splitmix64, SimDuration, SimTime};
use telemetry::{DciRecord, Direction};

use crate::frame::FrameStructure;
use crate::mac::MacConfig;
use crate::phy;

/// RNTI of scripted traffic UE `i` is `TRAFFIC_RNTI_BASE + i`: distinct from
/// the diagnosed UEs (17 435 + re-establishment chain, always < 60 000 but
/// seeded far away) and from the scalar cross-traffic processes (30 000+).
pub const TRAFFIC_RNTI_BASE: u32 = 20_000;

/// Tag for telemetry not attributable to any diagnosed UE (scripted traffic
/// UEs and the scalar cross-traffic aggregate).
pub(crate) const UE_NONE: u32 = u32::MAX;

/// Offered-load shape of one scripted UE in one direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficPattern {
    /// No traffic in this direction.
    Idle,
    /// Constant bitrate: `bitrate_bps` delivered as `packet_bytes` packets.
    Cbr {
        /// Offered load in bits per second.
        bitrate_bps: u64,
        /// Arrival granularity (bytes enqueued at a time).
        packet_bytes: u32,
    },
    /// On/off (bursty) source: CBR at `bitrate_bps` during the on-phase of
    /// each `period`, silent otherwise.
    OnOff {
        /// Cycle length.
        period: SimDuration,
        /// Fraction of the period the source is on (0–1).
        duty: f64,
        /// Offered load while on, in bits per second.
        bitrate_bps: u64,
        /// Arrival granularity (bytes enqueued at a time).
        packet_bytes: u32,
    },
}

/// Arrival shape of one scripted UE in one direction: its
/// [`TrafficPattern`] evaluated for the cell's slot length once, at
/// [`CellUeTable::configure`], so the per-slot arrivals pass does no enum
/// match and no division. Each field holds exactly the f64 value the
/// per-slot evaluation of the pattern would produce.
#[derive(Debug, Clone, Copy)]
struct ArrivalShape {
    /// Bits offered in a slot of the on-phase.
    on_bits: f64,
    /// Packet size in bits.
    pkt_bits: f64,
    /// Packet size in bytes (arrival granularity).
    pkt_bytes: u64,
    /// On/off cycle length in µs; 0 for a source that is always on.
    period_us: u64,
    /// A slot is in the on-phase when its phase-shifted cycle position
    /// (µs) is below this limit.
    on_limit: f64,
}

impl ArrivalShape {
    /// A source that never offers a packet: a one-µs cycle whose on-phase
    /// is empty.
    const SILENT: ArrivalShape = ArrivalShape {
        on_bits: 0.0,
        pkt_bits: 0.0,
        pkt_bytes: 0,
        period_us: 1,
        on_limit: 0.0,
    };

    fn new(pattern: TrafficPattern, slot: SimDuration) -> Self {
        let (bitrate_bps, packet_bytes, period_us, on_limit) = match pattern {
            TrafficPattern::Idle => return Self::SILENT,
            TrafficPattern::Cbr {
                bitrate_bps,
                packet_bytes,
            } => (bitrate_bps, packet_bytes, 0, 0.0),
            TrafficPattern::OnOff {
                period,
                duty,
                bitrate_bps,
                packet_bytes,
            } => {
                let p = period.as_micros().max(1);
                (bitrate_bps, packet_bytes, p, duty * p as f64)
            }
        };
        if packet_bytes == 0 {
            return Self::SILENT;
        }
        ArrivalShape {
            on_bits: bitrate_bps as f64 * slot.as_micros() as f64 / 1e6,
            pkt_bits: packet_bytes as f64 * 8.0,
            pkt_bytes: packet_bytes as u64,
            period_us,
            on_limit,
        }
    }

    /// Whether a source whose phase-shifted clock reads `t_us` is on.
    fn is_on(&self, t_us: u64) -> bool {
        self.period_us == 0 || ((t_us % self.period_us) as f64) < self.on_limit
    }
}

/// Configuration of one scripted traffic UE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficUeConfig {
    /// Uplink offered load.
    pub ul: TrafficPattern,
    /// Downlink offered load.
    pub dl: TrafficPattern,
    /// SINR offset relative to the cell's per-direction base (places the UE
    /// nearer or farther than the diagnosed UEs).
    pub sinr_offset_db: f64,
}

impl TrafficUeConfig {
    /// A downlink-heavy streaming-style UE.
    pub fn dl_streaming(bitrate_bps: u64) -> Self {
        TrafficUeConfig {
            ul: TrafficPattern::Cbr {
                bitrate_bps: bitrate_bps / 20,
                packet_bytes: 200,
            },
            dl: TrafficPattern::Cbr {
                bitrate_bps,
                packet_bytes: 1300,
            },
            sinr_offset_db: 0.0,
        }
    }

    /// A symmetric bursty UE (web-browsing-like).
    pub fn bursty(bitrate_bps: u64, period: SimDuration, duty: f64) -> Self {
        let on_off = |rate: u64| TrafficPattern::OnOff {
            period,
            duty,
            bitrate_bps: rate,
            packet_bytes: 1200,
        };
        TrafficUeConfig {
            ul: on_off(bitrate_bps / 4),
            dl: on_off(bitrate_bps),
            sinr_offset_db: 0.0,
        }
    }

    /// Moves the UE's channel by `db` relative to the cell base.
    pub fn with_sinr_offset(mut self, db: f64) -> Self {
        self.sinr_offset_db = db;
        self
    }
}

/// A deterministic mixed pool of `n` scripted UEs: a blend of DL streaming,
/// bursty, and uplink-heavy sources at varied SINR offsets, keyed only by
/// the UE index so the same `n` always yields the same pool.
pub fn traffic_mix(n: usize) -> Vec<TrafficUeConfig> {
    (0..n)
        .map(|i| {
            let offset = ((i % 7) as f64) - 3.0; // −3 … +3 dB ring positions
            match i % 4 {
                0 => TrafficUeConfig::dl_streaming(2_000_000 + 250_000 * (i % 5) as u64)
                    .with_sinr_offset(offset),
                1 => TrafficUeConfig::bursty(
                    3_000_000,
                    SimDuration::from_millis(400 + 100 * (i % 3) as u64),
                    0.4,
                )
                .with_sinr_offset(offset),
                2 => TrafficUeConfig {
                    ul: TrafficPattern::Cbr {
                        bitrate_bps: 1_200_000,
                        packet_bytes: 1000,
                    },
                    dl: TrafficPattern::Cbr {
                        bitrate_bps: 400_000,
                        packet_bytes: 600,
                    },
                    sinr_offset_db: offset,
                },
                _ => TrafficUeConfig::dl_streaming(800_000).with_sinr_offset(offset),
            }
        })
        .collect()
}

/// Counter-based uniform draw in `[0, 1)`: SplitMix64 over a combined key.
/// Scripted-UE randomness is hashed, not streamed, so evaluation order and
/// UE count never shift anyone else's draws.
fn hash01(seed: u64, ue: u32, dir: Direction, counter: u64, salt: u64) -> f64 {
    let dir_bit = match dir {
        Direction::Uplink => 0u64,
        Direction::Downlink => 1u64,
    };
    let z = splitmix64(
        seed ^ (ue as u64).wrapping_mul(0xA076_1D64_78BD_642F)
            ^ dir_bit.wrapping_mul(0xE703_7ED1_A0B4_28DB)
            ^ counter.wrapping_mul(0x8EBC_6AF0_9C88_C6E3)
            ^ salt.wrapping_mul(0x5899_65CC_7537_4CC3),
    );
    (z >> 11) as f64 / (1u64 << 53) as f64
}

const SALT_SHADOW: u64 = 1;
const SALT_HARQ: u64 = 2;

/// Shadow-fading bucket length for scripted UEs (mirrors
/// `ChannelConfig::update_interval`'s default).
const SHADOW_BUCKET_US: u64 = 10_000;

/// Per-direction column plane index.
fn dix(dir: Direction) -> usize {
    match dir {
        Direction::Uplink => 0,
        Direction::Downlink => 1,
    }
}

/// Inputs of one direction's link-adaptation sweep. With the seed and
/// per-UE offsets fixed at `configure`, the SINR and MCS planes are a pure
/// function of these, so a sweep whose inputs equal the previous one's is
/// skipped. Floats compare by bit pattern: equal bits, equal results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LinkInputs {
    bucket: u64,
    base_sinr_bits: u64,
    sigma_bits: u64,
    margin_bits: u64,
    cap: u8,
}

/// Structure-of-arrays state for every scripted traffic UE of a cell.
///
/// All columns are parallel: index `i` across every array is UE `i`. Both
/// directions' dynamic state live in two planes (`[Vec; 2]`, UL = 0).
/// The table is leased from the session arena's free list and reconfigured
/// per session, so steady-state sweeps allocate nothing for it.
#[derive(Debug, Default)]
pub struct CellUeTable {
    seed: u64,
    // ---- static columns (from TrafficUeConfig and the slot length) ----
    shape: [Vec<ArrivalShape>; 2],
    sinr_offset_db: Vec<f64>,
    phase: Vec<SimDuration>,
    // ---- dynamic columns ----
    /// RLC transmit-queue depth in bytes.
    queue_bytes: [Vec<u64>; 2],
    /// Fractional-bit arrival accumulator.
    credit_bits: [Vec<f64>; 2],
    /// Latest per-UE SINR estimate (link-adaptation pass output).
    sinr_db: [Vec<f64>; 2],
    /// Latest per-UE MCS selection (link-adaptation pass output).
    mcs: [Vec<u8>; 2],
    /// Inputs the `sinr_db`/`mcs` planes were last computed from.
    link_inputs: [Option<LinkInputs>; 2],
    // ---- one stop-and-wait HARQ lane per UE per direction ----
    harq_active: [Vec<bool>; 2],
    harq_bits: [Vec<u32>; 2],
    harq_mcs: [Vec<u8>; 2],
    harq_prbs: [Vec<u16>; 2],
    harq_attempts: [Vec<u8>; 2],
    harq_next_at: [Vec<SimTime>; 2],
}

impl CellUeTable {
    /// An empty table (lease target).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconfigures the table for a session: clears every column (keeping
    /// capacity) and fills them from `ues`, deriving each UE's arrival
    /// shapes for the cell's `slot` length. Warm and fresh tables are
    /// byte-identical afterwards.
    pub fn configure(&mut self, ues: &[TrafficUeConfig], seed: u64, slot: SimDuration) {
        self.clear();
        self.seed = seed ^ 0x7AB1_E5EE_D5EE_D000;
        self.sinr_offset_db
            .extend(ues.iter().map(|u| u.sinr_offset_db));
        self.phase
            .extend((0..ues.len()).map(|i| SimDuration::from_micros(1 + 37_777 * i as u64)));
        for (plane, pick) in [(0usize, 0usize), (1, 1)] {
            self.shape[plane].extend(ues.iter().map(|u| {
                let pattern = match pick {
                    0 => u.ul,
                    _ => u.dl,
                };
                ArrivalShape::new(pattern, slot)
            }));
            let n = ues.len();
            self.queue_bytes[plane].resize(n, 0);
            self.credit_bits[plane].resize(n, 0.0);
            self.sinr_db[plane].resize(n, 0.0);
            self.mcs[plane].resize(n, 0);
            self.harq_active[plane].resize(n, false);
            self.harq_bits[plane].resize(n, 0);
            self.harq_mcs[plane].resize(n, 0);
            self.harq_prbs[plane].resize(n, 0);
            self.harq_attempts[plane].resize(n, 0);
            self.harq_next_at[plane].resize(n, SimTime::ZERO);
        }
    }

    /// Empties every column, keeping capacity for reuse.
    pub fn clear(&mut self) {
        self.sinr_offset_db.clear();
        self.phase.clear();
        self.link_inputs = [None; 2];
        for plane in 0..2 {
            self.shape[plane].clear();
            self.queue_bytes[plane].clear();
            self.credit_bits[plane].clear();
            self.sinr_db[plane].clear();
            self.mcs[plane].clear();
            self.harq_active[plane].clear();
            self.harq_bits[plane].clear();
            self.harq_mcs[plane].clear();
            self.harq_prbs[plane].clear();
            self.harq_attempts[plane].clear();
            self.harq_next_at[plane].clear();
        }
    }

    /// Number of scripted UEs.
    pub fn len(&self) -> usize {
        self.sinr_offset_db.len()
    }

    /// Whether the table carries no scripted UEs.
    pub fn is_empty(&self) -> bool {
        self.sinr_offset_db.is_empty()
    }

    /// Total reserved capacity across all columns, in elements — the unit
    /// `SessionArena::footprint` accounts leased tables in.
    pub fn footprint_elems(&self) -> usize {
        let mut elems = self.sinr_offset_db.capacity() + self.phase.capacity();
        for plane in 0..2 {
            elems += self.shape[plane].capacity()
                + self.queue_bytes[plane].capacity()
                + self.credit_bits[plane].capacity()
                + self.sinr_db[plane].capacity()
                + self.mcs[plane].capacity()
                + self.harq_active[plane].capacity()
                + self.harq_bits[plane].capacity()
                + self.harq_prbs[plane].capacity()
                + self.harq_mcs[plane].capacity()
                + self.harq_attempts[plane].capacity()
                + self.harq_next_at[plane].capacity();
        }
        elems
    }

    /// Scripted UE `ue`'s RNTI.
    pub fn rnti(&self, ue: usize) -> u32 {
        TRAFFIC_RNTI_BASE + ue as u32
    }

    /// Current queue depth of UE `ue` in `dir` (bytes).
    pub(crate) fn queue_bytes(&self, ue: usize, dir: Direction) -> u64 {
        self.queue_bytes[dix(dir)][ue]
    }

    /// **Pass 1 — arrivals.** Accrues each UE's offered load over the slot
    /// starting at `now` into its queue, both directions (a TDD DL-only
    /// slot still accrues UL credit; the data just waits for a U slot).
    /// Each UE's on/off cycle is phase-shifted so that a fleet of identical
    /// sources does not beat in lockstep.
    pub(crate) fn pass_arrivals(&mut self, now: SimTime) {
        let now_us = now.as_micros();
        for plane in 0..2 {
            let rows = self.shape[plane].iter().zip(&self.phase).zip(
                self.credit_bits[plane]
                    .iter_mut()
                    .zip(self.queue_bytes[plane].iter_mut()),
            );
            for ((s, phase), (credit, queue)) in rows {
                if !s.is_on(now_us + phase.as_micros()) {
                    continue;
                }
                *credit += s.on_bits;
                while *credit >= s.pkt_bits {
                    *credit -= s.pkt_bits;
                    *queue += s.pkt_bytes;
                }
            }
        }
    }

    /// **Pass 2 — link adaptation.** One sweep computing every UE's SINR
    /// (cell base + per-UE offset + hashed shadow term, re-drawn each 10 ms
    /// bucket) and its MCS through the memoized `phy::select_mcs` table.
    /// The result only changes with the bucket or the cell's inputs, so a
    /// call repeating the previous call's inputs in `dir` keeps the planes
    /// as they are. A bucket spans 20 slots of a 0.5 ms cell: each
    /// direction sweeps once per bucket, not on every serving slot.
    pub(crate) fn pass_link_adaptation(
        &mut self,
        now: SimTime,
        dir: Direction,
        base_sinr_db: f64,
        shadow_sigma_db: f64,
        mac: &MacConfig,
    ) {
        let plane = dix(dir);
        let (cap, margin) = match dir {
            Direction::Uplink => (mac.mcs_cap_ul, mac.margin_db_ul),
            Direction::Downlink => (mac.mcs_cap_dl, mac.margin_db_dl),
        };
        let inputs = LinkInputs {
            bucket: now.as_micros() / SHADOW_BUCKET_US,
            base_sinr_bits: base_sinr_db.to_bits(),
            sigma_bits: shadow_sigma_db.to_bits(),
            margin_bits: margin.to_bits(),
            cap,
        };
        if self.link_inputs[plane] == Some(inputs) {
            return;
        }
        self.link_inputs[plane] = Some(inputs);
        let seed = self.seed;
        for i in 0..self.sinr_offset_db.len() {
            let u = hash01(seed, i as u32, dir, inputs.bucket, SALT_SHADOW);
            // Triangular-ish shadow term in ±2σ: cheap, bounded, zero-mean.
            let shadow = (u * 2.0 - 1.0) * 2.0 * shadow_sigma_db;
            let sinr = base_sinr_db + self.sinr_offset_db[i] + shadow;
            self.sinr_db[plane][i] = sinr;
            self.mcs[plane][i] = phy::select_mcs(sinr, 0.0, margin, cap);
        }
    }

    /// Whether [`Self::allocate`] can act for UE `ue` in `dir` once
    /// `hard_used` PRBs have been granted this slot and `cross_prbs` are
    /// taken by the scalar cross-traffic aggregate, on a carrier of
    /// `n_prbs`. While the two leave room, any UE may transmit. Once they
    /// cover the carrier, a UE with an idle HARQ lane can neither
    /// retransmit nor start a transport block, so its call would change
    /// nothing; a UE with a busy lane may still retransmit (a
    /// retransmission contends only with `hard_used`) or defer a due one.
    /// The slot loop skips the UEs this returns false for.
    pub(crate) fn can_act(
        &self,
        ue: usize,
        dir: Direction,
        hard_used: u32,
        cross_prbs: u32,
        n_prbs: u32,
    ) -> bool {
        hard_used + cross_prbs < n_prbs || self.harq_active[dix(dir)][ue]
    }

    /// **Pass 3 (per rotation position) — allocation.** Gives UE `ue` its
    /// slot share: a due HARQ retransmission first (contending for carrier
    /// PRBs like any UE), then one new transport block from the remaining
    /// budget after `hard_used` PRBs already granted to earlier UEs and
    /// `cross_prbs` taken by the scalar cross-traffic aggregate. Emits the
    /// UE's DCI into `dci` and returns the PRBs it consumed.
    #[allow(clippy::too_many_arguments)]
    pub fn allocate(
        &mut self,
        ue: usize,
        dir: Direction,
        slot: u64,
        frame: &FrameStructure,
        mac: &MacConfig,
        hard_used: u32,
        cross_prbs: u32,
        dci: &mut Vec<DciRecord>,
    ) -> u32 {
        let plane = dix(dir);
        let now = frame.slot_start(slot);
        let total = mac.n_prbs as u32;
        let sinr = self.sinr_db[plane][ue];
        let mut used = 0u32;

        // HARQ retransmission due: occupies real PRBs ahead of new data.
        if self.harq_active[plane][ue] && self.harq_next_at[plane][ue] <= now {
            let prbs = self.harq_prbs[plane][ue] as u32;
            if hard_used + prbs > total {
                // No room this slot; retry at the next serving slot.
                self.harq_next_at[plane][ue] =
                    frame.slot_start(frame.next_serving_slot(slot + 1, dir));
            } else {
                used += prbs;
                let retx_idx = self.harq_attempts[plane][ue];
                let mcs = self.harq_mcs[plane][ue];
                let fail = hash01(self.seed, ue as u32, dir, slot, SALT_HARQ)
                    < phy::fail_probability(sinr, mcs, retx_idx);
                dci.push(DciRecord {
                    ts: now,
                    rnti: self.rnti(ue),
                    direction: dir,
                    is_target_ue: false,
                    n_prbs: self.harq_prbs[plane][ue],
                    mcs,
                    tbs_bits: self.harq_bits[plane][ue],
                    harq_id: 0,
                    harq_retx_idx: retx_idx,
                    decoded_ok: !fail,
                    proactive: false,
                    used_bits: self.harq_bits[plane][ue],
                });
                if !fail {
                    self.harq_active[plane][ue] = false;
                } else {
                    self.harq_attempts[plane][ue] += 1;
                    if self.harq_attempts[plane][ue] >= mac.max_harq_attempts {
                        // Abandoned to (invisible) RLC ARQ: scripted payloads
                        // are synthetic, so the bytes are simply dropped.
                        self.harq_active[plane][ue] = false;
                    } else {
                        self.harq_next_at[plane][ue] = now + mac.harq_rtt;
                    }
                }
            }
        }

        // New transmission: stop-and-wait — only with the lane free.
        if self.harq_active[plane][ue] {
            return used;
        }
        let queued = self.queue_bytes[plane][ue];
        if queued == 0 {
            return used;
        }
        let mut budget = total
            .saturating_sub(cross_prbs)
            .saturating_sub(hard_used)
            .saturating_sub(used);
        let mcs = self.mcs[plane][ue];
        if mcs < mac.poor_channel_mcs_threshold {
            budget = budget.min((total as f64 * mac.poor_channel_prb_cap) as u32);
        }
        if budget == 0 {
            return used;
        }
        let max_tb_bytes = phy::tbs_bits(mcs, budget as u16) / 8;
        if max_tb_bytes == 0 {
            return used;
        }
        let tb_bytes = (queued.min(max_tb_bytes as u64)) as u32;
        let payload_bits = tb_bytes * 8;
        let n_prbs = phy::prbs_needed(mcs, payload_bits)
            .min(budget as u16)
            .max(1);
        let tbs = phy::tbs_bits(mcs, n_prbs).max(payload_bits);
        let fail = hash01(self.seed, ue as u32, dir, slot, SALT_HARQ)
            < phy::fail_probability(sinr, mcs, 0);
        dci.push(DciRecord {
            ts: now,
            rnti: self.rnti(ue),
            direction: dir,
            is_target_ue: false,
            n_prbs,
            mcs,
            tbs_bits: tbs,
            harq_id: 0,
            harq_retx_idx: 0,
            decoded_ok: !fail,
            proactive: false,
            used_bits: payload_bits,
        });
        used += n_prbs as u32;
        if !fail {
            self.queue_bytes[plane][ue] -= tb_bytes as u64;
        } else if mac.max_harq_attempts <= 1 {
            self.queue_bytes[plane][ue] -= tb_bytes as u64; // dropped
        } else {
            self.queue_bytes[plane][ue] -= tb_bytes as u64;
            self.harq_active[plane][ue] = true;
            self.harq_bits[plane][ue] = tbs;
            self.harq_mcs[plane][ue] = mcs;
            self.harq_prbs[plane][ue] = n_prbs;
            self.harq_attempts[plane][ue] = 1;
            self.harq_next_at[plane][ue] = now + mac.harq_rtt;
        }
        used
    }
}

#[cfg(test)]
mod oracle {
    //! Object-at-a-time reference tick: one plain struct per UE, stepped
    //! with per-object calls through the same slot algorithm the SoA table
    //! sweeps. The reference re-derives each pattern's offered load every
    //! slot and visits every UE every slot; the SoA side uses the arrival
    //! shapes derived at `configure` and skips the UEs
    //! [`CellUeTable::can_act`] rules out. Property: the SoA loop is
    //! byte-identical to the reference across UE counts and traffic mixes.

    use super::*;
    use crate::frame::FrameStructure;

    impl TrafficPattern {
        /// Bits offered during a slot starting at `now` (phase-shifted per
        /// UE so a fleet of identical OnOff sources does not beat in
        /// lockstep).
        fn offered_bits(&self, now: SimTime, dt: SimDuration, phase: SimDuration) -> f64 {
            match *self {
                TrafficPattern::Idle => 0.0,
                TrafficPattern::Cbr { bitrate_bps, .. } => {
                    bitrate_bps as f64 * dt.as_micros() as f64 / 1e6
                }
                TrafficPattern::OnOff {
                    period,
                    duty,
                    bitrate_bps,
                    ..
                } => {
                    let p = period.as_micros().max(1);
                    let pos = (now.as_micros() + phase.as_micros()) % p;
                    if (pos as f64) < duty * p as f64 {
                        bitrate_bps as f64 * dt.as_micros() as f64 / 1e6
                    } else {
                        0.0
                    }
                }
            }
        }

        /// Arrival granularity in bytes (0 when idle).
        fn packet_bytes(&self) -> u32 {
            match *self {
                TrafficPattern::Idle => 0,
                TrafficPattern::Cbr { packet_bytes, .. }
                | TrafficPattern::OnOff { packet_bytes, .. } => packet_bytes,
            }
        }
    }

    /// Per-UE object mirror of one [`CellUeTable`] row.
    struct RefUe {
        cfg: TrafficUeConfig,
        phase: SimDuration,
        queue_bytes: [u64; 2],
        credit_bits: [f64; 2],
        sinr_db: [f64; 2],
        mcs: [u8; 2],
        harq_active: [bool; 2],
        harq_bits: [u32; 2],
        harq_mcs: [u8; 2],
        harq_prbs: [u16; 2],
        harq_attempts: [u8; 2],
        harq_next_at: [SimTime; 2],
    }

    impl RefUe {
        fn new(index: usize, cfg: TrafficUeConfig) -> Self {
            RefUe {
                cfg,
                phase: SimDuration::from_micros(1 + 37_777 * index as u64),
                queue_bytes: [0; 2],
                credit_bits: [0.0; 2],
                sinr_db: [0.0; 2],
                mcs: [0; 2],
                harq_active: [false; 2],
                harq_bits: [0; 2],
                harq_mcs: [0; 2],
                harq_prbs: [0; 2],
                harq_attempts: [0; 2],
                harq_next_at: [SimTime::ZERO; 2],
            }
        }

        fn arrivals(&mut self, now: SimTime, dt: SimDuration) {
            for (plane, pat) in [(0usize, self.cfg.ul), (1, self.cfg.dl)] {
                let pkt = pat.packet_bytes();
                if pkt == 0 {
                    continue;
                }
                self.credit_bits[plane] += pat.offered_bits(now, dt, self.phase);
                let pkt_bits = pkt as f64 * 8.0;
                while self.credit_bits[plane] >= pkt_bits {
                    self.credit_bits[plane] -= pkt_bits;
                    self.queue_bytes[plane] += pkt as u64;
                }
            }
        }

        #[allow(clippy::too_many_arguments)]
        fn link_adaptation(
            &mut self,
            index: usize,
            seed: u64,
            now: SimTime,
            dir: Direction,
            base: f64,
            sigma: f64,
            mac: &MacConfig,
        ) {
            let plane = dix(dir);
            let (cap, margin) = match dir {
                Direction::Uplink => (mac.mcs_cap_ul, mac.margin_db_ul),
                Direction::Downlink => (mac.mcs_cap_dl, mac.margin_db_dl),
            };
            let bucket = now.as_micros() / SHADOW_BUCKET_US;
            let u = hash01(seed, index as u32, dir, bucket, SALT_SHADOW);
            let sinr = base + self.cfg.sinr_offset_db + (u * 2.0 - 1.0) * 2.0 * sigma;
            self.sinr_db[plane] = sinr;
            self.mcs[plane] = phy::select_mcs(sinr, 0.0, margin, cap);
        }

        #[allow(clippy::too_many_arguments)]
        fn allocate(
            &mut self,
            index: usize,
            seed: u64,
            dir: Direction,
            slot: u64,
            frame: &FrameStructure,
            mac: &MacConfig,
            hard_used: u32,
            cross_prbs: u32,
            dci: &mut Vec<DciRecord>,
        ) -> u32 {
            let plane = dix(dir);
            let now = frame.slot_start(slot);
            let total = mac.n_prbs as u32;
            let sinr = self.sinr_db[plane];
            let mut used = 0u32;
            if self.harq_active[plane] && self.harq_next_at[plane] <= now {
                let prbs = self.harq_prbs[plane] as u32;
                if hard_used + prbs > total {
                    self.harq_next_at[plane] =
                        frame.slot_start(frame.next_serving_slot(slot + 1, dir));
                } else {
                    used += prbs;
                    let retx_idx = self.harq_attempts[plane];
                    let mcs = self.harq_mcs[plane];
                    let fail = hash01(seed, index as u32, dir, slot, SALT_HARQ)
                        < phy::fail_probability(sinr, mcs, retx_idx);
                    dci.push(DciRecord {
                        ts: now,
                        rnti: TRAFFIC_RNTI_BASE + index as u32,
                        direction: dir,
                        is_target_ue: false,
                        n_prbs: self.harq_prbs[plane],
                        mcs,
                        tbs_bits: self.harq_bits[plane],
                        harq_id: 0,
                        harq_retx_idx: retx_idx,
                        decoded_ok: !fail,
                        proactive: false,
                        used_bits: self.harq_bits[plane],
                    });
                    if !fail {
                        self.harq_active[plane] = false;
                    } else {
                        self.harq_attempts[plane] += 1;
                        if self.harq_attempts[plane] >= mac.max_harq_attempts {
                            self.harq_active[plane] = false;
                        } else {
                            self.harq_next_at[plane] = now + mac.harq_rtt;
                        }
                    }
                }
            }
            if self.harq_active[plane] || self.queue_bytes[plane] == 0 {
                return used;
            }
            let mut budget = total
                .saturating_sub(cross_prbs)
                .saturating_sub(hard_used)
                .saturating_sub(used);
            let mcs = self.mcs[plane];
            if mcs < mac.poor_channel_mcs_threshold {
                budget = budget.min((total as f64 * mac.poor_channel_prb_cap) as u32);
            }
            if budget == 0 {
                return used;
            }
            let max_tb_bytes = phy::tbs_bits(mcs, budget as u16) / 8;
            if max_tb_bytes == 0 {
                return used;
            }
            let tb_bytes = (self.queue_bytes[plane].min(max_tb_bytes as u64)) as u32;
            let payload_bits = tb_bytes * 8;
            let n_prbs = phy::prbs_needed(mcs, payload_bits)
                .min(budget as u16)
                .max(1);
            let tbs = phy::tbs_bits(mcs, n_prbs).max(payload_bits);
            let fail = hash01(seed, index as u32, dir, slot, SALT_HARQ)
                < phy::fail_probability(sinr, mcs, 0);
            dci.push(DciRecord {
                ts: now,
                rnti: TRAFFIC_RNTI_BASE + index as u32,
                direction: dir,
                is_target_ue: false,
                n_prbs,
                mcs,
                tbs_bits: tbs,
                harq_id: 0,
                harq_retx_idx: 0,
                decoded_ok: !fail,
                proactive: false,
                used_bits: payload_bits,
            });
            used += n_prbs as u32;
            self.queue_bytes[plane] -= tb_bytes as u64;
            if fail && mac.max_harq_attempts > 1 {
                self.harq_active[plane] = true;
                self.harq_bits[plane] = tbs;
                self.harq_mcs[plane] = mcs;
                self.harq_prbs[plane] = n_prbs;
                self.harq_attempts[plane] = 1;
                self.harq_next_at[plane] = now + mac.harq_rtt;
            }
            used
        }
    }

    /// One DCI record as a comparable tuple.
    type DciKey = (u64, u32, u8, u16, u32, bool, u8);

    /// What [`drive_both`] observed.
    struct Driven {
        soa: Vec<DciKey>,
        reference: Vec<DciKey>,
        /// Scripted-UE visits the SoA loop skipped.
        skipped: usize,
        /// Retransmissions the SoA loop sent after the carrier was covered.
        covered_retx: usize,
    }

    /// Drives both implementations through the identical slot schedule
    /// (rotated round-robin, a scalar cross-traffic wave that takes half,
    /// none and all of the carrier in turn) and returns their DCI streams
    /// as comparable tuples. The SoA side skips the visits
    /// [`CellUeTable::can_act`] rules out, as the cell does; the reference
    /// visits every UE.
    fn drive_both(
        ues: &[TrafficUeConfig],
        seed: u64,
        slots: u64,
        mac: &MacConfig,
        frame: &FrameStructure,
    ) -> Driven {
        let base = (9.0, 21.0); // (UL, DL) base SINR
        let sigma = 2.5;
        let key = |d: &DciRecord| -> DciKey {
            (
                d.ts.as_micros(),
                d.rnti,
                d.mcs,
                d.n_prbs,
                d.tbs_bits,
                d.decoded_ok,
                d.harq_retx_idx,
            )
        };

        let dt = frame.slot_duration;
        let mut table = CellUeTable::new();
        table.configure(ues, seed, dt);
        let mut soa_dci: Vec<DciRecord> = Vec::new();
        let mut refs: Vec<RefUe> = ues
            .iter()
            .enumerate()
            .map(|(i, &c)| RefUe::new(i, c))
            .collect();
        let ref_seed = seed ^ 0x7AB1_E5EE_D5EE_D000;
        let mut ref_dci: Vec<DciRecord> = Vec::new();
        let (mut skipped, mut covered_retx) = (0, 0);

        let n = ues.len();
        let total = mac.n_prbs as u32;
        for slot in 0..slots {
            let now = frame.slot_start(slot);
            let cross_prbs = match (slot / 40) % 3 {
                0 => total / 2,
                1 => 0,
                _ => total,
            };
            table.pass_arrivals(now);
            for r in refs.iter_mut() {
                r.arrivals(now, dt);
            }
            for dir in [Direction::Downlink, Direction::Uplink] {
                if !frame.serves(slot, dir) {
                    continue;
                }
                let b = if dir == Direction::Uplink {
                    base.0
                } else {
                    base.1
                };
                table.pass_link_adaptation(now, dir, b, sigma, mac);
                for (i, r) in refs.iter_mut().enumerate() {
                    r.link_adaptation(i, ref_seed, now, dir, b, sigma, mac);
                }
                let start = (slot % n as u64) as usize;
                let mut hard_soa = 0u32;
                let mut hard_ref = 0u32;
                for k in 0..n {
                    let i = (start + k) % n;
                    if table.can_act(i, dir, hard_soa, cross_prbs, total) {
                        let covered = hard_soa + cross_prbs >= total;
                        let before = soa_dci.len();
                        hard_soa += table.allocate(
                            i,
                            dir,
                            slot,
                            frame,
                            mac,
                            hard_soa,
                            cross_prbs,
                            &mut soa_dci,
                        );
                        if covered {
                            covered_retx += soa_dci[before..]
                                .iter()
                                .filter(|d| d.harq_retx_idx > 0)
                                .count();
                        }
                    } else {
                        skipped += 1;
                    }
                    hard_ref += refs[i].allocate(
                        i,
                        ref_seed,
                        dir,
                        slot,
                        frame,
                        mac,
                        hard_ref,
                        cross_prbs,
                        &mut ref_dci,
                    );
                }
                assert_eq!(hard_soa, hard_ref, "slot {slot} {dir:?} PRB usage");
            }
        }
        Driven {
            soa: soa_dci.iter().map(key).collect(),
            reference: ref_dci.iter().map(key).collect(),
            skipped,
            covered_retx,
        }
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn soa_loop_matches_object_reference(
            seed in 0u64..1_000_000,
            count_pick in 0usize..4,
            rate in 200_000u64..6_000_000,
            duty in 0.1f64..0.9,
            offset in -4.0f64..4.0,
        ) {
            let n = [1usize, 2, 8, 32][count_pick];
            let mut ues = traffic_mix(n);
            // Perturb the mix with the drawn parameters so the property
            // covers traffic shapes beyond the canned pool, and put a UE
            // far out, where HARQ lanes stay busy into covered slots.
            ues[0] = TrafficUeConfig::bursty(rate, SimDuration::from_millis(300), duty)
                .with_sinr_offset(offset);
            if n > 1 {
                ues[n - 1] = TrafficUeConfig::dl_streaming(rate).with_sinr_offset(-offset);
            }
            if n > 2 {
                ues[1] = ues[1].with_sinr_offset(-8.0);
            }
            let mac = MacConfig { n_prbs: 51, ..Default::default() };
            let frame = FrameStructure::tdd(SimDuration::from_micros(500), "DDDSU");
            let run = drive_both(&ues, seed, 1200, &mac, &frame);
            prop_assert_eq!(run.soa, run.reference);
            prop_assert!(run.skipped > 0, "covered slots must skip idle UEs");
        }
    }

    #[test]
    fn fdd_frame_also_matches() {
        let mut ues = traffic_mix(8);
        for u in ues.iter_mut().step_by(3) {
            u.sinr_offset_db = -8.0;
        }
        // Sources that never offer a packet: an idle uplink and a downlink
        // of zero-byte packets.
        ues[1].ul = TrafficPattern::Idle;
        ues[2].dl = TrafficPattern::Cbr {
            bitrate_bps: 1_000_000,
            packet_bytes: 0,
        };
        let mac = MacConfig {
            n_prbs: 79,
            ..Default::default()
        };
        let frame = FrameStructure::fdd(SimDuration::from_millis(1));
        let run = drive_both(&ues, 42, 2000, &mac, &frame);
        assert_eq!(run.soa, run.reference);
        assert!(!run.soa.is_empty(), "scripted UEs must transmit");
        assert!(run.skipped > 0, "covered slots must skip idle UEs");
        assert!(
            run.covered_retx > 0,
            "busy lanes must retransmit after the carrier is covered"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_mix_is_deterministic_and_sized() {
        let a = traffic_mix(46);
        let b = traffic_mix(46);
        assert_eq!(a.len(), 46);
        assert_eq!(a, b);
        // The pool actually mixes shapes.
        assert!(a
            .iter()
            .any(|u| matches!(u.dl, TrafficPattern::OnOff { .. })));
        assert!(a.iter().any(|u| matches!(u.dl, TrafficPattern::Cbr { .. })));
    }

    #[test]
    fn arrivals_accumulate_offered_load() {
        let mut t = CellUeTable::new();
        t.configure(
            &[TrafficUeConfig::dl_streaming(1_000_000)],
            7,
            SimDuration::from_millis(1),
        );
        for ms in 0..1000u64 {
            t.pass_arrivals(SimTime::from_millis(ms));
        }
        // 1 Mbit/s for 1 s ≈ 125 kB offered downlink (packetized).
        let q = t.queue_bytes(0, Direction::Downlink);
        assert!((100_000..=125_000).contains(&q), "queued {q}");
    }

    #[test]
    fn allocation_drains_queue_and_respects_budget() {
        let mac = MacConfig {
            n_prbs: 51,
            ..Default::default()
        };
        let frame = FrameStructure::fdd(SimDuration::from_millis(1));
        let mut t = CellUeTable::new();
        t.configure(
            &[TrafficUeConfig::dl_streaming(2_000_000)],
            3,
            frame.slot_duration,
        );
        let mut dci = Vec::new();
        for slot in 0..500u64 {
            let now = frame.slot_start(slot);
            t.pass_arrivals(now);
            t.pass_link_adaptation(now, Direction::Downlink, 22.0, 1.5, &mac);
            let used = t.allocate(0, Direction::Downlink, slot, &frame, &mac, 0, 0, &mut dci);
            assert!(used <= mac.n_prbs as u32);
        }
        assert!(!dci.is_empty());
        assert!(dci.iter().all(|d| !d.is_target_ue));
        assert!(dci.iter().all(|d| d.rnti == TRAFFIC_RNTI_BASE));
        // Queue stays bounded: capacity exceeds 2 Mbit/s on a healthy cell.
        assert!(t.queue_bytes(0, Direction::Downlink) < 50_000);
    }

    #[test]
    fn configure_resets_warm_table_byte_identically() {
        let ues = traffic_mix(16);
        let mac = MacConfig::default();
        let frame = FrameStructure::fdd(SimDuration::from_millis(1));
        let mut fresh = CellUeTable::new();
        fresh.configure(&ues, 11, frame.slot_duration);
        // The warm table first serves another session on a 0.5 ms TDD cell
        // (seed, UE count and slot length all differ), up to 204.5 ms, the
        // middle of the 10 ms shadow bucket 200–209 ms. It is then
        // reconfigured to the fresh table's session on a 1 ms cell and
        // resumes at 205 ms. The resumed session's first link-adaptation
        // call repeats the inputs of the warm table's last one, so a table
        // that kept its cached result across `configure` would reuse stale
        // planes, and one that kept its arrival shapes would accrue
        // 0.5 ms of load per 1 ms slot.
        let mut warm = CellUeTable::new();
        let warm_frame = FrameStructure::tdd(SimDuration::from_micros(500), "DDDSU");
        warm.configure(&traffic_mix(32), 99, warm_frame.slot_duration);
        let dirs = [Direction::Downlink, Direction::Uplink];
        let mut dci = Vec::new();
        for slot in 0..410 {
            let now = warm_frame.slot_start(slot);
            warm.pass_arrivals(now);
            for dir in dirs {
                warm.pass_link_adaptation(now, dir, 20.0, 2.0, &mac);
                warm.allocate(0, dir, slot, &warm_frame, &mac, 0, 0, &mut dci);
            }
        }
        warm.configure(&ues, 11, frame.slot_duration);
        let key = |d: &DciRecord| {
            let dir = dix(d.direction);
            (d.ts, d.rnti, dir, d.n_prbs, d.mcs, d.tbs_bits, d.decoded_ok)
        };
        let (mut out_fresh, mut out_warm) = (Vec::new(), Vec::new());
        let mut emitted = 0;
        for slot in 205..505u64 {
            let now = frame.slot_start(slot);
            for t in [&mut fresh, &mut warm] {
                t.pass_arrivals(now);
            }
            assert_eq!(warm.credit_bits, fresh.credit_bits, "slot {slot} credit");
            assert_eq!(warm.queue_bytes, fresh.queue_bytes, "slot {slot} queues");
            for dir in dirs {
                for t in [&mut fresh, &mut warm] {
                    t.pass_link_adaptation(now, dir, 20.0, 2.0, &mac);
                }
                let p = dix(dir);
                assert_eq!(
                    warm.sinr_db[p], fresh.sinr_db[p],
                    "slot {slot} {dir:?} SINR"
                );
                assert_eq!(warm.mcs[p], fresh.mcs[p], "slot {slot} {dir:?} MCS");
                for i in 0..ues.len() {
                    fresh.allocate(i, dir, slot, &frame, &mac, 0, 0, &mut out_fresh);
                    warm.allocate(i, dir, slot, &frame, &mac, 0, 0, &mut out_warm);
                }
            }
            let fresh_keys: Vec<_> = out_fresh.iter().map(key).collect();
            let warm_keys: Vec<_> = out_warm.iter().map(key).collect();
            assert_eq!(warm_keys, fresh_keys, "slot {slot} DCI");
            emitted += out_fresh.len();
            out_fresh.clear();
            out_warm.clear();
        }
        assert!(emitted > 0, "scripted UEs must transmit");
    }
}
