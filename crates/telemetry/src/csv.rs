//! Hand-rolled CSV export for trace bundles.
//!
//! Kept dependency-free on purpose: the values we write are numbers and
//! fixed labels, so no field ever needs quoting.

use std::fmt::Write as _;

use crate::bundle::TraceBundle;
use crate::records::GnbEvent;

/// Renders the packet records of a bundle as CSV.
pub fn packets_to_csv(bundle: &TraceBundle) -> String {
    let mut out = String::from("sent_us,received_us,direction,stream,seq,size_bytes,owd_ms\n");
    for p in &bundle.packets {
        let recv = p
            .received
            .map(|t| t.as_micros().to_string())
            .unwrap_or_default();
        let owd = p
            .one_way_delay()
            .map(|d| format!("{:.3}", d.as_millis_f64()))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "{},{},{},{:?},{},{},{}",
            p.sent.as_micros(),
            recv,
            p.direction.label(),
            p.stream,
            p.seq,
            p.size_bytes,
            owd
        );
    }
    out
}

/// Renders the DCI records of a bundle as CSV.
pub fn dci_to_csv(bundle: &TraceBundle) -> String {
    let mut out = String::from(
        "ts_us,rnti,direction,target_ue,prbs,mcs,tbs_bits,harq_id,retx_idx,decoded,proactive,used_bits\n",
    );
    for d in &bundle.dci {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            d.ts.as_micros(),
            d.rnti,
            d.direction.label(),
            d.is_target_ue as u8,
            d.n_prbs,
            d.mcs,
            d.tbs_bits,
            d.harq_id,
            d.harq_retx_idx,
            d.decoded_ok as u8,
            d.proactive as u8,
            d.used_bits
        );
    }
    out
}

/// Renders the gNB log of a bundle as CSV.
pub fn gnb_to_csv(bundle: &TraceBundle) -> String {
    let mut out = String::from("ts_us,event,direction,value\n");
    for g in &bundle.gnb {
        let (ev, dir, val) = match &g.event {
            GnbEvent::RlcRetx { direction, sn } => ("rlc_retx", direction.label(), *sn as u64),
            GnbEvent::RlcBuffer { direction, bytes } => ("rlc_buffer", direction.label(), *bytes),
            GnbEvent::RrcTransition { state, rnti } => (
                match state {
                    crate::records::RrcState::Connected => "rrc_connected",
                    crate::records::RrcState::Idle => "rrc_idle",
                    crate::records::RrcState::Connecting => "rrc_connecting",
                },
                "-",
                *rnti as u64,
            ),
        };
        let _ = writeln!(out, "{},{},{},{}", g.ts.as_micros(), ev, dir, val);
    }
    out
}

/// Renders the app-stats stream (either client) as CSV.
pub fn app_to_csv(records: &[crate::records::AppStatsRecord]) -> String {
    let mut out = String::from(
        "ts_us,in_fps,in_res,vjb_ms,ajb_ms,minjb_ms,freeze,freeze_ms,concealed,audio_total,\
         out_fps,out_res,target_bps,pushback_bps,outstanding,cwnd,state,slope,threshold\n",
    );
    for a in records {
        let _ = writeln!(
            out,
            "{},{:.2},{},{:.1},{:.1},{:.1},{},{:.1},{},{},{:.2},{},{:.0},{:.0},{},{},{:?},{:.4},{:.4}",
            a.ts.as_micros(),
            a.inbound_fps,
            a.inbound_resolution.label(),
            a.video_jitter_buffer_ms,
            a.audio_jitter_buffer_ms,
            a.min_jitter_buffer_ms,
            a.freeze_active as u8,
            a.total_freeze_ms,
            a.concealed_samples,
            a.total_audio_samples,
            a.outbound_fps,
            a.outbound_resolution.label(),
            a.target_bitrate_bps,
            a.pushback_rate_bps,
            a.outstanding_bytes,
            a.cwnd_bytes,
            a.gcc_state,
            a.trendline_slope,
            a.trendline_threshold
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::SessionMeta;
    use crate::records::*;
    use simcore::{SimDuration, SimTime};

    #[test]
    fn escaping() {
        // No writer needs RFC 4180 quoting: every row of every stream has the
        // header's field count and no quote character.
        let mut b = TraceBundle::new(SessionMeta::baseline(
            "a,\"b\"",
            SimDuration::from_secs(1),
            0,
        ));
        for direction in [Direction::Uplink, Direction::Downlink] {
            b.packets.push(PacketRecord {
                sent: SimTime::ZERO,
                received: Some(SimTime::from_millis(3)),
                direction,
                stream: StreamKind::Video,
                seq: 1,
                size_bytes: 1200,
            });
            b.dci.push(DciRecord {
                ts: SimTime::ZERO,
                rnti: 17,
                direction,
                is_target_ue: true,
                n_prbs: 4,
                mcs: 10,
                tbs_bits: 1000,
                harq_id: 0,
                harq_retx_idx: 1,
                decoded_ok: false,
                proactive: false,
                used_bits: 800,
            });
            b.gnb.push(GnbLogRecord {
                ts: SimTime::ZERO,
                event: GnbEvent::RlcBuffer {
                    direction,
                    bytes: 64,
                },
            });
        }
        for state in [RrcState::Connected, RrcState::Idle, RrcState::Connecting] {
            b.gnb.push(GnbLogRecord {
                ts: SimTime::ZERO,
                event: GnbEvent::RrcTransition { state, rnti: 17 },
            });
        }
        for csv in [packets_to_csv(&b), dci_to_csv(&b), gnb_to_csv(&b)] {
            let fields = csv.lines().next().unwrap().split(',').count();
            assert!(csv.lines().count() > 2);
            for line in csv.lines() {
                assert_eq!(line.split(',').count(), fields, "{line}");
                assert!(!line.contains('"'), "{line}");
            }
        }
    }

    #[test]
    fn packet_csv_row_count() {
        let mut b = TraceBundle::new(SessionMeta::baseline("x", SimDuration::from_secs(1), 0));
        b.packets.push(PacketRecord {
            sent: SimTime::from_millis(1),
            received: None,
            direction: Direction::Downlink,
            stream: StreamKind::Audio,
            seq: 9,
            size_bytes: 120,
        });
        let csv = packets_to_csv(&b);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("DL"));
    }

    #[test]
    fn gnb_csv_covers_all_events() {
        let mut b = TraceBundle::new(SessionMeta::baseline("x", SimDuration::from_secs(1), 0));
        b.gnb.push(GnbLogRecord {
            ts: SimTime::ZERO,
            event: GnbEvent::RlcRetx {
                direction: Direction::Uplink,
                sn: 5,
            },
        });
        b.gnb.push(GnbLogRecord {
            ts: SimTime::ZERO,
            event: GnbEvent::RrcTransition {
                state: RrcState::Idle,
                rnti: 77,
            },
        });
        let csv = gnb_to_csv(&b);
        assert!(csv.contains("rlc_retx"));
        assert!(csv.contains("rrc_idle"));
    }
}
