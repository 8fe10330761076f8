//! Whole-session invariants that must hold for any cell, seed, and script:
//! causality (no packet received before it was sent), RLC in-order release,
//! telemetry sortedness, and stats-stream integrity.

use domino::scenarios::{SessionConfig, SessionSpec};
use domino::simcore::SimDuration;
use domino::telemetry::{Direction, StreamKind, TraceBundle};

fn sessions() -> Vec<TraceBundle> {
    let mut out = Vec::new();
    for (i, cell) in domino::scenarios::all_cells().into_iter().enumerate() {
        let cfg = SessionConfig {
            duration: SimDuration::from_secs(15),
            seed: 900 + i as u64,
            ..Default::default()
        };
        out.push(SessionSpec::cell(cell, cfg).run());
    }
    out
}

#[test]
fn causality_no_packet_arrives_before_send() {
    for b in sessions() {
        for p in &b.packets {
            if let Some(r) = p.received {
                assert!(
                    r >= p.sent,
                    "{}: packet seq {} received {:?} before sent {:?}",
                    b.meta.cell_name,
                    p.seq,
                    r,
                    p.sent
                );
            }
        }
    }
}

#[test]
fn media_packets_arrive_in_order_per_direction() {
    // RLC AM in-order delivery + FIFO paths ⇒ per-direction media arrival
    // order matches send order.
    for b in sessions() {
        for dir in [Direction::Uplink, Direction::Downlink] {
            let mut last_arrival = None;
            for p in b
                .packets
                .iter()
                .filter(|p| p.direction == dir && p.stream != StreamKind::Rtcp)
            {
                if let Some(r) = p.received {
                    if let Some(last) = last_arrival {
                        assert!(
                            r >= last,
                            "{}: {dir:?} reordering at seq {}",
                            b.meta.cell_name,
                            p.seq
                        );
                    }
                    last_arrival = Some(r);
                }
            }
        }
    }
}

#[test]
fn bundles_are_sorted_and_counted() {
    for b in sessions() {
        assert!(b.is_sorted(), "{}", b.meta.cell_name);
        // Stats cadence: 50 ms for 15 s → ~300 samples per client.
        assert!(b.app_local.len() >= 295, "{}", b.app_local.len());
        assert_eq!(b.app_local.len(), b.app_remote.len());
        // Cumulative counters never decrease.
        for side in [&b.app_local, &b.app_remote] {
            for w in side.windows(2) {
                assert!(w[1].concealed_samples >= w[0].concealed_samples);
                assert!(w[1].total_audio_samples >= w[0].total_audio_samples);
                assert!(w[1].total_freeze_ms >= w[0].total_freeze_ms);
            }
        }
    }
}

#[test]
fn dci_is_consistent() {
    for b in sessions() {
        for d in &b.dci {
            assert!(d.mcs <= 28, "{}", b.meta.cell_name);
            assert!(d.n_prbs >= 1);
            assert!(d.n_prbs as usize <= 273);
            assert!(d.used_bits <= d.tbs_bits.max(d.used_bits));
            if !d.is_target_ue {
                assert_eq!(d.harq_retx_idx, 0, "cross traffic is aggregate, no retx");
            }
        }
    }
}

#[test]
fn delivery_rate_is_high_on_reliable_rlc() {
    // RLC AM recovers every MAC-layer loss; only the (tiny) path loss and
    // packets still in flight at session end can be missing.
    for b in sessions() {
        let total = b.packets.len() as f64;
        let delivered = b.packets.iter().filter(|p| p.received.is_some()).count() as f64;
        assert!(
            delivered / total > 0.97,
            "{}: only {:.1}% delivered",
            b.meta.cell_name,
            100.0 * delivered / total
        );
    }
}

/// Four failed HARQ attempts on every downlink transport block from 3 s to
/// 7 s stall the UE's inbound media long enough that a whole one-second
/// receiver-report interval brings no new packet. Building that report
/// used to subtract past zero: a debug build panicked with "attempt to
/// subtract with overflow" (a release build wrapped to a loss of 0). The
/// session must run to its end, and the stalled receiver must still report
/// on the 50 ms stats lattice.
#[test]
fn receiver_report_after_a_silent_interval_does_not_underflow() {
    use domino::scenarios::{ScriptAction, SessionSpec};
    use domino::simcore::SimTime;
    let cfg = SessionConfig {
        duration: SimDuration::from_secs(10),
        seed: 1,
        ..Default::default()
    };
    let b = SessionSpec::cell(domino::scenarios::amarisoft(), cfg)
        .with_script(ScriptAction::HarqFailures {
            dir: Direction::Downlink,
            from: SimTime::from_secs(3),
            to: SimTime::from_secs(7),
            fail_attempts: 4,
        })
        .run();
    assert_eq!(b.app_local.len(), 200);
    assert!(b
        .packets
        .iter()
        .any(|p| p.direction == Direction::Downlink && p.received.is_some()));
}
