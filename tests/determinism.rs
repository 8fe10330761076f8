//! Reproducibility: identical (seed, config) must yield byte-identical
//! traces and identical Domino analyses; different seeds must diverge.

use domino::core::{ChainStats, Domino};
use domino::scenarios::{SessionConfig, SessionSpec};
use domino::simcore::SimDuration;

fn cfg(seed: u64) -> SessionConfig {
    SessionConfig {
        duration: SimDuration::from_secs(12),
        seed,
        ..Default::default()
    }
}

#[test]
fn identical_seeds_identical_traces_and_analysis() {
    let a = SessionSpec::cell(domino::scenarios::amarisoft(), cfg(123)).run();
    let b = SessionSpec::cell(domino::scenarios::amarisoft(), cfg(123)).run();

    assert_eq!(a.packets.len(), b.packets.len());
    for (x, y) in a.packets.iter().zip(&b.packets) {
        assert_eq!(x.sent, y.sent);
        assert_eq!(x.received, y.received);
        assert_eq!(x.size_bytes, y.size_bytes);
    }
    assert_eq!(a.dci.len(), b.dci.len());
    for (x, y) in a.dci.iter().zip(&b.dci) {
        assert_eq!(x.ts, y.ts);
        assert_eq!(x.tbs_bits, y.tbs_bits);
        assert_eq!(x.mcs, y.mcs);
        assert_eq!(x.decoded_ok, y.decoded_ok);
    }
    assert_eq!(a.gnb.len(), b.gnb.len());
    assert_eq!(a.app_local.len(), b.app_local.len());
    for (x, y) in a.app_local.iter().zip(&b.app_local) {
        assert_eq!(x.target_bitrate_bps, y.target_bitrate_bps);
        assert_eq!(x.outstanding_bytes, y.outstanding_bytes);
    }

    let domino = Domino::with_defaults();
    let sa = ChainStats::compute(domino.graph(), &domino.analyze(&a));
    let sb = ChainStats::compute(domino.graph(), &domino.analyze(&b));
    assert_eq!(sa.total_chain_windows, sb.total_chain_windows);
    assert_eq!(sa.cause_onsets, sb.cause_onsets);
}

/// A capacity-independent fingerprint of everything a bundle records.
fn fingerprint(
    b: &domino::telemetry::TraceBundle,
) -> (usize, u128, usize, usize, u64, usize, usize, usize) {
    (
        b.packets.len(),
        b.packets
            .iter()
            .filter_map(|p| p.received)
            .map(|t| t.as_micros() as u128)
            .sum(),
        b.dci.len(),
        b.dci.iter().filter(|d| d.is_target_ue).count(),
        b.dci.iter().map(|d| d.tbs_bits as u64).sum(),
        b.dci.iter().filter(|d| d.decoded_ok).count(),
        b.gnb.len(),
        b.app_local.len(),
    )
}

/// Golden fingerprints captured on the object-at-a-time cell before the SoA
/// refactor. An N=1 cell (no scripted traffic UEs) must reproduce the
/// legacy two-party session *exactly* — any drift here means the shared
/// slot loop changed single-UE physics.
#[test]
fn n1_cell_reproduces_prerefactor_golden_traces() {
    let a = SessionSpec::cell(domino::scenarios::amarisoft(), cfg(123)).run();
    assert_eq!(
        fingerprint(&a),
        (4629, 29329767038, 5906, 4961, 30911960, 5599, 12002, 240)
    );
    let b = SessionSpec::cell(domino::scenarios::amarisoft(), cfg(9)).run();
    assert_eq!(
        fingerprint(&b),
        (4964, 30633548092, 6676, 5100, 36788384, 6381, 12002, 240)
    );
}

/// Scripted traffic UEs draw from counter-based hashes, not RNG streams, so
/// adding them must (a) stay deterministic across runs and (b) leave the
/// diagnosed pair's packet count untouched only in *stream identity* — the
/// contention itself of course changes timings vs. an empty cell.
#[test]
fn traffic_ue_population_is_deterministic() {
    use domino::ran::traffic_mix;
    let mut cell = domino::scenarios::amarisoft();
    cell.traffic_ues = traffic_mix(16);
    let a = SessionSpec::cell(cell.clone(), cfg(31)).run();
    let b = SessionSpec::cell(cell, cfg(31)).run();
    assert_eq!(fingerprint(&a), fingerprint(&b));
    // The scripted population shows up as foreign RNTIs in the DCI log.
    assert!(
        a.dci
            .iter()
            .any(|d| !d.is_target_ue && d.rnti >= domino::ran::TRAFFIC_RNTI_BASE),
        "scripted UEs must be visible in the control channel"
    );
}

/// One pair on a shared-cell driver is the same simulation as the solo
/// engine — byte-identical bundles, not just matching statistics — and
/// applies a spec's scripts the way the solo engine does: here a downlink
/// cross-traffic burst and uplink HARQ failures.
#[test]
fn shared_driver_single_pair_matches_solo_engine() {
    use domino::scenarios::{amarisoft, ScriptAction, SharedCellDriver};
    use domino::simcore::SimTime;
    use domino::telemetry::Direction;
    let scripts = [
        ScriptAction::CrossTraffic {
            dir: Direction::Downlink,
            from: SimTime::from_secs(4),
            to: SimTime::from_secs(7),
            prb_fraction: 0.95,
        },
        ScriptAction::HarqFailures {
            dir: Direction::Uplink,
            from: SimTime::from_secs(6),
            to: SimTime::from_secs(9),
            fail_attempts: 1,
        },
    ];
    let spec = SessionSpec::cell(amarisoft(), cfg(123));
    let unscripted = spec.run();
    let solo = scripts
        .iter()
        .fold(spec, |spec, &action| spec.with_script(action))
        .run();
    let shared = SharedCellDriver::new(amarisoft(), &cfg(123), 1, &scripts).run();
    assert_eq!(shared.len(), 1);
    assert_ne!(
        bundle_digest(&solo),
        bundle_digest(&unscripted),
        "the scripts must change the call"
    );
    assert_eq!(bundle_digest(&solo), bundle_digest(&shared[0]));
    assert_eq!(fingerprint(&solo), fingerprint(&shared[0]));
}

/// Many-UE cells stay deterministic under arena reuse: a session run in a
/// warm arena (recycled UE table, bundle, pending map) must equal a fresh
/// run.
#[test]
fn warm_arena_matches_fresh_arena_with_traffic_ues() {
    use domino::scenarios::SessionArena;
    use domino::telemetry::NullTap;
    let mut cell = domino::scenarios::amarisoft();
    cell.traffic_ues = domino::ran::traffic_mix(8);
    let mut arena = SessionArena::new();
    let first = SessionSpec::cell(cell.clone(), cfg(55)).run_with_tap_in(&mut NullTap, &mut arena);
    let warm = SessionSpec::cell(cell, cfg(55)).run_with_tap_in(&mut NullTap, &mut arena);
    assert_eq!(fingerprint(&first), fingerprint(&warm));
}

#[test]
fn different_seeds_diverge() {
    let a = SessionSpec::cell(domino::scenarios::amarisoft(), cfg(1)).run();
    let b = SessionSpec::cell(domino::scenarios::amarisoft(), cfg(2)).run();
    let same = a
        .packets
        .iter()
        .zip(&b.packets)
        .take(2000)
        .filter(|(x, y)| x.received == y.received)
        .count();
    assert!(
        same < 1900,
        "different seeds should produce different delivery timings ({same}/2000 identical)"
    );
}

#[test]
fn scripted_overrides_do_not_break_determinism() {
    use domino::simcore::SimTime;
    use domino::telemetry::Direction;
    let spec = SessionSpec::cell(domino::scenarios::amarisoft(), cfg(9)).with_script(
        domino::scenarios::ScriptAction::Sinr {
            dir: Direction::Uplink,
            from: SimTime::from_secs(5),
            to: SimTime::from_secs(7),
            sinr_db: 0.0,
        },
    );
    let a = spec.run();
    let b = spec.run();
    assert_eq!(a.packets.len(), b.packets.len());
    let last_a = a.packets.last().expect("packets exist");
    let last_b = b.packets.last().expect("packets exist");
    assert_eq!(last_a.received, last_b.received);
}

// ---------------------------------------------------------------------------
// Whole-bundle digests
// ---------------------------------------------------------------------------

/// Serialises every field of every record in a bundle's metadata and its
/// six streams — f64s by bit pattern, `Option`s and enums with a tag,
/// each stream prefixed by its length — and hashes the bytes with
/// `fnv1a64`. Any change to any simulated value changes the digest.
fn bundle_digest(b: &domino::telemetry::TraceBundle) -> u64 {
    use domino::simcore::SimTime;
    use domino::telemetry::{AppStatsRecord, GnbEvent};

    fn u64s(buf: &mut Vec<u8>, vals: &[u64]) {
        for v in vals {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    fn f64s(buf: &mut Vec<u8>, vals: &[f64]) {
        for v in vals {
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    fn time(buf: &mut Vec<u8>, t: SimTime) {
        u64s(buf, &[t.as_micros()]);
    }
    fn app(buf: &mut Vec<u8>, r: &AppStatsRecord) {
        time(buf, r.ts);
        f64s(
            buf,
            &[
                r.inbound_fps,
                r.video_jitter_buffer_ms,
                r.audio_jitter_buffer_ms,
                r.min_jitter_buffer_ms,
                r.total_freeze_ms,
                r.outbound_fps,
                r.target_bitrate_bps,
                r.pushback_rate_bps,
                r.trendline_slope,
                r.trendline_threshold,
            ],
        );
        u64s(
            buf,
            &[
                r.concealed_samples,
                r.total_audio_samples,
                r.outstanding_bytes,
                r.cwnd_bytes,
            ],
        );
        buf.extend_from_slice(&[
            r.inbound_resolution as u8,
            r.outbound_resolution as u8,
            r.freeze_active as u8,
            r.gcc_state as u8,
        ]);
    }

    let mut buf = Vec::new();
    let m = &b.meta;
    buf.extend_from_slice(m.cell_name.as_bytes());
    f64s(&mut buf, &[m.carrier_mhz, m.bandwidth_mhz]);
    u64s(&mut buf, &[m.duration.as_micros(), m.seed]);
    buf.extend_from_slice(&[m.cell_class as u8, m.duplexing as u8, m.has_gnb_log as u8]);

    u64s(&mut buf, &[b.dci.len() as u64]);
    for d in &b.dci {
        time(&mut buf, d.ts);
        u64s(
            &mut buf,
            &[
                d.rnti.into(),
                d.n_prbs.into(),
                d.tbs_bits.into(),
                d.used_bits.into(),
            ],
        );
        buf.extend_from_slice(&[
            d.direction as u8,
            d.is_target_ue as u8,
            d.mcs,
            d.harq_id,
            d.harq_retx_idx,
            d.decoded_ok as u8,
            d.proactive as u8,
        ]);
    }

    u64s(&mut buf, &[b.gnb.len() as u64]);
    for g in &b.gnb {
        time(&mut buf, g.ts);
        match &g.event {
            GnbEvent::RlcRetx { direction, sn } => {
                buf.extend_from_slice(&[0, *direction as u8]);
                u64s(&mut buf, &[(*sn).into()]);
            }
            GnbEvent::RlcBuffer { direction, bytes } => {
                buf.extend_from_slice(&[1, *direction as u8]);
                u64s(&mut buf, &[*bytes]);
            }
            GnbEvent::RrcTransition { state, rnti } => {
                buf.extend_from_slice(&[2, *state as u8]);
                u64s(&mut buf, &[(*rnti).into()]);
            }
        }
    }

    u64s(&mut buf, &[b.packets.len() as u64]);
    for p in &b.packets {
        time(&mut buf, p.sent);
        match p.received {
            Some(t) => {
                buf.push(1);
                time(&mut buf, t);
            }
            None => buf.push(0),
        }
        u64s(&mut buf, &[p.seq, p.size_bytes.into()]);
        buf.extend_from_slice(&[p.direction as u8, p.stream as u8]);
    }

    for stream in [&b.app_local, &b.app_remote] {
        u64s(&mut buf, &[stream.len() as u64]);
        for r in stream.iter() {
            app(&mut buf, r);
        }
    }

    u64s(&mut buf, &[b.playback.len() as u64]);
    for p in &b.playback {
        time(&mut buf, p.ts);
        f64s(
            &mut buf,
            &[p.buffer_ms, p.total_stall_ms, p.est_throughput_bps],
        );
        u64s(&mut buf, &[p.stall_count.into(), p.segments_fetched.into()]);
        buf.extend_from_slice(&[
            p.started as u8,
            p.stalled as u8,
            p.rung,
            p.target_rung,
            p.resolution as u8,
        ]);
    }

    domino::obs::wire::fnv1a64(&buf)
}

/// The `rtc_table1` causes, in order: none, UL SINR dip, DL cross-traffic
/// surge, UL HARQ failures, RRC release. Windows sit at 12–18 s so a 20 s
/// call covers them.
fn table1_causes() -> [Option<domino::scenarios::ScriptAction>; 5] {
    use domino::scenarios::ScriptAction;
    use domino::simcore::SimTime;
    use domino::telemetry::Direction;
    let (from, to) = (SimTime::from_secs(12), SimTime::from_secs(18));
    [
        None,
        Some(ScriptAction::Sinr {
            dir: Direction::Uplink,
            from,
            to,
            sinr_db: -2.0,
        }),
        Some(ScriptAction::CrossTraffic {
            dir: Direction::Downlink,
            from,
            to,
            prb_fraction: 0.95,
        }),
        Some(ScriptAction::HarqFailures {
            dir: Direction::Uplink,
            from,
            to,
            fail_attempts: 2,
        }),
        Some(ScriptAction::RrcRelease {
            at: SimTime::from_secs(15),
        }),
    ]
}

/// Digests of 20 s RTC calls on `cell`, one per [`table1_causes`] entry.
fn table1_digests(cell: domino::ran::CellConfig) -> [u64; 5] {
    use domino::scenarios::SessionSpec;
    table1_causes().map(|cause| {
        let mut spec = SessionSpec::cell(
            cell.clone(),
            SessionConfig {
                duration: SimDuration::from_secs(20),
                seed: 3,
                ..Default::default()
            },
        );
        if let Some(action) = cause {
            spec = spec.with_script(action);
        }
        bundle_digest(&spec.run())
    })
}

// Golden whole-bundle digests, one test per Table-1 cell so the cells run
// in parallel. They pin every simulated statistic — packet timings, DCI,
// gNB logs and every app-stats field — so a change that should be
// invisible (an optimisation, a refactor) must leave them unedited.

#[test]
fn tmobile_fdd_table1_bundles_match_golden_digests() {
    assert_eq!(
        table1_digests(domino::scenarios::tmobile_fdd_15mhz()),
        [
            0xe718_c884_019d_d6e2,
            0x84b2_7804_3e27_2317,
            0x7a95_ddfe_d13b_a751,
            0x779c_b9a5_4ee4_644d,
            0x9c14_12d0_d7f9_2971,
        ]
    );
}

#[test]
fn tmobile_tdd_table1_bundles_match_golden_digests() {
    assert_eq!(
        table1_digests(domino::scenarios::tmobile_tdd_100mhz()),
        [
            0x68fa_1a1b_fd0b_c433,
            0x7eb9_7979_8781_8ac0,
            0x85b0_279a_1b02_6986,
            0xc5f7_eba5_189a_9006,
            0xaa75_7960_d604_5872,
        ]
    );
}

#[test]
fn amarisoft_table1_bundles_match_golden_digests() {
    assert_eq!(
        table1_digests(domino::scenarios::amarisoft()),
        [
            0x8c07_9412_cecd_84fb,
            0x5775_0758_7371_1599,
            0xa294_a4d2_6255_2302,
            0xbc7a_aabd_aa3e_e953,
            0x2b91_a04d_68c0_f478,
        ]
    );
}

#[test]
fn mosolabs_table1_bundles_match_golden_digests() {
    assert_eq!(
        table1_digests(domino::scenarios::mosolabs()),
        [
            0xba51_25e3_83b2_2f5b,
            0x3ce1_0c0c_3d99_661a,
            0xd881_d287_5965_0cf7,
            0xe356_d70e_92f8_4a55,
            0x7116_f64a_8ff7_d68e,
        ]
    );
}

#[test]
fn abr_stream_bundle_matches_golden_digest() {
    use domino::abr::AbrConfig;
    use domino::scenarios::{ScriptAction, SessionSpec};
    use domino::simcore::SimTime;
    use domino::telemetry::Direction;
    let spec = SessionSpec::cell(
        domino::scenarios::amarisoft(),
        SessionConfig {
            duration: SimDuration::from_secs(20),
            seed: 3,
            ..Default::default()
        },
    )
    .abr(AbrConfig::default())
    .with_script(ScriptAction::CrossTraffic {
        dir: Direction::Downlink,
        from: SimTime::from_secs(8),
        to: SimTime::from_secs(16),
        prb_fraction: 0.95,
    });
    assert_eq!(bundle_digest(&spec.run()), 0x05aa_3a23_e258_3f65);
}

// ---------------------------------------------------------------------------
// Contended cells: whole-bundle digests with scripted UEs on the carrier
// ---------------------------------------------------------------------------

// Golden digests of sessions that share their cell with scripted traffic
// UEs, one test per cell and workload so they run in parallel. The
// scripts push the carrier past full (a 0.95 cross-traffic surge on top
// of 32 or more scripted UEs) while scripted HARQ lanes are busy, so they
// pin the scripted-UE arrivals, link adaptation and allocation order as
// well as the diagnosed sessions.

fn contended(mut cell: domino::ran::CellConfig, ues: usize) -> domino::ran::CellConfig {
    cell.traffic_ues = domino::ran::traffic_mix(ues);
    cell
}

fn contended_cfg(secs: u64) -> SessionConfig {
    SessionConfig {
        duration: SimDuration::from_secs(secs),
        seed: 3,
        ..Default::default()
    }
}

/// Digests of 25 s ABR streams with 1 s and 2 s segments on `cell` shared
/// with `traffic_mix(32)`, under `abr_contended_mux`'s downlink
/// cross-traffic surge (8–16 s) and downlink SINR dip (20–24 s).
fn abr_contended_digests(cell: domino::ran::CellConfig) -> [u64; 2] {
    use domino::abr::AbrConfig;
    use domino::scenarios::{ScriptAction, SessionSpec};
    use domino::simcore::SimTime;
    use domino::telemetry::Direction;
    [1u64, 2].map(|segment| {
        let spec = SessionSpec::cell(contended(cell.clone(), 32), contended_cfg(25))
            .abr(AbrConfig {
                segment_duration: SimDuration::from_secs(segment),
                ..Default::default()
            })
            .with_script(ScriptAction::CrossTraffic {
                dir: Direction::Downlink,
                from: SimTime::from_secs(8),
                to: SimTime::from_secs(16),
                prb_fraction: 0.95,
            })
            .with_script(ScriptAction::Sinr {
                dir: Direction::Downlink,
                from: SimTime::from_secs(20),
                to: SimTime::from_secs(24),
                sinr_db: -2.0,
            });
        bundle_digest(&spec.run())
    })
}

#[test]
fn amarisoft_contended_abr_bundles_match_golden_digests() {
    assert_eq!(
        abr_contended_digests(domino::scenarios::amarisoft()),
        [0x18f8_492c_7457_1456, 0xb185_28a4_da23_4c51,]
    );
}

#[test]
fn mosolabs_contended_abr_bundles_match_golden_digests() {
    assert_eq!(
        abr_contended_digests(domino::scenarios::mosolabs()),
        [0x5304_ada4_cdbf_790c, 0x47ea_e057_7df6_6832,]
    );
}

/// A 10 s call on an FDD cell (1 ms slots, 79 PRBs, heavy ambient
/// downlink cross traffic) shared with 46 scripted UEs, through a
/// downlink cross-traffic surge.
#[test]
fn tmobile_fdd_contended_call_bundle_matches_golden_digest() {
    use domino::scenarios::{ScriptAction, SessionSpec};
    use domino::simcore::SimTime;
    use domino::telemetry::Direction;
    let spec = SessionSpec::cell(
        contended(domino::scenarios::tmobile_fdd_15mhz(), 46),
        contended_cfg(10),
    )
    .with_script(ScriptAction::CrossTraffic {
        dir: Direction::Downlink,
        from: SimTime::from_secs(3),
        to: SimTime::from_secs(6),
        prb_fraction: 0.95,
    });
    assert_eq!(bundle_digest(&spec.run()), 0xdb60_9c31_2847_fe1a);
}

/// A 10 s call on a cell shared with 32 scripted UEs while the diagnosed
/// UE's downlink HARQ attempts are forced to fail.
#[test]
fn amarisoft_contended_harq_call_bundle_matches_golden_digest() {
    use domino::scenarios::{ScriptAction, SessionSpec};
    use domino::simcore::SimTime;
    use domino::telemetry::Direction;
    let spec = SessionSpec::cell(
        contended(domino::scenarios::amarisoft(), 32),
        contended_cfg(10),
    )
    .with_script(ScriptAction::HarqFailures {
        dir: Direction::Downlink,
        from: SimTime::from_secs(3),
        to: SimTime::from_secs(6),
        fail_attempts: 2,
    });
    assert_eq!(bundle_digest(&spec.run()), 0x0464_34b9_2129_8d69);
}

/// Three diagnosed pairs for 10 s on one contended cell, through a
/// downlink cross-traffic surge: the allocation rotation interleaves
/// several experiment UEs with the scripted ones.
#[test]
fn shared_contended_cell_bundles_match_golden_digests() {
    use domino::scenarios::{ScriptAction, SharedCellDriver};
    use domino::simcore::SimTime;
    use domino::telemetry::Direction;
    let surge = ScriptAction::CrossTraffic {
        dir: Direction::Downlink,
        from: SimTime::from_secs(3),
        to: SimTime::from_secs(6),
        prb_fraction: 0.95,
    };
    let bundles = SharedCellDriver::new(
        contended(domino::scenarios::amarisoft(), 32),
        &contended_cfg(10),
        3,
        &[surge],
    )
    .run();
    assert_eq!(
        bundles.iter().map(bundle_digest).collect::<Vec<_>>(),
        [
            0x0aad_574e_fb56_ae6b,
            0x7cc6_8e9c_e386_d483,
            0xcd04_9660_a7ef_6bbb,
        ]
    );
}
