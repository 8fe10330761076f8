//! Operator-scale concurrent diagnosis: 16 staggered calls multiplexed
//! through ONE live diagnoser — one shared `SessionArena` (with its tagged
//! `SharedRouteQueue`), and one session-keyed `PipelinePool` whose
//! reorder buffers, packet rings, and streaming analyzers are recycled
//! across call starts and ends.
//!
//! This drives the raw stepping API directly (`SessionSpec::start_in` +
//! `begin_tick` / `route_event` / `end_tick` / `finish`) — the same
//! machinery `domino-sweep`'s `ExecutionMode::Multiplexed` wraps — so the
//! scheduling is visible: a new call is admitted every 2 s of global time
//! while a slot is free, early-exit triage ends calls at irregular
//! instants, and freed slots (and their warm pipelines) go straight to the
//! next caller. Every call's verdicts are byte-identical to what a
//! dedicated solo pipeline would have produced (the multiplex determinism
//! suite proves it); this example prints each call's verdict timeline and
//! the peak retained footprint of the whole 16-call fleet.
//!
//! ```text
//! cargo run --release --example multiplexed_live
//! ```

use domino::core::default_graph;
use domino::live::{EarlyExit, LiveConfig, LiveVerdict, PipelinePool};
use domino::scenarios::{
    all_cells, ScriptAction, SessionArena, SessionConfig, SessionSpec, SessionState,
};
use domino::simcore::{SimDuration, SimTime};
use domino::telemetry::{Direction, Lateness};

const CALLS: usize = 16;
const WIDTH: usize = 6;

/// The fleet: 16 calls over the Table 1 cells; every third call carries a
/// downlink cross-traffic surge and every fifth an RRC release, so the
/// verdict mix spans healthy, congested, and outage calls.
fn fleet() -> Vec<SessionSpec> {
    let cells = all_cells();
    (0..CALLS)
        .map(|i| {
            let mut spec = SessionSpec::cell(
                cells[i % cells.len()].clone(),
                SessionConfig {
                    duration: SimDuration::from_secs(35),
                    seed: 4_100 + i as u64,
                    ..Default::default()
                },
            );
            if i % 3 == 1 {
                spec = spec.with_script(ScriptAction::CrossTraffic {
                    dir: Direction::Downlink,
                    from: SimTime::from_secs(8),
                    to: SimTime::from_secs(14),
                    prb_fraction: 0.96,
                });
            }
            if i % 5 == 2 {
                spec = spec.with_script(ScriptAction::RrcRelease {
                    at: SimTime::from_secs(18),
                });
            }
            spec
        })
        .collect()
}

struct Call {
    id: usize,
    state: SessionState,
    offset: SimDuration,
}

fn timeline(graph: &domino::core::CausalGraph, verdicts: &[LiveVerdict]) -> Vec<String> {
    verdicts
        .iter()
        .filter(|v| v.changed)
        .map(|v| {
            let mut lines: Vec<String> = v
                .chains
                .iter()
                .map(|c| {
                    c.path
                        .iter()
                        .map(|&n| graph.name(n))
                        .collect::<Vec<_>>()
                        .join(" --> ")
                })
                .chain(
                    v.unknown_consequences
                        .iter()
                        .map(|&u| format!("{} (cause unknown)", graph.name(u))),
                )
                .collect();
            lines.sort();
            lines.dedup();
            let what = if lines.is_empty() {
                "healthy".to_string()
            } else {
                lines.join("; ")
            };
            format!("t={:>5.1}s  {what}", v.emitted_at.as_secs_f64())
        })
        .collect()
}

fn main() {
    let specs = fleet();
    let graph = default_graph();
    // Triage configuration: tight lateness, exit once the verdict has been
    // stable for 6 windows — healthy calls free their slot early, exactly
    // how a fleet diagnoser sheds load.
    let live_cfg = LiveConfig {
        lateness: Lateness::Static(SimDuration::from_secs(1)),
        early_exit: EarlyExit::StableFor(6),
    };

    let mut arena = SessionArena::new();
    let mut pool = PipelinePool::with_defaults(live_cfg).expect("default config is aligned");

    let tick = specs[0].cfg.tick;
    let admission_gap = SimDuration::from_secs(2);
    let mut next_admission = SimTime::ZERO;
    let mut next_spec = 0usize;
    let mut active: Vec<Call> = Vec::new();
    let mut global = SimTime::ZERO;
    let mut peak_footprint = 0usize;
    let mut completed = 0usize;

    println!("== multiplexed live diagnosis: {CALLS} calls, width {WIDTH} ==\n");
    while next_spec < specs.len() || !active.is_empty() {
        // Staggered admission: at most one new call per 2 s global, while a
        // slot (and therefore a pooled pipeline) is free.
        if next_spec < specs.len() && active.len() < WIDTH && global >= next_admission {
            let id = next_spec;
            next_spec += 1;
            pool.checkout(id as u64);
            let state = specs[id].start_in(true, &mut arena);
            println!(
                "[{:>5.1}s] + call {id:02} admitted ({}), {} in flight, pool free {}",
                global.as_secs_f64(),
                specs[id].label,
                active.len() + 1,
                pool.free_len(),
            );
            active.push(Call {
                id,
                state,
                offset: global - SimTime::ZERO,
            });
            next_admission = global + admission_gap;
        }
        global += tick;

        // Phase 1–2 for every in-flight call, route events into the shared
        // tagged queue at global time.
        let (shared, scratch) = arena.route_parts();
        for c in active.iter_mut() {
            let tap = pool.get_mut(c.id as u64).expect("leased at admission");
            c.state
                .begin_tick(tap, scratch, &mut shared.sink(c.id as u64, c.offset));
        }
        // Phase 3: one global drain in (time, session, seq) order.
        while let Some((at, tag, ev)) = shared.pop_due(global) {
            let Some(c) = active.iter_mut().find(|c| c.id as u64 == tag) else {
                continue; // stale event of a finished call
            };
            let tap = pool.get_mut(tag).expect("leased at admission");
            c.state.route_event(at - c.offset, ev, tap);
        }
        // Phase 4–5; finished calls print their timeline and free the slot.
        let mut i = 0;
        while i < active.len() {
            let c = &mut active[i];
            let tap = pool.get_mut(c.id as u64).expect("leased at admission");
            if c.state.end_tick(tap, arena.scratch_mut()) {
                let c = active.swap_remove(i);
                let tap = pool.get_mut(c.id as u64).expect("leased at admission");
                let bundle = c.state.finish(tap, &mut arena);
                let pipe = pool.get_mut(c.id as u64).expect("leased at admission");
                let verdicts = pipe.drain_verdicts();
                let _ = pipe.take_analysis(bundle.meta.duration);
                let stats = pool.release(c.id as u64).expect("leased");
                completed += 1;
                println!(
                    "[{:>5.1}s] - call {:02} done after {:>4.1}s ({} windows, {}): ",
                    global.as_secs_f64(),
                    c.id,
                    bundle.meta.duration.as_secs_f64(),
                    stats.windows_emitted,
                    if stats.early_exited {
                        "verdict stable, exited early"
                    } else {
                        "ran to completion"
                    },
                );
                for line in timeline(&graph, &verdicts) {
                    println!("            {line}");
                }
                arena.recycle(bundle);
            } else {
                i += 1;
            }
        }
        peak_footprint = peak_footprint.max(arena.footprint());
    }

    let stats = pool.stats();
    println!("\n== fleet summary ==");
    println!("  calls completed        {completed}");
    println!(
        "  pipelines built/reused {}/{} (evicted {})",
        stats.created, stats.reused, stats.evicted
    );
    println!(
        "  peak shared footprint  {peak_footprint} retained elements \
         (SessionArena::footprint, route queue included, all {CALLS} calls)"
    );
}
