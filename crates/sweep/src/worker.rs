//! The worker side of the coordinator protocol: run dispatched sub-ranges
//! with the ordinary [`run_shard`] path and stream results back as frames.
//!
//! Two layers. `SweepWorker` is the pure range executor — dispatch in,
//! result frame out — used directly by the in-process chaos harness so
//! simulated workers run *exactly* the code a remote worker runs.
//! [`run_worker`] wraps it in a blocking frame loop over a [`WorkerLink`]
//! (TCP in production) for the `sharded_sweep --worker` process mode.
//!
//! [`WorkerFaults`] gives the process mode the same scripted failure
//! vocabulary the in-process harness has: die after N specs (crash
//! mid-range, result never sent) or corrupt the first result's bytes. CI's
//! chaos job uses these to kill real processes under a real coordinator.

use domino_core::Domino;
use scenarios::SessionSpec;

use crate::shard::{run_shard, Shard};
use domino_obs::WireError;

use crate::transport::{DispatchSpec, Frame, FrameKind, TcpLink};
use crate::SweepOptions;

/// Scripted failures for a process worker. Defaults to none.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerFaults {
    /// Crash (exit without sending a result) once this many specs have
    /// been *started* — the range that crosses the threshold is computed
    /// but its result is never delivered, i.e. a kill mid-range.
    pub exit_after_specs: Option<usize>,
    /// Flip one byte in the first result's report text before sending.
    /// The coordinator's checksum must catch it and re-dispatch.
    pub corrupt_first_result: bool,
}

/// Why [`run_worker`] returned.
#[derive(Debug)]
pub enum WorkerExit {
    /// Coordinator sent a drain (or closed the connection): clean exit.
    Drained,
    /// A scripted [`WorkerFaults::exit_after_specs`] fired: the process
    /// should exit abruptly without cleanup.
    Killed,
    /// The link failed.
    Link(String),
}

/// Executes dispatches. Stateless between ranges except for fault
/// bookkeeping, so the same executor serves long-lived workers.
pub(crate) struct SweepWorker<'a> {
    specs: &'a [SessionSpec],
    domino: &'a Domino,
    opts: &'a SweepOptions,
    faults: WorkerFaults,
    specs_started: usize,
    results_sent: usize,
}

impl<'a> SweepWorker<'a> {
    /// A fault-free executor over the full grid.
    pub(crate) fn new(
        specs: &'a [SessionSpec],
        domino: &'a Domino,
        opts: &'a SweepOptions,
    ) -> Self {
        Self::with_faults(specs, domino, opts, WorkerFaults::default())
    }

    /// An executor with scripted faults.
    pub(crate) fn with_faults(
        specs: &'a [SessionSpec],
        domino: &'a Domino,
        opts: &'a SweepOptions,
        faults: WorkerFaults,
    ) -> Self {
        SweepWorker {
            specs,
            domino,
            opts,
            faults,
            specs_started: 0,
            results_sent: 0,
        }
    }

    /// Specs this worker has started (dispatch accepted), including ones
    /// whose result was suppressed by a fault.
    pub(crate) fn specs_started(&self) -> usize {
        self.specs_started
    }

    /// Runs one dispatched range and builds its result frame. `None` means
    /// the scripted kill fired: the range was started but no result may be
    /// sent, and the caller must die.
    pub(crate) fn run_dispatch(&mut self, d: &DispatchSpec) -> Result<Option<Frame>, WireError> {
        let end = d.start.checked_add(d.len);
        if end.is_none_or(|end| end > self.specs.len()) || d.total != self.specs.len() {
            return Err(WireError::Malformed {
                line: 1,
                want: "dispatch range within the grid",
            });
        }
        self.specs_started += d.len;
        let killed = self
            .faults
            .exit_after_specs
            .is_some_and(|n| self.specs_started > n);
        let shard = Shard {
            index: d.range_id,
            count: d.ranges,
            range: d.start..d.start + d.len,
        };
        let report = run_shard(self.specs, &shard, self.domino, self.opts);
        if killed {
            return Ok(None);
        }
        let mut text = report.encode();
        if self.faults.corrupt_first_result && self.results_sent == 0 {
            corrupt_in_place(&mut text);
        }
        self.results_sent += 1;
        Ok(Some(Frame::result(d.range_id, &text)))
    }
}

/// Flips one payload byte without breaking the framing: picks a mid-text
/// byte that is not a tab or newline and XORs a bit, so the frame still
/// decodes but the report checksum no longer matches.
pub(crate) fn corrupt_in_place(text: &mut str) {
    // Report text is pure ASCII; XOR 0x02 on a graphic byte stays graphic
    // ASCII, so the String stays valid UTF-8 and the framing stays intact.
    let bytes = unsafe { text.as_bytes_mut() };
    let n = bytes.len();
    for i in 0..n {
        let idx = (n / 2 + i) % n;
        if bytes[idx].is_ascii_graphic() && bytes[idx] != b'\t' {
            bytes[idx] ^= 0x02;
            return;
        }
    }
}

/// A frame pipe a worker loop can run over. [`TcpLink`] is the production
/// implementation; tests can drive [`run_worker`] over an in-memory one.
pub trait WorkerLink {
    /// Sends one frame to the coordinator.
    fn send(&mut self, frame: &Frame) -> Result<(), String>;
    /// Blocks for the next frame; `Ok(None)` on clean EOF.
    fn recv(&mut self) -> Result<Option<Frame>, String>;
}

impl WorkerLink for TcpLink {
    fn send(&mut self, frame: &Frame) -> Result<(), String> {
        TcpLink::send(self, frame).map_err(|e| e.to_string())
    }

    fn recv(&mut self) -> Result<Option<Frame>, String> {
        TcpLink::recv(self).map_err(|e| e.to_string())
    }
}

/// The blocking worker loop: greet, then serve dispatches until drained,
/// killed by a scripted fault, or the link dies.
pub fn run_worker(
    link: &mut dyn WorkerLink,
    name: &str,
    specs: &[SessionSpec],
    domino: &Domino,
    opts: &SweepOptions,
    faults: WorkerFaults,
) -> WorkerExit {
    let mut exec = SweepWorker::with_faults(specs, domino, opts, faults);
    if let Err(e) = link.send(&Frame::hello(name)) {
        return WorkerExit::Link(e);
    }
    loop {
        let frame = match link.recv() {
            Ok(Some(frame)) => frame,
            Ok(None) => return WorkerExit::Drained,
            Err(e) => return WorkerExit::Link(e),
        };
        match frame.kind {
            FrameKind::Drain => return WorkerExit::Drained,
            FrameKind::Dispatch => {
                let d = match DispatchSpec::parse(&frame.payload) {
                    Ok(d) => d,
                    Err(e) => return WorkerExit::Link(e.to_string()),
                };
                match exec.run_dispatch(&d) {
                    Ok(Some(result)) => {
                        if let Err(e) = link.send(&result) {
                            return WorkerExit::Link(e);
                        }
                    }
                    Ok(None) => return WorkerExit::Killed,
                    Err(e) => return WorkerExit::Link(e.to_string()),
                }
            }
            // Hello/Result from the coordinator make no sense; ignore.
            FrameKind::Hello | FrameKind::Result => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardReport;
    use scenarios::all_cells_grid;
    use simcore::SimDuration;

    fn grid() -> Vec<SessionSpec> {
        all_cells_grid(7, SimDuration::from_secs(6))
    }

    #[test]
    fn dispatch_produces_parseable_result() {
        let specs = grid();
        let domino = Domino::with_defaults();
        let opts = SweepOptions::default().threads(1);
        let mut w = SweepWorker::new(&specs, &domino, &opts);
        let d = DispatchSpec {
            range_id: 1,
            start: 2,
            len: 2,
            total: specs.len(),
            ranges: 4,
        };
        let frame = w.run_dispatch(&d).unwrap().expect("no kill scripted");
        let (id, body) = Frame::parse_result(&frame.payload).unwrap();
        assert_eq!(id, 1);
        let report = ShardReport::parse(body).expect("worker result parses");
        assert_eq!(report.start, 2);
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.grid_total, specs.len());
        // A range whose end overflows `usize` (it would wrap back inside
        // the grid in release builds) is refused, not run.
        let wrapping = DispatchSpec {
            start: usize::MAX,
            ..d
        };
        assert!(matches!(
            w.run_dispatch(&wrapping),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn scripted_kill_suppresses_the_crossing_result() {
        let specs = grid();
        let domino = Domino::with_defaults();
        let opts = SweepOptions::default().threads(1);
        let faults = WorkerFaults {
            exit_after_specs: Some(3),
            ..WorkerFaults::default()
        };
        let mut w = SweepWorker::with_faults(&specs, &domino, &opts, faults);
        let d0 = DispatchSpec {
            range_id: 0,
            start: 0,
            len: 2,
            total: specs.len(),
            ranges: 4,
        };
        assert!(w.run_dispatch(&d0).unwrap().is_some(), "under threshold");
        let d1 = DispatchSpec {
            range_id: 1,
            start: 2,
            len: 2,
            total: specs.len(),
            ranges: 4,
        };
        assert!(
            w.run_dispatch(&d1).unwrap().is_none(),
            "crossing range dies mid-flight"
        );
    }

    #[test]
    fn corruption_breaks_the_checksum_but_not_the_frame() {
        let specs = grid();
        let domino = Domino::with_defaults();
        let opts = SweepOptions::default().threads(1);
        let faults = WorkerFaults {
            corrupt_first_result: true,
            ..WorkerFaults::default()
        };
        let mut w = SweepWorker::with_faults(&specs, &domino, &opts, faults);
        let d = DispatchSpec {
            range_id: 0,
            start: 0,
            len: 2,
            total: specs.len(),
            ranges: 2,
        };
        let frame = w.run_dispatch(&d).unwrap().unwrap();
        // Frame still decodes end-to-end…
        let mut wire = frame.encode();
        let mut buf = std::mem::take(&mut wire);
        let decoded = Frame::decode(&mut buf).unwrap().unwrap();
        let (_, body) = Frame::parse_result(&decoded.payload).unwrap();
        // …but the embedded report fails its checksum.
        assert!(ShardReport::parse(body).is_err());
        // Second result is clean.
        let d2 = DispatchSpec {
            range_id: 1,
            start: 2,
            len: 2,
            total: specs.len(),
            ranges: 2,
        };
        let frame2 = w.run_dispatch(&d2).unwrap().unwrap();
        let (_, body2) = Frame::parse_result(&frame2.payload).unwrap();
        assert!(ShardReport::parse(body2).is_ok());
    }
}
