//! The coordinator/worker wire layer: length-delimited frames carrying the
//! plain-text shard protocol, a [`Transport`] abstraction over how frames
//! reach the coordinator, and a real TCP implementation for multi-process
//! deployments.
//!
//! **Framing.** Every message is one frame: a header line
//! `frame\t<kind>\t<payload-bytes>\n` followed by exactly that many payload
//! bytes. Header and payloads are written and read with the shared
//! [`domino_obs::wire`] codec, like [`ShardReport`](crate::ShardReport);
//! result payloads embed the full checksummed report encoding, so a
//! corrupted-in-flight result fails [`ShardReport::parse`](crate::ShardReport::parse)
//! at the coordinator instead of folding bad bytes into a merge.
//!
//! **Transport.** The coordinator is a single-threaded event-loop state
//! machine; everything it knows about the outside world arrives as a
//! [`TransportEvent`] and everything it says goes through
//! [`Transport::send`]. Time is read from the transport too
//! ([`Transport::now_ms`]), which is what makes the chaos harness
//! ([`crate::chaos::InProcFleet`]) fully deterministic: it advances a
//! virtual clock instead of reading the machine's, so a fault schedule
//! replays identically on every run. [`TcpTransport`] is the production
//! shape: real sockets, real wall clock, workers as separate processes.

use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use domino_obs::wire::{Fields, Reader, WireError, Writer};

/// Identifies one worker connection for the lifetime of the connection. A
/// worker that reconnects gets a fresh id — the coordinator treats it as a
/// new worker, which is what makes reconnect-after-crash safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId(pub u64);

/// Frame kinds of the coordinator protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Worker → coordinator greeting (carries a display name).
    Hello,
    /// Coordinator → worker: run a spec sub-range.
    Dispatch,
    /// Worker → coordinator: an encoded [`crate::ShardReport`] for a range.
    Result,
    /// Coordinator → worker: no more work; exit cleanly.
    Drain,
}

impl FrameKind {
    fn wire(self) -> &'static str {
        match self {
            FrameKind::Hello => "hello",
            FrameKind::Dispatch => "dispatch",
            FrameKind::Result => "result",
            FrameKind::Drain => "drain",
        }
    }

    fn from_wire(s: &str) -> Option<FrameKind> {
        Some(match s {
            "hello" => FrameKind::Hello,
            "dispatch" => FrameKind::Dispatch,
            "result" => FrameKind::Result,
            "drain" => FrameKind::Drain,
            _ => return None,
        })
    }
}

/// One protocol message: a kind plus a plain-text payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub kind: FrameKind,
    pub payload: String,
}

/// Largest payload a frame header may declare. The biggest frames are
/// results, one dispatched range's encoded [`ShardReport`](crate::ShardReport)
/// at about a kilobyte per session, so 64 MiB holds ranges of tens of
/// thousands of sessions. It is also the most a peer can make the
/// receiving side buffer for one frame: a header declaring more is
/// rejected before any of its payload is read.
pub(crate) const MAX_FRAME_BYTES: usize = 64 << 20;

/// Longest header line (`frame\t<kind>\t<len>`) the decoder waits for.
const MAX_HEADER_BYTES: usize = 256;

/// Everything a dispatch frame says: which sub-range of which grid to run.
/// `ranges` is the plan's total sub-range count — the worker stamps it into
/// the report's `shard` line so re-runs of the same range are byte-equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchSpec {
    /// Sub-range id (shard index within the coordinator's plan).
    pub range_id: usize,
    /// First global spec index of the range.
    pub start: usize,
    /// Specs in the range.
    pub len: usize,
    /// Total specs in the grid.
    pub total: usize,
    /// Total sub-ranges in the coordinator's plan.
    pub ranges: usize,
}

impl DispatchSpec {
    /// Parses a dispatch payload.
    pub fn parse(payload: &str) -> Result<DispatchSpec, WireError> {
        Fields::read(payload, 1, "dispatch", |f| {
            Ok(DispatchSpec {
                range_id: f.uint()?,
                start: f.uint()?,
                len: f.uint()?,
                total: f.uint()?,
                ranges: f.uint()?,
            })
        })
    }
}

impl Frame {
    /// A worker greeting.
    pub fn hello(name: &str) -> Frame {
        let mut w = Writer::new("hello");
        w.word(name);
        Frame {
            kind: FrameKind::Hello,
            payload: w.into_line(),
        }
    }

    /// A dispatch order for one sub-range.
    pub fn dispatch(d: &DispatchSpec) -> Frame {
        let mut w = Writer::new("dispatch");
        w.uint(d.range_id)
            .uint(d.start)
            .uint(d.len)
            .uint(d.total)
            .uint(d.ranges);
        Frame {
            kind: FrameKind::Dispatch,
            payload: w.into_line(),
        }
    }

    /// A result frame: the range id on the first line, the full encoded
    /// (checksummed) shard report after it.
    pub fn result(range_id: usize, report_text: &str) -> Frame {
        let mut w = Writer::new("result");
        w.uint(range_id);
        let mut payload = w.finish();
        payload.push_str(report_text);
        Frame {
            kind: FrameKind::Result,
            payload,
        }
    }

    /// The drain order.
    pub fn drain() -> Frame {
        Frame {
            kind: FrameKind::Drain,
            payload: "drain".to_string(),
        }
    }

    /// Splits a result payload into `(range_id, report_text)`.
    pub fn parse_result(payload: &str) -> Result<(usize, &str), WireError> {
        let mut r = Reader::new(payload);
        let id = r.line("result", Fields::uint)?;
        Ok((id, r.rest()))
    }

    /// Length-delimited encoding: `frame\t<kind>\t<len>\n` + payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new("frame");
        w.word(self.kind.wire()).uint(self.payload.len());
        let mut out = w.finish().into_bytes();
        out.extend_from_slice(self.payload.as_bytes());
        out
    }

    /// Tries to decode one frame from the front of `buf`. Returns
    /// `Ok(None)` when more bytes are needed; on success the consumed
    /// prefix is drained from `buf`. A header declaring more than
    /// 64 MiB fails at once with [`WireError::TooLong`], so
    /// the caller never buffers toward a length the peer made up.
    pub fn decode(buf: &mut Vec<u8>) -> Result<Option<Frame>, WireError> {
        let malformed = |want| WireError::Malformed { line: 1, want };
        let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
            if buf.len() > MAX_HEADER_BYTES {
                return Err(malformed("frame header within 256 bytes"));
            }
            return Ok(None);
        };
        let header =
            std::str::from_utf8(&buf[..nl]).map_err(|_| malformed("utf-8 frame header"))?;
        let (kind, len) = Fields::read(header, 1, "frame", |f| {
            let kind = FrameKind::from_wire(f.field()?).ok_or(f.malformed("frame kind"))?;
            Ok((kind, f.uint()?))
        })?;
        let end = (nl + 1)
            .checked_add(len)
            .filter(|_| len <= MAX_FRAME_BYTES)
            .ok_or(WireError::TooLong { declared: len })?;
        if buf.len() < end {
            return Ok(None);
        }
        let payload = std::str::from_utf8(&buf[nl + 1..end])
            .map_err(|_| malformed("utf-8 frame payload"))?
            .to_string();
        buf.drain(..end);
        Ok(Some(Frame { kind, payload }))
    }
}

/// A send failed because the worker is gone. The coordinator reacts exactly
/// as it does to a [`TransportEvent::Disconnected`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError;

/// What the coordinator's event loop sees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportEvent {
    /// A worker connected (or reconnected under a fresh id).
    Connected(WorkerId),
    /// A frame arrived from a worker.
    Frame(WorkerId, Frame),
    /// A worker's connection died (crash, kill, network partition).
    Disconnected(WorkerId),
}

/// How the coordinator reaches its fleet. Implementations: [`TcpTransport`]
/// (real sockets, wall clock) and [`crate::chaos::InProcFleet`] (in-process
/// workers, virtual clock, scripted faults).
pub trait Transport {
    /// Milliseconds since the transport started. Virtualizable: all
    /// coordinator deadlines (dispatch timeouts, backoff, straggler
    /// detection) are computed against this clock, never `Instant::now`.
    fn now_ms(&self) -> u64;

    /// Sends a frame to a worker. `Err` means the worker is unreachable
    /// *now* — the caller must treat it as dead.
    fn send(&mut self, to: WorkerId, frame: &Frame) -> Result<(), SendError>;

    /// Waits up to `timeout_ms` for the next event. `None` means the
    /// timeout elapsed quietly (and the clock advanced by it).
    fn recv(&mut self, timeout_ms: u64) -> Option<TransportEvent>;
}

// ---------------------------------------------------------------------------
// TCP implementation
// ---------------------------------------------------------------------------

struct TcpConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// Socket-backed [`Transport`]: binds a listener, accepts worker
/// connections, reads frames with non-blocking polls. An optional
/// disconnect hook lets a service respawn replacement workers (the
/// `sharded_sweep --coordinator` example uses it to restart crashed worker
/// processes) — policy stays outside the coordinator state machine.
pub struct TcpTransport {
    listener: TcpListener,
    started: Instant,
    conns: BTreeMap<u64, TcpConn>,
    next_id: u64,
    pending: VecDeque<TransportEvent>,
    on_disconnect: Option<Box<dyn FnMut(u64)>>,
}

impl TcpTransport {
    /// Binds `127.0.0.1:0` (an OS-assigned port; see [`Self::port`]).
    pub fn bind() -> std::io::Result<TcpTransport> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        Ok(TcpTransport {
            listener,
            started: Instant::now(),
            conns: BTreeMap::new(),
            next_id: 0,
            pending: VecDeque::new(),
            on_disconnect: None,
        })
    }

    /// The port workers should connect to.
    pub fn port(&self) -> u16 {
        self.listener.local_addr().map(|a| a.port()).unwrap_or(0)
    }

    /// Registers a hook called with the running death count every time a
    /// worker connection drops (crash or clean exit).
    pub fn set_on_disconnect(&mut self, f: impl FnMut(u64) + 'static) {
        self.on_disconnect = Some(Box::new(f));
    }

    fn drop_conn(&mut self, id: u64) {
        if self.conns.remove(&id).is_some() {
            self.pending
                .push_back(TransportEvent::Disconnected(WorkerId(id)));
            let deaths = self.next_id - self.conns.len() as u64;
            if let Some(f) = &mut self.on_disconnect {
                f(deaths);
            }
        }
    }

    fn poll_once(&mut self) {
        // Accept any waiting connections.
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    let id = self.next_id;
                    self.next_id += 1;
                    self.conns.insert(
                        id,
                        TcpConn {
                            stream,
                            buf: Vec::new(),
                        },
                    );
                    self.pending
                        .push_back(TransportEvent::Connected(WorkerId(id)));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        // Read whatever each connection has buffered.
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let mut dead = false;
            {
                let conn = self.conns.get_mut(&id).expect("conn exists");
                let mut chunk = [0u8; 16 * 1024];
                loop {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            dead = true;
                            break;
                        }
                        Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
                if !dead {
                    loop {
                        match Frame::decode(&mut conn.buf) {
                            Ok(Some(frame)) => self
                                .pending
                                .push_back(TransportEvent::Frame(WorkerId(id), frame)),
                            Ok(None) => break,
                            Err(_) => {
                                // Framing is broken beyond recovery: treat
                                // the connection as dead.
                                dead = true;
                                break;
                            }
                        }
                    }
                }
            }
            if dead {
                self.drop_conn(id);
            }
        }
    }
}

impl Transport for TcpTransport {
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn send(&mut self, to: WorkerId, frame: &Frame) -> Result<(), SendError> {
        let Some(conn) = self.conns.get_mut(&to.0) else {
            return Err(SendError);
        };
        // Frames are small except results (KBs); a blocking-ish write loop
        // over the non-blocking socket keeps one code path.
        let bytes = frame.encode();
        let mut off = 0;
        while off < bytes.len() {
            match conn.stream.write(&bytes[off..]) {
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => {
                    self.drop_conn(to.0);
                    return Err(SendError);
                }
            }
        }
        Ok(())
    }

    fn recv(&mut self, timeout_ms: u64) -> Option<TransportEvent> {
        let deadline = Instant::now() + Duration::from_millis(timeout_ms);
        loop {
            if let Some(ev) = self.pending.pop_front() {
                return Some(ev);
            }
            self.poll_once();
            if let Some(ev) = self.pending.pop_front() {
                return Some(ev);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Worker-side blocking connection to a [`TcpTransport`] coordinator.
pub struct TcpLink {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl TcpLink {
    /// Connects to `addr` (e.g. `127.0.0.1:41234`).
    pub fn connect(addr: &str) -> std::io::Result<TcpLink> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(TcpLink {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one frame.
    pub fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.stream.write_all(&frame.encode())
    }

    /// Blocks for the next frame; `Ok(None)` on clean EOF (coordinator
    /// closed the connection — treat like a drain).
    pub fn recv(&mut self) -> std::io::Result<Option<Frame>> {
        loop {
            match Frame::decode(&mut self.buf) {
                Ok(Some(frame)) => return Ok(Some(frame)),
                Ok(None) => {}
                Err(e) => return Err(std::io::Error::new(ErrorKind::InvalidData, e.to_string())),
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk)? {
                0 => return Ok(None),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_partial_buffers() {
        let frames = [
            Frame::hello("w0"),
            Frame::dispatch(&DispatchSpec {
                range_id: 3,
                start: 6,
                len: 2,
                total: 12,
                ranges: 6,
            }),
            Frame::result(3, "line one\nline two\n"),
            Frame::drain(),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        // Feed the byte stream one byte at a time: the decoder must only
        // yield complete frames and consume exactly what it parsed.
        let mut buf = Vec::new();
        let mut out = Vec::new();
        for &b in &wire {
            buf.push(b);
            while let Some(f) = Frame::decode(&mut buf).expect("valid stream") {
                out.push(f);
            }
        }
        assert!(buf.is_empty());
        assert_eq!(out.len(), frames.len());
        for (a, b) in out.iter().zip(&frames) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn dispatch_payload_round_trips() {
        let d = DispatchSpec {
            range_id: 1,
            start: 4,
            len: 4,
            total: 12,
            ranges: 3,
        };
        let f = Frame::dispatch(&d);
        assert_eq!(DispatchSpec::parse(&f.payload).unwrap(), d);
        assert!(DispatchSpec::parse("dispatch\t1\t2").is_err());
    }

    #[test]
    fn result_payload_splits_id_and_report() {
        let f = Frame::result(7, "report body\nwith lines\n");
        let (id, body) = Frame::parse_result(&f.payload).unwrap();
        assert_eq!(id, 7);
        assert_eq!(body, "report body\nwith lines\n");
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut buf = b"not a frame\n".to_vec();
        assert!(Frame::decode(&mut buf).is_err());
        let mut buf = b"frame\tbogus\t4\nabcd".to_vec();
        assert!(Frame::decode(&mut buf).is_err());
        let mut buf = b"frame\thello\tnope\nabcd".to_vec();
        assert!(Frame::decode(&mut buf).is_err());
    }

    #[test]
    fn decode_rejects_declared_lengths_past_the_cap() {
        // `nl + 1 + len` wraps: this header used to panic on the slice.
        let mut buf = b"frame\thello\t18446744073709551615\n".to_vec();
        assert_eq!(
            Frame::decode(&mut buf),
            Err(WireError::TooLong {
                declared: usize::MAX
            })
        );
        // 10^12 bytes: this header used to ask for more bytes forever.
        let mut buf = b"frame\tresult\t1000000000000\npartial".to_vec();
        assert_eq!(
            Frame::decode(&mut buf),
            Err(WireError::TooLong {
                declared: 1_000_000_000_000
            })
        );
        // The cap itself is a legal length: the decoder waits for it.
        let mut buf = format!("frame\tresult\t{MAX_FRAME_BYTES}\n").into_bytes();
        assert_eq!(Frame::decode(&mut buf), Ok(None));
        let mut buf = format!("frame\tresult\t{}\n", MAX_FRAME_BYTES + 1).into_bytes();
        assert!(matches!(
            Frame::decode(&mut buf),
            Err(WireError::TooLong { .. })
        ));
    }
}
