//! The open-loop load generator: one thread, one `ppoll(2)` set, at most
//! one connection per role.
//!
//! Decisions are sent on a fixed schedule whatever the server does, and
//! every decision is timed from its *intended* send time, so a stall shows
//! up in the latency of every request it delayed (no coordinated
//! omission). Writes (observations + commit, or a re-crawl tick) run on a
//! second connection as a small state machine; after each acknowledged
//! write the follower thread is told to catch up, and the next write waits
//! for it.
//!
//! The generator busy-waits only while a reply is due within microseconds
//! or a send is about to fall due; otherwise it sleeps in `ppoll(2)` until
//! a reply arrives or the next send. On a two-core host a generator that
//! spun all the time would take a whole core from the server, its admin
//! thread and the follower, and their times would measure the contention.

use crate::stats::ms;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::time::{Duration, Instant};

/// One HTTP response as read off the wire.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// A nonblocking keep-alive connection with pipelined requests.
struct Lane {
    stream: TcpStream,
    out: Vec<u8>,
    out_at: usize,
    inbuf: Vec<u8>,
    in_at: usize,
    closed: bool,
}

impl Lane {
    fn connect(addr: SocketAddr) -> io::Result<Lane> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Lane {
            stream,
            out: Vec::with_capacity(64 * 1024),
            out_at: 0,
            inbuf: Vec::with_capacity(64 * 1024),
            in_at: 0,
            closed: false,
        })
    }

    fn queue(&mut self, bytes: &[u8]) {
        if self.out_at == self.out.len() {
            self.out.clear();
            self.out_at = 0;
        }
        self.out.extend_from_slice(bytes);
    }

    fn wants_write(&self) -> bool {
        self.out_at < self.out.len()
    }

    fn flush(&mut self) {
        while self.wants_write() && !self.closed {
            match self.stream.write(&self.out[self.out_at..]) {
                Ok(0) => self.closed = true,
                Ok(n) => self.out_at += n,
                Err(error) if error.kind() == ErrorKind::WouldBlock => break,
                Err(error) if error.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.closed = true,
            }
        }
    }

    fn fill(&mut self) {
        let mut chunk = [0u8; 64 * 1024];
        while !self.closed {
            match self.stream.read(&mut chunk) {
                Ok(0) => self.closed = true,
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(error) if error.kind() == ErrorKind::WouldBlock => break,
                Err(error) if error.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.closed = true,
            }
        }
    }

    /// Pop one complete response, if buffered. A response the generator
    /// cannot frame poisons the lane (`Err`).
    fn next_reply(&mut self) -> Result<Option<Reply>, ()> {
        let buffered = &self.inbuf[self.in_at..];
        let Some(head_end) = buffered.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&buffered[..head_end]).map_err(|_| ())?;
        let status: u16 = head
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .ok_or(())?;
        let length: usize = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or(())?;
        let total = head_end + 4 + length;
        if buffered.len() < total {
            return Ok(None);
        }
        let body = buffered[head_end + 4..total].to_vec();
        self.in_at += total;
        if self.in_at == self.inbuf.len() {
            self.inbuf.clear();
            self.in_at = 0;
        } else if self.in_at > 1 << 20 {
            self.inbuf.drain(..self.in_at);
            self.in_at = 0;
        }
        Ok(Some(Reply { status, body }))
    }
}

/// Judges one decision reply. `min_version` is the newest write version
/// acknowledged before the request was sent.
pub trait DecisionCheck {
    fn check(&mut self, index: usize, min_version: u64, reply: &Reply) -> bool;
}

/// The fixed-rate decision stream of one phase.
pub struct Stream<'a> {
    /// Fully rendered HTTP requests; the stream cycles through them.
    pub requests: &'a [Vec<u8>],
    /// Where in `requests` the stream starts.
    pub offset: usize,
    /// Requests per second.
    pub rate: f64,
    /// Requests to send.
    pub count: usize,
    /// Keep `(intended, sent, answered)` of every answered request.
    pub trace: bool,
}

/// The write side of a phase.
pub struct Writes<'a> {
    /// `POST /v1/observations` requests sent before each commit, cycled;
    /// empty for ticks.
    pub observe: &'a [Vec<u8>],
    /// The write itself: `POST /v1/commit` or `POST /v1/tick`.
    pub write: &'a [u8],
    /// The pause between one write's catch-up and the next write: writes
    /// run in a closed loop, as a crawler posting a batch, committing and
    /// waiting for its replica before the next batch.
    pub think: Duration,
    pub count: usize,
    /// Hands `(acked version, ack instant)` to the follower.
    pub to_follower: &'a Sender<(u64, Instant)>,
    pub from_follower: &'a Receiver<CaughtUp>,
}

/// The follower's report on one catch-up.
#[derive(Debug, Clone, Copy)]
pub struct CaughtUp {
    /// From the write's acknowledgement to the follower publishing a
    /// table at that version.
    pub catchup: Duration,
    /// Time spent in `ReplicaClient::sync`.
    pub sync: Duration,
    /// Whether the follower reached the version and decides the key
    /// sample exactly as the primary's table at that version.
    pub consistent: bool,
}

/// Everything one phase measured.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Per answered decision, in send order: latency in ms.
    pub latency_ms: Vec<f64>,
    /// Per sent decision: how late the generator sent it, in ms.
    pub late_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Per write: intended start to acknowledgement, in ms.
    pub write_ms: Vec<f64>,
    /// Per write: acknowledgement to follower publish, in ms.
    pub catchup_ms: Vec<f64>,
    /// Per write: the follower's `ReplicaClient::sync` time, in ms.
    pub sync_ms: Vec<f64>,
    pub write_attempted: u64,
    pub write_failed: u64,
    /// Decision-stream span, first intended send to last reply.
    pub elapsed: Duration,
    /// `(intended, sent, answered)` per answered request, when traced.
    pub spans: Vec<(Instant, Instant, Instant)>,
}

enum WriteState {
    Idle { due: Instant },
    Observing { intended: Instant },
    Writing { intended: Instant },
    CatchingUp { intended: Instant },
    Done,
}

/// A decision reply is waited for by spinning this long after its request
/// went out: on the fast path a sleeping generator's wake-up would be
/// timed as server latency. Past it the server is stalled (a commit, a
/// tick) and the generator sleeps.
const SPIN: Duration = Duration::from_micros(200);
/// The generator wakes this long before a send falls due and spins the
/// rest, so sleeping never makes a send late.
const WAKE_EARLY: Duration = Duration::from_micros(30);
/// How long to keep waiting for replies once everything is sent.
const DRAIN: Duration = Duration::from_secs(3);
/// A write (with its catch-up) not done within this long fails, with every
/// write after it.
const WRITE_TIMEOUT: Duration = Duration::from_secs(20);

/// Run one phase: a decision stream and, optionally, a write loop beside
/// it. Returns when the stream is fully answered (or drained out) and the
/// write loop is done.
pub fn run_phase(
    addr: SocketAddr,
    stream: Option<Stream<'_>>,
    check: &mut dyn DecisionCheck,
    mut writes: Option<Writes<'_>>,
    acked_version: &mut u64,
) -> PhaseOut {
    let mut out = PhaseOut::default();
    let mut waiter = Waiter::new();
    let mut decisions = stream
        .as_ref()
        .map(|_| Lane::connect(addr).expect("connect the decision lane"));
    let mut writer_lane = writes
        .as_ref()
        .map(|_| Lane::connect(addr).expect("connect the write lane"));
    // (pool index, intended, sent, min version) of every unanswered
    // decision.
    let mut inflight: VecDeque<(usize, Instant, Instant, u64)> = VecDeque::new();
    let traced = stream.as_ref().is_some_and(|s| s.trace);
    let start = Instant::now() + Duration::from_millis(2);
    let interval = stream
        .as_ref()
        .map_or(Duration::ZERO, |s| Duration::from_secs_f64(1.0 / s.rate));
    // `usize::MAX` requests: the stream runs until the writes are done.
    let open_ended = stream.as_ref().is_some_and(|s| s.count == usize::MAX);
    let mut total = stream.as_ref().map_or(0, |s| s.count);
    let mut sent = 0usize;
    let mut next_due = start;
    let mut last_reply = start;
    let mut schedule_end: Option<Instant> = None;
    let mut write_state = match &writes {
        Some(_) => WriteState::Idle { due: start },
        None => WriteState::Done,
    };
    let mut writes_done = 0usize;
    let mut observe_at = 0usize;

    loop {
        let now = Instant::now();
        // Decision sends: everything whose intended time has passed.
        if let (Some(lane), Some(s)) = (decisions.as_mut(), stream.as_ref()) {
            while sent < total && next_due <= now {
                let index = (s.offset + sent) % s.requests.len();
                lane.queue(&s.requests[index]);
                inflight.push_back((index, next_due, now, *acked_version));
                out.late_ms.push(ms(now - next_due));
                sent += 1;
                next_due = start + interval.mul_f64(sent as f64);
            }
            if sent == total && schedule_end.is_none() {
                schedule_end = Some(now);
            }
            lane.flush();
        }
        // Write sends.
        if let (Some(lane), Some(w)) = (writer_lane.as_mut(), writes.as_ref()) {
            if let WriteState::Idle { due } = write_state {
                if writes_done == w.count {
                    write_state = WriteState::Done;
                } else if due <= now {
                    out.write_attempted += 1;
                    if w.observe.is_empty() {
                        lane.queue(w.write);
                        write_state = WriteState::Writing { intended: due };
                    } else {
                        lane.queue(&w.observe[observe_at % w.observe.len()]);
                        observe_at += 1;
                        write_state = WriteState::Observing { intended: due };
                    }
                }
            }
            if let WriteState::CatchingUp { .. } = write_state {
                match w.from_follower.try_recv() {
                    Ok(caught_up) => {
                        if caught_up.consistent {
                            out.catchup_ms.push(ms(caught_up.catchup));
                            out.sync_ms.push(ms(caught_up.sync));
                        } else {
                            out.write_failed += 1;
                        }
                        writes_done += 1;
                        write_state = WriteState::Idle { due: now + w.think };
                    }
                    Err(TryRecvError::Empty) => {}
                    Err(TryRecvError::Disconnected) => lane.closed = true,
                }
            }
            if let WriteState::Observing { intended }
            | WriteState::Writing { intended }
            | WriteState::CatchingUp { intended } = write_state
            {
                if now > intended + WRITE_TIMEOUT {
                    lane.closed = true;
                }
            }
            lane.flush();
        }

        // Replies.
        if let Some(lane) = decisions.as_mut() {
            lane.fill();
            loop {
                match lane.next_reply() {
                    Ok(Some(reply)) => {
                        let now = Instant::now();
                        let Some((index, intended, sent_at, min_version)) = inflight.pop_front()
                        else {
                            out.failed += 1;
                            continue;
                        };
                        out.attempted += 1;
                        if reply.status == 200 && check.check(index, min_version, &reply) {
                            out.latency_ms.push(ms(now - intended));
                            if traced {
                                out.spans.push((intended, sent_at, now));
                            }
                        } else {
                            out.failed += 1;
                        }
                        last_reply = now;
                    }
                    Ok(None) => break,
                    Err(()) => {
                        lane.closed = true;
                        break;
                    }
                }
            }
            if lane.closed {
                out.attempted += inflight.len() as u64;
                out.failed += inflight.len() as u64;
                inflight.clear();
                out.attempted += (total - sent) as u64;
                out.failed += (total - sent) as u64;
                sent = total;
                decisions = None;
            }
        }
        if let (Some(lane), Some(w)) = (writer_lane.as_mut(), writes.as_mut()) {
            lane.fill();
            loop {
                match lane.next_reply() {
                    Ok(Some(reply)) => {
                        let now = Instant::now();
                        match write_state {
                            WriteState::Observing { intended } => {
                                if reply.status == 200 {
                                    lane.queue(w.write);
                                    write_state = WriteState::Writing { intended };
                                } else {
                                    out.write_failed += 1;
                                    writes_done += 1;
                                    write_state = WriteState::Idle { due: now };
                                }
                            }
                            WriteState::Writing { intended } => {
                                let version = (reply.status == 200)
                                    .then(|| reply_version(&reply.body))
                                    .flatten();
                                match version {
                                    Some(version) if version > *acked_version => {
                                        out.write_ms.push(ms(now - intended));
                                        *acked_version = version;
                                        write_state = WriteState::CatchingUp { intended };
                                        if w.to_follower.send((version, now)).is_err() {
                                            lane.closed = true;
                                        }
                                    }
                                    _ => {
                                        out.write_failed += 1;
                                        writes_done += 1;
                                        write_state = WriteState::Idle { due: now };
                                    }
                                }
                            }
                            _ => out.write_failed += 1,
                        }
                    }
                    Ok(None) => break,
                    Err(()) => {
                        lane.closed = true;
                        break;
                    }
                }
            }
            lane.flush();
            if lane.closed && !matches!(write_state, WriteState::Done) {
                // The write in flight was attempted already.
                let in_flight = !matches!(write_state, WriteState::Idle { .. });
                let left = (w.count - writes_done) as u64;
                out.write_attempted += left - u64::from(in_flight);
                out.write_failed += left;
                write_state = WriteState::Done;
            }
        }

        let writes_finished = matches!(write_state, WriteState::Done);
        if open_ended && writes_finished && total != sent {
            total = sent;
            schedule_end = Some(Instant::now());
        }
        let stream_done = sent == total && inflight.is_empty();
        if stream_done && writes_finished {
            break;
        }
        let now = Instant::now();
        if let Some(end) = schedule_end {
            if !inflight.is_empty() && now > end + DRAIN && writes_finished {
                out.attempted += inflight.len() as u64;
                out.failed += inflight.len() as u64;
                inflight.clear();
                break;
            }
        }

        // Wait: spin while a decision reply is due any moment or a send is
        // about to fall due, otherwise sleep until either happens.
        let mut wait = Duration::from_millis(1);
        if sent < total {
            wait = wait.min(next_due.saturating_duration_since(now + WAKE_EARLY));
        }
        if let WriteState::Idle { due } = write_state {
            wait = wait.min(due.saturating_duration_since(now + WAKE_EARLY));
        }
        if inflight
            .front()
            .is_some_and(|&(_, _, sent_at, _)| now < sent_at + SPIN)
        {
            wait = Duration::ZERO;
        }
        if wait.is_zero() {
            std::thread::yield_now();
        } else {
            waiter.wait(
                [decisions.as_ref(), writer_lane.as_ref()]
                    .into_iter()
                    .flatten()
                    .map(|lane| (&lane.stream, lane.wants_write())),
                wait,
            );
        }
    }
    out.elapsed = last_reply.saturating_duration_since(start);
    out
}

/// The `version` field of a JSON commit or tick acknowledgement.
fn reply_version(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let value = crawler::json::Value::parse(text).ok()?;
    value.field("version").ok()?.as_u64().ok()
}

/// Sleeps until one of a set of sockets is ready or a timeout passes, with
/// the sub-millisecond timeouts `poll(2)` cannot express.
struct Waiter {
    fds: Vec<sys::PollFd>,
}

impl Waiter {
    /// A waiter for the calling thread, whose timer slack drops to one
    /// microsecond so that a timed wake-up is not deferred by the default
    /// 50 µs.
    fn new() -> Waiter {
        // SAFETY: PR_SET_TIMERSLACK takes a plain integer and changes only
        // the calling thread's timer slack.
        unsafe {
            sys::prctl(sys::PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
        }
        Waiter { fds: Vec::new() }
    }

    /// Block until a socket is readable (or writable, where asked) or
    /// `timeout` passes. Errors and interruptions count as a wake-up.
    fn wait<'a>(
        &mut self,
        sockets: impl Iterator<Item = (&'a TcpStream, bool)>,
        timeout: Duration,
    ) {
        use std::os::unix::io::AsRawFd;
        self.fds.clear();
        self.fds
            .extend(sockets.map(|(stream, writable)| sys::PollFd {
                fd: stream.as_raw_fd(),
                events: sys::POLLIN | if writable { sys::POLLOUT } else { 0 },
                revents: 0,
            }));
        let timeout = sys::Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fds` is a live, correctly sized array of `pollfd`, the
        // timeout outlives the call, and a null mask leaves signals as
        // they are.
        unsafe {
            sys::ppoll(
                self.fds.as_mut_ptr(),
                self.fds.len() as u64,
                &timeout,
                std::ptr::null(),
            );
        }
    }
}

/// The two linux calls the waiter needs, declared by hand as the server's
/// poller declares `poll(2)`.
mod sys {
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const PR_SET_TIMERSLACK: i32 = 29;

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
        pub fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
}
