//! The open-loop load generator: one thread per connection, each
//! sending its schedule on time whether or not earlier replies are
//! back, with up to `depth` requests in flight.
//!
//! A request's latency runs from its *scheduled* send time to the last
//! byte of its reply, so a stalled reply charges every request due
//! behind it on that connection. Lateness is the generator's own delay:
//! send time minus the later of the scheduled time and the moment a
//! slot was free.

use crate::workload::{encode, Item, Kind, Req, Wire};
use hos_serve::Json;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// A connection that delivers no byte for this long is declared dead
/// and its outstanding requests failed.
const STALL: Duration = Duration::from_secs(30);

/// One request's outcome. Times are seconds since its phase started;
/// `done` is NaN when no reply arrived.
#[derive(Clone, Debug)]
pub struct Sample {
    pub kind: Kind,
    pub sched: f64,
    pub sent: f64,
    pub done: f64,
    pub late: f64,
    /// HTTP status (hosbin error frames carry one too); 0 when the
    /// request never got a reply.
    pub status: u16,
    /// The decoded reply, kept for writes, scans and checked queries.
    pub reply: Option<Json>,
    /// The id a retire-own-insert request named.
    pub retired: Option<usize>,
}

impl Sample {
    pub fn ok(&self) -> bool {
        self.status == 200
    }

    /// Seconds from the scheduled send time to the reply.
    pub fn latency(&self) -> f64 {
        self.done - self.sched
    }

    /// Seconds from the actual send to the reply: the latency of a
    /// closed-loop request.
    pub fn service(&self) -> f64 {
        self.done - self.sent
    }
}

/// A keep-alive client connection.
pub struct Conn {
    stream: TcpStream,
    wire: Wire,
    rbuf: Vec<u8>,
    /// The id of this connection's last inserted row, not yet retired.
    own: Option<usize>,
    dead: bool,
}

impl Conn {
    pub fn open(addr: SocketAddr, wire: Wire) -> io::Result<Conn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        if wire == Wire::Bin {
            stream.write_all(&tinyhttp::bin::MAGIC)?;
        }
        Ok(Conn {
            stream,
            wire,
            rbuf: Vec::with_capacity(64 * 1024),
            own: None,
            dead: false,
        })
    }

    /// Whether the connection broke or stalled; its unanswered requests
    /// counted as failed.
    pub fn dead(&self) -> bool {
        self.dead
    }

    /// Pops one complete reply off the read buffer: `(status, opcode,
    /// body)`, where `opcode` is 0 on the JSON wire.
    fn take_reply(&mut self) -> Option<(u16, u8, Vec<u8>)> {
        match self.wire {
            Wire::Json => {
                let head_end = self.rbuf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
                let head = std::str::from_utf8(&self.rbuf[..head_end]).ok()?;
                let status = head.get(9..12)?.parse().ok()?;
                let len: usize = head
                    .lines()
                    .find_map(|l| {
                        let (k, v) = l.split_once(':')?;
                        k.eq_ignore_ascii_case("content-length")
                            .then(|| v.trim().parse().ok())?
                    })
                    .unwrap_or(0);
                if self.rbuf.len() < head_end + len {
                    return None;
                }
                let body = self.rbuf[head_end..head_end + len].to_vec();
                self.rbuf.drain(..head_end + len);
                Some((status, 0, body))
            }
            Wire::Bin => {
                let len = u32::from_le_bytes(self.rbuf.get(..4)?.try_into().ok()?) as usize;
                if len == 0 || self.rbuf.len() < 4 + len {
                    return None;
                }
                let opcode = self.rbuf[4];
                let body = self.rbuf[5..4 + len].to_vec();
                self.rbuf.drain(..4 + len);
                let status = if opcode == hos_serve::codec::op::ERROR {
                    body.get(..2)
                        .map_or(500, |b| u16::from_le_bytes([b[0], b[1]]))
                } else {
                    200
                };
                Some((status, opcode, body))
            }
        }
    }

    fn decode(&self, opcode: u8, body: &[u8]) -> Option<Json> {
        match self.wire {
            Wire::Json => Json::parse(std::str::from_utf8(body).ok()?).ok(),
            Wire::Bin => hos_serve::codec::bin_reply_to_json(opcode, body)
                .ok()
                .map(|r| r.1),
        }
    }
}

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

    pub const POLLIN: i16 = 1;

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
}

/// Waits until `stream` is readable or `timeout` passes; `ppoll`
/// rather than a socket read timeout, whose resolution is a scheduler
/// tick.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    let mut fd = sys::PollFd {
        fd: stream.as_raw_fd(),
        events: sys::POLLIN,
        revents: 0,
    };
    let ts = sys::Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid-out locals for the
    // whole call; nfds is 1, matching the single PollFd; a null sigmask
    // leaves the signal mask unchanged.
    let n = unsafe { sys::ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    // EINTR and errors read as "not yet"; the caller's stall clock
    // bounds how long that can go on.
    n > 0
}

/// Sends one connection's schedule open-loop and collects its samples,
/// in schedule order.
pub fn drive(conn: &mut Conn, items: &[Item], start: Instant, depth: usize) -> Vec<Sample> {
    let mut samples: Vec<Sample> = items
        .iter()
        .map(|it| Sample {
            kind: it.req.kind(),
            sched: it.at,
            sent: f64::NAN,
            done: f64::NAN,
            late: 0.0,
            status: 0,
            reply: None,
            retired: None,
        })
        .collect();
    let mut inflight: VecDeque<usize> = VecDeque::with_capacity(depth);
    let mut next = 0;
    let mut free_since = start;
    let mut last_byte = Instant::now();
    let mut out = Vec::with_capacity(4096);
    let mut scratch = Vec::with_capacity(4096);
    let mut chunk = vec![0u8; 64 * 1024];
    while next < items.len() || !inflight.is_empty() {
        if conn.dead {
            break;
        }
        let now = Instant::now();
        let due = (next < items.len()).then(|| start + Duration::from_secs_f64(items[next].at));
        if let Some(due) = due.filter(|_| inflight.len() < depth) {
            if now >= due {
                let s = &mut samples[next];
                s.sent = (now - start).as_secs_f64();
                s.late = (now - due.max(free_since)).as_secs_f64();
                let own = if matches!(items[next].req, Req::RetireOwn) {
                    conn.own.take()
                } else {
                    conn.own
                };
                s.retired = own.filter(|_| matches!(items[next].req, Req::RetireOwn));
                if let Some(api) = items[next].req.api(own) {
                    out.clear();
                    encode(conn.wire, &api, &mut out, &mut scratch);
                    if conn.stream.write_all(&out).is_err() {
                        conn.dead = true;
                    } else {
                        if inflight.is_empty() {
                            last_byte = now;
                        }
                        inflight.push_back(next);
                    }
                }
                next += 1;
                continue;
            }
            if inflight.is_empty() {
                std::thread::sleep(due - now);
                continue;
            }
        }
        let wait = due
            .filter(|_| inflight.len() < depth)
            .map_or(STALL, |d| d.saturating_duration_since(now).min(STALL));
        if !wait_readable(&conn.stream, wait) {
            if last_byte.elapsed() >= STALL {
                conn.dead = true;
            }
            continue;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) | Err(_) => {
                conn.dead = true;
                continue;
            }
            Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
        }
        last_byte = Instant::now();
        while let Some((status, opcode, body)) = conn.take_reply() {
            let Some(idx) = inflight.pop_front() else {
                conn.dead = true;
                break;
            };
            let t = Instant::now();
            if inflight.len() + 1 == depth {
                free_since = t;
            }
            let s = &mut samples[idx];
            s.done = (t - start).as_secs_f64();
            s.status = status;
            let keep = items[idx].check || s.kind != Kind::Query;
            if keep && status == 200 {
                s.reply = conn.decode(opcode, &body);
                if matches!(items[idx].req, Req::Insert(_)) {
                    conn.own = s.reply.as_ref().and_then(|r| r.get("id")?.as_usize());
                }
            }
        }
    }
    samples
}

/// Drives both connections through one phase, starting together.
pub fn run_phase(conns: &mut [Conn; 2], plan: &[Vec<Item>; 2], depth: usize) -> [Vec<Sample>; 2] {
    let start = Instant::now() + Duration::from_millis(5);
    let [a, b] = conns;
    std::thread::scope(|s| {
        let ha = s.spawn(|| drive(a, &plan[0], start, depth));
        let hb = s.spawn(|| drive(b, &plan[1], start, depth));
        [
            ha.join().expect("load thread panicked"),
            hb.join().expect("load thread panicked"),
        ]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-connection JSON server that stalls its first reply by
    /// `stall` and answers every later request at once.
    fn stalling_server(stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_nodelay(true).unwrap();
            let mut first = true;
            let mut head = Vec::new();
            let mut b = [0u8; 1];
            while s.read(&mut b).is_ok_and(|n| n == 1) {
                head.push(b[0]);
                if !head.ends_with(b"\r\n\r\n") {
                    continue;
                }
                let text = String::from_utf8_lossy(&head).to_string();
                let len: usize = text
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .unwrap()
                    .parse()
                    .unwrap();
                let mut body = vec![0u8; len];
                s.read_exact(&mut body).unwrap();
                head.clear();
                if first {
                    std::thread::sleep(stall);
                    first = false;
                }
                let reply = b"{\"version\":0,\"results\":[]}";
                let mut resp =
                    format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", reply.len())
                        .into_bytes();
                resp.extend_from_slice(reply);
                s.write_all(&resp).unwrap();
            }
        });
        (addr, h)
    }

    #[test]
    fn a_stalled_reply_charges_the_requests_due_behind_it() {
        let stall = Duration::from_millis(200);
        let (addr, h) = stalling_server(stall);
        let mut conn = Conn::open(addr, Wire::Json).unwrap();
        // Due at 0, 50, 100, 150 and 300 ms; the first reply takes 200.
        let items: Vec<Item> = [0.0, 0.05, 0.10, 0.15, 0.30]
            .iter()
            .map(|&at| Item {
                at,
                req: Req::Member(1),
                check: false,
            })
            .collect();
        let start = Instant::now();
        let s = drive(&mut conn, &items, start, 1);
        drop(conn);
        h.join().unwrap();
        assert!(s.iter().all(Sample::ok));
        // Request 0 waited out the stall itself.
        assert!(s[0].latency() >= 0.2 && s[0].latency() < 0.25, "{:?}", s[0]);
        // Requests 1-3 were due during the stall: each is charged from
        // its own due time to the end of the stall, not from when it
        // could finally be sent.
        for (i, due) in [(1, 0.05), (2, 0.10), (3, 0.15)] {
            let want = 0.2 - due;
            assert!(
                s[i].latency() >= want && s[i].latency() < want + 0.05,
                "request {i}: {:?}",
                s[i]
            );
            // Waiting for a free slot is backlog, not generator lateness.
            assert!(s[i].late < 0.02, "request {i}: {:?}", s[i]);
        }
        // Request 4 was due after the backlog cleared.
        assert!(s[4].latency() < 0.05, "{:?}", s[4]);
    }

    #[test]
    fn pipelined_requests_do_not_wait_for_earlier_replies() {
        let (addr, h) = stalling_server(Duration::from_millis(100));
        let mut conn = Conn::open(addr, Wire::Json).unwrap();
        let items: Vec<Item> = [0.0, 0.02]
            .iter()
            .map(|&at| Item {
                at,
                req: Req::Member(1),
                check: false,
            })
            .collect();
        let s = drive(&mut conn, &items, Instant::now(), 4);
        drop(conn);
        h.join().unwrap();
        // The server answers in order, so request 1 still waits behind
        // the stall — but it went out on time.
        assert!(s[1].late < 0.02, "{:?}", s[1]);
        assert!(s[1].latency() >= 0.08, "{:?}", s[1]);
    }
}
