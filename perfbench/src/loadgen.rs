//! Open-loop load over one pipelined TCP connection.
//!
//! Two generator threads share one connection: the sender writes each
//! pre-encoded request frame when it falls due on a fixed-rate schedule,
//! whatever the replies are doing; the receiver splits the response
//! stream into frames and stamps each one on arrival. Every request is
//! timed from when it was *due*, so a stall in the server or the sender
//! shows up in the latency of every request behind it (no coordinated
//! omission). One connection keeps the server's request order — and so
//! its logical clock — identical to the schedule.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Request frames ready to go on the wire: one contiguous byte run plus
/// the end offset of each frame.
#[derive(Debug, Clone, Default)]
pub struct Frames {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Frames {
    /// Appends one encoded frame (length prefix included).
    pub fn push(&mut self, frame: &[u8]) {
        self.bytes.extend_from_slice(frame);
        self.ends.push(self.bytes.len());
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no frames.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total encoded bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    fn span(&self, from: usize, to: usize) -> &[u8] {
        let start = if from == 0 { 0 } else { self.ends[from - 1] };
        &self.bytes[start..self.ends[to - 1]]
    }
}

/// What one rate point measured.
#[derive(Debug, Clone)]
pub struct RatePoint {
    /// Per request, in schedule order: response arrival minus due time.
    pub latency_ns: Vec<u64>,
    /// Per request: response arrival minus the moment the sender began
    /// writing it.
    pub sent_to_reply_ns: Vec<u64>,
    /// Per request: write time minus due time (how late the sender ran).
    pub late_ns: Vec<u64>,
    /// Response payloads (JSON text, no length prefix), in order.
    pub payloads: Vec<Vec<u8>>,
    /// Requests written but not yet answered, sampled at every write.
    pub backlog: Vec<u32>,
    /// Response bytes received.
    pub reply_bytes: usize,
    /// Wall time from the first due time to the last response.
    pub wall: Duration,
    /// CPU time the hypervisor gave to other guests meanwhile, in clock
    /// ticks summed over this machine's CPUs.
    pub steal_ticks: u64,
}

impl RatePoint {
    /// Whether the host stole CPU time from this machine while the point
    /// ran (see [`crate::util::stolen`]).
    pub fn stolen(&self) -> bool {
        crate::util::stolen(self.steal_ticks, self.wall)
    }

    /// Largest backlog seen.
    pub fn backlog_max(&self) -> u32 {
        self.backlog.iter().copied().max().unwrap_or(0)
    }

    /// Whether the backlog kept growing: its median over the last quarter
    /// of the writes exceeds twice the first quarter's median plus a slack
    /// of 8 requests. Medians let a short stall pass; a rate the server
    /// cannot keep up with grows the backlog all the way through.
    pub fn backlog_grew(&self) -> bool {
        let q = self.backlog.len() / 4;
        if q == 0 {
            return false;
        }
        let med = |s: &[u32]| {
            hwm_metrics::percentile(
                &mut s.iter().map(|&b| u64::from(b)).collect::<Vec<_>>(),
                50.0,
            )
        };
        let first = med(&self.backlog[..q]);
        let last = med(&self.backlog[self.backlog.len() - q..]);
        last > 2 * first + 8
    }
}

/// How close to a request's due time the sender stops sleeping and yields
/// instead: a sleep this short overshoots by the timer slack and the
/// wake-up of an idle CPU.
const SPIN: Duration = Duration::from_micros(200);

/// Reads `n` length-prefixed response frames, stamping each with the time
/// the read that completed it returned, and publishes the count so far in
/// `received`. Returns the arrival times, the payloads and the bytes read.
fn receive(
    reader: &mut TcpStream,
    n: usize,
    received: &AtomicUsize,
) -> io::Result<(Vec<Instant>, Vec<Vec<u8>>, usize)> {
    let mut arrivals = Vec::with_capacity(n);
    let mut payloads = Vec::with_capacity(n);
    let mut buf = vec![0u8; 64 * 1024];
    let mut pending: Vec<u8> = Vec::new();
    let mut total = 0usize;
    while payloads.len() < n {
        let got = reader.read(&mut buf)?;
        if got == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("server closed after {} of {n} responses", payloads.len()),
            ));
        }
        let now = Instant::now();
        total += got;
        pending.extend_from_slice(&buf[..got]);
        let mut pos = 0;
        while pending.len() - pos >= 4 {
            let prefix: [u8; 4] = pending[pos..pos + 4].try_into().expect("4 bytes");
            let len = u32::from_be_bytes(prefix) as usize;
            if len > hwm_service::wire::MAX_FRAME {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "oversized response",
                ));
            }
            if pending.len() - pos - 4 < len {
                break;
            }
            payloads.push(pending[pos + 4..pos + 4 + len].to_vec());
            arrivals.push(now);
            pos += 4 + len;
        }
        pending.drain(..pos);
        received.store(payloads.len(), Ordering::Release);
    }
    Ok((arrivals, payloads, total))
}

/// Offers `frames` to the server at `addr` at `rate` requests per second
/// over one fresh connection and collects every response.
///
/// # Errors
///
/// Socket failures, a server that hangs up early, or a malformed
/// response length prefix.
pub fn offer(addr: SocketAddr, frames: &Frames, rate: f64) -> io::Result<RatePoint> {
    let n = frames.len();
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    let received = AtomicUsize::new(0);
    let interval_ns = 1e9 / rate;
    // A short lead time so both threads are running before the first
    // request falls due.
    let start = Instant::now() + Duration::from_millis(2);
    let steal_before = crate::util::steal_ticks();
    let due = |i: usize| start + Duration::from_nanos((i as f64 * interval_ns) as u64);

    std::thread::scope(|scope| {
        let received = &received;
        let receiver = scope.spawn(move || {
            let out = receive(&mut reader, n, received);
            if out.is_err() {
                // Unblock the sender, which may be waiting on a full socket.
                let _ = reader.shutdown(std::net::Shutdown::Both);
            }
            out
        });

        let mut written = Vec::with_capacity(n);
        let mut backlog = Vec::with_capacity(n);
        let mut i = 0;
        let mut send_err = None;
        while i < n {
            let now = Instant::now();
            let next = due(i);
            if next > now {
                if next - now > SPIN {
                    std::thread::sleep(next - now - SPIN);
                } else {
                    std::thread::yield_now();
                }
                continue;
            }
            let mut j = i + 1;
            while j < n && due(j) <= now {
                j += 1;
            }
            if let Err(e) = writer.write_all(frames.span(i, j)) {
                send_err = Some(e);
                break;
            }
            // Stamped with the start of the write: on one CPU the server
            // may handle the burst, and the receiver read the replies,
            // before `write_all` returns to the sender.
            written.resize(j, now);
            let answered = received.load(Ordering::Acquire);
            backlog.push((j - answered.min(j)) as u32);
            i = j;
        }
        if let Some(e) = send_err {
            let _ = writer.shutdown(std::net::Shutdown::Both);
            let _ = receiver.join();
            return Err(e);
        }
        let (arrivals, payloads, reply_bytes) = receiver
            .join()
            .map_err(|_| io::Error::other("receiver thread panicked"))??;
        let last = arrivals.last().copied().unwrap_or(start);
        let mut latency_ns = Vec::with_capacity(n);
        let mut sent_to_reply_ns = Vec::with_capacity(n);
        let mut late_ns = Vec::with_capacity(n);
        for k in 0..n {
            let d = due(k);
            latency_ns.push(arrivals[k].saturating_duration_since(d).as_nanos() as u64);
            sent_to_reply_ns
                .push(arrivals[k].saturating_duration_since(written[k]).as_nanos() as u64);
            late_ns.push(written[k].saturating_duration_since(d).as_nanos() as u64);
        }
        Ok(RatePoint {
            latency_ns,
            sent_to_reply_ns,
            late_ns,
            payloads,
            backlog,
            reply_bytes,
            wall: last.saturating_duration_since(start),
            steal_ticks: crate::util::steal_ticks().saturating_sub(steal_before),
        })
    })
}
