//! Open-loop load generator over line-delimited TCP.
//!
//! Requests are sent at their scheduled times whether or not earlier
//! ones have been answered, pipelined round-robin onto at most `nproc`
//! connections, one thread per connection (the caller's thread drives
//! the first). Each connection answers in order, so responses match
//! requests first-in first-out. A request's latency runs from its
//! scheduled send time, not its actual send, so a stall also charges
//! every request that was due while it lasted; how late the generator
//! itself ran is reported as lag (actual send minus scheduled send).

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A deterministic 64-bit generator (splitmix64) for schedules and
/// query mixes.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Send times of the first `count` arrivals of a Poisson process at
/// `rate` per second, as offsets from the start.
pub fn poisson_schedule(rate: f64, count: usize, rng: &mut Rng) -> Vec<Duration> {
    let mut at = 0.0;
    (0..count)
        .map(|_| {
            at += -(1.0 - rng.next_f64()).ln() / rate;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// One scheduled request: when it is due and the line to send (without
/// its newline).
pub struct Planned {
    pub due: Duration,
    pub line: String,
}

/// What happened to one request. Times are offsets from the run start.
#[derive(Debug, Clone)]
pub struct Sample {
    pub due: Duration,
    pub sent: Option<Duration>,
    pub arrived: Option<Duration>,
    pub response: Option<String>,
}

impl Sample {
    /// Scheduled send to response arrival, in ms.
    pub fn latency_ms(&self) -> Option<f64> {
        self.arrived
            .map(|a| a.saturating_sub(self.due).as_secs_f64() * 1e3)
    }

    /// Actual send minus scheduled send, in ms.
    pub fn lag_ms(&self) -> Option<f64> {
        self.sent
            .map(|s| s.saturating_sub(self.due).as_secs_f64() * 1e3)
    }
}

/// The outcome of one open-loop run.
pub struct Run {
    /// When the schedule's zero offset was.
    pub start: Instant,
    /// One sample per planned request, in plan order.
    pub samples: Vec<Sample>,
    /// Threads (and connections) the generator used.
    pub threads: usize,
}

/// Connections the generator may open: the requested count, at most
/// the number of cores, at least one.
pub fn connection_cap(wanted: usize) -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    wanted.clamp(1, nproc)
}

/// Sends `plan` to `addr` open loop over [`connection_cap`]`(conns)`
/// connections and waits for every answer, giving up on a connection
/// `grace` after its last request was due (unanswered requests keep
/// `arrived: None`).
pub fn run(
    addr: SocketAddr,
    conns: usize,
    plan: &[Planned],
    grace: Duration,
) -> std::io::Result<Run> {
    let conns = connection_cap(conns);
    let streams = (0..conns)
        .map(|_| TcpStream::connect(addr))
        .collect::<std::io::Result<Vec<_>>>()?;
    let start = Instant::now();
    let mut samples: Vec<Sample> = plan
        .iter()
        .map(|p| Sample {
            due: p.due,
            sent: None,
            arrived: None,
            response: None,
        })
        .collect();
    let results: Vec<std::io::Result<Vec<(usize, Sample)>>> = std::thread::scope(|scope| {
        let mut streams = streams.into_iter().enumerate();
        let (_, first) = streams.next().expect("at least one connection");
        let handles: Vec<_> = streams
            .map(|(c, stream)| scope.spawn(move || drive(stream, start, plan, c, conns, grace)))
            .collect();
        let mut results = vec![drive(first, start, plan, 0, conns, grace)];
        for h in handles {
            results.push(h.join().expect("connection thread panicked"));
        }
        results
    });
    for result in results {
        for (i, sample) in result? {
            samples[i] = sample;
        }
    }
    Ok(Run {
        start,
        samples,
        threads: conns,
    })
}

/// Drives connection `c` of `conns`: requests `c, c+conns, …` of `plan`.
fn drive(
    mut stream: TcpStream,
    start: Instant,
    plan: &[Planned],
    c: usize,
    conns: usize,
    grace: Duration,
) -> std::io::Result<Vec<(usize, Sample)>> {
    stream.set_nodelay(true)?;
    let mine: Vec<usize> = (c..plan.len()).step_by(conns).collect();
    let mut out: Vec<(usize, Sample)> = mine
        .iter()
        .map(|&i| {
            (
                i,
                Sample {
                    due: plan[i].due,
                    sent: None,
                    arrived: None,
                    response: None,
                },
            )
        })
        .collect();
    let give_up = mine.last().map_or(Duration::ZERO, |&i| plan[i].due) + grace;
    let (mut next, mut answered) = (0, 0);
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    while answered < mine.len() {
        let now = start.elapsed();
        if next < mine.len() && plan[mine[next]].due <= now {
            let mut line = plan[mine[next]].line.clone();
            line.push('\n');
            stream.write_all(line.as_bytes())?;
            out[next].1.sent = Some(start.elapsed());
            next += 1;
            continue;
        }
        if now >= give_up {
            break;
        }
        let wake = if next < mine.len() {
            plan[mine[next]].due
        } else {
            give_up
        };
        let wait = wake.saturating_sub(now).max(Duration::from_micros(100));
        stream.set_read_timeout(Some(wait))?;
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let arrived = start.elapsed();
                pending.extend_from_slice(&chunk[..n]);
                while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = pending.drain(..=pos).collect();
                    if answered < out.len() {
                        let text = String::from_utf8_lossy(&line[..pos]).into_owned();
                        out[answered].1.arrived = Some(arrived);
                        out[answered].1.response = Some(text);
                        answered += 1;
                    }
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quantile;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;
    use std::sync::{Arc, Mutex};

    /// When the stub's stall started and ended, once it has.
    type StallWindow = Arc<Mutex<Option<(Instant, Instant)>>>;

    /// A line-echo listener that, on its `stall_at`-th request, stops
    /// answering on every connection for `stall`. Returns its address and
    /// the shared cell recording when the stall started and ended.
    fn stalling_stub(stall_at: usize, stall: Duration) -> (SocketAddr, StallWindow) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub address");
        let window = Arc::new(Mutex::new(None::<(Instant, Instant)>));
        let seen = Arc::new(Mutex::new(0usize));
        let shared = Arc::clone(&window);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                let (window, seen) = (Arc::clone(&shared), Arc::clone(&seen));
                std::thread::spawn(move || {
                    let mut writer = stream.try_clone().expect("clone stub stream");
                    for line in BufReader::new(stream).lines() {
                        let Ok(line) = line else { return };
                        let until = {
                            let mut n = seen.lock().expect("stub counter");
                            *n += 1;
                            let mut w = window.lock().expect("stub window");
                            if *n == stall_at {
                                let now = Instant::now();
                                *w = Some((now, now + stall));
                            }
                            w.map(|(_, end)| end)
                        };
                        if let Some(end) = until {
                            std::thread::sleep(end.saturating_duration_since(Instant::now()));
                        }
                        if writer.write_all(format!("{line}\n").as_bytes()).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        (addr, window)
    }

    #[test]
    fn a_stall_shows_in_every_request_due_during_it() {
        let stall = Duration::from_millis(300);
        let (addr, window) = stalling_stub(20, stall);
        let plan: Vec<Planned> = (0..100)
            .map(|i| Planned {
                due: Duration::from_millis(10 * i),
                line: format!("request {i}"),
            })
            .collect();
        let run = run(addr, 2, &plan, Duration::from_secs(5)).expect("run against the stub");
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(
            run.threads <= nproc,
            "{} threads on {nproc} cores",
            run.threads
        );

        let (stall_start, stall_end) = window.lock().unwrap().expect("the stub stalled");
        let mut during = 0;
        for (s, p) in run.samples.iter().zip(&plan) {
            assert_eq!(
                s.response.as_deref(),
                Some(p.line.as_str()),
                "answers match in order"
            );
            let due = run.start + s.due;
            if due >= stall_start && due < stall_end {
                during += 1;
                let latency = s.latency_ms().expect("answered");
                let floor = stall_end.duration_since(due).as_secs_f64() * 1e3;
                assert!(
                    latency >= floor - 1.0,
                    "request due {:?} into the stall shows {latency:.1} ms < {floor:.1} ms",
                    due - stall_start
                );
            }
        }
        assert!(
            during >= 20,
            "only {during} requests were due during the stall"
        );
        // The generator kept sending during the stall, on schedule.
        let lags: Vec<f64> = run.samples.iter().filter_map(Sample::lag_ms).collect();
        assert_eq!(lags.len(), plan.len(), "every request was sent");
        assert!(
            quantile(&lags, 0.9) < 50.0,
            "lag p90 {:.1} ms",
            quantile(&lags, 0.9)
        );
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_requested_rate() {
        let a = poisson_schedule(200.0, 2000, &mut Rng::new(7));
        let b = poisson_schedule(200.0, 2000, &mut Rng::new(7));
        assert_eq!(a, b);
        let span = a.last().expect("arrivals").as_secs_f64();
        assert!(
            (9.0..11.0).contains(&span),
            "2000 arrivals took {span:.2} s"
        );
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
