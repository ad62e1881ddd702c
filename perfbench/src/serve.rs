//! The `serve_mixed` workload: `scwsc_serve` driven open loop.
//!
//! The server is spawned with one solver thread (two connections each
//! running a two-thread pool would oversubscribe two cores) and its
//! default admission and cache settings on a seeded 5k-row table
//! (written as CSV, so the server receives only the table). Set-up is measured on every spawn,
//! from spawn to the `listening` banner; the last spawns first answer
//! the fixed hot query list closed loop with a cold cache (`solve_s`,
//! `cost_total`). The last spawn then takes seeded Poisson traffic at a
//! reference rate (latencies, shares) and, untraced, an overload step
//! that keeps it busy (`max_rate_rps`). Seven of every ten requests
//! repeat a hot query; the rest are fresh (`k` 2–12, `ŝ` on a 0.01 grid,
//! both algorithms, all four cost models), so misses outnumber the
//! 256-answer cache and evict.
//!
//! After the traffic, every `complete` answer is compared with an
//! in-process `PatternInstance::solve` on `Threads(1)`, every `degraded`
//! answer must be certified, and the client's tallies must equal the
//! server's drain summary and its Prometheus flush.

use crate::batch::seeded_table;
use crate::loadgen::{self, poisson_schedule, Planned, Rng, Sample};
use crate::report::Report;
use crate::spans::{SpanId, Tracer};
use crate::stats::{median, quantile, ratio};
use scwsc_core::solver::{Algorithm, Answer, CostModel, Query, Solver};
use scwsc_core::telemetry::alloc;
use scwsc_core::{
    parse_prometheus, Deadline, Fanout, FlightRecorder, MetricsRecorder, NoopObserver, ThreadPool,
    Threads,
};
use scwsc_data::csv::{read_table, write_table};
use scwsc_patterns::PatternInstance;
use scwsc_serve::{canonical_key, Request, Response, ServerConfig, ServerState, Status};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows of the served table.
const ROWS: usize = 5_000;
/// Server spawns per run; `setup_s` is their median.
const SPAWNS: usize = 9;
/// The last spawns each answer the hot list with a cold cache;
/// `solve_s` is their median.
const COLD_PASSES: usize = 5;
/// Requests out of every ten that repeat a hot query. Well away from
/// five, so the latency median falls inside the hits rather than on the
/// edge between hits and misses.
const REPEATS_PER_TEN: usize = 7;
/// The cost models, which fresh queries cycle through.
const COSTS: [CostModel; 4] = [
    CostModel::Max,
    CostModel::Sum,
    CostModel::Mean,
    CostModel::Count,
];
/// Connections the generator asks for (capped at `nproc`).
const CONNECTIONS: usize = 2;
/// Reference rate, requests per second: `ok_share`, latencies and
/// `complete_share` are measured here.
const REFERENCE_RPS: f64 = 20.0;
/// Fewest requests at the reference rate (p90 keeps twenty beyond it).
const REFERENCE_MIN: usize = 200;
/// Share of the run's seconds spent at the reference rate.
const REFERENCE_SHARE: f64 = 0.75;
/// Offered rate of the overload step, far above what the server can
/// answer, so it stays busy from the first request to the last.
const OVERLOAD_RPS: f64 = 320.0;
/// Requests in the overload step.
const OVERLOAD_REQUESTS: usize = 1000;
/// How long the generator waits for stragglers after the last send.
const GRACE: Duration = Duration::from_secs(30);

/// Inputs of one `serve_mixed` run.
pub struct Setup<'a> {
    pub serve_bin: &'a Path,
    pub out: &'a Path,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
}

/// The hot list: both algorithms, all four cost models. The first query
/// computes more benefits than the default tick grant (~224k against
/// 200k), so every run enters brownout at the same point of its cold
/// pass instead of only when a rare fresh query crosses the grant.
fn hot_list() -> Vec<Query> {
    let q = |base: Query, cost| Query { cost, ..base };
    vec![
        q(Query::cwsc(12, 0.02), CostModel::Sum),
        q(Query::cmc(5, 0.3), CostModel::Max),
        q(Query::cwsc(10, 0.5), CostModel::Max),
        q(Query::cmc(4, 0.6), CostModel::Count),
        q(Query::cwsc(3, 0.2), CostModel::Mean),
        q(Query::cmc(8, 0.4), CostModel::Sum),
        q(Query::cwsc(6, 0.8), CostModel::Count),
        q(Query::cmc(2, 0.9), CostModel::Mean),
    ]
}

/// The seeded request mix, stratified so every seed offers the same
/// composition: exactly [`REPEATS_PER_TEN`] of every ten requests repeat
/// a hot query (which ten-slots, and which hot query, come from the
/// seed), and fresh queries cycle through the eight algorithm × cost
/// model pairs with `k` in 2–12 and `ŝ` on a 0.01 grid drawn from the
/// seed.
struct Mix<'a> {
    rng: &'a mut Rng,
    hot: &'a [Query],
    deck: [bool; 10],
    dealt: usize,
    fresh: usize,
}

impl<'a> Mix<'a> {
    fn new(rng: &'a mut Rng, hot: &'a [Query]) -> Mix<'a> {
        Mix {
            rng,
            hot,
            deck: [false; 10],
            dealt: 0,
            fresh: 0,
        }
    }

    fn next_query(&mut self) -> Query {
        if self.dealt.is_multiple_of(10) {
            self.deck = std::array::from_fn(|i| i < REPEATS_PER_TEN);
            for i in (1..10).rev() {
                self.deck.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
        }
        let repeat = self.deck[self.dealt % 10];
        self.dealt += 1;
        if repeat {
            return self.hot[self.rng.below(self.hot.len() as u64) as usize].clone();
        }
        let (f, rng) = (self.fresh, &mut *self.rng);
        self.fresh += 1;
        let k = 2 + rng.below(11) as usize;
        let coverage = (1 + rng.below(100)) as f64 / 100.0;
        let base = if f % 2 == 0 {
            Query::cwsc(k, coverage)
        } else {
            Query::cmc(k, coverage)
        };
        Query {
            cost: COSTS[f / 2 % 4],
            ..base
        }
    }
}

/// A running `scwsc_serve`; killed and reaped if dropped while running.
struct Server {
    child: Child,
    addr: SocketAddr,
    log: PathBuf,
    prom: PathBuf,
    started: Instant,
    listening: Instant,
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

impl Server {
    /// Spawns the server and waits for its `listening` banner.
    fn spawn(bin: &Path, csv: &Path, out: &Path, tag: &str) -> Result<Server, String> {
        let log = out.join(format!("{tag}.log"));
        let prom = out.join(format!("{tag}.prom"));
        let _ = std::fs::remove_file(&prom);
        let stderr = std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let started = Instant::now();
        let child = Command::new(bin)
            .arg("--csv")
            .arg(csv)
            .args(["--addr", "127.0.0.1:0", "--threads", "1", "--metrics-prom"])
            .arg(&prom)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            log,
            prom,
            started,
            listening: started,
        };
        loop {
            let text = std::fs::read_to_string(&server.log).unwrap_or_default();
            // The banner line is complete once its newline has landed.
            let banner = text
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_once('\n'));
            if let Some((rest, _)) = banner {
                server.listening = Instant::now();
                let addr = rest.split_whitespace().next().unwrap_or_default();
                server.addr = addr
                    .parse()
                    .map_err(|_| format!("bad banner address {addr:?}"))?;
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited before listening ({status}): {text}"));
            }
            if started.elapsed() > Duration::from_secs(60) {
                return Err("server did not print its banner within 60 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// SIGTERM, wait for the drain, and return the server's summary
    /// line and Prometheus flush.
    fn drain(mut self) -> Result<(String, String), String> {
        let pid = i32::try_from(self.child.id()).map_err(|e| e.to_string())?;
        // SAFETY: `kill` only sends a signal; `pid` is our own child,
        // which has not been reaped yet (so the pid cannot be reused).
        unsafe {
            kill(pid, 15);
        }
        let started = Instant::now();
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if started.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return Err("server did not drain within 30 s".into()),
            }
        };
        let log = std::fs::read_to_string(&self.log).unwrap_or_default();
        let summary = log
            .lines()
            .find(|l| l.contains("drained"))
            .ok_or_else(|| format!("no drain summary ({status}): {log}"))?
            .to_string();
        if !status.success() {
            return Err(format!("server exited with {status}: {summary}"));
        }
        let prom = std::fs::read_to_string(&self.prom)
            .map_err(|e| format!("no Prometheus flush at {}: {e}", self.prom.display()))?;
        Ok((summary, prom))
    }
}

/// One answered (or dropped) request, as the client saw it.
struct Exchange {
    query: Query,
    sample: Sample,
    response: Option<Response>,
}

impl Exchange {
    fn status(&self) -> Option<Status> {
        self.response.as_ref().map(|r| r.status)
    }

    fn cached(&self) -> bool {
        self.response.as_ref().is_some_and(|r| r.cached)
    }
}

/// The client's view of everything sent to one server, for the
/// accounting cross-check.
#[derive(Default)]
struct Tally {
    sent: u64,
    complete: u64,
    degraded: u64,
    rejected: u64,
    errors: u64,
    cache_hits: u64,
    dropped: u64,
}

impl Tally {
    fn add(&mut self, exchanges: &[Exchange]) {
        for x in exchanges {
            self.sent += 1;
            match x.status() {
                Some(Status::Complete) => self.complete += 1,
                Some(Status::Degraded) => self.degraded += 1,
                Some(Status::Rejected) => self.rejected += 1,
                Some(Status::Error) => self.errors += 1,
                None => self.dropped += 1,
            }
            self.cache_hits += u64::from(x.cached());
        }
    }
}

/// The number after `key` in `text`.
fn number_after(text: &str, key: &str) -> Option<u64> {
    let rest = &text[text.find(key)? + key.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The number just before `key` in `text`.
fn number_before(text: &str, key: &str) -> Option<u64> {
    let head = &text[..text.find(key)?];
    head.split_whitespace().last()?.parse().ok()
}

/// Compares the client's tallies with the server's drain summary and
/// Prometheus flush.
fn cross_check(tally: &Tally, summary: &str, prom: &str) -> Vec<String> {
    let mut problems = Vec::new();
    if tally.dropped > 0 {
        problems.push(format!("{} requests were never answered", tally.dropped));
    }
    let server = [
        ("requests", number_before(summary, " requests"), tally.sent),
        (
            "complete",
            number_after(summary, "complete "),
            tally.complete,
        ),
        (
            "degraded",
            number_after(summary, "degraded "),
            tally.degraded,
        ),
        (
            "rejected",
            number_after(summary, "rejected "),
            tally.rejected,
        ),
        ("errors", number_after(summary, "errors "), tally.errors),
        (
            "cache hits",
            number_after(summary, "cache hits "),
            tally.cache_hits,
        ),
        ("failed writes", number_after(summary, "failed writes "), 0),
    ];
    for (name, theirs, ours) in server {
        if theirs != Some(ours) {
            problems.push(format!("{name}: server says {theirs:?}, client saw {ours}"));
        }
    }
    if !summary.contains("clean=true") {
        problems.push(format!("server did not drain clean: {summary}"));
    }
    let samples = match parse_prometheus(prom) {
        Ok(s) => s,
        Err(e) => return [problems, vec![format!("bad Prometheus flush: {e}")]].concat(),
    };
    let window = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name && s.has_labels(&[("entry", "all")]))
            .map(|s| s.value as u64)
    };
    let solves = tally.complete - tally.cache_hits + tally.degraded + tally.errors;
    for (name, ours) in [
        ("scwsc_window_solves", solves),
        ("scwsc_window_degraded_solves", tally.degraded),
    ] {
        let theirs = window(name);
        if theirs != Some(ours) {
            problems.push(format!("{name}: flush says {theirs:?}, client saw {ours}"));
        }
    }
    problems
}

/// Answers `queries` one at a time (closed loop) on one connection.
/// Returns the pass wall time and the exchanges.
fn closed_pass(
    addr: SocketAddr,
    queries: &[Query],
    next_id: &mut u64,
) -> Result<(f64, Vec<Exchange>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(GRACE))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let start = Instant::now();
    let mut out = Vec::new();
    for query in queries {
        *next_id += 1;
        let sent = start.elapsed();
        let line = format!("{}\n", Request::new(*next_id, query.clone()).to_line());
        writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut answer = String::new();
        let read = reader
            .read_line(&mut answer)
            .map_err(|e| format!("read: {e}"))?;
        let arrived = (read > 0).then(|| start.elapsed());
        out.push(Exchange {
            query: query.clone(),
            sample: Sample {
                due: sent,
                sent: Some(sent),
                arrived,
                response: (read > 0).then(|| answer.trim_end().to_string()),
            },
            response: Response::parse(answer.trim_end()).ok(),
        });
    }
    Ok((start.elapsed().as_secs_f64(), out))
}

/// One open-loop step: `count` requests at `rate`. Requests are
/// recorded as `request` spans under `parent`, from their due time to
/// their answer.
fn open_step(
    addr: SocketAddr,
    (rate, count): (f64, usize),
    (rng, hot, next_id): (&mut Rng, &[Query], &mut u64),
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Result<(Vec<Exchange>, usize), String> {
    let times = poisson_schedule(rate, count, rng);
    let mut mix = Mix::new(rng, hot);
    let mut queries = Vec::with_capacity(times.len());
    let plan: Vec<Planned> = times
        .into_iter()
        .map(|due| {
            let query = mix.next_query();
            *next_id += 1;
            let line = Request::new(*next_id, query.clone()).to_line();
            queries.push(query);
            Planned { due, line }
        })
        .collect();
    let first_id = *next_id + 1 - plan.len() as u64;
    let run = loadgen::run(addr, CONNECTIONS, &plan, GRACE).map_err(|e| format!("load: {e}"))?;
    for (i, s) in run.samples.iter().enumerate() {
        if let Some(arrived) = s.arrived {
            let id = first_id + i as u64;
            tracer.record(
                "request",
                id,
                parent,
                run.start + s.due,
                run.start + arrived,
            );
        }
    }
    let exchanges = queries
        .into_iter()
        .zip(run.samples)
        .map(|(query, sample)| {
            let response = sample
                .response
                .as_deref()
                .and_then(|l| Response::parse(l).ok());
            Exchange {
                query,
                sample,
                response,
            }
        })
        .collect();
    Ok((exchanges, run.threads))
}

/// Latency percentiles and outcome counts of one step.
struct StepStats {
    p50: f64,
    p90: f64,
    complete: usize,
    failed: usize,
}

fn step_stats(xs: &[Exchange]) -> StepStats {
    let latencies: Vec<f64> = xs.iter().filter_map(|x| x.sample.latency_ms()).collect();
    StepStats {
        p50: quantile(&latencies, 0.5),
        p90: quantile(&latencies, 0.9),
        complete: xs
            .iter()
            .filter(|x| x.status() == Some(Status::Complete))
            .count(),
        failed: xs
            .iter()
            .filter(|x| !matches!(x.status(), Some(Status::Complete | Status::Degraded)))
            .count(),
    }
}

/// Answers per second from the first request's due time to the last
/// answer: the sustained rate when the step keeps the server busy.
fn sustained_rate(xs: &[Exchange]) -> f64 {
    let answered: Vec<&Sample> = xs
        .iter()
        .map(|x| &x.sample)
        .filter(|s| s.arrived.is_some())
        .collect();
    let first_due = answered.iter().map(|s| s.due).min().unwrap_or_default();
    let last = answered
        .iter()
        .filter_map(|s| s.arrived)
        .max()
        .unwrap_or_default();
    ratio(
        answered.len() as f64,
        last.saturating_sub(first_due).as_secs_f64(),
    )
}

/// Reference answers: every distinct query solved in-process on
/// `Threads(1)` with no deadline, spread over `nproc` threads.
fn reference_answers(
    instance: &PatternInstance,
    queries: Vec<Query>,
) -> BTreeMap<String, Result<Answer, String>> {
    let nproc = loadgen::connection_cap(usize::MAX);
    let chunks: Vec<Vec<Query>> = (0..nproc)
        .map(|t| queries.iter().skip(t).step_by(nproc).cloned().collect())
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                scope.spawn(move || {
                    let pool = ThreadPool::new(Threads::serial());
                    chunk
                        .into_iter()
                        .map(|q| {
                            let answer = instance
                                .solve(&q, &pool, &Deadline::unbounded(), &mut NoopObserver)
                                .map_err(|e| e.to_string())
                                .and_then(|o| {
                                    if o.is_complete() {
                                        Ok(o.value().clone())
                                    } else {
                                        Err("unbounded reference solve degraded".into())
                                    }
                                });
                            (canonical_key(&q), answer)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference solver panicked"))
            .collect()
    })
}

/// Checks every answer: `complete` ones against the reference (same
/// cost, same labels), `degraded` ones for a certified certificate.
fn check_answers(instance: &PatternInstance, all: &[&Exchange], report: &mut Report) {
    let mut distinct: BTreeMap<String, Query> = BTreeMap::new();
    for x in all {
        if x.status() == Some(Status::Complete) {
            distinct
                .entry(canonical_key(&x.query))
                .or_insert_with(|| x.query.clone());
        }
    }
    let reference = reference_answers(instance, distinct.into_values().collect());
    for x in all {
        let Some(resp) = &x.response else { continue };
        match resp.status {
            Status::Complete => {
                let got = resp.answer.as_ref();
                match (got, reference.get(&canonical_key(&x.query))) {
                    (Some(a), Some(Ok(want)))
                        if a.total_cost == want.total_cost && a.labels == want.labels => {}
                    (got, want) => report.mismatch(format!(
                        "request {} {:?}: served {:?} != reference {:?}",
                        resp.id,
                        x.query,
                        got.map(|a| (a.total_cost, &a.labels)),
                        want.map(|w| w.as_ref().map(|a| (a.total_cost, &a.labels))),
                    )),
                }
            }
            Status::Degraded => {
                if resp.answer.as_ref().and_then(|a| a.certified) != Some(true) {
                    report.mismatch(format!(
                        "request {}: degraded answer not certified",
                        resp.id
                    ));
                }
            }
            Status::Rejected | Status::Error => {}
        }
    }
}

/// Per-layer numbers from the reference step's responses.
fn layer_metrics(xs: &[Exchange], report: &mut Report) {
    let responses: Vec<(&Response, f64)> = xs
        .iter()
        .filter_map(|x| Some((x.response.as_ref()?, x.sample.latency_ms()?)))
        .collect();
    let answered = responses.len() as f64;
    let pick = |f: &dyn Fn(&Response, f64) -> Option<f64>| -> Vec<f64> {
        responses.iter().filter_map(|&(r, l)| f(r, l)).collect()
    };
    let hits = pick(&|r, l| r.cached.then_some(l));
    report.set("cache.hit_share", ratio(hits.len() as f64, answered));
    report.set("cache.hit_latency_p50_ms", median(&hits));
    report.set(
        "cache.miss_latency_p50_ms",
        median(&pick(&|r, l| (!r.cached).then_some(l))),
    );
    let queued = pick(&|r, _| (!r.cached && r.status != Status::Rejected).then_some(r.queue_ms));
    report.set("admission.queue_ms_p50", quantile(&queued, 0.5));
    report.set("admission.queue_ms_p90", quantile(&queued, 0.9));
    let share = |s: Status| {
        ratio(
            pick(&|r, _| (r.status == s).then_some(1.0)).len() as f64,
            answered,
        )
    };
    report.set("admission.degraded_share", share(Status::Degraded));
    report.set("admission.rejected_share", share(Status::Rejected));
    report.set(
        "admission.max_tier",
        pick(&|r, _| Some(f64::from(r.tier)))
            .into_iter()
            .fold(0.0, f64::max),
    );
    let solve_ms = |algo: Algorithm| {
        median(
            &xs.iter()
                .filter(|x| x.query.algorithm == algo && !x.cached())
                .filter_map(|x| Some(x.response.as_ref()?.solve_ms))
                .collect::<Vec<_>>(),
        )
    };
    report.set("dispatch.solve_ms_p50.cwsc", solve_ms(Algorithm::Cwsc));
    report.set("dispatch.solve_ms_p50.cmc", solve_ms(Algorithm::Cmc));
    report.set(
        "server.residual_ms_p50",
        median(&pick(&|r, l| Some(l - r.queue_ms - r.solve_ms))),
    );
    let lags: Vec<f64> = xs.iter().filter_map(|x| x.sample.lag_ms()).collect();
    report.set("loadgen.lag_ms_p90", quantile(&lags, 0.9));
}

/// Times `Request::parse` and `Response::to_line` on the run's own
/// lines, in µs per call.
fn protocol_timings(xs: &[Exchange], report: &mut Report) {
    const REPS: usize = 50;
    let requests: Vec<String> = xs
        .iter()
        .enumerate()
        .map(|(i, x)| Request::new(i as u64, x.query.clone()).to_line())
        .collect();
    let responses: Vec<&Response> = xs.iter().filter_map(|x| x.response.as_ref()).collect();
    let t = Instant::now();
    for _ in 0..REPS {
        for line in &requests {
            std::hint::black_box(Request::parse(std::hint::black_box(line), 0).ok());
        }
    }
    let parse_us = t.elapsed().as_secs_f64() * 1e6 / (REPS * requests.len().max(1)) as f64;
    let t = Instant::now();
    for _ in 0..REPS {
        for r in &responses {
            std::hint::black_box(std::hint::black_box(r).to_line());
        }
    }
    let serialize_us = t.elapsed().as_secs_f64() * 1e6 / (REPS * responses.len().max(1)) as f64;
    report.set("protocol.parse_us", parse_us);
    report.set("protocol.serialize_us", serialize_us);
}

/// `ServerState::dispatch` in-process on the reference step's request
/// sequence, over an instance loaded from the served CSV. Returns the
/// median ms per dispatch and the peak heap of the load and the replay
/// in MB (counting allocator, net of what was live before).
fn replay(
    csv: &Path,
    xs: &[Exchange],
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Result<(f64, f64), String> {
    let before = alloc::snapshot().live_bytes;
    alloc::reset_peak();
    let table = read_table(csv).map_err(|e| format!("{}: {e}", csv.display()))?;
    let state = ServerState::new(
        Arc::new(PatternInstance::new(table)),
        ThreadPool::new(Threads::serial()),
        ServerConfig::default(),
        FlightRecorder::new(),
        None,
    );
    let mut times = Vec::with_capacity(xs.len());
    for (i, x) in xs.iter().enumerate() {
        let request = Request::new(i as u64, x.query.clone());
        let t = Instant::now();
        std::hint::black_box(state.dispatch(&request));
        let end = Instant::now();
        tracer.record("dispatch.inproc", i as u64, parent, t, end);
        times.push((end - t).as_secs_f64() * 1e3);
    }
    let peak = alloc::snapshot().peak_live_bytes.saturating_sub(before);
    Ok((median(&times), peak as f64 / 1e6))
}

/// `PatternInstance::solve` under dispatch's observer stack (metrics and
/// flight recorder in a fan-out) over the same calls with no observer,
/// on the step's distinct miss queries.
fn observer_overhead(instance: &PatternInstance, xs: &[Exchange]) -> f64 {
    let mut misses: BTreeMap<String, Query> = BTreeMap::new();
    for x in xs.iter().filter(|x| !x.cached() && x.response.is_some()) {
        misses
            .entry(canonical_key(&x.query))
            .or_insert_with(|| x.query.clone());
    }
    let pool = ThreadPool::new(Threads::serial());
    let deadline =
        || Deadline::unbounded().with_tick_budget(ServerConfig::default().admission.base_ticks);
    let flight = FlightRecorder::new();
    let (mut observed, mut plain) = (0.0, 0.0);
    for q in misses.values() {
        let t = Instant::now();
        std::hint::black_box(
            instance
                .solve(q, &pool, &deadline(), &mut NoopObserver)
                .ok(),
        );
        plain += t.elapsed().as_secs_f64();
        let mut metrics = MetricsRecorder::new();
        let mut tap = flight.clone();
        let t = Instant::now();
        {
            let mut obs = Fanout::new();
            obs.attach(&mut metrics).attach(&mut tap);
            std::hint::black_box(instance.solve(q, &pool, &deadline(), &mut obs).ok());
        }
        observed += t.elapsed().as_secs_f64();
    }
    ratio(observed, plain)
}

/// Runs `serve_mixed` and fills `report`. An `Err` means the run could
/// not be carried out (no result is printed).
pub fn run(setup: &Setup<'_>, tracer: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let t = Instant::now();
    let span = tracer.open("lbl.generate", 0, None);
    let table = seeded_table(ROWS, setup.seed);
    tracer.close(span);
    let generate_s = t.elapsed().as_secs_f64();
    let csv = setup
        .out
        .join(format!("serve_mixed-seed{}.csv", setup.seed));
    write_table(&table, &csv).map_err(|e| format!("{}: {e}", csv.display()))?;
    // The reference reads the same file the server loads.
    let served = read_table(&csv).map_err(|e| format!("{}: {e}", csv.display()))?;
    let t = Instant::now();
    let span = tracer.open("index.build", 0, None);
    let instance = PatternInstance::new(served);
    tracer.close(span);
    let index_s = t.elapsed().as_secs_f64();

    let hot = hot_list();
    let mut rng = Rng::new(setup.seed);
    let mut next_id = 0u64;
    let mut setups = Vec::new();
    let mut cold_passes = Vec::new();
    let mut exchanges: Vec<Exchange> = Vec::new();
    let mut server = None;
    for i in 0..SPAWNS {
        let tag = format!("serve_mixed-seed{}-spawn{i}", setup.seed);
        let spawned = Server::spawn(setup.serve_bin, &csv, setup.out, &tag)?;
        tracer.record("spawn", i as u64, None, spawned.started, spawned.listening);
        setups.push((spawned.listening - spawned.started).as_secs_f64());
        let xs = if i + COLD_PASSES >= SPAWNS {
            let (secs, xs) = closed_pass(spawned.addr, &hot, &mut next_id)?;
            cold_passes.push(secs);
            xs
        } else {
            Vec::new()
        };
        if i + 1 < SPAWNS {
            let mut tally = Tally::default();
            tally.add(&xs);
            let (summary, prom) = spawned.drain()?;
            for problem in cross_check(&tally, &summary, &prom) {
                report.mismatch(format!("spawn {i}: {problem}"));
            }
        } else {
            server = Some(spawned);
        }
        exchanges.extend(xs);
    }
    let server = server.expect("last spawn kept");
    let hot_answers = exchanges.len() - hot.len();

    // Reference step, then (untraced) the overload step.
    let seconds = setup.seconds as f64;
    let ref_count = REFERENCE_MIN.max((REFERENCE_SHARE * seconds * REFERENCE_RPS) as usize);
    let step_span = tracer.open("step", 0, None);
    let (reference, threads) = open_step(
        server.addr,
        (REFERENCE_RPS, ref_count),
        (&mut rng, &hot, &mut next_id),
        tracer,
        step_span,
    )?;
    tracer.close(step_span);
    let ref_stats = step_stats(&reference);
    // Untraced: the overload step gives the sustained answer rate.
    let overload = if setup.traced {
        Vec::new()
    } else {
        open_step(
            server.addr,
            (OVERLOAD_RPS, OVERLOAD_REQUESTS),
            (&mut rng, &hot, &mut next_id),
            tracer,
            None,
        )?
        .0
    };
    let (summary, prom) = server.drain()?;

    let mut tally = Tally::default();
    tally.add(&exchanges[hot_answers..]);
    tally.add(&reference);
    tally.add(&overload);
    for problem in cross_check(&tally, &summary, &prom) {
        report.mismatch(format!("final spawn: {problem}"));
    }
    let all: Vec<&Exchange> = exchanges
        .iter()
        .chain(&reference)
        .chain(&overload)
        .collect();
    let span = tracer.open("replay", 0, None);
    let (inproc_ms, peak_mb) = replay(&csv, &reference, tracer, span)?;
    tracer.close(span);
    let verify_span = tracer.open("verify", 0, None);
    check_answers(&instance, &all, report);
    tracer.close(verify_span);
    report.attempted += all.len() as u64;
    // Failures at the reference rate: dropped, error or rejected.
    report.failed += ref_stats.failed as u64;

    eprintln!(
        "serve_mixed: {} requests at {REFERENCE_RPS} req/s on {threads} connection(s): \
         p50 {:.1} ms, p90 {:.1} ms",
        reference.len(),
        ref_stats.p50,
        ref_stats.p90
    );
    if !setup.traced {
        let hot_cost: f64 = exchanges[hot_answers..]
            .iter()
            .filter_map(|x| Some(x.response.as_ref()?.answer.as_ref()?.total_cost))
            .sum();
        let sent = reference.len() as f64;
        report.set("setup_s", median(&setups));
        report.set("solve_s", median(&cold_passes));
        report.set("cost_total", hot_cost);
        report.set("peak_mem_mb", peak_mb);
        report.set("ok_share", ratio(sent - ref_stats.failed as f64, sent));
        report.set("latency_p50_ms", ref_stats.p50);
        report.set("latency_p90_ms", ref_stats.p90);
        report.set("max_rate_rps", sustained_rate(&overload));
        report.set("complete_share", ratio(ref_stats.complete as f64, sent));
        return Ok(());
    }

    report.set("lbl.generate_s", generate_s);
    report.set("index.build_s", index_s);
    layer_metrics(&reference, report);
    protocol_timings(&reference, report);
    report.set("dispatch.inproc_ms_p50", inproc_ms);
    report.set(
        "telemetry.serve_observer_overhead",
        observer_overhead(&instance, &reference),
    );
    Ok(())
}
