//! Structured solver observability: lifecycle events, aggregated metrics,
//! and JSONL trace export.
//!
//! The paper's empirical section is built on *internal* solver metrics —
//! "patterns considered" (Fig. 6), budget-guess rounds, per-phase runtime.
//! This module turns those into an explicit event stream: solvers emit
//! lifecycle events through an [`Observer`], and callers choose what to do
//! with them:
//!
//! * [`NoopObserver`] — ignore everything; every method is a default no-op
//!   the optimizer erases, so uninstrumented callers pay nothing;
//! * [`Stats`](crate::stats::Stats) — the classic three-counter struct,
//!   kept as a thin [`Observer`] adapter so existing call sites work
//!   unchanged;
//! * [`MetricsRecorder`] — counters, per-phase monotonic timings, and
//!   log-bucketed histograms (marginal-benefit distribution, heap
//!   re-heapify depth);
//! * [`JsonlSink`] — one JSON object per event to any [`io::Write`];
//! * [`Fanout`] — broadcast each event to several observers at once.
//!
//! Event vocabulary (see DESIGN.md §Observability for the full mapping to
//! the paper's figures):
//!
//! | event | emitted when |
//! |---|---|
//! | `guess_started` | a budget-guess round begins (`None` for single-round solvers) |
//! | `level_entered` | a geometric cost level of the CMC schedule is scheduled |
//! | `set_selected` | a set/pattern enters a candidate solution |
//! | `benefit_computed` | (marginal) benefits were computed for `count` candidates |
//! | `candidate_pruned` | a candidate was discarded before selection |
//! | `subtree_pruned` | a whole lattice subtree was cut (pattern solvers) |
//! | `posting_scanned` | index posting entries were scanned to expand a node |
//! | `heap_stale_pop` | the lazy-greedy heap popped a stale entry and re-scored it |
//! | `round_decided` | a selection round resolved: winner + runners-up + tie-break |
//! | `price_charged` | the winner's weight was split across its newly covered elements |
//! | `degrade_decided` | the engine degraded a solve (deadline/tick budget/cancel) |
//! | `guess_retried` | a panicked budget guess was contained and retried serially |
//! | `trace_started` | a solve entry point minted its deterministic [`TraceId`] |
//! | `worker_switched` | subsequent events were recorded by another worker (shard replay) |
//! | `stall_detected` | the liveness [`Watchdog`](watchdog::Watchdog) saw no progress within its deadline headroom |
//! | `phase_started` / `phase_ended` | a named span (e.g. [`PHASE_TOTAL`]) opened / closed |

use std::fmt::Write as _;
use std::io;
use std::time::Instant;

#[cfg(feature = "alloc-stats")]
pub mod alloc;
pub mod audit;
pub mod export;
pub mod flight;
pub mod replay;
pub mod spans;
pub mod trace;
pub mod watchdog;
pub mod window;

pub use audit::{AuditCandidate, DecisionLedger, QualityCertificate};
pub use export::{parse_prometheus, render_prometheus, render_prometheus_windowed, SloGauges};
pub use flight::{CausalNode, FlightRecorder};
pub use replay::EventLog;
pub use spans::{SpanCounters, SpanNode, SpanProfiler};
pub use trace::{pack_k_target, TraceContext, TraceId, MAIN_WORKER};
pub use watchdog::{Watchdog, WatchdogMonitor};
pub use window::{EntryWindow, RollingHistogram, SolveSample, SolveWindows, WindowedCounter};

/// Span name covering a solver's whole run; [`Stats`](crate::stats::Stats)
/// copies its duration into `elapsed_secs`.
pub const PHASE_TOTAL: &str = "total";

/// Span name of one budget guess inside a CMC run (child of
/// [`PHASE_TOTAL`]; one completion per `guess_started`).
pub const PHASE_GUESS: &str = "guess";

/// Span name of the initial benefit materialization of a round/guess.
pub const PHASE_INIT: &str = "init";

/// Span name of a lattice-expansion sweep (posting scans + child
/// materialization) inside the optimized pattern solvers.
pub const PHASE_EXPAND: &str = "expand";

/// Span name of a selection sweep (argmax + cover update + recount).
pub const PHASE_SELECT: &str = "select";

/// Span name of a **pruned** benefit scan (the bound/sketch-gated
/// refresh of the optimized CWSC's candidate list). One-sided by design:
/// a run with `SCWSC_PRUNE=0` (or an older baseline snapshot) never
/// produces it, which `scwsc_bench diff --attribute` labels as a "new"
/// span rather than a mover against zero.
pub const PHASE_SCAN_PRUNE: &str = "scan_prune";

/// Why a candidate (or lattice subtree) was discarded before selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruneReason {
    /// Marginal benefit below the CWSC eligibility floor `rem/i`.
    BelowFloor,
    /// Marginal benefit dropped to zero (nothing new to cover).
    Exhausted,
    /// A cost bound proved the candidate cannot beat the incumbent.
    CostBound,
    /// A coverage bound proved the target is unreachable from here.
    CoverageBound,
}

impl PruneReason {
    /// Number of distinct reasons (array-indexing aid for aggregators).
    pub const COUNT: usize = 4;

    /// Stable snake_case name used in traces and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            PruneReason::BelowFloor => "below_floor",
            PruneReason::Exhausted => "exhausted",
            PruneReason::CostBound => "cost_bound",
            PruneReason::CoverageBound => "coverage_bound",
        }
    }

    /// Dense index in `0..COUNT`, in declaration order.
    pub fn index(self) -> usize {
        match self {
            PruneReason::BelowFloor => 0,
            PruneReason::Exhausted => 1,
            PruneReason::CostBound => 2,
            PruneReason::CoverageBound => 3,
        }
    }

    /// All reasons in [`index`](PruneReason::index) order.
    pub fn all() -> [PruneReason; PruneReason::COUNT] {
        [
            PruneReason::BelowFloor,
            PruneReason::Exhausted,
            PruneReason::CostBound,
            PruneReason::CoverageBound,
        ]
    }
}

/// Receiver of solver lifecycle events. Every method has an empty default
/// body, so observers implement only what they care about and the
/// [`NoopObserver`] path compiles away entirely.
///
/// Solvers take `&mut O where O: Observer + ?Sized`, so both concrete
/// observers (`&mut Stats`) and trait objects (`&mut dyn Observer`, as
/// inside [`Fanout`]) work.
pub trait Observer {
    /// A budget-guess round began. `budget` is the guessed `B` for CMC's
    /// outer loop, `None` for single-round solvers (CWSC, the baselines).
    fn guess_started(&mut self, budget: Option<f64>) {
        let _ = budget;
    }

    /// Level `level` of the CMC cost schedule was scheduled with a quota
    /// (`allowance`) of picks. Emitted for the full schedule of each guess.
    fn level_entered(&mut self, level: usize, allowance: usize) {
        let _ = (level, allowance);
    }

    /// A set/pattern entered a candidate solution.
    fn set_selected(&mut self, id: u64, marginal_benefit: u64, cost: f64) {
        let _ = (id, marginal_benefit, cost);
    }

    /// `count` candidates had their (marginal) benefit computed — the
    /// paper's Fig. 6 "patterns considered" unit of work.
    fn benefit_computed(&mut self, count: u64) {
        let _ = count;
    }

    /// A candidate was discarded before selection.
    fn candidate_pruned(&mut self, reason: PruneReason) {
        let _ = reason;
    }

    /// A whole lattice subtree was cut without materializing it
    /// (pattern-lattice solvers only).
    fn subtree_pruned(&mut self, reason: PruneReason) {
        let _ = reason;
    }

    /// `entries` inverted-index posting entries (parent rows) were scanned
    /// to expand a lattice node into its children.
    fn posting_scanned(&mut self, entries: u64) {
        let _ = entries;
    }

    /// The lazy-greedy heap popped a stale entry and had to re-score it.
    fn heap_stale_pop(&mut self) {}

    /// A selection round resolved: `winner` beat `runners_up` (best first,
    /// at most [`audit::RUNNERS_UP`]) under `order`
    /// ([`audit::ORDER_BENEFIT`] or [`audit::ORDER_GAIN`]). Emitted once
    /// per `set_selected`, *before* it, by every greedy solver; the
    /// [`DecisionLedger`](audit::DecisionLedger) derives margins and
    /// tie-break keys from it. The derived counter is **excluded** from
    /// the exact-diff set (audit plumbing, not algorithmic work).
    fn round_decided(
        &mut self,
        order: &'static str,
        winner: &audit::AuditCandidate,
        runners_up: &[audit::AuditCandidate],
    ) {
        let _ = (order, winner, runners_up);
    }

    /// The winning set's weight `cost` was charged uniformly across the
    /// `elements` it newly covered — the greedy price vector behind
    /// [`audit::certify`]. Emitted right after the matching
    /// [`round_decided`](Observer::round_decided).
    fn price_charged(&mut self, set_id: u64, elements: &[u32], cost: f64) {
        let _ = (set_id, elements, cost);
    }

    /// The resilience engine decided to degrade a solve (`reason` is the
    /// stable `DegradeReason::as_str` string) with `covered` of `target`
    /// elements covered. Fires only on deadline/fault paths, which a
    /// healthy run never takes — excluded from the exact-diff set.
    fn degrade_decided(&mut self, reason: &'static str, covered: u64, target: u64) {
        let _ = (reason, covered, target);
    }

    /// A speculative budget-guess window resolved: `committed` guesses had
    /// their telemetry committed and `wasted` were cancelled or discarded.
    /// No solver emits it since speculative guessing was removed
    /// (DESIGN.md §11); the derived counters stay, **excluded** from the
    /// exact-diff set, for snapshot and benchmark compatibility.
    fn speculation(&mut self, committed: u64, wasted: u64) {
        let _ = (committed, wasted);
    }

    /// A budget guess panicked, was contained by the resilience engine,
    /// and is being retried once. Fires only on fault/panic
    /// paths, which a healthy serial run never takes — so the derived
    /// counter is **excluded** from the exact-diff set, like the
    /// speculation counters.
    fn guess_retried(&mut self) {}

    /// A solve entry point minted its deterministic [`TraceId`] and is
    /// about to open its root span. `entry` is the entry point's stable
    /// name (`"cmc"`, `"opt_cwsc"`, …). Nested solves (a Pareto sweep's
    /// inner rounds) emit their own `trace_started`; consumers that track
    /// one trace per run latch the first. The derived counter is
    /// **excluded** from the exact-diff set (it is new observability
    /// plumbing, not algorithmic work — see DESIGN.md §13).
    fn trace_started(&mut self, trace_id: trace::TraceId, entry: &'static str) {
        let _ = (trace_id, entry);
    }

    /// Subsequent events were recorded by `worker_id`
    /// ([`MAIN_WORKER`](trace::MAIN_WORKER) = the calling thread; shard
    /// `i` of a parallel region reports as `i + 1`). Emitted by the
    /// shard-then-replay machinery, so replayed parallel telemetry keeps
    /// its causal attribution. Excluded from the exact-diff set: a serial
    /// run never switches workers.
    fn worker_switched(&mut self, worker_id: u32) {
        let _ = worker_id;
    }

    /// `count` scan candidates were disposed of *without* a completed
    /// exact masked count: a stale upper bound, block-summary sketch, or
    /// early-exit kernel proved they could not change the round's
    /// decision (DESIGN.md §15). Pruned-scan runs only; how many fire
    /// depends on chunking, so the derived counter is **excluded** from
    /// the exact-diff set.
    fn scan_pruned(&mut self, count: u64) {
        let _ = count;
    }

    /// `count` stale scan upper bounds were replaced by fresh exact
    /// counts. Advisory like [`scan_pruned`](Observer::scan_pruned) —
    /// excluded from the exact-diff set.
    fn bound_refreshed(&mut self, count: u64) {
        let _ = count;
    }

    /// `count` bound/sketch probes were inconclusive and fell back to the
    /// full exact count. Advisory like
    /// [`scan_pruned`](Observer::scan_pruned) — excluded from the
    /// exact-diff set.
    fn sketch_inconclusive(&mut self, count: u64) {
        let _ = count;
    }

    /// The liveness [`Watchdog`](watchdog::Watchdog) observed no solve
    /// progress (no events, no engine `checkpoint()` ticks) for
    /// `stalled_secs` wall-clock seconds; `ticks` is the engine tick
    /// count at detection time. Fires only on stalled solves, which a
    /// healthy run never produces — **excluded** from the exact-diff
    /// set, like the other fault-path counters.
    fn stall_detected(&mut self, ticks: u64, stalled_secs: f64) {
        let _ = (ticks, stalled_secs);
    }

    /// A named span opened. Pair with [`phase_ended`](Observer::phase_ended).
    fn phase_started(&mut self, name: &'static str) {
        let _ = name;
    }

    /// A named span closed after `seconds` of wall-clock time. The solver
    /// measures the duration itself so observers stay stateless.
    fn phase_ended(&mut self, name: &'static str, seconds: f64) {
        let _ = (name, seconds);
    }
}

/// The do-nothing observer: all default methods, zero cost after inlining.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

/// RAII-style helper for emitting a paired
/// [`phase_started`](Observer::phase_started) /
/// [`phase_ended`](Observer::phase_ended) span. Not `Drop`-based — the
/// observer borrow cannot be held across the span — so call
/// [`exit`](PhaseSpan::exit) explicitly.
#[derive(Debug)]
pub struct PhaseSpan {
    name: &'static str,
    start: Instant,
}

impl PhaseSpan {
    /// Emits `phase_started(name)` and starts the clock.
    pub fn enter<O: Observer + ?Sized>(obs: &mut O, name: &'static str) -> PhaseSpan {
        obs.phase_started(name);
        PhaseSpan {
            name,
            start: Instant::now(),
        }
    }

    /// Emits `phase_ended(name, seconds)` and returns the measured seconds.
    pub fn exit<O: Observer + ?Sized>(self, obs: &mut O) -> f64 {
        let seconds = self.start.elapsed().as_secs_f64();
        obs.phase_ended(self.name, seconds);
        seconds
    }
}

/// A histogram with power-of-two buckets: bucket `0` holds zeros, bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i − 1]` (so the top bucket, 64,
/// is `[2^63, u64::MAX]` — no value is unrepresentable). Hand-rolled (no
/// deps) and allocation-light: the bucket vector grows to the highest
/// observed magnitude only.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Index of the bucket `value` falls into.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive value range `[lo, hi]` of bucket `i` (bucket 0 is the
    /// point range `[0, 0]`; bucket 64 is `[2^63, u64::MAX]`).
    ///
    /// The upper bound is *inclusive*: an exclusive bound for the top
    /// bucket would be `2^64`, which `u64` cannot represent — the earlier
    /// exclusive formulation silently excluded `u64::MAX` from the bucket
    /// [`bucket_of`](LogHistogram::bucket_of) assigns it to.
    ///
    /// # Panics
    /// Panics if `i > 64` (no value maps to such a bucket).
    pub fn bucket_range(i: usize) -> (u64, u64) {
        assert!(i <= 64, "bucket {i} out of range (values map to 0..=64)");
        match i {
            0 => (0, 0),
            64 => (1u64 << 63, u64::MAX),
            _ => (1u64 << (i - 1), (1u64 << i) - 1),
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let b = LogHistogram::bucket_of(value);
        if b >= self.buckets.len() {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Per-bucket observation counts (index = [`bucket_of`](LogHistogram::bucket_of)).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`, clamped) as an upper-bound
    /// estimate: the smallest recorded-bucket upper bound below which at
    /// least `⌈q·count⌉` observations fall, capped at the exact observed
    /// [`max`](LogHistogram::max) so the estimate never exceeds a value
    /// that was actually recorded. Returns 0 for an empty histogram.
    ///
    /// The log-bucketed layout bounds the relative error at 2× (one
    /// power-of-two bucket), which is the standard trade for an
    /// allocation-light always-on histogram; p50/p90/p99 derived here are
    /// the SLO surface exported by
    /// [`render_prometheus`](crate::telemetry::render_prometheus).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based; q = 0 means "smallest".
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (_, hi) = LogHistogram::bucket_range(i);
                return hi.min(self.max);
            }
        }
        self.max // unreachable when counts are consistent; safe fallback
    }

    /// Folds `other`'s observations into `self`, as if every value had
    /// been [`record`](LogHistogram::record)ed here directly (bucket
    /// counts add, sum saturates, max takes the larger).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// Accumulated wall-clock time of one named phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMetric {
    /// Span name as passed to [`Observer::phase_started`].
    pub name: &'static str,
    /// Total seconds across all spans with this name.
    pub seconds: f64,
    /// Number of completed spans with this name.
    pub count: u64,
}

/// An [`Observer`] that aggregates every event into counters, per-phase
/// monotonic timings, and log-bucketed histograms — the in-process
/// equivalent of the numbers behind the paper's Figures 5–9.
#[derive(Debug, Clone, Default)]
pub struct MetricsRecorder {
    /// Budget-guess rounds started.
    pub guesses: u64,
    /// Cost levels scheduled across all guesses.
    pub levels_entered: u64,
    /// Sum of level quotas across all guesses (`Σ allowance`).
    pub level_allowance: u64,
    /// Sets/patterns selected into candidate solutions.
    pub selections: u64,
    /// Benefit computations — the Fig. 6 "considered" metric.
    pub benefits_computed: u64,
    /// Candidates pruned, indexed by [`PruneReason::index`].
    pub candidates_pruned: [u64; PruneReason::COUNT],
    /// Lattice subtrees pruned, indexed by [`PruneReason::index`].
    pub subtrees_pruned: [u64; PruneReason::COUNT],
    /// Stale lazy-greedy heap pops (each one re-scored a candidate).
    pub heap_stale_pops: u64,
    /// Inverted-index posting entries scanned during lattice expansion.
    pub postings_scanned: u64,
    /// Speculative budget guesses whose telemetry was committed. No solver
    /// speculates any more, so this reads 0; excluded from the exact-diff
    /// counter set.
    pub guesses_committed: u64,
    /// Speculative budget guesses cancelled or discarded. Reads 0, like
    /// [`guesses_committed`](Self::guesses_committed); excluded from the
    /// exact-diff counter set.
    pub guesses_wasted: u64,
    /// Panicked budget guesses contained and retried by the
    /// resilience engine. Fault paths only — excluded from the exact-diff
    /// counter set.
    pub guesses_retried: u64,
    /// Traces minted by solve entry points. Observability plumbing —
    /// excluded from the exact-diff counter set (DESIGN.md §13).
    pub traces_started: u64,
    /// Worker-context switches replayed from parallel telemetry shards.
    /// Parallel runs only — excluded from the exact-diff counter set.
    pub worker_switches: u64,
    /// Selection rounds audited (`round_decided` events). Audit plumbing —
    /// excluded from the exact-diff counter set like the trace counters.
    pub rounds_audited: u64,
    /// Scan candidates disposed of without a completed exact masked count
    /// (bound/sketch/early-exit decided). Pruned-scan runs only; varies
    /// with chunking — excluded from the exact-diff counter set.
    pub scan_candidates_pruned: u64,
    /// Stale scan upper bounds replaced by fresh exact counts. Advisory —
    /// excluded from the exact-diff counter set.
    pub scan_bounds_refreshed: u64,
    /// Bound/sketch probes that fell back to the full exact count.
    /// Advisory — excluded from the exact-diff counter set.
    pub scan_sketch_inconclusive: u64,
    /// Stalls flagged by the liveness watchdog (no progress within
    /// deadline headroom). Fault/overload paths only — excluded from the
    /// exact-diff counter set.
    pub stalls_detected: u64,
    /// Distribution of marginal benefits at selection time.
    pub marginal_benefit_hist: LogHistogram,
    /// Distribution of consecutive stale pops preceding each selection —
    /// the heap "re-heapify depth".
    pub stale_run_hist: LogHistogram,
    phases: Vec<PhaseMetric>,
    stale_run: u64,
}

impl MetricsRecorder {
    /// A fresh, zeroed recorder.
    pub fn new() -> MetricsRecorder {
        MetricsRecorder::default()
    }

    /// Completed phases in first-seen order.
    pub fn phases(&self) -> &[PhaseMetric] {
        &self.phases
    }

    /// Total seconds recorded for `name`, if any span with it completed.
    pub fn phase_seconds(&self, name: &str) -> Option<f64> {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.seconds)
    }

    /// All candidates pruned, summed over reasons.
    pub fn candidates_pruned_total(&self) -> u64 {
        self.candidates_pruned.iter().sum()
    }

    /// All subtrees pruned, summed over reasons.
    pub fn subtrees_pruned_total(&self) -> u64 {
        self.subtrees_pruned.iter().sum()
    }

    /// Folds `other`'s aggregates into `self` — the shard-then-merge half
    /// of parallel telemetry: workers record into private recorders and
    /// the caller merges them back, so totals equal a single-recorder run.
    ///
    /// Phases merge by name (new names append in `other`'s order); the
    /// in-flight stale-run counter adds so a merge mid-run loses nothing.
    pub fn merge(&mut self, other: &MetricsRecorder) {
        self.guesses += other.guesses;
        self.levels_entered += other.levels_entered;
        self.level_allowance += other.level_allowance;
        self.selections += other.selections;
        self.benefits_computed += other.benefits_computed;
        for (a, b) in self
            .candidates_pruned
            .iter_mut()
            .zip(&other.candidates_pruned)
        {
            *a += b;
        }
        for (a, b) in self.subtrees_pruned.iter_mut().zip(&other.subtrees_pruned) {
            *a += b;
        }
        self.heap_stale_pops += other.heap_stale_pops;
        self.postings_scanned += other.postings_scanned;
        self.guesses_committed += other.guesses_committed;
        self.guesses_wasted += other.guesses_wasted;
        self.guesses_retried += other.guesses_retried;
        self.traces_started += other.traces_started;
        self.worker_switches += other.worker_switches;
        self.rounds_audited += other.rounds_audited;
        self.scan_candidates_pruned += other.scan_candidates_pruned;
        self.scan_bounds_refreshed += other.scan_bounds_refreshed;
        self.scan_sketch_inconclusive += other.scan_sketch_inconclusive;
        self.stalls_detected += other.stalls_detected;
        self.marginal_benefit_hist
            .merge(&other.marginal_benefit_hist);
        self.stale_run_hist.merge(&other.stale_run_hist);
        for p in &other.phases {
            match self.phases.iter_mut().find(|q| q.name == p.name) {
                Some(q) => {
                    q.seconds += p.seconds;
                    q.count += p.count;
                }
                None => self.phases.push(p.clone()),
            }
        }
        self.stale_run += other.stale_run;
    }
}

impl Observer for MetricsRecorder {
    fn guess_started(&mut self, _budget: Option<f64>) {
        self.guesses += 1;
    }

    fn level_entered(&mut self, _level: usize, allowance: usize) {
        self.levels_entered += 1;
        self.level_allowance += allowance as u64;
    }

    fn set_selected(&mut self, _id: u64, marginal_benefit: u64, _cost: f64) {
        self.selections += 1;
        self.marginal_benefit_hist.record(marginal_benefit);
        self.stale_run_hist.record(self.stale_run);
        self.stale_run = 0;
    }

    fn benefit_computed(&mut self, count: u64) {
        self.benefits_computed += count;
    }

    fn candidate_pruned(&mut self, reason: PruneReason) {
        self.candidates_pruned[reason.index()] += 1;
    }

    fn subtree_pruned(&mut self, reason: PruneReason) {
        self.subtrees_pruned[reason.index()] += 1;
    }

    fn posting_scanned(&mut self, entries: u64) {
        self.postings_scanned += entries;
    }

    fn heap_stale_pop(&mut self) {
        self.heap_stale_pops += 1;
        self.stale_run += 1;
    }

    fn speculation(&mut self, committed: u64, wasted: u64) {
        self.guesses_committed += committed;
        self.guesses_wasted += wasted;
    }

    fn guess_retried(&mut self) {
        self.guesses_retried += 1;
    }

    fn trace_started(&mut self, _trace_id: trace::TraceId, _entry: &'static str) {
        self.traces_started += 1;
    }

    fn worker_switched(&mut self, _worker_id: u32) {
        self.worker_switches += 1;
    }

    fn round_decided(
        &mut self,
        _order: &'static str,
        _winner: &audit::AuditCandidate,
        _runners_up: &[audit::AuditCandidate],
    ) {
        self.rounds_audited += 1;
    }

    fn scan_pruned(&mut self, count: u64) {
        self.scan_candidates_pruned += count;
    }

    fn bound_refreshed(&mut self, count: u64) {
        self.scan_bounds_refreshed += count;
    }

    fn sketch_inconclusive(&mut self, count: u64) {
        self.scan_sketch_inconclusive += count;
    }

    fn stall_detected(&mut self, _ticks: u64, _stalled_secs: f64) {
        self.stalls_detected += 1;
    }

    fn phase_ended(&mut self, name: &'static str, seconds: f64) {
        match self.phases.iter_mut().find(|p| p.name == name) {
            Some(p) => {
                p.seconds += seconds;
                p.count += 1;
            }
            None => self.phases.push(PhaseMetric {
                name,
                seconds,
                count: 1,
            }),
        }
    }
}

/// An [`Observer`] that serializes every event as one JSON object per line
/// to any [`io::Write`]. Each line carries `"t"`, seconds since the sink
/// was created, and `"event"`, the event name, plus the event's fields.
///
/// The encoder is hand-rolled (the workspace deliberately carries no JSON
/// serializer); non-finite floats become JSON `null`. Write errors are
/// latched rather than panicking mid-solve: the first failure silences the
/// sink and [`has_failed`](JsonlSink::has_failed) reports it.
///
/// Dropping the sink flushes the writer, so a trace file is never left
/// with buffered-but-unwritten events when the process exits on a panic
/// or degradation path; callers that want the flush error call
/// [`flush`](JsonlSink::flush) or [`into_inner`](JsonlSink::into_inner)
/// explicitly before exiting non-zero.
#[derive(Debug)]
pub struct JsonlSink<W: io::Write> {
    out: Option<W>,
    start: Instant,
    failed: bool,
    buf: String,
}

impl<W: io::Write> JsonlSink<W> {
    /// Wraps a writer; the trace clock starts now.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            out: Some(out),
            start: Instant::now(),
            failed: false,
            buf: String::with_capacity(128),
        }
    }

    /// Whether any write has failed (later events were dropped).
    pub fn has_failed(&self) -> bool {
        self.failed
    }

    /// Flushes buffered events through to the underlying writer. Called
    /// automatically on drop (where the error can only be latched); call
    /// it explicitly before a non-zero process exit to surface the error.
    pub fn flush(&mut self) -> io::Result<()> {
        match self.out.as_mut() {
            Some(out) => out.flush().inspect_err(|_| self.failed = true),
            None => Ok(()),
        }
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> io::Result<W> {
        let mut out = self.out.take().expect("writer present until taken");
        out.flush()?;
        Ok(out)
    }

    /// Emits one line: `{"t":<secs>,"event":"<event>"<fields>}\n`.
    /// `fields` must be empty or start with a comma.
    fn emit(&mut self, event: &str, fields: &str) {
        if self.failed {
            return;
        }
        let t = self.start.elapsed().as_secs_f64();
        self.buf.clear();
        let _ = write!(
            self.buf,
            "{{\"t\":{},\"event\":\"{event}\"{fields}}}",
            json_f64(t)
        );
        self.buf.push('\n');
        let Some(out) = self.out.as_mut() else { return };
        if out.write_all(self.buf.as_bytes()).is_err() {
            self.failed = true;
        }
    }
}

impl<W: io::Write> Drop for JsonlSink<W> {
    /// Best-effort flush so buffered trace lines survive unwinding; the
    /// error (if any) is latched in [`has_failed`](JsonlSink::has_failed).
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Formats an `f64` as a JSON value (non-finite → `null`).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        if !s.contains(['.', 'e', 'E']) {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_owned()
    }
}

impl<W: io::Write> Observer for JsonlSink<W> {
    fn guess_started(&mut self, budget: Option<f64>) {
        let b = match budget {
            Some(v) => json_f64(v),
            None => "null".to_owned(),
        };
        self.emit("guess_started", &format!(",\"budget\":{b}"));
    }

    fn level_entered(&mut self, level: usize, allowance: usize) {
        self.emit(
            "level_entered",
            &format!(",\"level\":{level},\"allowance\":{allowance}"),
        );
    }

    fn set_selected(&mut self, id: u64, marginal_benefit: u64, cost: f64) {
        self.emit(
            "set_selected",
            &format!(
                ",\"id\":{id},\"marginal_benefit\":{marginal_benefit},\"cost\":{}",
                json_f64(cost)
            ),
        );
    }

    fn benefit_computed(&mut self, count: u64) {
        self.emit("benefit_computed", &format!(",\"count\":{count}"));
    }

    fn candidate_pruned(&mut self, reason: PruneReason) {
        self.emit(
            "candidate_pruned",
            &format!(",\"reason\":\"{}\"", reason.as_str()),
        );
    }

    fn subtree_pruned(&mut self, reason: PruneReason) {
        self.emit(
            "subtree_pruned",
            &format!(",\"reason\":\"{}\"", reason.as_str()),
        );
    }

    fn posting_scanned(&mut self, entries: u64) {
        self.emit("posting_scanned", &format!(",\"entries\":{entries}"));
    }

    fn heap_stale_pop(&mut self) {
        self.emit("heap_stale_pop", "");
    }

    fn round_decided(
        &mut self,
        order: &'static str,
        winner: &audit::AuditCandidate,
        runners_up: &[audit::AuditCandidate],
    ) {
        let mut f = format!(
            ",\"order\":\"{order}\",\"winner\":{},\"runners_up\":[",
            audit::cand_json(winner)
        );
        for (i, r) in runners_up.iter().enumerate() {
            if i > 0 {
                f.push(',');
            }
            f.push_str(&audit::cand_json(r));
        }
        f.push(']');
        self.emit("round_decided", &f);
    }

    fn price_charged(&mut self, set_id: u64, elements: &[u32], cost: f64) {
        let mut f = format!(
            ",\"set\":{set_id},\"cost\":{},\"elements\":[",
            json_f64(cost)
        );
        for (i, e) in elements.iter().enumerate() {
            if i > 0 {
                f.push(',');
            }
            let _ = write!(f, "{e}");
        }
        f.push(']');
        self.emit("price_charged", &f);
    }

    fn degrade_decided(&mut self, reason: &'static str, covered: u64, target: u64) {
        self.emit(
            "degrade_decided",
            &format!(",\"reason\":\"{reason}\",\"covered\":{covered},\"target\":{target}"),
        );
    }

    fn speculation(&mut self, committed: u64, wasted: u64) {
        self.emit(
            "speculation",
            &format!(",\"committed\":{committed},\"wasted\":{wasted}"),
        );
    }

    fn guess_retried(&mut self) {
        self.emit("guess_retried", "");
    }

    fn trace_started(&mut self, trace_id: trace::TraceId, entry: &'static str) {
        self.emit(
            "trace_started",
            &format!(",\"trace_id\":\"{trace_id}\",\"entry\":\"{entry}\""),
        );
    }

    fn worker_switched(&mut self, worker_id: u32) {
        self.emit("worker_switched", &format!(",\"worker\":{worker_id}"));
    }

    fn stall_detected(&mut self, ticks: u64, stalled_secs: f64) {
        self.emit(
            "stall_detected",
            &format!(
                ",\"ticks\":{ticks},\"stalled_secs\":{}",
                json_f64(stalled_secs)
            ),
        );
    }

    fn phase_started(&mut self, name: &'static str) {
        self.emit("phase_started", &format!(",\"name\":\"{name}\""));
    }

    fn phase_ended(&mut self, name: &'static str, seconds: f64) {
        self.emit(
            "phase_ended",
            &format!(",\"name\":\"{name}\",\"seconds\":{}", json_f64(seconds)),
        );
    }
}

/// Broadcasts every event to each attached observer, in attachment order.
/// Lets one solve feed `Stats`, a [`MetricsRecorder`], and a [`JsonlSink`]
/// simultaneously.
#[derive(Default)]
pub struct Fanout<'a> {
    observers: Vec<&'a mut dyn Observer>,
}

impl<'a> Fanout<'a> {
    /// An empty fanout (all events dropped until observers attach).
    pub fn new() -> Fanout<'a> {
        Fanout {
            observers: Vec::new(),
        }
    }

    /// Attaches one more observer.
    pub fn attach(&mut self, observer: &'a mut dyn Observer) -> &mut Self {
        self.observers.push(observer);
        self
    }

    /// Number of attached observers.
    pub fn len(&self) -> usize {
        self.observers.len()
    }

    /// Whether no observer is attached.
    pub fn is_empty(&self) -> bool {
        self.observers.is_empty()
    }
}

impl Observer for Fanout<'_> {
    fn guess_started(&mut self, budget: Option<f64>) {
        for o in &mut self.observers {
            o.guess_started(budget);
        }
    }

    fn level_entered(&mut self, level: usize, allowance: usize) {
        for o in &mut self.observers {
            o.level_entered(level, allowance);
        }
    }

    fn set_selected(&mut self, id: u64, marginal_benefit: u64, cost: f64) {
        for o in &mut self.observers {
            o.set_selected(id, marginal_benefit, cost);
        }
    }

    fn benefit_computed(&mut self, count: u64) {
        for o in &mut self.observers {
            o.benefit_computed(count);
        }
    }

    fn candidate_pruned(&mut self, reason: PruneReason) {
        for o in &mut self.observers {
            o.candidate_pruned(reason);
        }
    }

    fn subtree_pruned(&mut self, reason: PruneReason) {
        for o in &mut self.observers {
            o.subtree_pruned(reason);
        }
    }

    fn posting_scanned(&mut self, entries: u64) {
        for o in &mut self.observers {
            o.posting_scanned(entries);
        }
    }

    fn heap_stale_pop(&mut self) {
        for o in &mut self.observers {
            o.heap_stale_pop();
        }
    }

    fn round_decided(
        &mut self,
        order: &'static str,
        winner: &audit::AuditCandidate,
        runners_up: &[audit::AuditCandidate],
    ) {
        for o in &mut self.observers {
            o.round_decided(order, winner, runners_up);
        }
    }

    fn price_charged(&mut self, set_id: u64, elements: &[u32], cost: f64) {
        for o in &mut self.observers {
            o.price_charged(set_id, elements, cost);
        }
    }

    fn degrade_decided(&mut self, reason: &'static str, covered: u64, target: u64) {
        for o in &mut self.observers {
            o.degrade_decided(reason, covered, target);
        }
    }

    fn speculation(&mut self, committed: u64, wasted: u64) {
        for o in &mut self.observers {
            o.speculation(committed, wasted);
        }
    }

    fn guess_retried(&mut self) {
        for o in &mut self.observers {
            o.guess_retried();
        }
    }

    fn trace_started(&mut self, trace_id: trace::TraceId, entry: &'static str) {
        for o in &mut self.observers {
            o.trace_started(trace_id, entry);
        }
    }

    fn worker_switched(&mut self, worker_id: u32) {
        for o in &mut self.observers {
            o.worker_switched(worker_id);
        }
    }

    fn scan_pruned(&mut self, count: u64) {
        for o in &mut self.observers {
            o.scan_pruned(count);
        }
    }

    fn bound_refreshed(&mut self, count: u64) {
        for o in &mut self.observers {
            o.bound_refreshed(count);
        }
    }

    fn sketch_inconclusive(&mut self, count: u64) {
        for o in &mut self.observers {
            o.sketch_inconclusive(count);
        }
    }

    fn stall_detected(&mut self, ticks: u64, stalled_secs: f64) {
        for o in &mut self.observers {
            o.stall_detected(ticks, stalled_secs);
        }
    }

    fn phase_started(&mut self, name: &'static str) {
        for o in &mut self.observers {
            o.phase_started(name);
        }
    }

    fn phase_ended(&mut self, name: &'static str, seconds: f64) {
        for o in &mut self.observers {
            o.phase_ended(name, seconds);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prune_reason_round_trip() {
        for (i, r) in PruneReason::all().into_iter().enumerate() {
            assert_eq!(r.index(), i);
            assert!(!r.as_str().is_empty());
        }
    }

    #[test]
    fn log_histogram_bucketing() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
        assert_eq!(LogHistogram::bucket_range(0), (0, 0));
        assert_eq!(LogHistogram::bucket_range(2), (2, 3));
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024] {
            let (lo, hi) = LogHistogram::bucket_range(LogHistogram::bucket_of(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo},{hi}]");
        }
    }

    /// Exhaustive boundary sweep: every power of two, its neighbours, zero,
    /// and `u64::MAX` land in a bucket whose inclusive range contains them,
    /// buckets tile the value space without gaps or overlaps, and the
    /// bucket index is monotone in the value.
    #[test]
    fn log_histogram_bucket_boundaries_exhaustive() {
        // bucket_of at every power of two and its neighbours.
        for i in 0..64u32 {
            let p = 1u64 << i;
            assert_eq!(LogHistogram::bucket_of(p), i as usize + 1, "2^{i}");
            if p > 1 {
                assert_eq!(LogHistogram::bucket_of(p - 1), i as usize, "2^{i}-1");
            }
            let (lo, hi) = LogHistogram::bucket_range(LogHistogram::bucket_of(p));
            assert!(lo <= p && p <= hi, "2^{i} outside [{lo},{hi}]");
        }
        // The extremes.
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
        let (lo, hi) = LogHistogram::bucket_range(64);
        assert!(lo < u64::MAX && hi == u64::MAX, "top bucket holds MAX");
        assert_eq!(LogHistogram::bucket_of(u64::MAX - 1), 64);
        assert_eq!(LogHistogram::bucket_of((1u64 << 63) - 1), 63);
        // Buckets tile [0, u64::MAX] exactly: each range starts right after
        // the previous one ends and the bucket owns its whole range.
        let mut expected_lo = 0u64;
        for i in 0..=64usize {
            let (lo, hi) = LogHistogram::bucket_range(i);
            assert_eq!(lo, expected_lo, "bucket {i} leaves a gap");
            assert!(lo <= hi, "bucket {i} range inverted");
            assert_eq!(LogHistogram::bucket_of(lo), i, "bucket {i} lo");
            assert_eq!(LogHistogram::bucket_of(hi), i, "bucket {i} hi");
            expected_lo = hi.wrapping_add(1);
        }
        assert_eq!(expected_lo, 0, "last bucket ends exactly at u64::MAX");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn log_histogram_bucket_range_rejects_past_64() {
        LogHistogram::bucket_range(65);
    }

    #[test]
    fn log_histogram_records_extremes() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX); // sum saturates rather than wrapping
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[64], 2);
    }

    #[test]
    fn log_histogram_aggregates() {
        let mut h = LogHistogram::new();
        assert!(h.is_empty());
        for v in [0u64, 1, 1, 5, 9] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 16);
        assert_eq!(h.max(), 9);
        assert_eq!(h.mean(), 3.2);
        assert_eq!(h.buckets()[0], 1, "one zero");
        assert_eq!(h.buckets()[1], 2, "two ones");
        assert_eq!(h.buckets()[3], 1, "5 in [4,8)");
        assert_eq!(h.buckets()[4], 1, "9 in [8,16)");
    }

    #[test]
    fn metrics_recorder_aggregates_events() {
        let mut m = MetricsRecorder::new();
        m.guess_started(Some(4.0));
        m.level_entered(0, 2);
        m.level_entered(1, 4);
        m.benefit_computed(10);
        m.heap_stale_pop();
        m.heap_stale_pop();
        m.set_selected(3, 6, 1.5);
        m.set_selected(1, 2, 0.5);
        m.candidate_pruned(PruneReason::BelowFloor);
        m.subtree_pruned(PruneReason::Exhausted);
        m.posting_scanned(7);
        m.phase_started("total");
        m.phase_ended("total", 0.25);
        m.phase_ended("total", 0.25);

        assert_eq!(m.guesses, 1);
        assert_eq!(m.levels_entered, 2);
        assert_eq!(m.level_allowance, 6);
        assert_eq!(m.selections, 2);
        assert_eq!(m.benefits_computed, 10);
        assert_eq!(m.candidates_pruned_total(), 1);
        assert_eq!(m.subtrees_pruned_total(), 1);
        assert_eq!(m.heap_stale_pops, 2);
        assert_eq!(m.postings_scanned, 7);
        assert_eq!(m.marginal_benefit_hist.count(), 2);
        assert_eq!(m.marginal_benefit_hist.sum(), 8);
        // First selection came after 2 stale pops, second after 0.
        assert_eq!(m.stale_run_hist.count(), 2);
        assert_eq!(m.stale_run_hist.max(), 2);
        assert_eq!(m.phase_seconds("total"), Some(0.5));
        assert_eq!(m.phases()[0].count, 2);
        assert_eq!(m.phase_seconds("missing"), None);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = LogHistogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "q={q}");
        }
    }

    #[test]
    fn quantile_single_bucket_returns_observed_max() {
        // All observations in one bucket: every quantile is that bucket,
        // capped at the exact observed max (not the bucket's upper bound).
        let mut h = LogHistogram::new();
        for _ in 0..10 {
            h.record(5); // bucket 3 = [4, 7]
        }
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 5, "q={q}");
        }
        // A single zero: quantiles collapse to the zero bucket.
        let mut z = LogHistogram::new();
        z.record(0);
        assert_eq!(z.quantile(0.5), 0);
        assert_eq!(z.quantile(1.0), 0);
    }

    #[test]
    fn quantile_saturating_top_bucket_is_exact_at_max() {
        // u64::MAX lives in the saturating top bucket [2^63, u64::MAX];
        // the estimate must not overflow past the observed max.
        let mut h = LogHistogram::new();
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.quantile(0.5), 1);
        // Only MAX recorded: every quantile is exactly MAX.
        let mut m = LogHistogram::new();
        m.record(u64::MAX);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(m.quantile(q), u64::MAX, "q={q}");
        }
    }

    #[test]
    fn quantile_rank_selection_and_clamping() {
        // 100 observations: 50 ones, 40 eights, 10 thousand-twenty-fours.
        let mut h = LogHistogram::new();
        for _ in 0..50 {
            h.record(1);
        }
        for _ in 0..40 {
            h.record(8); // bucket 4 = [8, 15]
        }
        for _ in 0..10 {
            h.record(1024); // bucket 11 = [1024, 2047]
        }
        assert_eq!(h.quantile(0.5), 1, "rank 50 is the last 1");
        assert_eq!(h.quantile(0.9), 15, "rank 90 is the last 8's bucket hi");
        assert_eq!(h.quantile(0.99), 1024, "rank 99 capped at observed max");
        assert_eq!(h.quantile(1.0), 1024);
        // Out-of-range q clamps instead of panicking.
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
        // Quantiles are monotone in q.
        let mut prev = 0;
        for i in 0..=100 {
            let v = h.quantile(i as f64 / 100.0);
            assert!(v >= prev, "quantile not monotone at {i}%");
            prev = v;
        }
    }

    #[test]
    fn trace_counters_stay_out_of_exact_counters() {
        let mut m = MetricsRecorder::new();
        m.trace_started(trace::TraceId::mint("cmc", 1, 2), "cmc");
        m.worker_switched(1);
        m.worker_switched(0);
        assert_eq!(m.traces_started, 1);
        assert_eq!(m.worker_switches, 2);
        // Like speculation/retry counters, trace plumbing never touches
        // the exact-diff counters.
        assert_eq!(m.guesses, 0);
        assert_eq!(m.selections, 0);
        assert_eq!(m.benefits_computed, 0);

        let mut merged = MetricsRecorder::new();
        merged.merge(&m);
        assert_eq!(merged.traces_started, 1);
        assert_eq!(merged.worker_switches, 2);
    }

    #[test]
    fn jsonl_sink_emits_trace_events() {
        let mut sink = JsonlSink::new(Vec::new());
        let id = trace::TraceId::mint("opt_cmc", 3, 4);
        sink.trace_started(id, "opt_cmc");
        sink.worker_switched(2);
        let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
        assert!(
            text.contains(&format!("\"trace_id\":\"{id}\",\"entry\":\"opt_cmc\"")),
            "{text}"
        );
        assert!(
            text.contains("\"event\":\"worker_switched\",\"worker\":2"),
            "{text}"
        );
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        struct FlushProbe(Arc<AtomicBool>);
        impl io::Write for FlushProbe {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                self.0.store(true, Ordering::SeqCst);
                Ok(())
            }
        }

        let flushed = Arc::new(AtomicBool::new(false));
        {
            let mut sink = JsonlSink::new(FlushProbe(Arc::clone(&flushed)));
            sink.heap_stale_pop();
            assert!(!flushed.load(Ordering::SeqCst), "no premature flush");
        }
        assert!(flushed.load(Ordering::SeqCst), "drop must flush");
    }

    #[test]
    fn log_histogram_merge_equals_interleaved_records() {
        let values_a = [0u64, 1, 5, 1024, u64::MAX];
        let values_b = [2u64, 2, 9, u64::MAX];
        let mut merged = LogHistogram::new();
        for v in values_a {
            merged.record(v);
        }
        let mut other = LogHistogram::new();
        for v in values_b {
            other.record(v);
        }
        merged.merge(&other);
        let mut direct = LogHistogram::new();
        for v in values_a.into_iter().chain(values_b) {
            direct.record(v);
        }
        assert_eq!(merged, direct);
        // Merging an empty histogram is the identity.
        let before = merged.clone();
        merged.merge(&LogHistogram::new());
        assert_eq!(merged, before);
    }

    #[test]
    fn metrics_recorder_merge_equals_single_recorder() {
        // Two shards observing disjoint event streams merge to exactly
        // what one recorder seeing both streams would hold.
        let drive_a = |m: &mut MetricsRecorder| {
            m.guess_started(Some(1.0));
            m.level_entered(0, 2);
            m.benefit_computed(5);
            m.heap_stale_pop();
            m.set_selected(1, 3, 2.0);
            m.candidate_pruned(PruneReason::BelowFloor);
            m.phase_started("total");
            m.phase_ended("total", 0.5);
        };
        let drive_b = |m: &mut MetricsRecorder| {
            m.guess_started(Some(2.0));
            m.benefit_computed(7);
            m.subtree_pruned(PruneReason::Exhausted);
            m.posting_scanned(11);
            m.set_selected(2, 4, 1.0);
            m.speculation(2, 1);
            m.guess_retried();
            m.phase_ended("total", 0.25);
            m.phase_ended("scan", 0.125);
        };
        let mut a = MetricsRecorder::new();
        drive_a(&mut a);
        let mut b = MetricsRecorder::new();
        drive_b(&mut b);
        a.merge(&b);

        let mut single = MetricsRecorder::new();
        drive_a(&mut single);
        drive_b(&mut single);

        assert_eq!(a.guesses, single.guesses);
        assert_eq!(a.levels_entered, single.levels_entered);
        assert_eq!(a.level_allowance, single.level_allowance);
        assert_eq!(a.selections, single.selections);
        assert_eq!(a.benefits_computed, single.benefits_computed);
        assert_eq!(a.candidates_pruned, single.candidates_pruned);
        assert_eq!(a.subtrees_pruned, single.subtrees_pruned);
        assert_eq!(a.heap_stale_pops, single.heap_stale_pops);
        assert_eq!(a.postings_scanned, single.postings_scanned);
        assert_eq!(a.guesses_committed, single.guesses_committed);
        assert_eq!(a.guesses_wasted, single.guesses_wasted);
        assert_eq!(a.guesses_retried, single.guesses_retried);
        assert_eq!(a.marginal_benefit_hist, single.marginal_benefit_hist);
        assert_eq!(a.stale_run_hist, single.stale_run_hist);
        assert_eq!(a.phases(), single.phases());
    }

    #[test]
    fn speculation_counters_accumulate() {
        let mut m = MetricsRecorder::new();
        m.speculation(3, 1);
        m.speculation(1, 0);
        assert_eq!(m.guesses_committed, 4);
        assert_eq!(m.guesses_wasted, 1);
        // Speculation does not touch the exact-diff counters.
        assert_eq!(m.guesses, 0);
        assert_eq!(m.benefits_computed, 0);
    }

    #[test]
    fn jsonl_sink_emits_speculation_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.speculation(3, 2);
        let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
        assert!(text.contains("\"event\":\"speculation\""), "{text}");
        assert!(text.contains("\"committed\":3,\"wasted\":2"), "{text}");
    }

    #[test]
    fn guess_retried_counter_stays_out_of_exact_counters() {
        let mut m = MetricsRecorder::new();
        m.guess_retried();
        m.guess_retried();
        assert_eq!(m.guesses_retried, 2);
        // Like the speculation counters, retries never touch the
        // exact-diff counters.
        assert_eq!(m.guesses, 0);
        assert_eq!(m.selections, 0);
        let mut sink = JsonlSink::new(Vec::new());
        sink.guess_retried();
        let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
        assert!(text.contains("\"event\":\"guess_retried\""), "{text}");
    }

    #[test]
    fn jsonl_sink_emits_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.guess_started(Some(2.5));
        sink.guess_started(None);
        sink.level_entered(0, 2);
        sink.set_selected(7, 3, 1.0);
        sink.benefit_computed(12);
        sink.candidate_pruned(PruneReason::CostBound);
        sink.subtree_pruned(PruneReason::BelowFloor);
        sink.posting_scanned(40);
        sink.heap_stale_pop();
        sink.phase_started("total");
        sink.phase_ended("total", 0.125);
        assert!(!sink.has_failed());
        let bytes = sink.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 11);
        for line in &lines {
            assert!(line.starts_with("{\"t\":"), "bad line: {line}");
            assert!(line.ends_with('}'), "bad line: {line}");
            assert!(line.contains("\"event\":\""), "bad line: {line}");
        }
        assert!(lines[0].contains("\"budget\":2.5"));
        assert!(lines[1].contains("\"budget\":null"));
        assert!(lines[3].contains("\"id\":7"));
        assert!(lines[3].contains("\"marginal_benefit\":3"));
        assert!(lines[3].contains("\"cost\":1.0"));
        assert!(lines[5].contains("\"reason\":\"cost_bound\""));
        assert!(lines[10].contains("\"seconds\":0.125"));
    }

    #[test]
    fn jsonl_sink_latches_write_errors() {
        struct Failing;
        impl io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::ErrorKind::Other.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Failing);
        sink.heap_stale_pop();
        assert!(sink.has_failed());
        sink.heap_stale_pop(); // silently dropped, no panic
    }

    #[test]
    fn json_f64_forms() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(3.0), "3.0");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn fanout_broadcasts() {
        let mut a = MetricsRecorder::new();
        let mut b = MetricsRecorder::new();
        {
            let mut fan = Fanout::new();
            fan.attach(&mut a).attach(&mut b);
            assert_eq!(fan.len(), 2);
            assert!(!fan.is_empty());
            fan.benefit_computed(4);
            fan.set_selected(0, 2, 1.0);
        }
        assert_eq!(a.benefits_computed, 4);
        assert_eq!(b.benefits_computed, 4);
        assert_eq!(a.selections, 1);
        assert_eq!(b.selections, 1);
    }

    #[test]
    fn noop_observer_accepts_everything() {
        let mut n = NoopObserver;
        n.guess_started(Some(1.0));
        n.level_entered(0, 1);
        n.set_selected(0, 0, 0.0);
        n.benefit_computed(1);
        n.candidate_pruned(PruneReason::Exhausted);
        n.subtree_pruned(PruneReason::CoverageBound);
        n.posting_scanned(1);
        n.heap_stale_pop();
        n.phase_started("x");
        n.phase_ended("x", 0.0);
    }

    #[test]
    fn phase_span_measures_nonnegative_time() {
        let mut m = MetricsRecorder::new();
        let span = PhaseSpan::enter(&mut m, PHASE_TOTAL);
        let secs = span.exit(&mut m);
        assert!(secs >= 0.0);
        assert!(m.phase_seconds(PHASE_TOTAL).is_some());
    }
}
