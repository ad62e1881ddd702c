//! Flight recorder: a fixed-capacity, lock-sharded ring buffer of recent
//! *enriched* events plus an incrementally maintained causal span tree —
//! the black box that gives every bad outcome a self-contained post-mortem
//! artifact (DESIGN.md §13).
//!
//! A [`FlightRecorder`] is an [`Observer`] front-end over shared state
//! (`Arc` inside), so it can be cloned: one clone rides in the solve's
//! observer stack (possibly on the engine's isolated solve thread) while
//! the caller keeps another to [`write_dump`](FlightRecorder::write_dump)
//! *after* a panic or deadline degrade — the recorded history survives the
//! unwinding because it lives behind the `Arc`, not in the poisoned stack
//! frame.
//!
//! Two kinds of state are kept:
//!
//! * **The ring** — the last `capacity` events, each stamped with a global
//!   sequence number, the recorder's monotonic clock, and its
//!   [`TraceContext`] (trace id, innermost span, parent span, worker).
//!   Rings are sharded by recording worker and each shard is its own
//!   mutex, so concurrent recorders contend only within a worker. When a
//!   shard fills, its oldest event is dropped and counted — a flight
//!   recorder by design remembers *what happened just before*, not
//!   everything.
//! * **The causal tree** — span open/close and worker-switch events are
//!   folded into a [`CausalNode`] tree as they arrive (bounded by the
//!   number of distinct span paths, not the event count), so the tree in
//!   the dump is complete even when the ring has wrapped. Worker subtrees
//!   attach under the span that was innermost on the main thread when the
//!   stream switched workers — the fork point — which is what turns a
//!   replayed multi-worker stream back into *which thread's work caused
//!   what*.
//!
//! Span ids are assigned in arrival order. The event stream's order is
//! deterministic, so ids are reproducible run-to-run for a
//! tick-deterministic solve.
//!
//! The dump format is line-oriented and *every* line is one valid JSON
//! object: a header, one line per buffered event, and a trailing
//! `{"causal_tree": …}` object — trivially greppable, trivially parseable.

use super::trace::{TraceContext, TraceId, MAIN_WORKER};
use super::{json_f64, Observer, PruneReason, PHASE_SCAN_PRUNE};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Ring shards; the recording worker id picks the shard, so workers
/// contend only with themselves (and with whoever holds the same id).
const SHARDS: usize = 8;

/// Default total event capacity across all shards.
const DEFAULT_CAPACITY: usize = 4096;

/// One recorded observer event (the payload half; context is alongside).
#[derive(Debug, Clone, PartialEq)]
enum EventKind {
    GuessStarted(Option<f64>),
    LevelEntered(usize, usize),
    SetSelected(u64, u64, f64),
    BenefitComputed(u64),
    CandidatePruned(PruneReason),
    SubtreePruned(PruneReason),
    PostingScanned(u64),
    HeapStalePop,
    Speculation(u64, u64),
    GuessRetried,
    TraceStarted(TraceId, &'static str),
    WorkerSwitched(u32),
    StallDetected(u64, f64),
    PhaseStarted(&'static str),
    PhaseEnded(&'static str, f64),
}

impl EventKind {
    /// Stable event name, matching [`JsonlSink`](super::JsonlSink)'s.
    fn name(&self) -> &'static str {
        match self {
            EventKind::GuessStarted(_) => "guess_started",
            EventKind::LevelEntered(..) => "level_entered",
            EventKind::SetSelected(..) => "set_selected",
            EventKind::BenefitComputed(_) => "benefit_computed",
            EventKind::CandidatePruned(_) => "candidate_pruned",
            EventKind::SubtreePruned(_) => "subtree_pruned",
            EventKind::PostingScanned(_) => "posting_scanned",
            EventKind::HeapStalePop => "heap_stale_pop",
            EventKind::Speculation(..) => "speculation",
            EventKind::GuessRetried => "guess_retried",
            EventKind::TraceStarted(..) => "trace_started",
            EventKind::WorkerSwitched(_) => "worker_switched",
            EventKind::StallDetected(..) => "stall_detected",
            EventKind::PhaseStarted(_) => "phase_started",
            EventKind::PhaseEnded(..) => "phase_ended",
        }
    }

    /// JSON fields beyond the envelope (empty or starting with a comma),
    /// same vocabulary as [`JsonlSink`](super::JsonlSink).
    fn fields(&self) -> String {
        match *self {
            EventKind::GuessStarted(budget) => {
                let b = match budget {
                    Some(v) => json_f64(v),
                    None => "null".to_owned(),
                };
                format!(",\"budget\":{b}")
            }
            EventKind::LevelEntered(level, allowance) => {
                format!(",\"level\":{level},\"allowance\":{allowance}")
            }
            EventKind::SetSelected(id, mben, cost) => format!(
                ",\"id\":{id},\"marginal_benefit\":{mben},\"cost\":{}",
                json_f64(cost)
            ),
            EventKind::BenefitComputed(count) => format!(",\"count\":{count}"),
            EventKind::CandidatePruned(reason) | EventKind::SubtreePruned(reason) => {
                format!(",\"reason\":\"{}\"", reason.as_str())
            }
            EventKind::PostingScanned(entries) => format!(",\"entries\":{entries}"),
            EventKind::HeapStalePop | EventKind::GuessRetried => String::new(),
            EventKind::Speculation(committed, wasted) => {
                format!(",\"committed\":{committed},\"wasted\":{wasted}")
            }
            EventKind::TraceStarted(id, entry) => {
                format!(",\"trace_id\":\"{id}\",\"entry\":\"{entry}\"")
            }
            EventKind::WorkerSwitched(worker) => format!(",\"worker_to\":{worker}"),
            EventKind::StallDetected(ticks, stalled_secs) => format!(
                ",\"ticks\":{ticks},\"stalled_secs\":{}",
                json_f64(stalled_secs)
            ),
            EventKind::PhaseStarted(name) => format!(",\"name\":\"{name}\""),
            EventKind::PhaseEnded(name, seconds) => {
                format!(",\"name\":\"{name}\",\"seconds\":{}", json_f64(seconds))
            }
        }
    }

    /// Whether this event counts toward a span's deterministic event tally
    /// (the basis of the Threads(1)/Threads(N) causal-tree parity check).
    /// Structural plumbing (spans, worker switches, trace minting) and
    /// parallel-/fault-only events (speculation, retries) are excluded,
    /// mirroring the exact-diff counter set.
    fn is_deterministic_work(&self) -> bool {
        matches!(
            self,
            EventKind::GuessStarted(_)
                | EventKind::LevelEntered(..)
                | EventKind::SetSelected(..)
                | EventKind::BenefitComputed(_)
                | EventKind::CandidatePruned(_)
                | EventKind::SubtreePruned(_)
                | EventKind::PostingScanned(_)
                | EventKind::HeapStalePop
        )
    }
}

/// One enriched event as stored in the ring.
#[derive(Debug, Clone)]
struct FlightEvent {
    seq: u64,
    t: f64,
    ctx: TraceContext,
    kind: EventKind,
}

impl FlightEvent {
    fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"t\":{},\"trace\":\"{}\",\"span\":{},\"parent\":{},\"worker\":{},\"event\":\"{}\"{}}}",
            self.seq,
            json_f64(self.t),
            self.ctx.trace_id,
            self.ctx.span_id,
            self.ctx.parent_span_id,
            self.ctx.worker_id,
            self.kind.name(),
            self.kind.fields()
        )
    }
}

/// Arena node of the incrementally built causal tree.
#[derive(Debug, Clone)]
struct Node {
    name: &'static str,
    span_id: u64,
    parent_span_id: u64,
    worker_id: u32,
    count: u64,
    events: u64,
    secs: f64,
    children: Vec<usize>,
}

/// Mutable causal-tracking state, updated on structural events only.
#[derive(Debug)]
struct CausalState {
    trace_id: TraceId,
    entry: &'static str,
    nodes: Vec<Node>,
    /// Open spans of the main thread, outermost first (arena indices).
    main_stack: Vec<usize>,
    /// Open spans of the currently replaying worker block.
    aux_stack: Vec<usize>,
    current_worker: u32,
    next_span_id: u64,
}

impl CausalState {
    fn new() -> CausalState {
        CausalState {
            trace_id: TraceId::default(),
            entry: "",
            nodes: vec![Node {
                name: "(run)",
                span_id: 0,
                parent_span_id: 0,
                worker_id: MAIN_WORKER,
                count: 0,
                events: 0,
                secs: 0.0,
                children: Vec::new(),
            }],
            main_stack: Vec::new(),
            aux_stack: Vec::new(),
            current_worker: MAIN_WORKER,
            next_span_id: 1,
        }
    }

    fn on_main(&self) -> bool {
        self.current_worker == MAIN_WORKER
    }

    /// Arena index of the innermost open span for the current worker: its
    /// own open spans first, then the main thread's (the fork point for a
    /// worker that has not opened anything yet), else the synthetic root.
    fn active_top(&self) -> usize {
        if !self.on_main() {
            if let Some(&idx) = self.aux_stack.last() {
                return idx;
            }
        }
        *self.main_stack.last().unwrap_or(&0)
    }

    /// The causal coordinates an arriving event carries.
    fn context(&self) -> TraceContext {
        let node = &self.nodes[self.active_top()];
        TraceContext {
            trace_id: self.trace_id,
            span_id: node.span_id,
            parent_span_id: node.parent_span_id,
            worker_id: self.current_worker,
        }
    }

    /// Child of `parent` named `name` (spans aggregate by name along the
    /// parent path, like [`SpanProfiler`](super::SpanProfiler)), created
    /// on first sight with a fresh arrival-ordered span id.
    fn child_idx(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(&idx) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return idx;
        }
        let span_id = self.next_span_id;
        self.next_span_id += 1;
        let idx = self.nodes.len();
        let parent_span_id = self.nodes[parent].span_id;
        self.nodes.push(Node {
            name,
            span_id,
            parent_span_id,
            worker_id: self.current_worker,
            count: 0,
            events: 0,
            secs: 0.0,
            children: Vec::new(),
        });
        self.nodes[parent].children.push(idx);
        idx
    }

    fn phase_started(&mut self, name: &'static str) {
        let parent = self.active_top();
        let idx = self.child_idx(parent, name);
        if self.on_main() {
            self.main_stack.push(idx);
        } else {
            self.aux_stack.push(idx);
        }
    }

    fn phase_ended(&mut self, name: &'static str, seconds: f64) {
        let stack = if self.on_main() {
            &mut self.main_stack
        } else {
            &mut self.aux_stack
        };
        // Innermost open span with this name; spans opened after it never
        // got their own end, so close them silently (profiler semantics).
        let Some(pos) = stack.iter().rposition(|&i| self.nodes[i].name == name) else {
            return;
        };
        stack.truncate(pos + 1);
        let idx = stack.pop().expect("pos is in range");
        self.nodes[idx].count += 1;
        self.nodes[idx].secs += seconds;
    }

    fn worker_switched(&mut self, worker_id: u32) {
        self.current_worker = worker_id;
        // Each worker block replays as a contiguous run with balanced
        // spans; any leftovers belong to the previous block.
        self.aux_stack.clear();
    }

    fn trace_started(&mut self, trace_id: TraceId, entry: &'static str) {
        // Latch the first mint: nested solves (a sweep's inner rounds)
        // announce their own ids, but the flight belongs to the outermost.
        if self.trace_id.is_unset() {
            self.trace_id = trace_id;
            self.entry = entry;
        }
    }

    fn assemble(&self, idx: usize) -> CausalNode {
        let n = &self.nodes[idx];
        CausalNode {
            name: n.name,
            span_id: n.span_id,
            parent_span_id: n.parent_span_id,
            worker_id: n.worker_id,
            count: n.count,
            events: n.events,
            secs: n.secs,
            children: n.children.iter().map(|&c| self.assemble(c)).collect(),
        }
    }

    /// The causal tree so far: the single top-level span when the run is
    /// that simple, otherwise the synthetic `(run)` root.
    fn tree(&self) -> CausalNode {
        let mut root = self.assemble(0);
        root.secs = root.children.iter().map(|c| c.secs).sum();
        if root.children.len() == 1 && root.events == 0 {
            root.children.pop().expect("one child")
        } else {
            root
        }
    }
}

/// One aggregated node of the reconstructed causal tree: all spans with
/// this name under the same parent path, annotated with the span id
/// assigned at first arrival, the worker that first opened it, and the
/// deterministic-work events attributed while it was innermost.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalNode {
    /// Span name ([`PHASE_TOTAL`](super::PHASE_TOTAL), …); `(run)` for the
    /// synthetic root.
    pub name: &'static str,
    /// Arrival-ordered span id (0 for the synthetic root).
    pub span_id: u64,
    /// The parent span's id (0 = root).
    pub parent_span_id: u64,
    /// Worker that first opened this span ([`MAIN_WORKER`] = caller).
    pub worker_id: u32,
    /// Completed spans aggregated into this node.
    pub count: u64,
    /// Deterministic work events attributed to this node (see
    /// DESIGN.md §13 for the counted subset).
    pub events: u64,
    /// Total wall-clock seconds across completions.
    pub secs: f64,
    /// Child spans in first-seen order.
    pub children: Vec<CausalNode>,
}

impl CausalNode {
    /// Finds a direct child by name.
    pub fn child(&self, name: &str) -> Option<&CausalNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Total deterministic-work events in this subtree.
    pub fn events_total(&self) -> u64 {
        self.events + self.children.iter().map(|c| c.events_total()).sum::<u64>()
    }

    /// The run-invariant shape of this tree, for comparing two runs of the
    /// same solve: [`PHASE_SCAN_PRUNE`] spans fold into their parent (they
    /// come and go with `SCWSC_PRUNE`; the exact path does the same work
    /// inline, without the span), worker ids and span ids are zeroed
    /// (assignment order differs when such spans consume ids), and timings
    /// are dropped. What remains — span names, nesting, counts, and
    /// deterministic event tallies — must be identical for `Threads(1)`
    /// and `Threads(N)` by the determinism contract (DESIGN.md §11).
    pub fn normalized(&self) -> CausalNode {
        let mut events = self.events;
        let mut children = Vec::new();
        for c in &self.children {
            let n = c.normalized();
            if n.name == PHASE_SCAN_PRUNE {
                // Fold: the exact path does this work inline.
                events += n.events;
                children.extend(n.children);
            } else {
                children.push(n);
            }
        }
        CausalNode {
            name: self.name,
            span_id: 0,
            parent_span_id: 0,
            worker_id: MAIN_WORKER,
            count: self.count,
            events,
            secs: 0.0,
            children,
        }
    }

    /// One JSON object (no trailing newline) describing this subtree.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"span\":{},\"parent\":{},\"worker\":{},\"count\":{},\"events\":{},\"secs\":{},\"children\":[",
            self.name,
            self.span_id,
            self.parent_span_id,
            self.worker_id,
            self.count,
            self.events,
            json_f64(self.secs)
        );
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.write_json(out);
        }
        out.push_str("]}");
    }

    /// Indented text rendering (one line per node) for human post-mortems.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let indent = "  ".repeat(depth);
        let _ = writeln!(
            out,
            "{indent}{} [span {} < {}] worker {}  ×{}  events={}  {:.6}s",
            self.name,
            self.span_id,
            self.parent_span_id,
            self.worker_id,
            self.count,
            self.events,
            self.secs,
        );
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

#[derive(Debug)]
struct Inner {
    shards: Vec<Mutex<VecDeque<FlightEvent>>>,
    per_shard_cap: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
    start: Instant,
    state: Mutex<CausalState>,
}

/// The flight recorder: a cloneable [`Observer`] over shared ring + causal
/// state. See the module docs for the recording model and dump format.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<Inner>,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// A recorder with the default event capacity.
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder holding at most `capacity` recent events (rounded up to
    /// a multiple of the shard count; minimum one event per shard).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let per_shard_cap = capacity.div_ceil(SHARDS).max(1);
        FlightRecorder {
            inner: Arc::new(Inner {
                shards: (0..SHARDS).map(|_| Mutex::new(VecDeque::new())).collect(),
                per_shard_cap,
                seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                start: Instant::now(),
                state: Mutex::new(CausalState::new()),
            }),
        }
    }

    /// Maximum events the ring can hold.
    pub fn capacity(&self) -> usize {
        self.inner.per_shard_cap * SHARDS
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().expect("flight shard poisoned").len())
            .sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// The latched trace id (the first [`Observer::trace_started`] seen;
    /// unset when no solve has announced itself yet).
    pub fn trace_id(&self) -> TraceId {
        self.state().trace_id
    }

    /// The latched entry-point name (empty until a trace starts).
    pub fn entry(&self) -> &'static str {
        self.state().entry
    }

    /// The causal span tree reconstructed so far. Complete even when the
    /// event ring has wrapped — the tree is maintained incrementally, not
    /// derived from the buffered window.
    pub fn causal_tree(&self) -> CausalNode {
        self.state().tree()
    }

    fn state(&self) -> std::sync::MutexGuard<'_, CausalState> {
        self.inner.state.lock().expect("flight state poisoned")
    }

    /// Records one event: stamp it with the current causal context and
    /// push it into the recording worker's ring shard.
    fn record(&self, ctx: TraceContext, kind: EventKind) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let t = self.inner.start.elapsed().as_secs_f64();
        let shard = ctx.worker_id as usize % SHARDS;
        let mut ring = self.inner.shards[shard]
            .lock()
            .expect("flight shard poisoned");
        if ring.len() == self.inner.per_shard_cap {
            ring.pop_front();
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(FlightEvent { seq, t, ctx, kind });
    }

    /// Records a pure data event: context read, no structural update.
    fn data(&self, kind: EventKind) {
        let ctx = {
            let mut state = self.state();
            if kind.is_deterministic_work() {
                let idx = state.active_top();
                state.nodes[idx].events += 1;
            }
            state.context()
        };
        self.record(ctx, kind);
    }

    /// Writes the dump: a JSON header line, every buffered event (in
    /// global sequence order) as one JSON line, and a final
    /// `{"causal_tree": …}` line. Every line is a valid JSON object.
    pub fn write_dump<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        let (tree, trace_id, entry) = {
            let state = self.state();
            (state.tree(), state.trace_id, state.entry)
        };
        let mut events: Vec<FlightEvent> = Vec::with_capacity(self.len());
        for shard in &self.inner.shards {
            events.extend(shard.lock().expect("flight shard poisoned").iter().cloned());
        }
        events.sort_by_key(|e| e.seq);
        writeln!(
            w,
            "{{\"flight\":\"scwsc\",\"version\":1,\"trace_id\":\"{trace_id}\",\"entry\":\"{entry}\",\"buffered\":{},\"dropped\":{},\"capacity\":{}}}",
            events.len(),
            self.dropped(),
            self.capacity()
        )?;
        for e in &events {
            writeln!(w, "{}", e.to_json())?;
        }
        writeln!(w, "{{\"causal_tree\":{}}}", tree.to_json())?;
        w.flush()
    }

    /// [`write_dump`](FlightRecorder::write_dump) to a file path.
    pub fn dump_to_path(&self, path: &std::path::Path) -> io::Result<()> {
        let mut file = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_dump(&mut file)
    }
}

impl Observer for FlightRecorder {
    fn guess_started(&mut self, budget: Option<f64>) {
        self.data(EventKind::GuessStarted(budget));
    }

    fn level_entered(&mut self, level: usize, allowance: usize) {
        self.data(EventKind::LevelEntered(level, allowance));
    }

    fn set_selected(&mut self, id: u64, marginal_benefit: u64, cost: f64) {
        self.data(EventKind::SetSelected(id, marginal_benefit, cost));
    }

    fn benefit_computed(&mut self, count: u64) {
        self.data(EventKind::BenefitComputed(count));
    }

    fn candidate_pruned(&mut self, reason: PruneReason) {
        self.data(EventKind::CandidatePruned(reason));
    }

    fn subtree_pruned(&mut self, reason: PruneReason) {
        self.data(EventKind::SubtreePruned(reason));
    }

    fn posting_scanned(&mut self, entries: u64) {
        self.data(EventKind::PostingScanned(entries));
    }

    fn heap_stale_pop(&mut self) {
        self.data(EventKind::HeapStalePop);
    }

    fn speculation(&mut self, committed: u64, wasted: u64) {
        self.data(EventKind::Speculation(committed, wasted));
    }

    fn guess_retried(&mut self) {
        self.data(EventKind::GuessRetried);
    }

    fn trace_started(&mut self, trace_id: TraceId, entry: &'static str) {
        let ctx = {
            let mut state = self.state();
            state.trace_started(trace_id, entry);
            state.context()
        };
        self.record(ctx, EventKind::TraceStarted(trace_id, entry));
    }

    fn worker_switched(&mut self, worker_id: u32) {
        let ctx = {
            let mut state = self.state();
            state.worker_switched(worker_id);
            state.context()
        };
        self.record(ctx, EventKind::WorkerSwitched(worker_id));
    }

    fn stall_detected(&mut self, ticks: u64, stalled_secs: f64) {
        self.data(EventKind::StallDetected(ticks, stalled_secs));
    }

    fn phase_started(&mut self, name: &'static str) {
        let ctx = {
            let mut state = self.state();
            state.phase_started(name);
            state.context()
        };
        self.record(ctx, EventKind::PhaseStarted(name));
    }

    fn phase_ended(&mut self, name: &'static str, seconds: f64) {
        let ctx = {
            let mut state = self.state();
            // Stamp the event with the span being closed, then close it.
            let ctx = state.context();
            state.phase_ended(name, seconds);
            ctx
        };
        self.record(ctx, EventKind::PhaseEnded(name, seconds));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{PHASE_GUESS, PHASE_TOTAL};

    /// Drives a little two-worker run through a recorder: a main-thread
    /// total>guess nest with a replayed two-worker pruned-scan region
    /// inside.
    fn recorded() -> FlightRecorder {
        let mut r = FlightRecorder::new();
        r.trace_started(TraceId::mint("cmc", 100, 7), "cmc");
        r.phase_started(PHASE_TOTAL);
        r.phase_started(PHASE_GUESS);
        r.benefit_computed(10);
        // Work recorded on workers 1 and 2 replays into the stream.
        r.worker_switched(1);
        r.phase_started(PHASE_SCAN_PRUNE);
        r.benefit_computed(4);
        r.phase_ended(PHASE_SCAN_PRUNE, 0.01);
        r.worker_switched(2);
        r.phase_started(PHASE_SCAN_PRUNE);
        r.benefit_computed(6);
        r.phase_ended(PHASE_SCAN_PRUNE, 0.02);
        r.worker_switched(MAIN_WORKER);
        r.set_selected(3, 5, 1.0);
        r.phase_ended(PHASE_GUESS, 0.5);
        r.phase_ended(PHASE_TOTAL, 0.6);
        r
    }

    #[test]
    fn causal_tree_attaches_worker_spans_at_fork_point() {
        let r = recorded();
        let tree = r.causal_tree();
        assert_eq!(tree.name, PHASE_TOTAL);
        assert_eq!(tree.worker_id, MAIN_WORKER);
        let guess = tree.child(PHASE_GUESS).expect("guess under total");
        // Both workers' chunks aggregate under the guess fork point.
        let scan = guess
            .child(PHASE_SCAN_PRUNE)
            .expect("scan_prune under guess");
        assert_eq!(scan.count, 2, "two chunk completions");
        assert_eq!(scan.events, 2, "one benefit event per chunk");
        assert_eq!(scan.worker_id, 1, "first opener");
        assert!(scan.secs > 0.0);
        // Main-thread events stayed on the guess span.
        assert_eq!(guess.events, 2, "benefit_computed(10) + set_selected");
        // Span ids are arrival-ordered and parents link up.
        assert_eq!(tree.span_id, 1);
        assert_eq!(guess.parent_span_id, tree.span_id);
        assert_eq!(scan.parent_span_id, guess.span_id);
    }

    #[test]
    fn trace_id_latches_first_mint() {
        let mut r = FlightRecorder::new();
        let first = TraceId::mint("pareto_sweep", 50, 3);
        r.trace_started(first, "pareto_sweep");
        r.trace_started(TraceId::mint("cwsc", 50, 3), "cwsc"); // nested solve
        assert_eq!(r.trace_id(), first);
        assert_eq!(r.entry(), "pareto_sweep");
    }

    #[test]
    fn normalized_folds_scans_and_strips_volatile_fields() {
        let parallel = recorded().causal_tree().normalized();
        // The exact twin: same work, no scan spans, no worker switches.
        let mut serial = FlightRecorder::new();
        serial.trace_started(TraceId::mint("cmc", 100, 7), "cmc");
        serial.phase_started(PHASE_TOTAL);
        serial.phase_started(PHASE_GUESS);
        serial.benefit_computed(10);
        serial.benefit_computed(4);
        serial.benefit_computed(6);
        serial.set_selected(3, 5, 1.0);
        serial.phase_ended(PHASE_GUESS, 0.4);
        serial.phase_ended(PHASE_TOTAL, 0.45);
        let expected = serial.causal_tree().normalized();
        // Folding the scan chunks into their parent makes the pruned,
        // multi-worker tree *identical* to the exact one: same names, same
        // nesting, same completion counts, same event tallies, all
        // volatile coordinates (ids, workers, timings) stripped.
        assert_eq!(parallel, expected);
        assert_eq!(parallel.secs, 0.0);
        assert_eq!(parallel.worker_id, MAIN_WORKER);
        assert_eq!(parallel.span_id, 0);
        assert_eq!(parallel.events_total(), 4, "all four work events kept");
        assert!(
            parallel.child(PHASE_GUESS).unwrap().children.is_empty(),
            "no scan children survive"
        );
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let mut r = FlightRecorder::with_capacity(8); // 1 per shard
        assert_eq!(r.capacity(), 8);
        assert!(r.is_empty());
        for i in 0..5 {
            r.benefit_computed(i); // all main worker → one shard
        }
        assert_eq!(r.len(), 1, "single shard holds one event");
        assert_eq!(r.dropped(), 4);
    }

    #[test]
    fn dump_is_all_json_lines_with_header_and_tree() {
        let r = recorded();
        let mut buf = Vec::new();
        r.write_dump(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "{text}");
        for line in &lines {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "not a JSON object: {line}"
            );
        }
        assert!(lines[0].contains("\"flight\":\"scwsc\""), "{text}");
        assert!(lines[0].contains("\"entry\":\"cmc\""), "{text}");
        assert!(lines.last().unwrap().contains("\"causal_tree\":"), "{text}");
        // Events carry their causal coordinates and appear in seq order.
        let seqs: Vec<u64> = lines[1..lines.len() - 1]
            .iter()
            .map(|l| {
                let start = l.find("\"seq\":").unwrap() + 6;
                l[start..l[start..].find(',').unwrap() + start]
                    .parse()
                    .unwrap()
            })
            .collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "events in global sequence order");
        assert!(text.contains("\"event\":\"worker_switched\""), "{text}");
        assert!(text.contains("\"worker\":1"), "{text}");
    }

    #[test]
    fn clones_share_the_recording() {
        let mut writer = FlightRecorder::new();
        let reader = writer.clone();
        writer.trace_started(TraceId::mint("cwsc", 1, 2), "cwsc");
        writer.phase_started(PHASE_TOTAL);
        writer.benefit_computed(1);
        writer.phase_ended(PHASE_TOTAL, 0.1);
        assert_eq!(reader.trace_id(), TraceId::mint("cwsc", 1, 2));
        assert_eq!(reader.causal_tree().name, PHASE_TOTAL);
        assert_eq!(reader.len(), writer.len());
    }
}
