//! Record-then-replay event logs.
//!
//! [`EventLog`] is an [`Observer`] that records every event verbatim;
//! [`EventLog::replay`] re-emits the stream into any other observer. Two
//! callers rely on it (DESIGN.md §11/§12):
//!
//! * panic containment ([`contain_panics`](crate::engine::contain_panics))
//!   records each attempt privately and replays it only when the attempt
//!   returns normally, so a panicked attempt leaves no events behind;
//! * the pooled λ sweep and bench harness record one log per independent
//!   task and replay the logs **in a deterministic order** (ascending λ
//!   index, …), so the caller's observer sees a stream *identical* to a
//!   serial run — for any observer type, including order-sensitive ones
//!   like [`JsonlSink`](super::JsonlSink) and
//!   [`SpanProfiler`](super::SpanProfiler).

use super::audit::AuditCandidate;
use super::trace::TraceId;
use super::{Observer, PruneReason};

/// One recorded [`Observer`] event. Phase names stay `&'static str`
/// because the trait only ever passes static span names.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    GuessStarted(Option<f64>),
    LevelEntered(usize, usize),
    SetSelected(u64, u64, f64),
    BenefitComputed(u64),
    CandidatePruned(PruneReason),
    SubtreePruned(PruneReason),
    PostingScanned(u64),
    HeapStalePop,
    RoundDecided(&'static str, AuditCandidate, Vec<AuditCandidate>),
    PriceCharged(u64, Vec<u32>, f64),
    DegradeDecided(&'static str, u64, u64),
    Speculation(u64, u64),
    GuessRetried,
    TraceStarted(TraceId, &'static str),
    WorkerSwitched(u32),
    PhaseStarted(&'static str),
    PhaseEnded(&'static str, f64),
    ScanPruned(u64),
    BoundRefreshed(u64),
    SketchInconclusive(u64),
    StallDetected(u64, f64),
}

/// An [`Observer`] that records the event stream for later replay.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drops all recorded events, keeping capacity.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Re-emits every recorded event, in recording order, into `obs`.
    pub fn replay<O: Observer + ?Sized>(&self, obs: &mut O) {
        for e in &self.events {
            match *e {
                Event::GuessStarted(budget) => obs.guess_started(budget),
                Event::LevelEntered(level, allowance) => obs.level_entered(level, allowance),
                Event::SetSelected(id, mben, cost) => obs.set_selected(id, mben, cost),
                Event::BenefitComputed(count) => obs.benefit_computed(count),
                Event::CandidatePruned(reason) => obs.candidate_pruned(reason),
                Event::SubtreePruned(reason) => obs.subtree_pruned(reason),
                Event::PostingScanned(entries) => obs.posting_scanned(entries),
                Event::HeapStalePop => obs.heap_stale_pop(),
                Event::RoundDecided(order, ref winner, ref runners) => {
                    obs.round_decided(order, winner, runners)
                }
                Event::PriceCharged(set_id, ref elements, cost) => {
                    obs.price_charged(set_id, elements, cost)
                }
                Event::DegradeDecided(reason, covered, target) => {
                    obs.degrade_decided(reason, covered, target)
                }
                Event::Speculation(committed, wasted) => obs.speculation(committed, wasted),
                Event::GuessRetried => obs.guess_retried(),
                Event::TraceStarted(id, entry) => obs.trace_started(id, entry),
                Event::WorkerSwitched(worker) => obs.worker_switched(worker),
                Event::PhaseStarted(name) => obs.phase_started(name),
                Event::PhaseEnded(name, seconds) => obs.phase_ended(name, seconds),
                Event::ScanPruned(count) => obs.scan_pruned(count),
                Event::BoundRefreshed(count) => obs.bound_refreshed(count),
                Event::SketchInconclusive(count) => obs.sketch_inconclusive(count),
                Event::StallDetected(ticks, stalled_secs) => {
                    obs.stall_detected(ticks, stalled_secs)
                }
            }
        }
    }
}

impl Observer for EventLog {
    fn guess_started(&mut self, budget: Option<f64>) {
        self.events.push(Event::GuessStarted(budget));
    }

    fn level_entered(&mut self, level: usize, allowance: usize) {
        self.events.push(Event::LevelEntered(level, allowance));
    }

    fn set_selected(&mut self, id: u64, marginal_benefit: u64, cost: f64) {
        self.events
            .push(Event::SetSelected(id, marginal_benefit, cost));
    }

    fn benefit_computed(&mut self, count: u64) {
        self.events.push(Event::BenefitComputed(count));
    }

    fn candidate_pruned(&mut self, reason: PruneReason) {
        self.events.push(Event::CandidatePruned(reason));
    }

    fn subtree_pruned(&mut self, reason: PruneReason) {
        self.events.push(Event::SubtreePruned(reason));
    }

    fn posting_scanned(&mut self, entries: u64) {
        self.events.push(Event::PostingScanned(entries));
    }

    fn heap_stale_pop(&mut self) {
        self.events.push(Event::HeapStalePop);
    }

    fn round_decided(
        &mut self,
        order: &'static str,
        winner: &AuditCandidate,
        runners_up: &[AuditCandidate],
    ) {
        self.events
            .push(Event::RoundDecided(order, *winner, runners_up.to_vec()));
    }

    fn price_charged(&mut self, set_id: u64, elements: &[u32], cost: f64) {
        self.events
            .push(Event::PriceCharged(set_id, elements.to_vec(), cost));
    }

    fn degrade_decided(&mut self, reason: &'static str, covered: u64, target: u64) {
        self.events
            .push(Event::DegradeDecided(reason, covered, target));
    }

    fn speculation(&mut self, committed: u64, wasted: u64) {
        self.events.push(Event::Speculation(committed, wasted));
    }

    fn guess_retried(&mut self) {
        self.events.push(Event::GuessRetried);
    }

    fn trace_started(&mut self, trace_id: TraceId, entry: &'static str) {
        self.events.push(Event::TraceStarted(trace_id, entry));
    }

    fn worker_switched(&mut self, worker_id: u32) {
        self.events.push(Event::WorkerSwitched(worker_id));
    }

    fn phase_started(&mut self, name: &'static str) {
        self.events.push(Event::PhaseStarted(name));
    }

    fn phase_ended(&mut self, name: &'static str, seconds: f64) {
        self.events.push(Event::PhaseEnded(name, seconds));
    }

    fn scan_pruned(&mut self, count: u64) {
        self.events.push(Event::ScanPruned(count));
    }

    fn bound_refreshed(&mut self, count: u64) {
        self.events.push(Event::BoundRefreshed(count));
    }

    fn sketch_inconclusive(&mut self, count: u64) {
        self.events.push(Event::SketchInconclusive(count));
    }

    fn stall_detected(&mut self, ticks: u64, stalled_secs: f64) {
        self.events.push(Event::StallDetected(ticks, stalled_secs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{MetricsRecorder, SpanProfiler, PHASE_TOTAL};

    /// Fires one of every event into `obs`.
    fn drive<O: Observer + ?Sized>(obs: &mut O) {
        obs.guess_started(Some(2.0));
        obs.level_entered(0, 4);
        obs.phase_started(PHASE_TOTAL);
        obs.benefit_computed(9);
        obs.candidate_pruned(PruneReason::BelowFloor);
        obs.subtree_pruned(PruneReason::CostBound);
        obs.posting_scanned(17);
        obs.heap_stale_pop();
        let winner = AuditCandidate {
            id: 3,
            benefit: 5,
            weight: 1.5,
        };
        let runner = AuditCandidate {
            id: 1,
            benefit: 2,
            weight: 1.0,
        };
        obs.round_decided("gain", &winner, &[runner]);
        obs.set_selected(3, 5, 1.5);
        obs.price_charged(3, &[0, 4, 7], 1.5);
        obs.degrade_decided("tick_budget", 3, 9);
        obs.speculation(2, 1);
        obs.guess_retried();
        obs.phase_ended(PHASE_TOTAL, 0.5);
    }

    #[test]
    fn replay_reproduces_metrics_exactly() {
        let mut log = EventLog::new();
        drive(&mut log);
        assert_eq!(log.len(), 15);

        let mut direct = MetricsRecorder::new();
        drive(&mut direct);
        let mut replayed = MetricsRecorder::new();
        log.replay(&mut replayed);

        assert_eq!(replayed.guesses, direct.guesses);
        assert_eq!(replayed.selections, direct.selections);
        assert_eq!(replayed.benefits_computed, direct.benefits_computed);
        assert_eq!(replayed.candidates_pruned, direct.candidates_pruned);
        assert_eq!(replayed.subtrees_pruned, direct.subtrees_pruned);
        assert_eq!(replayed.postings_scanned, direct.postings_scanned);
        assert_eq!(replayed.heap_stale_pops, direct.heap_stale_pops);
        assert_eq!(replayed.guesses_committed, direct.guesses_committed);
        assert_eq!(replayed.guesses_wasted, direct.guesses_wasted);
        assert_eq!(replayed.guesses_retried, direct.guesses_retried);
        assert_eq!(replayed.rounds_audited, direct.rounds_audited);
        assert_eq!(replayed.marginal_benefit_hist, direct.marginal_benefit_hist);
        assert_eq!(replayed.phases(), direct.phases());
    }

    #[test]
    fn replay_reproduces_audit_ledger_exactly() {
        use crate::telemetry::audit::DecisionLedger;
        let mut log = EventLog::new();
        drive(&mut log);
        let mut direct = DecisionLedger::new();
        drive(&mut direct);
        let mut replayed = DecisionLedger::new();
        log.replay(&mut replayed);
        assert_eq!(direct.guesses(), replayed.guesses());
        assert_eq!(direct.prices(), replayed.prices());
    }

    #[test]
    fn replay_preserves_event_order_for_span_nesting() {
        // A log with nested spans must reconstruct the same tree when
        // replayed into a profiler as when observed live.
        let mut log = EventLog::new();
        log.phase_started("outer");
        log.phase_started("inner");
        log.benefit_computed(4);
        log.phase_ended("inner", 0.25);
        log.phase_ended("outer", 1.0);

        let mut p = SpanProfiler::new();
        log.replay(&mut p);
        let tree = p.tree();
        assert_eq!(tree.name, "outer");
        let inner = tree.child("inner").expect("nesting preserved");
        assert_eq!(inner.counters.benefits_computed, 4);
        assert_eq!(inner.total_secs, 0.25);
    }

    #[test]
    fn clear_empties_the_log() {
        let mut log = EventLog::new();
        assert!(log.is_empty());
        log.heap_stale_pop();
        assert!(!log.is_empty());
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn replay_reproduces_trace_events() {
        let mut log = EventLog::new();
        let id = crate::telemetry::TraceId::mint("cmc", 10, 20);
        log.trace_started(id, "cmc");
        log.worker_switched(3);
        let mut m = MetricsRecorder::new();
        log.replay(&mut m);
        assert_eq!(m.traces_started, 1);
        assert_eq!(m.worker_switches, 1);
    }

    #[test]
    fn replay_reproduces_pruned_scan_advisories() {
        let mut log = EventLog::new();
        log.scan_pruned(11);
        log.bound_refreshed(5);
        log.sketch_inconclusive(2);
        log.scan_pruned(4);
        let mut m = MetricsRecorder::new();
        log.replay(&mut m);
        assert_eq!(m.scan_candidates_pruned, 15);
        assert_eq!(m.scan_bounds_refreshed, 5);
        assert_eq!(m.scan_sketch_inconclusive, 2);
    }
}
