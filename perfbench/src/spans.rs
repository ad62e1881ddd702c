//! Benchmark-side spans: one record per public call the benchmark times.
//!
//! Each span has a name, a start and an end (microseconds since the
//! tracer was created), the index of the span that caused it, and the
//! id of the query or request it belongs to. Spans stay in memory and
//! are written as JSON lines when the run ends.

use scwsc_core::json::Json;
use std::time::Instant;

/// Handle to an open span (its index in the tracer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

struct Span {
    name: String,
    id: u64,
    parent: Option<SpanId>,
    start_us: f64,
    end_us: Option<f64>,
}

/// In-memory span store. A disabled tracer records nothing, so untraced
/// runs pay one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span named `name` for query/request `id`.
    pub fn open(&mut self, name: &str, id: u64, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            id,
            parent,
            start_us,
            end_us: None,
        });
        Some(SpanId(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, span: Option<SpanId>) {
        if let Some(SpanId(i)) = span {
            let end = self.now_us();
            self.spans[i].end_us = Some(end);
        }
    }

    /// Records an already-measured interval, given as instants.
    pub fn record(
        &mut self,
        name: &str,
        id: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.to_string(),
            id,
            parent,
            start_us: at(start),
            end_us: Some(at(end)),
        });
        Some(SpanId(self.spans.len() - 1))
    }

    /// The spans as JSON lines, one object per span, in open order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or(Json::Null, |SpanId(p)| Json::from_u64(p as u64));
            let line = Json::Obj(vec![
                ("span".into(), Json::from_u64(i as u64)),
                ("parent".into(), parent),
                ("id".into(), Json::from_u64(s.id)),
                ("name".into(), Json::Str(s.name.clone())),
                ("start_us".into(), Json::Num(s.start_us)),
                ("end_us".into(), s.end_us.map_or(Json::Null, Json::Num)),
            ]);
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        out
    }
}
