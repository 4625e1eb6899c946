//! Harness-side spans. Each span is recorded by the benchmark around one
//! call into a layer's public API — nothing inside the program is
//! instrumented. Spans stay in memory and are written out once, after
//! the timed window.
//!
//! The layers nest as `server ⊃ engine ⊃ codegen ⊃ runtime`, but a
//! harness outside the program cannot open a span in the middle of a
//! call it does not own. A traced request therefore *replays* the same
//! work one layer further in each time (`Client::execute`, then
//! `PreparedQuery::execute_bound`, then `Executable::run_bound`, then
//! `Database::read_all`) and links the replays parent → child. A layer's
//! self time is its span's duration minus its children's durations.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

pub type SpanId = u64;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    /// Shared by every span of one request.
    pub request: u64,
    pub name: &'static str,
    pub start_ms: f64,
    pub end_ms: f64,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// One thread's span recorder; merge the `spans` of all lanes at exit.
pub struct Tracer {
    epoch: Instant,
    lane: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `epoch` is shared by all lanes so their timelines line up.
    pub fn new(epoch: Instant, lane: u64) -> Tracer {
        Tracer {
            epoch,
            lane,
            spans: Vec::new(),
        }
    }

    /// Time `f` as one span; returns its result, the span id (to parent
    /// the next replay under) and the duration in milliseconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.record(name, request, parent, start, end);
        (out, id, (end - start).as_secs_f64() * 1e3)
    }

    /// Record a span whose endpoints were taken by the caller (a request
    /// that brackets several timed calls).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = (self.lane << 40) | self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ms: (start - self.epoch).as_secs_f64() * 1e3,
            end_ms: (end - self.epoch).as_secs_f64() * 1e3,
        });
        id
    }
}

/// Self time per span: its duration minus the durations of the spans
/// that name it as parent. Not clamped — a negative value means the
/// replayed child ran slower than the call that contains its work, which
/// is measurement noise worth seeing, not hiding.
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, f64> {
    let mut own: BTreeMap<SpanId, f64> = spans.iter().map(|s| (s.id, s.duration_ms())).collect();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| own.get_mut(&p)) {
            *p -= s.duration_ms();
        }
    }
    own
}

/// Self-time samples grouped by span name, for per-layer medians.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let own = self_times(spans);
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name.entry(s.name).or_default().push(own[&s.id]);
    }
    by_name
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj()
                    .with("id", s.id)
                    .with("parent", s.parent.map_or(Json::Null, Json::from))
                    .with("request", s.request)
                    .with("name", s.name)
                    .with("start_ms", s.start_ms)
                    .with("end_ms", s.end_ms)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, ms: f64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ms: 0.0,
            end_ms: ms,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // server 10 ⊃ engine 8 ⊃ codegen 7 ⊃ runtime 5
        let spans = [
            span(1, None, "server", 10.0),
            span(2, Some(1), "engine", 8.0),
            span(3, Some(2), "codegen", 7.0),
            span(4, Some(3), "runtime", 5.0),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 2.0);
        assert_eq!(own[&2], 1.0);
        assert_eq!(own[&3], 2.0);
        assert_eq!(own[&4], 5.0);
        // Self times of one request add back up to the root's duration.
        assert_eq!(own.values().sum::<f64>(), 10.0);
    }

    #[test]
    fn self_time_with_siblings_and_noise() {
        let spans = [
            span(1, None, "request", 10.0),
            span(2, Some(1), "prepare", 4.0),
            span(3, Some(1), "execute", 5.0),
            // A replay that ran slower than its container goes negative.
            span(4, Some(2), "engine", 4.5),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 1.0);
        assert_eq!(own[&2], -0.5);
        let by = self_ms_by_name(&spans);
        assert_eq!(by["execute"], vec![5.0]);
    }

    #[test]
    fn tracer_links_replays() {
        let mut t = Tracer::new(Instant::now(), 3);
        let (v, root, _) = t.span("server", 9, None, || 41 + 1);
        let (_, child, ms) = t.span("engine", 9, Some(root), || ());
        assert_eq!(v, 42);
        assert_ne!(root, child);
        assert_eq!(t.spans[1].parent, Some(root));
        assert!(ms >= 0.0 && t.spans.iter().all(|s| s.request == 9));
        assert_eq!(root >> 40, 3);
    }
}
