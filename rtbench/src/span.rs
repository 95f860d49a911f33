//! Spans: who called which layer, from when to when, on behalf of which
//! request.
//!
//! The benchmark's wrappers open a span around every call into a layer.
//! Spans sit in a buffer sized before the run (recording never allocates, so
//! the allocation counts taken around the same calls stay clean) and are
//! summarised, and optionally written out, when the run has ended.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Value;
use crate::stats::percentile;

/// Marks a span with no parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.module.operation`, e.g. `core.manager.request`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: u32,
    /// The request (churn arrival, establishment, phase) this span served.
    pub request: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct Buffer {
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the spans still open, innermost last.
    open: Vec<u32>,
    recording: bool,
    request: u32,
    /// Spans that did not fit the buffer.
    dropped: u64,
}

/// A handle on the span buffer, cloned into each wrapper.  The router trait
/// demands `Send + Sync` of its implementors, hence the mutex; the load is
/// one thread, so it is never contended.
#[derive(Debug, Clone)]
pub struct Tracer {
    buffer: Arc<Mutex<Buffer>>,
}

/// An open span; close it with [`Tracer::exit`].  `None` while the tracer is
/// not recording.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

impl Tracer {
    /// A tracer with room for `capacity` spans, recording from the start.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            buffer: Arc::new(Mutex::new(Buffer {
                origin: Instant::now(),
                spans: Vec::with_capacity(capacity),
                open: Vec::with_capacity(16),
                recording: true,
                request: 0,
                dropped: 0,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Buffer> {
        // A panic while the lock is held ends the benchmark anyway.
        self.buffer
            .lock()
            .expect("the span buffer lock is never poisoned")
    }

    /// Stop or resume recording.  Spans already open stay open.
    pub fn set_recording(&self, on: bool) {
        self.lock().recording = on;
    }

    /// Spans opened from now on belong to the next request.
    pub fn next_request(&self) {
        self.lock().request += 1;
    }

    /// Nanoseconds since the tracer was made — the clock spans are stamped
    /// with.
    pub fn now_ns(&self) -> u64 {
        self.lock().origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&self, name: &'static str) -> Open {
        let mut buffer = self.lock();
        if !buffer.recording {
            return Open(None);
        }
        if buffer.spans.len() == buffer.spans.capacity() {
            buffer.dropped += 1;
            return Open(None);
        }
        let index = buffer.spans.len() as u32;
        let parent = buffer.open.last().copied().unwrap_or(NO_PARENT);
        let request = buffer.request;
        buffer.open.push(index);
        // The clock is read last, so the span does not cover its own
        // book-keeping.
        let start_ns = buffer.origin.elapsed().as_nanos() as u64;
        buffer.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        Open(Some(index))
    }

    pub fn exit(&self, open: Open) {
        let Open(Some(index)) = open else { return };
        let mut buffer = self.lock();
        let end_ns = buffer.origin.elapsed().as_nanos() as u64;
        buffer.spans[index as usize].end_ns = end_ns;
        // Wrappers close spans in the reverse of the order they opened them.
        let popped = buffer.open.pop();
        debug_assert_eq!(popped, Some(index));
    }

    /// Rename a closed or open span — how a call that turned out to rebuild
    /// a routing table is told apart from one that did not.
    pub fn rename(&self, open: Open, name: &'static str) {
        if let Open(Some(index)) = open {
            self.lock().spans[index as usize].name = name;
        }
    }

    /// Take the recorded spans, and say how many did not fit.  The buffer is
    /// left without room: a span entered afterwards is counted as dropped.
    pub fn finish(&self) -> (Vec<Span>, u64) {
        let mut buffer = self.lock();
        (std::mem::take(&mut buffer.spans), buffer.dropped)
    }
}

/// Time each span spent in its own layer: its duration minus the part its
/// child spans cover.  The load is one thread, so the children of a span
/// never overlap and their durations add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let parent = &mut own[span.parent as usize];
            *parent = parent.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// What the spans of one name add up to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Ascending durations.
    pub durations: Vec<u64>,
    /// Ascending self times.
    pub selfs: Vec<u64>,
}

impl NameStats {
    pub fn self_p50(&self) -> u64 {
        percentile(&self.selfs, 0.50)
    }

    pub fn self_p99(&self) -> u64 {
        percentile(&self.selfs, 0.99)
    }

    pub fn duration_p50(&self) -> u64 {
        percentile(&self.durations, 0.50)
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("count", Value::count(self.count)),
            ("total_ns", Value::count(self.total_ns)),
            ("self_ns", Value::count(self.self_ns)),
            ("p50_ns", Value::count(self.duration_p50())),
            ("p99_ns", Value::count(percentile(&self.durations, 0.99))),
            ("self_p50_ns", Value::count(self.self_p50())),
            ("self_p99_ns", Value::count(self.self_p99())),
        ])
    }
}

/// The spans of a run, summed by name.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    pub by_name: BTreeMap<&'static str, NameStats>,
    /// Duration of the spans without a parent: the time the traced layers
    /// cover.  The rest of the window belongs to whoever drove them.
    pub covered_ns: u64,
}

impl Profile {
    pub fn of(spans: &[Span]) -> Profile {
        let own = self_times(spans);
        let mut profile = Profile::default();
        for (span, own) in spans.iter().zip(own) {
            let stats = profile.by_name.entry(span.name).or_default();
            stats.count += 1;
            stats.total_ns += span.duration_ns();
            stats.self_ns += own;
            stats.durations.push(span.duration_ns());
            stats.selfs.push(own);
            if span.parent == NO_PARENT {
                profile.covered_ns += span.duration_ns();
            }
        }
        for stats in profile.by_name.values_mut() {
            stats.durations.sort_unstable();
            stats.selfs.sort_unstable();
        }
        profile
    }

    /// The stats of one name; all zeros if no such span was recorded.
    pub fn get(&self, name: &str) -> &NameStats {
        static NONE: NameStats = NameStats {
            count: 0,
            total_ns: 0,
            self_ns: 0,
            durations: Vec::new(),
            selfs: Vec::new(),
        };
        self.by_name.get(name).unwrap_or(&NONE)
    }

    /// The median duration over the spans of all of `names` together.
    pub fn duration_p50_of(&self, names: &[&str]) -> u64 {
        let mut durations: Vec<u64> = names
            .iter()
            .filter_map(|name| self.by_name.get(name))
            .flat_map(|stats| stats.durations.iter().copied())
            .collect();
        durations.sort_unstable();
        percentile(&durations, 0.50)
    }

    /// Count, self time and total time summed over the names with `prefix`.
    pub fn sum(&self, prefix: &str) -> (u64, u64, u64) {
        self.by_name
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .fold((0, 0, 0), |(count, own, total), (_, s)| {
                (count + s.count, own + s.self_ns, total + s.total_ns)
            })
    }

    pub fn to_json(&self) -> Value {
        Value::Obj(
            self.by_name
                .iter()
                .map(|(name, stats)| (name.to_string(), stats.to_json()))
                .collect(),
        )
    }
}

/// One span of `workload` as a line of `rtbench-trace.jsonl`.
pub fn span_line(workload: &str, index: usize, span: &Span) -> String {
    Value::obj([
        ("workload", Value::str(workload)),
        ("span", Value::count(index as u64)),
        ("name", Value::str(span.name)),
        ("start_ns", Value::count(span.start_ns)),
        ("end_ns", Value::count(span.end_ns)),
        (
            "parent",
            if span.parent == NO_PARENT {
                Value::Null
            } else {
                Value::count(u64::from(span.parent))
            },
        ),
        ("request", Value::count(u64::from(span.request))),
    ])
    .to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span("a.outer", 0, 100, NO_PARENT),   // 0
            span("b.child", 10, 30, 0),           // 1: first child
            span("b.child", 30, 50, 0),           // 2: adjacent second child
            span("c.grandchild", 35, 45, 2),      // 3: nested in the second
            span("a.outer", 200, 260, NO_PARENT), // 4: a sibling at the top
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10, 60]);

        let profile = Profile::of(&spans);
        // Self times add up to the time the top-level spans cover.
        assert_eq!(profile.covered_ns, 160);
        assert_eq!(
            profile.by_name.values().map(|s| s.self_ns).sum::<u64>(),
            160
        );
        let outer = profile.get("a.outer");
        assert_eq!((outer.count, outer.total_ns, outer.self_ns), (2, 160, 120));
        assert_eq!(outer.self_p50(), 60);
        let child = profile.get("b.child");
        assert_eq!((child.count, child.total_ns, child.self_ns), (2, 40, 30));
        assert_eq!(child.selfs, vec![10, 20]);
        assert_eq!(profile.sum("b."), (2, 30, 40));
        assert_eq!(profile.duration_p50_of(&["b.child", "c.grandchild"]), 20);
        assert_eq!(profile.duration_p50_of(&["missing"]), 0);
        assert_eq!(profile.get("missing"), &NameStats::default());
    }

    #[test]
    fn tracer_links_parents_requests_and_respects_its_capacity() {
        let tracer = Tracer::new(3);
        let outer = tracer.enter("a.outer");
        let inner = tracer.enter("b.inner");
        tracer.rename(inner, "b.renamed");
        tracer.exit(inner);
        tracer.exit(outer);
        tracer.next_request();
        let second = tracer.enter("a.outer");
        tracer.exit(second);
        // The buffer is full: the next span is counted, not stored.
        let lost = tracer.enter("a.outer");
        tracer.exit(lost);
        tracer.set_recording(false);
        let skipped = tracer.enter("a.outer");
        tracer.exit(skipped);

        let (spans, dropped) = tracer.finish();
        assert_eq!(dropped, 1);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[1].name, spans[1].parent), ("b.renamed", 0));
        assert_eq!((spans[2].parent, spans[2].request), (NO_PARENT, 1));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert!(span_line("w", 1, &spans[1]).contains("\"parent\": 0"));
        assert!(span_line("w", 0, &spans[0]).starts_with("{\"workload\": \"w\", \"span\": 0, "));
        assert!(span_line("w", 0, &spans[0]).contains("\"parent\": null"));
    }
}
