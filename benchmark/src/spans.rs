//! The harness's own spans: one per stage and per call into a layer,
//! recorded from outside the program, kept in memory, written once at
//! exit (traced mode only).

use flexdist_json::{object, Value};
use std::time::Instant;

/// One closed or open span. `parent` is the span that was open when
/// this one began; `calls` is how many back-to-back calls the span
/// covers (cheap stages are timed in batches).
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
    calls: u32,
}

/// Handle returned by [`Recorder::begin`]; give it back to
/// [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(usize);

/// In-memory span log with a parent stack. All spans of one process
/// share one trace id (the workload name).
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Recorder {
    /// Seconds since the recorder was created.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start,
            end: start,
            calls: 1,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Close a span and return its duration in seconds.
    ///
    /// # Panics
    /// Panics when spans are closed out of order (a harness bug).
    pub fn end(&mut self, open: Open) -> f64 {
        self.end_calls(open, 1)
    }

    /// Close a span that covered `calls` back-to-back calls; returns the
    /// whole duration.
    pub fn end_calls(&mut self, open: Open, calls: u32) -> f64 {
        let end = self.now();
        assert_eq!(self.stack.pop(), Some(open.0), "spans closed out of order");
        let span = &mut self.spans[open.0];
        span.end = end;
        span.calls = calls;
        end - span.start
    }

    /// Time one call into a layer.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// Time `f` repeatedly until the batch has run for `min_seconds`
    /// (at least once): one span, the last result, seconds per call.
    pub fn time_batch<T>(
        &mut self,
        name: &'static str,
        min_seconds: f64,
        mut f: impl FnMut() -> T,
    ) -> (T, f64) {
        let open = self.begin(name);
        let mut calls = 0u32;
        loop {
            let out = std::hint::black_box(f());
            calls += 1;
            if self.now() - self.spans[open.0].start >= min_seconds {
                let total = self.end_calls(open, calls);
                return (out, total / f64::from(calls));
            }
        }
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        own
    }

    /// The span document: every span with its id, parent, name, start,
    /// end, call count and self time.
    #[must_use]
    pub fn to_json(&self, trace_id: &str) -> Value {
        let own = self.self_times();
        let spans = self
            .spans
            .iter()
            .zip(own)
            .enumerate()
            .map(|(id, (s, self_s))| {
                object(vec![
                    ("id", Value::from(id)),
                    ("parent", s.parent.map_or(Value::Null, Value::from)),
                    ("name", Value::from(s.name)),
                    ("start_s", Value::from(s.start)),
                    ("end_s", Value::from(s.end)),
                    ("calls", Value::from(s.calls)),
                    ("self_s", Value::from(self_s)),
                ])
            })
            .collect();
        object(vec![
            ("kind", Value::from("benchmark-spans")),
            ("trace_id", Value::from(trace_id)),
            ("spans", Value::Array(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut rec = Recorder::default();
        let outer = rec.begin("outer");
        let ((), inner) = rec.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let total = rec.end(outer);
        assert!(inner >= 0.005 && total >= inner);
        let doc = rec.to_json("w");
        let spans = doc.get("spans").and_then(Value::as_array).unwrap();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].get("parent").unwrap().is_null());
        assert_eq!(spans[1].get("parent").and_then(Value::as_u64), Some(0));
        let self_outer = spans[0].get("self_s").and_then(Value::as_f64).unwrap();
        assert!((self_outer - (total - inner)).abs() < 1e-9);
    }

    #[test]
    fn batch_reports_seconds_per_call() {
        let mut rec = Recorder::default();
        let mut n = 0u32;
        let (last, per_call) = rec.time_batch("tick", 0.002, || {
            n += 1;
            n
        });
        assert_eq!(last, n);
        assert!(n > 1, "a sub-microsecond call repeats within 2 ms");
        assert!(per_call > 0.0 && per_call < 0.002);
        let doc = rec.to_json("w");
        let span = &doc.get("spans").and_then(Value::as_array).unwrap()[0];
        assert_eq!(
            span.get("calls").and_then(Value::as_u64),
            Some(u64::from(n))
        );
    }
}
