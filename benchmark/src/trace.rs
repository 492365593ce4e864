//! Spans recorded by the benchmark's own code around each call into a
//! layer, kept in memory and written out when the run ends. Spans inside
//! the library are a later change (ROADMAP item 1), which must reproduce
//! these outside-in numbers.

use std::time::Instant;

use crate::json::Value;

/// One clock for every thread of a run: ns since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Self(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// A timed interval at a layer boundary. Spans of one request share
/// `request_id`; `parent` names the span that caused this one (`""` for a
/// root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    pub request_id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Median duration, in µs, of the spans called `name`.
pub fn median_us(spans: &[Span], name: &str) -> Option<f64> {
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    (!durations.is_empty()).then(|| crate::stats::median(&durations))
}

pub fn to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("start_ns", Value::from(s.start_ns)),
                    ("end_ns", Value::from(s.end_ns)),
                    ("parent", Value::str(s.parent)),
                    ("request_id", Value::from(s.request_id)),
                ])
            })
            .collect(),
    )
}
