//! The benchmark's own spans (workload → cell → run → build / execute),
//! kept in memory and written out as Chrome `trace_event` JSON when the
//! traced run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One finished or open span; times are host seconds since the recorder
/// started.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_s: f64,
    dur_s: Option<f64>,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span under `parent`; returns its id for [`Self::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_s: self.t0.elapsed().as_secs_f64(),
            dur_s: None,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        let now = self.t0.elapsed().as_secs_f64();
        let span = &mut self.spans[id];
        span.dur_s = Some(now - span.start_s);
    }

    /// Records a finished child of `parent` lasting `dur_s`, starting where
    /// the parent's last recorded child ended (or at the parent's start).
    pub fn record(&mut self, name: &str, parent: Option<usize>, dur_s: f64) {
        let start_s = self
            .spans
            .iter()
            .filter(|s| s.parent == parent && parent.is_some())
            .filter_map(|s| s.dur_s.map(|d| s.start_s + d))
            .fold(parent.map_or(0.0, |p| self.spans[p].start_s), f64::max);
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_s,
            dur_s: Some(dur_s),
        });
    }

    /// Number of spans recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Chrome `trace_event` JSON ("X" complete events, microseconds), with
    /// `envelope` (a JSON object) attached as metadata.
    #[must_use]
    pub fn to_chrome_json(&self, envelope: &str) -> String {
        let mut out = String::from("{\"traceEvents\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}}}}}",
                s.name.replace('"', "'"),
                s.start_s * 1e6,
                s.dur_s.unwrap_or(0.0) * 1e6
            );
        }
        let _ = write!(out, "\n], \"metadata\": {envelope}}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_inside_their_parent() {
        let mut spans = Spans::new();
        let root = spans.open("workload", None);
        let cell = spans.open("cell", Some(root));
        spans.record("build", Some(cell), 0.001);
        spans.record("execute", Some(cell), 0.002);
        spans.close(cell);
        spans.close(root);
        assert_eq!(spans.len(), 4);
        let exec = &spans.spans[3];
        assert!((exec.start_s - (spans.spans[1].start_s + 0.001)).abs() < 1e-12);
        let json = spans.to_chrome_json("{}");
        assert!(json.contains("\"name\": \"execute\"") && json.contains("\"parent\": 1"));
    }
}
