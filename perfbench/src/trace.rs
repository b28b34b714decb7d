//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into the program's public API:
//! name, start, end and parent, all under one run id. Nothing is written
//! until the run ends. A disabled tracer records nothing and costs one
//! branch per call, so untraced runs measure the program alone.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; close it with [`Tracer::end`].
#[must_use = "an open span must be closed with Tracer::end"]
pub struct Open(Option<usize>);

/// Records nested spans while enabled.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; spans already open still close.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let popped = self.stack.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Durations in nanoseconds of every closed span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// The trace as JSON: every span plus a per-name summary of count,
    /// total time and self time (duration minus the time its direct
    /// children cover).
    pub fn to_json(&self, run_id: &str) -> Json {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut summary: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = summary.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(child_ns[s.id]);
        }
        Json::obj([
            ("run_id", Json::from(run_id)),
            (
                "summary",
                Json::Arr(
                    summary
                        .into_iter()
                        .map(|(name, (count, total, own))| {
                            Json::obj([
                                ("name", Json::from(name)),
                                ("count", Json::from(count)),
                                ("total_ms", Json::from(total as f64 / 1e6)),
                                ("self_ms", Json::from(own as f64 / 1e6)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("id", Json::from(s.id)),
                                ("parent", s.parent.map_or(Json::Null, Json::from)),
                                ("name", Json::from(s.name)),
                                ("start_ns", Json::from(s.start_ns)),
                                ("end_ns", Json::from(s.end_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.begin("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        let (outer_ns, inner_ns) = (t.durations_ns("outer")[0], t.durations_ns("inner")[0]);
        assert!(inner_ns >= 2e6 && outer_ns >= inner_ns);
        let json = t.to_json("run").to_string();
        assert!(json.contains("\"self_ms\""));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let open = t.begin("a");
        t.end(open);
        assert!(t.spans.is_empty());
    }
}
