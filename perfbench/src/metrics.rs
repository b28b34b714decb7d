//! The metric catalogue: every end-to-end and per-layer metric with its
//! unit, clock and better direction, and the record a run reports.

use crate::json::Json;

/// Which clock a metric is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time: how fast the simulator itself runs.
    Wall,
    /// The modelled sensor/NPU hardware; deterministic per seed.
    Virtual,
    /// A count or ratio that belongs to neither clock.
    Count,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Virtual => "virtual",
            Clock::Count => "-",
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub higher_is_better: bool,
}

const fn def(name: &'static str, unit: &'static str, clock: Clock, higher: bool) -> Def {
    Def {
        name,
        unit,
        clock,
        higher_is_better: higher,
    }
}

impl Def {
    pub fn better(&self) -> &'static str {
        if self.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }
}

use Clock::{Count, Virtual, Wall};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [Def; 11] = [
    def("wall_fps", "frames/s", Wall, true),
    def("step_wall_ms_p50", "ms", Wall, false),
    def("setup_s", "s", Wall, false),
    def("peak_rss_mb", "MiB", Wall, false),
    def("served_frac", "ratio", Count, true),
    def("virt_fps", "frames/s", Virtual, true),
    def("virt_latency_ms_p50", "ms", Virtual, false),
    def("virt_latency_ms_tail", "ms", Virtual, false),
    def("deadline_miss_rate", "ratio", Virtual, false),
    def("energy_uj_per_frame", "uJ", Virtual, false),
    def("gaze_error_deg", "deg", Virtual, false),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: [Def; 36] = [
    // Session set-up.
    def("serve.start_ms_per_session", "ms", Wall, false),
    def("frontend.new_ms", "ms", Wall, false),
    def("eye.render_us_per_frame", "us", Wall, false),
    // Per-frame front end.
    def("frontend.sense_us", "us", Wall, false),
    def("frontend.readout_us", "us", Wall, false),
    def("frontend.absorb_us", "us", Wall, false),
    def("sensor.sampled_px_per_frame", "px", Count, false),
    def("sensor.mipi_bytes_per_frame", "bytes", Count, false),
    def("sensor.cold_frame_share", "ratio", Count, false),
    // ROI net and ViT.
    def("roi_net.forward_us", "us", Wall, false),
    def("vit.forward_ms_p50", "ms", Wall, false),
    def("vit.frames_per_launch", "frames", Count, true),
    def("vit.tokens_per_frame", "tokens", Count, false),
    def("vit.gflops", "GFLOP/s", Wall, true),
    // Plan cache and scratch pool.
    def("vit.plan_hit_ratio", "ratio", Count, true),
    def("vit.plans_compiled", "count", Count, false),
    def("vit.plan_evictions", "count", Count, false),
    def("vit.plan_arena_mb", "MiB", Count, false),
    def("tensor.scratch_retained_mb", "MiB", Count, false),
    // Serve scheduler.
    def("serve.steps", "count", Count, false),
    def("serve.step_wall_ms_tail", "ms", Wall, false),
    def("serve.frames_per_step", "frames", Count, true),
    def("serve.finish_ms", "ms", Wall, false),
    def("serve.host_utilisation", "ratio", Virtual, false),
    // Snapshot and serde.
    def("snapshot.bytes", "bytes", Count, false),
    def("snapshot.capture_ms", "ms", Wall, false),
    def("snapshot.to_json_ms", "ms", Wall, false),
    def("snapshot.parse_ms", "ms", Wall, false),
    def("snapshot.parse_mb_per_s", "MB/s", Wall, true),
    def("snapshot.restore_ms", "ms", Wall, false),
    // Fleet chaos.
    def("chaos.overhead_s", "s", Wall, false),
    def("chaos.checkpoints", "count", Count, false),
    def("chaos.failovers", "count", Count, false),
    def("chaos.frames_replayed", "count", Count, false),
    def("chaos.recovery_ms_p50", "ms", Virtual, false),
    // The tracer itself.
    def("trace.overhead_pct", "%", Wall, false),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Value {
    pub value: f64,
    /// Samples the value summarises.
    pub samples: usize,
    /// How it was taken, when the name alone does not say (percentile,
    /// source, or why a layer is absent on this workload).
    pub note: String,
}

impl Value {
    pub fn new(value: f64, samples: usize) -> Self {
        Value {
            value,
            samples,
            note: String::new(),
        }
    }

    pub fn noted(value: f64, samples: usize, note: impl Into<String>) -> Self {
        Value {
            value,
            samples,
            note: note.into(),
        }
    }
}

/// A set of measured values, checked against a catalogue.
#[derive(Debug, Default)]
pub struct Sheet {
    values: Vec<(&'static str, Value)>,
}

impl Sheet {
    pub fn set(&mut self, name: &'static str, value: Value) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Catalogue names this sheet lacks a finite value for.
    pub fn missing(&self, catalogue: &[Def]) -> Vec<&'static str> {
        catalogue
            .iter()
            .filter(|d| self.get(d.name).is_none_or(|v| !v.value.is_finite()))
            .map(|d| d.name)
            .collect()
    }

    /// One human-readable line per catalogue metric.
    pub fn lines(&self, catalogue: &[Def]) -> Vec<String> {
        catalogue
            .iter()
            .filter_map(|d| {
                let v = self.get(d.name)?;
                Some(format!(
                    "{:<28} {:>16.6} {:<9} clock={:<7} better={:<6} n={}{}",
                    d.name,
                    v.value,
                    d.unit,
                    d.clock.label(),
                    d.better(),
                    v.samples,
                    if v.note.is_empty() {
                        String::new()
                    } else {
                        format!("  ({})", v.note)
                    }
                ))
            })
            .collect()
    }

    /// The full record of every catalogue metric, for the report file.
    pub fn detailed(&self, catalogue: &[Def]) -> Json {
        Json::Arr(
            catalogue
                .iter()
                .filter_map(|d| {
                    let v = self.get(d.name)?;
                    Some(Json::obj([
                        ("name", Json::from(d.name)),
                        ("value", Json::from(v.value)),
                        ("unit", Json::from(d.unit)),
                        ("clock", Json::from(d.clock.label())),
                        ("better", Json::from(d.better())),
                        ("samples", Json::from(v.samples)),
                        ("note", Json::from(v.note.as_str())),
                    ]))
                })
                .collect(),
        )
    }

    /// `{name: {value, unit}}` for the result line.
    pub fn compact(&self, catalogue: &[Def]) -> Json {
        Json::obj(catalogue.iter().filter_map(|d| {
            let v = self.get(d.name)?;
            Some((
                d.name,
                Json::obj([("value", Json::from(v.value)), ("unit", Json::from(d.unit))]),
            ))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::JsonValue;

    /// `BENCHMARK.json` must list exactly this catalogue, with the same
    /// units and directions, in the same order.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let root = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = root
                .field(key)
                .and_then(|v| v.expect_array())
                .expect("metric list");
            assert_eq!(listed.len(), catalogue.len(), "{key} length");
            for (entry, d) in listed.iter().zip(catalogue) {
                let text = |f: &'static str| match entry.field(f).expect("field") {
                    JsonValue::String(s) => s.clone(),
                    other => panic!("{f} is not a string: {other:?}"),
                };
                assert_eq!(text("name"), d.name);
                assert_eq!(text("unit"), d.unit, "{}", d.name);
                assert_eq!(text("better"), d.better(), "{}", d.name);
            }
        }
    }

    #[test]
    fn a_sheet_reports_missing_and_non_finite_values() {
        let mut sheet = Sheet::default();
        for d in &END_TO_END {
            sheet.set(d.name, Value::new(1.0, 1));
        }
        assert!(sheet.missing(&END_TO_END).is_empty());
        sheet.set("wall_fps", Value::new(f64::NAN, 1));
        assert_eq!(sheet.missing(&END_TO_END), vec!["wall_fps"]);
        assert_eq!(sheet.lines(&END_TO_END).len(), END_TO_END.len());
    }
}
