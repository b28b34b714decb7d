//! The four benchmark workloads and how each is sized from `--seconds`.
//!
//! Every workload serves the trained `SystemConfig::miniature()` model with
//! paper-scale timing on the default planned path. Arrivals are open-loop
//! at 120 FPS per session (the serve layer's virtual schedule); the host
//! side is an offline batch job whose wall time the benchmark measures.
//! The amount of work is a pure function of `--seconds`, never of elapsed
//! time, so the virtual schedule (and every virtual metric) depends only on
//! the workload, the seed and `--seconds`.

use bliss_serve::{Precision, ServeConfig};

/// What one workload serves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `rounds` back-to-back single-host runs of `sessions` sessions with
    /// `frames` frames each; each round gets fresh inputs from its own
    /// seed.
    Serve {
        sessions: usize,
        frames: usize,
        rounds: usize,
        precision: Precision,
        /// Arrival stagger between sessions; `None` keeps the serve
        /// layer's default of one frame period.
        stagger_s: Option<f64>,
        /// Steps between checkpoint probes in the first round of the traced
        /// run.
        checkpoint_every: usize,
    },
    /// One fleet of `hosts` hosts serving `sessions` sessions of `frames`
    /// frames under a seeded default fault mix, checkpointing every four
    /// batches per host.
    Chaos {
        hosts: usize,
        sessions: usize,
        frames: usize,
    },
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: the layer it stresses.
    pub why: &'static str,
    pub kind: Kind,
}

/// Batches between periodic checkpoints in the chaos workload
/// (`ChaosConfig::new`'s cadence).
pub const CHAOS_CHECKPOINT_EVERY: usize = 4;

/// Workload names in presentation order.
pub const NAMES: [&str; 4] = [
    "solo_f32",
    "shared4_int8",
    "reconnect_storm",
    "chaos_checkpoint",
];

/// The workload called `name`, sized for a run of `seconds`.
pub fn workload(name: &str, seconds: u64) -> Option<Workload> {
    let s = seconds.max(1) as usize;
    let w = match name {
        "solo_f32" => Workload {
            name: "solo_f32",
            why: "one tracker per headset at f32, headsets one after another: per-frame ViT \
                  kernels and the sensor front end dominate, plan reuse is high",
            // One headset after another, each a 152-frame stream, so a run
            // averages over `s` gaze trajectories rather than one.
            kind: Kind::Serve {
                sessions: 1,
                frames: 152,
                rounds: s,
                precision: Precision::F32,
                stagger_s: None,
                checkpoint_every: 100,
            },
        },
        "shared4_int8" => Workload {
            name: "shared4_int8",
            why: "four sessions share one host NPU at int8 below the knee, many short \
                  rounds: quantised GEMMs and batched layouts with low plan reuse",
            // Many short rounds, so a run averages over 4·s eyes: with two
            // rounds of four, one badly tracked eye (8.1 deg against 0.9 to
            // 2.3 deg for the other seven) moved the mean gaze error by half.
            kind: Kind::Serve {
                sessions: 4,
                frames: 36,
                rounds: s,
                precision: Precision::Int8,
                stagger_s: None,
                checkpoint_every: 12,
            },
        },
        "reconnect_storm" => Workload {
            name: "reconnect_storm",
            why: "bursts of short f32 sessions connect at once: session set-up and cold \
                  full-frame launches capped by max_cold_per_batch",
            kind: Kind::Serve {
                sessions: 32,
                frames: 12,
                rounds: s.div_ceil(4),
                precision: Precision::F32,
                stagger_s: Some(0.0),
                // A single probe: a 32-session checkpoint is about 14 MB
                // and takes tens of seconds to parse.
                checkpoint_every: 24,
            },
        },
        "chaos_checkpoint" => Workload {
            name: "chaos_checkpoint",
            why: "4 hosts x 4 f32 sessions under seeded faults: checkpoint writes and \
                  failover reads through serde, fleet placement",
            kind: Kind::Chaos {
                hosts: 4,
                sessions: 16,
                frames: 2 * s,
            },
        },
        _ => return None,
    };
    Some(w)
}

impl Workload {
    /// The serve configuration of a serve workload's round, or of one
    /// fleet shard template, with `seed` as its input seed.
    pub fn serve_config(&self, seed: u64) -> ServeConfig {
        let mut cfg = match self.kind {
            Kind::Serve {
                sessions,
                frames,
                precision,
                stagger_s,
                ..
            } => {
                let mut cfg = ServeConfig::new(sessions, frames).at_precision(precision);
                if let Some(s) = stagger_s {
                    cfg.stagger_s = s;
                }
                cfg
            }
            Kind::Chaos {
                sessions, frames, ..
            } => ServeConfig::new(sessions, frames),
        };
        cfg.seed = seed;
        cfg
    }
}

/// SplitMix64: derives independent input seeds from the run seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Input-seed stream of the set-up warm-up, disjoint from every measured
/// round's.
pub const WARMUP_STREAM: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_exists_and_sizes_with_seconds() {
        for name in NAMES {
            let short = workload(name, 1).expect("known workload");
            let long = workload(name, 10).expect("known workload");
            assert_eq!(short.name, name);
            assert_ne!(short.kind, long.kind, "{name} must grow with --seconds");
        }
        assert!(workload("nope", 10).is_none());
    }

    #[test]
    fn derived_seeds_differ_per_stream_and_repeat_per_seed() {
        assert_eq!(derive_seed(7, 0), derive_seed(7, 0));
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
        assert_ne!(derive_seed(7, WARMUP_STREAM), derive_seed(7, 0));
    }
}
