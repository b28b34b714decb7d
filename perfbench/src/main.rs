//! The repository benchmark: one workload of the BlissCam serving stack
//! per run, measured from outside the program through its public APIs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solo_f32|shared4_int8|reconnect_storm|chaos_checkpoint> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets up three times (train, build the runtime, warm up on a seed
//! no measured round uses) and reports the median as `setup_s`, then serves
//! the workload's measured phase, checks every output and prints the
//! end-to-end metrics. `--trace 1` instead sets up twice, serves the phase
//! once untraced and once traced, replays the traced run stage by stage and
//! prints the per-layer metrics. Every metric line names its
//! unit, clock (wall or virtual), better direction and sample count; the
//! last line of standard output is the JSON result. The report and, when
//! traced, the span trace are written to separate files under
//! `perfbench/out/`. The exit code is 0 when every check passed, 1 when an
//! output check failed and 2 when the run could not be carried out.

mod json;
mod metrics;
mod replay;
mod run;
mod stats;
mod trace;
mod workload;

use crate::json::Json;
use crate::metrics::{Sheet, Value, END_TO_END, PER_LAYER};
use crate::replay::Replay;
use crate::run::{Measured, Ready};
use crate::stats::{mean, median, tail, FrameTally};
use crate::trace::Tracer;
use crate::workload::{Kind, Workload};
use bliss_serve::{FrameRecord, SessionTrace};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Width of the `bliss_parallel` pool during a run. On a shared two-vCPU
/// VM (Intel Xeon) the default width of two read
/// `step_wall_ms_p50` on `solo_f32` as 4.98, 6.30, 6.35 and 6.12 ms in four
/// alternating runs, against 5.79, 5.87, 5.75 and 5.90 ms at one: the
/// second worker waits on the host's scheduler more often than it helps.
/// One worker keeps the wall metrics about the program rather than about
/// its neighbours.
const POOL_THREADS: &str = "1";

const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// One output check.
struct Check {
    name: String,
    ok: bool,
    detail: String,
}

fn check(checks: &mut Vec<Check>, name: impl Into<String>, result: Result<(), String>) {
    let (ok, detail) = match result {
        Ok(()) => (true, String::new()),
        Err(e) => (false, e),
    };
    checks.push(Check {
        name: name.into(),
        ok,
        detail,
    });
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The host the numbers were measured on.
fn environment() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustflags = env!("PERFBENCH_RUSTFLAGS");
    let target_cpu = rustflags
        .split_whitespace()
        .find_map(|f| f.strip_prefix("target-cpu="))
        .unwrap_or("default");
    Json::obj([
        ("nproc", Json::from(nproc)),
        ("pool_threads", Json::from(bliss_parallel::thread_count())),
        ("cpu_model", Json::from(cpu)),
        ("target_cpu", Json::from(target_cpu)),
        ("rustflags", Json::from(rustflags)),
    ])
}

/// Every frame record a measured phase reports its virtual metrics over.
fn measured_traces(m: &Measured) -> Vec<&SessionTrace> {
    match &m.chaos {
        Some(c) => c.result.as_ref().map_or(Vec::new(), |o| {
            o.outcome.per_host.iter().flat_map(|h| &h.traces).collect()
        }),
        None => m
            .shards
            .iter()
            .filter_map(|s| s.outcome.as_ref())
            .flat_map(|o| &o.traces)
            .collect(),
    }
}

/// Frames attempted and failed by the run `wall_fps` is taken on: the
/// serve rounds, or the chaos fleet.
fn headline_tally(m: &Measured) -> FrameTally {
    match &m.chaos {
        Some(c) => {
            let expected: Vec<(usize, usize)> = (0..c.cfg.serve.sessions)
                .map(|id| (id, c.cfg.serve.frames_per_session))
                .collect();
            let traces: Vec<SessionTrace> = measured_traces(m).into_iter().cloned().collect();
            stats::tally_frames(&expected, &traces)
        }
        None => shard_tally(m),
    }
}

/// Frames attempted and failed by the stepped shards.
fn shard_tally(m: &Measured) -> FrameTally {
    let mut t = FrameTally::default();
    for sh in &m.shards {
        let traces = sh.outcome.as_ref().map_or(&[][..], |o| &o.traces[..]);
        t.add(stats::tally_frames(&sh.expected(), traces));
    }
    t
}

/// Frames attempted and failed over every run of the phase.
fn tally(m: &Measured) -> FrameTally {
    let mut t = shard_tally(m);
    if m.chaos.is_some() {
        t.add(headline_tally(m));
    }
    t
}

/// The virtual-clock metrics of a phase; deterministic per seed.
fn virtual_metrics(m: &Measured, sheet: &mut Sheet) {
    let records: Vec<&FrameRecord> = measured_traces(m)
        .into_iter()
        .flat_map(|t| &t.records)
        .collect();
    let n = records.len();
    let (virt_fps, runs) = match &m.chaos {
        Some(c) => (
            c.result
                .as_ref()
                .map_or(f64::NAN, |o| o.outcome.report.throughput_fps),
            1,
        ),
        None => {
            let fps: Vec<f64> = m
                .shards
                .iter()
                .filter_map(|s| s.outcome.as_ref())
                .map(|o| o.report.throughput_fps)
                .collect();
            (mean(&fps), fps.len())
        }
    };
    sheet.set(
        "virt_fps",
        Value::noted(virt_fps, runs, "report.throughput_fps, mean over runs"),
    );
    let latency_ms: Vec<f64> = records.iter().map(|r| r.latency_s * 1e3).collect();
    sheet.set("virt_latency_ms_p50", Value::new(median(&latency_ms), n));
    set_tail(sheet, "virt_latency_ms_tail", &latency_ms, "frames");
    let misses = records.iter().filter(|r| r.deadline_missed).count();
    sheet.set(
        "deadline_miss_rate",
        Value::new(misses as f64 / n as f64, n),
    );
    let energy: Vec<f64> = records.iter().map(|r| r.energy_j * 1e6).collect();
    sheet.set("energy_uj_per_frame", Value::new(mean(&energy), n));
    let error: Vec<f64> = records
        .iter()
        .map(|r| {
            let (h, v) = (r.horizontal_error_deg as f64, r.vertical_error_deg as f64);
            (h * h + v * v).sqrt()
        })
        .collect();
    sheet.set("gaze_error_deg", Value::new(mean(&error), n));
}

fn set_tail(sheet: &mut Sheet, name: &'static str, values: &[f64], what: &str) {
    let value = match tail(values) {
        Some(t) => Value::noted(
            t.value,
            t.samples,
            format!("p{:.4}, {} {what} beyond", t.percentile, stats::TAIL_BEYOND),
        ),
        None => Value::noted(
            values.iter().copied().fold(f64::NAN, f64::max),
            values.len(),
            format!("max: fewer than {} {what}", stats::TAIL_BEYOND + 1),
        ),
    };
    sheet.set(name, value);
}

/// Frames served per wall second by the run `wall_fps` is taken on, and
/// how many frames that is.
fn wall_fps(m: &Measured) -> (f64, usize) {
    let t = headline_tally(m);
    let served = t.attempted - t.failed;
    (served as f64 / m.wall_s(), served)
}

/// The wall-clock end-to-end metrics of a phase.
fn wall_metrics(m: &Measured, tally: FrameTally, sheet: &mut Sheet) {
    let (fps, served) = wall_fps(m);
    let wall_note = match &m.chaos {
        Some(_) => "serve_chaos wall time",
        None => "start_sessions through finish",
    };
    sheet.set("wall_fps", Value::noted(fps, served, wall_note));
    let steps = &m.drive.step_ms;
    let step_note = match &m.chaos {
        Some(_) => "step_batch_with on the fault-free fleet of the same config",
        None => "step_batch_with",
    };
    sheet.set(
        "step_wall_ms_p50",
        Value::noted(median(steps), steps.len(), step_note),
    );
    sheet.set(
        "served_frac",
        Value::noted(
            1.0 - tally.failed_frac(),
            tally.attempted,
            format!("failed_frac {}", tally.failed_frac()),
        ),
    );
}

/// Output checks every run makes on a measured phase.
fn output_checks(pass: &str, m: &Measured, checks: &mut Vec<Check>) {
    let tally = tally(m);
    let mut errors: Vec<String> = m.errors.clone();
    errors.extend(m.shards.iter().filter_map(|s| s.error.clone()));
    if let Some(Err(e)) = m.chaos.as_ref().map(|c| &c.result) {
        errors.push(e.clone());
    }
    check(
        checks,
        format!("{pass}no serving errors"),
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        },
    );
    check(
        checks,
        format!("{pass}every session's frames complete and in order"),
        if tally.failed == 0 {
            Ok(())
        } else {
            Err(format!(
                "{} of {} frames not served with a valid record",
                tally.failed, tally.attempted
            ))
        },
    );
    if let Some(c) = &m.chaos {
        let Ok(run) = &c.result else { return };
        let (sessions, frames) = (c.cfg.serve.sessions, c.cfg.serve.frames_per_session);
        let timeline = &run.outcome.timeline;
        check(
            checks,
            format!("{pass}chaos: gap-free merged timeline"),
            if timeline.len() != sessions * frames {
                Err(format!(
                    "timeline holds {} of {} events",
                    timeline.len(),
                    sessions * frames
                ))
            } else if let Some(p) = timeline.windows(2).find(|p| p[1].time_s < p[0].time_s) {
                Err(format!("timeline goes backward at {:.9} s", p[1].time_s))
            } else {
                Ok(())
            },
        );
        // Faults may move timing only: every frame's outputs must equal the
        // fault-free fleet's.
        let view = |traces: Vec<&SessionTrace>| {
            let mut by_id: BTreeMap<usize, Vec<FrameRecord>> = BTreeMap::new();
            let mut dup = false;
            for t in traces {
                let records = t
                    .records
                    .iter()
                    .map(|r| FrameRecord {
                        arrival_s: 0.0,
                        completion_s: 0.0,
                        latency_s: 0.0,
                        deadline_missed: false,
                        batch_size: 0,
                        ..r.clone()
                    })
                    .collect();
                dup |= by_id.insert(t.config.id, records).is_some();
            }
            (by_id, dup)
        };
        let (chaos_view, chaos_dup) = view(measured_traces(m));
        let (free_view, _) = view(
            m.shards
                .iter()
                .filter_map(|s| s.outcome.as_ref())
                .flat_map(|o| &o.traces)
                .collect(),
        );
        check(
            checks,
            format!("{pass}chaos: outputs equal the fault-free fleet's"),
            if chaos_dup {
                Err("a session appears on two hosts".into())
            } else if chaos_view != free_view {
                Err("gaze, volume or energy diverged from the fault-free run".into())
            } else {
                Ok(())
            },
        );
    }
}

/// FNV-1a of this executable, so recorded virtual metrics are only
/// compared between runs of the same build.
fn build_id() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{hash:016x}-{}", bytes.len())
}

/// Compares the virtual metrics with those an earlier run of the same
/// build, workload, seed and length recorded, or records them. Virtual
/// time is deterministic, so any difference is nondeterminism.
fn ledger_check(args: &Args, sheet: &Sheet) -> Result<(), String> {
    let dir = out_dir().join("ledger");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-s{}.txt",
        args.workload, args.seed, args.seconds
    ));
    let mut text = format!("build {}\n", build_id());
    for d in END_TO_END
        .iter()
        .filter(|d| d.clock == metrics::Clock::Virtual)
    {
        let v = sheet.get(d.name).map_or(f64::NAN, |v| v.value);
        text.push_str(&format!("{} {:016x}\n", d.name, v.to_bits()));
    }
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous.lines().next() == text.lines().next() => {
            if previous == text {
                Ok(())
            } else {
                Err(format!(
                    "virtual metrics differ from an earlier run of this build and seed ({})",
                    path.display()
                ))
            }
        }
        _ => std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display())),
    }
}

/// Per-layer metrics of the traced phase and its replay.
fn per_layer(
    w: &Workload,
    traced: &Measured,
    replay: &Replay,
    tr: &Tracer,
    untraced_fps: f64,
    sheet: &mut Sheet,
) {
    let us = |name: &str| {
        let d: Vec<f64> = tr.durations_ns(name).iter().map(|ns| ns / 1e3).collect();
        (median(&d), d.len())
    };
    let d = &traced.drive;
    let started = d.sessions_started.max(1);
    sheet.set(
        "serve.start_ms_per_session",
        Value::noted(d.start_s * 1e3 / started as f64, started, "start_sessions"),
    );
    let (new_us, n) = us("frontend.new");
    sheet.set("frontend.new_ms", Value::new(new_us / 1e3, n));
    let renders = tr.durations_ns("eye.render_sequence");
    let rendered: usize = traced
        .shards
        .iter()
        .flat_map(|s| &s.sessions)
        .map(|s| s.frames + 1)
        .sum();
    sheet.set(
        "eye.render_us_per_frame",
        Value::noted(
            renders.iter().sum::<f64>() / 1e3 / rendered.max(1) as f64,
            rendered,
            "render_sequence_with",
        ),
    );
    for (metric, span) in [
        ("frontend.sense_us", "frontend.sense"),
        ("frontend.readout_us", "frontend.readout"),
        ("frontend.absorb_us", "frontend.absorb"),
        ("roi_net.forward_us", "roi_net.forward"),
    ] {
        let (v, n) = us(span);
        sheet.set(metric, Value::noted(v, n, "median per frame"));
    }
    let frames = replay.frames.max(1) as f64;
    sheet.set(
        "sensor.sampled_px_per_frame",
        Value::new(replay.sampled_px as f64 / frames, replay.frames),
    );
    sheet.set(
        "sensor.mipi_bytes_per_frame",
        Value::new(replay.mipi_bytes as f64 / frames, replay.frames),
    );
    sheet.set(
        "sensor.cold_frame_share",
        Value::new(replay.cold_frames as f64 / frames, replay.frames),
    );
    let launches = tr.durations_ns("vit.forward_batch");
    sheet.set(
        "vit.forward_ms_p50",
        Value::noted(median(&launches) / 1e6, launches.len(), "per launch"),
    );
    sheet.set(
        "vit.frames_per_launch",
        Value::new(
            replay.launched_frames as f64 / replay.launches.max(1) as f64,
            replay.launches,
        ),
    );
    sheet.set(
        "vit.tokens_per_frame",
        Value::new(replay.tokens as f64 / frames, replay.frames),
    );
    let launch_ns: f64 = launches.iter().sum();
    sheet.set(
        "vit.gflops",
        Value::noted(
            2.0 * replay.macs as f64 / launch_ns,
            launches.len(),
            "2 * sum(SparseViT::macs) / launch time",
        ),
    );

    let p = traced.plans;
    let lookups = p.hits + p.misses;
    sheet.set(
        "vit.plan_hit_ratio",
        Value::noted(
            p.hits as f64 / lookups.max(1) as f64,
            lookups as usize,
            "f32 + int8 plan caches, measured phase",
        ),
    );
    sheet.set(
        "vit.plans_compiled",
        Value::new(p.misses as f64, lookups as usize),
    );
    sheet.set(
        "vit.plan_evictions",
        Value::new(p.evictions as f64, lookups as usize),
    );
    sheet.set(
        "vit.plan_arena_mb",
        Value::noted(p.arena_elems as f64 * 4.0 / MIB, 1, "4-byte elements"),
    );
    sheet.set(
        "tensor.scratch_retained_mb",
        Value::new(bliss_tensor::pool_stats().retained_bytes() as f64 / MIB, 1),
    );

    let steps = d.step_ms.len();
    let outcomes: Vec<_> = traced
        .shards
        .iter()
        .filter_map(|s| s.outcome.as_ref())
        .collect();
    let served: usize = outcomes.iter().map(|o| o.report.frames_total).sum();
    sheet.set("serve.steps", Value::new(steps as f64, steps));
    set_tail(sheet, "serve.step_wall_ms_tail", &d.step_ms, "steps");
    sheet.set(
        "serve.frames_per_step",
        Value::new(served as f64 / steps.max(1) as f64, steps),
    );
    sheet.set(
        "serve.finish_ms",
        Value::new(median(&d.finish_ms), d.finish_ms.len()),
    );
    let util: Vec<f64> = outcomes.iter().map(|o| o.report.utilisation).collect();
    sheet.set(
        "serve.host_utilisation",
        Value::noted(mean(&util), util.len(), "mean over hosts or rounds"),
    );

    let ck = &d.checkpoints;
    let per = |f: fn(&run::Checkpoint) -> f64| median(&ck.iter().map(f).collect::<Vec<_>>());
    let n = ck.len();
    sheet.set(
        "snapshot.bytes",
        Value::noted(per(|c| c.bytes as f64), n, "median per host checkpoint"),
    );
    sheet.set(
        "snapshot.capture_ms",
        Value::new(per(|c| c.capture_ns / 1e6), n),
    );
    sheet.set(
        "snapshot.to_json_ms",
        Value::new(per(|c| c.to_json_ns / 1e6), n),
    );
    sheet.set(
        "snapshot.parse_ms",
        Value::new(per(|c| c.parse_ns / 1e6), n),
    );
    sheet.set(
        "snapshot.parse_mb_per_s",
        Value::new(per(|c| c.bytes as f64 / 1e6 / (c.parse_ns / 1e9)), n),
    );
    sheet.set(
        "snapshot.restore_ms",
        Value::new(per(|c| c.restore_ns / 1e6), n),
    );

    match (&traced.chaos, w.kind) {
        (Some(c), _) => {
            let ok = c.result.as_ref().ok();
            let faults = ok.map(|o| o.chaos.faults);
            let count = |f: fn(&bliss_fleet::FaultStats) -> usize| {
                Value::new(faults.as_ref().map_or(f64::NAN, |s| f(s) as f64), 1)
            };
            sheet.set(
                "chaos.overhead_s",
                Value::noted(
                    c.wall_s - d.wall_s,
                    1,
                    "serve_chaos minus the fault-free fleet, wall",
                ),
            );
            sheet.set("chaos.checkpoints", count(|f| f.checkpoints_taken));
            sheet.set("chaos.failovers", count(|f| f.failovers));
            sheet.set("chaos.frames_replayed", count(|f| f.frames_replayed));
            let recovery: Vec<f64> = ok.map_or(Vec::new(), |o| {
                o.chaos.recovery_latency_s.iter().map(|s| s * 1e3).collect()
            });
            sheet.set(
                "chaos.recovery_ms_p50",
                Value::new(
                    if recovery.is_empty() {
                        0.0
                    } else {
                        median(&recovery)
                    },
                    recovery.len(),
                ),
            );
        }
        (None, Kind::Serve { .. }) => {
            for name in [
                "chaos.overhead_s",
                "chaos.checkpoints",
                "chaos.failovers",
                "chaos.frames_replayed",
                "chaos.recovery_ms_p50",
            ] {
                sheet.set(
                    name,
                    Value::noted(0.0, 0, "no fault injection on this workload"),
                );
            }
        }
        (None, Kind::Chaos { .. }) => unreachable!("the chaos workload runs a chaos pass"),
    }

    let (traced_fps, _) = wall_fps(traced);
    sheet.set(
        "trace.overhead_pct",
        Value::noted(
            (untraced_fps / traced_fps - 1.0) * 100.0,
            2,
            format!("untraced {untraced_fps:.3} vs traced {traced_fps:.3} frames/s"),
        ),
    );
}

fn write_file(path: &PathBuf, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &Args, w: &Workload, started: Instant) -> Result<ExitCode, String> {
    let run_id = format!(
        "{}-seed{}-pid{}-{}",
        w.name,
        args.seed,
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis())
    );
    let mut tr = Tracer::new(args.trace, started);
    let run_span = tr.begin("run");

    // Set up three times and keep the last runtime. A traced run prints no
    // `setup_s`; it sets up once per pass and keeps both runtimes.
    let (count, keep) = if args.trace { (2, 1) } else { (SETUPS, 0) };
    let mut setups = Vec::with_capacity(count);
    let mut ready: Vec<Ready> = Vec::new();
    for i in 0..count {
        while ready.len() > keep {
            ready.remove(0);
        }
        let since = if i == 0 { started } else { Instant::now() };
        let r = run::set_up(w, args.seed, since, &mut tr).map_err(|e| format!("set-up: {e}"))?;
        setups.push(r.setup_s);
        ready.push(r);
    }

    let mut checks = Vec::new();
    let mut e2e = Sheet::default();
    let mut layers = Sheet::default();
    let (measured, total) = if args.trace {
        // Traced and untraced passes over the same inputs, each on its own
        // set-up, so both meet the measured layouts cold. The traced pass
        // goes first: the later pass finds the process warmer, so the
        // reported overhead errs high rather than low.
        let traced = run::measure(w, args.seed, &ready[1], true, &mut tr);
        tr.set_enabled(false);
        let plain = run::measure(w, args.seed, &ready[0], false, &mut tr);
        tr.set_enabled(true);
        let mut replay = Replay::default();
        for shard in &traced.shards {
            replay::replay(
                &ready[1].system,
                &ready[1].model,
                shard,
                &mut tr,
                &mut replay,
            )
            .map_err(|e| format!("replay: {e}"))?;
        }
        check(
            &mut checks,
            "stage replay reproduces every served record",
            if replay.mismatches == 0 && replay.frames > 0 {
                Ok(())
            } else {
                Err(format!(
                    "{} mismatches over {} frames: {}",
                    replay.mismatches,
                    replay.frames,
                    replay.first_mismatches.join("; ")
                ))
            },
        );
        check(
            &mut checks,
            "checkpoints round-trip through JSON and restore",
            if traced.drive.probe_errors.is_empty() && !traced.drive.checkpoints.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "{} probes, errors: {}",
                    traced.drive.checkpoints.len(),
                    traced.drive.probe_errors.join("; ")
                ))
            },
        );
        let (mut va, mut vb) = (Sheet::default(), Sheet::default());
        virtual_metrics(&plain, &mut va);
        virtual_metrics(&traced, &mut vb);
        let differing: Vec<&str> = END_TO_END
            .iter()
            .filter(|d| d.clock == metrics::Clock::Virtual)
            .filter(|d| {
                let bits = |s: &Sheet| s.get(d.name).map(|v| v.value.to_bits());
                bits(&va) != bits(&vb)
            })
            .map(|d| d.name)
            .collect();
        check(
            &mut checks,
            "virtual metrics identical between the untraced and traced passes",
            if differing.is_empty() {
                Ok(())
            } else {
                Err(format!("nondeterminism in {}", differing.join(", ")))
            },
        );
        let (untraced_fps, _) = wall_fps(&plain);
        per_layer(w, &traced, &replay, &tr, untraced_fps, &mut layers);
        let mut total = tally(&plain);
        total.add(tally(&traced));
        output_checks("traced pass: ", &traced, &mut checks);
        (plain, total)
    } else {
        let m = run::measure(w, args.seed, &ready[0], false, &mut tr);
        let t = tally(&m);
        (m, t)
    };
    output_checks("", &measured, &mut checks);
    virtual_metrics(&measured, &mut e2e);
    wall_metrics(&measured, tally(&measured), &mut e2e);
    e2e.set(
        "setup_s",
        Value::noted(
            median(&setups),
            setups.len(),
            "train + runtime + warm-up; the first from process start",
        ),
    );
    e2e.set("peak_rss_mb", Value::noted(peak_rss_mb(), 1, "VmHWM"));
    check(
        &mut checks,
        "virtual metrics repeat across runs",
        ledger_check(args, &e2e),
    );
    tr.end(run_span);

    let (catalogue, sheet) = if args.trace {
        (&PER_LAYER[..], &layers)
    } else {
        (&END_TO_END[..], &e2e)
    };
    let missing = sheet.missing(catalogue);
    check(
        &mut checks,
        "every metric measured",
        if missing.is_empty() {
            Ok(())
        } else {
            Err(format!("no finite value for {}", missing.join(", ")))
        },
    );
    let correct = checks.iter().all(|c| c.ok);

    let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
    let report_path = out_dir().join(format!("{stem}.report.json"));
    let trace_path = out_dir().join(format!("{stem}.trace.json"));
    let report = Json::obj([
        ("run_id", Json::from(run_id.as_str())),
        ("workload", Json::from(w.name)),
        ("why", Json::from(w.why)),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("traced", Json::from(args.trace)),
        ("environment", environment()),
        ("correct", Json::from(correct)),
        ("attempted", Json::from(total.attempted)),
        ("failed", Json::from(total.failed)),
        (
            "checks",
            Json::Arr(
                checks
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::from(c.name.as_str())),
                            ("ok", Json::from(c.ok)),
                            ("detail", Json::from(c.detail.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", e2e.detailed(&END_TO_END)),
        ("per_layer", layers.detailed(&PER_LAYER)),
        (
            "trace_file",
            Json::from(if args.trace {
                trace_path.display().to_string()
            } else {
                String::new()
            }),
        ),
    ]);
    write_file(&report_path, &report.to_string())?;
    if args.trace {
        write_file(&trace_path, &tr.to_json(&run_id).to_string())?;
    }

    println!(
        "workload {} ({}), seed {}, {} s",
        w.name, w.why, args.seed, args.seconds
    );
    for c in &checks {
        let mark = if c.ok { "ok  " } else { "FAIL" };
        println!(
            "check {mark} {}{}",
            c.name,
            if c.ok {
                String::new()
            } else {
                format!(": {}", c.detail)
            }
        );
    }
    for line in sheet.lines(catalogue) {
        println!("{line}");
    }
    println!("report {}", report_path.display());
    if args.trace {
        println!("trace  {}", trace_path.display());
    }
    let result = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(total.attempted)),
        ("failed", Json::from(total.failed)),
        ("metrics", sheet.compact(catalogue)),
    ]);
    println!("{result}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    // Before any library call: the pool reads its width once, on first use.
    std::env::set_var("BLISS_THREADS", POOL_THREADS);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> \
                 --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::workload(&args.workload, args.seconds) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    match run(&args, &w, started) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
