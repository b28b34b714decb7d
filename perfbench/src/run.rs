//! Set-up and the measured phase of a workload, driven through the public
//! `bliss_serve` / `bliss_fleet` APIs.

use crate::trace::Tracer;
use crate::workload::{derive_seed, Kind, Workload, CHAOS_CHECKPOINT_EVERY, WARMUP_STREAM};
use bliss_eye::{render_sequence, SequenceConfig};
use bliss_fleet::{
    ChaosConfig, ChaosOutcome, FaultMix, FaultPlan, FleetConfig, FleetRuntime, PlacementPolicy,
};
use bliss_serve::{
    ServeConfig, ServeOutcome, ServeRuntime, ServeSnapshot, ServeState, SessionConfig,
    SessionProgress, StepOptions,
};
use bliss_tensor::TensorError;
use bliss_track::{JointTrainer, RoiPredictionNet, SparseViT};
use blisscam_core::SystemConfig;
use serde::Serialize;
use std::time::Instant;

/// Placement policy of the chaos fleet.
const PLACEMENT: PlacementPolicy = PlacementPolicy::RoundRobin;

/// The trained networks, shared with the runtime (clones share parameters
/// and the plan caches).
pub struct Model {
    pub vit: SparseViT,
    pub roi_net: RoiPredictionNet,
}

/// The serving front door a workload drives.
pub enum Host {
    Serve(ServeRuntime),
    Fleet(FleetRuntime),
}

impl Host {
    pub fn serve(&self) -> &ServeRuntime {
        match self {
            Host::Serve(rt) => rt,
            Host::Fleet(fleet) => fleet.serve_runtime(),
        }
    }
}

/// A runtime after set-up, ready for its measured phase.
pub struct Ready {
    pub system: SystemConfig,
    pub model: Model,
    pub host: Host,
    /// Seconds from the set-up's start to the end of its warm-up.
    pub setup_s: f64,
}

/// Trains the shared networks for `system` the way `ServeRuntime::new`
/// does.
fn train(system: &SystemConfig) -> Result<Model, TensorError> {
    let seq = render_sequence(&SequenceConfig {
        width: system.width,
        height: system.height,
        frames: system.train_frames.max(8),
        fps: system.fps as f32,
        seed: system.seed,
    });
    let mut trainer = JointTrainer::new(system.train_config())?;
    trainer.train_on(&seq)?;
    Ok(Model {
        vit: trainer.vit().clone(),
        roi_net: trainer.roi_net().clone(),
    })
}

/// Trains, builds the runtime and warms it up on a seed no measured round
/// uses. The warm-up compiles the plans of its own token layouts only, so
/// the measured phase still pays for the layouts it meets first.
pub fn set_up(
    w: &Workload,
    seed: u64,
    since: Instant,
    tr: &mut Tracer,
) -> Result<Ready, TensorError> {
    let open = tr.begin("setup");
    let system = SystemConfig::miniature();
    let model = tr.span("setup.train", || train(&system))?;
    let host = tr.span("setup.runtime", || {
        let (vit, roi) = (model.vit.clone(), model.roi_net.clone());
        match w.kind {
            Kind::Serve { .. } => {
                Host::Serve(ServeRuntime::with_networks(system, vit, roi).with_paper_scale_timing())
            }
            Kind::Chaos { .. } => {
                Host::Fleet(FleetRuntime::with_networks(system, vit, roi).with_paper_scale_timing())
            }
        }
    });
    let warm_seed = derive_seed(seed, WARMUP_STREAM);
    tr.span("setup.warmup", || match (&host, w.kind) {
        (Host::Fleet(fleet), Kind::Chaos { hosts, .. }) => {
            let mut cfg = FleetConfig::new(hosts, PLACEMENT, hosts, 8);
            cfg.serve.seed = warm_seed;
            fleet
                .serve_chaos(&cfg, &chaos_config(&cfg, derive_seed(warm_seed, 1)))
                .map(drop)
        }
        (host, _) => {
            let mut cfg = w.serve_config(warm_seed);
            cfg.sessions = cfg.sessions.min(4);
            cfg.frames_per_session = cfg.frames_per_session.min(16);
            host.serve().serve(&cfg).map(drop)
        }
    })?;
    tr.end(open);
    Ok(Ready {
        system,
        model,
        host,
        setup_s: since.elapsed().as_secs_f64(),
    })
}

/// Fault-plan seed of the measured chaos run. The schedule is part of the
/// workload, like its session count: with a fresh schedule per run the
/// virtual latency tail swung by 90 % between seeds, which would hide any
/// change in recovery cost. `--seed` varies the sessions' inputs.
const FAULT_PLAN_SEED: u64 = 0xC4A0_5EED;

/// The default fault mix over a fleet run, generated from `plan_seed`,
/// with `ChaosConfig::new`'s recovery parameters. The fault horizon is the
/// run's arrival-paced span: the last session's arrival offset plus its
/// frames, one period each.
fn chaos_config(cfg: &FleetConfig, plan_seed: u64) -> ChaosConfig {
    let period = 1.0 / 120.0;
    let horizon = (cfg.serve.sessions + cfg.serve.frames_per_session) as f64 * period;
    let plan = FaultPlan::generate(plan_seed, cfg.hosts, horizon, &FaultMix::default());
    let chaos = ChaosConfig::new(plan);
    debug_assert_eq!(chaos.checkpoint_interval, CHAOS_CHECKPOINT_EVERY);
    chaos
}

/// One host's (or one round's) run: its config, its sessions and what
/// serving them produced.
pub struct Shard {
    pub cfg: ServeConfig,
    pub sessions: Vec<SessionConfig>,
    /// Session slots each step served, in step order (traced runs only).
    pub batches: Vec<Vec<usize>>,
    pub outcome: Option<ServeOutcome>,
    pub error: Option<String>,
}

impl Shard {
    fn new(cfg: ServeConfig, sessions: Vec<SessionConfig>) -> Self {
        Shard {
            cfg,
            sessions,
            batches: Vec::new(),
            outcome: None,
            error: None,
        }
    }

    /// `(session id, frames submitted)` for every session of the shard.
    pub fn expected(&self) -> Vec<(usize, usize)> {
        self.sessions.iter().map(|s| (s.id, s.frames)).collect()
    }
}

/// Cost of one checkpoint probe, nanoseconds.
pub struct Checkpoint {
    pub bytes: usize,
    pub capture_ns: f64,
    pub to_json_ns: f64,
    pub parse_ns: f64,
    pub restore_ns: f64,
}

/// Wall-clock record of driving shards through `step_batch_with`.
#[derive(Default)]
pub struct Drive {
    /// From the first `start_sessions` to the last `finish`, minus
    /// checkpoint probes.
    pub wall_s: f64,
    /// One sample per `step_batch_with` call that served a batch.
    pub step_ms: Vec<f64>,
    pub start_s: f64,
    pub sessions_started: usize,
    pub finish_ms: Vec<f64>,
    pub checkpoints: Vec<Checkpoint>,
    pub probe_errors: Vec<String>,
}

/// Slots whose served count moved between two progress reads: the
/// membership of the batch the step in between executed.
fn batch_members(before: &[SessionProgress], after: &[SessionProgress]) -> Vec<usize> {
    before
        .iter()
        .zip(after)
        .enumerate()
        .filter(|(_, (b, a))| a.frames_served > b.frames_served)
        .map(|(slot, _)| slot)
        .collect()
}

/// Captures, serialises, parses and restores `state`, timing each call.
fn probe_checkpoint(
    rt: &ServeRuntime,
    cfg: &ServeConfig,
    state: &ServeState,
    tr: &mut Tracer,
    out: &mut Drive,
) {
    fn timed<R>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let t = Instant::now();
        let r = tr.span(name, f);
        (r, t.elapsed().as_nanos() as f64)
    }
    let (snap, capture_ns) = timed(tr, "snapshot.capture", || rt.snapshot(cfg, state));
    let (json, to_json_ns) = timed(tr, "snapshot.to_json", || snap.to_json());
    let (parsed, parse_ns) = timed(tr, "snapshot.parse", || ServeSnapshot::parse(&json));
    let parsed = match parsed {
        Ok(p) if p == snap => p,
        Ok(_) => {
            out.probe_errors
                .push("parsed checkpoint differs from the captured one".into());
            return;
        }
        Err(e) => {
            out.probe_errors
                .push(format!("checkpoint does not parse: {e}"));
            return;
        }
    };
    let (restored, restore_ns) = timed(tr, "snapshot.restore", || ServeRuntime::restore(&parsed));
    if let Err(e) = restored {
        out.probe_errors
            .push(format!("checkpoint does not restore: {e}"));
        return;
    }
    out.checkpoints.push(Checkpoint {
        bytes: json.len(),
        capture_ns,
        to_json_ns,
        parse_ns,
        restore_ns,
    });
}

/// Serves every shard to completion, one `step_batch_with` per live shard
/// in turn (the order `FleetRuntime::step` uses). Records batch membership
/// while tracing, and probes a checkpoint every `checkpoint_every` steps of
/// the first shard when asked: one host's checkpoints stand for every
/// host's, and each parse of a multi-megabyte checkpoint takes most of a
/// second.
fn drive(
    rt: &ServeRuntime,
    shards: &mut [Shard],
    checkpoint_every: Option<usize>,
    tr: &mut Tracer,
    out: &mut Drive,
) {
    let t0 = Instant::now();
    let mut probe_s = 0.0;
    let mut states: Vec<ServeState> = Vec::with_capacity(shards.len());
    for sh in shards.iter() {
        let t = Instant::now();
        states.push(tr.span("serve.start_sessions", || {
            rt.start_sessions(sh.sessions.clone())
        }));
        out.start_s += t.elapsed().as_secs_f64();
        out.sessions_started += sh.sessions.len();
    }
    let mut live = vec![true; shards.len()];
    let mut steps = vec![0usize; shards.len()];
    let opts = StepOptions::default();
    loop {
        let mut advanced = false;
        for (i, sh) in shards.iter_mut().enumerate() {
            if !live[i] {
                continue;
            }
            let before = tr.enabled().then(|| states[i].progress());
            let open = tr.begin("serve.step_batch");
            let t = Instant::now();
            let result = rt.step_batch_with(&sh.cfg, &mut states[i], &opts);
            let dt = t.elapsed();
            tr.end(open);
            match result {
                Ok(Some(_)) => {
                    advanced = true;
                    steps[i] += 1;
                    out.step_ms.push(dt.as_secs_f64() * 1e3);
                    if let Some(before) = before {
                        sh.batches
                            .push(batch_members(&before, &states[i].progress()));
                    }
                    if i == 0 && checkpoint_every.is_some_and(|n| steps[i].is_multiple_of(n)) {
                        let t = Instant::now();
                        probe_checkpoint(rt, &sh.cfg, &states[i], tr, out);
                        probe_s += t.elapsed().as_secs_f64();
                    }
                }
                Ok(None) => live[i] = false,
                Err(e) => {
                    sh.error = Some(e.to_string());
                    live[i] = false;
                }
            }
        }
        if !advanced {
            break;
        }
    }
    for (sh, state) in shards.iter_mut().zip(states) {
        let t = Instant::now();
        sh.outcome = Some(tr.span("serve.finish", || rt.finish(&sh.cfg, state)));
        out.finish_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.wall_s += t0.elapsed().as_secs_f64() - probe_s;
}

/// Sum of the f32 and int8 plan-cache counters of the shared ViT.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub arena_elems: usize,
}

impl PlanCounters {
    fn read(vit: &SparseViT) -> Self {
        let (f, q) = (vit.plan_stats(), vit.quant_plan_stats());
        PlanCounters {
            hits: f.hits + q.hits,
            misses: f.misses + q.misses,
            evictions: f.evictions + q.evictions,
            arena_elems: f.arena_elems + q.arena_elems,
        }
    }

    /// Counter deltas from `before` to `self`; the arena size is `self`'s.
    fn since(self, before: PlanCounters) -> PlanCounters {
        PlanCounters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            arena_elems: self.arena_elems,
        }
    }
}

/// The chaos workload's fault-injected fleet run.
pub struct ChaosRun {
    pub cfg: FleetConfig,
    pub wall_s: f64,
    pub result: Result<ChaosOutcome, String>,
}

/// Everything one measured phase produced.
pub struct Measured {
    /// Serve rounds, or the chaos fleet's fault-free host shards.
    pub shards: Vec<Shard>,
    pub drive: Drive,
    pub chaos: Option<ChaosRun>,
    /// Plan-cache deltas over the phase `wall_fps` is taken on.
    pub plans: PlanCounters,
    /// Errors raised before any step ran (precision set-up).
    pub errors: Vec<String>,
}

impl Measured {
    /// Wall time of the phase `wall_fps` is taken on.
    pub fn wall_s(&self) -> f64 {
        self.chaos.as_ref().map_or(self.drive.wall_s, |c| c.wall_s)
    }
}

/// Runs the measured phase: the serve rounds, or the chaos fleet followed
/// by the same fleet without faults (stepped host by host, so its steps
/// are visible). `probes` adds checkpoint probes at the workload's cadence.
pub fn measure(w: &Workload, seed: u64, ready: &Ready, probes: bool, tr: &mut Tracer) -> Measured {
    let rt = ready.host.serve();
    let open = tr.begin("measure");
    let mut m = Measured {
        shards: Vec::new(),
        drive: Drive::default(),
        chaos: None,
        plans: PlanCounters::default(),
        errors: Vec::new(),
    };
    let plans_before = PlanCounters::read(&ready.model.vit);
    match (w.kind, &ready.host) {
        (
            Kind::Serve {
                rounds,
                checkpoint_every,
                ..
            },
            _,
        ) => {
            for round in 0..rounds as u64 {
                let cfg = w.serve_config(derive_seed(seed, round));
                if let Err(e) = rt.apply_precision(&cfg) {
                    m.errors.push(e.to_string());
                }
                let mut shard = [Shard::new(cfg, rt.session_configs(&cfg))];
                // Probing every round would repeat the same few-megabyte
                // parses for no new information.
                let every = (probes && round == 0).then_some(checkpoint_every);
                drive(rt, &mut shard, every, tr, &mut m.drive);
                m.shards.extend(shard);
            }
            m.plans = PlanCounters::read(&ready.model.vit).since(plans_before);
        }
        (Kind::Chaos { hosts, .. }, Host::Fleet(fleet)) => {
            let mut cfg = FleetConfig::new(hosts, PLACEMENT, 0, 0);
            cfg.serve = w.serve_config(derive_seed(seed, 0));
            let chaos = chaos_config(&cfg, FAULT_PLAN_SEED);
            let t = Instant::now();
            let result = tr.span("fleet.serve_chaos", || fleet.serve_chaos(&cfg, &chaos));
            let wall_s = t.elapsed().as_secs_f64();
            m.plans = PlanCounters::read(&ready.model.vit).since(plans_before);
            m.chaos = Some(ChaosRun {
                cfg,
                wall_s,
                result: result.map_err(|e| e.to_string()),
            });

            // The same fleet without faults: the placement policy routes
            // each session to its host, and each host serves its shard.
            let sessions = fleet.session_configs(&cfg);
            let assignment = cfg.placement.assign(&sessions, hosts);
            let mut shards: Vec<Shard> = (0..hosts)
                .map(|h| {
                    let shard: Vec<SessionConfig> = sessions
                        .iter()
                        .zip(&assignment)
                        .filter(|&(_, &a)| a == h)
                        .map(|(s, _)| *s)
                        .collect();
                    let mut shard_cfg = cfg.serve;
                    shard_cfg.sessions = shard.len();
                    Shard::new(shard_cfg, shard)
                })
                .collect();
            if let Err(e) = rt.apply_precision(&cfg.serve) {
                m.errors.push(e.to_string());
            }
            let every = probes.then_some(CHAOS_CHECKPOINT_EVERY);
            drive(rt, &mut shards, every, tr, &mut m.drive);
            m.shards = shards;
        }
        (Kind::Chaos { .. }, Host::Serve(_)) => {
            unreachable!("set_up builds a fleet for the chaos workload")
        }
    }
    tr.end(open);
    m
}
