//! Executing one job: the layer calls (each timed, and wrapped in a
//! `bench.*` span when tracing), the verdict they produce, and the oracle
//! that checks it after the clock stops.

use crate::layers::{Layers, Timer};
use crate::plan::{DynType, JobSpec, Kind, Phase, Search, TypeSpec, THREADED_RUNS};
use rcn_analyze::{ExploreConfig, Registry};
use rcn_decide::brute::{check_discerning_brute, check_recording_brute};
use rcn_decide::{DiskCache, LevelResult, SearchEngine, TypeClassification, Witness};
use rcn_faults::{
    replay, replay_traced, shrink_counterexample_traced, CrashExplorer, CrashtestConfig,
    ExplorerMemo,
};
use rcn_mc::{model_check_traced, McConfig};
use rcn_model::{Schedule, System};
use rcn_obs::Tracer;
use rcn_runtime::{run_threaded_traced, RunOptions};
use rcn_spec::ValueId;
use rcn_valency::{check_consensus, theorem13_chain, BudgetedGraph, CriticalClass, Valency};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// State-space cap for the exact graphs (far above every job's size).
const MAX_STATES: usize = 5_000_000;

/// A planned job with its types and systems built.
pub struct Job {
    /// What the job is.
    pub spec: JobSpec,
    work: Work,
}

enum Work {
    Classify(DynType, usize),
    Crash(System, CrashtestConfig, Search),
    Threaded(System, u64),
    Consensus(System),
    Valency(System, u16, bool),
    Simulate(System, DynType),
    LintType(DynType),
    LintSystem(System),
    Warm(u32, Phase, Box<Work>),
}

impl Job {
    /// Builds the job's types and systems (setup work, not measured).
    pub fn new(spec: JobSpec) -> Job {
        let work = build(&spec.kind);
        Job { spec, work }
    }
}

fn build(kind: &Kind) -> Work {
    match kind {
        Kind::Classify { ty, cap } => Work::Classify(ty.build(), *cap),
        Kind::Crash {
            sys,
            model,
            search,
            crashes,
            depth,
        } => {
            let config = CrashtestConfig {
                fault_model: *model,
                max_crashes: *crashes,
                max_depth: *depth,
                ..CrashtestConfig::default()
            };
            Work::Crash(sys.build(), config, *search)
        }
        Kind::Threaded { sys, seed } => Work::Threaded(sys.build(), *seed),
        Kind::Consensus { sys } => Work::Consensus(sys.build()),
        Kind::Valency { sys, clamp, chain } => Work::Valency(sys.build(), *clamp, *chain),
        Kind::Simulate { object, ops } => {
            let object = object.build();
            let sys =
                rcn_universal::UniversalSim::system(object.clone(), ValueId::new(0), ops.clone());
            Work::Simulate(sys, object)
        }
        Kind::LintType { ty } => Work::LintType(ty.build()),
        Kind::LintSystem { sys } => Work::LintSystem(sys.build()),
        Kind::Warm { key, phase, target } => Work::Warm(*key, *phase, Box::new(build(target))),
    }
}

/// What a job concluded.
pub enum Verdict {
    /// A classification.
    Classify(TypeClassification),
    /// A crash search.
    Crash {
        /// The violating schedule, if any (shrunk for crashtest DFS jobs).
        schedule: Option<Schedule>,
        /// The whole budget was covered.
        exhaustive: bool,
        /// Whether the shrunk DFS schedule replayed confirmed.
        confirmed: Option<bool>,
    },
    /// Threaded runs that reached clean consensus.
    Threaded(u64),
    /// `check_consensus` found the protocol correct.
    Consensus(bool),
    /// Initial valency, critical class, and whether the Theorem 13 chain
    /// reached an n-recording configuration.
    Valency(Valency, Option<CriticalClass>, Option<bool>),
    /// The simulation is linearizable.
    Simulate(bool),
    /// Lint errors and warnings.
    Lint(usize, usize),
}

impl Verdict {
    /// A rendering that two runs of the same job must reproduce exactly
    /// (traced vs untraced; cold vs warm vs control).
    pub fn summary(&self) -> String {
        match self {
            Verdict::Classify(c) => format!(
                "CN {} RCN {} discerning {:?} recording {:?}",
                c.consensus_number,
                c.recoverable_consensus_number,
                c.discerning.witness,
                c.recording.witness
            ),
            Verdict::Crash {
                schedule,
                exhaustive,
                confirmed,
            } => format!(
                "{} exhaustive={exhaustive} confirmed={confirmed:?}",
                schedule
                    .as_ref()
                    .map_or("clean".into(), ToString::to_string)
            ),
            Verdict::Threaded(clean) => format!("{clean}/{THREADED_RUNS} clean"),
            Verdict::Consensus(correct) => format!("correct={correct}"),
            Verdict::Valency(initial, class, chain) => {
                format!("{initial} critical={class:?} chain={chain:?}")
            }
            Verdict::Simulate(linearizable) => format!("linearizable={linearizable}"),
            Verdict::Lint(errors, warnings) => format!("errors={errors} warnings={warnings}"),
        }
    }
}

/// One call into a layer: opens `span`, times `f`, adds the time to `timer`.
fn call<T>(
    tracer: &Tracer,
    timer: &mut Timer,
    span: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let guard = tracer.span(span);
    let started = Instant::now();
    let out = f();
    let elapsed = started.elapsed();
    drop(guard);
    timer.add(elapsed);
    (out, elapsed)
}

/// The executor: the tracer the layers report to, the per-layer
/// accumulators, and the warm-key directories in flight.
pub struct Exec {
    /// Handed to every layer call (disabled in untraced runs).
    pub tracer: Tracer,
    /// Per-layer time and counts.
    pub layers: Layers,
    registry: Registry,
    scratch: PathBuf,
    next_dir: u64,
    groups: HashMap<u32, Group>,
}

/// A warm key in flight: its directory and its cold run's verdict.
struct Group {
    dir: PathBuf,
    reference: Option<String>,
}

/// A warm job's phase and cache or memo directory (`None`: control).
type WarmDir = Option<(Phase, Option<PathBuf>)>;

impl Exec {
    /// An executor whose warm-key directories go under `scratch`.
    pub fn new(scratch: &Path, tracer: Tracer) -> Exec {
        Exec {
            tracer,
            layers: Layers::default(),
            registry: Registry::with_defaults(),
            scratch: scratch.to_path_buf(),
            next_dir: 0,
            groups: HashMap::new(),
        }
    }

    /// Executes the job's layer calls: the measured part of a job.
    ///
    /// # Errors
    ///
    /// A layer's error (search or exploration failure), rendered.
    pub fn execute(&mut self, job: &Job) -> Result<Verdict, String> {
        let t = &self.tracer;
        let layers = &mut self.layers;
        match &job.work {
            Work::Classify(ty, cap) => self.classify(ty, *cap, None),
            Work::Crash(sys, config, Search::Dfs) => Ok(self.dfs(sys, *config, None)),
            Work::Crash(sys, config, Search::Bfs) => {
                let mc = McConfig {
                    max_crashes: config.max_crashes,
                    max_depth: config.max_depth,
                    max_states: config.max_states,
                    fault_model: config.fault_model,
                };
                let (report, _) = call(t, &mut layers.check, "bench.mc.check", || {
                    model_check_traced(sys, mc, t)
                });
                layers.add_mc(&report.stats);
                Ok(Verdict::Crash {
                    schedule: report.counterexample.map(|c| c.schedule),
                    exhaustive: report.coverage.is_exhaustive(),
                    confirmed: None,
                })
            }
            Work::Threaded(sys, seed) => {
                let mut clean = 0;
                for run in 0..THREADED_RUNS {
                    let options = RunOptions {
                        seed: seed.wrapping_add(run),
                        ..RunOptions::default()
                    };
                    let (report, _) = call(t, &mut layers.run, "bench.runtime.run", || {
                        run_threaded_traced(sys, options, t)
                    });
                    layers.runtime.0 += report.total_steps() as u64;
                    layers.runtime.1 += report.total_crashes() as u64;
                    clean += u64::from(report.is_clean_consensus());
                }
                Ok(Verdict::Threaded(clean))
            }
            Work::Consensus(sys) => {
                let (report, _) = call(t, &mut layers.graph, "bench.valency.graph", || {
                    check_consensus(sys, MAX_STATES)
                });
                let report = report.map_err(|e| e.to_string())?;
                layers.configs += report.configs as u64;
                Ok(Verdict::Consensus(report.verdict.is_correct()))
            }
            Work::Valency(sys, clamp, chain) => {
                let (graph, _) = call(t, &mut layers.budgeted, "bench.valency.budgeted", || {
                    BudgetedGraph::explore(sys, 1, *clamp, MAX_STATES)
                });
                let graph = graph.map_err(|e| e.to_string())?;
                layers.budgeted_states += graph.len() as u64;
                let (critical, _) = call(t, &mut layers.critical, "bench.valency.critical", || {
                    graph.find_critical().map(|id| graph.analyze_critical(id))
                });
                let reached = if *chain {
                    let (report, _) = call(t, &mut layers.chain, "bench.valency.chain", || {
                        theorem13_chain(sys, 1, *clamp, MAX_STATES)
                    });
                    Some(report.map_err(|e| e.to_string())?.reached_recording)
                } else {
                    None
                };
                Ok(Verdict::Valency(
                    graph.initial_valency(),
                    critical.and_then(|info| info.class),
                    reached,
                ))
            }
            Work::Simulate(sys, object) => {
                let (report, _) = call(t, &mut layers.verify, "bench.universal.verify", || {
                    rcn_universal::verify_simulation(sys, &**object, ValueId::new(0), MAX_STATES)
                });
                let report = report.map_err(|e| e.to_string())?;
                layers.sim_configs += report.configs as u64;
                Ok(Verdict::Simulate(report.is_linearizable()))
            }
            Work::LintType(ty) => {
                let registry = &self.registry;
                let (report, _) = call(t, &mut layers.lint_type, "bench.analyze.lint_type", || {
                    registry.lint_type_traced(&**ty, t)
                });
                Ok(Verdict::Lint(report.errors(), report.warnings()))
            }
            Work::LintSystem(sys) => {
                let registry = &self.registry;
                let timer = &mut layers.lint_system;
                let (report, _) = call(t, timer, "bench.analyze.lint_system", || {
                    registry.lint_system_traced(sys, &ExploreConfig::default(), t)
                });
                Ok(Verdict::Lint(report.errors(), report.warnings()))
            }
            Work::Warm(key, phase, target) => {
                let dir = match phase {
                    Phase::Control => None,
                    Phase::Cold => Some(self.fresh_group(*key)),
                    Phase::Warm => Some(match self.groups.get(key) {
                        Some(group) => group.dir.clone(),
                        None => self.fresh_group(*key),
                    }),
                };
                match &**target {
                    Work::Classify(ty, cap) => self.classify(ty, *cap, Some((*phase, dir))),
                    Work::Crash(sys, config, _) => Ok(self.dfs(sys, *config, Some((*phase, dir)))),
                    _ => unreachable!("warm keys are classify or crashtest requests"),
                }
            }
        }
    }

    fn fresh_group(&mut self, key: u32) -> PathBuf {
        self.next_dir += 1;
        let dir = self.scratch.join(format!("key-{}", self.next_dir));
        let group = Group {
            dir: dir.clone(),
            reference: None,
        };
        self.groups.insert(key, group);
        dir
    }

    fn classify(&mut self, ty: &DynType, cap: usize, warm: WarmDir) -> Result<Verdict, String> {
        let mut engine = SearchEngine::sequential();
        if let Some((_, Some(dir))) = &warm {
            engine = engine.with_disk_cache(DiskCache::new(dir));
        }
        let engine = engine.with_tracer(self.tracer.clone());
        let timer = &mut self.layers.classify;
        let (c, elapsed) = call(&self.tracer, timer, "bench.decide.classify", || {
            engine.classify(&**ty, cap)
        });
        self.layers.add_search(&engine.stats());
        if let Some((phase, _)) = warm {
            self.layers.disk.timer(phase).add(elapsed);
        }
        c.map(Verdict::Classify).map_err(|e| e.to_string())
    }

    /// A DFS crash search. Crashtest jobs shrink and replay a
    /// counterexample; warm keys (`warm` set) explore only.
    fn dfs(&mut self, sys: &System, config: CrashtestConfig, warm: WarmDir) -> Verdict {
        let t = &self.tracer;
        let layers = &mut self.layers;
        let mut explorer = CrashExplorer::new(sys, config).with_tracer(t.clone());
        if let Some((_, Some(dir))) = &warm {
            explorer = explorer.with_memo(ExplorerMemo::new(dir));
        }
        let (report, elapsed) = call(t, &mut layers.explore, "bench.faults.explore", || {
            explorer.explore()
        });
        layers.add_explorer(&report.stats);
        let exhaustive = report.stats.exhaustive();
        let warm_phase = warm.map(|(phase, _)| phase);
        if let Some(phase) = warm_phase {
            layers.memo.timer(phase).add(elapsed);
        }
        let cex = match report.counterexample {
            Some(cex) if warm_phase.is_none() => cex,
            found => {
                return Verdict::Crash {
                    schedule: found.map(|c| c.schedule),
                    exhaustive,
                    confirmed: None,
                }
            }
        };
        let (small, _) = call(t, &mut layers.shrink, "bench.faults.shrink", || {
            shrink_counterexample_traced(sys, &cex, t)
        });
        layers.shrink_lengths.0 += cex.schedule.len() as u64;
        layers.shrink_lengths.1 += small.schedule.len() as u64;
        let (replayed, _) = call(t, &mut layers.replay, "bench.faults.replay", || {
            replay_traced(sys, &small.schedule, t)
        });
        Verdict::Crash {
            schedule: Some(small.schedule),
            exhaustive,
            confirmed: Some(replayed.confirmed()),
        }
    }

    /// Unmeasured follow-up of a job. For a warm key: the directory size
    /// after its cold run, the comparison of later verdicts with the cold
    /// one, and the directory's removal after the control run.
    ///
    /// # Errors
    ///
    /// A warm or control verdict that differs from its key's cold verdict.
    pub fn after(&mut self, job: &Job, verdict: &Verdict) -> Result<(), String> {
        let Work::Warm(key, phase, target) = &job.work else {
            return Ok(());
        };
        let summary = verdict.summary();
        let result = match self.groups.get_mut(key) {
            Some(group) => match &group.reference {
                None => {
                    let bytes = dir_bytes(&group.dir);
                    match **target {
                        Work::Classify(..) => self.layers.disk.bytes += bytes,
                        _ => self.layers.memo.bytes += bytes,
                    }
                    group.reference = Some(summary);
                    Ok(())
                }
                Some(reference) if *reference == summary => Ok(()),
                Some(reference) => Err(format!(
                    "{phase:?} verdict `{summary}` differs from the cold verdict `{reference}`"
                )),
            },
            None => Ok(()),
        };
        if *phase == Phase::Control {
            self.end_group(*key);
        }
        result
    }

    fn end_group(&mut self, key: u32) {
        if let Some(group) = self.groups.remove(&key) {
            // A directory that cannot be removed here goes with the
            // scratch root at exit.
            let _ = std::fs::remove_dir_all(&group.dir);
        }
    }

    /// Ends every warm key in flight (after the set-up warm-ups).
    pub fn end_groups(&mut self) {
        let keys: Vec<u32> = self.groups.keys().copied().collect();
        for key in keys {
            self.end_group(key);
        }
    }
}

/// Total size of the files under `dir` (0 if it is missing).
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The pinned `(CN, RCN)` of each catalogue classification (E5, E8, and
/// the deciders at the commit that defined the benchmark; `≤` marks the
/// upper bounds of non-readable types).
fn pinned(spec: &str, cap: usize) -> (&'static str, &'static str) {
    match (spec, cap) {
        ("tas" | "faa:4" | "swap:2", 4) => ("2", "1"),
        ("sticky" | "consensus", 4) => ("≥4", "≥4"),
        ("tnn:4,3", 5) => ("4", "3"),
        ("xn:4", 5) => ("4", "2"),
        ("tnn:5,2", 6) => ("≤5", "≤4"),
        ("team-counter:5", 6) => ("5", "4"),
        ("tnn:6,1", 7) => ("≤6", "≤5"),
        ("cas:3", 5) | ("cas:4", 5) => ("≥5", "≥5"),
        ("cas:3", 6) => ("≥6", "≥6"),
        _ => unreachable!("no pinned classification for {spec} at cap {cap}"),
    }
}

/// A level's witness re-checked by brute-force enumeration.
fn witness_holds(
    ty: &DynType,
    result: &LevelResult,
    brute: fn(&DynType, &Witness) -> bool,
) -> bool {
    match &result.witness {
        Some(w) => w.n() == result.level && brute(ty, w),
        None => result.level == 1,
    }
}

/// The oracle: checks a verdict against what is known about its job.
///
/// # Errors
///
/// What is wrong with the verdict.
pub fn check(job: &Job, verdict: &Verdict) -> Result<(), String> {
    check_kind(&job.spec.kind, &job.work, verdict)
        .map_err(|what| format!("{what} (verdict: {})", verdict.summary()))
}

fn check_kind(kind: &Kind, work: &Work, verdict: &Verdict) -> Result<(), String> {
    match (kind, work, verdict) {
        (Kind::Warm { target, .. }, Work::Warm(_, _, work), _) => check_kind(target, work, verdict),
        (Kind::Classify { ty, cap }, Work::Classify(built, _), Verdict::Classify(c)) => match ty {
            TypeSpec::Named(spec) => {
                let (cn, rcn) = pinned(spec, *cap);
                let got_cn = c.consensus_number.to_string();
                let got_rcn = c.recoverable_consensus_number.to_string();
                if got_cn == cn && got_rcn == rcn {
                    Ok(())
                } else {
                    Err(format!("expected CN {cn} RCN {rcn}"))
                }
            }
            TypeSpec::Random { .. } => {
                let discerning = |ty: &DynType, w: &Witness| check_discerning_brute(&**ty, w);
                let recording = |ty: &DynType, w: &Witness| check_recording_brute(&**ty, w);
                if witness_holds(built, &c.discerning, discerning)
                    && witness_holds(built, &c.recording, recording)
                {
                    Ok(())
                } else {
                    Err("a witness fails the brute-force check".into())
                }
            }
        },
        (
            Kind::Crash { sys, search, .. },
            Work::Crash(built, ..),
            Verdict::Crash {
                schedule,
                exhaustive,
                confirmed,
            },
        ) => {
            if schedule.is_none() != sys.correct() {
                return Err(format!("expected clean = {}", sys.correct()));
            }
            if !exhaustive {
                return Err("coverage is not exhaustive".into());
            }
            match (schedule, search) {
                (Some(_), Search::Dfs) if *confirmed == Some(false) => {
                    Err("the shrunk counterexample did not replay confirmed".into())
                }
                (Some(s), Search::Bfs) if !replay(built, s).confirmed() => {
                    Err("the BFS counterexample did not replay confirmed".into())
                }
                _ => Ok(()),
            }
        }
        (Kind::Threaded { .. }, _, Verdict::Threaded(clean)) if *clean == THREADED_RUNS => Ok(()),
        (Kind::Consensus { sys }, _, Verdict::Consensus(correct)) if *correct == sys.correct() => {
            Ok(())
        }
        (Kind::Valency { chain, .. }, _, Verdict::Valency(initial, class, reached)) => {
            if *initial == Valency::Bivalent
                && *class == Some(CriticalClass::Recording)
                && (!chain || *reached == Some(true))
            {
                Ok(())
            } else {
                Err("expected a bivalent start and an n-recording critical class".into())
            }
        }
        (Kind::Simulate { .. }, _, Verdict::Simulate(true)) => Ok(()),
        (Kind::LintType { .. } | Kind::LintSystem { .. }, _, Verdict::Lint(0, 0)) => Ok(()),
        _ => Err("unexpected verdict".into()),
    }
}
