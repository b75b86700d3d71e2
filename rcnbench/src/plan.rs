//! Workloads, their job classes, and the seeded job list.
//!
//! A workload's job list is `blocks_per_pass` blocks. Every block holds
//! the same fixed count of each job class (the block *recipe*); the seed
//! only orders the jobs inside a block and draws the inputs inside each
//! class (random tables, consensus inputs, runtime seeds). A measured run
//! executes whole blocks, so every run sees the class mix exactly, and
//! cycles through the list, so every job runs several times.

use crate::rng::SplitMix;
use rcn_decide::synthesis::{random_readable_table, rng as table_rng};
use rcn_model::{FaultModel, System};
use rcn_protocols::{TasConsensus, TnnRecoverable, TnnWaitFree, TournamentConsensus};
use rcn_spec::zoo::{
    BoundedQueue, BoundedStack, CompareAndSwap, ConsensusObject, FetchAndAdd, MultiConsensus,
    Register, StickyBit, Swap, TeamCounter, TestAndSet, Tnn, WithRead,
};
use rcn_spec::{ObjectType, TableType};
use std::fmt;
use std::sync::Arc;

/// A shared, dynamically typed object type.
pub type DynType = Arc<dyn ObjectType + Send + Sync>;

/// The seed runs use unless told otherwise (seed 2 is the hold-out seed,
/// kept for confirming a claim on inputs it was not tuned on).
pub const DEFAULT_SEED: u64 = 1;

/// The four fault models, in the order crash classes cycle through them.
pub const FAULT_MODELS: [FaultModel; 4] = [
    FaultModel::PER_PROCESS,
    FaultModel::SYSTEM,
    FaultModel::MID_OP,
    FaultModel::ALL,
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `SearchEngine::classify` on catalogue types and random tables.
    Classify,
    /// Crash-placement search (DFS + shrink + replay, BFS) and threaded runs.
    Crashtest,
    /// Exact graphs, valency machinery, universal simulation and lints.
    Certify,
    /// The persistent `DiskCache` and `ExplorerMemo`: cold, warm, control.
    Warm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Classify,
        Workload::Crashtest,
        Workload::Certify,
        Workload::Warm,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Classify => "classify",
            Workload::Crashtest => "crashtest",
            Workload::Certify => "certify",
            Workload::Warm => "warm",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: the layers it stresses and the ones it
    /// bypasses (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Classify => "rcn-decide only: kernel and partition sweeps, refutations and early-exit confirmations; bypasses faults, mc, valency and both persistence layers",
            Workload::Crashtest => "rcn-faults, rcn-mc, rcn-model and rcn-runtime: violations that exit early then shrink and replay, exhaustive certifications; bypasses rcn-decide",
            Workload::Certify => "rcn-valency, rcn-universal and rcn-analyze: exact configuration graphs, E_z valency and Theorem 13 chains, simulations, lints",
            Workload::Warm => "the persistence layers: DiskCache and ExplorerMemo cold writes, warm reads and no-cache controls on the same keys",
        }
    }

    /// Blocks in one pass of the job list: the fewest that make at least
    /// 1000 jobs, the least p99 needs, so that a run makes as many passes
    /// as it can and each job gets as many executions to take the median
    /// of (a pass takes 4–6 s of a 25 s run on the reference VM, 2–3 s on
    /// `warm`).
    pub fn blocks_per_pass(self) -> usize {
        match self {
            Workload::Classify => 5,
            Workload::Crashtest => 7,
            Workload::Certify => 3,
            Workload::Warm => 2,
        }
    }

    /// How steeply the workload's job times follow the calibration
    /// kernel's: the exponent `e` in `time ∝ kernel time^e` (see
    /// [`crate::calib`]). Each is the value that left the end-to-end
    /// timings of 25–35 runs on the reference VM, at 0.5 to 0.93 of the
    /// reference speed, least dependent on the speed. The heavy searches
    /// slow more steeply than the kernel: `crashtest`'s DFS searches about
    /// 1.35 times as steeply, its BFS searches about as steeply; `warm`'s
    /// slowest jobs read files.
    pub fn sensitivity(self) -> f64 {
        match self {
            Workload::Classify => 1.1,
            Workload::Crashtest => 1.25,
            Workload::Certify => 1.2,
            Workload::Warm => 1.0,
        }
    }

    /// The block recipe: how many units of each kind a block holds.
    fn recipe(self) -> &'static [Unit] {
        match self {
            Workload::Classify => CLASSIFY,
            Workload::Crashtest => CRASHTEST,
            Workload::Certify => CERTIFY,
            Workload::Warm => WARM,
        }
    }

    /// Jobs in one block (the same for every block and seed).
    pub fn block_len(self) -> usize {
        self.recipe().iter().map(|u| u.count * u.jobs).sum()
    }

    /// Jobs in one pass of the job list (`N`).
    pub fn jobs_per_pass(self) -> usize {
        self.block_len() * self.blocks_per_pass()
    }

    /// Per-block job count of each class, in recipe order.
    pub fn class_counts(self) -> Vec<(&'static str, usize)> {
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for job in block_units(self, &mut SplitMix::new(0))
            .into_iter()
            .flatten()
        {
            match counts.iter_mut().find(|(class, _)| *class == job.class) {
                Some((_, n)) => *n += 1,
                None => counts.push((job.class, 1)),
            }
        }
        counts
    }
}

/// One line of a block recipe: `count` units, each of `jobs` jobs built
/// by `make(i, rng)` for the `i`-th unit of the line.
struct Unit {
    count: usize,
    jobs: usize,
    make: fn(usize, &mut SplitMix) -> Vec<JobSpec>,
}

const fn unit(count: usize, make: fn(usize, &mut SplitMix) -> Vec<JobSpec>) -> Unit {
    Unit {
        count,
        jobs: 1,
        make,
    }
}

/// The seeded job list of one workload: `blocks_per_pass` blocks.
pub fn plan(workload: Workload, seed: u64) -> Vec<Vec<JobSpec>> {
    let mut rng = SplitMix::new(seed);
    (0..workload.blocks_per_pass())
        .map(|_| plan_block(workload, &mut rng))
        .collect()
}

/// One block: the recipe's units in seeded order. Warm-key groups stay
/// contiguous (cold, four warm, control).
fn plan_block(workload: Workload, rng: &mut SplitMix) -> Vec<JobSpec> {
    let mut units = block_units(workload, rng);
    rng.shuffle(&mut units);
    units.into_iter().flatten().collect()
}

/// Every unit of the recipe, in recipe order. A warm key is its unit's
/// index in the block.
fn block_units(workload: Workload, rng: &mut SplitMix) -> Vec<Vec<JobSpec>> {
    let mut units: Vec<Vec<JobSpec>> = Vec::new();
    for line in workload.recipe() {
        for i in 0..line.count {
            let mut jobs = (line.make)(i, rng);
            debug_assert_eq!(jobs.len(), line.jobs);
            for job in &mut jobs {
                if let Kind::Warm { key, .. } = &mut job.kind {
                    *key = units.len() as u32;
                }
            }
            units.push(jobs);
        }
    }
    units
}

/// The set-up's warm-up jobs: the first job of each class in recipe
/// order of the first block, so every seed warms up the same kinds of job.
pub fn warmups(workload: Workload, seed: u64) -> Vec<JobSpec> {
    let mut seen: Vec<&'static str> = Vec::new();
    block_units(workload, &mut SplitMix::new(seed))
        .into_iter()
        .flatten()
        .filter(|job| {
            let first = !seen.contains(&job.class);
            seen.push(job.class);
            first
        })
        .collect()
}

/// The job list as text, one job per line: what the seed decided.
pub fn listing(blocks: &[Vec<JobSpec>]) -> String {
    let mut out = String::new();
    for (b, block) in blocks.iter().enumerate() {
        for job in block {
            out.push_str(&format!("{b:>3} {:<24} {}\n", job.class, job.kind));
        }
    }
    out
}

/// One job: its class and what it asks of the layers.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The job class (`<workload>.<class>`).
    pub class: &'static str,
    /// The request.
    pub kind: Kind,
}

/// How a crash job searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Search {
    /// `CrashExplorer::explore`, then `shrink_counterexample` and `replay`
    /// when a counterexample is found.
    Dfs,
    /// `rcn_mc::model_check`.
    Bfs,
}

/// The three jobs of a warm-cache key, in the order they run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// First run: writes a fresh cache or memo directory.
    Cold,
    /// Repeat run: reads the directory the cold run wrote.
    Warm,
    /// The same request with no cache or memo attached.
    Control,
}

/// A request to the layers.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// `SearchEngine::classify(ty, cap)`.
    Classify {
        /// The type.
        ty: TypeSpec,
        /// The level cap.
        cap: usize,
    },
    /// One crash-placement search.
    Crash {
        /// The protocol system.
        sys: SysSpec,
        /// The adversary.
        model: FaultModel,
        /// DFS explorer or BFS checker.
        search: Search,
        /// Crashes per process.
        crashes: usize,
        /// Events per schedule.
        depth: usize,
    },
    /// `run_threaded` once per seed.
    Threaded {
        /// The (2-process, correct) protocol system.
        sys: SysSpec,
        /// First runtime seed; the runs use `seed..seed + THREADED_RUNS`.
        seed: u64,
    },
    /// `check_consensus` on the exact configuration graph.
    Consensus {
        /// The protocol system.
        sys: SysSpec,
    },
    /// `BudgetedGraph::explore` (`z = 1`), `find_critical`,
    /// `analyze_critical`, and optionally `theorem13_chain`.
    Valency {
        /// The protocol system.
        sys: SysSpec,
        /// The allowance clamp.
        clamp: u16,
        /// Whether to walk the Theorem 13 chain too.
        chain: bool,
    },
    /// `verify_simulation` of the one-shot universal construction.
    Simulate {
        /// The simulated object.
        object: TypeSpec,
        /// The op each process applies.
        ops: Vec<u32>,
    },
    /// `Registry::lint_type`.
    LintType {
        /// The linted type.
        ty: TypeSpec,
    },
    /// `Registry::lint_system` at the default budget.
    LintSystem {
        /// The linted system.
        sys: SysSpec,
    },
    /// One job of a warm-cache key group.
    Warm {
        /// The key's unit index in its block (set when the block is planned).
        key: u32,
        /// Cold, warm or control.
        phase: Phase,
        /// A `Classify` or a DFS `Crash` request (explore only).
        target: Box<Kind>,
    },
}

/// Runs in one threaded job.
pub const THREADED_RUNS: u64 = 20;

/// An object type: a catalogue expression or a seeded random table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeSpec {
    /// `name[:args][+read]`, e.g. `tnn:4,3` or `tas+read`.
    Named(&'static str),
    /// `random_readable_table(rng(seed), values, mutators)`.
    Random {
        /// Values of the table.
        values: usize,
        /// Mutating operations (a read op is added).
        mutators: usize,
        /// Seed of `rcn_decide::synthesis::rng`.
        seed: u64,
    },
}

impl TypeSpec {
    /// Builds the type.
    pub fn build(&self) -> DynType {
        match self {
            TypeSpec::Named(spec) => named_type(spec),
            TypeSpec::Random {
                values,
                mutators,
                seed,
            } => Arc::new(random_readable_table(
                &mut table_rng(*seed),
                *values,
                *mutators,
            )),
        }
    }
}

fn named_type(spec: &str) -> DynType {
    if let Some(base) = spec.strip_suffix("+read") {
        return Arc::new(WithRead::new(TableType::from_type(&*named_type(base))));
    }
    let (name, args) = spec.split_once(':').unwrap_or((spec, ""));
    let arg: Vec<usize> = args.split(',').filter_map(|a| a.parse().ok()).collect();
    match name {
        "register" => Arc::new(Register::new(arg[0])),
        "tas" => Arc::new(TestAndSet::new()),
        "faa" => Arc::new(FetchAndAdd::new(arg[0])),
        "swap" => Arc::new(Swap::new(arg[0])),
        "cas" => Arc::new(CompareAndSwap::new(arg[0])),
        "sticky" => Arc::new(StickyBit::new()),
        "consensus" => Arc::new(ConsensusObject::new()),
        "mconsensus" => Arc::new(MultiConsensus::new(arg[0])),
        "queue" => Arc::new(BoundedQueue::new(arg[0], arg[1])),
        "stack" => Arc::new(BoundedStack::new(arg[0], arg[1])),
        "tnn" => Arc::new(Tnn::new(arg[0], arg[1])),
        "team-counter" => Arc::new(TeamCounter::new(arg[0])),
        "xn" => Arc::new(rcn_core::shipped_xn(arg[0]).expect("X_4 is shipped")),
        other => unreachable!("no catalogue type `{other}` in the benchmark's recipes"),
    }
}

/// A protocol system.
#[derive(Debug, Clone, PartialEq)]
pub enum SysSpec {
    /// Golab's test-and-set protocol (broken under crashes).
    Tas(Vec<u32>),
    /// The wait-free `T_{n,n'}` protocol (broken under crashes).
    TnnWaitFree(usize, usize, Vec<u32>),
    /// The paper's recoverable `T_{n,n'}` algorithm (correct for ≤ n').
    TnnRecoverable(usize, usize, Vec<u32>),
    /// The tournament construction over a type with a recording witness.
    Tournament(TypeSpec, Vec<u32>),
}

impl SysSpec {
    /// Builds the system.
    pub fn build(&self) -> System {
        match self {
            SysSpec::Tas(inputs) => TasConsensus::system(inputs.clone()),
            SysSpec::TnnWaitFree(n, np, inputs) => TnnWaitFree::system(*n, *np, inputs.clone()),
            SysSpec::TnnRecoverable(n, np, inputs) => {
                TnnRecoverable::system(*n, *np, inputs.clone())
            }
            SysSpec::Tournament(ty, inputs) => {
                TournamentConsensus::try_new(ty.build(), inputs.clone())
                    .expect("planned tournaments are over types with a recording witness")
            }
        }
    }

    /// Whether the protocol solves recoverable consensus for its inputs
    /// (E3, E7, E18): the crash-free-broken protocols fail on mixed inputs,
    /// `T_{n,n'}`'s algorithm is correct for at most n' processes, and
    /// tournaments are correct.
    pub fn correct(&self) -> bool {
        match self {
            SysSpec::Tas(_) | SysSpec::TnnWaitFree(..) => false,
            SysSpec::TnnRecoverable(_, np, inputs) => inputs.len() <= *np,
            SysSpec::Tournament(..) => true,
        }
    }
}

fn bits(inputs: &[u32]) -> String {
    inputs
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

impl fmt::Display for TypeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeSpec::Named(spec) => f.write_str(spec),
            TypeSpec::Random {
                values,
                mutators,
                seed,
            } => write!(f, "random(v={values},m={mutators},seed={seed:#018x})"),
        }
    }
}

impl fmt::Display for SysSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SysSpec::Tas(i) => write!(f, "tas[{}]", bits(i)),
            SysSpec::TnnWaitFree(n, np, i) => write!(f, "tnn-wait-free:{n},{np}[{}]", bits(i)),
            SysSpec::TnnRecoverable(n, np, i) => write!(f, "tnn-recoverable:{n},{np}[{}]", bits(i)),
            SysSpec::Tournament(ty, i) => write!(f, "tournament:{ty}[{}]", bits(i)),
        }
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Kind::Classify { ty, cap } => write!(f, "classify {ty} cap={cap}"),
            Kind::Crash {
                sys,
                model,
                search,
                crashes,
                depth,
            } => {
                let engine = match search {
                    Search::Dfs => "dfs",
                    Search::Bfs => "bfs",
                };
                write!(
                    f,
                    "crashtest {engine} {sys} model={model} crashes={crashes} depth={depth}"
                )
            }
            Kind::Threaded { sys, seed } => {
                write!(f, "threaded {sys} runs={THREADED_RUNS} seed={seed:#018x}")
            }
            Kind::Consensus { sys } => write!(f, "check_consensus {sys}"),
            Kind::Valency { sys, clamp, chain } => write!(
                f,
                "valency {sys} z=1 clamp={clamp}{}",
                if *chain { " chain" } else { "" }
            ),
            Kind::Simulate { object, ops } => write!(f, "simulate {object} ops=[{}]", bits(ops)),
            Kind::LintType { ty } => write!(f, "lint_type {ty}"),
            Kind::LintSystem { sys } => write!(f, "lint_system {sys}"),
            Kind::Warm { key, phase, target } => write!(f, "warm#{key} {phase:?} {target}"),
        }
    }
}

fn job(class: &'static str, kind: Kind) -> Vec<JobSpec> {
    vec![JobSpec { class, kind }]
}

fn classify(ty: &'static str, cap: usize) -> Kind {
    Kind::Classify {
        ty: TypeSpec::Named(ty),
        cap,
    }
}

/// A random readable table: 3–5 values, 2–3 mutators, cycling by `i`.
fn random_table(i: usize, rng: &mut SplitMix) -> TypeSpec {
    TypeSpec::Random {
        values: 3 + i % 3,
        mutators: 2 + (i / 3) % 2,
        seed: rng.next_u64(),
    }
}

/// A crash search under fault model `i % 4` at the default budget (2
/// crashes per process, 16 events).
fn crash(sys: SysSpec, i: usize, search: Search) -> Kind {
    Kind::Crash {
        sys,
        model: FAULT_MODELS[i % 4],
        search,
        crashes: 2,
        depth: 16,
    }
}

/// The four input pairs of a 2-process search.
const PAIRS: [[u32; 2]; 4] = [[0, 0], [0, 1], [1, 0], [1, 1]];

/// The `i`-th input pair of a class: with fault model `i % 4`
/// ([`crash`]), every 16 consecutive searches of a class cover each model
/// on each pair once.
fn pair(i: usize) -> Vec<u32> {
    PAIRS[(i + i / 4) % 4].to_vec()
}

/// `tas` or `tnn-wait-free:2,1` by `i`, on the mixed pair `(i / 2) % 2`
/// picks: both violate.
fn broken(i: usize) -> SysSpec {
    let inputs = PAIRS[1 + (i / 2) % 2].to_vec();
    if i.is_multiple_of(2) {
        SysSpec::Tas(inputs)
    } else {
        SysSpec::TnnWaitFree(2, 1, inputs)
    }
}

fn sticky_tournament(inputs: Vec<u32>) -> SysSpec {
    SysSpec::Tournament(TypeSpec::Named("sticky"), inputs)
}

/// The classify recipe (200 jobs). The counts put p50 inside `tnn43` (from
/// 43% to 63% of the jobs) and p99 in the middle of `cas3`, the class
/// below the slowest, `cas4`. Random tables are 28%, not more: a
/// random-table median moves with the seed, so p50 must not fall among
/// them, and every job above p50 costs at least a `tnn43`, so the heavy
/// classes are few to keep a pass short.
const CLASSIFY: &[Unit] = &[
    unit(30, |i, _| {
        const CHEAP: [&str; 5] = ["tas", "faa:4", "swap:2", "sticky", "consensus"];
        job("classify.cheap", classify(CHEAP[i % 5], 4))
    }),
    unit(56, |i, rng| {
        let ty = random_table(i, rng);
        job(
            "classify.random",
            Kind::Classify {
                ty,
                cap: 4 + (i / 6) % 2,
            },
        )
    }),
    unit(40, |_, _| job("classify.tnn43", classify("tnn:4,3", 5))),
    unit(40, |_, _| job("classify.xn4", classify("xn:4", 5))),
    unit(14, |_, _| {
        job("classify.tc5", classify("team-counter:5", 6))
    }),
    unit(14, |_, _| job("classify.tnn52", classify("tnn:5,2", 6))),
    unit(3, |_, _| job("classify.tnn61", classify("tnn:6,1", 7))),
    unit(2, |_, _| job("classify.cas3", classify("cas:3", 6))),
    unit(1, |_, _| job("classify.cas4", classify("cas:4", 5))),
];

/// The crashtest recipe (150 jobs): every 2-process protocol under all
/// four fault models, DFS and BFS, at the default budget, and the
/// 3-process tournament (fixed inputs, 1 crash per process, 12 events)
/// under all four models, DFS and BFS.
///
/// The searches' inputs are fixed by their index, not drawn from the seed
/// (their cost moves up to 4.5× with the input pair), so every seed has
/// the same searches and the percentiles fall on the same ones; the seed
/// orders the jobs and draws the threaded runs' inputs and runtime seeds.
/// p50 falls inside `dfs_tour2`, among its system-model searches (about
/// 1.4 ms), well above every `threaded` job (about 0.6 ms): those spawn
/// and join threads, and spells of load on the second vCPU have slowed
/// them by 45% while the single-thread searches held still. The
/// all-models DFS, the slowest search, runs three times a block, so p99
/// falls in the middle of `dfs_tour3_all`.
const CRASHTEST: &[Unit] = &[
    unit(36, |i, rng| {
        let sys = if i.is_multiple_of(2) {
            SysSpec::TnnRecoverable(5, 2, rng.inputs(2))
        } else {
            sticky_tournament(rng.inputs(2))
        };
        let seed = rng.next_u64();
        job("crash.threaded", Kind::Threaded { sys, seed })
    }),
    unit(8, |i, _| {
        job("crash.dfs_violation", crash(broken(i), i / 2, Search::Dfs))
    }),
    unit(8, |i, _| {
        job("crash.bfs_violation", crash(broken(i), i / 2, Search::Bfs))
    }),
    unit(4, |i, _| {
        let sys = SysSpec::TnnRecoverable(5, 2, pair(i));
        job("crash.dfs_recoverable", crash(sys, i, Search::Dfs))
    }),
    unit(4, |i, _| {
        let sys = SysSpec::TnnRecoverable(5, 2, pair(i));
        job("crash.bfs_recoverable", crash(sys, i, Search::Bfs))
    }),
    unit(40, |i, _| {
        let sys = sticky_tournament(pair(i));
        job("crash.dfs_tour2", crash(sys, i, Search::Dfs))
    }),
    unit(40, |i, _| {
        let sys = sticky_tournament(pair(i));
        job("crash.bfs_tour2", crash(sys, i, Search::Bfs))
    }),
    unit(3, |i, _| {
        job("crash.dfs_tour3", tour3_crash(i, Search::Dfs))
    }),
    unit(3, |_, _| {
        job("crash.dfs_tour3_all", tour3_crash(3, Search::Dfs))
    }),
    unit(4, |i, _| {
        job("crash.bfs_tour3", tour3_crash(i, Search::Bfs))
    }),
];

/// The 3-process sticky tournament on inputs 1,0,1 under fault model `m`
/// (an index into [`FAULT_MODELS`]), at 1 crash per process and 12 events.
fn tour3_crash(m: usize, search: Search) -> Kind {
    Kind::Crash {
        sys: sticky_tournament(vec![1, 0, 1]),
        model: FAULT_MODELS[m],
        search,
        crashes: 1,
        depth: 12,
    }
}

/// `(n, n')` of the `T_{n,n'}` algorithms `certify` model-checks.
const TNN_PAIRS: [(usize, usize); 5] = [(3, 1), (4, 2), (5, 2), (4, 3), (5, 4)];

/// The type expressions `rcn lint --all` covers.
pub const LINT_TYPES: [&str; 14] = [
    "register:2",
    "tas",
    "faa:4",
    "swap:2",
    "cas:3",
    "sticky",
    "consensus",
    "mconsensus:2",
    "queue:2,2",
    "stack:2,2",
    "tnn:5,2",
    "team-counter:4",
    "xn:4",
    "tas+read",
];

/// The certify recipe (400 jobs). p50 falls inside `valency_tnn`. The one
/// `lint --all` system lint of the 3-process tournament is the slowest
/// job; the 3-process budgeted graph runs four times per block below it,
/// so p99 falls inside `valency3`.
const CERTIFY: &[Unit] = &[
    unit(56, |i, _| {
        let ty = TypeSpec::Named(LINT_TYPES[i % LINT_TYPES.len()]);
        job("certify.lint_type", Kind::LintType { ty })
    }),
    unit(40, |i, rng| {
        let (n, np) = TNN_PAIRS[i % TNN_PAIRS.len()];
        let sys = SysSpec::TnnRecoverable(n, np, rng.inputs(np));
        job("certify.tnn_correct", Kind::Consensus { sys })
    }),
    unit(20, |i, rng| {
        let (n, np) = TNN_PAIRS[i % TNN_PAIRS.len()];
        let sys = SysSpec::TnnRecoverable(n, np, rng.mixed_inputs(np + 1));
        job("certify.tnn_violated", Kind::Consensus { sys })
    }),
    unit(66, |_, rng| {
        // Push one of two values, then pop.
        let ops = vec![rng.below(2) as u32, 2];
        let object = TypeSpec::Named("stack:2,2");
        job("certify.sim_stack2", Kind::Simulate { object, ops })
    }),
    unit(123, |_, rng| {
        let sys = SysSpec::TnnRecoverable(5, 2, rng.mixed_inputs(2));
        job("certify.valency_tnn", valency(sys, 4, true))
    }),
    unit(40, |_, rng| {
        let sys = sticky_tournament(rng.mixed_inputs(2));
        job("certify.valency_tour2", valency(sys, 4, true))
    }),
    unit(24, |_, rng| {
        let sys = random_tournament(rng);
        job("certify.tour_random", Kind::Consensus { sys })
    }),
    unit(16, |_, rng| {
        let object = TypeSpec::Named("queue:2,3");
        let ops = (0..3).map(|_| rng.below(3) as u32).collect();
        job("certify.sim_queue3", Kind::Simulate { object, ops })
    }),
    unit(8, |_, _| {
        let sys = SysSpec::TnnRecoverable(5, 2, vec![0, 1]);
        job("certify.lint_tnn52", Kind::LintSystem { sys })
    }),
    unit(2, |_, _| {
        let sys = sticky_tournament(vec![1, 0, 1]);
        job("certify.tour3", Kind::Consensus { sys })
    }),
    unit(4, |_, _| {
        let sys = sticky_tournament(vec![1, 0, 1]);
        job("certify.valency3", valency(sys, 1, false))
    }),
    unit(1, |_, _| {
        let sys = sticky_tournament(vec![1, 0, 1]);
        job("certify.lint_tour3", Kind::LintSystem { sys })
    }),
];

fn valency(sys: SysSpec, clamp: u16, chain: bool) -> Kind {
    Kind::Valency { sys, clamp, chain }
}

/// A 2-process tournament over a random readable table (4 values, 2
/// mutators) that has a recording witness; tables without one are
/// skipped, deterministically in the seed.
fn random_tournament(rng: &mut SplitMix) -> SysSpec {
    loop {
        let ty = TypeSpec::Random {
            values: 4,
            mutators: 2,
            seed: rng.next_u64(),
        };
        let inputs = rng.inputs(2);
        if TournamentConsensus::try_new(ty.build(), inputs.clone()).is_ok() {
            return SysSpec::Tournament(ty, inputs);
        }
    }
}

/// The six jobs of one warm key: cold, four warm, control.
fn warm_group(target: Kind, decide: bool) -> Vec<JobSpec> {
    let class = |phase| match (decide, phase) {
        (true, Phase::Cold) => "warm.decide_cold",
        (true, Phase::Warm) => "warm.decide_warm",
        (true, Phase::Control) => "warm.decide_control",
        (false, Phase::Cold) => "warm.faults_cold",
        (false, Phase::Warm) => "warm.faults_warm",
        (false, Phase::Control) => "warm.faults_control",
    };
    [
        Phase::Cold,
        Phase::Warm,
        Phase::Warm,
        Phase::Warm,
        Phase::Warm,
        Phase::Control,
    ]
    .into_iter()
    .map(|phase| JobSpec {
        class: class(phase),
        kind: Kind::Warm {
            key: 0,
            phase,
            target: Box::new(target.clone()),
        },
    })
    .collect()
}

/// The warm recipe (88 keys, 528 jobs): the catalogue and random classify
/// keys, and every 2-process protocol under every fault model on fixed
/// inputs, four times, so only the random tables' cost depends on the
/// seed. The random tables are small (4 values, 2 mutators): at 5 values
/// and 3 mutators a key cost from 0.4 to 10 ms by seed, and the eight keys
/// of a pass moved the throughput by several percent between seeds.
/// `tnn-recoverable:5,2` runs on both input orders: its per-process
/// warm memo reads (32 a block, about 0.35 ms) are the cluster p50 falls
/// in. The ten cold and warm `team-counter:5` and `tnn:5,2` jobs (about
/// 21 ms each) are the slowest, and the crash keys pad the block so that
/// p99 falls in the middle of them: at the top of that cluster, with one
/// crash key per protocol and model, p99 moved by 24% between runs on a
/// busy machine.
const WARM: &[Unit] = &[
    Unit {
        count: 4,
        jobs: 6,
        make: |i, _| {
            const KEYS: [(&str, usize); 4] = [
                ("team-counter:5", 6),
                ("tnn:5,2", 6),
                ("xn:4", 5),
                ("cas:3", 5),
            ];
            let (ty, cap) = KEYS[i];
            warm_group(classify(ty, cap), true)
        },
    },
    Unit {
        count: 4,
        jobs: 6,
        make: |_, rng| {
            let ty = TypeSpec::Random {
                values: 4,
                mutators: 2,
                seed: rng.next_u64(),
            };
            warm_group(Kind::Classify { ty, cap: 5 }, true)
        },
    },
    Unit {
        count: 80,
        jobs: 6,
        make: |i, _| {
            let sys = match i / 16 {
                0 => SysSpec::Tas(vec![0, 1]),
                1 => SysSpec::TnnWaitFree(2, 1, vec![0, 1]),
                2 => SysSpec::TnnRecoverable(5, 2, vec![0, 1]),
                3 => SysSpec::TnnRecoverable(5, 2, vec![1, 0]),
                _ => sticky_tournament(vec![0, 1]),
            };
            warm_group(crash(sys, i, Search::Dfs), false)
        },
    },
];
