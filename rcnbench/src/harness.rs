//! One benchmark run: the set-up (repeated, median reported), the
//! closed-loop measured phase over whole blocks, traced block pairs, and
//! the metrics computed from them.
//!
//! The loop is closed with one client: the next verdict request starts
//! only when the previous one returned and its verdict was checked. Each
//! job is timed around its layer calls only; the oracle runs after the
//! clock stops.
//!
//! The measured phase cycles through the job list, so a run executes every
//! job several times, seconds apart. Every block's job times are scaled to
//! the reference speed by the calibration kernel timed during it
//! ([`crate::calib`]), and a job's latency is the median of the scaled
//! executions of its request ([`RunResult::latencies`]).

use crate::calib::Calibration;
use crate::job::{check, Exec, Job, Verdict};
use crate::layers::{ratio, Layers};
use crate::metrics::{END_TO_END, ERROR_RATE, PER_LAYER, RUN_SECONDS};
use crate::plan::{self, plan, JobSpec, Workload};
use crate::stats::{lower_half, median, median_by_key, percentile};
use rcn_obs::{parse_jsonl, ProfileReport, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per run, spread over the measured phase; `setup_s` is the
/// median of the faster half of them.
pub const SETUPS: usize = 5;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The job-list seed.
    pub seed: u64,
    /// Measured seconds: whole blocks, as many as fit, and at least one
    /// pass of the job list.
    pub seconds: f64,
    /// Run every block twice, untraced and traced, and report per-layer
    /// metrics instead of end-to-end ones.
    pub traced: bool,
    /// Keep each traced block's JSONL trace in this directory.
    pub keep_trace: Option<PathBuf>,
    /// Directory for cache, memo and trace files (removed afterwards).
    pub scratch: PathBuf,
    /// Stop after this many measured jobs (smoke tests).
    pub job_limit: Option<usize>,
}

impl Options {
    /// The benchmark's defaults for `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64) -> Options {
        Options {
            workload,
            seed,
            seconds: RUN_SECONDS as f64,
            traced: false,
            keep_trace: None,
            scratch: PathBuf::from(".rcnbench-tmp").join(std::process::id().to_string()),
            job_limit: None,
        }
    }
}

/// One measured execution of a job.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Its class.
    pub class: &'static str,
    /// Its request (see [`requests`]).
    pub request: usize,
    /// Its latency at the reference speed: the measured latency scaled by
    /// its block's speed.
    pub ms: f64,
}

/// For each job of a job list, its request: the position of the first job
/// in the list that asks the same of the layers. Identical jobs cost the
/// same, so their executions are timed together.
pub fn requests<'a>(jobs: impl IntoIterator<Item = &'a JobSpec>) -> Vec<usize> {
    let mut first: HashMap<String, usize> = HashMap::new();
    jobs.into_iter()
        .enumerate()
        .map(|(i, job)| *first.entry(job.kind.to_string()).or_insert(i))
        .collect()
}

/// Aggregated trace rows of one span name over the traced blocks.
#[derive(Debug, Clone, Default)]
pub struct SpanTotals {
    /// Completed calls.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children).
    pub self_ns: u64,
    /// Each block's exact per-call p50.
    pub p50_ns: Vec<u64>,
    /// Each block's exact per-call p99.
    pub p99_ns: Vec<u64>,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The options it ran with.
    pub options: Options,
    /// Verdicts checked (measured jobs plus every set-up's warm-ups).
    pub attempted: u64,
    /// Wrong, errored or panicked verdicts among them.
    pub failed: u64,
    /// The first few failures, described.
    pub errors: Vec<String>,
    /// Each set-up's duration in seconds, as measured.
    pub setups_s: Vec<f64>,
    /// Each set-up's speed (see [`Calibration::finish`]).
    pub setup_speeds: Vec<f64>,
    /// Each block's speed.
    pub block_speeds: Vec<f64>,
    /// Wall time of the measured phase, checks included.
    pub measured_s: f64,
    /// Blocks executed (a traced pair counts once).
    pub blocks: usize,
    /// Untraced executions, in order: the `i`-th is of job `i % N` of the
    /// job list.
    pub samples: Vec<Sample>,
    /// Verdict summaries of the measured jobs, in order (the traced
    /// executions in a traced run).
    pub verdicts: Vec<String>,
    /// The reported metrics (name, value, unit): end-to-end ones
    /// untraced, per-layer traced.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Per-span trace totals (traced runs).
    pub spans: BTreeMap<String, SpanTotals>,
    /// Share of traced job time inside the benchmark's own `bench.*` spans.
    pub span_coverage_pct: f64,
}

impl RunResult {
    /// Whether every verdict was right.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Each job's latency, ascending, one per job of the list that ran:
    /// the median at the reference speed of every execution of its
    /// request. End-to-end timings are taken over these.
    pub fn latencies(&self) -> Vec<Sample> {
        let keys: Vec<usize> = self.samples.iter().map(|s| s.request).collect();
        let ms: Vec<f64> = self.samples.iter().map(|s| s.ms).collect();
        let medians = median_by_key(&keys, &ms);
        let jobs = self
            .samples
            .len()
            .min(self.options.workload.jobs_per_pass());
        let mut each: Vec<Sample> = self.samples[..jobs]
            .iter()
            .map(|s| Sample {
                ms: medians[&s.request],
                ..*s
            })
            .collect();
        each.sort_by(|a, b| a.ms.total_cmp(&b.ms));
        each
    }

    /// Passes of the job list the untraced executions made.
    pub fn passes(&self) -> f64 {
        ratio(
            self.samples.len() as f64,
            self.options.workload.jobs_per_pass() as f64,
        )
    }

    /// The class a percentile is attributed to: the class most of the
    /// job latencies within half a percentile of quantile `q` belong
    /// to. (Where classes overlap, the one job at the exact rank can
    /// belong to a class whose median is far from the percentile.)
    pub fn class_at(&self, q: f64) -> Option<&'static str> {
        let timed = self.latencies();
        if timed.is_empty() {
            return None;
        }
        let n = timed.len() as f64;
        let lo = ((q - 0.005) * n).floor().max(0.0) as usize;
        let hi = (((q + 0.005) * n).ceil() as usize).clamp(lo + 1, timed.len());
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for s in &timed[lo..hi] {
            match counts.iter_mut().find(|(class, _)| *class == s.class) {
                Some((_, c)) => *c += 1,
                None => counts.push((s.class, 1)),
            }
        }
        counts
            .into_iter()
            .max_by_key(|&(_, c)| c)
            .map(|(class, _)| class)
    }
}

/// How one job went.
struct Outcome {
    class: &'static str,
    ms: f64,
    verdict: Result<String, String>,
}

/// Runs `job`: executes it (timed), then checks the verdict (untimed).
fn run_job(exec: &mut Exec, calibration: &mut Calibration, job: &Job) -> Outcome {
    calibration.tick();
    let started = Instant::now();
    let executed = catch_unwind(AssertUnwindSafe(|| exec.execute(job)));
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let checked = |exec: &mut Exec, v: Verdict| -> Result<String, String> {
        check(job, &v)?;
        exec.after(job, &v)?;
        Ok(v.summary())
    };
    let verdict = match executed {
        Ok(Ok(v)) => catch_unwind(AssertUnwindSafe(|| checked(exec, v)))
            .unwrap_or_else(|p| Err(format!("the oracle panicked: {}", panic_text(&p)))),
        Ok(Err(e)) => Err(e),
        Err(p) => Err(format!("panicked: {}", panic_text(&p))),
    };
    let verdict = verdict.map_err(|e| format!("{} `{}`: {e}", job.spec.class, job.spec.kind));
    Outcome {
        class: job.spec.class,
        ms,
        verdict,
    }
}

fn panic_text(payload: &Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Removes the scratch directory however the run ends, and its parent
/// when no other run is using it.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runs the benchmark.
///
/// # Errors
///
/// A scratch or trace file that cannot be created or read.
pub fn run(options: &Options) -> Result<RunResult, String> {
    std::fs::create_dir_all(&options.scratch)
        .map_err(|e| format!("creating {}: {e}", options.scratch.display()))?;
    let _scratch = Scratch(options.scratch.clone());
    let mut result = RunResult {
        options: options.clone(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        setups_s: Vec::new(),
        setup_speeds: Vec::new(),
        block_speeds: Vec::new(),
        measured_s: 0.0,
        blocks: 0,
        samples: Vec::new(),
        verdicts: Vec::new(),
        metrics: Vec::new(),
        spans: BTreeMap::new(),
        span_coverage_pct: 0.0,
    };
    // Set-up builds the job list and runs one unmeasured warm-up job per
    // class. It is repeated at evenly spaced points of the measured phase,
    // so a spell of load on the machine slows some set-ups, not the
    // faster half `setup_s` is taken over.
    let mut calibration = Calibration::default();
    let mut warm_up = Exec::new(&options.scratch.join("setup"), Tracer::disabled());
    let mut blocks = setup(options, &mut warm_up, &mut calibration, &mut result);
    let request_of = requests(blocks.iter().flatten().map(|job| &job.spec));
    let mut plain = Exec::new(&options.scratch.join("plain"), Tracer::disabled());

    // The measured phase cycles through the blocks of the job list: whole
    // blocks while the next one fits in the time (judged by the last
    // block's duration; every block holds the same class mix), and at
    // least one pass, so that every job has a latency.
    let mut traced = Exec::new(&options.scratch.join("traced"), Tracer::disabled());
    let mut totals = Totals::default();
    let limit = options.job_limit.unwrap_or(usize::MAX);
    let started = Instant::now();
    let measured = |result: &RunResult| {
        started.elapsed().as_secs_f64() - result.setups_s[1..].iter().sum::<f64>()
    };
    loop {
        let block_started = Instant::now();
        let block = &blocks[result.blocks % blocks.len()];
        let block = &block[..limit.saturating_sub(result.samples.len()).min(block.len())];
        // Runs the block and returns its outcomes and the speed it ran at.
        let run_all = |exec: &mut Exec, calibration: &mut Calibration| {
            let outcomes: Vec<Outcome> = block
                .iter()
                .map(|j| run_job(exec, calibration, j))
                .collect();
            (outcomes, calibration.finish())
        };
        let (plain_out, speed) = if options.traced {
            let path = trace_path(options, result.blocks);
            traced.tracer = Tracer::to_jsonl(&path)
                .map_err(|e| format!("creating trace {}: {e}", path.display()))?;
            // Alternate which half runs first, so neither always runs warm.
            let ((plain_out, speed), (traced_out, _)) = if result.blocks.is_multiple_of(2) {
                let p = run_all(&mut plain, &mut calibration);
                (p, run_all(&mut traced, &mut calibration))
            } else {
                let t = run_all(&mut traced, &mut calibration);
                (run_all(&mut plain, &mut calibration), t)
            };
            let sum_ms = |outcomes: &[Outcome]| outcomes.iter().map(|o| o.ms).sum::<f64>();
            totals
                .overheads
                .push(ratio(sum_ms(&traced_out), sum_ms(&plain_out)) - 1.0);
            traced
                .tracer
                .flush()
                .map_err(|e| format!("flushing trace: {e}"))?;
            traced.tracer = Tracer::disabled();
            add_trace(&mut result.spans, &path, options.keep_trace.is_none())?;
            for (p, mut t) in plain_out.iter().zip(traced_out) {
                if let (Ok(a), Ok(b)) = (&p.verdict, &t.verdict) {
                    if a != b {
                        let class = t.class;
                        t.verdict = Err(format!("{class}: traced `{b}` but untraced `{a}`"));
                    }
                }
                totals.traced_ms += t.ms;
                totals.traced_jobs += 1;
                record(&mut result, &t);
                result.verdicts.push(t.verdict.unwrap_or_default());
            }
            (plain_out, speed)
        } else {
            let (plain_out, speed) = run_all(&mut plain, &mut calibration);
            let verdicts = plain_out
                .iter()
                .map(|o| o.verdict.clone().unwrap_or_default());
            result.verdicts.extend(verdicts);
            (plain_out, speed)
        };
        result.block_speeds.push(speed);
        let factor = to_reference(options, speed);
        for outcome in &plain_out {
            record(&mut result, outcome);
            result.samples.push(Sample {
                class: outcome.class,
                request: request_of[result.samples.len() % request_of.len()],
                ms: outcome.ms * factor,
            });
        }
        result.blocks += 1;
        let block_s = block_started.elapsed().as_secs_f64();
        let done = result.setups_s.len();
        if done < SETUPS && measured(&result) >= options.seconds * done as f64 / SETUPS as f64 {
            // Rebuilt in place: the list is the same, and peak memory
            // never holds two copies.
            blocks.clear();
            blocks = setup(options, &mut warm_up, &mut calibration, &mut result);
        }
        let enough = result.blocks >= blocks.len() || options.traced;
        let timed_out = measured(&result) + block_s > options.seconds;
        if result.samples.len() >= limit || (timed_out && enough) {
            break;
        }
    }
    result.measured_s = measured(&result);
    result.metrics = if options.traced {
        per_layer_metrics(&mut result, &plain.layers, &totals)
    } else {
        end_to_end_metrics(&result)
    };
    Ok(result)
}

/// One set-up: plans and builds the job list and runs the warm-up jobs,
/// checking and counting their verdicts; records its duration and speed.
fn setup(
    options: &Options,
    exec: &mut Exec,
    calibration: &mut Calibration,
    result: &mut RunResult,
) -> Vec<Vec<Job>> {
    calibration.tick();
    let started = Instant::now();
    let blocks = plan(options.workload, options.seed)
        .into_iter()
        .map(|block| block.into_iter().map(Job::new).collect())
        .collect();
    let warmups: Vec<Outcome> = plan::warmups(options.workload, options.seed)
        .into_iter()
        .map(|spec| run_job(exec, calibration, &Job::new(spec)))
        .collect();
    exec.end_groups();
    result.setups_s.push(started.elapsed().as_secs_f64());
    result.setup_speeds.push(calibration.finish());
    for outcome in &warmups {
        record(result, outcome);
    }
    blocks
}

/// The factor that takes a time measured at `speed` (see
/// [`Calibration::finish`]) to the reference speed: `speed` raised to the
/// workload's [`Workload::sensitivity`].
fn to_reference(options: &Options, speed: f64) -> f64 {
    speed.powf(options.workload.sensitivity())
}

/// The traced halves of a run: their summed job time as measured (to set
/// against the spans' durations) and job count, and each block's traced
/// over untraced job time, less 1. The two halves of a block run back to
/// back, alternating which goes first, so a block's ratio is taken from
/// raw times: scaling each half by its own, shorter stretch of kernel
/// timings would add that estimate's error to tracing's few percent.
#[derive(Default)]
struct Totals {
    traced_ms: f64,
    traced_jobs: usize,
    overheads: Vec<f64>,
}

/// The end-to-end metrics of an untraced run, in `END_TO_END` order and
/// then the error rate; p99 is left out when the percentile rule refuses
/// it. Every timing is at the reference speed. The job timings come from
/// each job's median request execution ([`RunResult::latencies`]):
/// `verdicts_per_s` is the rate of one client whose every job takes that
/// long. `setup_s` comes from the faster half of the set-ups.
fn end_to_end_metrics(result: &RunResult) -> Vec<(&'static str, f64, &'static str)> {
    let timed: Vec<f64> = result.latencies().iter().map(|s| s.ms).collect();
    let setups: Vec<f64> = result
        .setups_s
        .iter()
        .zip(&result.setup_speeds)
        .map(|(s, &speed)| s * to_reference(&result.options, speed))
        .collect();
    let value = |name: &str| match name {
        "setup_s" => Some(median(&lower_half(&setups))),
        "verdicts_per_s" => Some(ratio(timed.len() as f64, timed.iter().sum::<f64>() / 1e3)),
        "verdict_p50_ms" => percentile(&timed, 0.50),
        "verdict_p99_ms" => percentile(&timed, 0.99),
        "peak_rss_mb" => peak_rss_mib(),
        _ => Some(ratio(result.failed as f64, result.attempted as f64)),
    };
    END_TO_END
        .iter()
        .chain(std::iter::once(&ERROR_RATE))
        .filter_map(|def| value(def.name).map(|v| (def.name, v, def.unit)))
        .collect()
}

/// The per-layer metrics of a traced run, in `PER_LAYER` order: layer
/// counts and times from the untraced halves, span self times and tracing
/// overhead from the traced halves, all scaled to one pass of the job
/// list. A layer the workload bypasses sums over no calls and reads 0.
fn per_layer_metrics(
    result: &mut RunResult,
    layers: &Layers,
    totals: &Totals,
) -> Vec<(&'static str, f64, &'static str)> {
    let per_pass = result.options.workload.jobs_per_pass() as f64;
    let traced_scale = ratio(per_pass, totals.traced_jobs as f64);
    let self_ms = |name: &str| {
        result
            .spans
            .get(name)
            .map_or(0.0, |s| s.self_ns as f64 / 1e6)
            * traced_scale
    };
    let mut measured = layers.metrics(ratio(per_pass, result.samples.len() as f64));
    measured.push(("decide.analysis_self_ms", self_ms("engine.analysis")));
    measured.push(("decide.level_self_ms", self_ms("engine.level")));
    let medians = class_medians(&result.latencies());
    let class_p50 = |q: f64| {
        let class = result.class_at(q);
        medians
            .iter()
            .find(|(c, _)| Some(*c) == class)
            .map_or(0.0, |(_, ms)| *ms)
    };
    measured.push(("job.p50_class_p50_ms", class_p50(0.50)));
    measured.push(("job.p99_class_p50_ms", class_p50(0.99)));
    let overhead = if totals.overheads.is_empty() {
        0.0
    } else {
        median(&totals.overheads)
    };
    measured.push(("obs.trace_overhead_pct", overhead * 100.0));
    let bench_ns: u64 = result
        .spans
        .iter()
        .filter(|(name, _)| name.starts_with("bench."))
        .map(|(_, s)| s.total_ns)
        .sum();
    result.span_coverage_pct = ratio(bench_ns as f64 / 1e6, totals.traced_ms) * 100.0;
    PER_LAYER
        .iter()
        .map(|m| {
            let (_, value) = measured
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("per-layer metric {} is not measured", m.name));
            (m.name, *value, m.unit)
        })
        .collect()
}

fn record(result: &mut RunResult, outcome: &Outcome) {
    result.attempted += 1;
    if let Err(e) = &outcome.verdict {
        result.failed += 1;
        if result.errors.len() < 10 {
            result.errors.push(e.clone());
        }
    }
}

fn trace_path(options: &Options, block: usize) -> PathBuf {
    options
        .keep_trace
        .as_ref()
        .unwrap_or(&options.scratch)
        .join(format!("block-{block:04}.jsonl"))
}

/// Folds one block's JSONL trace into the per-span totals.
fn add_trace(
    spans: &mut BTreeMap<String, SpanTotals>,
    path: &PathBuf,
    delete: bool,
) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    if delete {
        let _ = std::fs::remove_file(path);
    }
    let events = parse_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    for row in ProfileReport::build(&events).rows {
        let totals = spans.entry(row.name).or_default();
        totals.calls += row.calls;
        totals.total_ns += row.total_ns;
        totals.self_ns += row.self_ns;
        totals.p50_ns.push(row.p50_ns);
        totals.p99_ns.push(row.p99_ns);
    }
    Ok(())
}

/// Median latency of each class, in order of first appearance.
pub fn class_medians(samples: &[Sample]) -> Vec<(&'static str, f64)> {
    let mut by_class: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for s in samples {
        match by_class.iter_mut().find(|(c, _)| *c == s.class) {
            Some((_, v)) => v.push(s.ms),
            None => by_class.push((s.class, vec![s.ms])),
        }
    }
    by_class.into_iter().map(|(c, v)| (c, median(&v))).collect()
}

/// The process's peak resident set (`VmHWM`) in MiB, on Linux.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
