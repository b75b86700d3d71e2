//! `rcn` — command-line interface to the recoverable-consensus toolkit.
//!
//! ```text
//! rcn types                          list the type catalogue
//! rcn classify <type> [--cap N]      consensus + recoverable consensus numbers
//! rcn witness <type> <n> [discerning|recording]
//!                                    find a witness and explain it
//! rcn dot <type> [--self-loops]      Graphviz state machine (Figure 3 style)
//! rcn table <type>                   transition table as text
//! rcn solve <type> <inputs…>         build + exhaustively verify a
//!                                    recoverable consensus protocol
//! rcn simulate-tnn <n> <n'> <inputs…> model-check the paper's §4 algorithm
//! rcn lint [<type>…|--all]           run the static analyzer (rcn-analyze)
//! rcn crashtest <protocol>           enumerate every crash placement within
//!                                    a budget; shrink + replay counterexamples
//! rcn check <protocol>…              independent BFS model checker (second
//!                                    opinion on crashtest + valency verdicts)
//! rcn profile <trace.jsonl>          per-span time breakdown of a --trace file
//! ```
//!
//! The search and fault commands accept `--trace PATH` (record a JSONL
//! trace; refuses to overwrite without `--force`) and `--metrics` (print
//! the metrics registry). The verdict commands (`classify`, `lint`,
//! `crashtest`, `check`) accept `--json` and then print one
//! [`verdict::Envelope`]; `profile --json` prints its span breakdown.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod types;
mod verdict;

use rcn_decide::{
    explain_discerning, explain_recording, DiskCache, SearchEngine, SearchStats, Witness,
};
use rcn_obs::{parse_jsonl, ProfileReport, Tracer};
use rcn_protocols::TnnRecoverable;
use rcn_spec::dot::{to_dot, to_table_text};
use rcn_valency::check_consensus;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use types::{parse_type, DynObject, CATALOGUE};
use verdict::{counters, coverage, Envelope, Payload, VerdictRecord};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("run `rcn help` for usage");
            ExitCode::FAILURE
        }
    }
}

/// Runs one command line, printing its output (also when it fails, e.g.
/// on a counterexample) before returning.
fn run(args: &[String]) -> Result<(), String> {
    let mut out = String::new();
    let result = run_to(args, &mut out);
    write_out(&mut std::io::stdout().lock(), &out)
        .map_err(|e| format!("cannot write to stdout: {e}"))?;
    result
}

/// Writes a command's output. A reader that has gone away (`rcn types |
/// head -1`) is not an error: the command keeps its own exit status.
fn write_out(w: &mut impl std::io::Write, out: &str) -> std::io::Result<()> {
    match w.write_all(out.as_bytes()).and_then(|()| w.flush()) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        other => other,
    }
}

/// Runs one command line; every command appends its output to `out`
/// instead of printing it.
fn run_to(args: &[String], out: &mut String) -> Result<(), String> {
    let mut args = args.iter().map(String::as_str);
    match args.next() {
        None | Some("help" | "--help" | "-h") => {
            out.push_str(HELP);
            Ok(())
        }
        Some("types") => {
            cmd_types(out);
            Ok(())
        }
        Some("classify") => cmd_classify(&args.collect::<Vec<_>>(), out),
        Some("compare") => cmd_compare(&args.collect::<Vec<_>>(), out),
        Some("witness") => cmd_witness(&args.collect::<Vec<_>>(), out),
        Some("dot") => cmd_dot(&args.collect::<Vec<_>>(), out),
        Some("table") => cmd_table(&args.collect::<Vec<_>>(), out),
        Some("solve") => cmd_solve(&args.collect::<Vec<_>>(), out),
        Some("simulate-tnn") => cmd_simulate_tnn(&args.collect::<Vec<_>>(), out),
        Some("lint") => cmd_lint(&args.collect::<Vec<_>>(), out),
        Some("crashtest") => cmd_crashtest(&args.collect::<Vec<_>>(), out),
        Some("check") => cmd_check(&args.collect::<Vec<_>>(), out),
        Some("profile") => cmd_profile(&args.collect::<Vec<_>>(), out),
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

/// The `rcn help` text.
const HELP: &str = r#"rcn — determining recoverable consensus numbers (Ovens, PODC 2024)

commands:
  types                               list the type catalogue
  classify <type> [--cap N]           CN and RCN of a type (default cap 4)
  compare <type>… [--cap N]           hierarchy table over several types
  witness <type> <n> [kind]           find + explain a discerning/recording witness

search options (classify, compare, witness; `--flag value` or `--flag=value`):
  --threads N                         search worker threads (0 = all cores, default 1, at most 256)
  --cache-dir DIR                     persist level verdicts under DIR and reuse them on later runs
  --no-cache                          ignore --cache-dir (search without the persistent cache)
  --stats                             print search statistics (analyses, cache/disk hits, search time)
  --timeout SECS                      wall-clock deadline; partial results are reported as ≥N lower bounds

observability (classify, compare, witness, lint, crashtest, check):
  --trace PATH                        record a JSONL span/event trace to PATH
                                      (refuses an existing file without --force)
  --metrics                           print the metrics registry after the run
  --json                              (classify, lint, crashtest, check) print one JSON document,
                                      {rcn_version, command, records, metrics}

  dot <type> [--self-loops]           Graphviz state machine
  table <type>                        transition table
  solve <type> <input>…               build + verify recoverable consensus
  simulate-tnn <n> <n'> <input>…      model-check the §4 recoverable algorithm
  lint [<type>…|--all] [--json]       run the static analyzer over types (and,
       [--deny warnings]              with --all, the shipped protocols)
  crashtest <protocol> [--crashes K]  enumerate every crash placement within the
       [--depth D] [--max-states N]   budget (K crashes/process, schedules up to D
       [--inputs 0,1] [--shrink]      events); counterexamples are optionally
       [--json] [--memo-dir DIR]      shrunk to 1-minimal and replayed through the
       [--no-memo] [--timeout SECS]   threaded runtime; exits nonzero on violation.
       [--fault-model M]              --memo-dir persists certified verdicts so
                                      repeated runs skip the search;
                                      M = per-process (default) | system | mid-op | all

  check <protocol>… [--crashes K]     independent breadth-first model checker:
       [--depth D] [--max-states N]   re-derives crashtest verdicts (with
       [--inputs 0,1] [--valency]     minimal-depth counterexamples) and, with
       [--z Z] [--clamp C] [--json]   --valency, the initial configuration's
       [--fault-model M]              valency; exits nonzero on violation;
                                      M = per-process (default) | system | mid-op | all

  crashtest/check protocols: tas | tnn-wait-free[:n,n'] | tnn-recoverable[:n,n']
                             | tournament[:type]

  profile <trace.jsonl> [--json]      per-span time breakdown (self vs children,
                                      call counts, p50/p99) of a --trace file
"#;

/// Prints the type catalogue with per-type readability and size columns
/// (parameterized entries are instantiated at their defaults).
fn cmd_types(out: &mut String) {
    let _ = writeln!(
        out,
        "{:<18} {:<8} {:>6} {:>4} {:>6}  description",
        "expression", "readable", "values", "ops", "resps"
    );
    for (expr, desc) in CATALOGUE {
        let base = expr.split([':', '+']).next().unwrap_or(expr);
        let _ = match parse_type(base) {
            Ok(ty) => writeln!(
                out,
                "{expr:<18} {:<8} {:>6} {:>4} {:>6}  {desc}",
                if ty.is_readable() { "yes" } else { "no" },
                ty.num_values(),
                ty.num_ops(),
                ty.num_responses()
            ),
            Err(_) => writeln!(
                out,
                "{expr:<18} {:<8} {:>6} {:>4} {:>6}  {desc}",
                "-", "-", "-", "-"
            ),
        };
    }
}

/// Flags taking a value shared by the search commands (`classify`,
/// `compare`, `witness`); `--cap` is appended where it applies.
const SEARCH_VALUE_FLAGS: &[&str] = &["--threads", "--cache-dir", "--timeout", "--trace"];
/// Valueless switches shared by the search commands. `--json` is not among
/// them: only `classify` renders JSON.
const SEARCH_SWITCH_FLAGS: &[&str] = &["--stats", "--no-cache", "--metrics", "--force"];

/// Value flags of `crashtest` and `check`: the crash budget
/// [`budget_from_args`] reads, and `--trace`.
const BUDGET_VALUE_FLAGS: &[&str] = &[
    "--crashes",
    "--depth",
    "--max-states",
    "--fault-model",
    "--inputs",
    "--trace",
];

/// Command arguments split against an explicit per-command flag catalogue.
///
/// Every `--` token must name a declared flag — unknown flags, a value
/// flag without a value, and a switch given an inline `=value` are all
/// usage errors, so a typed flag is never silently dropped (`--cap=6`
/// previously ran at the default cap with no diagnostic).
struct Parsed<'a> {
    positionals: Vec<&'a str>,
    values: Vec<(&'static str, &'a str)>,
    switches: Vec<&'static str>,
}

impl<'a> Parsed<'a> {
    /// The value of `flag`, if given (last occurrence wins).
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|&(_, v)| v)
    }

    /// Whether the switch `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }
}

/// Splits `args` into positionals and the flags the command declares,
/// accepting both `--flag value` and `--flag=value` spellings.
fn parse_args<'a>(
    args: &[&'a str],
    value_flags: &[&'static str],
    switch_flags: &[&'static str],
) -> Result<Parsed<'a>, String> {
    let mut parsed = Parsed {
        positionals: Vec::new(),
        values: Vec::new(),
        switches: Vec::new(),
    };
    let mut iter = args.iter().copied();
    while let Some(tok) = iter.next() {
        let Some(body) = tok.strip_prefix("--") else {
            parsed.positionals.push(tok);
            continue;
        };
        let (name, inline) = match body.split_once('=') {
            Some((n, v)) => (n, Some(v)),
            None => (body, None),
        };
        if let Some(&flag) = value_flags.iter().find(|f| f[2..] == *name) {
            let value = match inline {
                Some(v) => v,
                None => iter
                    .next()
                    .ok_or_else(|| format!("missing value for `{flag}`"))?,
            };
            parsed.values.push((flag, value));
        } else if let Some(&flag) = switch_flags.iter().find(|f| f[2..] == *name) {
            if inline.is_some() {
                return Err(format!("`{flag}` does not take a value"));
            }
            parsed.switches.push(flag);
        } else {
            return Err(format!("unknown flag `--{name}`"));
        }
    }
    Ok(parsed)
}

/// Parses `--cap` (default 4) and applies the shared lower-bound guard:
/// a cap below 2 would make the level scan vacuous and misreport level 1
/// as an uncapped result.
fn cap_from_args(parsed: &Parsed) -> Result<usize, String> {
    let cap: usize = parsed
        .value("--cap")
        .map(|v| v.parse().map_err(|_| "cap must be a number"))
        .transpose()?
        .unwrap_or(4);
    if cap < 2 {
        return Err("cap must be at least 2".into());
    }
    Ok(cap)
}

/// The most search workers `--threads` may ask for. The engine spawns one
/// OS thread per worker (up to the instance count), and a spawn the OS
/// refuses would abort the search.
const MAX_THREADS: usize = 256;

/// Builds the search engine from `--threads` (default: 1 worker, i.e. the
/// plain sequential search; 0 = one worker per core; at most
/// [`MAX_THREADS`]), the persistent cache flags (`--cache-dir DIR`
/// attaches a [`DiskCache`] rooted at `DIR`; `--no-cache` wins over it),
/// and `--timeout SECS` (a wall-clock deadline per search call; results
/// past it are honest lower bounds).
fn engine_from_args(parsed: &Parsed) -> Result<SearchEngine, String> {
    let threads: usize = parsed
        .value("--threads")
        .map(|v| v.parse().map_err(|_| "threads must be a number"))
        .transpose()?
        .unwrap_or(1);
    if threads > MAX_THREADS {
        return Err(format!("threads must be at most {MAX_THREADS}"));
    }
    let mut engine = SearchEngine::new(threads);
    if !parsed.has("--no-cache") {
        if let Some(dir) = parsed.value("--cache-dir") {
            engine = engine.with_disk_cache(DiskCache::new(dir));
        }
    }
    if let Some(timeout) = timeout_from_args(parsed)? {
        engine = engine.with_timeout(timeout);
    }
    Ok(engine)
}

/// Parses `--timeout SECS`: a positive, finite number of seconds that a
/// [`Duration`] can hold.
fn timeout_from_args(parsed: &Parsed) -> Result<Option<Duration>, String> {
    let Some(v) = parsed.value("--timeout") else {
        return Ok(None);
    };
    let secs: f64 = v
        .parse()
        .map_err(|_| "timeout must be a number of seconds")?;
    if secs <= 0.0 || !secs.is_finite() {
        return Err("timeout must be a positive number of seconds".into());
    }
    Duration::try_from_secs_f64(secs)
        .map(Some)
        .map_err(|_| format!("timeout {v} is too large"))
}

/// A deadline that fires mid-search leaves the reported levels honest but
/// partial — say so where the user can see it.
fn warn_if_timed_out(stats: &SearchStats) {
    if stats.timed_out {
        eprintln!(
            "warning: --timeout deadline hit; levels shown as ≥N are lower bounds \
             ({} instance(s) abandoned)",
            stats.instances_abandoned
        );
    }
}

/// The `--stats` line of the search commands (empty without `--stats`):
/// `stats` of an engine searching on `threads` workers.
fn stats_line(parsed: &Parsed, stats: &SearchStats, threads: usize) -> String {
    if !parsed.has("--stats") {
        return String::new();
    }
    format!(
        "search stats        : {stats} ({threads} thread{})\n",
        if threads == 1 { "" } else { "s" }
    )
}

/// Builds the run's tracer from `--trace PATH` / `--metrics` / `--force`:
/// a JSONL tracer when `--trace` is given (refusing to overwrite an
/// existing file unless `--force` is also passed), a metrics-only tracer
/// for bare `--metrics`, and the zero-cost disabled tracer otherwise.
fn tracer_from_args(parsed: &Parsed) -> Result<Tracer, String> {
    if let Some(path) = parsed.value("--trace") {
        let target = std::path::Path::new(path);
        if target.exists() && !parsed.has("--force") {
            return Err(format!(
                "trace file `{path}` already exists; pass --force to overwrite it"
            ));
        }
        Tracer::to_jsonl(target).map_err(|e| format!("cannot open trace file {path}: {e}"))
    } else if parsed.has("--metrics") {
        Ok(Tracer::metrics_only())
    } else {
        Ok(Tracer::disabled())
    }
}

/// The one render path of the search and verdict commands. Flushes the
/// `--trace` sink, then appends to `out` either `text` followed by where
/// the trace went and the `--metrics` registry, or — under `--json` — one
/// [`Envelope`] over `records` with that registry embedded.
fn finish(
    out: &mut String,
    parsed: &Parsed,
    command: &'static str,
    text: &str,
    records: Vec<VerdictRecord>,
    tracer: &Tracer,
) -> Result<(), String> {
    let trace = parsed.value("--trace");
    if let Some(path) = trace {
        tracer
            .flush()
            .map_err(|e| format!("flushing trace to {path}: {e}"))?;
    }
    let metrics = parsed.has("--metrics").then(|| tracer.snapshot()).flatten();
    if parsed.has("--json") {
        let envelope = Envelope {
            rcn_version: env!("CARGO_PKG_VERSION"),
            command,
            records,
            metrics,
        };
        let json = serde_json::to_string(&envelope)
            .map_err(|e| format!("serializing the {command} verdict: {e}"))?;
        let _ = writeln!(out, "{json}");
    } else {
        out.push_str(text);
        if let Some(path) = trace {
            let _ = writeln!(out, "trace               : {path}");
        }
        if let Some(snapshot) = metrics {
            out.push_str(&snapshot.render_text());
        }
    }
    Ok(())
}

fn cmd_classify(args: &[&str], out: &mut String) -> Result<(), String> {
    let parsed = parse_args(
        args,
        &[SEARCH_VALUE_FLAGS, &["--cap"]].concat(),
        &[SEARCH_SWITCH_FLAGS, &["--json"]].concat(),
    )?;
    let [spec] = parsed.positionals[..] else {
        return Err("usage: rcn classify <type> [--cap N] [--threads N] [--stats]".into());
    };
    let cap = cap_from_args(&parsed)?;
    let ty = parse_type(spec).map_err(|e| e.to_string())?;
    let tracer = tracer_from_args(&parsed)?;
    let engine = engine_from_args(&parsed)?.with_tracer(tracer.clone());
    let started = Instant::now();
    let c = engine.classify(&*ty, cap).map_err(|e| e.to_string())?;
    let wall = started.elapsed();
    let mut text = format!(
        "type                : {}\nreadable            : {}\ndiscerning number   : {}\n\
         recording number    : {}\nconsensus number    : {}\nrecoverable CN      : {}\n",
        c.type_name,
        c.readable,
        c.discerning.display_level(),
        c.recording.display_level(),
        c.consensus_number,
        c.recoverable_consensus_number
    );
    if let Some(w) = &c.discerning.witness {
        let _ = writeln!(text, "discerning witness  : {}", w.describe(&*ty));
    }
    if let Some(w) = &c.recording.witness {
        let _ = writeln!(text, "recording witness   : {}", w.describe(&*ty));
    }
    let stats = engine.stats();
    text.push_str(&stats_line(&parsed, &stats, engine.threads()));
    warn_if_timed_out(&stats);
    let record = VerdictRecord {
        subject: spec.to_string(),
        clean: true,
        coverage: coverage(
            stats.timed_out,
            !(c.discerning.capped || c.recording.capped),
        ),
        states: stats.instances_visited,
        wall_seconds: wall.as_secs_f64(),
        stats: Some(stats.metrics()),
        payload: Payload::Classify(c),
    };
    finish(out, &parsed, "classify", &text, vec![record], &tracer)
}

fn cmd_compare(args: &[&str], out: &mut String) -> Result<(), String> {
    let parsed = parse_args(
        args,
        &[SEARCH_VALUE_FLAGS, &["--cap"]].concat(),
        SEARCH_SWITCH_FLAGS,
    )?;
    let cap = cap_from_args(&parsed)?;
    if parsed.positionals.is_empty() {
        return Err("usage: rcn compare <type>… [--cap N] [--threads N] [--stats]".into());
    }
    let types = parsed
        .positionals
        .iter()
        .map(|spec| parse_type(spec).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let tracer = tracer_from_args(&parsed)?;
    let engine = engine_from_args(&parsed)?.with_tracer(tracer.clone());
    let mut report = rcn_core::HierarchyReport::new(cap);
    let stats = report.add_all(&types, &engine).map_err(|e| e.to_string())?;
    let text = format!(
        "{report}\n{}",
        stats_line(&parsed, &stats, engine.threads())
    );
    warn_if_timed_out(&stats);
    finish(out, &parsed, "compare", &text, Vec::new(), &tracer)
}

fn cmd_witness(args: &[&str], out: &mut String) -> Result<(), String> {
    let parsed = parse_args(args, SEARCH_VALUE_FLAGS, SEARCH_SWITCH_FLAGS)?;
    let mut pos = parsed.positionals.iter().copied();
    let spec = pos.next().ok_or("usage: rcn witness <type> <n> [kind]")?;
    let n: usize = pos
        .next()
        .ok_or("usage: rcn witness <type> <n> [kind]")?
        .parse()
        .map_err(|_| "n must be a number ≥ 2")?;
    let kind = pos.next().unwrap_or("recording");
    let ty = parse_type(spec).map_err(|e| e.to_string())?;
    let tracer = tracer_from_args(&parsed)?;
    let engine = engine_from_args(&parsed)?.with_tracer(tracer.clone());
    let (found, explain): (_, fn(&DynObject, &Witness) -> String) = match kind {
        "discerning" => (engine.find_discerning_witness(&*ty, n), explain_discerning),
        "recording" => (engine.find_recording_witness(&*ty, n), explain_recording),
        other => {
            return Err(format!(
                "kind must be `discerning` or `recording`, got `{other}`"
            ))
        }
    };
    let mut text = match found.map_err(|e| e.to_string())? {
        Some(w) => explain(&*ty, &w),
        None if engine.stats().timed_out => {
            format!("search timed out before finding a {n}-{kind} witness — inconclusive\n")
        }
        None => format!("{} is NOT {n}-{kind} (no witness exists)\n", ty.name()),
    };
    text.push_str(&stats_line(&parsed, &engine.stats(), engine.threads()));
    finish(out, &parsed, "witness", &text, Vec::new(), &tracer)
}

fn cmd_dot(args: &[&str], out: &mut String) -> Result<(), String> {
    let parsed = parse_args(args, &[], &["--self-loops"])?;
    let [spec] = parsed.positionals[..] else {
        return Err("usage: rcn dot <type> [--self-loops]".into());
    };
    let ty = parse_type(spec).map_err(|e| e.to_string())?;
    out.push_str(&to_dot(&*ty, parsed.has("--self-loops")));
    Ok(())
}

fn cmd_table(args: &[&str], out: &mut String) -> Result<(), String> {
    let parsed = parse_args(args, &[], &[])?;
    let [spec] = parsed.positionals[..] else {
        return Err("usage: rcn table <type>".into());
    };
    let ty = parse_type(spec).map_err(|e| e.to_string())?;
    let _ = writeln!(out, "{}", to_table_text(&*ty));
    Ok(())
}

fn parse_inputs_slice(items: &[&str]) -> Result<Vec<u32>, String> {
    let inputs: Result<Vec<u32>, _> = items.iter().map(|s| s.parse::<u32>()).collect();
    let inputs = inputs.map_err(|_| "inputs must be 0/1".to_string())?;
    if inputs.len() < 2 {
        return Err("need at least 2 inputs".into());
    }
    if inputs.iter().any(|&x| x > 1) {
        return Err("inputs must be binary (0 or 1)".into());
    }
    Ok(inputs)
}

fn cmd_solve(args: &[&str], out: &mut String) -> Result<(), String> {
    let parsed = parse_args(args, &[], &[])?;
    let (spec, rest) = parsed
        .positionals
        .split_first()
        .ok_or("usage: rcn solve <type> <input>…")?;
    let inputs = parse_inputs_slice(rest)?;
    let ty = parse_type(spec).map_err(|e| e.to_string())?;
    let sys = rcn_core::solve_recoverable(ty, inputs).map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "built {} over {} shared objects",
        sys.program().name(),
        sys.layout().len()
    );
    let report = check_consensus(&sys, 50_000_000).map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "exhaustive verification ({} configurations): {}",
        report.configs, report.verdict
    );
    if report.verdict.is_correct() {
        Ok(())
    } else {
        Err("verification failed".into())
    }
}

fn cmd_simulate_tnn(args: &[&str], out: &mut String) -> Result<(), String> {
    let pos = parse_args(args, &[], &[])?.positionals;
    if pos.len() < 3 {
        return Err("usage: rcn simulate-tnn <n> <n'> <input>…".into());
    }
    let n: usize = pos[0].parse().map_err(|_| "n must be a number")?;
    let n_prime: usize = pos[1].parse().map_err(|_| "n' must be a number")?;
    let inputs = parse_inputs_slice(&pos[2..])?;
    let procs = inputs.len();
    let sys = TnnRecoverable::try_system(n, n_prime, inputs).map_err(|e| e.to_string())?;
    let report = check_consensus(&sys, 50_000_000).map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "T_({n},{n_prime}) recoverable algorithm, {procs} processes: {} ({} configurations)",
        report.verdict, report.configs
    );
    out.push_str(if procs <= n_prime {
        "(≤ n' processes: the paper's Lemma 16 says this must be correct)\n"
    } else {
        "(> n' processes: Lemma 16 says a violation must exist)\n"
    });
    Ok(())
}

/// The default type expressions `rcn lint --all` covers: every catalogue
/// entry instantiated at its defaults.
const LINT_ALL_TYPES: &[&str] = &[
    "register",
    "tas",
    "faa",
    "swap",
    "cas",
    "sticky",
    "consensus",
    "mconsensus",
    "queue",
    "stack",
    "tnn",
    "team-counter",
    "xn",
    "tas+read",
];

fn cmd_lint(args: &[&str], out: &mut String) -> Result<(), String> {
    use rcn_analyze::{ExploreConfig, Registry, Report};

    let parsed = parse_args(
        args,
        &["--deny", "--trace"],
        &["--json", "--all", "--stats", "--metrics", "--force"],
    )?;
    let started = Instant::now();
    let deny_warnings = match parsed.value("--deny") {
        None => false,
        Some("warnings") => true,
        Some(other) => return Err(format!("unknown --deny level `{other}` (try `warnings`)")),
    };
    let all = parsed.has("--all");
    let specs: Vec<&str> = if all {
        LINT_ALL_TYPES.to_vec()
    } else {
        parsed.positionals.clone()
    };
    if specs.is_empty() {
        return Err("usage: rcn lint [<type>…|--all] [--json] [--deny warnings]".into());
    }

    let tracer = tracer_from_args(&parsed)?;
    let registry = Registry::with_defaults();
    let mut combined = Report::new();
    let mut records = Vec::new();
    // Each subject's findings become its record; the text report merges them.
    let mut record = |subject: &str, mut report: Report, since: Instant| {
        report.finish();
        combined.merge(report.clone());
        records.push(VerdictRecord {
            subject: subject.to_string(),
            clean: !report.should_fail(deny_warnings),
            // RCN100 reports an exploration the state cap truncated.
            coverage: coverage(
                false,
                !report.diagnostics.iter().any(|d| d.code == "RCN100"),
            ),
            states: 0,
            wall_seconds: since.elapsed().as_secs_f64(),
            stats: None,
            payload: Payload::Lint(report),
        });
    };
    for spec in &specs {
        let since = Instant::now();
        // `table:FILE` is loaded *without* up-front validation here: letting
        // the linter itself report closedness holes (RCN001) on a hand-edited
        // table is the point of linting it. Other commands keep the strict
        // `parse_type` path.
        let ty: types::DynType = if let Some(path) = spec.strip_prefix("table:") {
            let json =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let table: rcn_spec::TableType = serde_json::from_str(&json)
                .map_err(|e| format!("bad table JSON in {path}: {e}"))?;
            std::sync::Arc::new(table)
        } else {
            parse_type(spec).map_err(|e| e.to_string())?
        };
        record(spec, registry.lint_type_traced(&*ty, &tracer), since);
    }
    if all {
        // The shipped recoverable protocols ride along with --all: the §4
        // T_{n,n'} algorithm and the tournament over a sticky bit.
        let cfg = ExploreConfig::default();
        let since = Instant::now();
        let sys = TnnRecoverable::system(5, 2, vec![0, 1]);
        let report = registry.lint_system_traced(&sys, &cfg, &tracer);
        record("tnn-recoverable:5,2 (inputs [0, 1])", report, since);
        let since = Instant::now();
        let sticky: types::DynType = std::sync::Arc::new(rcn_spec::zoo::StickyBit::new());
        let sys = rcn_core::solve_recoverable(sticky, vec![1, 0, 1]).map_err(|e| e.to_string())?;
        let report = registry.lint_system_traced(&sys, &cfg, &tracer);
        record("tournament:sticky (inputs [1, 0, 1])", report, since);
    }
    combined.finish();

    finish(
        out,
        &parsed,
        "lint",
        &combined.render_text(),
        records,
        &tracer,
    )?;
    if parsed.has("--stats") && !parsed.has("--json") {
        let _ = writeln!(
            out,
            "lint stats          : {} type(s){} linted, {} error(s), {} warning(s) in {:.3}s",
            specs.len(),
            if all { " + 2 system(s)" } else { "" },
            combined.errors(),
            combined.warnings(),
            started.elapsed().as_secs_f64()
        );
    }
    if combined.should_fail(deny_warnings) {
        Err(format!(
            "lint failed: {} error(s), {} warning(s)",
            combined.errors(),
            combined.warnings()
        ))
    } else {
        Ok(())
    }
}

/// Builds the protocol system a `crashtest` spec names. Specs mirror the
/// type catalogue's `name[:params]` shape:
///
/// * `tas` — Golab's test&set consensus (the paper's motivating example);
/// * `tnn-wait-free[:n,n']` — the wait-free `T_{n,n'}` protocol (default
///   `2,1`, whose ⊥-divergence under a crash the explorer rediscovers);
/// * `tnn-recoverable[:n,n']` — the paper's §4 algorithm (default `5,2`);
/// * `tournament[:type]` — the tournament construction over a readable
///   type (default `sticky`).
fn build_protocol(
    spec: &str,
    inputs: Option<Vec<u32>>,
) -> Result<(String, rcn_model::System), String> {
    use rcn_protocols::{TasConsensus, TnnWaitFree, TournamentConsensus};

    let (name, params) = match spec.split_once(':') {
        Some((n, p)) => (n, Some(p)),
        None => (spec, None),
    };
    let parse_pair = |params: Option<&str>, default: (usize, usize)| -> Result<_, String> {
        let Some(p) = params else { return Ok(default) };
        let (n, n_prime) = p
            .split_once(',')
            .ok_or_else(|| format!("expected `{name}:n,n'`, got `{spec}`"))?;
        let n = n.parse().map_err(|_| "n must be a number".to_string())?;
        let n_prime = n_prime
            .parse()
            .map_err(|_| "n' must be a number".to_string())?;
        Ok((n, n_prime))
    };
    let inputs = inputs.unwrap_or_else(|| vec![0, 1]);
    let label = format!("{spec} (inputs {inputs:?})");
    let sys = match name {
        "tas" => {
            if params.is_some() {
                return Err(format!("`tas` takes no parameters, got `{spec}`"));
            }
            TasConsensus::try_system(inputs).map_err(|e| e.to_string())?
        }
        "tnn-wait-free" => {
            let (n, n_prime) = parse_pair(params, (2, 1))?;
            TnnWaitFree::try_system(n, n_prime, inputs).map_err(|e| e.to_string())?
        }
        "tnn-recoverable" => {
            let (n, n_prime) = parse_pair(params, (5, 2))?;
            TnnRecoverable::try_system(n, n_prime, inputs).map_err(|e| e.to_string())?
        }
        "tournament" => {
            let ty = parse_type(params.unwrap_or("sticky")).map_err(|e| e.to_string())?;
            TournamentConsensus::try_new(ty, inputs).map_err(|e| e.to_string())?
        }
        other => {
            return Err(format!(
                "unknown protocol `{other}` (try tas, tnn-wait-free[:n,n'], \
                 tnn-recoverable[:n,n'], tournament[:type])"
            ))
        }
    };
    Ok((label, sys))
}

/// Parses the crash budget `crashtest` and `check` share — `--crashes`,
/// `--depth`, `--max-states`, `--fault-model` — and `--inputs`.
fn budget_from_args(
    parsed: &Parsed,
) -> Result<(rcn_faults::CrashtestConfig, Option<Vec<u32>>), String> {
    let mut budget = rcn_faults::CrashtestConfig::default();
    if let Some(v) = parsed.value("--crashes") {
        budget.max_crashes = v.parse().map_err(|_| "crashes must be a number")?;
    }
    if let Some(v) = parsed.value("--depth") {
        budget.max_depth = v.parse().map_err(|_| "depth must be a number")?;
        if budget.max_depth == 0 {
            return Err("depth must be at least 1".into());
        }
    }
    if let Some(v) = parsed.value("--max-states") {
        budget.max_states = v.parse().map_err(|_| "max-states must be a number")?;
        if budget.max_states == 0 {
            return Err("max-states must be at least 1".into());
        }
    }
    if let Some(v) = parsed.value("--fault-model") {
        budget.fault_model = v.parse().map_err(|e| format!("{e}"))?;
    }
    let inputs = parsed
        .value("--inputs")
        .map(|v| parse_inputs_slice(&v.split(',').collect::<Vec<_>>()))
        .transpose()?;
    Ok((budget, inputs))
}

fn cmd_crashtest(args: &[&str], out: &mut String) -> Result<(), String> {
    use rcn_faults::{replay_traced, shrink_counterexample_traced, CrashExplorer, ExplorerMemo};
    use verdict::CrashtestVerdict;

    let parsed = parse_args(
        args,
        &[BUDGET_VALUE_FLAGS, &["--memo-dir", "--timeout"]].concat(),
        &[
            "--shrink",
            "--no-memo",
            "--json",
            "--stats",
            "--metrics",
            "--force",
        ],
    )?;
    let [spec] = parsed.positionals[..] else {
        return Err(
            "usage: rcn crashtest <protocol> [--crashes K] [--depth D] [--max-states N] \
             [--fault-model per-process|system|mid-op|all] [--inputs 0,1] \
             [--memo-dir DIR] [--no-memo] \
             [--timeout SECS] [--shrink] [--json] [--stats] [--trace PATH] [--metrics]"
                .into(),
        );
    };
    let (config, inputs) = budget_from_args(&parsed)?;
    let (label, sys) = build_protocol(spec, inputs)?;
    // The crash budget of zero is legal but worth flagging: the run is a
    // crash-free exploration, not a crash-robustness certificate.
    let crash_free = config.max_crashes == 0;
    let shrink = parsed.has("--shrink");

    let tracer = tracer_from_args(&parsed)?;
    let mut explorer = CrashExplorer::new(&sys, config).with_tracer(tracer.clone());
    if let Some(timeout) = timeout_from_args(&parsed)? {
        explorer = explorer.with_timeout(timeout);
    }
    // `--no-memo` wins over `--memo-dir`, like `--no-cache`/`--cache-dir`.
    if let Some(dir) = parsed.value("--memo-dir") {
        if !parsed.has("--no-memo") {
            explorer = explorer.with_memo(ExplorerMemo::new(dir));
        }
    }
    let started = Instant::now();
    let report = explorer.explore();
    let shrunk = report.counterexample.as_ref().map(|cex| {
        let minimal = if shrink {
            shrink_counterexample_traced(&sys, cex, &tracer)
        } else {
            cex.clone()
        };
        // Counterexamples are never reported on the abstract executor's
        // word alone: the schedule must reproduce end-to-end through the
        // threaded runtime too.
        let replayed = replay_traced(&sys, &minimal.schedule, &tracer);
        (minimal, replayed)
    });
    let wall = started.elapsed();

    let mut text = String::new();
    let _ = writeln!(text, "protocol            : {label}");
    let _ = writeln!(
        text,
        "crash budget        : ≤{} crash(es) per process, schedules ≤{} events{}",
        config.max_crashes,
        config.max_depth,
        if crash_free {
            " (crash-free exploration: no crash robustness is being tested)"
        } else {
            ""
        }
    );
    let _ = writeln!(text, "fault model         : {}", config.fault_model);
    let _ = writeln!(text, "explored            : {}", report.stats);
    if parsed.has("--stats") {
        let _ = writeln!(
            text,
            "crashtest stats     : {} in {:.3}s{}{}",
            report.stats,
            wall.as_secs_f64(),
            if report.stats.depth_limited {
                " (depth cap reached)"
            } else {
                ""
            },
            if shrink && shrunk.is_some() {
                " (+shrink/replay)"
            } else {
                ""
            },
        );
    }
    match &shrunk {
        None if report.is_certified_clean() => {
            let _ = writeln!(
                text,
                "verdict             : CERTIFIED CLEAN — no crash placement within the \
                 budget violates agreement or validity"
            );
        }
        None => {
            let why = if report.stats.timed_out {
                "the deadline expired"
            } else {
                "search was capped"
            };
            let _ = writeln!(
                text,
                "verdict             : clean within the explored bound ({why}, so this \
                 is NOT a certification)"
            );
        }
        Some((cex, replayed)) => {
            let tag = if shrink {
                "minimal schedule"
            } else {
                "schedule"
            };
            let _ = writeln!(text, "{tag:<20}: {}", cex.schedule);
            let _ = writeln!(text, "violation           : {}", cex.violation);
            if let Some(d) = &cex.divergence {
                let _ = writeln!(text, "divergence          : {d}");
            }
            let _ = writeln!(
                text,
                "threaded replay     : {}",
                if replayed.confirmed() {
                    "CONFIRMED (same outputs, same violation, faithful trace)"
                } else {
                    "DID NOT CONFIRM — executor/runtime disagreement, please report"
                }
            );
        }
    }

    let stats = &report.stats;
    let record = VerdictRecord {
        subject: spec.to_string(),
        clean: shrunk.is_none(),
        coverage: coverage(stats.timed_out, stats.exhaustive()),
        states: stats.states_visited,
        wall_seconds: wall.as_secs_f64(),
        stats: Some(counters(&[
            ("crashtest.states_visited", stats.states_visited),
            ("crashtest.events_applied", stats.events_applied),
            ("crashtest.memo_hits", stats.memo_hits),
            ("crashtest.re_explored", stats.re_explored),
            ("crashtest.resumed_states", stats.resumed_states),
        ])),
        payload: Payload::Crashtest(CrashtestVerdict {
            crashes: config.max_crashes,
            crash_free,
            depth: config.max_depth,
            fault_model: config.fault_model.to_string(),
            shrunk: shrink,
            schedule: shrunk.as_ref().map(|(cex, _)| cex.schedule.to_string()),
            violation: shrunk.as_ref().map(|(cex, _)| cex.violation.to_string()),
            divergence: shrunk
                .as_ref()
                .and_then(|(cex, _)| cex.divergence.as_ref().map(ToString::to_string)),
            replay_confirmed: shrunk.as_ref().map(|(_, replayed)| replayed.confirmed()),
        }),
    };
    finish(out, &parsed, "crashtest", &text, vec![record], &tracer)?;
    match &shrunk {
        Some(_) => Err(format!(
            "crashtest found a counterexample for {spec} (see above)"
        )),
        None => Ok(()),
    }
}

/// `rcn check <protocol>…` — the independent breadth-first model checker
/// (`rcn-mc`): a second opinion on `crashtest`'s DFS verdicts, sharing no
/// search code with it, reporting minimal-depth counterexamples and an
/// honest exhaustive/bounded coverage tag. With `--valency` it also
/// re-derives the initial configuration's valency by a forward search of
/// the budgeted `E_z*` graph that stops once it has reached both decision
/// values. Exits nonzero if any protocol has a counterexample.
fn cmd_check(args: &[&str], out: &mut String) -> Result<(), String> {
    use rcn_mc::{model_check_traced, valency_check, McConfig, ValencyConfig};
    use verdict::{CheckVerdict, ValencyVerdict};

    let parsed = parse_args(
        args,
        &[BUDGET_VALUE_FLAGS, &["--z", "--clamp"]].concat(),
        &["--valency", "--json", "--stats", "--metrics", "--force"],
    )?;
    if parsed.positionals.is_empty() {
        return Err(
            "usage: rcn check <protocol>… [--crashes K] [--depth D] [--max-states N] \
             [--fault-model per-process|system|mid-op|all] [--inputs 0,1] [--valency] \
             [--z Z] [--clamp C] [--json] [--stats] [--trace PATH] [--metrics]"
                .into(),
        );
    }
    let (budget, inputs) = budget_from_args(&parsed)?;
    let config = McConfig {
        max_crashes: budget.max_crashes,
        max_depth: budget.max_depth,
        max_states: budget.max_states,
        fault_model: budget.fault_model,
    };
    let mut vconfig = ValencyConfig::default();
    if let Some(v) = parsed.value("--z") {
        vconfig.z = v.parse().map_err(|_| "z must be a number")?;
    }
    if let Some(v) = parsed.value("--clamp") {
        vconfig.clamp = v.parse().map_err(|_| "clamp must be a number")?;
    }
    if parsed.value("--max-states").is_some() {
        vconfig.max_states = config.max_states;
    }

    let tracer = tracer_from_args(&parsed)?;
    let mut violators: Vec<&str> = Vec::new();
    let mut text = String::new();
    let mut records = Vec::new();
    for (i, spec) in parsed.positionals.iter().enumerate() {
        let (label, sys) = build_protocol(spec, inputs.clone())?;
        let started = Instant::now();
        let report = model_check_traced(&sys, config, &tracer);
        let valency = parsed
            .has("--valency")
            .then(|| valency_check(&sys, vconfig));
        let wall = started.elapsed();
        if report.counterexample.is_some() {
            violators.push(spec);
        }

        if i > 0 {
            text.push('\n');
        }
        let _ = writeln!(text, "protocol            : {label}");
        let _ = writeln!(
            text,
            "crash budget        : ≤{} crash(es) per process, schedules ≤{} events",
            config.max_crashes, config.max_depth
        );
        let _ = writeln!(text, "fault model         : {}", config.fault_model);
        let _ = writeln!(text, "explored            : {}", report.stats);
        let _ = writeln!(text, "coverage            : {}", report.coverage);
        if parsed.has("--stats") {
            let _ = writeln!(
                text,
                "check stats         : {} in {:.3}s",
                report.stats,
                wall.as_secs_f64()
            );
        }
        let _ = match &report.counterexample {
            None if report.is_certified_clean() => writeln!(
                text,
                "verdict             : CERTIFIED CLEAN — breadth-first search found \
                 no violating schedule within the budget"
            ),
            None => writeln!(
                text,
                "verdict             : clean within the explored bound (state cap \
                 hit, so this is NOT a certification)"
            ),
            Some(cex) => writeln!(
                text,
                "minimal schedule    : {}\nviolation           : {}\n\
                 verdict             : VIOLATION — minimal-depth counterexample found \
                 by breadth-first search",
                cex.schedule, cex.violation
            ),
        };
        if let Some(v) = &valency {
            let _ = writeln!(
                text,
                "valency             : initial configuration is {} (z={}, clamp={}, \
                 {} states, {})",
                v.valency, vconfig.z, vconfig.clamp, v.states, v.coverage
            );
        }

        let stats = &report.stats;
        records.push(VerdictRecord {
            subject: spec.to_string(),
            clean: report.counterexample.is_none(),
            coverage: coverage(false, report.coverage.is_exhaustive()),
            states: stats.states_visited,
            wall_seconds: wall.as_secs_f64(),
            stats: Some(counters(&[
                ("mc.states_visited", stats.states_visited),
                ("mc.events_applied", stats.events_applied),
                ("mc.dedup_hits", stats.dedup_hits),
                ("mc.frontier_peak", stats.frontier_peak),
            ])),
            payload: Payload::Check(CheckVerdict {
                crashes: config.max_crashes,
                depth: config.max_depth,
                fault_model: config.fault_model.to_string(),
                schedule: report
                    .counterexample
                    .as_ref()
                    .map(|c| c.schedule.to_string()),
                violation: report
                    .counterexample
                    .as_ref()
                    .map(|c| c.violation.to_string()),
                valency: valency.map(|v| ValencyVerdict {
                    verdict: v.valency.to_string(),
                    z: vconfig.z,
                    clamp: vconfig.clamp,
                    states: v.states,
                    coverage: v.coverage.to_string(),
                }),
            }),
        });
    }

    finish(out, &parsed, "check", &text, records, &tracer)?;
    match &violators[..] {
        [] => Ok(()),
        some => Err(format!(
            "check found a counterexample for {} (see above)",
            some.join(", ")
        )),
    }
}

/// `rcn profile <trace.jsonl>` — aggregate a `--trace` file into a
/// per-span time breakdown: call counts, total and self time (total minus
/// direct children), and exact p50/p99 per-call durations.
fn cmd_profile(args: &[&str], out: &mut String) -> Result<(), String> {
    let parsed = parse_args(args, &[], &["--json"])?;
    let [path] = parsed.positionals[..] else {
        return Err("usage: rcn profile <trace.jsonl> [--json]".into());
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
    let events = parse_jsonl(&text).map_err(|e| format!("bad trace {path}: {e}"))?;
    if events.is_empty() {
        return Err(format!("trace {path} contains no events"));
    }
    let report = ProfileReport::build(&events);
    if parsed.has("--json") {
        let _ = writeln!(out, "{}", report.to_json());
    } else {
        let _ = writeln!(out, "profile of {path} ({} trace rows)", events.len());
        out.push_str(&report.render_text());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(items: &[&str]) -> Vec<String> {
        items.iter().map(ToString::to_string).collect()
    }

    /// The tests' `run`: `super::run` without its write to stdout, which
    /// the test harness does not capture.
    fn run(args: &[String]) -> Result<(), String> {
        run_to(args, &mut String::new())
    }

    /// A temp-dir path no other test (in this process or a concurrent
    /// one) uses: the pid and a per-process counter precede `tag`.
    pub(crate) fn scratch_path(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("rcn-cli-{}-{n}-{tag}", std::process::id()))
    }

    #[test]
    fn every_command_writes_to_out() {
        let mut out = String::new();
        run_to(&s(&["types"]), &mut out).unwrap();
        assert!(out.starts_with("expression"), "{out}");
        assert!(out.lines().any(|l| l.starts_with("tas ")), "{out}");
        for args in [&["help"][..], &["table", "tas"], &["dot", "tas"]] {
            let mut out = String::new();
            run_to(&s(args), &mut out).unwrap();
            assert!(!out.is_empty(), "{args:?}");
        }
    }

    #[test]
    fn a_reader_that_went_away_ends_the_write_quietly() {
        /// A writer whose every write fails with `kind`.
        struct Failing(std::io::ErrorKind);
        impl std::io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(self.0.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let closed = &mut Failing(std::io::ErrorKind::BrokenPipe);
        assert!(write_out(closed, "expression\n").is_ok());
        // Any other write error still surfaces.
        let full = &mut Failing(std::io::ErrorKind::StorageFull);
        assert!(write_out(full, "expression\n").is_err());
    }

    #[test]
    fn parse_args_splits_flags_and_positionals() {
        let p = parse_args(
            &["tas", "--cap=6", "--stats", "--threads", "2", "extra"],
            &["--cap", "--threads"],
            &["--stats"],
        )
        .unwrap();
        assert_eq!(p.positionals, vec!["tas", "extra"]);
        assert_eq!(p.value("--cap"), Some("6"));
        assert_eq!(p.value("--threads"), Some("2"));
        assert!(p.has("--stats"));
        assert!(!p.has("--no-cache"));
        // Last occurrence wins, and `=` may appear inside the value.
        let p = parse_args(&["--cap=3", "--cap=4"], &["--cap"], &[]).unwrap();
        assert_eq!(p.value("--cap"), Some("4"));
        let p = parse_args(&["--cache-dir=/tmp/a=b"], &["--cache-dir"], &[]).unwrap();
        assert_eq!(p.value("--cache-dir"), Some("/tmp/a=b"));
    }

    #[test]
    fn parse_args_rejects_malformed_flags() {
        assert!(parse_args(&["--bogus"], &["--cap"], &["--stats"]).is_err());
        assert!(parse_args(&["--cap"], &["--cap"], &[]).is_err());
        assert!(parse_args(&["--stats=1"], &[], &["--stats"]).is_err());
        // A prefix of a known flag is not that flag.
        assert!(parse_args(&["--ca", "6"], &["--cap"], &[]).is_err());
    }

    #[test]
    fn help_and_types_run() {
        assert!(run(&s(&["help"])).is_ok());
        assert!(run(&s(&["types"])).is_ok());
        assert!(run(&s(&[])).is_ok());
    }

    #[test]
    fn classify_runs_on_small_types() {
        assert!(run(&s(&["classify", "tas"])).is_ok());
        assert!(run(&s(&["classify", "register:2", "--cap", "3"])).is_ok());
    }

    #[test]
    fn classify_accepts_threads_and_stats_flags() {
        assert!(run(&s(&["classify", "tas", "--threads", "2", "--stats"])).is_ok());
        assert!(run(&s(&["classify", "tas", "--threads", "0"])).is_ok());
        assert!(run(&s(&[
            "witness",
            "sticky",
            "3",
            "recording",
            "--threads",
            "2",
            "--stats"
        ]))
        .is_ok());
        assert!(run(&s(&[
            "compare",
            "tas",
            "register:2",
            "--threads",
            "2",
            "--cap",
            "3",
            "--stats"
        ]))
        .is_ok());
        // A flag value must not be eaten as a positional type name.
        assert!(run(&s(&["classify", "--threads", "2", "tas"])).is_ok());
    }

    #[test]
    fn trace_metrics_and_profile_round_trip() {
        let dir = scratch_path("trace");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.jsonl");
        let trace_arg = trace.to_str().unwrap();

        // A traced classify writes parseable JSONL.
        assert!(run(&s(&["classify", "tas", "--cap", "3", "--trace", trace_arg])).is_ok());
        let text = std::fs::read_to_string(&trace).unwrap();
        let events = parse_jsonl(&text).expect("every trace line parses");
        assert!(
            events.iter().any(|e| e.name == "engine.level"),
            "classify must record engine.level spans"
        );

        // Overwrite refusal without --force; --force allows it.
        assert!(run(&s(&["classify", "tas", "--cap", "3", "--trace", trace_arg])).is_err());
        assert!(run(&s(&[
            "classify", "tas", "--cap", "3", "--trace", trace_arg, "--force"
        ]))
        .is_ok());

        // The profile command digests the trace, in both renderings.
        assert!(run(&s(&["profile", trace_arg])).is_ok());
        assert!(run(&s(&["profile", trace_arg, "--json"])).is_ok());
        assert!(run(&s(&["profile", "/nonexistent/t.jsonl"])).is_err());

        // --metrics works standalone and with --json, on search and faults.
        assert!(run(&s(&["classify", "tas", "--cap", "3", "--metrics"])).is_ok());
        assert!(run(&s(&[
            "classify",
            "tas",
            "--cap",
            "3",
            "--metrics",
            "--json"
        ]))
        .is_ok());
        assert!(run(&s(&["witness", "sticky", "3", "recording", "--metrics"])).is_ok());
        assert!(run(&s(&["compare", "tas", "--cap", "3", "--metrics"])).is_ok());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crashtest_and_lint_take_stats_and_metrics() {
        // crashtest: tas finds a counterexample (exit err) — flags must
        // still be accepted; the clean tournament run exits ok.
        assert!(run(&s(&["crashtest", "tas", "--stats", "--metrics"])).is_err());
        assert!(run(&s(&[
            "crashtest",
            "tnn-wait-free",
            "--depth",
            "6",
            "--shrink",
            "--stats",
            "--metrics",
            "--json"
        ]))
        .is_err());
        assert!(run(&s(&["lint", "tas", "--stats"])).is_ok());
        assert!(run(&s(&["lint", "tas", "--stats", "--json"])).is_ok());
    }

    #[test]
    fn out_of_range_caps_error_instead_of_panicking() {
        assert!(run(&s(&["classify", "tas", "--cap", "25"])).is_err());
        assert!(run(&s(&["classify", "tas", "--cap", "1"])).is_err());
        assert!(run(&s(&["classify", "tas", "--cap", "0"])).is_err());
        assert!(run(&s(&["witness", "tas", "25", "recording"])).is_err());
        assert!(run(&s(&["compare", "tas", "--cap", "25"])).is_err());
        assert!(run(&s(&["classify", "tas", "--threads", "x"])).is_err());
    }

    #[test]
    fn equals_style_flag_values_are_honored() {
        // `--cap=6` used to be silently dropped (the search ran at the
        // default cap 4). Now the value is seen: `--cap=1` must trip the
        // same guard as `--cap 1`, and `--cap=3` must succeed.
        assert!(run(&s(&["classify", "tas", "--cap=3"])).is_ok());
        assert!(run(&s(&["classify", "tas", "--cap=1"])).is_err());
        assert!(run(&s(&["classify", "tas", "--cap=25"])).is_err());
        assert!(run(&s(&[
            "compare",
            "tas",
            "register:2",
            "--cap=3",
            "--threads=2"
        ]))
        .is_ok());
        assert!(run(&s(&["witness", "sticky", "3", "recording", "--threads=2"])).is_ok());
        assert!(run(&s(&["lint", "tas", "--deny=warnings"])).is_ok());
    }

    #[test]
    fn malformed_flags_are_usage_errors_not_ignored() {
        let err = run(&s(&["classify", "tas", "--pac", "6"])).unwrap_err();
        assert!(err.contains("unknown flag `--pac`"), "got: {err}");
        let err = run(&s(&["classify", "tas", "--cap"])).unwrap_err();
        assert!(err.contains("missing value for `--cap`"), "got: {err}");
        let err = run(&s(&["classify", "tas", "--stats=yes"])).unwrap_err();
        assert!(err.contains("does not take a value"), "got: {err}");
        // Flags another search command accepts are still rejected where
        // they mean nothing, instead of being silently swallowed.
        assert!(run(&s(&["witness", "tas", "2", "--cap", "6"])).is_err());
        assert!(run(&s(&["dot", "tas", "--cap", "3"])).is_err());
        assert!(run(&s(&["table", "tas", "--stats"])).is_err());
    }

    #[test]
    fn cache_flags_round_trip_through_the_cli() {
        let dir = scratch_path("cache");
        let dir = dir.to_str().unwrap();
        // Cold run populates, warm run must agree; --no-cache wins.
        assert!(run(&s(&["classify", "tas", "--cache-dir", dir])).is_ok());
        assert!(run(&s(&["classify", "tas", &format!("--cache-dir={dir}")])).is_ok());
        assert!(run(&s(&["classify", "tas", "--cache-dir", dir, "--no-cache"])).is_ok());
        assert!(run(&s(&["witness", "sticky", "3", "--cache-dir", dir])).is_ok());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn json_is_a_usage_error_where_no_json_is_rendered() {
        // `compare` and `witness` print text; a `--json` there used to
        // print that text followed by a JSON metrics object.
        let err = run(&s(&["compare", "tas", "cas", "--json", "--metrics"])).unwrap_err();
        assert!(err.contains("unknown flag `--json`"), "got: {err}");
        let err = run(&s(&["witness", "tas", "2", "--json"])).unwrap_err();
        assert!(err.contains("unknown flag `--json`"), "got: {err}");
        assert!(run(&s(&["classify", "tas", "--json", "--stats", "--metrics"])).is_ok());
    }

    /// The envelope's top-level keys and its records, as a test reads them.
    #[derive(serde::Deserialize)]
    struct Doc {
        rcn_version: String,
        command: String,
        records: Vec<Record>,
        metrics: Option<rcn_obs::MetricsSnapshot>,
    }

    /// A record's shared fields (the payload is checked through `json`).
    #[derive(serde::Deserialize)]
    struct Record {
        subject: String,
        clean: bool,
        coverage: String,
        states: u64,
        wall_seconds: f64,
        stats: Option<rcn_obs::MetricsSnapshot>,
    }

    /// The keys of a JSON object, in document order.
    struct Keys(Vec<String>);

    impl serde::Deserialize for Keys {
        fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
            let entries = value
                .as_object()
                .ok_or_else(|| serde::Error::custom("not an object"))?;
            Ok(Keys(entries.iter().map(|(k, _)| k.clone()).collect()))
        }
    }

    /// Runs a `--json` command line in-process: its stdout must be exactly
    /// one envelope. Returns the raw document, the parsed envelope, and
    /// whether the command succeeded.
    fn json_doc(args: &[&str]) -> (String, Doc, bool) {
        let mut out = String::new();
        let ok = run_to(&s(args), &mut out).is_ok();
        let doc: Doc = serde_json::from_str(&out).unwrap_or_else(|e| panic!("{e}: {out}"));
        let Keys(keys) = serde_json::from_str(&out).unwrap();
        assert_eq!(keys, ["rcn_version", "command", "records", "metrics"]);
        assert_eq!(doc.rcn_version, env!("CARGO_PKG_VERSION"));
        assert_eq!(doc.command, args[0]);
        for record in &doc.records {
            assert!(["exhaustive", "bounded", "timed_out"].contains(&record.coverage.as_str()));
            assert!(record.wall_seconds >= 0.0);
        }
        (out, doc, ok)
    }

    #[test]
    fn every_verdict_command_prints_one_envelope() {
        let (json, doc, ok) = json_doc(&["classify", "tas", "--cap", "3", "--json"]);
        assert!(ok);
        let [record] = &doc.records[..] else {
            panic!("one record per type: {json}")
        };
        assert_eq!(record.subject, "tas");
        assert!(record.clean && record.states > 0);
        assert!(json.contains(r#""payload":{"Classify":{"type_name":"test-and-set""#));
        assert!(doc.metrics.is_none(), "no --metrics, no snapshot");

        let (json, doc, ok) = json_doc(&["crashtest", "tas", "--shrink", "--json"]);
        assert!(!ok, "a counterexample fails the command");
        assert!(!doc.records[0].clean);
        assert!(
            json.contains(r#""schedule":"p0 p0 p1 c0 p0 p0 p0""#),
            "{json}"
        );
        assert!(json.contains(r#""replay_confirmed":true"#), "{json}");

        let (json, doc, ok) = json_doc(&["check", "tnn-recoverable:5,2", "--valency", "--json"]);
        assert!(ok);
        assert!(doc.records[0].clean);
        assert_eq!(doc.records[0].coverage, "exhaustive");
        assert!(json.contains(r#""fault_model":"per-process""#), "{json}");
        assert!(
            json.contains(r#""valency":{"verdict":"bivalent""#),
            "{json}"
        );

        let (_, doc, ok) = json_doc(&["lint", "tas", "sticky", "--json"]);
        assert!(ok);
        let subjects: Vec<_> = doc.records.iter().map(|r| r.subject.as_str()).collect();
        assert_eq!(subjects, ["tas", "sticky"]);
        assert!(doc.records.iter().all(|r| r.clean && r.stats.is_none()));
    }

    #[test]
    fn envelope_shape_does_not_depend_on_flags_or_subject_count() {
        // `json_doc` pins the top-level keys on every document; here the
        // records keep their shape too, with and without --stats/--metrics.
        for base in [
            &["classify", "tas", "--cap", "3", "--json"][..],
            &["crashtest", "tnn-recoverable:5,2", "--json"],
            &["check", "tas", "--json"],
            &["lint", "tas", "--json"],
        ] {
            let (_, plain, _) = json_doc(base);
            let (_, flagged, _) = json_doc(&[base, &["--stats", "--metrics"]].concat());
            assert_eq!(plain.records.len(), flagged.records.len(), "{base:?}");
            assert!(
                plain.metrics.is_none() && flagged.metrics.is_some(),
                "{base:?}"
            );
            let stats = |d: &Doc| d.records[0].stats.is_some();
            assert_eq!(stats(&plain), stats(&flagged), "{base:?}");
        }
        // `check` with one protocol and with three: the same envelope, one
        // record per protocol.
        let (_, one, _) = json_doc(&["check", "tas", "--json"]);
        let (_, three, ok) = json_doc(&[
            "check",
            "tas",
            "tnn-recoverable:5,2",
            "tournament:sticky",
            "--json",
            "--metrics",
        ]);
        assert!(!ok, "tas violates");
        assert_eq!(one.records.len(), 1);
        let clean: Vec<_> = three.records.iter().map(|r| r.clean).collect();
        assert_eq!(clean, [false, true, true]);
        let metrics = three.metrics.expect("--metrics embeds the snapshot");
        assert!(
            metrics.counter("mc.states_visited") > Some(0),
            "{metrics:?}"
        );
        assert!(metrics.counter("mc.frontier_peak") > Some(0), "{metrics:?}");
        for record in &three.records {
            let stats = record.stats.as_ref().unwrap();
            assert_eq!(stats.counter("mc.states_visited"), Some(record.states));
            assert!(stats.counter("mc.frontier_peak") > Some(0));
        }
        // The envelope's registry sums the records' counters over the
        // three checks; the frontier peak is their maximum.
        let over_records = |name: &str| -> Vec<u64> {
            three
                .records
                .iter()
                .map(|r| r.stats.as_ref().unwrap().counter(name).unwrap())
                .collect()
        };
        for name in ["mc.states_visited", "mc.events_applied"] {
            let sum: u64 = over_records(name).iter().sum();
            assert_eq!(metrics.counter(name), Some(sum), "{name}");
        }
        let peak = over_records("mc.frontier_peak").into_iter().max();
        assert_eq!(metrics.counter("mc.frontier_peak"), peak);
    }

    #[test]
    fn json_records_carry_the_search_counters() {
        // The recording scan reuses the discerning scan's analyses.
        let (_, doc, _) = json_doc(&["classify", "team-counter", "--cap", "4", "--json"]);
        let stats = doc.records[0].stats.as_ref().unwrap();
        assert!(stats.counter("engine.cache_hits") > Some(0), "{stats:?}");
        assert!(stats.counter("engine.analyses_computed") > Some(0));
        // The crashtest counters, per record and in the registry.
        let (_, doc, _) = json_doc(&["crashtest", "tas", "--json", "--metrics"]);
        let metrics = doc.metrics.unwrap();
        assert!(metrics.counter("crashtest.states_visited") > Some(0));
        assert!(metrics.counter("crashtest.events_applied") > Some(0));
        let stats = doc.records[0].stats.as_ref().unwrap();
        assert_eq!(
            stats.counter("crashtest.states_visited"),
            Some(doc.records[0].states)
        );
        // A cold classify persists levels; the warm one is served from disk.
        let dir = scratch_path("classify-json");
        let dir_arg = dir.display().to_string();
        let mut disk_hits = Vec::new();
        for _ in 0..2 {
            let (_, doc, _) = json_doc(&[
                "classify",
                "tas",
                "--cap",
                "3",
                "--cache-dir",
                &dir_arg,
                "--json",
            ]);
            let stats = doc.records[0].stats.as_ref().unwrap();
            disk_hits.push(stats.counter("engine.disk_hits"));
        }
        assert_eq!(disk_hits[0], Some(0));
        assert!(disk_hits[1] > Some(0), "{disk_hits:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_parameters_are_usage_errors_not_panics() {
        // Each must reach the CLI as a constructor's error, never as a
        // panic (exit 101).
        for args in [
            &["classify", "faa:0"][..],
            &["classify", "cas:0"],
            &["classify", "register:0"],
            &["classify", "team-counter:0"],
            &["table", "mconsensus:0"],
            &["classify", "tnn:0,0"],
            &["dot", "tnn:0,0"],
            &["lint", "tnn:0,0"],
            &["crashtest", "tnn-recoverable:2,5"],
            &["check", "tnn-wait-free:0,0"],
            &["simulate-tnn", "0", "0", "0", "1"],
            &["crashtest", "tas", "--inputs", "1,0,1"],
            &["check", "tas", "--inputs", "1,0,1"],
        ] {
            let err = run(&s(args)).expect_err(&args.join(" "));
            assert!(!err.contains("counterexample"), "{args:?}: {err}");
        }
        let err = run(&s(&["crashtest", "tas", "--inputs", "1,0,1"])).unwrap_err();
        assert!(err.contains("exactly 2 processes"), "got: {err}");
    }

    #[test]
    fn tournaments_beyond_an_analysis_are_usage_errors_not_panics() {
        // 21 processes, one past what a contest witness's analysis
        // supports: both commands must refuse the plan (exit 1), not panic.
        let inputs: Vec<String> = (0..21).map(|i| (i % 2).to_string()).collect();
        let joined = inputs.join(",");
        let mut solve = vec!["solve", "sticky"];
        solve.extend(inputs.iter().map(String::as_str));
        for args in [
            &["crashtest", "tournament:sticky", "--inputs", &joined][..],
            &solve,
        ] {
            let err = run(&s(args)).expect_err(args[0]);
            assert!(err.contains("21 processes exceed"), "{}: {err}", args[0]);
        }
    }

    #[test]
    fn parameters_beyond_the_id_space_are_prompt_usage_errors() {
        // Ids are 16-bit: these types would alias op or value ids (or never
        // finish building their value codes), so the constructors refuse
        // them before any search starts.
        for args in [
            &["classify", "queue:2,70", "--cap", "2"][..],
            &["classify", "queue:300,2", "--cap", "2"],
            &["classify", "register:70000"],
            &["classify", "cas:257"],
            &["classify", "queue:2,15+read"],
        ] {
            let start = Instant::now();
            let err = run(&s(args)).expect_err(&args.join(" "));
            assert!(err.contains("ids are 16-bit"), "{args:?}: {err}");
            assert!(
                start.elapsed() < Duration::from_secs(2),
                "{args:?} took {:?}",
                start.elapsed()
            );
        }
    }

    #[test]
    fn malformed_type_arguments_are_usage_errors() {
        for spec in [
            "register:x",
            "tnn:4,zz",
            "faa:-3",
            "tas:5",
            "register:3,9,9",
        ] {
            assert!(run(&s(&["classify", spec])).is_err(), "{spec}");
        }
    }

    #[test]
    fn compare_renders_a_table() {
        assert!(run(&s(&["compare", "tas", "register:2", "--cap", "3"])).is_ok());
        assert!(run(&s(&["compare"])).is_err());
    }

    #[test]
    fn witness_explains_both_kinds() {
        assert!(run(&s(&["witness", "tas", "2", "discerning"])).is_ok());
        assert!(run(&s(&["witness", "sticky", "2", "recording"])).is_ok());
        assert!(run(&s(&["witness", "tas", "2", "nonsense"])).is_err());
    }

    #[test]
    fn dot_and_table_render() {
        assert!(run(&s(&["dot", "tnn:3,1"])).is_ok());
        assert!(run(&s(&["table", "tas"])).is_ok());
    }

    #[test]
    fn solve_verifies_sticky_and_rejects_tas() {
        assert!(run(&s(&["solve", "sticky", "0", "1"])).is_ok());
        assert!(run(&s(&["solve", "tas", "0", "1"])).is_err());
    }

    #[test]
    fn simulate_tnn_runs() {
        assert!(run(&s(&["simulate-tnn", "4", "2", "0", "1"])).is_ok());
    }

    #[test]
    fn lint_runs_clean_on_types_and_catalogue() {
        assert!(run(&s(&["lint", "tas"])).is_ok());
        assert!(run(&s(&["lint", "sticky", "register:3", "--json"])).is_ok());
        assert!(run(&s(&["lint", "--all", "--deny", "warnings"])).is_ok());
        assert!(run(&s(&["lint"])).is_err());
        assert!(run(&s(&["lint", "tas", "--deny", "everything"])).is_err());
        assert!(run(&s(&["lint", "warp-drive"])).is_err());
    }

    #[test]
    fn lint_deny_warnings_gates_the_exit_code() {
        // A closed table with a 2-cycle unreachable from its only source
        // value: valid, but trips the RCN002 warning.
        let mut b = rcn_spec::TableType::builder("cli-island", 3, 1, 1);
        use rcn_spec::{Outcome, Response, ValueId};
        b.set(0, 0, Outcome::new(Response(0), ValueId(0)));
        b.set(1, 0, Outcome::new(Response(0), ValueId(2)));
        b.set(2, 0, Outcome::new(Response(0), ValueId(1)));
        let table = b.build().unwrap();
        let path = scratch_path("lint-island.json");
        std::fs::write(&path, serde_json::to_string(&table).unwrap()).unwrap();
        let spec = format!("table:{}", path.display());
        assert!(run(&s(&["lint", &spec])).is_ok());
        assert!(run(&s(&["lint", &spec, "--deny", "warnings"])).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lint_reports_closedness_on_unvalidated_tables() {
        // An out-of-range table that `parse_type` would reject up front:
        // `lint` loads it unvalidated so RCN001 itself reports the holes
        // (and fails the command), while e.g. `classify` still refuses it.
        let json = r#"{
            "name": "cli-broken", "num_values": 2, "num_ops": 1, "num_responses": 2,
            "table": [[{"response": 9, "next": 0}], [{"response": 0, "next": 1}]],
            "value_names": ["v0", "v1"], "op_names": ["op0"],
            "response_names": ["r0", "r1"]
        }"#;
        let path = scratch_path("lint-broken.json");
        std::fs::write(&path, json).unwrap();
        let spec = format!("table:{}", path.display());
        let err = run(&s(&["lint", &spec])).unwrap_err();
        assert!(err.contains("1 error"), "unexpected error: {err}");
        assert!(run(&s(&["classify", &spec])).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crashtest_finds_the_known_counterexamples() {
        // Broken protocols exit nonzero, in every output mode.
        assert!(run(&s(&["crashtest", "tas"])).is_err());
        assert!(run(&s(&["crashtest", "tas", "--shrink"])).is_err());
        assert!(run(&s(&["crashtest", "tas", "--shrink", "--json"])).is_err());
        assert!(run(&s(&["crashtest", "tnn-wait-free"])).is_err());
        assert!(run(&s(&["crashtest", "tnn-wait-free:2,1", "--shrink"])).is_err());
    }

    #[test]
    fn crashtest_certifies_the_correct_protocols() {
        assert!(run(&s(&["crashtest", "tnn-recoverable:5,2"])).is_ok());
        assert!(run(&s(&["crashtest", "tournament", "--inputs", "1,0"])).is_ok());
        assert!(run(&s(&["crashtest", "tournament:sticky", "--json"])).is_ok());
        // A crash budget of zero cannot break a crash-free-correct protocol.
        assert!(run(&s(&["crashtest", "tas", "--crashes", "0"])).is_ok());
    }

    #[test]
    fn crashtest_rejects_malformed_specs() {
        assert!(run(&s(&["crashtest"])).is_err());
        assert!(run(&s(&["crashtest", "warp-drive"])).is_err());
        assert!(run(&s(&["crashtest", "tas:2,1"])).is_err());
        assert!(run(&s(&["crashtest", "tnn-wait-free:x,y"])).is_err());
        assert!(run(&s(&["crashtest", "tournament:warp-drive"])).is_err());
        assert!(run(&s(&["crashtest", "tas", "--depth", "0"])).is_err());
        assert!(run(&s(&["crashtest", "tas", "--max-states", "0"])).is_err());
        assert!(run(&s(&["crashtest", "tas", "--inputs", "0,7"])).is_err());
        assert!(run(&s(&["crashtest", "tas", "--crashes", "x"])).is_err());
        assert!(run(&s(&["crashtest", "tas", "--cap", "3"])).is_err());
        // An unknown flag fails even a run that would certify clean.
        assert!(run(&s(&[
            "crashtest",
            "tnn-recoverable",
            "--explore-threads",
            "2"
        ]))
        .is_err());
    }

    #[test]
    fn crashtest_accepts_timeout_flags() {
        // A generous deadline changes nothing; an absurd one still exits
        // zero — the partial is honest, not an error.
        assert!(run(&s(&["crashtest", "tnn-recoverable", "--timeout", "600"])).is_ok());
        assert!(run(&s(&["crashtest", "tas", "--timeout", "0.000001"])).is_ok());
        // Malformed values are usage errors.
        assert!(run(&s(&["crashtest", "tas", "--timeout", "0"])).is_err());
        assert!(run(&s(&["crashtest", "tas", "--timeout", "-1"])).is_err());
        assert!(run(&s(&["crashtest", "tas", "--timeout", "soon"])).is_err());
    }

    #[test]
    fn crashtest_memo_dir_resumes_and_no_memo_wins() {
        let dir = scratch_path("crashtest-memo");
        std::fs::remove_dir_all(&dir).ok();
        let d = dir.display().to_string();
        // Cold run stores, warm run resumes — the verdict (exit code) is
        // identical both ways, for a broken and a certified-clean protocol.
        assert!(run(&s(&["crashtest", "tas", "--memo-dir", &d])).is_err());
        assert!(run(&s(&["crashtest", "tas", "--memo-dir", &d, "--json"])).is_err());
        assert!(run(&s(&["crashtest", "tnn-recoverable", "--memo-dir", &d])).is_ok());
        assert!(run(&s(&["crashtest", "tnn-recoverable", "--memo-dir", &d])).is_ok());
        // Something was actually persisted.
        assert!(std::fs::read_dir(&dir).unwrap().count() >= 2);
        // --no-memo wins over --memo-dir: the run neither reads nor writes.
        let fresh = dir.join("untouched");
        let f = fresh.display().to_string();
        assert!(run(&s(&["crashtest", "tas", "--memo-dir", &f, "--no-memo"])).is_err());
        assert!(!fresh.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_rediscovers_the_known_counterexamples() {
        // The independent BFS checker exits nonzero on the same broken
        // protocols as the DFS explorer, in every output mode.
        assert!(run(&s(&["check", "tas"])).is_err());
        assert!(run(&s(&["check", "tas", "--json"])).is_err());
        assert!(run(&s(&["check", "tnn-wait-free"])).is_err());
        // One violator in a batch fails the whole batch.
        assert!(run(&s(&["check", "tnn-recoverable", "tas"])).is_err());
    }

    #[test]
    fn check_certifies_the_correct_protocols() {
        assert!(run(&s(&["check", "tnn-recoverable:5,2", "--valency"])).is_ok());
        assert!(run(&s(&["check", "tournament", "--inputs", "1,0"])).is_ok());
        assert!(run(&s(&["check", "tournament:sticky", "--json", "--metrics"])).is_ok());
        assert!(run(&s(&["check", "tnn-recoverable", "tournament", "--stats"])).is_ok());
        assert!(run(&s(&["check", "tas", "--crashes", "0"])).is_ok());
    }

    #[test]
    fn check_rejects_malformed_specs() {
        assert!(run(&s(&["check"])).is_err());
        assert!(run(&s(&["check", "warp-drive"])).is_err());
        assert!(run(&s(&["check", "tas", "--depth", "0"])).is_err());
        assert!(run(&s(&["check", "tas", "--max-states", "0"])).is_err());
        assert!(run(&s(&["check", "tas", "--inputs", "0,7"])).is_err());
        assert!(run(&s(&["check", "tas", "--crashes", "x"])).is_err());
        assert!(run(&s(&["check", "tas", "--z", "x"])).is_err());
        assert!(run(&s(&["check", "tas", "--shrink"])).is_err());
    }

    #[test]
    fn lint_accepts_observability_flags() {
        assert!(run(&s(&["lint", "sticky", "--metrics"])).is_ok());
        assert!(run(&s(&["lint", "sticky", "--metrics", "--json"])).is_ok());
        let path = scratch_path("lint-trace.jsonl");
        let path_str = path.display().to_string();
        std::fs::remove_file(&path).ok();
        assert!(run(&s(&["lint", "sticky", "--trace", &path_str])).is_ok());
        // Refuses to clobber without --force.
        assert!(run(&s(&["lint", "sticky", "--trace", &path_str])).is_err());
        assert!(run(&s(&["lint", "sticky", "--trace", &path_str, "--force"])).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn timeout_flag_is_honored_and_honest() {
        // A generous deadline changes nothing.
        assert!(run(&s(&["classify", "tas", "--timeout", "600"])).is_ok());
        assert!(run(&s(&[
            "witness",
            "sticky",
            "3",
            "recording",
            "--timeout=600"
        ]))
        .is_ok());
        assert!(run(&s(&["compare", "tas", "--cap", "3", "--timeout", "600"])).is_ok());
        // An absurd deadline still succeeds — partial results, nonzero only
        // on real errors.
        assert!(run(&s(&["classify", "tas", "--timeout", "0.000001"])).is_ok());
        // Malformed deadlines are usage errors.
        assert!(run(&s(&["classify", "tas", "--timeout", "0"])).is_err());
        assert!(run(&s(&["classify", "tas", "--timeout", "-1"])).is_err());
        assert!(run(&s(&["classify", "tas", "--timeout", "soon"])).is_err());
        assert!(run(&s(&["dot", "tas", "--timeout", "1"])).is_err());
    }

    #[test]
    fn compare_reports_a_timeout_whatever_the_type_order() {
        // With test-and-set's verdicts on disk, its call meets no deadline;
        // the timeout of the type searched before it must still show.
        let dir = scratch_path("compare-timeout");
        let dir = dir.to_str().expect("utf-8 temp path");
        run(&s(&["classify", "tas", "--cap", "3", "--cache-dir", dir])).unwrap();
        for order in [["cas:3", "tas"], ["tas", "cas:3"]] {
            let mut out = String::new();
            let args = [
                &["compare"][..],
                &order,
                &["--cap", "3", "--timeout", "0.000001", "--stats"],
                &["--cache-dir", dir],
            ]
            .concat();
            run_to(&s(&args), &mut out).unwrap();
            assert!(out.contains("[TIMED OUT:"), "{order:?}: {out}");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn timeouts_beyond_a_duration_are_usage_errors_and_huge_ones_mean_no_deadline() {
        // Past `Duration::MAX` (~1.8e19 s): a usage error (exit 1), for the
        // engine and the explorer alike, not a panic (exit 101).
        for args in [
            &["classify", "tas", "--timeout", "1e30"][..],
            &["witness", "tas", "2", "--timeout", "1e30"],
            &["crashtest", "tas", "--timeout", "1e30"],
        ] {
            let err = run(&s(args)).expect_err(&args.join(" "));
            assert!(err.contains("too large"), "{args:?}: {err}");
        }
        // Representable but past the end of the clock: no deadline, so the
        // same output as without a timeout.
        for args in [
            &["classify", "tas"][..],
            &["witness", "tas", "2"],
            &["crashtest", "tas"],
        ] {
            let mut plain = String::new();
            let plain_result = run_to(&s(args), &mut plain);
            let mut huge = String::new();
            let huge_result = run_to(&s(&[args, &["--timeout", "1e19"]].concat()), &mut huge);
            assert_eq!(plain_result, huge_result, "{args:?}");
            assert_eq!(plain, huge, "{args:?}");
        }
    }

    #[test]
    fn thread_counts_beyond_the_cap_are_usage_errors() {
        for threads in [MAX_THREADS + 1, 100_000] {
            let n = threads.to_string();
            for args in [
                &["classify", "tas", "--threads", n.as_str()][..],
                &["compare", "tas", "--threads", n.as_str()],
                &["witness", "tas", "2", "--threads", n.as_str()],
            ] {
                let err = run(&s(args)).expect_err(&args.join(" "));
                assert!(err.contains("at most"), "{args:?}: {err}");
            }
        }
    }

    #[test]
    fn bad_commands_and_args_error() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&s(&["classify"])).is_err());
        assert!(run(&s(&["solve", "sticky", "0", "7"])).is_err());
        assert!(run(&s(&["solve", "sticky", "0"])).is_err());
    }
}
