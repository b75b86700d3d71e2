//! Cross-checker lints (`RCN2xx`): differential second opinions.
//!
//! Every other lint in this crate checks a *hypothesis*; these lints check
//! the *checkers*. Two structurally independent engines answer the same
//! question — `rcn-faults`' memoized DFS vs `rcn-mc`'s breadth-first
//! search for crash-divergence verdicts, `rcn-valency`'s budgeted graph vs
//! `rcn-mc`'s worklist fixpoint for valency facts — and any disagreement
//! is a hard error: one of the engines (we do not know which) has an
//! unsound pruning, a semantics drift, or a budget bug. Agreement is
//! surfaced as an `Info` certificate carrying both sides' search effort.
//!
//! Codes:
//!
//! * `RCN200` — DFS explorer and BFS checker disagree on whether an
//!   in-budget violating schedule exists (error).
//! * `RCN201` — decider-stack valency and checker valency disagree on the
//!   initial configuration (error).
//! * `RCN202` — a budget clipped one side before the cross-check could be
//!   exhaustive; the comparison is skipped rather than trusted (warning).
//!   Emitted by the `RCN200`/`RCN201` lints, which own the budgets.
//! * `RCN203` — the checker's counterexample schedule fails the
//!   abstract↔threaded replay bridge (error): a schedule only one
//!   executor believes in is not a counterexample, it is a bug report.
//!   Emitted by the `RCN200` lint from its own BFS run.
//!
//! The `RCN200` lint also emits the program lint `RCN104` (crash
//! divergence) from its DFS run's counterexample, so each linted system is
//! searched once per engine.
//!
//! The cross-lints only run on programs whose exploration found no
//! totality panics: executing a program that panics on feasible responses
//! (`RCN102`) would abort the lint run itself.

use crate::diag::{Diagnostic, Locus, Report, Severity};
use crate::explore::ProcessGraph;
use crate::program_lints::subject;
use rcn_model::{Schedule, System};

/// `RCN200`'s per-process crash budget, for both engines.
const CRASHTEST_MAX_CRASHES: usize = 1;
/// `RCN200`'s schedule-length cap, for both engines.
const CRASHTEST_MAX_DEPTH: usize = 10;
/// `RCN200`'s state cap in the lint table, for both engines.
pub(crate) const CRASHTEST_MAX_STATES: usize = 200_000;
/// `RCN201`'s budget multiplier `z`, for both engines.
const VALENCY_Z: usize = 1;
/// `RCN201`'s allowance clamp, for both engines.
const VALENCY_CLAMP: u16 = 2;
/// `RCN201`'s state cap, for both engines.
const VALENCY_MAX_STATES: usize = 60_000;

/// `true` if the program can be executed without tripping a totality
/// panic (the gate for every cross-lint).
fn executable(graphs: &[ProcessGraph]) -> bool {
    graphs.iter().all(|g| g.panics.is_empty())
}

/// Pushes the `RCN200` comparison of a DFS crashtest report and a BFS
/// checker report (both already exhaustive at the same budget): an error
/// on verdict divergence, an `Info` certificate on agreement. Public so
/// divergences can be synthesized and their rendering pinned in tests.
pub fn compare_crashtest_verdicts(
    subject: &str,
    budget: &str,
    dfs: &rcn_faults::CrashtestReport,
    bfs: &rcn_mc::McReport,
    report: &mut Report,
) {
    let dfs_effort = format!(
        "dfs: {} states, {} events, {} memo hits, {} re-explored",
        dfs.stats.states_visited,
        dfs.stats.events_applied,
        dfs.stats.memo_hits,
        dfs.stats.re_explored
    );
    let bfs_effort = format!(
        "bfs: {} states, {} events, frontier peak {}, dedup {:.0}%",
        bfs.stats.states_visited,
        bfs.stats.events_applied,
        bfs.stats.frontier_peak,
        bfs.stats.dedup_ratio() * 100.0
    );
    match (&dfs.counterexample, &bfs.counterexample) {
        (Some(_), None) => report.push(
            Diagnostic::new(
                "RCN200",
                Severity::Error,
                Locus::program(subject),
                format!(
                    "differential divergence at {budget}: the DFS explorer finds a violating \
                     schedule but the BFS checker certifies clean ({dfs_effort}; {bfs_effort})"
                ),
            )
            .with_suggestion(
                "one engine has an unsound pruning or a semantics drift; \
                 rerun `rcn check` and `rcn crashtest` at this budget and diff the schedules",
            ),
        ),
        (None, Some(cex)) => report.push(
            Diagnostic::new(
                "RCN200",
                Severity::Error,
                Locus::program(subject),
                format!(
                    "differential divergence at {budget}: the BFS checker finds `{}` but the \
                     DFS explorer certifies clean ({dfs_effort}; {bfs_effort})",
                    cex.schedule
                ),
            )
            .with_suggestion(
                "one engine has an unsound pruning or a semantics drift; \
                 rerun `rcn check` and `rcn crashtest` at this budget and diff the schedules",
            ),
        ),
        (dfs_cex, _) => {
            let verdict = match dfs_cex {
                Some(_) => "both find a violating schedule",
                None => "both certify clean",
            };
            report.push(Diagnostic::new(
                "RCN200",
                Severity::Info,
                Locus::program(subject),
                format!("differential crashtest agrees at {budget}: {verdict} ({dfs_effort}; {bfs_effort})"),
            ));
        }
    }
}

/// Pushes the `RCN201` comparison of two already-exhaustive valency
/// verdicts (rendered in the shared `bivalent` / `{v}-univalent` /
/// `undetermined` vocabulary): an error on disagreement, an `Info`
/// certificate on agreement. Public for the same pinning reason as
/// [`compare_crashtest_verdicts`].
pub fn compare_valency_verdicts(
    subject: &str,
    budget: &str,
    decider: &str,
    checker: &str,
    report: &mut Report,
) {
    if decider == checker {
        report.push(Diagnostic::new(
            "RCN201",
            Severity::Info,
            Locus::program(subject),
            format!("differential valency agrees at {budget}: initial configuration is {decider}"),
        ));
    } else {
        report.push(
            Diagnostic::new(
                "RCN201",
                Severity::Error,
                Locus::program(subject),
                format!(
                    "differential divergence at {budget}: the decider stack says the initial \
                     configuration is {decider}, the BFS checker says {checker}"
                ),
            )
            .with_suggestion(
                "the budgeted-graph and worklist valency fixpoints disagree on identical \
                 budgets; one reachability computation is wrong",
            ),
        );
    }
}

/// Replays `schedule` through both the abstract executor and the threaded
/// runtime and pushes the `RCN203` verdict: an error when the bridge does
/// not confirm the same violation and outputs on both sides, an `Info`
/// certificate when it does. Public so the non-confirming case can be
/// exercised with a schedule that is not a counterexample.
pub fn check_replay_bridge(subject: &str, sys: &System, schedule: &Schedule, report: &mut Report) {
    let replay = rcn_faults::replay(sys, schedule);
    if replay.confirmed() {
        report.push(Diagnostic::new(
            "RCN203",
            Severity::Info,
            Locus::program(subject),
            format!(
                "checker counterexample `{schedule}` confirmed by the abstract↔threaded \
                 replay bridge"
            ),
        ));
    } else {
        report.push(
            Diagnostic::new(
                "RCN203",
                Severity::Error,
                Locus::program(subject),
                format!(
                    "checker counterexample `{schedule}` fails the abstract↔threaded replay \
                     bridge ({replay})"
                ),
            )
            .with_suggestion(
                "a schedule only one executor believes in is not a counterexample; \
                 diff the two replays with `rcn crashtest --replay`",
            ),
        );
    }
}

/// Pushes the `RCN104` warning for a counterexample on which one process
/// outputs two different values across a crash.
fn push_crash_divergence(sys: &System, cex: &rcn_faults::Counterexample, report: &mut Report) {
    let Some(d) = cex.divergence else { return };
    report.push(
        Diagnostic::new(
            "RCN104",
            Severity::Warn,
            Locus::program(subject(sys)),
            format!(
                "process p{} (input {}) outputs {} and later {} along the crash schedule `{}`",
                d.process.index(),
                sys.inputs()[d.process.index()],
                d.first,
                d.second,
                cex.schedule
            ),
        )
        .with_suggestion(
            "guard the first shared-memory operation with a read (as in the \
             paper's recoverable T_{n,n'} algorithm) so a restarted process \
             rediscovers its pre-crash progress",
        ),
    );
}

fn budget_warn(subject: &str, code: &'static str, what: &str, report: &mut Report) {
    report.push(
        Diagnostic::new(
            "RCN202",
            Severity::Warn,
            Locus::program(subject),
            format!("cross-check budget too small: {what}; the {code} comparison was skipped"),
        )
        .with_suggestion("raise the cross-check state budget or shrink the instance"),
    );
}

/// `RCN200`/`RCN202` — differential crashtest: DFS explorer vs BFS
/// checker at one shared budget (1 crash per process, depth 10,
/// `max_states` states), each run once per system. Clipping either side
/// at `max_states` downgrades the comparison to an `RCN202` warning; the
/// lint table passes 200 000.
///
/// The same two runs feed two more codes, both only on consensus-checked
/// systems (a system built with `System::new_unchecked` has no consensus
/// contract, so neither engine can find a violation on it):
///
/// * `RCN104` — crash-divergence: the DFS counterexample shows one process
///   outputting two different values across a crash, exactly the failure
///   mode that separates the recoverable hierarchy from the classical one
///   (Golab's test-and-set separation, Lemma 16's `T_{n,n'}` collapse). A
///   hit is a genuine schedule within the per-process crash budget;
///   silence means "none within the budget".
/// * `RCN203` — the BFS counterexample must survive the
///   abstract↔threaded replay bridge ([`check_replay_bridge`]).
pub fn cross_crashtest(
    sys: &System,
    graphs: &[ProcessGraph],
    max_states: usize,
    report: &mut Report,
) {
    if !executable(graphs) {
        return;
    }
    let subject = subject(sys);
    let dfs = rcn_faults::CrashExplorer::new(
        sys,
        rcn_faults::CrashtestConfig {
            max_crashes: CRASHTEST_MAX_CRASHES,
            max_depth: CRASHTEST_MAX_DEPTH,
            max_states,
            ..Default::default()
        },
    )
    .explore();
    let bfs = rcn_mc::model_check(
        sys,
        rcn_mc::McConfig {
            max_crashes: CRASHTEST_MAX_CRASHES,
            max_depth: CRASHTEST_MAX_DEPTH,
            max_states,
            ..Default::default()
        },
    );
    // A found violation is budget-exact whatever the other side's
    // coverage, so RCN104 and RCN203 do not wait for the comparison.
    if sys.is_consensus_checked() {
        if let Some(cex) = &dfs.counterexample {
            push_crash_divergence(sys, cex, report);
        }
        if let Some(cex) = &bfs.counterexample {
            check_replay_bridge(&subject, sys, &cex.schedule, report);
        }
    }
    // A violation verdict is budget-exact on both sides; only a clean
    // verdict needs exhaustiveness to be comparable.
    let dfs_conclusive = dfs.counterexample.is_some() || dfs.stats.exhaustive();
    let bfs_conclusive =
        bfs.counterexample.is_some() || bfs.coverage == rcn_mc::Coverage::Exhaustive;
    if !dfs_conclusive || !bfs_conclusive {
        budget_warn(
            &subject,
            "RCN200",
            &format!(
                "state cap {max_states} clipped the {} search",
                if dfs_conclusive { "BFS" } else { "DFS" }
            ),
            report,
        );
        return;
    }
    let budget = format!("crashes={CRASHTEST_MAX_CRASHES}, depth={CRASHTEST_MAX_DEPTH}");
    compare_crashtest_verdicts(&subject, &budget, &dfs, &bfs, report);
}

/// `RCN201`/`RCN202` — differential valency: the decider stack's budgeted
/// graph vs the checker's worklist fixpoint at one shared `E_z*` budget
/// (z=1, clamp 2, 60 000 states); clipping either side downgrades the
/// comparison to an `RCN202` warning.
pub(crate) fn cross_valency(sys: &System, graphs: &[ProcessGraph], report: &mut Report) {
    if !executable(graphs) {
        return;
    }
    let subject = subject(sys);
    let budget = format!("z={VALENCY_Z}, clamp={VALENCY_CLAMP}");
    let decider = match rcn_valency::BudgetedGraph::explore(
        sys,
        VALENCY_Z,
        VALENCY_CLAMP,
        VALENCY_MAX_STATES,
    ) {
        Ok(graph) => graph.initial_valency().to_string(),
        Err(rcn_valency::ExploreError::TooLarge { limit }) => {
            budget_warn(
                &subject,
                "RCN201",
                &format!("the budgeted `E_z*` graph exceeds {limit} states"),
                report,
            );
            return;
        }
    };
    let checker = rcn_mc::valency_check(
        sys,
        rcn_mc::ValencyConfig {
            z: VALENCY_Z,
            clamp: VALENCY_CLAMP,
            max_states: VALENCY_MAX_STATES,
        },
    );
    if checker.coverage != rcn_mc::Coverage::Exhaustive {
        budget_warn(
            &subject,
            "RCN201",
            &format!("state cap {VALENCY_MAX_STATES} clipped the checker's graph"),
            report,
        );
        return;
    }
    compare_valency_verdicts(
        &subject,
        &budget,
        &decider,
        &checker.valency.to_string(),
        report,
    );
}
