//! Pins what the breadth-first second opinion (`rcn-mc`) reports: every
//! `McStats` counter, the coverage tag, and the counterexample's schedule
//! and violation text for crash checks; valency, state count and coverage
//! for valency checks. The BFS order, its parent pointers and its dedup
//! decisions determine all of these, so any change to how the checker
//! stores, hashes or indexes states must leave these strings untouched.

use rcn::mc::{model_check, valency_check, McConfig, McReport, ValencyConfig, ValencyReport};
use rcn::protocols::{TasConsensus, TnnRecoverable, TnnWaitFree, TournamentConsensus};
use rcn::spec::zoo::StickyBit;
use rcn_model::{FaultModel, System};
use std::sync::Arc;

/// The four CLI fault models, in `FaultModel` display order.
const FAULT_MODELS: [FaultModel; 4] = [
    FaultModel::PER_PROCESS,
    FaultModel::SYSTEM,
    FaultModel::MID_OP,
    FaultModel::ALL,
];

fn sticky(inputs: Vec<u32>) -> System {
    TournamentConsensus::try_new(Arc::new(StickyBit::new()), inputs).unwrap()
}

/// One line per crash check: the stats (every field, through `Debug`),
/// the coverage and the counterexample.
fn crash_line(report: &McReport) -> String {
    let cex = match &report.counterexample {
        Some(cex) => format!("{} => {}", cex.schedule, cex.violation),
        None => "clean".to_string(),
    };
    format!("{:?} {} {cex}", report.stats, report.coverage)
}

fn valency_line(report: &ValencyReport) -> String {
    format!(
        "{} {} states {}",
        report.valency, report.states, report.coverage
    )
}

/// Runs `system` under every fault model at `budget` and compares each
/// report's line with `expected` (one per fault model, in order).
fn check_crash(system: &System, budget: McConfig, expected: [&str; 4]) {
    for (model, want) in FAULT_MODELS.into_iter().zip(expected) {
        let report = model_check(
            system,
            McConfig {
                fault_model: model,
                ..budget
            },
        );
        assert_eq!(crash_line(&report), want, "fault model {model}");
    }
}

/// The 3-process tournament's budget in the crashtest benchmark.
const TOUR3: McConfig = McConfig {
    max_crashes: 1,
    max_depth: 12,
    max_states: 500_000,
    fault_model: FaultModel::PER_PROCESS,
};

/// The RCN200 cross-check's budget.
const RCN200: McConfig = McConfig {
    max_crashes: 1,
    max_depth: 10,
    max_states: 200_000,
    fault_model: FaultModel::PER_PROCESS,
};

#[test]
fn tas_default_budget() {
    check_crash(
        &TasConsensus::system(vec![0, 1]),
        McConfig::default(),
        [
            "McStats { states_visited: 199, events_applied: 480, dedup_hits: 281, frontier_peak: 63, depth_clipped: false, state_clipped: false } exhaustive p0 p0 p1 c0 p0 p0 p0 => agreement violated: p0 output 1, earlier output 0",
            "McStats { states_visited: 93, events_applied: 185, dedup_hits: 92, frontier_peak: 24, depth_clipped: false, state_clipped: false } exhaustive p0 p0 p1 C p0 p0 p0 => agreement violated: p0 output 1, earlier output 0",
            "McStats { states_visited: 300, events_applied: 1027, dedup_hits: 727, frontier_peak: 98, depth_clipped: false, state_clipped: false } exhaustive p0 p0 p1 c0 p0 p0 p0 => agreement violated: p0 output 1, earlier output 0",
            "McStats { states_visited: 361, events_applied: 1316, dedup_hits: 955, frontier_peak: 105, depth_clipped: false, state_clipped: false } exhaustive p0 p0 p1 c0 p0 p0 p0 => agreement violated: p0 output 1, earlier output 0",
        ],
    );
}

#[test]
fn tnn_wait_free_default_budget() {
    check_crash(
        &TnnWaitFree::system(2, 1, vec![0, 1]),
        McConfig::default(),
        [
            "McStats { states_visited: 48, events_applied: 89, dedup_hits: 41, frontier_peak: 26, depth_clipped: false, state_clipped: false } exhaustive p1 p0 c0 p0 => agreement violated: p0 output 0, earlier output 1",
            "McStats { states_visited: 28, events_applied: 44, dedup_hits: 16, frontier_peak: 13, depth_clipped: false, state_clipped: false } exhaustive p1 p0 C p0 => agreement violated: p0 output 0, earlier output 1",
            "McStats { states_visited: 49, events_applied: 85, dedup_hits: 36, frontier_peak: 35, depth_clipped: false, state_clipped: false } exhaustive p1 d0 p0 => agreement violated: p0 output 0, earlier output 1",
            "McStats { states_visited: 72, events_applied: 120, dedup_hits: 48, frontier_peak: 55, depth_clipped: false, state_clipped: false } exhaustive p1 d0 p0 => agreement violated: p0 output 0, earlier output 1",
        ],
    );
}

#[test]
fn tnn_recoverable_default_budget() {
    check_crash(
        &TnnRecoverable::system(5, 2, vec![0, 1]),
        McConfig::default(),
        [
            "McStats { states_visited: 196, events_applied: 636, dedup_hits: 441, frontier_peak: 46, depth_clipped: false, state_clipped: false } exhaustive clean",
            "McStats { states_visited: 64, events_applied: 166, dedup_hits: 103, frontier_peak: 16, depth_clipped: false, state_clipped: false } exhaustive clean",
            "McStats { states_visited: 288, events_applied: 1268, dedup_hits: 981, frontier_peak: 81, depth_clipped: false, state_clipped: false } exhaustive clean",
            "McStats { states_visited: 288, events_applied: 1372, dedup_hits: 1085, frontier_peak: 98, depth_clipped: false, state_clipped: false } exhaustive clean",
        ],
    );
}

#[test]
fn sticky_tournament_2proc_default_budget() {
    check_crash(
        &sticky(vec![0, 1]),
        McConfig::default(),
        [
            "McStats { states_visited: 1109, events_applied: 3548, dedup_hits: 2440, frontier_peak: 171, depth_clipped: true, state_clipped: false } exhaustive clean",
            "McStats { states_visited: 345, events_applied: 885, dedup_hits: 541, frontier_peak: 54, depth_clipped: false, state_clipped: false } exhaustive clean",
            "McStats { states_visited: 1109, events_applied: 4882, dedup_hits: 3774, frontier_peak: 164, depth_clipped: true, state_clipped: false } exhaustive clean",
            "McStats { states_visited: 1109, events_applied: 5287, dedup_hits: 4179, frontier_peak: 178, depth_clipped: false, state_clipped: false } exhaustive clean",
        ],
    );
}

#[test]
fn sticky_tournament_3proc_crashtest_budget() {
    check_crash(
        &sticky(vec![1, 0, 1]),
        TOUR3,
        [
            "McStats { states_visited: 6464, events_applied: 20847, dedup_hits: 14384, frontier_peak: 1760, depth_clipped: true, state_clipped: false } exhaustive clean",
            "McStats { states_visited: 2158, events_applied: 5349, dedup_hits: 3192, frontier_peak: 536, depth_clipped: true, state_clipped: false } exhaustive clean",
            "McStats { states_visited: 7718, events_applied: 32382, dedup_hits: 24665, frontier_peak: 2036, depth_clipped: true, state_clipped: false } exhaustive clean",
            "McStats { states_visited: 8152, events_applied: 33852, dedup_hits: 25701, frontier_peak: 2137, depth_clipped: true, state_clipped: false } exhaustive clean",
        ],
    );
}

#[test]
fn sticky_tournament_3proc_rcn200_budget() {
    check_crash(
        &sticky(vec![1, 0, 1]),
        RCN200,
        [
            "McStats { states_visited: 3361, events_applied: 10498, dedup_hits: 7138, frontier_peak: 1025, depth_clipped: true, state_clipped: false } exhaustive clean",
            "McStats { states_visited: 1200, events_applied: 2868, dedup_hits: 1669, frontier_peak: 334, depth_clipped: true, state_clipped: false } exhaustive clean",
            "McStats { states_visited: 4108, events_applied: 16700, dedup_hits: 12593, frontier_peak: 1227, depth_clipped: true, state_clipped: false } exhaustive clean",
            "McStats { states_visited: 4371, events_applied: 17579, dedup_hits: 13209, frontier_peak: 1280, depth_clipped: true, state_clipped: false } exhaustive clean",
        ],
    );
}

#[test]
fn valency_reports() {
    let cases: [(&str, System, ValencyConfig, &str); 5] = [
        (
            "tournament 3proc (RCN201 budget)",
            sticky(vec![1, 0, 1]),
            ValencyConfig {
                z: 1,
                clamp: 2,
                max_states: 60_000,
            },
            "bivalent 2437 states exhaustive",
        ),
        (
            "tournament 2proc",
            sticky(vec![0, 1]),
            ValencyConfig::default(),
            "bivalent 47 states exhaustive",
        ),
        (
            "tnn-recoverable:5,2",
            TnnRecoverable::system(5, 2, vec![0, 1]),
            ValencyConfig::default(),
            "bivalent 7 states exhaustive",
        ),
        (
            "tournament 2proc, uniform inputs",
            sticky(vec![1, 1]),
            ValencyConfig::default(),
            "1-univalent 329 states exhaustive",
        ),
        (
            "tournament 3proc, state-capped",
            sticky(vec![1, 0, 1]),
            ValencyConfig {
                z: 1,
                clamp: 2,
                max_states: 2_000,
            },
            "1-univalent 2000 states bounded",
        ),
    ];
    for (label, system, config, want) in cases {
        assert_eq!(
            valency_line(&valency_check(&system, config)),
            want,
            "{label}"
        );
    }
}
