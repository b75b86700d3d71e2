//! Property-based tests (proptest) over the core data structures and
//! invariants: type closure, schedule algebra, budget laws, analysis
//! consistency, random-table robustness of the deciders.

use proptest::prelude::*;
use rcn::decide::{check_discerning, check_recording, synthesis, Analysis, Team, Witness};
use rcn::model::{BudgetKind, CrashBudget, Event, FaultModel, ProcessId, Schedule};
use rcn::spec::zoo::{Register, TestAndSet, Tnn};
use rcn::spec::{apply_all, check_closed, ObjectType, OpId, TableType, ValueId};

fn arb_event(n: u16) -> impl Strategy<Value = Event> {
    // All four event families, so the algebraic laws below cover
    // mixed-model schedules (steps, per-process, system-wide and
    // mid-operation crashes in one sequence).
    (0..n, 0usize..4).prop_map(|(p, kind)| match kind {
        0 => Event::Step(ProcessId(p)),
        1 => Event::Crash(ProcessId(p)),
        2 => Event::SystemCrash,
        _ => Event::CrashDuring(ProcessId(p)),
    })
}

fn arb_schedule(n: u16, max_len: usize) -> impl Strategy<Value = Schedule> {
    prop::collection::vec(arb_event(n), 0..max_len).prop_map(Schedule::from_events)
}

proptest! {
    /// Schedules round-trip through their textual form.
    #[test]
    fn schedule_parse_display_roundtrip(sched in arb_schedule(5, 20)) {
        let text = sched.to_string();
        let parsed: Schedule = text.parse().unwrap();
        prop_assert_eq!(parsed, sched);
    }

    /// `E_z* ⊆ E_z` for every schedule (the paper's containment).
    #[test]
    fn prefix_budget_implies_final_budget(
        sched in arb_schedule(4, 30),
        z in 1usize..3,
    ) {
        let budget = CrashBudget::new(z, 4);
        if budget.admits(&sched, BudgetKind::EveryPrefix) {
            prop_assert!(budget.admits(&sched, BudgetKind::Final));
        }
    }

    /// `E_z*` is prefix-closed (the property the paper names it for).
    #[test]
    fn prefix_budget_is_prefix_closed(
        sched in arb_schedule(4, 30),
        z in 1usize..3,
        cut in 0usize..30,
    ) {
        let budget = CrashBudget::new(z, 4);
        if budget.admits(&sched, BudgetKind::EveryPrefix) {
            let cut = cut.min(sched.len());
            let prefix = Schedule::from_events(sched.events()[..cut].iter().copied());
            prop_assert!(budget.admits(&prefix, BudgetKind::EveryPrefix));
        }
    }

    /// Budgets are monotone in z: anything E_z admits, E_{z+1} admits.
    #[test]
    fn budgets_are_monotone_in_z(sched in arb_schedule(3, 25), z in 1usize..3) {
        let smaller = CrashBudget::new(z, 3);
        let larger = CrashBudget::new(z + 1, 3);
        for kind in [BudgetKind::Final, BudgetKind::EveryPrefix] {
            if smaller.admits(&sched, kind) {
                prop_assert!(larger.admits(&sched, kind));
            }
        }
    }

    /// Applying a schedule of ops never leaves a type's value set
    /// (closure), for the paper's T_{n,n'}.
    #[test]
    fn tnn_is_closed_under_random_schedules(
        ops in prop::collection::vec(0u16..3, 0..12),
        n in 2usize..6,
    ) {
        let n_prime = 1 + (n % (n - 1));
        let t = Tnn::new(n, n_prime.min(n - 1));
        prop_assert!(check_closed(&t).is_ok());
        let ops: Vec<OpId> = ops.into_iter().map(OpId::new).collect();
        let (outs, v) = apply_all(&t, t.s(), &ops);
        prop_assert!(v.index() < t.num_values());
        for out in outs {
            prop_assert!(out.response.index() < t.num_responses());
        }
    }

    /// The first operation on T_{n,n'} determines the next n−1 responses
    /// (the agreement core of §4's wait-free algorithm), for random op
    /// sequences of mutators.
    #[test]
    fn tnn_first_op_determines_responses(
        first in 0u16..2,
        rest in prop::collection::vec(0u16..2, 0..4),
    ) {
        let t = Tnn::new(5, 2);
        let mut ops = vec![OpId::new(first)];
        ops.extend(rest.iter().map(|&x| OpId::new(x)));
        let (outs, _) = apply_all(&t, t.s(), &ops);
        for out in &outs {
            prop_assert_eq!(out.response.index(), first as usize);
        }
    }

    /// Analysis value sets are supersets of any concrete schedule's result:
    /// run a random permutation-ish schedule of assigned ops, and the final
    /// value must appear in the first mover's value set.
    #[test]
    fn analysis_covers_concrete_runs(
        perm in prop::sample::subsequence(vec![0usize,1,2,3], 1..=4),
        assignment in prop::collection::vec(0u16..2, 4),
    ) {
        let t = TestAndSet::new();
        let ops: Vec<OpId> = assignment.iter().map(|&x| OpId::new(x)).collect();
        let analysis = Analysis::new(&t, ValueId::new(0), &ops);
        let seq: Vec<OpId> = perm.iter().map(|&i| ops[i]).collect();
        let (_, v) = apply_all(&t, ValueId::new(0), &seq);
        let first = perm[0];
        prop_assert!(analysis.value_set(&[first]).contains(v.index()));
    }

    /// Witness checking never panics on random (valid-shape) witnesses, and
    /// discerning/recording verdicts are stable under re-checking.
    #[test]
    fn witness_checks_are_total_and_deterministic(
        u in 0u16..2,
        teams in prop::collection::vec(prop::bool::ANY, 2..5),
        ops in prop::collection::vec(0u16..2, 2..5),
    ) {
        let n = teams.len().min(ops.len());
        let mut team_of: Vec<Team> = teams[..n]
            .iter()
            .map(|&b| if b { Team::T1 } else { Team::T0 })
            .collect();
        // Force both teams nonempty.
        team_of[0] = Team::T0;
        if !team_of.contains(&Team::T1) {
            team_of[n - 1] = Team::T1;
        }
        let w = Witness::new(
            ValueId::new(u),
            team_of,
            ops[..n].iter().map(|&x| OpId::new(x)).collect(),
        );
        let tas = TestAndSet::new();
        let d1 = check_discerning(&tas, &w);
        let d2 = check_discerning(&tas, &w);
        prop_assert_eq!(d1, d2);
        let r1 = check_recording(&tas, &w);
        let r2 = check_recording(&tas, &w);
        prop_assert_eq!(r1, r2);
    }

    /// Random synthesized tables are valid, readable, and their table
    /// normal form round-trips through behaviour.
    #[test]
    fn random_tables_are_wellformed(seed in 0u64..500) {
        let mut rng = synthesis::rng(seed);
        let t = synthesis::random_readable_table(&mut rng, 4, 2);
        prop_assert!(t.validate().is_ok());
        prop_assert!(t.is_readable());
        let t2 = TableType::from_type(&t);
        prop_assert_eq!(&t, &t2);
    }

    /// Kernelized and scalar `Analysis` construction agree bit-for-bit on
    /// random readable tables, not just on the curated zoo. The kernel
    /// groups processes by op, so the assignments cover every grouping:
    /// unsorted orders with repeated ops, all-equal and all-distinct
    /// assignments, up to 8 processes, and tables with 70 values, where
    /// value and pair sets span several words.
    #[test]
    fn analysis_paths_agree_on_random_tables(
        seed in 0u64..200,
        n in 2usize..9,
        shape in 0usize..5,
        raw in prop::collection::vec(0u16..8, 8),
        u in 0u16..70,
    ) {
        let mut rng = synthesis::rng(seed);
        // The wide shape stops at 4 processes, which keeps the
        // bit-at-a-time reference quick over 70 values.
        let (values, n) = if shape == 4 { (70, n.min(4)) } else { (4, n) };
        // 7 mutators + 1 read => op ids 0..8, enough for 8 distinct ops.
        let t = synthesis::random_readable_table(&mut rng, values, 7);
        let ops: Vec<OpId> = match shape {
            // Unsorted, from 3 ops: mostly repeated ops.
            0 => raw[..n].iter().map(|&o| OpId::new(o % 3)).collect(),
            1 => vec![OpId::new(raw[0]); n],
            2 => {
                // A random permutation of the 8 ops: all distinct.
                let mut perm: Vec<u16> = (0..8).collect();
                for i in (1..8).rev() {
                    perm.swap(i, usize::from(raw[i]) % (i + 1));
                }
                perm[..n].iter().map(|&o| OpId::new(o)).collect()
            }
            _ => raw[..n].iter().map(|&o| OpId::new(o)).collect(),
        };
        let u = ValueId::new(u % values as u16);
        prop_assert_eq!(Analysis::new(&t, u, &ops), Analysis::new_scalar(&t, u, &ops));
    }

    /// The abstract↔threaded replay bridge holds on *random mixed-model
    /// schedules*: any sequence of steps, per-process crashes, system-wide
    /// crashes and mid-operation crashes replays through the threaded
    /// runtime with the same trace, outputs, decisions and violation as
    /// the abstract executor.
    #[test]
    fn threaded_replay_matches_abstract_on_mixed_fault_schedules(
        sched in arb_schedule(2, 12),
        proto in 0usize..3,
    ) {
        let sys = match proto {
            0 => rcn::protocols::TasConsensus::system(vec![0, 1]),
            1 => rcn::protocols::TnnWaitFree::system(2, 1, vec![0, 1]),
            _ => rcn::protocols::TnnRecoverable::system(5, 2, vec![1, 0]),
        };
        let exec = rcn::model::Execution::record(&sys, &sched);
        let report = rcn::runtime::run_schedule(&sys, &sched);
        prop_assert_eq!(&report.trace, &sched);
        prop_assert_eq!(report.outputs, exec.outputs());
        prop_assert_eq!(report.violation, exec.first_violation());
        prop_assert_eq!(report.decisions, exec.final_config().decided.clone());
    }

    /// Register semantics: the last write wins regardless of interleaving.
    #[test]
    fn register_last_write_wins(writes in prop::collection::vec(0u16..3, 1..10)) {
        let reg = Register::new(3);
        let ops: Vec<OpId> = writes.iter().map(|&k| OpId::new(k)).collect();
        let (_, v) = apply_all(&reg, ValueId::new(0), &ops);
        prop_assert_eq!(v.index(), *writes.last().unwrap() as usize);
    }

    /// Differential second opinion over random protocols: the DFS crash
    /// explorer (`rcn-faults`) and the independent BFS model checker
    /// (`rcn-mc`) must agree on crash-divergence verdicts at identical
    /// budgets, and the decider stack's budgeted `E_z*` graph must agree
    /// with the checker's forward search on the initial valency —
    /// on tournaments built from random readable tables, not just the
    /// curated zoo.
    #[test]
    fn dfs_and_bfs_checkers_agree_on_random_tables(
        seed in 0u64..80,
        inputs in prop::collection::vec(0u32..2, 2..4),
        model_idx in 0usize..4,
    ) {
        let fault_model = [
            FaultModel::PER_PROCESS,
            FaultModel::SYSTEM,
            FaultModel::MID_OP,
            FaultModel::ALL,
        ][model_idx];
        let mut rng = synthesis::rng(seed);
        let t = synthesis::random_readable_table(&mut rng, 4, 2);
        let Ok(sys) = rcn::solve_recoverable(std::sync::Arc::new(t), inputs) else {
            // No 2-recording witness for this table: nothing to build.
            return Ok(());
        };
        let dfs = rcn::faults::crashtest(&sys, rcn::faults::CrashtestConfig {
            max_crashes: 1,
            max_depth: 8,
            max_states: 100_000,
            fault_model,
        });
        let bfs = rcn::mc::model_check(&sys, rcn::mc::McConfig {
            max_crashes: 1,
            max_depth: 8,
            max_states: 100_000,
            fault_model,
        });
        prop_assert!(dfs.stats.exhaustive());
        prop_assert_eq!(bfs.coverage, rcn::mc::Coverage::Exhaustive);
        prop_assert_eq!(
            dfs.counterexample.is_some(),
            bfs.counterexample.is_some(),
            "crashtest verdicts diverge: dfs {:?} vs bfs {:?}",
            dfs.counterexample.map(|c| c.schedule.to_string()),
            bfs.counterexample.map(|c| c.schedule.to_string())
        );
        if let Ok(graph) = rcn::valency::BudgetedGraph::explore(&sys, 1, 2, 100_000) {
            let checker = rcn::mc::valency_check(&sys, rcn::mc::ValencyConfig {
                z: 1,
                clamp: 2,
                max_states: 100_000,
            });
            prop_assert_eq!(checker.coverage, rcn::mc::Coverage::Exhaustive);
            prop_assert_eq!(
                graph.initial_valency().to_string(),
                checker.valency.to_string()
            );
        }
    }
}
