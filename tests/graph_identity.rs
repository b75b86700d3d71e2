//! Pins the exact shape of the configuration graphs the valency layer
//! builds: state counts, edge counts, and digests of every edge (event,
//! target, violation) and every BFS parent in id order, and the checker's
//! verdict on each consensus system's graph, counterexample included. Any change to how
//! `ConfigGraph` or `BudgetedGraph` stores or indexes states must keep ids,
//! edge order, parents and valencies bit-identical, so these constants must
//! never move.

use rcn::decide::synthesis;
use rcn::model::{Event, Fnv1a, System, Violation};
use rcn::protocols::{TasConsensus, TnnRecoverable, TnnWaitFree, TournamentConsensus};
use rcn::spec::zoo::{BoundedStack, CompareAndSwap, StickyBit, TeamCounter, Tnn};
use rcn::spec::{ObjectType, ValueId};
use rcn::universal::UniversalSim;
use rcn::valency::{check_graph, BudgetedGraph, ConfigGraph, Valency};
use std::hash::Hasher;
use std::sync::Arc;
use Valency::Bivalent;

fn sticky(inputs: Vec<u32>) -> System {
    TournamentConsensus::try_new(Arc::new(StickyBit::new()), inputs).unwrap()
}

/// The one-shot universal construction simulating `stack:2,2`: process 0
/// pushes 0, process 1 pops.
fn stack_sim() -> System {
    let stack = BoundedStack::new(2, 2);
    let ops = vec![
        stack.push_op(0).index() as u32,
        stack.pop_op().index() as u32,
    ];
    UniversalSim::system(Arc::new(stack), ValueId::new(0), ops)
}

fn mix_event(h: &mut Fnv1a, event: Event) {
    let (tag, p) = match event {
        Event::Step(p) => (0, p.index()),
        Event::Crash(p) => (1, p.index()),
        Event::CrashDuring(p) => (2, p.index()),
        Event::SystemCrash => (3, 0),
    };
    h.mix(tag);
    h.mix(p as u64);
}

fn mix_violation(h: &mut Fnv1a, violation: Option<Violation>) {
    match violation {
        None => h.mix(0),
        Some(Violation::Agreement {
            process,
            output,
            earlier,
        }) => {
            h.mix(1);
            h.mix(process.index() as u64);
            h.mix(u64::from(output));
            h.mix(u64::from(earlier));
        }
        Some(Violation::Validity { process, output }) => {
            h.mix(2);
            h.mix(process.index() as u64);
            h.mix(u64::from(output));
        }
    }
}

fn config_graph(system: &System) -> ConfigGraph {
    ConfigGraph::explore(system, 1_000_000).unwrap()
}

/// `(configurations, edges, edge digest, path digest)` of the full graph.
/// The path digest covers `path_to` of every configuration, which pins each
/// BFS parent and the event taken from it.
fn config_graph_shape(graph: &ConfigGraph) -> (usize, usize, u64, u64) {
    let mut edges = 0;
    let mut edge_digest = Fnv1a::new();
    let mut path_digest = Fnv1a::new();
    for id in 0..graph.len() {
        for e in graph.edges(id) {
            edges += 1;
            mix_event(&mut edge_digest, e.event);
            edge_digest.mix(e.target as u64);
            mix_violation(&mut edge_digest, e.violation);
        }
        let path = graph.path_to(id);
        path_digest.mix(path.len() as u64);
        for event in path.iter() {
            mix_event(&mut path_digest, event);
        }
    }
    (
        graph.len(),
        edges,
        edge_digest.finish(),
        path_digest.finish(),
    )
}

/// What [`budgeted_shape`] pins of one `E_1*` graph.
type Budgeted = (usize, usize, u64, Valency, Option<usize>);

/// `(states, edges, successor digest, initial valency, critical id)` of the
/// `E_1*` graph at `clamp`.
fn budgeted_shape(system: &System, clamp: u16) -> Budgeted {
    let graph = BudgetedGraph::explore(system, 1, clamp, 1_000_000).unwrap();
    let mut edges = 0;
    let mut digest = Fnv1a::new();
    for id in 0..graph.len() {
        for &(event, target) in graph.successors(id) {
            edges += 1;
            mix_event(&mut digest, event);
            digest.mix(target as u64);
        }
    }
    (
        graph.len(),
        edges,
        digest.finish(),
        graph.initial_valency(),
        graph.find_critical(),
    )
}

/// Checks one consensus system's configuration graph and the checker's
/// verdict on it (with its counterexample), then its `E_1*` graphs at
/// clamp 1 and clamp 4.
fn check_consensus_system(
    system: System,
    shape: (usize, usize, u64, u64),
    verdict: &str,
    clamp1: Budgeted,
    clamp4: Budgeted,
) {
    let graph = config_graph(&system);
    assert_eq!(config_graph_shape(&graph), shape, "configuration graph");
    assert_eq!(check_graph(&graph).to_string(), verdict, "check_graph");
    assert_eq!(budgeted_shape(&system, 1), clamp1, "E_1* graph at clamp 1");
    assert_eq!(budgeted_shape(&system, 4), clamp4, "E_1* graph at clamp 4");
}

#[test]
fn tas_2proc() {
    check_consensus_system(
        TasConsensus::system(vec![0, 1]),
        (87, 348, 467748905714358911, 18028253660313834019),
        "UNSAFE: agreement violated: p0 output 1, earlier output 0 via safety violation: p0 p0 c0 p0 p0 p1 p0",
        (48, 117, 2950786696642838470, Bivalent, Some(11)),
        (102, 279, 4146566085629992308, Bivalent, Some(21)),
    );
}

#[test]
fn tnn_wait_free_2proc() {
    check_consensus_system(
        TnnWaitFree::system(2, 1, vec![0, 1]),
        (29, 116, 4778784064640908764, 5364963694010738661),
        "UNSAFE: agreement violated: p0 output 0, earlier output 1 via safety violation: p1 p0 c0 p0",
        (13, 32, 14561230742746876328, Bivalent, Some(0)),
        (29, 80, 5337798617375342542, Bivalent, Some(0)),
    );
}

#[test]
fn tnn_wait_free_3proc() {
    check_consensus_system(
        TnnWaitFree::system(2, 1, vec![0, 1, 1]),
        (160, 960, 828780463257539343, 3394670077565852780),
        "UNSAFE: agreement violated: p2 output 0, earlier output 1 via safety violation: p1 p0 p2",
        (131, 529, 17917362572679793425, Bivalent, None),
        (732, 3365, 9287675922435037939, Bivalent, None),
    );
}

#[test]
fn tnn_recoverable_2proc() {
    check_consensus_system(
        TnnRecoverable::system(5, 2, vec![0, 1]),
        (28, 112, 1885569143606964961, 17643758614277096775),
        "correct (safe + recoverable wait-free)",
        (29, 71, 2592505089081388027, Bivalent, Some(11)),
        (62, 170, 2624163125636252769, Bivalent, Some(22)),
    );
}

#[test]
fn tnn_recoverable_3proc() {
    check_consensus_system(
        TnnRecoverable::system(5, 2, vec![0, 1, 1]),
        (194, 1164, 17829653127583999341, 5520319392061968996),
        "UNSAFE: agreement violated: p0 output 0, earlier output 1 via safety violation: p0 p1 p2 p1 p0 c0 p2 p0",
        (319, 1283, 18197483975914824750, Bivalent, Some(112)),
        (1742, 7988, 11198842151902521294, Bivalent, Some(1283)),
    );
}

#[test]
fn sticky_tournament_2proc() {
    check_consensus_system(
        sticky(vec![0, 1]),
        (176, 704, 17087891805530725431, 16477392617488139335),
        "correct (safe + recoverable wait-free)",
        (139, 342, 11559697547767476127, Bivalent, Some(33)),
        (329, 912, 8902811477729572976, Bivalent, Some(150)),
    );
}

#[test]
fn sticky_tournament_3proc() {
    check_consensus_system(
        sticky(vec![1, 0, 1]),
        (11672, 70032, 5520929110217788692, 13794250407645169857),
        "correct (safe + recoverable wait-free)",
        (16907, 67707, 8405972400439724838, Bivalent, Some(7029)),
        (97786, 448513, 8188690847502228234, Bivalent, Some(62005)),
    );
}

#[test]
fn universal_stack_simulation() {
    assert_eq!(
        config_graph_shape(&config_graph(&stack_sim())),
        (88, 352, 14440953365186833131, 7954183457069903686)
    );
}

/// What one tournament pins: the shape of its configuration graph (as
/// [`config_graph_shape`]), then the critical execution of its `E_1*` graph
/// at clamp 2 with the teams, object and Observation 11 class found there.
/// The edge digest fixes the contest witnesses the construction chose.
fn tournament_digest(system: &System) -> String {
    let configs = config_graph_shape(&ConfigGraph::explore(system, 2_000_000).unwrap());
    let graph = BudgetedGraph::explore(system, 1, 2, 2_000_000).unwrap();
    let critical = match graph.find_critical() {
        Some(id) => {
            let info = graph.analyze_critical(id);
            format!(
                "{} teams={:?} object={:?} class={:?}",
                info.schedule, info.teams, info.object, info.class
            )
        }
        None => "no critical".to_string(),
    };
    format!("configs={configs:?} critical: {critical}")
}

/// The tournament over `ty` at 2 and at 3 processes (where it builds),
/// pinned against `expected` (one digest per built system, in order).
fn check_tournaments(ty: Arc<dyn ObjectType + Send + Sync>, expected: &[&str]) {
    let digests: Vec<String> = [vec![0, 1], vec![1, 0, 1]]
        .into_iter()
        .filter_map(|inputs| TournamentConsensus::try_new(ty.clone(), inputs).ok())
        .map(|system| tournament_digest(&system))
        .collect();
    assert_eq!(digests, expected, "{}", ty.name());
}

/// Two-team recording systems with the same witness shape give the same
/// graphs: sticky and `cas:3` agree, and so do `tnn:4,3` and
/// `team-counter:4`.
const STICKY_2: &str = "configs=(176, 704, 17087891805530725431, 16477392617488139335) critical: p0 p0 c1 c1 p1 p1 teams=[Some(0), Some(1)] object=Some(ObjectId(0)) class=Some(Recording)";
const STICKY_3: &str = "configs=(11672, 70032, 5520929110217788692, 13794250407645169857) critical: p0 p0 c1 c1 p1 p1 p1 p1 p1 p1 p1 c2 c2 p2 p2 p2 p2 p2 teams=[Some(1), Some(0), Some(0)] object=Some(ObjectId(3)) class=Some(Recording)";
const COUNTER_2: &str = "configs=(288, 1152, 15372315909224840015, 16039484554907267239) critical: p0 p0 c1 c1 p1 p1 teams=[Some(0), Some(1)] object=Some(ObjectId(0)) class=Some(Recording)";
const COUNTER_3: &str = "configs=(49660, 297960, 6405468977122104320, 9550563586194187809) critical: p0 p0 c1 c1 p1 p1 p1 p1 p1 p1 p1 c2 c2 p2 p2 p2 p2 p2 teams=[Some(1), Some(0), Some(0)] object=Some(ObjectId(3)) class=Some(Recording)";

#[test]
fn sticky_tournaments() {
    check_tournaments(Arc::new(StickyBit::new()), &[STICKY_2, STICKY_3]);
}

#[test]
fn cas_tournaments() {
    check_tournaments(Arc::new(CompareAndSwap::new(3)), &[STICKY_2, STICKY_3]);
}

#[test]
fn tnn_tournaments() {
    check_tournaments(Arc::new(Tnn::new(4, 3)), &[COUNTER_2, COUNTER_3]);
}

#[test]
fn team_counter_tournaments() {
    check_tournaments(Arc::new(TeamCounter::new(4)), &[COUNTER_2, COUNTER_3]);
}

/// The first five `random_readable_table(4, 2)`s (seed 11) that build a
/// 2-process tournament, each with its index in the stream.
#[test]
fn tournaments_over_random_tables() {
    let mut rng = synthesis::rng(11);
    let mut built = Vec::new();
    for index in 0.. {
        let table = synthesis::random_readable_table(&mut rng, 4, 2);
        if let Ok(system) = TournamentConsensus::try_new(Arc::new(table), vec![0, 1]) {
            built.push(format!("#{index} {}", tournament_digest(&system)));
            if built.len() == 5 {
                break;
            }
        }
    }
    let wide = "configs=(232, 928, 10627145578523468642, 18211206083880874300) critical: p0 p0 c1 c1 p1 p1 teams=[Some(0), Some(1)] object=Some(ObjectId(0)) class=Some(Recording)";
    let expected = [
        format!("#13 {STICKY_2}"),
        format!("#25 {wide}"),
        format!("#35 {wide}"),
        format!("#41 {wide}"),
        format!("#52 {wide}"),
    ];
    assert_eq!(built, expected);
}
