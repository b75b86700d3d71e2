//! Pins the exact shape of the configuration graphs the valency layer
//! builds: state counts, edge counts, and digests of every edge (event,
//! target, violation) and every BFS parent in id order. Any change to how
//! `ConfigGraph` or `BudgetedGraph` stores or indexes states must keep ids,
//! edge order, parents and valencies bit-identical, so these constants must
//! never move.

use rcn::model::{Event, Fnv1a, System, Violation};
use rcn::protocols::{TasConsensus, TnnRecoverable, TnnWaitFree, TournamentConsensus};
use rcn::spec::zoo::{BoundedStack, StickyBit};
use rcn::spec::ValueId;
use rcn::universal::UniversalSim;
use rcn::valency::{BudgetedGraph, ConfigGraph, Valency};
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

/// `(configurations, edges, edge digest, path digest)` of the full graph.
/// The path digest covers `path_to` of every configuration, which pins each
/// BFS parent and the event taken from it.
fn config_graph_shape(system: &System) -> (usize, usize, u64, u64) {
    let graph = ConfigGraph::explore(system, 1_000_000).unwrap();
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

/// Checks one consensus system's configuration graph, then its `E_1*`
/// graphs at clamp 1 and clamp 4.
fn check_consensus_system(
    system: System,
    graph: (usize, usize, u64, u64),
    clamp1: Budgeted,
    clamp4: Budgeted,
) {
    assert_eq!(config_graph_shape(&system), graph, "configuration graph");
    assert_eq!(budgeted_shape(&system, 1), clamp1, "E_1* graph at clamp 1");
    assert_eq!(budgeted_shape(&system, 4), clamp4, "E_1* graph at clamp 4");
}

#[test]
fn tas_2proc() {
    check_consensus_system(
        TasConsensus::system(vec![0, 1]),
        (87, 348, 467748905714358911, 18028253660313834019),
        (48, 117, 2950786696642838470, Bivalent, Some(11)),
        (102, 279, 4146566085629992308, Bivalent, Some(21)),
    );
}

#[test]
fn tnn_wait_free_2proc() {
    check_consensus_system(
        TnnWaitFree::system(2, 1, vec![0, 1]),
        (29, 116, 4778784064640908764, 5364963694010738661),
        (13, 32, 14561230742746876328, Bivalent, Some(0)),
        (29, 80, 5337798617375342542, Bivalent, Some(0)),
    );
}

#[test]
fn tnn_wait_free_3proc() {
    check_consensus_system(
        TnnWaitFree::system(2, 1, vec![0, 1, 1]),
        (160, 960, 828780463257539343, 3394670077565852780),
        (131, 529, 17917362572679793425, Bivalent, None),
        (732, 3365, 9287675922435037939, Bivalent, None),
    );
}

#[test]
fn tnn_recoverable_2proc() {
    check_consensus_system(
        TnnRecoverable::system(5, 2, vec![0, 1]),
        (28, 112, 1885569143606964961, 17643758614277096775),
        (29, 71, 2592505089081388027, Bivalent, Some(11)),
        (62, 170, 2624163125636252769, Bivalent, Some(22)),
    );
}

#[test]
fn tnn_recoverable_3proc() {
    check_consensus_system(
        TnnRecoverable::system(5, 2, vec![0, 1, 1]),
        (194, 1164, 17829653127583999341, 5520319392061968996),
        (319, 1283, 18197483975914824750, Bivalent, Some(112)),
        (1742, 7988, 11198842151902521294, Bivalent, Some(1283)),
    );
}

#[test]
fn sticky_tournament_2proc() {
    check_consensus_system(
        sticky(vec![0, 1]),
        (176, 704, 17087891805530725431, 16477392617488139335),
        (139, 342, 11559697547767476127, Bivalent, Some(33)),
        (329, 912, 8902811477729572976, Bivalent, Some(150)),
    );
}

#[test]
fn sticky_tournament_3proc() {
    check_consensus_system(
        sticky(vec![1, 0, 1]),
        (11672, 70032, 5520929110217788692, 13794250407645169857),
        (16907, 67707, 8405972400439724838, Bivalent, Some(7029)),
        (97786, 448513, 8188690847502228234, Bivalent, Some(62005)),
    );
}

#[test]
fn universal_stack_simulation() {
    assert_eq!(
        config_graph_shape(&stack_sim()),
        (88, 352, 14440953365186833131, 7954183457069903686)
    );
}
