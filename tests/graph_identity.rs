//! Pins the exact shape of the configuration graphs the valency layer
//! builds: state counts, edge counts, and digests of every edge (event,
//! target, violation), every BFS parent, every configuration's packed words
//! and every budgeted state's valency in id order, and the checker's
//! verdict on each consensus system's graph, counterexample included, and
//! the Theorem 13 chains walked over them. Any change to how `ConfigGraph`
//! or `BudgetedGraph` stores or indexes states must keep ids, edge order,
//! parents, states and valencies bit-identical, so these constants must
//! never move.

use rcn::decide::synthesis;
use rcn::model::{Event, Fnv1a, HeapLayout, OutputInput, Schedule, System, Violation};
use rcn::protocols::{TasConsensus, TnnRecoverable, TnnWaitFree, TournamentConsensus};
use rcn::spec::zoo::{BoundedQueue, BoundedStack, CompareAndSwap, StickyBit, TeamCounter, Tnn};
use rcn::spec::{ObjectType, ValueId};
use rcn::universal::UniversalSim;
use rcn::valency::{check_graph, theorem13_chain, BudgetedGraph, ConfigGraph, Valency};
use std::hash::Hasher;
use std::sync::Arc;
use Valency::{Bivalent, Univalent};

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

/// Mixes a schedule in as its length, then its events.
fn mix_path(h: &mut Fnv1a, path: &Schedule) {
    h.mix(path.len() as u64);
    for event in path.iter() {
        mix_event(h, event);
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
        mix_path(&mut path_digest, &graph.path_to(id));
    }
    (
        graph.len(),
        edges,
        edge_digest.finish(),
        path_digest.finish(),
    )
}

/// Digest of every configuration's packed words (`Configuration::pack_into`),
/// in id order.
fn config_words_digest(graph: &ConfigGraph) -> u64 {
    let mut digest = Fnv1a::new();
    let mut words = Vec::new();
    for id in 0..graph.len() {
        words.clear();
        graph.config(id).pack_into(&mut words);
        digest.mix(words.len() as u64);
        for &word in &words {
            digest.mix(u64::from(word));
        }
    }
    digest.finish()
}

/// What [`budgeted_shape`] pins of one `E_1*` graph.
type Budgeted = (usize, usize, u64, Valency, Option<usize>, u64, u64);

/// `(states, edges, successor digest, initial valency, critical id, valency
/// digest, path digest)` of the `E_1*` graph at `clamp`. The valency digest
/// covers every state's valency; the path digest covers `path_to` of every
/// state.
fn budgeted_shape(system: &System, clamp: u16) -> Budgeted {
    let graph = BudgetedGraph::explore(system, 1, clamp, 1_000_000).unwrap();
    let mut edges = 0;
    let mut digest = Fnv1a::new();
    let mut valencies = Fnv1a::new();
    let mut paths = Fnv1a::new();
    for id in 0..graph.len() {
        for (event, target) in graph.successors(id) {
            edges += 1;
            mix_event(&mut digest, event);
            digest.mix(target as u64);
        }
        match graph.valency(id) {
            Valency::Bivalent => valencies.mix(0),
            Valency::Univalent(v) => {
                valencies.mix(1);
                valencies.mix(u64::from(v));
            }
            Valency::Undetermined => valencies.mix(2),
        }
        mix_path(&mut paths, &graph.path_to(id));
    }
    (
        graph.len(),
        edges,
        digest.finish(),
        graph.initial_valency(),
        graph.find_critical(),
        valencies.finish(),
        paths.finish(),
    )
}

/// Checks one consensus system's configuration graph and the checker's
/// verdict on it (with its counterexample), then its `E_1*` graphs at
/// clamp 1 and clamp 4.
fn check_consensus_system(
    system: System,
    shape: (usize, usize, u64, u64),
    words: u64,
    verdict: &str,
    clamp1: Budgeted,
    clamp4: Budgeted,
) {
    let graph = config_graph(&system);
    assert_eq!(config_graph_shape(&graph), shape, "configuration graph");
    assert_eq!(config_words_digest(&graph), words, "configuration words");
    assert_eq!(check_graph(&graph).to_string(), verdict, "check_graph");
    assert_eq!(budgeted_shape(&system, 1), clamp1, "E_1* graph at clamp 1");
    assert_eq!(budgeted_shape(&system, 4), clamp4, "E_1* graph at clamp 4");
}

#[test]
fn tas_2proc() {
    check_consensus_system(
        TasConsensus::system(vec![0, 1]),
        (87, 348, 467748905714358911, 18028253660313834019),
        14637541485506557834,
        "UNSAFE: agreement violated: p0 output 1, earlier output 0 via safety violation: p0 p0 c0 p0 p0 p1 p0",
        (48, 117, 2950786696642838470, Bivalent, Some(11), 10934643809955256613, 6597333795715169610),
        (102, 279, 4146566085629992308, Bivalent, Some(21), 10205404731575547397, 7197727747714384038),
    );
}

#[test]
fn tnn_wait_free_2proc() {
    check_consensus_system(
        TnnWaitFree::system(2, 1, vec![0, 1]),
        (29, 116, 4778784064640908764, 5364963694010738661),
        12091432781614886665,
        "UNSAFE: agreement violated: p0 output 0, earlier output 1 via safety violation: p1 p0 c0 p0",
        (13, 32, 14561230742746876328, Bivalent, Some(0), 9386435536355850053, 11226007269458629061),
        (29, 80, 5337798617375342542, Bivalent, Some(0), 1019445926516747044, 9604973469343440706),
    );
}

#[test]
fn tnn_wait_free_3proc() {
    check_consensus_system(
        TnnWaitFree::system(2, 1, vec![0, 1, 1]),
        (160, 960, 828780463257539343, 3394670077565852780),
        8388985080166866566,
        "UNSAFE: agreement violated: p2 output 0, earlier output 1 via safety violation: p1 p0 p2",
        (
            131,
            529,
            17917362572679793425,
            Bivalent,
            None,
            2249349893898815493,
            7087119541235865317,
        ),
        (
            732,
            3365,
            9287675922435037939,
            Bivalent,
            None,
            1748043383060410692,
            43776069514005800,
        ),
    );
}

#[test]
fn tnn_recoverable_2proc() {
    check_consensus_system(
        TnnRecoverable::system(5, 2, vec![0, 1]),
        (28, 112, 1885569143606964961, 17643758614277096775),
        2972374838583172581,
        "correct (safe + recoverable wait-free)",
        (
            29,
            71,
            2592505089081388027,
            Bivalent,
            Some(11),
            6013597113529415780,
            16131605494924588006,
        ),
        (
            62,
            170,
            2624163125636252769,
            Bivalent,
            Some(22),
            15579726405967701637,
            17027778197601830820,
        ),
    );
}

#[test]
fn tnn_recoverable_3proc() {
    check_consensus_system(
        TnnRecoverable::system(5, 2, vec![0, 1, 1]),
        (194, 1164, 17829653127583999341, 5520319392061968996),
        4232300686198755047,
        "UNSAFE: agreement violated: p0 output 0, earlier output 1 via safety violation: p0 p1 p2 p1 p0 c0 p2 p0",
        (319, 1283, 18197483975914824750, Bivalent, Some(112), 3146745762586525028, 7265200228071133475),
        (1742, 7988, 11198842151902521294, Bivalent, Some(1283), 8901514487860865124, 6554040039096933282),
    );
}

#[test]
fn sticky_tournament_2proc() {
    check_consensus_system(
        sticky(vec![0, 1]),
        (176, 704, 17087891805530725431, 16477392617488139335),
        7209992313091438757,
        "correct (safe + recoverable wait-free)",
        (
            139,
            342,
            11559697547767476127,
            Bivalent,
            Some(33),
            6667574011497601988,
            12553182152676127054,
        ),
        (
            329,
            912,
            8902811477729572976,
            Bivalent,
            Some(150),
            744576089702483012,
            13771867732489341122,
        ),
    );
}

#[test]
fn sticky_tournament_3proc() {
    check_consensus_system(
        sticky(vec![1, 0, 1]),
        (11672, 70032, 5520929110217788692, 13794250407645169857),
        6102984495372970469,
        "correct (safe + recoverable wait-free)",
        (
            16907,
            67707,
            8405972400439724838,
            Bivalent,
            Some(7029),
            6372598464753988868,
            1598094464678129328,
        ),
        (
            97786,
            448513,
            8188690847502228234,
            Bivalent,
            Some(62005),
            7907997483556044357,
            14180008873417430007,
        ),
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
/// [`config_graph_shape`]) and its configurations' words, the valency and
/// path digests of its `E_1*` graph at clamp 2 (as [`budgeted_shape`]),
/// then that graph's critical execution with the teams, object and
/// Observation 11 class found there.
/// The edge digest fixes the contest witnesses the construction chose.
fn tournament_digest(system: &System) -> String {
    let config_graph = ConfigGraph::explore(system, 2_000_000).unwrap();
    let configs = config_graph_shape(&config_graph);
    let words = config_words_digest(&config_graph);
    let (.., valencies, paths) = budgeted_shape(system, 2);
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
    format!("configs={configs:?} valencies={valencies} paths={paths} critical: {critical} words={words}")
}

/// The tournament over `ty` at 2 and at 3 processes (where it builds),
/// pinned against `expected` (one digest per built system, in order).
fn check_tournaments(ty: Arc<dyn ObjectType + Send + Sync>, expected: &[String]) {
    let digests: Vec<String> = [vec![0, 1], vec![1, 0, 1]]
        .into_iter()
        .filter_map(|inputs| TournamentConsensus::try_new(ty.clone(), inputs).ok())
        .map(|system| tournament_digest(&system))
        .collect();
    assert_eq!(digests, expected, "{}", ty.name());
}

/// Two-team recording systems with the same witness shape give the same
/// graphs: sticky and `cas:3` agree, and so do `tnn:4,3` and
/// `team-counter:4`. Their configurations' words differ where value ids do.
const STICKY_2: &str = "configs=(176, 704, 17087891805530725431, 16477392617488139335) valencies=6345433154328389828 paths=694102149169458154 critical: p0 p0 c1 c1 p1 p1 teams=[Some(0), Some(1)] object=Some(ObjectId(0)) class=Some(Recording)";
const STICKY_3: &str = "configs=(11672, 70032, 5520929110217788692, 13794250407645169857) valencies=18286755170052422052 paths=1449470914259335855 critical: p0 p0 c1 c1 p1 p1 p1 p1 p1 p1 p1 c2 c2 p2 p2 p2 p2 p2 teams=[Some(1), Some(0), Some(0)] object=Some(ObjectId(3)) class=Some(Recording)";
const COUNTER_2: &str = "configs=(288, 1152, 15372315909224840015, 16039484554907267239) valencies=1754511389228073860 paths=15810744726557198754 critical: p0 p0 c1 c1 p1 p1 teams=[Some(0), Some(1)] object=Some(ObjectId(0)) class=Some(Recording)";
const COUNTER_3: &str = "configs=(49660, 297960, 6405468977122104320, 9550563586194187809) valencies=5324473021339640036 paths=5284974358356219737 critical: p0 p0 c1 c1 p1 p1 p1 p1 p1 p1 p1 c2 c2 p2 p2 p2 p2 p2 teams=[Some(1), Some(0), Some(0)] object=Some(ObjectId(3)) class=Some(Recording)";

/// The sticky and `cas:3` tournaments at 2 and 3 processes.
fn sticky_words() -> [String; 2] {
    [
        format!("{STICKY_2} words=7209992313091438757"),
        format!("{STICKY_3} words=6102984495372970469"),
    ]
}

/// The `tnn:4,3` and `team-counter:4` tournaments at 2 and 3 processes.
fn counter_words() -> [String; 2] {
    [
        format!("{COUNTER_2} words=13947974842226948517"),
        format!("{COUNTER_3} words=15176732784434764932"),
    ]
}

#[test]
fn sticky_tournaments() {
    check_tournaments(Arc::new(StickyBit::new()), &sticky_words());
}

#[test]
fn cas_tournaments() {
    check_tournaments(Arc::new(CompareAndSwap::new(3)), &sticky_words());
}

#[test]
fn tnn_tournaments() {
    check_tournaments(Arc::new(Tnn::new(4, 3)), &counter_words());
}

#[test]
fn team_counter_tournaments() {
    check_tournaments(Arc::new(TeamCounter::new(4)), &counter_words());
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
    let wide = "configs=(232, 928, 10627145578523468642, 18211206083880874300) valencies=264001938962499140 paths=9319224188413651424 critical: p0 p0 c1 c1 p1 p1 teams=[Some(0), Some(1)] object=Some(ObjectId(0)) class=Some(Recording)";
    let expected = [
        format!("#13 {STICKY_2} words=4288780088908449829"),
        format!("#25 {wide} words=11722929432462047879"),
        format!("#35 {wide} words=15899872980293456135"),
        format!("#41 {wide} words=11391209678019284551"),
        format!("#52 {wide} words=5528731188349656967"),
    ];
    assert_eq!(built, expected);
}

/// The 3-process sticky tournament's `E_1*` graph at clamp 2: the graph
/// `rcn lint` compares against `rcn-mc`'s valency check (RCN201).
#[test]
fn sticky_tournament_3proc_clamp2() {
    assert_eq!(
        budgeted_shape(&sticky(vec![1, 0, 1]), 2),
        (
            36827,
            159311,
            13539874559481467450,
            Bivalent,
            Some(18098),
            18286755170052422052,
            1449470914259335855
        )
    );
}

/// Every link of the Theorem 13 chain at `z = 1`, clamp 4: the critical
/// execution, its teams, object, witness and class, and the continuation.
fn chain_digest(system: &System) -> Vec<String> {
    let report = theorem13_chain(system, 1, 4, 1_000_000).unwrap();
    assert!(report.reached_recording);
    report
        .links
        .iter()
        .map(|link| {
            let info = &link.critical;
            format!(
                "{} teams={:?} object={:?} witness={:?} class={:?} then {}",
                info.schedule, info.teams, info.object, info.witness, info.class, link.continuation
            )
        })
        .collect()
}

#[test]
fn theorem13_chains() {
    assert_eq!(
        chain_digest(&sticky(vec![0, 1])),
        ["p0 p0 c1 c1 c1 c1 p1 p1 teams=[Some(0), Some(1)] object=Some(ObjectId(0)) witness=Some(Witness { initial: ValueId(0), team_of: [T0, T1], ops: [OpId(0), OpId(1)] }) class=Some(Recording) then ⟨⟩"]
    );
    assert_eq!(
        chain_digest(&TnnRecoverable::system(5, 2, vec![0, 1])),
        ["p0 c1 c1 p1 teams=[Some(0), Some(1)] object=Some(ObjectId(0)) witness=Some(Witness { initial: ValueId(0), team_of: [T0, T1], ops: [OpId(0), OpId(1)] }) class=Some(Recording) then ⟨⟩"]
    );
}

/// The one-shot universal construction simulating `queue:2,3` on three
/// processes: enqueue 1, dequeue, enqueue 0 (the shape of the benchmark's
/// queue simulations).
#[test]
fn universal_queue_simulation() {
    let queue = BoundedQueue::new(2, 3);
    let ops = [queue.enq_op(1), queue.deq_op(), queue.enq_op(0)];
    let ops = ops.iter().map(|op| op.index() as u32).collect();
    let graph = config_graph(&UniversalSim::system(Arc::new(queue), ValueId::new(0), ops));
    assert_eq!(
        config_graph_shape(&graph),
        (2035, 12210, 1064241771686747483, 15009783645723495623)
    );
    assert_eq!(config_words_digest(&graph), 16077875336954829182);
}

/// Checks one consensus system's configuration graph, its configurations'
/// words and the checker's verdict on it.
fn check_config_graph(system: System, shape: (usize, usize, u64, u64), words: u64, verdict: &str) {
    let graph = config_graph(&system);
    assert_eq!(config_graph_shape(&graph), shape, "configuration graph");
    assert_eq!(config_words_digest(&graph), words, "configuration words");
    assert_eq!(check_graph(&graph).to_string(), verdict, "check_graph");
}

/// `T_{n,n'}`'s recoverable algorithm at `n'` processes, where it is
/// correct, and at `n' + 1`, where Lemma 16 breaks it, for the pairs the
/// benchmark certifies besides `(5, 2)`.
#[test]
fn tnn_recoverable_pairs() {
    check_config_graph(
        TnnRecoverable::system(3, 1, vec![1]),
        (4, 8, 11304360230594740326, 7375239333057691940),
        3916369607558073735,
        "correct (safe + recoverable wait-free)",
    );
    check_config_graph(
        TnnRecoverable::system(3, 1, vec![0, 1]),
        (40, 160, 6404794759926659318, 361465365473614953),
        10889552349690151525,
        "UNSAFE: agreement violated: p0 output 0, earlier output 1 via safety violation: p0 p1 p1 p0 c0 p0",
    );
    check_config_graph(
        TnnRecoverable::system(4, 2, vec![1, 0]),
        (28, 112, 1885569143606964961, 17643758614277096775),
        13067325518068691685,
        "correct (safe + recoverable wait-free)",
    );
    check_config_graph(
        TnnRecoverable::system(4, 2, vec![0, 1, 1]),
        (194, 1164, 17829653127583999341, 5520319392061968996),
        924393242052925799,
        "UNSAFE: agreement violated: p0 output 0, earlier output 1 via safety violation: p0 p1 p2 p1 p0 c0 p2 p0",
    );
    check_config_graph(
        TnnRecoverable::system(4, 3, vec![0, 1, 1]),
        (160, 960, 13009569395437583247, 10201869924641235233),
        2424666281713246181,
        "correct (safe + recoverable wait-free)",
    );
    check_config_graph(
        TnnRecoverable::system(4, 3, vec![1, 0, 0, 1]),
        (977, 7816, 6285705255513436133, 18417932370119544849),
        13877903216150199197,
        "UNSAFE: agreement violated: p0 output 0, earlier output 1 via safety violation: p0 p1 p2 p3 p0 c0 p1 p2 p3 p0",
    );
    check_config_graph(
        TnnRecoverable::system(5, 4, vec![1, 0, 1, 0]),
        (912, 7296, 3066811030678338677, 16933135742229020257),
        3379943196843925029,
        "correct (safe + recoverable wait-free)",
    );
    check_config_graph(
        TnnRecoverable::system(5, 4, vec![0, 1, 1, 0, 1]),
        (4851, 48510, 7634837692631807679, 9959033603912350696),
        5708916447269564376,
        "UNSAFE: agreement violated: p0 output 0, earlier output 1 via safety violation: p0 p1 p2 p3 p4 p1 p0 c0 p2 p3 p4 p0",
    );
}

/// The program that outputs its input: its start holds outputs, checked on
/// their own, and every crash edge re-outputs, so with mixed inputs the
/// crash edges carry agreement violations.
#[test]
fn output_input() {
    let system = |inputs| System::new(Arc::new(OutputInput), Arc::new(HeapLayout::new()), inputs);
    check_consensus_system(
        system(vec![0, 1]),
        (1, 4, 7161759246956579268, 12161962213042174405),
        14460640942923556685,
        "UNSAFE: agreement violated: p1 output 1, earlier output 0 via violated in the initial configuration: ⟨⟩",
        (2, 5, 1800358045129968548, Bivalent, None, 9808874869469701221, 16562664089422203716),
        (5, 14, 817903888456190401, Bivalent, None, 4672095441862941765, 14069715871115928999),
    );
    check_consensus_system(
        system(vec![1, 1]),
        (1, 4, 15614102024270540901, 12161962213042174405),
        12281819565287976781,
        "correct (safe + recoverable wait-free)",
        (
            2,
            5,
            1800358045129968548,
            Univalent(1),
            None,
            18288476033698550117,
            16562664089422203716,
        ),
        (
            5,
            14,
            817903888456190401,
            Univalent(1),
            None,
            16537532760717865669,
            14069715871115928999,
        ),
    );
}
