//! The packed state encoding the configuration graphs store states as
//! (`Configuration::pack_into`) must be injective over the configurations
//! of one system, its decoder (`Configuration::unpack_from`) must invert
//! it, and the buffer-reusing `clone_from` the explorers build successors
//! with must copy exactly, whatever shape it overwrites.

use proptest::prelude::*;
use rcn::model::{
    Action, Configuration, Event, HeapLayout, LocalState, ObjectId, ProcessId, Program, System,
};
use rcn::spec::zoo::Register;
use rcn::spec::{OpId, Response, ValueId};
use std::sync::Arc;

/// Each process's state is its input followed by every response it has
/// seen, so states change word count as it runs: it alternately reads a
/// register and writes its input to it, and outputs its input after three
/// accesses. Crashes shrink the state back to one word. Flattened without
/// length prefixes, `[0, 0] [0]` and `[0] [0, 0]` would collide.
struct Growing {
    reg: ObjectId,
}

impl Program for Growing {
    fn name(&self) -> String {
        "growing".into()
    }

    fn initial_state(&self, _pid: ProcessId, input: u32) -> LocalState {
        LocalState::word1(input)
    }

    fn action(&self, _pid: ProcessId, state: &LocalState) -> Action {
        match state.words().len() {
            4 => Action::Output(state.word(0)),
            len if len % 2 == 1 => Action::Invoke {
                object: self.reg,
                op: OpId::new(2), // read
            },
            _ => Action::Invoke {
                object: self.reg,
                op: OpId::new(state.word(0) as u16), // write(input)
            },
        }
    }

    fn transition(&self, _pid: ProcessId, state: &LocalState, response: Response) -> LocalState {
        let words = state.words().iter().copied();
        LocalState::from_words(words.chain([response.index() as u32]))
    }
}

/// The crash explorer's trap shape: process 0 keeps two words (steps since
/// its last reset, last response), every other process one (a bit it
/// toggles into a register), so states differ in word count by process.
struct Trap {
    reg: ObjectId,
}

impl Program for Trap {
    fn name(&self) -> String {
        "trap".into()
    }

    fn initial_state(&self, pid: ProcessId, _input: u32) -> LocalState {
        if pid.index() == 0 {
            LocalState::word2(0, 0)
        } else {
            LocalState::word1(0)
        }
    }

    fn action(&self, pid: ProcessId, state: &LocalState) -> Action {
        if pid.index() == 0 {
            if state.word(0) == 3 {
                Action::Output(state.word(1))
            } else {
                Action::Invoke {
                    object: self.reg,
                    op: OpId::new(2), // read
                }
            }
        } else {
            Action::Invoke {
                object: self.reg,
                op: OpId::new(1 - state.word(0) as u16), // write(1 - b)
            }
        }
    }

    fn transition(&self, pid: ProcessId, state: &LocalState, response: Response) -> LocalState {
        if pid.index() == 0 {
            LocalState::word2(state.word(0) + 1, response.index() as u32)
        } else {
            LocalState::word1(1 - state.word(0))
        }
    }
}

fn system(trap: bool, inputs: Vec<u32>) -> System {
    let mut layout = HeapLayout::new();
    let reg = layout.add_object("R", Arc::new(Register::new(2)), ValueId::new(0));
    let program: Arc<dyn Program> = if trap {
        Arc::new(Trap { reg })
    } else {
        Arc::new(Growing { reg })
    };
    System::new(program, Arc::new(layout), inputs)
}

/// Up to `max_len` random moves: a process draw and whether it crashes.
fn arb_moves(max_len: usize) -> impl Strategy<Value = Vec<(u16, bool)>> {
    prop::collection::vec((0..3u16, prop::bool::ANY), 0..max_len)
}

/// The moves as events of an `n`-process system.
fn events(moves: &[(u16, bool)], n: u16) -> Vec<Event> {
    moves
        .iter()
        .map(|&(p, crash)| {
            let p = ProcessId(p % n);
            if crash {
                Event::Crash(p)
            } else {
                Event::Step(p)
            }
        })
        .collect()
}

/// Every configuration the schedule passes through, the initial one first.
fn visited(sys: &System, events: &[Event]) -> Vec<Configuration> {
    let mut config = sys.initial_config();
    let mut out = vec![config.clone()];
    for &event in events {
        sys.apply(&mut config, event);
        out.push(config.clone());
    }
    out
}

fn packed(config: &Configuration) -> Vec<u32> {
    let mut words = Vec::new();
    config.pack_into(&mut words);
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two configurations of one system pack to the same words exactly
    /// when they are equal.
    #[test]
    fn packing_is_injective(
        trap in prop::bool::ANY,
        three in prop::bool::ANY,
        inputs in prop::collection::vec(0..2u32, 3..4),
        left in arb_moves(14),
        right in arb_moves(14),
    ) {
        let n = if three { 3 } else { 2 };
        let sys = system(trap, inputs[..usize::from(n)].to_vec());
        let a = visited(&sys, &events(&left, n));
        let b = visited(&sys, &events(&right, n));
        for x in &a {
            for y in a.iter().chain(&b) {
                prop_assert_eq!(packed(x) == packed(y), x == y, "{} vs {}", x, y);
            }
        }
    }

    /// `clone_from` into a configuration of any other shape — other process
    /// count, other word counts, other decisions — leaves an equal copy.
    #[test]
    fn clone_from_copies_across_shapes(
        moves in arb_moves(12),
        other in arb_moves(12),
    ) {
        let sources = visited(&system(false, vec![0, 1, 1]), &events(&moves, 3));
        let targets = visited(&system(true, vec![1, 0]), &events(&other, 2));
        for source in &sources {
            for target in &targets {
                let mut copy = target.clone();
                copy.clone_from(source);
                prop_assert_eq!(&copy, source);
                copy.clone_from(target);
                prop_assert_eq!(&copy, target);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `unpack_from` inverts `pack_into` whatever the scratch configuration
    /// held: the growing program's local states change word count, the trap
    /// program's keep per-process word counts of their own, and either may
    /// have decided. Words after the encoding are left unread.
    #[test]
    fn unpack_inverts_pack_across_shapes(
        three in prop::bool::ANY,
        moves in arb_moves(14),
        other in arb_moves(14),
    ) {
        let n = if three { 3 } else { 2 };
        let sources = visited(&system(false, vec![0, 1, 1][..usize::from(n)].to_vec()), &events(&moves, n));
        let scratch = visited(&system(true, vec![1, 0, 0][..usize::from(n)].to_vec()), &events(&other, n));
        for source in &sources {
            let mut words = packed(source);
            let len = words.len();
            words.push(7);
            for target in scratch.iter().chain(&sources) {
                let mut copy = target.clone();
                prop_assert_eq!(copy.unpack_from(&words), len);
                prop_assert_eq!(&copy, source);
            }
        }
    }
}

/// Both decision flags round-trip, each over the other.
#[test]
fn unpack_flips_decision_flags() {
    let sys = system(false, vec![0, 1]);
    let schedule: Vec<Event> = (0..3).map(|_| Event::Step(ProcessId(0))).collect();
    let configs = visited(&sys, &schedule);
    let (undecided, decided) = (&configs[0], &configs[3]);
    assert_eq!(undecided.decided, [None, None]);
    assert_eq!(decided.decided, [Some(0), None]);
    for (source, target) in [(decided, undecided), (undecided, decided)] {
        let mut copy = target.clone();
        copy.unpack_from(&packed(source));
        assert_eq!(&copy, source);
    }
}

/// The length prefixes are what keep shifted word boundaries apart.
#[test]
fn word_counts_are_part_of_the_encoding() {
    let config = |states: [&[u32]; 2]| Configuration {
        states: states
            .map(|w| LocalState::from_words(w.iter().copied()))
            .to_vec(),
        values: vec![ValueId::new(0)],
        decided: vec![None, None],
    };
    let left = config([&[0, 0], &[0]]);
    let right = config([&[0], &[0, 0]]);
    assert_ne!(left, right);
    assert_ne!(packed(&left), packed(&right));
    assert_eq!(packed(&left), [2, 0, 0, 1, 0, 0, 0, 0, 0, 0]);
}
