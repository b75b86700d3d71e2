//! The calibration kernel: a fixed toy search that calls into no crate the
//! benchmark measures, timed throughout a run to gauge how fast the
//! machine runs, so that job times can be reported at one reference speed.
//!
//! The reference VM shares its cores with other tenants. Their load slows
//! the same code by up to 1.8×, in spells from under a second to minutes,
//! so a whole run can fall in one. The kernel is a depth-first search over
//! a hash set of small state vectors, like the searches the layers run,
//! and slows with them: over 0.6 s windows of `classify`, job times and
//! the kernel's time moved together with r = 0.96 (log-log slope 1.03 to
//! 1.18 by job class), and dividing by the kernel cut the windows' spread
//! from 12–15% to 3–8%. A change to the measured crates leaves the kernel
//! alone, so it moves the scaled times as much as the raw ones.
//!
//! Not every workload follows the kernel one for one: over runs at 0.5 to
//! 0.93 of the reference speed, `crashtest`'s times moved as the
//! kernel's raised to the power 1.25, so each workload carries its own
//! exponent ([`crate::plan::Workload::sensitivity`]).

use crate::stats::median;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The timed kernel's duration at the reference speed, in ms: its median
/// on the reference VM (2 vCPUs) in a quiet spell.
pub const REFERENCE_MS: f64 = 0.28;

/// The kernel runs before a job once this long has passed since it last
/// ran (about 2% of a run).
const EVERY: Duration = Duration::from_millis(20);

/// The kernel's runs over one stretch of work: a block or a set-up.
#[derive(Debug, Default)]
pub struct Calibration {
    last: Option<Instant>,
    times_ms: Vec<f64>,
}

impl Calibration {
    /// Runs the kernel if it has not run in the last 20 ms of the stretch.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= EVERY) {
            self.times_ms.push(measure());
            self.last = Some(Instant::now());
        }
    }

    /// Ends the stretch and returns its speed: [`REFERENCE_MS`] over the
    /// median timed kernel run (1 at the reference speed, below 1 on a
    /// slower machine). A job time multiplied by the speed raised to its
    /// workload's [`Workload::sensitivity`] is the time at the reference
    /// speed.
    ///
    /// [`Workload::sensitivity`]: crate::plan::Workload::sensitivity
    pub fn finish(&mut self) -> f64 {
        self.tick();
        let speed = REFERENCE_MS / median(&self.times_ms);
        *self = Calibration::default();
        speed
    }
}

/// One kernel measurement in ms. An untimed smaller search goes first, so
/// that the timed one does not pay for the caches the last job left cold.
fn measure() -> f64 {
    black_box(toy_search(300));
    let started = Instant::now();
    black_box(toy_search(1000));
    started.elapsed().as_secs_f64() * 1e3
}

/// Depth-first search of a toy transition system until `cap` states are
/// known: nine counters, where a step at `i` swaps counters `i` and
/// `i + 1` if they are out of order and otherwise bumps counter `i`
/// (mod 4). Every known state is kept in a hash set with fixed keys, so
/// every run does the same work.
fn toy_search(cap: usize) -> u64 {
    const N: usize = 9;
    let start: Vec<u8> = (0..N as u8).map(|i| i % 4).collect();
    let mut seen: HashSet<Vec<u8>, BuildHasherDefault<DefaultHasher>> = HashSet::default();
    let mut stack = vec![start.clone()];
    seen.insert(start);
    let mut edges = 0u64;
    while let Some(state) = stack.pop() {
        for i in 0..N {
            let mut next = state.clone();
            if i + 1 < N && state[i] > state[i + 1] {
                next.swap(i, i + 1);
            } else {
                next[i] = (next[i] + 1) % 4;
            }
            edges += 1;
            if seen.len() < cap && !seen.contains(&next) {
                seen.insert(next.clone());
                stack.push(next);
            }
        }
    }
    edges ^ seen.len() as u64
}
