//! Delta-debugging shrinking of violating schedules.
//!
//! The DFS explorer returns the first violating path it walks, which
//! usually carries irrelevant events (steps of uninvolved processes,
//! crashes that burned budget without mattering). Shrinking reduces it to a
//! schedule where *every* event is necessary: remove any single event and
//! the violation disappears (1-minimality, the guarantee of delta
//! debugging's final granularity).
//!
//! The procedure is deterministic and purely abstract — every candidate is
//! re-executed from the initial configuration through [`System::apply`] —
//! so a shrunk counterexample is reproducible by construction.

use crate::diagnose::diagnose;
use crate::explorer::Counterexample;
use rcn_model::{Event, Schedule, System};
use rcn_obs::Tracer;

/// Returns `true` if running `events` from the initial configuration
/// triggers any violation (not necessarily the one originally observed —
/// any violation is a valid counterexample).
fn violates<'e>(system: &System, events: impl IntoIterator<Item = &'e Event>) -> bool {
    let mut config = system.initial_config();
    events
        .into_iter()
        .any(|&e| system.apply(&mut config, e).violation.is_some())
}

/// Shrinks a violating schedule to a 1-minimal one: first truncate to the
/// prefix ending at the first violation, then delete ever-smaller chunks of
/// events (halves, quarters, …, single events) as long as the result still
/// violates.
///
/// Returns the input unchanged if it does not violate at all.
pub fn shrink_schedule(system: &System, schedule: &Schedule) -> Schedule {
    shrink_schedule_traced(system, schedule, &Tracer::disabled())
}

/// [`shrink_schedule`] with observability: brackets the shrink in a
/// `crashtest.shrink` span (payload: the input length) and counts every
/// candidate re-execution in the `crashtest.shrink_iterations` counter.
/// With a disabled tracer this is exactly [`shrink_schedule`].
pub fn shrink_schedule_traced(system: &System, schedule: &Schedule, tracer: &Tracer) -> Schedule {
    let span = tracer.span_with(
        "crashtest.shrink",
        i64::try_from(schedule.len()).unwrap_or(i64::MAX),
        "",
    );
    let iterations = tracer.counter("crashtest.shrink_iterations");
    let mut events: Vec<Event> = schedule.events().to_vec();
    iterations.incr();
    // Truncation: nothing after the first violating event matters.
    let mut config = system.initial_config();
    let Some(at) = events
        .iter()
        .position(|&e| system.apply(&mut config, e).violation.is_some())
    else {
        return schedule.clone();
    };
    events.truncate(at + 1);
    // Delta-debugging deletion: coarse chunks first for speed, chunk size 1
    // last for the 1-minimality guarantee. Every candidate is replayed from
    // the initial configuration.
    let mut chunk = (events.len() / 2).max(1);
    loop {
        let mut reduced = false;
        let mut start = 0;
        while start < events.len() {
            let end = (start + chunk).min(events.len());
            iterations.incr();
            if violates(system, events[..start].iter().chain(&events[end..])) {
                events.drain(start..end);
                reduced = true;
                // Re-test from the same index: the next chunk slid left.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !reduced {
            break;
        }
        if !reduced {
            chunk = (chunk / 2).max(1);
        }
    }
    drop(span);
    Schedule::from_events(events)
}

/// Shrinks a counterexample, re-diagnosing the minimal schedule (the
/// violation kind or diverging process may differ from the original — the
/// minimal schedule's own diagnosis is the one reported).
pub fn shrink_counterexample(system: &System, cex: &Counterexample) -> Counterexample {
    shrink_counterexample_traced(system, cex, &Tracer::disabled())
}

/// [`shrink_counterexample`] with observability (see
/// [`shrink_schedule_traced`]).
pub fn shrink_counterexample_traced(
    system: &System,
    cex: &Counterexample,
    tracer: &Tracer,
) -> Counterexample {
    let schedule = shrink_schedule_traced(system, &cex.schedule, tracer);
    let diagnosis = diagnose(system, &schedule);
    Counterexample {
        violation: diagnosis
            .violation
            .expect("shrinking preserves the existence of a violation"),
        divergence: diagnosis.divergence,
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{CrashExplorer, CrashtestConfig};
    use rcn_protocols::{TasConsensus, TnnWaitFree};

    fn is_one_minimal(system: &System, schedule: &Schedule) -> bool {
        let events = schedule.events();
        (0..events.len()).all(|i| {
            let mut cand = events.to_vec();
            cand.remove(i);
            !violates(system, &cand)
        })
    }

    #[test]
    fn shrunk_tas_counterexample_is_one_minimal() {
        let sys = TasConsensus::system(vec![0, 1]);
        let report = CrashExplorer::new(&sys, CrashtestConfig::default()).explore();
        let cex = report.counterexample.expect("T&S breaks under crashes");
        let small = shrink_counterexample(&sys, &cex);
        assert!(small.schedule.len() <= cex.schedule.len());
        assert!(violates(&sys, small.schedule.events()));
        assert!(
            is_one_minimal(&sys, &small.schedule),
            "every event must be necessary: {}",
            small.schedule
        );
        assert!(
            !small.schedule.is_crash_free(),
            "the minimal T&S violation still needs a crash"
        );
    }

    #[test]
    fn shrunk_tnn_counterexample_is_one_minimal() {
        let sys = TnnWaitFree::system(2, 1, vec![0, 1]);
        let report = CrashExplorer::new(&sys, CrashtestConfig::default()).explore();
        let cex = report.counterexample.expect("T_{2,1} diverges");
        let small = shrink_counterexample(&sys, &cex);
        assert!(is_one_minimal(&sys, &small.schedule), "{}", small.schedule);
    }

    #[test]
    fn shrinking_a_clean_schedule_is_the_identity() {
        let sys = TasConsensus::system(vec![0, 1]);
        let clean: Schedule = "p0 p0 p1 p1 p1".parse().unwrap();
        assert_eq!(shrink_schedule(&sys, &clean), clean);
    }

    #[test]
    fn shrinking_is_deterministic() {
        let sys = TasConsensus::system(vec![0, 1]);
        let report = CrashExplorer::new(&sys, CrashtestConfig::default()).explore();
        let cex = report.counterexample.unwrap();
        let first = shrink_counterexample(&sys, &cex);
        for _ in 0..3 {
            assert_eq!(shrink_counterexample(&sys, &cex), first);
        }
    }
}
