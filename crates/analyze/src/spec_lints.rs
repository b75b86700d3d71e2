//! Spec lints (`RCN0xx`): hypotheses about sequential object-type
//! specifications.
//!
//! These certify or refute the side conditions the paper's theorems place
//! on types: well-formedness of the sequential specification (§2),
//! readability (Theorem 14's hypothesis), and structural hygiene that the
//! deciders rely on (reachable values, live responses, distinguishable
//! operations, crash-idempotent operations).

use crate::diag::{Diagnostic, Locus, Report, Severity};
use crate::explore::silent_catch;
use rcn_spec::{ObjectType, OpId, Outcome, ValueId};

/// A fully materialized, in-range transition table of a type — the common
/// precondition of every lint past closedness.
struct Table {
    name: String,
    num_values: usize,
    num_ops: usize,
    num_responses: usize,
    /// `cells[v][op]`, guaranteed in range.
    cells: Vec<Vec<Outcome>>,
}

impl Table {
    /// Captures the table if (and only if) the spec is closed: every
    /// in-range `apply` returns without panicking and yields an in-range
    /// outcome. Lints that need a closed table bail out on `None`;
    /// [`closedness`] reports the precise failures.
    fn capture(ty: &dyn ObjectType) -> Option<Table> {
        let (num_values, num_ops, num_responses) =
            (ty.num_values(), ty.num_ops(), ty.num_responses());
        if num_values == 0 || num_ops == 0 {
            return None;
        }
        let mut cells = Vec::with_capacity(num_values);
        for v in 0..num_values {
            let mut row = Vec::with_capacity(num_ops);
            for op in 0..num_ops {
                let out = silent_catch(|| ty.apply(ValueId(v as u16), OpId(op as u16))).ok()?;
                if out.next.index() >= num_values || out.response.index() >= num_responses {
                    return None;
                }
                row.push(out);
            }
            cells.push(row);
        }
        Some(Table {
            name: ty.name(),
            num_values,
            num_ops,
            num_responses,
            cells,
        })
    }
}

/// `RCN001` — the sequential specification must be closed.
///
/// Paper §2 defines a type by a *total* deterministic specification: every
/// `(value, op)` pair has a response and a resulting value, both in range.
/// `TableType::validate` checks the same property for tables; this lint
/// checks it for any [`ObjectType`], including hand-written ones whose
/// `apply` might panic.
pub(crate) fn closedness(ty: &dyn ObjectType, report: &mut Report) {
    let name = ty.name();
    let (nv, no, nr) = (ty.num_values(), ty.num_ops(), ty.num_responses());
    if nv == 0 || no == 0 {
        report.push(
            Diagnostic::new(
                "RCN001",
                Severity::Error,
                Locus::ty(&name),
                format!("type has {nv} values and {no} operations; both must be nonzero"),
            )
            .with_suggestion("a deterministic type needs at least one value and one operation"),
        );
        return;
    }
    for v in 0..nv {
        for op in 0..no {
            let (value, op) = (ValueId(v as u16), OpId(op as u16));
            let vn = ty.value_name(value);
            let on = ty.op_name(op);
            match silent_catch(|| ty.apply(value, op)) {
                Err(panic) => report.push(
                    Diagnostic::new(
                        "RCN001",
                        Severity::Error,
                        Locus::cell(&name, &vn, &on),
                        format!("apply({vn}, {on}) panicked: {panic}"),
                    )
                    .with_suggestion("apply must be total for all in-range values and ops"),
                ),
                Ok(out) => {
                    if out.next.index() >= nv {
                        report.push(
                            Diagnostic::new(
                                "RCN001",
                                Severity::Error,
                                Locus::cell(&name, &vn, &on),
                                format!(
                                    "outcome of {on} on {vn} targets out-of-range value {} \
                                     (type has {nv} values)",
                                    out.next
                                ),
                            )
                            .with_suggestion("keep next-value ids below num_values"),
                        );
                    }
                    if out.response.index() >= nr {
                        report.push(
                            Diagnostic::new(
                                "RCN001",
                                Severity::Error,
                                Locus::cell(&name, &vn, &on),
                                format!(
                                    "outcome of {on} on {vn} returns out-of-range response {} \
                                     (type has {nr} responses)",
                                    out.response
                                ),
                            )
                            .with_suggestion("keep response ids below num_responses"),
                        );
                    }
                }
            }
        }
    }
}

/// `RCN002` — every value should be reachable from a plausible initial
/// value.
///
/// The deciders enumerate instances over initial values; a value that no
/// source value can ever reach is dead weight that inflates the search
/// space without affecting any consensus number. Source values (values no
/// other value transitions into) are the only plausible initial values; if
/// every value has a predecessor, reachability is checked from `v0` (the
/// zoo's conventional initial value).
pub(crate) fn unreachable_values(ty: &dyn ObjectType, report: &mut Report) {
    let Some(t) = Table::capture(ty) else { return };
    // In-degree from *distinct* values: sources have none.
    let mut has_pred = vec![false; t.num_values];
    for (v, row) in t.cells.iter().enumerate() {
        for out in row {
            if out.next.index() != v {
                has_pred[out.next.index()] = true;
            }
        }
    }
    let mut frontier: Vec<usize> = (0..t.num_values).filter(|&v| !has_pred[v]).collect();
    if frontier.is_empty() {
        frontier.push(0); // every value is in a cycle: start from v0
    }
    let starts = frontier.clone();
    let mut reached = vec![false; t.num_values];
    for &s in &frontier {
        reached[s] = true;
    }
    while let Some(v) = frontier.pop() {
        for out in &t.cells[v] {
            if !reached[out.next.index()] {
                reached[out.next.index()] = true;
                frontier.push(out.next.index());
            }
        }
    }
    let start_names: Vec<String> = starts
        .iter()
        .map(|&v| ty.value_name(ValueId(v as u16)))
        .collect();
    for (v, seen) in reached.iter().enumerate().take(t.num_values) {
        if !seen {
            let vn = ty.value_name(ValueId(v as u16));
            report.push(
                Diagnostic::new(
                    "RCN002",
                    Severity::Warn,
                    Locus::value(&t.name, &vn),
                    format!(
                        "value {vn} is unreachable from every candidate initial value \
                         ({})",
                        start_names.join(", ")
                    ),
                )
                .with_suggestion(
                    "remove the value, or add a transition that reaches it; \
                     unreachable values only inflate the decider instance space",
                ),
            );
        }
    }
}

/// `RCN003` — declared responses should be live.
///
/// A response id that no `(value, op)` cell ever returns cannot occur in
/// any execution; it is legal (the paper's `T_{n,n'}` deliberately
/// oversizes its `op_R` value-report space) but worth surfacing, because
/// the discerning/recording analyses size their per-response structures by
/// `num_responses`.
pub(crate) fn dead_responses(ty: &dyn ObjectType, report: &mut Report) {
    let Some(t) = Table::capture(ty) else { return };
    let mut live = vec![false; t.num_responses];
    for row in &t.cells {
        for out in row {
            live[out.response.index()] = true;
        }
    }
    let dead: Vec<String> = (0..t.num_responses)
        .filter(|&r| !live[r])
        .map(|r| ty.response_name(rcn_spec::Response(r as u16)))
        .collect();
    if !dead.is_empty() {
        report.push(
            Diagnostic::new(
                "RCN003",
                Severity::Info,
                Locus::response(&t.name, dead.join(", ")),
                format!(
                    "{} of {} declared responses are never returned: {}",
                    dead.len(),
                    t.num_responses,
                    dead.join(", ")
                ),
            )
            .with_suggestion("shrink num_responses if the gap is unintentional"),
        );
    }
}

/// `RCN004` — operations should be pairwise distinguishable.
///
/// Two operations with identical columns (same response and same next
/// value on every value) are the *same* operation twice; they cannot
/// change any consensus number, but they multiply the decider's
/// op-multiset instance space. Info, not warn: legitimate full-grid
/// families contain duplicates by construction (every `cas(v,v)` of
/// compare-and-swap is the read).
pub(crate) fn duplicate_ops(ty: &dyn ObjectType, report: &mut Report) {
    let Some(t) = Table::capture(ty) else { return };
    for j in 1..t.num_ops {
        for i in 0..j {
            if (0..t.num_values).all(|v| t.cells[v][i] == t.cells[v][j]) {
                let (oi, oj) = (ty.op_name(OpId(i as u16)), ty.op_name(OpId(j as u16)));
                report.push(
                    Diagnostic::new(
                        "RCN004",
                        Severity::Info,
                        Locus::op(&t.name, &oj),
                        format!(
                            "operation {oj} is indistinguishable from {oi}: identical \
                             response and next value on every value"
                        ),
                    )
                    .with_suggestion(
                        "drop one duplicate; it cannot affect consensus numbers but \
                         inflates every op-multiset enumeration",
                    ),
                );
                break; // one report per duplicated op
            }
        }
    }
}

/// `RCN005` — readability certification (Theorem 14's hypothesis).
///
/// The paper's robustness theorem holds for deterministic *readable*
/// types. This lint certifies readability with an explicit witness (the
/// read operation and its value↦response table) or refutes it with, per
/// operation, a concrete mutation or an indistinguishable value pair.
pub(crate) fn readability(ty: &dyn ObjectType, report: &mut Report) {
    let Some(t) = Table::capture(ty) else { return };
    // A read op: never mutates, responses injective on values.
    for op in 0..t.num_ops {
        if (0..t.num_values).all(|v| t.cells[v][op].next.index() == v) {
            let mut seen = vec![None; t.num_responses];
            let injective = (0..t.num_values).all(|v| {
                let r = t.cells[v][op].response.index();
                seen[r].replace(v).is_none()
            });
            if injective {
                let on = ty.op_name(OpId(op as u16));
                let witness: Vec<String> = (0..t.num_values)
                    .map(|v| {
                        format!(
                            "{}↦{}",
                            ty.value_name(ValueId(v as u16)),
                            ty.response_name(t.cells[v][op].response)
                        )
                    })
                    .collect();
                report.push(Diagnostic::new(
                    "RCN005",
                    Severity::Info,
                    Locus::op(&t.name, &on),
                    format!(
                        "certified readable: {on} never mutates and identifies every \
                         value ({})",
                        witness.join(", ")
                    ),
                ));
                return;
            }
        }
    }
    // Not readable: refute each operation with a concrete obstruction.
    let mut reasons = Vec::new();
    for op in 0..t.num_ops.min(4) {
        let on = ty.op_name(OpId(op as u16));
        if let Some(v) = (0..t.num_values).find(|&v| t.cells[v][op].next.index() != v) {
            reasons.push(format!(
                "{on} mutates {}→{}",
                ty.value_name(ValueId(v as u16)),
                ty.value_name(t.cells[v][op].next)
            ));
            continue;
        }
        let mut by_resp = vec![None; t.num_responses];
        for v in 0..t.num_values {
            let r = t.cells[v][op].response.index();
            if let Some(w) = by_resp[r].replace(v) {
                reasons.push(format!(
                    "{on} cannot distinguish {} from {} (both return {})",
                    ty.value_name(ValueId(w as u16)),
                    ty.value_name(ValueId(v as u16)),
                    ty.response_name(t.cells[v][op].response)
                ));
                break;
            }
        }
    }
    if t.num_ops > 4 {
        reasons.push(format!("… and {} more operations", t.num_ops - 4));
    }
    report.push(
        Diagnostic::new(
            "RCN005",
            Severity::Info,
            Locus::ty(&t.name),
            format!("not readable: {}", reasons.join("; ")),
        )
        .with_suggestion(
            "Theorem 14 (RCN = recording number) does not apply; use the deciders' \
             recording bound directly, or augment the type with +read",
        ),
    );
}

/// `RCN006` — crash-idempotent operations.
///
/// In the individual-crash model a restarted process may re-apply its last
/// operation. Operations that are idempotent on values (`f(f(v)) = f(v)`)
/// cannot push the object further on re-application — the structural
/// property that makes crash-retry benign in Golab-style arguments.
pub(crate) fn idempotent_ops(ty: &dyn ObjectType, report: &mut Report) {
    let Some(t) = Table::capture(ty) else { return };
    let mut fully = Vec::new();
    let mut value_only = Vec::new();
    for op in 0..t.num_ops {
        let idem_values = (0..t.num_values).all(|v| {
            let once = t.cells[v][op];
            t.cells[once.next.index()][op].next == once.next
        });
        if !idem_values {
            continue;
        }
        let idem_responses = (0..t.num_values).all(|v| {
            let once = t.cells[v][op];
            t.cells[once.next.index()][op].response == once.response
        });
        let on = ty.op_name(OpId(op as u16));
        if idem_responses {
            fully.push(on);
        } else {
            value_only.push(on);
        }
    }
    if !fully.is_empty() {
        report.push(Diagnostic::new(
            "RCN006",
            Severity::Info,
            Locus::ty(&t.name),
            format!(
                "crash-retry safe (idempotent in value and response): {}",
                fully.join(", ")
            ),
        ));
    }
    if !value_only.is_empty() {
        report.push(Diagnostic::new(
            "RCN006",
            Severity::Info,
            Locus::ty(&t.name),
            format!(
                "idempotent on values but not responses (re-application keeps the \
                 object, may answer differently): {}",
                value_only.join(", ")
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_spec::zoo::{BoundedQueue, Register, StickyBit, TestAndSet, Tnn};
    use rcn_spec::Response;

    fn run(lint: fn(&dyn ObjectType, &mut Report), ty: &dyn ObjectType) -> Report {
        let mut r = Report::new();
        lint(ty, &mut r);
        r
    }

    /// A type whose apply panics on one cell.
    struct Panicky;
    impl ObjectType for Panicky {
        fn name(&self) -> String {
            "panicky".into()
        }
        fn num_values(&self) -> usize {
            2
        }
        fn num_ops(&self) -> usize {
            1
        }
        fn num_responses(&self) -> usize {
            1
        }
        fn apply(&self, value: ValueId, _op: OpId) -> Outcome {
            assert!(value.index() == 0, "no spec for v1");
            Outcome::new(Response(0), ValueId(0))
        }
    }

    #[test]
    fn closedness_accepts_the_zoo_and_flags_panics() {
        assert_eq!(run(closedness, &TestAndSet::new()).errors(), 0);
        assert_eq!(run(closedness, &Tnn::new(5, 2)).errors(), 0);
        let r = run(closedness, &Panicky);
        assert_eq!(r.errors(), 1);
        assert!(r.diagnostics[0].message.contains("panicked"));
    }

    #[test]
    fn unreachable_values_flags_isolated_value() {
        // 3 values, 1 op: v0 -> v0 (the only source); v1 <-> v2 feed each
        // other, so neither is a source, yet v0 reaches neither.
        let mut b = rcn_spec::TableType::builder("island", 3, 1, 1);
        b.set(0, 0, Outcome::new(Response(0), ValueId(0)));
        b.set(1, 0, Outcome::new(Response(0), ValueId(2)));
        b.set(2, 0, Outcome::new(Response(0), ValueId(1)));
        let t = b.build().unwrap();
        let r = run(unreachable_values, &t);
        assert_eq!(r.warnings(), 2);
        assert!(r.diagnostics[0].message.contains("unreachable"));
        // The zoo is clean.
        assert_eq!(run(unreachable_values, &StickyBit::new()).warnings(), 0);
        assert_eq!(run(unreachable_values, &Register::new(3)).warnings(), 0);
        assert_eq!(run(unreachable_values, &Tnn::new(5, 2)).warnings(), 0);
    }

    #[test]
    fn dead_responses_flags_gap_and_tnn_value_reports() {
        let mut b = rcn_spec::TableType::builder("gappy", 1, 1, 3);
        b.set(0, 0, Outcome::new(Response(2), ValueId(0)));
        let t = b.build().unwrap();
        let r = run(dead_responses, &t);
        assert_eq!(r.count(Severity::Info), 1);
        assert!(r.diagnostics[0].message.contains("never returned"));
        // T_{5,2} deliberately oversizes op_R's report space: info, not warn.
        let r = run(dead_responses, &Tnn::new(5, 2));
        assert_eq!(r.warnings(), 0);
    }

    #[test]
    fn duplicate_ops_flags_identical_columns() {
        let mut b = rcn_spec::TableType::builder("dup", 2, 2, 2);
        for v in 0..2u16 {
            for op in 0..2u16 {
                b.set(v, op, Outcome::new(Response(v), ValueId(v)));
            }
        }
        let t = b.build().unwrap();
        let r = run(duplicate_ops, &t);
        assert_eq!(r.count(Severity::Info), 1);
        assert!(r.diagnostics[0].message.contains("indistinguishable"));
        assert_eq!(
            run(duplicate_ops, &Register::new(3)).count(Severity::Info),
            0
        );
    }

    #[test]
    fn readability_certifies_and_refutes() {
        let r = run(readability, &TestAndSet::new());
        assert_eq!(r.count(Severity::Info), 1);
        assert!(r.diagnostics[0].message.contains("certified readable"));
        let r = run(readability, &BoundedQueue::new(2, 2));
        assert!(r.diagnostics[0].message.contains("not readable"));
        let r = run(readability, &Tnn::new(5, 2));
        assert!(r.diagnostics[0].message.contains("not readable"));
    }

    #[test]
    fn idempotence_covers_register_writes() {
        let r = run(idempotent_ops, &Register::new(2));
        let text = r.render_text();
        assert!(text.contains("crash-retry safe"));
    }
}
