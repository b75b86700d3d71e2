//! [`TableType`]: a finite deterministic type given by explicit tables.
//!
//! Any [`ObjectType`] with finitely many values and operations can be
//! represented as a table; this is the normal form the deciders and the
//! synthesis search operate on, and the form that serializes.

use crate::ids::{OpId, Outcome, Response, ValueId};
use crate::object_type::ObjectType;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors produced when constructing or validating a [`TableType`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeSpecError {
    /// The transition table has the wrong number of rows (one per value).
    WrongRowCount {
        /// Rows found.
        found: usize,
        /// Rows expected (the number of values).
        expected: usize,
    },
    /// A row has the wrong number of columns (one per operation).
    WrongColCount {
        /// The offending value (row).
        value: ValueId,
        /// Columns found.
        found: usize,
        /// Columns expected (the number of operations).
        expected: usize,
    },
    /// An outcome references a value outside `0..num_values`.
    ValueOutOfRange {
        /// The source value (row).
        value: ValueId,
        /// The operation (column).
        op: OpId,
        /// The out-of-range target value.
        target: ValueId,
    },
    /// An outcome references a response outside `0..num_responses`.
    ResponseOutOfRange {
        /// The source value (row).
        value: ValueId,
        /// The operation (column).
        op: OpId,
        /// The out-of-range response.
        response: Response,
    },
    /// The type has no values or no operations.
    Empty,
    /// A zoo constructor's parameters break its precondition (an empty
    /// domain, or `T_(n,n')` without `n > n' >= 1`); the message names it.
    BadParameters(String),
    /// A name list has the wrong length.
    WrongNameCount {
        /// Which list is wrong: `"value"`, `"op"`, or `"response"`.
        kind: &'static str,
        /// Names found.
        found: usize,
        /// Names expected.
        expected: usize,
    },
}

impl fmt::Display for TypeSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeSpecError::WrongRowCount { found, expected } => {
                write!(f, "transition table has {found} rows, expected {expected}")
            }
            TypeSpecError::WrongColCount {
                value,
                found,
                expected,
            } => write!(
                f,
                "row for {value} has {found} columns, expected {expected}"
            ),
            TypeSpecError::ValueOutOfRange { value, op, target } => {
                write!(
                    f,
                    "outcome of {op} on {value} targets out-of-range {target}"
                )
            }
            TypeSpecError::ResponseOutOfRange {
                value,
                op,
                response,
            } => write!(
                f,
                "outcome of {op} on {value} returns out-of-range {response}"
            ),
            TypeSpecError::Empty => {
                write!(f, "type must have at least one value and one operation")
            }
            TypeSpecError::BadParameters(message) => f.write_str(message),
            TypeSpecError::WrongNameCount {
                kind,
                found,
                expected,
            } => write!(
                f,
                "{kind} name list has {found} entries, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for TypeSpecError {}

/// A finite deterministic type represented by an explicit transition table.
///
/// Row `v`, column `op` of the table holds the [`Outcome`] of applying
/// operation `op` to an object with value `v`.
///
/// # Examples
///
/// Build a sticky bit by hand:
///
/// ```
/// use rcn_spec::{ObjectType, Outcome, Response, TableType, ValueId};
///
/// # fn main() -> Result<(), rcn_spec::TypeSpecError> {
/// let mut b = TableType::builder("sticky", 3, 2, 3);
/// // values: 0 = ⊥, 1 = stuck-0, 2 = stuck-1; ops: write0, write1
/// b.set(0, 0, Outcome::new(Response::new(1), ValueId::new(1)));
/// b.set(0, 1, Outcome::new(Response::new(2), ValueId::new(2)));
/// for v in 1..3u16 {
///     for op in 0..2u16 {
///         b.set(v, op, Outcome::new(Response::new(v), ValueId::new(v)));
///     }
/// }
/// let sticky = b.build()?;
/// assert_eq!(sticky.num_values(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableType {
    name: String,
    num_values: usize,
    num_ops: usize,
    num_responses: usize,
    /// `table[v][op]` = outcome of applying `op` to value `v`.
    table: Vec<Vec<Outcome>>,
    value_names: Vec<String>,
    op_names: Vec<String>,
    response_names: Vec<String>,
}

impl TableType {
    /// Starts a [`TableTypeBuilder`] with default (`v#`/`op#`/`r#`) names.
    pub fn builder(
        name: impl Into<String>,
        num_values: usize,
        num_ops: usize,
        num_responses: usize,
    ) -> TableTypeBuilder {
        TableTypeBuilder::new(name, num_values, num_ops, num_responses)
    }

    /// Converts any [`ObjectType`] into its table normal form, copying names.
    ///
    /// # Examples
    ///
    /// ```
    /// use rcn_spec::{zoo::TestAndSet, ObjectType, TableType};
    /// let t = TableType::from_type(&TestAndSet::new());
    /// assert_eq!(t.num_values(), TestAndSet::new().num_values());
    /// assert!(t.is_readable());
    /// ```
    pub fn from_type<T: ObjectType + ?Sized>(ty: &T) -> TableType {
        let num_values = ty.num_values();
        let num_ops = ty.num_ops();
        let num_responses = ty.num_responses();
        let mut table = Vec::with_capacity(num_values);
        for v in 0..num_values {
            let mut row = Vec::with_capacity(num_ops);
            for op in 0..num_ops {
                row.push(ty.apply(ValueId(v as u16), OpId(op as u16)));
            }
            table.push(row);
        }
        TableType {
            name: ty.name(),
            num_values,
            num_ops,
            num_responses,
            table,
            value_names: (0..num_values)
                .map(|v| ty.value_name(ValueId(v as u16)))
                .collect(),
            op_names: (0..num_ops).map(|o| ty.op_name(OpId(o as u16))).collect(),
            response_names: (0..num_responses)
                .map(|r| ty.response_name(Response(r as u16)))
                .collect(),
        }
    }

    /// Validates internal consistency (row/column counts, outcome ranges).
    ///
    /// # Errors
    ///
    /// Returns the first [`TypeSpecError`] found. A `TableType` built through
    /// [`TableTypeBuilder::build`] is always valid; this is useful after
    /// deserialization.
    pub fn validate(&self) -> Result<(), TypeSpecError> {
        if self.num_values == 0 || self.num_ops == 0 {
            return Err(TypeSpecError::Empty);
        }
        if self.table.len() != self.num_values {
            return Err(TypeSpecError::WrongRowCount {
                found: self.table.len(),
                expected: self.num_values,
            });
        }
        for (v, row) in self.table.iter().enumerate() {
            let value = ValueId(v as u16);
            if row.len() != self.num_ops {
                return Err(TypeSpecError::WrongColCount {
                    value,
                    found: row.len(),
                    expected: self.num_ops,
                });
            }
            for (op, out) in row.iter().enumerate() {
                let op = OpId(op as u16);
                if out.next.index() >= self.num_values {
                    return Err(TypeSpecError::ValueOutOfRange {
                        value,
                        op,
                        target: out.next,
                    });
                }
                if out.response.index() >= self.num_responses {
                    return Err(TypeSpecError::ResponseOutOfRange {
                        value,
                        op,
                        response: out.response,
                    });
                }
            }
        }
        for (kind, found, expected) in [
            ("value", self.value_names.len(), self.num_values),
            ("op", self.op_names.len(), self.num_ops),
            ("response", self.response_names.len(), self.num_responses),
        ] {
            if found != expected {
                return Err(TypeSpecError::WrongNameCount {
                    kind,
                    found,
                    expected,
                });
            }
        }
        Ok(())
    }
}

impl ObjectType for TableType {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn num_values(&self) -> usize {
        self.num_values
    }

    fn num_ops(&self) -> usize {
        self.num_ops
    }

    fn num_responses(&self) -> usize {
        self.num_responses
    }

    fn apply(&self, value: ValueId, op: OpId) -> Outcome {
        self.table[value.index()][op.index()]
    }

    fn value_name(&self, value: ValueId) -> String {
        self.value_names[value.index()].clone()
    }

    fn op_name(&self, op: OpId) -> String {
        self.op_names[op.index()].clone()
    }

    fn response_name(&self, response: Response) -> String {
        self.response_names[response.index()].clone()
    }
}

/// Incremental builder for [`TableType`].
///
/// Every `(value, op)` cell must be filled with [`set`](Self::set) before
/// [`build`](Self::build) succeeds; names are optional.
#[derive(Debug, Clone)]
pub struct TableTypeBuilder {
    name: String,
    num_values: usize,
    num_ops: usize,
    num_responses: usize,
    table: Vec<Vec<Option<Outcome>>>,
    value_names: Vec<String>,
    op_names: Vec<String>,
    response_names: Vec<String>,
}

impl TableTypeBuilder {
    /// Creates a builder for a type with the given dimensions.
    pub fn new(
        name: impl Into<String>,
        num_values: usize,
        num_ops: usize,
        num_responses: usize,
    ) -> Self {
        TableTypeBuilder {
            name: name.into(),
            num_values,
            num_ops,
            num_responses,
            table: vec![vec![None; num_ops]; num_values],
            value_names: (0..num_values).map(|v| format!("v{v}")).collect(),
            op_names: (0..num_ops).map(|o| format!("op{o}")).collect(),
            response_names: (0..num_responses).map(|r| format!("r{r}")).collect(),
        }
    }

    /// Sets the outcome of applying `op` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` or `op` is out of range.
    pub fn set(&mut self, value: u16, op: u16, outcome: Outcome) -> &mut Self {
        self.table[value as usize][op as usize] = Some(outcome);
        self
    }

    /// Names a value (for DOT output and reports).
    pub fn value_name(&mut self, value: u16, name: impl Into<String>) -> &mut Self {
        self.value_names[value as usize] = name.into();
        self
    }

    /// Names an operation.
    pub fn op_name(&mut self, op: u16, name: impl Into<String>) -> &mut Self {
        self.op_names[op as usize] = name.into();
        self
    }

    /// Names a response.
    pub fn response_name(&mut self, response: u16, name: impl Into<String>) -> &mut Self {
        self.response_names[response as usize] = name.into();
        self
    }

    /// Finishes the builder, validating the result.
    ///
    /// # Errors
    ///
    /// Returns [`TypeSpecError`] if a cell was never set, dimensions are
    /// empty, or an outcome is out of range. Unset cells are reported as
    /// [`TypeSpecError::WrongColCount`]-style errors via validation after
    /// defaulting; more precisely, this method reports the first missing cell
    /// as a [`TypeSpecError::ValueOutOfRange`] with the cell's coordinates.
    pub fn build(&self) -> Result<TableType, TypeSpecError> {
        if self.num_values == 0 || self.num_ops == 0 {
            return Err(TypeSpecError::Empty);
        }
        let mut table = Vec::with_capacity(self.num_values);
        for (v, row) in self.table.iter().enumerate() {
            let mut out_row = Vec::with_capacity(self.num_ops);
            for (op, cell) in row.iter().enumerate() {
                match cell {
                    Some(out) => out_row.push(*out),
                    None => {
                        return Err(TypeSpecError::ValueOutOfRange {
                            value: ValueId(v as u16),
                            op: OpId(op as u16),
                            target: ValueId(u16::MAX),
                        })
                    }
                }
            }
            table.push(out_row);
        }
        let ty = TableType {
            name: self.name.clone(),
            num_values: self.num_values,
            num_ops: self.num_ops,
            num_responses: self.num_responses,
            table,
            value_names: self.value_names.clone(),
            op_names: self.op_names.clone(),
            response_names: self.response_names.clone(),
        };
        ty.validate()?;
        Ok(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TableType {
        let mut b = TableType::builder("tiny", 2, 1, 2);
        b.set(0, 0, Outcome::new(Response(0), ValueId(1)));
        b.set(1, 0, Outcome::new(Response(1), ValueId(1)));
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_valid_table() {
        let t = tiny();
        assert!(t.validate().is_ok());
        assert_eq!(
            t.apply(ValueId(0), OpId(0)),
            Outcome::new(Response(0), ValueId(1))
        );
    }

    #[test]
    fn missing_cell_is_an_error() {
        let b = TableType::builder("partial", 2, 1, 1);
        assert!(b.build().is_err());
    }

    #[test]
    fn empty_type_is_rejected() {
        let b = TableType::builder("empty", 0, 0, 0);
        assert_eq!(b.build().unwrap_err(), TypeSpecError::Empty);
    }

    #[test]
    fn out_of_range_target_is_rejected() {
        let mut b = TableType::builder("bad", 1, 1, 1);
        b.set(0, 0, Outcome::new(Response(0), ValueId(5)));
        match b.build().unwrap_err() {
            TypeSpecError::ValueOutOfRange { target, .. } => assert_eq!(target, ValueId(5)),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn out_of_range_response_is_rejected() {
        let mut b = TableType::builder("bad", 1, 1, 1);
        b.set(0, 0, Outcome::new(Response(9), ValueId(0)));
        match b.build().unwrap_err() {
            TypeSpecError::ResponseOutOfRange { response, .. } => assert_eq!(response, Response(9)),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn names_are_preserved() {
        let mut b = TableType::builder("named", 1, 1, 1);
        b.set(0, 0, Outcome::new(Response(0), ValueId(0)));
        b.value_name(0, "s");
        b.op_name(0, "noop");
        b.response_name(0, "ack");
        let t = b.build().unwrap();
        assert_eq!(t.value_name(ValueId(0)), "s");
        assert_eq!(t.op_name(OpId(0)), "noop");
        assert_eq!(t.response_name(Response(0)), "ack");
    }

    #[test]
    fn from_type_round_trips_behaviour() {
        let t = tiny();
        let t2 = TableType::from_type(&t);
        assert_eq!(t, t2);
    }

    #[test]
    fn serde_json_round_trip() {
        let t = tiny();
        let json = serde_json::to_string(&t).unwrap();
        let back: TableType = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
        assert!(back.validate().is_ok());
    }

    #[test]
    fn error_display_is_informative() {
        let err = TypeSpecError::WrongRowCount {
            found: 1,
            expected: 2,
        };
        assert!(err.to_string().contains("1 rows"));
    }
}
