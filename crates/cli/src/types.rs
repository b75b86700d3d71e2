//! Parsing of type expressions on the command line.
//!
//! Grammar: `name[:arg[,arg]]`, e.g. `register:3`, `tas`, `tnn:5,2`,
//! `cas:3`, `queue:2,3`, `team-counter:4`, `xn:4`, `+read` suffix to
//! augment with a read operation (`queue:2,2+read`).

use rcn_core::shipped_xn;
use rcn_spec::zoo::{
    BoundedQueue, BoundedStack, CompareAndSwap, ConsensusObject, FetchAndAdd, MultiConsensus,
    Register, StickyBit, Swap, TeamCounter, TestAndSet, Tnn, WithRead,
};
use rcn_spec::{ObjectType, TableType, TypeSpecError};
use std::fmt;
use std::sync::Arc;

/// A parsed type as the searches take it.
pub type DynObject = dyn ObjectType + Send + Sync;

/// A parsed, boxed type.
pub type DynType = Arc<DynObject>;

/// Errors from [`parse_type`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTypeError {
    message: String,
}

impl ParseTypeError {
    fn new(message: impl Into<String>) -> Self {
        ParseTypeError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ParseTypeError {}

/// The catalogue shown by `rcn types`.
pub const CATALOGUE: &[(&str, &str)] = &[
    (
        "register:D",
        "read/write register over D values (default 2)",
    ),
    ("tas", "test-and-set bit"),
    ("faa:M", "fetch-and-add modulo M (default 4)"),
    ("swap:D", "swap over D values (default 2)"),
    ("cas:D", "compare-and-swap over D values (default 3)"),
    ("sticky", "Plotkin sticky bit"),
    ("consensus", "binary consensus object"),
    ("mconsensus:D", "multi-valued consensus over D proposals"),
    (
        "queue:A,C",
        "bounded FIFO queue, alphabet A, capacity C (default 2,2)",
    ),
    ("stack:A,C", "bounded LIFO stack (default 2,2)"),
    ("tnn:N,N'", "the paper's T_{n,n'} (default 5,2)"),
    (
        "team-counter:N",
        "readable gap-1 family, CN N / RCN N-1 (default 4)",
    ),
    ("xn:N", "synthesized X_N reconstruction (shipped: N = 4)"),
    ("table:FILE", "a TableType from a JSON file"),
    (
        "<expr>+read",
        "augment any of the above with a read operation",
    ),
];

impl From<TypeSpecError> for ParseTypeError {
    fn from(e: TypeSpecError) -> Self {
        ParseTypeError::new(e.to_string())
    }
}

/// A `name[:a,b,…]` expression split into its name and numeric arguments.
struct Expr<'a> {
    name: &'a str,
    args: Vec<usize>,
}

impl<'a> Expr<'a> {
    /// Splits `spec`, rejecting any argument that is not a number.
    fn parse(spec: &'a str) -> Result<Self, ParseTypeError> {
        let Some((name, rest)) = spec.split_once(':') else {
            return Ok(Expr {
                name: spec,
                args: Vec::new(),
            });
        };
        let number = |a: &str| {
            a.trim().parse().map_err(|_| {
                ParseTypeError::new(format!(
                    "bad argument `{a}` in `{spec}` (expected a number)"
                ))
            })
        };
        let args = rest.split(',').map(number).collect::<Result<_, _>>()?;
        Ok(Expr { name, args })
    }

    /// Builds the type from its `N` arguments, `defaults` filling in the
    /// ones not given; more than `N` is an error.
    fn build<const N: usize, T: ObjectType + Send + Sync + 'static>(
        &self,
        defaults: [usize; N],
        make: impl FnOnce([usize; N]) -> Result<T, TypeSpecError>,
    ) -> Result<DynType, ParseTypeError> {
        if self.args.len() > N {
            return Err(ParseTypeError::new(format!(
                "`{}` takes at most {N} argument(s), got {}",
                self.name,
                self.args.len()
            )));
        }
        let mut args = defaults;
        args[..self.args.len()].copy_from_slice(&self.args);
        Ok(Arc::new(make(args)?))
    }
}

/// Parses a type expression.
///
/// # Errors
///
/// Returns [`ParseTypeError`] for unknown names, malformed, surplus or
/// out-of-range arguments, or unreadable table files.
pub fn parse_type(spec: &str) -> Result<DynType, ParseTypeError> {
    let spec = spec.trim();
    if let Some(inner) = spec.strip_suffix("+read") {
        let base = parse_type(inner)?;
        // WithRead is generic over a concrete type; go through the table
        // normal form to augment a dynamic one.
        let table = TableType::from_type(&*base);
        return Ok(Arc::new(WithRead::new(table)));
    }
    if let Some(path) = spec.strip_prefix("table:") {
        let json = std::fs::read_to_string(path)
            .map_err(|e| ParseTypeError::new(format!("cannot read {path}: {e}")))?;
        let table: TableType = serde_json::from_str(&json)
            .map_err(|e| ParseTypeError::new(format!("bad table JSON in {path}: {e}")))?;
        table
            .validate()
            .map_err(|e| ParseTypeError::new(format!("invalid table in {path}: {e}")))?;
        return Ok(Arc::new(table));
    }
    let expr = Expr::parse(spec)?;
    match expr.name {
        "register" | "reg" => expr.build([2], |[d]| Register::try_new(d)),
        "tas" | "test-and-set" => expr.build([], |[]| Ok(TestAndSet::new())),
        "faa" | "fetch-and-add" => expr.build([4], |[m]| FetchAndAdd::try_new(m)),
        "swap" => expr.build([2], |[d]| Swap::try_new(d)),
        "cas" | "compare-and-swap" => expr.build([3], |[d]| CompareAndSwap::try_new(d)),
        "sticky" | "sticky-bit" => expr.build([], |[]| Ok(StickyBit::new())),
        "consensus" => expr.build([], |[]| Ok(ConsensusObject::new())),
        "mconsensus" | "multi-consensus" => expr.build([2], |[d]| MultiConsensus::try_new(d)),
        "queue" => expr.build([2, 2], |[a, c]| BoundedQueue::try_new(a, c)),
        "stack" => expr.build([2, 2], |[a, c]| BoundedStack::try_new(a, c)),
        "tnn" => expr.build([5, 2], |[n, n_prime]| Tnn::try_new(n, n_prime)),
        "team-counter" | "tc" => expr.build([4], |[n]| TeamCounter::try_new(n)),
        "xn" => expr.build([4], |[n]| {
            shipped_xn(n).ok_or_else(|| {
                TypeSpecError::BadParameters(format!("no synthesized X_{n} is shipped (try xn:4)"))
            })
        }),
        other => Err(ParseTypeError::new(format!(
            "unknown type `{other}` (run `rcn types` for the catalogue)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_catalogue_entry_with_defaults() {
        for spec in [
            "register",
            "tas",
            "faa",
            "swap",
            "cas",
            "sticky",
            "consensus",
            "mconsensus",
            "queue",
            "stack",
            "tnn",
            "team-counter",
            "xn",
        ] {
            assert!(parse_type(spec).is_ok(), "{spec}");
        }
    }

    #[test]
    fn parses_arguments() {
        let t = parse_type("tnn:4,3").unwrap();
        assert_eq!(t.name(), "T_(4,3)");
        let t = parse_type("register:5").unwrap();
        assert_eq!(t.num_values(), 5);
        let t = parse_type("queue:2,3").unwrap();
        assert_eq!(t.name(), "queue<2,3>");
    }

    #[test]
    fn read_suffix_augments() {
        let t = parse_type("queue:2,2+read").unwrap();
        assert!(t.is_readable());
        assert!(t.name().ends_with("+read"));
    }

    #[test]
    fn unknown_types_error_helpfully() {
        let err = match parse_type("warp-drive") {
            Err(e) => e,
            Ok(_) => panic!("warp-drive must not parse"),
        };
        assert!(err.to_string().contains("unknown type"));
    }

    #[test]
    fn malformed_or_surplus_arguments_are_rejected() {
        // A bad or surplus argument must not fall back to a default.
        for spec in [
            "register:x",
            "tnn:4,zz",
            "faa:-3",
            "tas:5",
            "register:3,9,9",
            "register:",
            "sticky:1",
            "queue:2,2,2",
        ] {
            assert!(parse_type(spec).is_err(), "{spec} must not parse");
        }
        let err = parse_type("tnn:4,zz").err().unwrap().to_string();
        assert!(err.contains("bad argument `zz`"), "got: {err}");
        let err = parse_type("tas:5").err().unwrap().to_string();
        assert!(err.contains("at most 0 argument"), "got: {err}");
    }

    #[test]
    fn out_of_range_arguments_are_errors_not_panics() {
        for spec in [
            "faa:0",
            "cas:0",
            "register:0",
            "swap:0",
            "mconsensus:0",
            "team-counter:0",
            "team-counter:1",
            "tnn:0,0",
            "tnn:2,5",
            "queue:0,2",
            "stack:2,0",
        ] {
            assert!(parse_type(spec).is_err(), "{spec} must not parse");
        }
        let err = parse_type("tnn:0,0").err().unwrap().to_string();
        assert!(err.contains("requires n > n' >= 1"), "got: {err}");
    }

    #[test]
    fn missing_xn_errors() {
        assert!(parse_type("xn:7").is_err());
        assert!(parse_type("xn:4").is_ok());
    }

    #[test]
    fn table_file_round_trip() {
        let table = TableType::from_type(&TestAndSet::new());
        let path = crate::tests::scratch_path("test-table.json");
        std::fs::write(&path, serde_json::to_string(&table).unwrap()).unwrap();
        let parsed = parse_type(&format!("table:{}", path.display())).unwrap();
        assert_eq!(parsed.name(), "test-and-set");
        std::fs::remove_file(&path).ok();
    }
}
