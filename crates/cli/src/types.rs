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
use rcn_spec::{ObjectType, TableType};
use std::fmt;
use std::sync::Arc;

/// A parsed, boxed type.
pub type DynType = Arc<dyn ObjectType + Send + Sync>;

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

fn args_of(spec: &str) -> (&str, Vec<usize>) {
    match spec.split_once(':') {
        None => (spec, Vec::new()),
        Some((name, rest)) => (
            name,
            rest.split(',')
                .filter_map(|a| a.trim().parse().ok())
                .collect(),
        ),
    }
}

/// Parses a type expression.
///
/// # Errors
///
/// Returns [`ParseTypeError`] for unknown names, bad arguments, or
/// unreadable table files.
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
    let (name, args) = args_of(spec);
    let arg = |i: usize, default: usize| args.get(i).copied().unwrap_or(default);
    let ty: DynType = match name {
        "register" | "reg" => Arc::new(Register::new(arg(0, 2))),
        "tas" | "test-and-set" => Arc::new(TestAndSet::new()),
        "faa" | "fetch-and-add" => Arc::new(FetchAndAdd::new(arg(0, 4))),
        "swap" => Arc::new(Swap::new(arg(0, 2))),
        "cas" | "compare-and-swap" => Arc::new(CompareAndSwap::new(arg(0, 3))),
        "sticky" | "sticky-bit" => Arc::new(StickyBit::new()),
        "consensus" => Arc::new(ConsensusObject::new()),
        "mconsensus" | "multi-consensus" => Arc::new(MultiConsensus::new(arg(0, 2))),
        "queue" => Arc::new(BoundedQueue::new(arg(0, 2), arg(1, 2))),
        "stack" => Arc::new(BoundedStack::new(arg(0, 2), arg(1, 2))),
        "tnn" => Arc::new(Tnn::new(arg(0, 5), arg(1, 2))),
        "team-counter" | "tc" => Arc::new(TeamCounter::new(arg(0, 4))),
        "xn" => {
            let n = arg(0, 4);
            return shipped_xn(n)
                .map(|x| Arc::new(x) as DynType)
                .ok_or_else(|| {
                    ParseTypeError::new(format!("no synthesized X_{n} is shipped (try xn:4)"))
                });
        }
        other => {
            return Err(ParseTypeError::new(format!(
                "unknown type `{other}` (run `rcn types` for the catalogue)"
            )))
        }
    };
    Ok(ty)
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
