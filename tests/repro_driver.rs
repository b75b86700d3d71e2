//! The `repro` driver's command line: an unknown experiment id is a usage
//! error (exit 2) that names the valid ids, and no experiment runs.

use std::process::Command;

#[test]
fn unknown_experiment_ids_are_usage_errors() {
    for args in [&["lemm16"][..], &["--experiment", "fig3"], &["fig3", "zo"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}: an experiment ran");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("unknown experiment"), "{args:?}: {stderr}");
        assert!(
            stderr.contains(
                "fig3, lemma15, lemma16, valency, hierarchy, xn, tas, zoo, universal, readability"
            ),
            "{args:?}: {stderr}"
        );
    }
}
