//! The `repro` driver's command line: an unknown experiment id is a usage
//! error (exit 2) that names the valid ids, and no experiment runs. An
//! experiment prints the same bytes on every run.

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

/// Two runs of an experiment print the same bytes: E5's engine counts come
/// from one worker and its line carries no timing.
#[test]
fn repro_output_is_the_same_on_every_run() {
    let run = || {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("hierarchy")
            .output()
            .expect("repro runs");
        assert!(output.status.success(), "{output:?}");
        String::from_utf8(output.stdout).expect("utf-8 output")
    };
    assert_eq!(run(), run());
}
