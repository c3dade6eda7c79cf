//! Command-line usage errors of the `repro` binary: a flag that takes a
//! value must never be silently ignored when the value is missing.

use std::process::Command;

/// Runs `repro` with `args` in a fresh directory (so no run can touch the
/// checked-in `BENCH_results.json`) and returns its exit code.
fn repro_exit_code(label: &str, args: &[&str]) -> Option<i32> {
    let dir = std::env::temp_dir().join(format!("lpo_repro_flags_{label}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    let _ = std::fs::remove_dir_all(&dir);
    output.status.code()
}

#[test]
fn value_less_flags_are_usage_errors() {
    let cases: [(&[&str], i32); 8] = [
        (&["table1"], 0),
        (&["table1", "--check-baseline"], 2),
        (&["table1", "--store"], 2),
        (&["table1", "--check-baseline", "--jobs", "1"], 2),
        (&["table1", "--store", "--resume"], 2),
        (&["table1", "--shard-size"], 2),
        (&["table1", "--jobs"], 2),
        // A path, but no section for the baseline's gates to check.
        (&["table1", "--check-baseline", "BENCH_baseline.json"], 2),
    ];
    for (i, (args, expected)) in cases.into_iter().enumerate() {
        let code = repro_exit_code(&i.to_string(), args);
        assert_eq!(code, Some(expected), "repro {}", args.join(" "));
    }
}
