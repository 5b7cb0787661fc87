//! The `testkit` binary rejects a misspelled flag with the usage exit code
//! instead of running with the default.

use std::process::Command;

#[test]
fn misspelled_flag_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_testkit"))
        .args(["soak", "--budgt", "1"])
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --budgt"), "{stderr}");
}
