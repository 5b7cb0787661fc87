//! The `bench` and `figures` binaries reject a misspelled flag with the
//! usage exit code instead of running with the default.

use std::process::Command;

#[test]
fn misspelled_flag_is_a_usage_error() {
    for (bin, args, flag) in [
        (env!("CARGO_BIN_EXE_bench"), ["run", "--tinny"], "--tinny"),
        (
            env!("CARGO_BIN_EXE_figures"),
            ["fig4", "--scael"],
            "--scael",
        ),
    ] {
        let out = Command::new(bin).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{bin}: {stderr}"
        );
    }
}
