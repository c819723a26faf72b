//! Driver helpers for end-to-end CLI tests.
//!
//! The binary path comes from Cargo's `CARGO_BIN_EXE_<name>` environment
//! variable, which is only set while compiling the test targets of the
//! package that *owns* the binary — so the path cannot be resolved inside
//! this library crate. The [`dls_cli!`](crate::dls_cli!) macro expands `env!(...)` at the
//! caller's compile site instead; the run helpers then take any prepared
//! `Command`.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

/// Expands to a `std::process::Command` for the `dls-cli` binary. Only
/// usable from test targets of the package that defines the binary (the
/// facade crate's `tests/`).
#[macro_export]
macro_rules! dls_cli {
    () => {
        ::std::process::Command::new(env!("CARGO_BIN_EXE_dls-cli"))
    };
    ($($arg:expr),+ $(,)?) => {{
        let mut cmd = ::std::process::Command::new(env!("CARGO_BIN_EXE_dls-cli"));
        cmd.args([$($arg),+]);
        cmd
    }};
}

/// Runs the command, asserting success, and returns stdout as UTF-8.
#[track_caller]
pub fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("binary spawns");
    assert!(
        out.status.success(),
        "command failed ({}):\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

/// Runs the command with `input` piped to stdin, asserting success, and
/// returns stdout as UTF-8.
#[track_caller]
pub fn run_with_stdin(cmd: &mut Command, input: &str) -> String {
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("stdin accepts input");
    let out = child.wait_with_output().expect("binary runs");
    assert!(
        out.status.success(),
        "command failed ({}):\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

/// Runs the command, asserting that it exits with a *failure* status, and
/// returns the full output for message checks.
#[track_caller]
pub fn run_expect_fail(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("binary spawns");
    assert!(
        !out.status.success(),
        "command unexpectedly succeeded:\nstdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    out
}

/// Parses JSON text into the vendored `serde` value tree (handy for
/// asserting on CLI JSON output without declaring ad-hoc structs).
#[track_caller]
pub fn parse_json(s: &str) -> serde_json::Value {
    serde_json::from_str_value(s).expect("valid JSON")
}

/// A scratch directory under the target-adjacent temp root, unique per test
/// name, created on first use.
pub fn scratch_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dls-testkit-{test}"));
    std::fs::create_dir_all(&dir).expect("scratch dir creatable");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_ok_captures_stdout() {
        let out = run_ok(Command::new("echo").arg("hello"));
        assert_eq!(out.trim(), "hello");
    }

    #[test]
    fn run_expect_fail_accepts_failure() {
        let out = run_expect_fail(&mut Command::new("false"));
        assert!(!out.status.success());
    }

    #[test]
    fn parse_json_roundtrips() {
        let v = parse_json(r#"{"a": [1, 2.5, null]}"#);
        assert!(v.get("a").is_some());
    }
}
