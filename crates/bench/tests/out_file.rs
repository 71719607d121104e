//! `--out FILE` carries every document a multi-cell run prints with
//! `--json`, not only the last one.

use std::path::PathBuf;
use std::process::Command;

/// A path for one test's `--out` file, in Cargo's scratch directory for
/// integration tests.
fn out_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Run `bin` with `args` plus `--json --out FILE`, and return its stdout and
/// the file's contents.
fn stdout_and_file(bin: &str, args: &[&str], name: &str) -> (String, String) {
    let path = out_path(name);
    let output = Command::new(bin)
        .args(args)
        .args(["--json", "--out"])
        .arg(&path)
        .output()
        .expect("run the binary");
    assert!(output.status.code().is_some_and(|c| c < 2), "{output:?}");
    let file = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    (String::from_utf8(output.stdout).unwrap(), file)
}

/// Top-level JSON documents in `text`: each starts with `{` in column 0.
fn documents(text: &str) -> usize {
    text.lines().filter(|l| *l == "{").count()
}

#[test]
fn sanitize_out_holds_the_fixture_and_every_cell() {
    let args = ["--tool", "all", "--fixture", "global-race", "--app", "su3"];
    let args = [&args[..], &["--version", "ompx", "--test-scale"]].concat();
    let (stdout, file) = stdout_and_file(env!("CARGO_BIN_EXE_sanitize"), &args, "san.json");
    assert_eq!(documents(&stdout), 2, "{stdout}");
    assert_eq!(file, stdout);
}

#[test]
fn analyze_out_holds_every_cell() {
    let args = ["--app", "su3"];
    let (stdout, file) = stdout_and_file(env!("CARGO_BIN_EXE_analyze"), &args, "analyze.json");
    assert_eq!(documents(&stdout), 4, "{stdout}");
    assert_eq!(file, stdout);
}

#[test]
fn analyze_extract_out_holds_every_cell() {
    let args = ["extract", "--app", "su3"];
    let (stdout, file) = stdout_and_file(env!("CARGO_BIN_EXE_analyze"), &args, "extract.json");
    assert_eq!(documents(&stdout), 4, "{stdout}");
    assert_eq!(file, stdout);
}
