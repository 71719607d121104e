//! The harness binaries' command-line contract: a malformed command line
//! prints the usage text on stderr, nothing on stdout, and exits 2.

use std::process::{Command, Output};

/// Each binary with the arguments before its flags (a subcommand or app
/// positional) and a value flag it takes.
const BINS: [(&str, &str, &[&str], &str); 8] = [
    ("figures", env!("CARGO_BIN_EXE_figures"), &["fig8"], "--system"),
    ("hecbench", env!("CARGO_BIN_EXE_hecbench"), &["adam"], "--system"),
    ("profile", env!("CARGO_BIN_EXE_profile"), &[], "--system"),
    ("simspeed", env!("CARGO_BIN_EXE_simspeed"), &[], "--system"),
    ("sanitize", env!("CARGO_BIN_EXE_sanitize"), &[], "--system"),
    ("analyze", env!("CARGO_BIN_EXE_analyze"), &[], "--system"),
    ("chaos", env!("CARGO_BIN_EXE_chaos"), &[], "--system"),
    ("serve", env!("CARGO_BIN_EXE_serve"), &[], "--seed"),
];

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("harness binary starts")
}

fn assert_usage(name: &str, out: &Output) {
    assert_eq!(out.status.code(), Some(2), "{name}: {out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "{name}: {out:?}");
    assert!(out.stdout.is_empty(), "{name}: {out:?}");
}

#[test]
fn an_unknown_flag_prints_usage_and_exits_2() {
    for (name, exe, positional, _) in BINS {
        let args = [positional, &["--no-such-flag"]].concat();
        assert_usage(name, &run(exe, &args));
    }
}

#[test]
fn a_value_flag_without_its_value_prints_usage_and_exits_2() {
    for (name, exe, positional, flag) in BINS {
        let args = [positional, &[flag]].concat();
        assert_usage(name, &run(exe, &args));
    }
}

#[test]
fn figures_csv_checks_the_subcommand_before_writing() {
    let path = format!("{}/figures_bogus.csv", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::remove_file(&path);
    let (_, exe, _, _) = BINS[0];
    for sub in ["bogus", "fig6", "all"] {
        assert_usage("figures", &run(exe, &[sub, "--csv", &path]));
        assert!(!std::path::Path::new(&path).exists(), "figures {sub} --csv wrote {path}");
    }
}

#[test]
fn serve_rejects_output_flags_its_mode_does_not_write() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let (_, exe, _, _) = BINS[7];
    for (mode, flag) in [
        (Some("--sweep"), "--metrics-out"),
        (Some("--sweep"), "--metrics-json"),
        (Some("--escalate"), "--metrics-out"),
        (Some("--escalate"), "--metrics-json"),
        (Some("--sweep"), "--trace"),
        (Some("--escalate"), "--trace"),
        (None, "--csv-out"),
    ] {
        let path = format!("{dir}/serve_unwritten{}.out", flag.trim_start_matches('-'));
        let _ = std::fs::remove_file(&path);
        let args: Vec<&str> = mode.into_iter().chain([flag, path.as_str()]).collect();
        assert_usage("serve", &run(exe, &args));
        assert!(!std::path::Path::new(&path).exists(), "serve {args:?} wrote {path}");
    }
}

#[test]
fn serve_rejects_mode_flags_it_would_ignore() {
    let (_, exe, _, _) = BINS[7];
    for args in [
        &["--sweep", "--escalate"][..],
        &["--sweep-factors", "0.5"],
        &["--escalate", "--sweep-factors", "0.5"],
        &["--multipliers", "1,2"],
        &["--sweep", "--multipliers", "1,2"],
    ] {
        assert_usage("serve", &run(exe, args));
    }
}
