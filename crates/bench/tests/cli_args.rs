//! `train_case` and `subsample` refuse an argument they do not take with
//! exit status 2 and a first stderr line that names it, before any work.

use std::process::Command;

/// Runs `bin` with `args`, returning its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .env("SICKLE_LOG", "off")
        .env_remove("SICKLE_TRACE")
        .output()
        .expect("spawn");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_refused(bin: &str, args: &[&str], named: &str) {
    let (code, stderr) = run(bin, args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.contains(named), "{args:?}: first line {first:?}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
}

#[test]
fn train_case_names_the_refused_argument() {
    let bin = env!("CARGO_BIN_EXE_train_case");
    assert_refused(
        bin,
        &["--builtin", "Hrandom-Xfull-16", "--ranks", "2"],
        "'--ranks'",
    );
    assert_refused(bin, &["--ranks", "2"], "'--ranks'");
    assert_refused(bin, &["--builtin"], "'--builtin'");
}

#[test]
fn subsample_names_the_refused_argument() {
    let bin = env!("CARGO_BIN_EXE_subsample");
    let case = ["--builtin", "Hmaxent-Xmaxent-16"];
    assert_refused(bin, &[&case[..], &["--bogus"]].concat(), "'--bogus'");
    assert_refused(
        bin,
        &[&case[..], &["--output-dir"]].concat(),
        "'--output-dir'",
    );
}
