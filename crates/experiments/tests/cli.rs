//! The `experiments` binary rejects a missing or malformed flag value
//! with a usage error (exit 2) that names the flag, instead of panicking.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn the experiments binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn missing_flag_value_exits_2() {
    for flag in [
        "--n",
        "--queries",
        "--seed",
        "--out",
        "--kernel",
        "--update",
        "--threads",
        "--batch",
    ] {
        let (code, stderr) = run(&[flag]);
        assert_eq!(code, Some(2), "{flag}: stderr: {stderr}");
        assert!(
            stderr.contains(flag),
            "{flag}: stderr must name the flag: {stderr}"
        );
    }
}

#[test]
fn malformed_flag_value_exits_2() {
    for args in [["--n", "x"], ["--batch", "-1"], ["--threads", "1,x"]] {
        let (code, stderr) = run(&args);
        assert_eq!(code, Some(2), "{args:?}: stderr: {stderr}");
        assert!(
            stderr.contains(args[0]),
            "{args:?}: stderr must name the flag: {stderr}"
        );
    }
}
