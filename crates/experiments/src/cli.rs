//! Flag-value helpers shared by the command-line binaries (`experiments`
//! and the `scrack_bench` reporters): a missing or malformed flag value
//! is a usage error that names the flag and exits with code 2.

use std::str::FromStr;

/// The operand of the flag just before `args[i]`: `args[i]` itself, or a
/// usage error (exit 2) naming `flag` when the command line ends first.
pub fn value_of<'a>(args: &'a [String], i: usize, flag: &str) -> &'a str {
    args.get(i).map(String::as_str).unwrap_or_else(|| {
        eprintln!("{flag} requires a value (try --help)");
        std::process::exit(2);
    })
}

/// The operand of `flag` parsed as a `T`, or a usage error (exit 2)
/// naming the flag when the value is missing or malformed.
pub fn parse_of<T: FromStr>(args: &[String], i: usize, flag: &str) -> T {
    parse_or_exit(flag, value_of(args, i, flag))
}

/// The operand of `flag` as a comma-separated list of `T`, with the
/// usage errors of [`parse_of`]; an empty item counts as malformed.
pub fn list_of<T: FromStr>(args: &[String], i: usize, flag: &str) -> Vec<T> {
    value_of(args, i, flag)
        .split(',')
        .map(|s| parse_or_exit(flag, s.trim()))
        .collect()
}

fn parse_or_exit<T: FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: malformed value {value:?} (try --help)");
        std::process::exit(2);
    })
}
