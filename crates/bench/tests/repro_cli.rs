//! The `repro` binary's command line: experiment names from the one
//! `EXPERIMENTS` table, case-insensitive, run in the order given; anything
//! else prints the usage text and exits 2.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .unwrap()
}

/// Lines of the usage text that list one experiment each.
fn usage_lines(out: &Output) -> usize {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter(|l| l.starts_with("  e"))
        .count()
}

#[test]
fn no_arguments_or_an_unknown_name_print_the_usage_and_exit_2() {
    for args in [&[][..], &["e17"]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
        assert_eq!(usage_lines(&out), 16, "repro {args:?}");
        assert!(out.stdout.is_empty(), "repro {args:?}");
    }
}

#[test]
fn names_are_case_insensitive_and_run_in_the_order_given() {
    let out = repro(&["e15", "E16"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let headers: Vec<&str> = stdout.lines().filter(|l| l.starts_with("=== E")).collect();
    assert_eq!(headers.len(), 2, "{stdout}");
    assert!(headers[0].starts_with("=== E15:"), "{stdout}");
    assert!(headers[1].starts_with("=== E16:"), "{stdout}");
}
