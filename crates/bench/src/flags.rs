//! The flag parser of every bench bin that writes a `BENCH_*.json`
//! (`compute`, `infer`, `train`, `eco`, `rcsim`, `loadgen`), of
//! `obs-trace`, and of [`ExperimentConfig::from_args`], which the
//! `table*`, `fig*`, `ablation`, `runtime_scaling` and
//! `clocktree_study` bins use.
//!
//! A bin declares each flag once, in the call that reads it: its name,
//! its default and one line of help. A flag's value is the next
//! argument, which may not start with `--`; a flag given twice keeps
//! its last value. [`Flags::finish`] then prints the usage and exits 2
//! on an unknown flag, a stray argument, or a value that is missing or
//! does not parse, naming the flag; `--help` or `-h` prints the usage
//! and exits 0.
//!
//! [`ExperimentConfig::from_args`]: crate::ExperimentConfig::from_args

use std::fmt::{Display, Write as _};
use std::str::FromStr;

/// A bin's arguments, read flag by flag.
pub struct Flags {
    args: Vec<String>,
    /// Whether a declared flag read each argument.
    read: Vec<bool>,
    usage: String,
    errors: Vec<String>,
}

impl Flags {
    /// The process's arguments after the program name.
    pub fn from_env(about: &str) -> Flags {
        Flags::new(about, std::env::args().skip(1))
    }

    /// `args`, for a bin described by `about` in the usage.
    pub fn new(about: &str, args: impl IntoIterator<Item = String>) -> Flags {
        let args: Vec<String> = args.into_iter().collect();
        Flags {
            read: vec![false; args.len()],
            args,
            usage: format!("{}: {about}\n", program()),
            errors: Vec::new(),
        }
    }

    /// A flag that takes a value: the value given, or `default`.
    pub fn value<T: FromStr + Display>(&mut self, name: &str, default: T, help: &str) -> T {
        self.declare(name, &format!("{help} (default {default})"));
        self.parse(name).unwrap_or(default)
    }

    /// A flag that takes a value and has no default.
    pub fn optional<T: FromStr>(&mut self, name: &str, help: &str) -> Option<T> {
        self.declare(name, help);
        self.parse(name)
    }

    /// A flag without a value: whether it was given.
    pub fn switch(&mut self, name: &str, help: &str) -> bool {
        self.declare(name, help);
        let mut given = false;
        for (arg, read) in self.args.iter().zip(&mut self.read) {
            if arg == name {
                *read = true;
                given = true;
            }
        }
        given
    }

    /// Records `message` as an error unless `ok`: a rule that ties
    /// flags together.
    pub fn require(&mut self, ok: bool, message: &str) {
        if !ok {
            self.errors.push(message.to_string());
        }
    }

    /// Ends parsing: prints the usage and exits 0 on `--help`, or
    /// prints the errors and the usage and exits 2 on any error.
    pub fn finish(self) {
        if self.args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        if let Err(errors) = self.check() {
            let bin = program();
            for error in errors.lines() {
                eprintln!("{bin}: {error}");
            }
            eprintln!("\n{}", self.usage);
            std::process::exit(2);
        }
    }

    /// Every error found: a bad value, a broken rule, then each
    /// argument no declared flag read.
    fn check(&self) -> Result<(), String> {
        let mut errors = self.errors.clone();
        for (arg, _) in self.args.iter().zip(&self.read).filter(|(_, read)| !**read) {
            errors.push(if arg.starts_with("--") {
                format!("unknown flag `{arg}`")
            } else {
                format!("unexpected argument `{arg}`")
            });
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("\n"))
        }
    }

    fn declare(&mut self, name: &str, help: &str) {
        let _ = write!(self.usage, "\n  {name:<20} {help}");
    }

    /// The last value given to `name`, parsed; `None` when absent or
    /// when an error was recorded.
    fn parse<T: FromStr>(&mut self, name: &str) -> Option<T> {
        let mut raw = None;
        for i in 0..self.args.len() {
            if self.args[i] != name {
                continue;
            }
            self.read[i] = true;
            match self.args.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(v) => {
                    self.read[i + 1] = true;
                    raw = Some(v.clone());
                }
                None => {
                    self.errors.push(format!("`{name}` needs a value"));
                    return None;
                }
            }
        }
        let raw = raw?;
        match raw.parse() {
            Ok(v) => Some(v),
            Err(_) => {
                self.errors.push(format!("`{name}` cannot take `{raw}`"));
                None
            }
        }
    }
}

/// The running program's file name, which prefixes its messages.
pub(crate) fn program() -> String {
    let argv0 = std::env::args().next().unwrap_or_default();
    let name = std::path::Path::new(&argv0).file_name();
    name.map_or(argv0.clone(), |n| n.to_string_lossy().into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new("test bin", args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn declared_defaults_apply() {
        let mut f = flags(&["--seed", "5"]);
        assert_eq!(f.value("--steps", 30usize, "workload scale"), 30);
        assert_eq!(f.value("--seed", 2023u64, "seed"), 5);
        assert_eq!(f.optional::<String>("--url", "target"), None);
        assert!(!f.switch("--smoke", "small run"));
        assert_eq!(f.check(), Ok(()));
        assert!(f.usage.contains("--steps"), "{}", f.usage);
        assert!(
            f.usage.contains("workload scale (default 30)"),
            "{}",
            f.usage
        );
    }

    #[test]
    fn values_switches_and_repeats() {
        let mut f = flags(&[
            "--smoke", "--out", "a.json", "--rate", "2.5", "--out", "b.json",
        ]);
        assert!(f.switch("--smoke", ""));
        assert_eq!(f.value("--out", String::from("x"), ""), "b.json");
        assert_eq!(f.optional::<f64>("--rate", ""), Some(2.5));
        assert_eq!(f.check(), Ok(()));
    }

    #[test]
    fn unknown_flag_is_an_error_naming_it() {
        let mut f = flags(&["--bogus", "7", "--steps", "3"]);
        assert_eq!(f.value("--steps", 30usize, ""), 3);
        let err = f.check().unwrap_err();
        assert!(err.contains("unknown flag `--bogus`"), "{err}");
        assert!(err.contains("unexpected argument `7`"), "{err}");
    }

    #[test]
    fn malformed_value_is_an_error_naming_the_flag() {
        let mut f = flags(&["--steps", "abc", "--scale", "0.001"]);
        assert_eq!(f.value("--steps", 30usize, ""), 30);
        assert_eq!(f.value("--scale", 4e-4, ""), 0.001);
        let err = f.check().unwrap_err();
        assert!(err.contains("`--steps` cannot take `abc`"), "{err}");
        assert!(!err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn missing_value_is_an_error_naming_the_flag() {
        for args in [&["--out"][..], &["--out", "--smoke"]] {
            let mut f = flags(args);
            f.switch("--smoke", "");
            assert_eq!(f.optional::<String>("--out", ""), None);
            assert_eq!(f.check(), Err("`--out` needs a value".to_string()));
        }
    }

    #[test]
    fn a_broken_rule_is_an_error() {
        let mut f = flags(&[]);
        f.require(false, "supply --input or --url");
        assert_eq!(f.check(), Err("supply --input or --url".to_string()));
    }
}
