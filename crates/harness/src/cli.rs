//! A tiny flag parser shared by the command-line binaries.
//!
//! The bins historically took positional arguments (`table4 1066 3
//! ppc604`); the harness adds flags (`--workers 8 --artifact t4.jsonl
//! --resume`). Each binary declares its command line once, as the usage
//! text of a [`Cli`]. Anything the text does not declare is an error
//! that names the argument, so a mistyped flag never runs silently on a
//! default, and `--help` (or `-h`) prints that same text.

use std::collections::{HashMap, HashSet};
use std::process::ExitCode;
use std::str::FromStr;

/// A binary's command line, declared by its usage text alone.
///
/// Each line of `usage` indented by exactly two spaces declares one
/// argument, and its description follows after two or more spaces:
///
/// * `--name WORD` (one space before the placeholder) is a flag that
///   takes a value, given as `--name value` or `--name=value`;
/// * `--name` alone is a switch;
/// * an all-caps word such as `NUM_LOOPS` is a positional argument.
///
/// Other lines (the synopsis, `-h, --help`, deeper-indented
/// continuations) declare nothing.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// The binary's name, prefixed to error messages.
    pub name: &'static str,
    /// The usage text: the declaration, and what `--help` prints.
    pub usage: &'static str,
}

/// One argument a usage line declares.
enum Decl {
    /// `--name`, and whether it takes a value.
    Flag(&'static str, bool),
    Positional,
}

impl Cli {
    fn declared(&self) -> impl Iterator<Item = Decl> {
        self.usage.lines().filter_map(|line| {
            let decl = line
                .strip_prefix("  ")
                .filter(|d| d.starts_with(|c: char| !c.is_whitespace()))?;
            let head = decl.split_once("  ").map_or(decl, |(head, _)| head);
            if let Some(flag) = head.strip_prefix("--") {
                Some(match flag.split_once(' ') {
                    Some((name, _)) => Decl::Flag(name, true),
                    None => Decl::Flag(flag, false),
                })
            } else if head.bytes().all(|b| b.is_ascii_uppercase() || b == b'_') {
                Some(Decl::Positional)
            } else {
                None
            }
        })
    }

    /// Whether `--name` is declared, and if so whether it takes a value.
    fn takes_value(&self, name: &str) -> Option<bool> {
        self.declared().find_map(|d| match d {
            Decl::Flag(n, value) if n == name => Some(value),
            _ => None,
        })
    }

    /// Parses `args` (without the program name). `Ok(None)` means that
    /// `--help` or `-h` was given.
    ///
    /// # Errors
    ///
    /// A message naming the offending argument: an undeclared flag, a
    /// flag with no value, a switch given a value, a repeated flag, or
    /// one positional argument too many.
    pub fn parse<I>(&self, args: I) -> Result<Option<Flags>, String>
    where
        I: IntoIterator<Item = String>,
    {
        let positionals = self
            .declared()
            .filter(|d| matches!(d, Decl::Positional))
            .count();
        let mut flags = Flags::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(None);
            }
            let Some(name) = arg.strip_prefix("--") else {
                if flags.positional.len() == positionals {
                    return Err(format!("unexpected argument `{arg}`"));
                }
                flags.positional.push(arg);
                continue;
            };
            let (key, inline) = match name.split_once('=') {
                Some((key, value)) => (key, Some(value.to_string())),
                None => (name, None),
            };
            let repeated = match (self.takes_value(key), inline) {
                (None, _) => return Err(format!("unknown flag --{key}")),
                (Some(false), Some(_)) => return Err(format!("flag --{key} takes no value")),
                (Some(false), None) => !flags.switches.insert(key.to_string()),
                (Some(true), inline) => {
                    let value = match inline {
                        Some(v) => v,
                        None => it
                            .next()
                            .ok_or_else(|| format!("flag --{key} expects a value"))?,
                    };
                    flags.named.insert(key.to_string(), value).is_some()
                }
            };
            if repeated {
                return Err(format!("flag --{key} given twice"));
            }
        }
        Ok(Some(flags))
    }

    /// Parses the process's arguments. `--help` prints the usage on
    /// stdout and exits 0; a usage error is printed on stderr with the
    /// binary's name, and the process exits 2.
    pub fn parse_env(&self) -> Flags {
        match self.parse(std::env::args().skip(1)) {
            Ok(Some(flags)) => flags,
            Ok(None) => {
                print!("{}", self.usage);
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("{}: {e} (see `{} --help`)", self.name, self.name);
                std::process::exit(2);
            }
        }
    }

    /// A binary's `main`: runs `body` on the parsed process arguments (see
    /// [`parse_env`](Self::parse_env)) and prints the error it returns,
    /// if any, with the binary's name, exiting 1.
    pub fn run(&self, body: impl FnOnce(&Flags) -> Result<ExitCode, String>) -> ExitCode {
        body(&self.parse_env()).unwrap_or_else(|e| {
            eprintln!("{}: {e}", self.name);
            ExitCode::FAILURE
        })
    }
}

/// Parsed command-line flags.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    positional: Vec<String>,
    named: HashMap<String, String>,
    switches: HashSet<String>,
}

impl Flags {
    /// The raw value of `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.named.get(name).map(String::as_str)
    }

    /// Parses `--name`'s value, falling back to `default` when absent.
    ///
    /// # Errors
    ///
    /// A message naming the flag when its value fails to parse.
    pub fn get_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse `{raw}`")),
        }
    }

    /// Whether the `--name` switch was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.contains(name)
    }

    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// Parses the `i`-th positional argument, falling back to `default`
    /// when absent.
    ///
    /// # Errors
    ///
    /// A message naming the position when its value fails to parse.
    pub fn positional_or<T: FromStr>(&self, i: usize, default: T) -> Result<T, String> {
        match self.positional(i) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("positional argument {i}: cannot parse `{raw}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLI: Cli = Cli {
        name: "t",
        usage: "\
usage: t [N] [M] [--workers N] [--artifact PATH] [--resume]

  N                the first positional
  M                the second, whose description
                   CONTINUES on the next line
  --workers N      a value flag
  --artifact PATH  a value flag whose description
                   --continues on the next line
  --resume         a switch
  -h, --help       print this help
",
    };

    fn parse(v: &[&str]) -> Result<Option<Flags>, String> {
        CLI.parse(v.iter().map(|s| s.to_string()))
    }

    fn flags(v: &[&str]) -> Flags {
        parse(v).expect("valid").expect("no --help")
    }

    #[test]
    fn mixes_positional_named_and_switches() {
        let f = flags(&[
            "64",
            "--workers",
            "4",
            "--resume",
            "3",
            "--artifact=t4.jsonl",
        ]);
        assert_eq!(f.positional(0), Some("64"));
        assert_eq!(f.positional(1), Some("3"));
        assert_eq!(f.get("workers"), Some("4"));
        assert_eq!(f.get("artifact"), Some("t4.jsonl"));
        assert!(f.has("resume"));
        assert_eq!(f.get_or("workers", 1usize), Ok(4));
        assert_eq!(f.get_or("loops", 7usize), Ok(7));
        assert_eq!(f.positional_or(0, 0usize), Ok(64));
        assert_eq!(f.positional_or(9, 5usize), Ok(5));
    }

    #[test]
    fn help_is_not_an_error_anywhere_on_the_line() {
        assert!(matches!(parse(&["--help"]), Ok(None)));
        assert!(matches!(parse(&["64", "-h", "--bogus"]), Ok(None)));
    }

    #[test]
    fn errors_name_the_offending_argument() {
        let err = |v: &[&str]| parse(v).expect_err("invalid");
        assert_eq!(err(&["--tick", "5"]), "unknown flag --tick");
        assert_eq!(err(&["--tick=5"]), "unknown flag --tick");
        assert_eq!(err(&["--workers"]), "flag --workers expects a value");
        assert_eq!(err(&["--resume=yes"]), "flag --resume takes no value");
        assert!(err(&["--workers", "1", "--workers=2"]).contains("twice"));
        assert!(err(&["--resume", "--resume"]).contains("twice"));
        assert_eq!(err(&["1", "2", "3"]), "unexpected argument `3`");
        assert_eq!(err(&["--continues"]), "unknown flag --continues");
        let bad = flags(&["--workers", "many"]).get_or("workers", 1usize);
        assert_eq!(bad, Err("flag --workers: cannot parse `many`".into()));
    }
}
