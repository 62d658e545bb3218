//! The one flag grammar of every entry point in the workspace.
//!
//! A binary declares its flags in one table, one [`Flag`] row per flag
//! (name, value placeholder, one line of help), and calls [`parse`] before
//! it does anything else.  An argument takes one of two forms: `--name` for
//! a switch, `--name=value` for a value flag, where the value is everything
//! after the first `=`.  Anything else exits with status 2 and a message
//! naming the argument:
//!
//! * a name the table does not declare;
//! * a value flag without a value, or with an empty one;
//! * a value that does not parse as the row's type;
//! * a flag given twice;
//! * a switch given a value;
//! * a positional argument.
//!
//! `--help` and `-h` print the table and exit 0.

use std::fmt::Display;
use std::str::FromStr;

/// One row of a flag table.
pub struct Flag {
    /// The name, without the leading `--`.
    pub name: &'static str,
    /// The value placeholder `--help` shows; `None` for a switch.
    pub value: Option<&'static str>,
    /// One line of help.
    pub help: &'static str,
    /// Parses a value as the row's type, or says why it does not.
    check: fn(&str) -> Result<(), String>,
}

fn check<T: FromStr<Err: Display>>(value: &str) -> Result<(), String> {
    value.parse::<T>().map(drop).map_err(|e| e.to_string())
}

impl Flag {
    /// A switch: `--name`, with no value.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag { name, value: None, help, check: check::<String> }
    }

    /// A value flag: `--name=value`, where the value parses as `T`.
    pub const fn value<T: FromStr<Err: Display>>(
        name: &'static str,
        value: &'static str,
        help: &'static str,
    ) -> Flag {
        Flag { name, value: Some(value), help, check: check::<T> }
    }

    fn spelled(&self) -> String {
        format!("--{}{}", self.name, self.value.map_or(String::new(), |v| format!("={v}")))
    }
}

/// A comma-separated value, such as `--targets=1,5`.
pub struct List<T>(pub Vec<T>);

impl<T: FromStr<Err: Display>> FromStr for List<T> {
    type Err = String;

    fn from_str(s: &str) -> Result<List<T>, String> {
        let item = |part: &str| part.trim().parse().map_err(|e| format!("`{part}`: {e}"));
        s.split(',').map(item).collect::<Result<_, _>>().map(List)
    }
}

/// The flags of one command line, each checked against its row.
pub struct Args {
    table: &'static [Flag],
    given: Vec<(&'static str, String)>,
}

impl Args {
    fn given(&self, name: &str) -> Option<&str> {
        assert!(self.table.iter().any(|f| f.name == name), "`--{name}` is not in the flag table");
        self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// Was `--name` given?
    pub fn has(&self, name: &str) -> bool {
        self.given(name).is_some()
    }

    /// The value of `--name=value`, if given, as the row's type.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        self.given(name).map(|v| v.parse().ok().expect("value checked against its row"))
    }
}

/// Check `args` (the program name excluded) against `table`: the testable
/// core of [`parse`].  `Ok(None)` asks for the help.
///
/// # Errors
/// Returns the refusal, naming the first offending argument.
pub fn parse_from(args: Vec<String>, table: &'static [Flag]) -> Result<Option<Args>, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(None);
    }
    let mut given: Vec<(&'static str, String)> = Vec::new();
    for arg in &args {
        let Some(flag) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument `{arg}`: not a `--flag`"));
        };
        let (name, value) = flag.split_once('=').map_or((flag, None), |(n, v)| (n, Some(v)));
        let Some(row) = table.iter().find(|f| f.name == name) else {
            return Err(format!("unknown flag `--{name}`"));
        };
        if given.iter().any(|(n, _)| *n == name) {
            return Err(format!("flag `--{name}` given twice"));
        }
        match (row.value, value) {
            (None, Some(_)) => return Err(format!("switch `--{name}` takes no value")),
            (Some(_), None | Some("")) => {
                return Err(format!("flag `--{name}` needs a value: `{}`", row.spelled()));
            }
            (Some(placeholder), Some(v)) => (row.check)(v)
                .map_err(|e| format!("flag `--{name}`: bad {placeholder} `{v}`: {e}"))?,
            (None, None) => {}
        }
        given.push((row.name, value.unwrap_or_default().to_string()));
    }
    Ok(Some(Args { table, given }))
}

/// The `--help` text: a usage line, then one line per row.
pub fn help(program: &str, table: &[Flag]) -> String {
    let help_row = ("-h, --help".to_string(), "print this list and exit");
    let rows: Vec<_> = table.iter().map(|f| (f.spelled(), f.help)).chain([help_row]).collect();
    let width = rows.iter().map(|(s, _)| s.len()).max().unwrap_or(0);
    let lines = rows.iter().map(|(s, help)| format!("  {s:<width$}  {help}\n"));
    format!("usage: {program} [flags]\n\n{}", lines.collect::<String>())
}

fn program() -> String {
    let argv0 = std::env::args().next().unwrap_or_default();
    std::path::Path::new(&argv0).file_name().map_or(argv0.clone(), |n| n.to_string_lossy().into())
}

/// Print `message` after the program name and exit with status 2: the
/// refusal of a command line.
pub fn refuse(message: &str) -> ! {
    eprintln!("{}: {message}", program());
    std::process::exit(2)
}

/// Check the process's command line against `table`.  Prints the help and
/// exits 0 on `--help` or `-h`; refuses (exit 2) anything the grammar does
/// not accept.
pub fn parse(table: &'static [Flag]) -> Args {
    match parse_from(std::env::args().skip(1).collect(), table) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", help(&program(), table));
            std::process::exit(0)
        }
        Err(message) => refuse(&format!("{message} (see --help)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &[Flag] = &[
        Flag::switch("json", "print JSON"),
        Flag::value::<usize>("budget", "N", "test cases"),
        Flag::value::<String>("token", "TOKEN", "client token"),
        Flag::value::<List<u8>>("targets", "IDS", "target ids"),
    ];

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        parse_from(args.iter().map(|s| s.to_string()).collect(), TABLE)
    }

    fn run(args: &[&str]) -> Args {
        match parse(args) {
            Ok(Some(args)) => args,
            Ok(None) => panic!("{args:?} asked for help"),
            Err(e) => panic!("{args:?} refused: {e}"),
        }
    }

    fn refusal(args: &[&str]) -> String {
        match parse(args) {
            Err(e) => e,
            Ok(_) => panic!("{args:?} accepted"),
        }
    }

    #[test]
    fn accepts_both_forms() {
        let args = run(&["--json", "--budget=120", "--targets=1, 5"]);
        assert!(args.has("json"));
        assert_eq!(args.get::<usize>("budget"), Some(120));
        assert_eq!(args.get::<List<u8>>("targets").map(|l| l.0), Some(vec![1, 5]));
        assert!(!args.has("token"));
        assert_eq!(args.get::<String>("token"), None);
        assert!(!run(&[]).has("json"));
    }

    #[test]
    fn value_is_split_at_the_first_equals_sign() {
        assert_eq!(run(&["--token=a=b"]).get::<String>("token").as_deref(), Some("a=b"));
    }

    #[test]
    fn refusals_name_the_argument() {
        let cases: [(&[&str], &str); 9] = [
            (&["--jsno"], "unknown flag `--jsno`"),
            (&["--budget"], "flag `--budget` needs a value: `--budget=N`"),
            (&["--budget="], "flag `--budget` needs a value: `--budget=N`"),
            (&["--budget=3x"], "flag `--budget`: bad N `3x`"),
            (&["--targets=1,x"], "flag `--targets`: bad IDS `1,x`"),
            (&["--json", "--json"], "flag `--json` given twice"),
            (&["--budget=1", "--budget=2"], "flag `--budget` given twice"),
            (&["--json=yes"], "switch `--json` takes no value"),
            (&["300"], "unexpected argument `300`"),
        ];
        for (args, expected) in cases {
            let message = refusal(args);
            assert!(message.starts_with(expected), "{args:?}: {message}");
        }
        // The first offending argument is the one named.
        assert!(refusal(&["--token", "tokens.txt"]).contains("`--token`"));
        assert!(refusal(&["-x"]).contains("`-x`"));
    }

    #[test]
    fn help_wins_and_lists_every_row() {
        for args in [&["--help"][..], &["-h"], &["--jsno", "--help"]] {
            assert!(matches!(parse(args), Ok(None)), "{args:?}");
        }
        let text = help("demo", TABLE);
        assert!(text.starts_with("usage: demo [flags]\n"), "{text}");
        for spelling in ["--json ", "--budget=N ", "--token=TOKEN ", "--targets=IDS ", "-h, --help"] {
            assert!(text.contains(spelling), "{spelling} missing from\n{text}");
        }
    }

    #[test]
    #[should_panic(expected = "`--bugdet` is not in the flag table")]
    fn reading_an_undeclared_flag_is_a_bug() {
        run(&[]).get::<usize>("bugdet");
    }
}
