//! The command-line surface every experiment binary shares: a flag
//! table in, an exit code out.
//!
//! A binary declares its flags as data — groups of [`Flag`]s, so the
//! common groups ([`common`], [`CAMPAIGN`], [`RSS_GATE`]) are declared
//! once — and [`parse`] turns an argument list into a [`Parsed`] set of
//! validated values or a one-line [`CliError`]. Nothing on this path
//! panics on user input: an unknown flag, a missing or unparsable value,
//! a value outside the declared domain and a repeated flag are all
//! errors, reported with the [`usage`] generated from the same table and
//! exit code 2 ([`parse_or_exit`]).
//!
//! [`Gates`] is the other half: every exit criterion a binary prints goes
//! through it, so a printed `NO` cannot fail to become exit code 1.

use crate::table::check;
use std::fmt;

/// What a flag accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A switch: present or absent, no value.
    Bool,
    /// An unsigned integer in `min..=max`. `default: None` makes the
    /// flag optional ([`Parsed::opt_u64`] reads `None` unless given).
    Int {
        /// Value when the flag is absent.
        default: Option<u64>,
        /// Smallest accepted value.
        min: u64,
        /// Largest accepted value.
        max: u64,
    },
    /// Free text (a path); empty when absent.
    Str,
    /// One of the listed labels; the first is the default.
    OneOf(&'static [&'static str]),
}

impl Kind {
    /// A `u64` flag accepting `min..`.
    pub const fn int(default: Option<u64>, min: u64) -> Kind {
        let max = u64::MAX;
        Kind::Int { default, min, max }
    }

    /// A flag read as `usize` ([`Parsed::usize`]), accepting `min..`.
    pub const fn size(default: Option<u64>, min: u64) -> Kind {
        let max = usize::MAX as u64;
        Kind::Int { default, min, max }
    }
}

/// One declared flag. A `name` starting with `--` is a named flag;
/// anything else (`SEEDS`) is an optional positional argument.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The spelling on the command line.
    pub name: &'static str,
    /// Value kind, domain and default.
    pub kind: Kind,
    /// One-line description for the usage text.
    pub help: &'static str,
}

impl Flag {
    /// Declares a flag.
    pub const fn new(name: &'static str, kind: Kind, help: &'static str) -> Flag {
        Flag { name, kind, help }
    }
}

/// A binary's flag table: groups of flags, in usage order.
pub type FlagTable = [&'static [Flag]];

/// The flags every grid binary takes; the default `--seed` is the one
/// value that differs between them.
#[rustfmt::skip]
pub const fn common(default_seed: u64) -> [Flag; 6] {
    [
        Flag::new("--quick", Kind::Bool, "shrink the sweep to CI-smoke size"),
        Flag::new("--threads", Kind::size(Some(0), 0), "worker threads (0 = all cores); never changes a report"),
        Flag::new("--seed", Kind::int(Some(default_seed), 0), "workload seed"),
        Flag::new("--payments", Kind::size(Some(0), 0), "payments per grid cell (0 = the mode's default)"),
        Flag::new("--json", Kind::Str, "write the machine-readable artifact to this file"),
        Flag::new("--telemetry", Kind::Str, "write the JSONL telemetry stream to this file"),
    ]
}

/// Campaign mode: stream `--campaign N` payments through the crash-safe
/// epoch runner instead of running the grid.
#[rustfmt::skip]
pub const CAMPAIGN: &[Flag] = &[
    Flag::new("--campaign", Kind::int(Some(0), 0), "stream this many payments as a campaign (0 = run the grid)"),
    Flag::new("--epoch", Kind::size(Some(50_000), 1), "payments per campaign epoch (checkpoint granularity)"),
    Flag::new("--resume", Kind::Str, "checkpoint file: rewritten after every epoch, resumed from if present"),
    Flag::new("--stop-after-epoch", Kind::int(None, 0), "exit cleanly once this 0-based epoch completes"),
];

/// The constant-memory gate of campaign mode (its own group: `exp9`
/// never took it).
pub const RSS_GATE: &[Flag] = &[Flag::new(
    "--max-rss-mb",
    Kind::int(None, 0),
    "campaign mode: fail if peak RSS exceeds this many MiB",
)];

/// `exp4`'s flags.
#[rustfmt::skip]
pub const EXP4: &FlagTable = &[&[
    Flag::new("--dot", Kind::Bool, "classic report: also dump the Graphviz sources"),
    Flag::new("--explore", Kind::size(None, 1), "explore the n = N chain instance instead of the classic report"),
    Flag::new("--sigma", Kind::size(Some(1), 1), "σ (computation-time) buckets per sending handler; message delays take 2 buckets"),
    Flag::new("--threads", Kind::size(Some(0), 0), "worker threads (0 = all cores)"),
    Flag::new("--max-runs", Kind::size(Some(10_000_000), 0), "executed-schedule budget"),
    Flag::new("--differential", Kind::Bool, "run full and reduced exploration and compare verdicts"),
    Flag::new("--full", Kind::Bool, "full enumeration instead of the reduced explorer"),
    Flag::new("--telemetry", Kind::Str, "write the JSONL telemetry stream to this file"),
    Flag::new("--quick", Kind::Bool, "cap the budget at 200k runs for CI smoke runs"),
]];

/// The sweeps that take one optional positional seed count
/// (`exp1`, `exp3`, `exp5`, `exp6`).
pub const SEEDS: &FlagTable = &[&[Flag::new(
    "SEEDS",
    Kind::int(None, 1),
    "seeds per sweep point",
)]];

/// The binaries that take no arguments (`exp2`, `exp7`).
pub const NO_FLAGS: &FlagTable = &[];

/// Why a command line was refused: one line naming the flag and the
/// offending text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Value {
    Bool(bool),
    Int(Option<u64>),
    Text(String),
}

/// The validated values of every declared flag (given or default).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed(Vec<(&'static str, Value)>);

fn flags(table: &FlagTable) -> impl Iterator<Item = &Flag> {
    table.iter().flat_map(|group| group.iter())
}

fn default_of(kind: &Kind) -> Value {
    match *kind {
        Kind::Bool => Value::Bool(false),
        Kind::Int { default, .. } => Value::Int(default),
        Kind::Str => Value::Text(String::new()),
        Kind::OneOf(labels) => Value::Text(labels.first().copied().unwrap_or("").to_owned()),
    }
}

fn parse_value(flag: &Flag, text: &str) -> Result<Value, CliError> {
    let refuse = |why: String| CliError(format!("{} {text:?}: {why}", flag.name));
    match flag.kind {
        Kind::Bool => Ok(Value::Bool(true)),
        Kind::Str => Ok(Value::Text(text.to_owned())),
        Kind::Int { min, max, .. } => {
            let n: u64 = text
                .parse()
                .map_err(|_| refuse("not an unsigned integer in range".to_owned()))?;
            if n < min {
                return Err(refuse(format!("must be at least {min}")));
            }
            if n > max {
                return Err(refuse(format!("must be at most {max}")));
            }
            Ok(Value::Int(Some(n)))
        }
        Kind::OneOf(labels) => {
            if labels.contains(&text) {
                Ok(Value::Text(text.to_owned()))
            } else {
                Err(refuse(format!("want one of {}", labels.join("|"))))
            }
        }
    }
}

/// Parses `args` (without the program name) against `table`.
pub fn parse(table: &FlagTable, args: &[String]) -> Result<Parsed, CliError> {
    let declared: Vec<&Flag> = flags(table).collect();
    let mut values: Vec<(&'static str, Value)> = declared
        .iter()
        .map(|f| (f.name, default_of(&f.kind)))
        .collect();
    let mut given = vec![false; declared.len()];
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let named = arg.starts_with("--");
        let slot = if named {
            declared.iter().position(|f| f.name == arg)
        } else {
            (0..declared.len()).find(|&i| !declared[i].name.starts_with("--") && !given[i])
        };
        let Some(i) = slot else {
            let what = if named { "flag" } else { "argument" };
            return Err(CliError(format!("unknown {what} {arg:?}")));
        };
        let flag = declared[i];
        if given[i] {
            return Err(CliError(format!("{} given more than once", flag.name)));
        }
        given[i] = true;
        let text = if !named || flag.kind == Kind::Bool {
            arg
        } else {
            match args.next() {
                Some(text) if !text.starts_with("--") => text,
                _ => return Err(CliError(format!("{} needs a value", flag.name))),
            }
        };
        values[i].1 = parse_value(flag, text)?;
    }
    Ok(Parsed(values))
}

impl Parsed {
    fn value(&self, name: &str) -> Option<&Value> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    fn mistyped(&self, name: &str, want: &str) -> ! {
        panic!("{name} is not a declared {want} flag: accessors must name a flag of the binary's own table")
    }

    /// True when `name` is in the table this was parsed against.
    pub fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// A [`Kind::Bool`] switch.
    pub fn flag(&self, name: &str) -> bool {
        match self.value(name) {
            Some(Value::Bool(b)) => *b,
            _ => self.mistyped(name, "switch"),
        }
    }

    /// A [`Kind::Int`] flag; `None` when it has no default and was not given.
    pub fn opt_u64(&self, name: &str) -> Option<u64> {
        match self.value(name) {
            Some(Value::Int(n)) => *n,
            _ => self.mistyped(name, "integer"),
        }
    }

    /// A [`Kind::Int`] flag declared with a default.
    pub fn u64(&self, name: &str) -> u64 {
        self.opt_u64(name)
            .unwrap_or_else(|| self.mistyped(name, "integer-with-default"))
    }

    /// [`u64`](Self::u64) for [`Kind::size`] flags (whose `max` makes
    /// the conversion lossless).
    pub fn usize(&self, name: &str) -> usize {
        self.u64(name) as usize
    }

    /// A [`Kind::Str`] or [`Kind::OneOf`] flag.
    pub fn str(&self, name: &str) -> &str {
        match self.value(name) {
            Some(Value::Text(s)) => s,
            _ => self.mistyped(name, "text"),
        }
    }
}

/// The flag as the usage spells it: `--threads N`, `--quick`, `SEEDS`.
fn spelling(flag: &Flag) -> String {
    let value = match flag.kind {
        _ if !flag.name.starts_with("--") => String::new(),
        Kind::Bool => String::new(),
        Kind::Int { .. } => " N".to_owned(),
        Kind::Str => " FILE".to_owned(),
        Kind::OneOf(labels) => format!(" {}", labels.join("|")),
    };
    format!("{}{value}", flag.name)
}

fn default_note(kind: &Kind) -> String {
    match *kind {
        Kind::Int {
            default: Some(n), ..
        } => format!(" [default {n}]"),
        Kind::OneOf(labels) => format!(" [default {}]", labels.first().copied().unwrap_or("")),
        _ => String::new(),
    }
}

/// The usage text of `program`, generated from its table.
pub fn usage(program: &str, table: &FlagTable) -> String {
    let mut out = format!("usage: {program}");
    for f in flags(table) {
        out.push_str(&format!(" [{}]", spelling(f)));
    }
    out.push('\n');
    for f in flags(table) {
        out.push_str(&format!(
            "  {:<28} {}{}\n",
            spelling(f),
            f.help,
            default_note(&f.kind)
        ));
    }
    out
}

/// The README's "Experiment flags" table, generated from the binaries'
/// tables: one row per distinct flag declaration, listing the binaries
/// that share it (`tests/driver.rs` checks the README against this).
pub fn markdown_table(binaries: &[(&str, &FlagTable)]) -> String {
    let mut rows: Vec<(String, Vec<&str>)> = Vec::new();
    for &(program, table) in binaries {
        for f in flags(table) {
            let row = format!(
                "| `{}` | {}{} |",
                spelling(f).replace('|', "\\|"),
                f.help,
                default_note(&f.kind)
            );
            match rows.iter_mut().find(|(r, _)| *r == row) {
                Some((_, programs)) => programs.push(program),
                None => rows.push((row, vec![program])),
            }
        }
    }
    let mut out = String::from("| Flag | Meaning | Binaries |\n|---|---|---|\n");
    for (row, programs) in rows {
        out.push_str(&format!("{row} {} |\n", programs.join(", ")));
    }
    out
}

/// Reports `error` and the generated usage on stderr and exits 2.
pub fn exit_usage(program: &str, table: &FlagTable, error: &CliError) -> ! {
    eprintln!("{program}: {error}");
    eprint!("{}", usage(program, table));
    std::process::exit(2)
}

/// [`parse`] over the process arguments; a refused command line is
/// reported through [`exit_usage`].
pub fn parse_or_exit(program: &str, table: &FlagTable) -> Parsed {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse(table, &args).unwrap_or_else(|e| exit_usage(program, table, &e))
}

/// A whole `main`: parses the process arguments against `table`, runs
/// `body` and exits with its code — or, when it fails, renders the error
/// once as `program: error` and exits 1.
pub fn run_main(
    program: &str,
    table: &FlagTable,
    body: impl FnOnce(&Parsed) -> std::io::Result<i32>,
) -> ! {
    let args = parse_or_exit(program, table);
    std::process::exit(body(&args).unwrap_or_else(|e| {
        eprintln!("{program}: {e}");
        1
    }))
}

/// The exit-criteria ledger: every verdict a binary prints is recorded,
/// and [`finish`](Gates::finish) turns any `NO` into exit code 1.
#[derive(Debug, Default)]
pub struct Gates {
    failed: bool,
}

impl Gates {
    /// A ledger with no verdicts yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one verdict and returns its `yes` / `NO` cell, for lines
    /// that print several verdicts.
    pub fn check(&mut self, ok: bool) -> String {
        self.failed |= !ok;
        check(ok)
    }

    /// Prints `criterion: yes|NO` (plus ` (detail)` when `detail` is not
    /// empty) and records the verdict.
    pub fn require(&mut self, criterion: &str, ok: bool, detail: &str) {
        let verdict = self.check(ok);
        if detail.is_empty() {
            println!("{criterion}: {verdict}");
        } else {
            println!("{criterion}: {verdict} ({detail})");
        }
    }

    /// The process exit code: 1 (after `<experiment> exit criteria
    /// FAILED` on stderr) if any verdict was `NO`, else 0.
    pub fn finish(self, experiment: &str) -> i32 {
        if self.failed {
            eprintln!("{experiment} exit criteria FAILED");
        }
        i32::from(self.failed)
    }
}
