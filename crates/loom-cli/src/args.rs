//! The `loom` command line, declared once: every command and each of
//! its flags. Parsing, validation and `--help` all come from this table.

use loom_cli::{ArgError, Args, Command, Flag};

const SYNOPSIS: &str = "loom <command> [--flag value]...  (every command also takes --help / -h)";

/// What `stream` takes, and `serve` before its own flags.
#[rustfmt::skip]
const STREAM: &[Flag] = &[
    ("k", "N", "number of partitions (required)"),
    ("source", "text|synthetic", "an edge-record feed (default) or the endless generator"),
    ("input", "FILE|-", "the text feed (default stdin)"),
    ("system", "NAME", "hash, ldg (default), fennel or loom"),
    ("workload", "FILE", "query workload: loom needs it; its header declares the labels"),
    ("snapshot-every", "N", "edges between snapshot lines (default 5000; 0 = final only)"),
    ("max-edges", "N", "stop after N total stream edges (default 0 = the whole feed)"),
    ("window", "N", "loom's match window in edges (default 1024)"),
    ("adjacency-horizon", "N|unbounded", "edges loom keeps scoring against (default 64 windows)"),
    ("threshold", "T", "motif support threshold in [0, 1] (default 0.4)"),
    ("seed", "N", "seed (default 42)"),
    ("labels", "N", "label alphabet size (default: the workload's, at least 4)"),
    ("wal", "DIR", "journal every edge and checkpoint engine state under DIR"),
    ("checkpoint-every", "N", "edges between checkpoints (default 100000; 0 = journal only)"),
    ("resume", "true|false", "recover from --wal and continue past its durable prefix"),
    ("stop-after", "N", "stop after N total edges, window undrained, WAL resumable"),
    ("out", "FILE", "write the final vertex<TAB>partition rows"),
];

/// Every `loom` command; [`crate::commands::run`] dispatches on the
/// names.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    Command { name: "generate", about: "write a dataset's graph as a .lg edge list", flags: &[&[
        ("dataset", "NAME", "dblp, provgen, musicbrainz, lubm100 or lubm4000 (required)"),
        ("scale", "tiny|small|medium|large", "dataset size (default small)"),
        ("seed", "N", "generator seed (default 42)"),
        ("out", "FILE", "output path (default stdout)"),
    ]] },
    Command { name: "workload", about: "write a dataset's query workload as a .lw file", flags: &[&[
        ("dataset", "NAME", "as for generate (required)"),
        ("out", "FILE", "output path (default stdout)"),
    ]] },
    Command { name: "motifs", about: "list the motifs of a workload's TPSTry++ index", flags: &[&[
        ("workload", "FILE", "the .lw query workload (required)"),
        ("threshold", "T", "motif support threshold in [0, 1] (default 0.4)"),
        ("prime", "P", "signature modulus (default 251)"),
        ("seed", "N", "label randomizer seed (default 42)"),
    ]] },
    Command { name: "partition", about: "partition a stored graph in one pass", flags: &[&[
        ("graph", "FILE", "the .lg graph (required)"),
        ("k", "N", "number of partitions (required)"),
        ("system", "NAME", "hash, ldg, fennel or loom (default)"),
        ("workload", "FILE", "query workload (loom and --refine need it)"),
        ("order", "generated|random|bfs|dfs", "stream order (default generated)"),
        ("window", "N", "loom's match window in edges (default |E|/50 in 64..=10000)"),
        ("threshold", "T", "motif support threshold in [0, 1] (default 0.4)"),
        ("seed", "N", "seed (default 42)"),
        ("restream", "N", "restreaming passes after the first (default 0)"),
        ("refine", "N", "TAPER refinement rounds (default 0)"),
        ("out", "FILE", "vertex<TAB>partition rows (default stdout)"),
    ]] },
    Command { name: "evaluate", about: "score an assignment: ipt, cut, imbalance", flags: &[&[
        ("graph", "FILE", "the .lg graph (required)"),
        ("workload", "FILE", "the .lw workload (required)"),
        ("assignment", "FILE", "vertex<TAB>partition rows (required)"),
        ("limit", "N", "cap on enumerated matches (default 500000)"),
    ]] },
    Command {
        name: "stream",
        about: "partition an edge feed online; print a snapshot every --snapshot-every edges",
        flags: &[STREAM],
    },
    Command {
        name: "serve",
        about: "`stream`, answering STATS / EPOCH / PART / KHOP / MATCH / HELP / QUIT over TCP",
        flags: &[STREAM, &[
            ("listen", "ADDR", "bind address (default 127.0.0.1:0), printed to stderr"),
            ("readers", "N", "max concurrent connections (default 64)"),
            ("publish-every", "N", "ingested edges between view publications (default 1024)"),
            ("serve-horizon", "N", "recent edges each view can traverse (default 65536)"),
            ("query-log", "FILE", "micros<TAB>request<TAB>reply per request, rewritten each run"),
            ("linger-ms", "N", "serve up to N ms after ingest, until clients leave (default 0)"),
            ("pace-ms", "N", "sleep N ms per 1024 source edges; timing only (default 0)"),
        ]],
    },
    Command { name: "query", about: "query a `loom serve` port, print the replies", flags: &[&[
        ("connect", "HOST:PORT", "the serve address (required)"),
        ("request", "'R;R'", "semicolon-separated request lines (default STATS)"),
        ("count", "N", "send the request list N times (default 1)"),
    ]] },
    Command { name: "help", about: "print this text", flags: &[] },
];

/// Parse `loom <command> [--flag value]...` against [`COMMANDS`].
pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, ArgError> {
    let mut argv = argv.into_iter();
    let name = argv
        .next()
        .ok_or_else(|| ArgError::Malformed("missing command; try `loom help`".into()))?;
    let name = if name == "--help" || name == "-h" {
        "help"
    } else {
        &name
    };
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| ArgError::Refused(format!("unknown command '{name}'; try `loom help`")))?;
    Args::parse(command, argv)
}

/// `loom --help`.
pub fn usage() -> String {
    loom_cli::usage(SYNOPSIS, COMMANDS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, ArgError> {
        parse(s.split_whitespace().map(|x| x.to_string()))
    }

    #[test]
    fn parses_command_and_flags() {
        let a = args("partition --graph g.lg --k 8").unwrap();
        assert_eq!(a.command.name, "partition");
        assert!(!a.help);
        assert_eq!(a.required("graph").unwrap(), "g.lg");
        assert_eq!(a.parsed_or("k", 2usize).unwrap(), 8);
        assert_eq!(a.parsed_or("window", 100usize).unwrap(), 100);
    }

    #[test]
    fn missing_required_flag() {
        let a = args("partition").unwrap();
        assert!(a.required("graph").is_err());
    }

    #[test]
    fn unknown_flag_detected() {
        // Refused, not Malformed: `loom` exits 1 on it, as it always has.
        let err = args("partition --graph g --bogus 1").unwrap_err();
        assert!(
            matches!(&err, ArgError::Refused(m) if m == "unknown flag --bogus"),
            "{err:?}"
        );
        // A flag one command takes is still unknown to another.
        assert!(args("stream --k 2 --listen 127.0.0.1:0").is_err());
        assert!(args("serve --k 2 --listen 127.0.0.1:0").is_ok());
    }

    #[test]
    fn bare_help_takes_no_value() {
        // The original bug: `loom stream --help` died with
        // "--help needs a value".
        for line in ["stream --help", "stream -h --k 4", "stream --bogus 1 -h"] {
            assert!(args(line).unwrap().help, "{line}");
        }
        for line in ["help", "--help", "-h"] {
            assert_eq!(args(line).unwrap().command.name, "help", "{line}");
        }
    }

    #[test]
    fn duplicate_flag_rejected() {
        assert!(args("stream --k 1 --k 2").is_err());
    }

    #[test]
    fn flag_without_value_rejected() {
        assert!(matches!(args("stream --k"), Err(ArgError::Malformed(_))));
    }

    #[test]
    fn bad_parse_reports_flag_name() {
        let a = args("stream --k nope").unwrap();
        let err = a.parsed_or("k", 0usize).unwrap_err();
        assert!(err.to_string().contains("--k"));
    }

    #[test]
    fn reading_an_undeclared_flag_is_an_internal_error() {
        let a = args("stream --k 1").unwrap();
        let err = a.optional("secret").unwrap_err().to_string();
        assert!(
            err.starts_with("internal:") && err.contains("--secret"),
            "{err}"
        );
    }

    /// One flag, one meaning: no command declares a name twice, which
    /// also keeps `serve`'s own flags disjoint from `stream`'s.
    #[test]
    fn flag_names_are_unique_per_command() {
        let mut commands = std::collections::BTreeSet::new();
        for c in COMMANDS {
            assert!(commands.insert(c.name), "command {} declared twice", c.name);
            let mut seen = std::collections::BTreeSet::new();
            for (name, _, _) in c.flags.iter().copied().flatten() {
                assert!(seen.insert(name), "--{name} declared twice by {}", c.name);
            }
        }
    }
}
