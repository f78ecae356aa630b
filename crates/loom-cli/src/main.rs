//! `loom` — command-line streaming graph partitioner.
//!
//! The adoption path for users who are not writing Rust: export your
//! graph as a `.lg` edge list and your workload as a `.lw` file (see
//! `loom_core::graph::io` for both formats), then:
//!
//! ```text
//! loom generate  --dataset dblp --scale small --out g.lg     # or bring your own
//! loom workload  --dataset dblp --out q.lw                   # or write your own
//! loom motifs    --workload q.lw [--threshold 0.4]
//! loom partition --graph g.lg --workload q.lw --k 8 --system loom --out parts.tsv
//! loom evaluate  --graph g.lg --workload q.lw --assignment parts.tsv
//! loom help
//! ```

#![forbid(unsafe_code)]

mod args;
mod commands;

use loom_cli::ArgError;

fn main() {
    let code = match args::parse(std::env::args().skip(1)) {
        Err(ArgError::Malformed(e)) => {
            eprint!("error: {e}\n\n{}", args::usage());
            2
        }
        parsed => match parsed.map_err(Into::into).and_then(|a| commands::run(&a)) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        },
    };
    std::process::exit(code);
}
