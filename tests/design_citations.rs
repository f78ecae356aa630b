//! Every `DESIGN.md §N` citation in the workspace names a section
//! DESIGN.md has: renumbering or dropping a section fails here, naming
//! the file and line of each citation left pointing at nothing.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Version control and what building or running the benchmark leaves
/// behind: not source, never scanned.
const SKIP: &[&str] = &[
    ".git",
    "target",
    ".bench_build",
    "benchmark/target",
    "benchmark/work",
];

#[test]
fn design_citations_name_existing_sections() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let sections: BTreeSet<u32> = design
        .lines()
        .filter_map(|l| leading_number(l.strip_prefix("## §")?))
        .collect();
    assert!(!sections.is_empty(), "DESIGN.md has no `## §N` headings");

    let mut files = Vec::new();
    walk(root, root, &mut files);
    let (mut cited, mut stale) = (0, Vec::new());
    for path in &files {
        let Ok(bytes) = std::fs::read(path) else {
            continue;
        };
        for (i, line) in String::from_utf8_lossy(&bytes).lines().enumerate() {
            for n in citations(line) {
                cited += 1;
                if !sections.contains(&n) {
                    let file = path.strip_prefix(root).unwrap().display();
                    stale.push(format!("{file}:{}: §{n}", i + 1));
                }
            }
        }
    }
    assert!(cited > 0, "found no citations: is the scan in the repo?");
    assert!(
        stale.is_empty(),
        "citations of sections DESIGN.md does not have (it has §{sections:?}):\n{}",
        stale.join("\n")
    );
}

/// The section numbers `line` cites as `DESIGN §N` or `DESIGN.md §N`.
fn citations(line: &str) -> impl Iterator<Item = u32> + '_ {
    line.match_indices("DESIGN").filter_map(|(i, m)| {
        let rest = &line[i + m.len()..];
        let rest = rest.strip_prefix(".md").unwrap_or(rest);
        leading_number(rest.strip_prefix(" §")?)
    })
}

fn leading_number(s: &str) -> Option<u32> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    s[..end].parse().ok()
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let entry = entry.expect("dir entry");
        let path = entry.path();
        let rel = path.strip_prefix(root).expect("under the root");
        if SKIP.iter().any(|s| rel == Path::new(s)) {
            continue;
        }
        let kind = entry.file_type().expect("file type");
        if kind.is_dir() {
            walk(root, &path, files);
        } else if kind.is_file() {
            files.push(path);
        }
    }
}
