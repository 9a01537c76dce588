//! Every figure of the evaluation against its committed golden: the text
//! `figures NAME` prints must equal `results/NAME.txt`, and a figure's CSV
//! `results/NAME.csv`. One test per figure, all rendered from one shared
//! harness; nothing is written. The fault-path figures are `tests/faults.rs`'s.

use miso_bench::{figures, Harness};
use std::path::PathBuf;
use std::sync::LazyLock;

static HARNESS: LazyLock<Harness> = LazyLock::new(Harness::standard);

fn golden(file: &str) -> Option<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(file);
    std::fs::read_to_string(path).ok()
}

fn check(name: &str) {
    let render = figures::find(name).expect("figure in the table");
    let figure = render(&HARNESS);
    let want = golden(&format!("{name}.txt")).expect("committed golden");
    assert!(
        figure.text == want,
        "{name} differs from results/{name}.txt:\n{}",
        figure.text
    );
    assert_eq!(figure.csv, golden(&format!("{name}.csv")), "{name}'s CSV");
}

macro_rules! golden_tests {
    ($($name:ident),* $(,)?) => {
        $(#[test] fn $name() { check(stringify!($name)); })*

        #[test]
        fn every_figure_has_a_golden_test() {
            let names: Vec<_> = figures::FIGURES.iter().map(|(name, _)| *name).collect();
            assert_eq!(names, [$(stringify!($name)),*]);
        }
    };
}

/// `src/bin/` is the one `figures` binary, and `scripts/ci.sh` runs it over
/// every paper figure at both thread counts: a figure added to `FIGURES`
/// but not to that loop fails here.
#[test]
fn ci_runs_every_bench_bin() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let bins: Vec<_> = std::fs::read_dir(root.join("src/bin"))
        .expect("src/bin")
        .map(|entry| entry.expect("dir entry").file_name())
        .collect();
    assert_eq!(bins, ["figures.rs"], "src/bin/");
    let ci = std::fs::read_to_string(root.join("../../scripts/ci.sh")).expect("scripts/ci.sh");
    let looped = ci
        .lines()
        .find_map(|line| line.strip_prefix("figures=\"")?.strip_suffix('"'))
        .expect("ci.sh's figures=\"…\" list");
    let names: Vec<_> = figures::FIGURES.iter().map(|(name, _)| *name).collect();
    assert_eq!(looped.split_whitespace().collect::<Vec<_>>(), names);
}

/// Every committed `results/*.txt` and `*.csv` is the golden of exactly one
/// entry of `FIGURES` or `FAULTS`, and every entry has its `.txt`.
#[test]
fn every_golden_belongs_to_one_figure() {
    let names: Vec<_> = figures::all().map(|(name, _)| name).collect();
    let results = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for entry in std::fs::read_dir(&results).expect("results/") {
        let path = entry.expect("dir entry").path();
        if !matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("txt" | "csv")
        ) {
            continue;
        }
        let stem = path.file_stem().expect("a file").to_string_lossy();
        let owners = names.iter().filter(|name| **name == stem).count();
        assert_eq!(owners, 1, "entries owning {}", path.display());
    }
    for name in names {
        assert!(
            results.join(format!("{name}.txt")).is_file(),
            "results/{name}.txt"
        );
    }
}

golden_tests!(
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    table2,
    fig_motivation,
    ablation,
    maintenance,
);
