//! Every figure of the evaluation against its committed golden: the text
//! `figures NAME` prints must equal `results/NAME.txt`, and a figure's CSV
//! `results/NAME.csv`. One test per figure, all rendered from one shared
//! harness; nothing is written.

use miso_bench::{figures, Harness};
use std::collections::BTreeSet;
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

/// `scripts/ci.sh` builds exactly the binaries in `src/bin/` and runs each
/// of them: a bin that CI never runs, or a `--bin` that no longer exists,
/// fails here rather than rotting unseen.
#[test]
fn ci_runs_every_bench_bin() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let ci = std::fs::read_to_string(root.join("../../scripts/ci.sh")).expect("scripts/ci.sh");
    let bins: BTreeSet<String> = std::fs::read_dir(root.join("src/bin"))
        .expect("src/bin")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            path.file_stem().expect("a file").to_string_lossy().into()
        })
        .collect();
    let words: Vec<&str> = ci.split_whitespace().collect();
    let built: BTreeSet<String> = words
        .windows(2)
        .filter(|w| w[0] == "--bin")
        .map(|w| w[1].to_string())
        .collect();
    assert_eq!(built, bins, "the bins ci.sh builds vs src/bin/");
    for bin in &bins {
        // Run as `.../release/figures "$fig"`, or named in a smoke list.
        let runs = [
            format!("release/{bin}\""),
            format!("\"{bin}\""),
            format!("\"{bin} --"),
        ];
        assert!(
            runs.iter().any(|site| ci.contains(site.as_str())),
            "ci.sh builds {bin} but never runs it"
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
