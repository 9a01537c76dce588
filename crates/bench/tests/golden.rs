//! Every figure of the evaluation against its committed golden: the text
//! `figures NAME` prints must equal `results/NAME.txt`, and a figure's CSV
//! `results/NAME.csv`. One test per figure, all rendered from one shared
//! harness; nothing is written.

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
