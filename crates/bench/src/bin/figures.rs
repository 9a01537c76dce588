//! Prints one figure of the evaluation and writes its artifacts.
//!
//! `figures NAME` prints the figure (byte-identical to `results/NAME.txt`),
//! writes `results/NAME.csv` for the figures that have one and
//! `results/NAME.report.json`, all relative to the working directory. An
//! unknown or missing NAME lists the names and exits 2.

use miso_bench::{figures, Harness};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, render) = match args.as_slice() {
        [name] => match figures::find(name) {
            Some(render) => (name, render),
            None => usage(),
        },
        _ => usage(),
    };
    miso_bench::obs_init();
    let figure = render(&Harness::standard());
    print!("{}{}", figure.text, figure.observed);
    if let Some(csv) = &figure.csv {
        let path = format!("results/{name}.csv");
        let written = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, csv));
        if let Err(e) = written {
            eprintln!("figures: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    miso_bench::write_report(name, figure.report);
}

fn usage() -> ! {
    let names: Vec<_> = figures::FIGURES.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: figures NAME, where NAME is one of: {}",
        names.join(" ")
    );
    std::process::exit(2);
}
