//! Corpus generation probe: times `Corpus::generate` at the pool's width,
//! and the twitter log's draw phase alone (`twitter_draws`), over the
//! experiment corpus with every cardinality multiplied by `--scale` (the
//! benchmark's scaling: scale 2 is `stream_cold`'s 24 MB corpus).
//!
//! Run with:
//! ```text
//! MISO_THREADS=2 cargo run --release --example corpus_gen -- --scale 2
//! cargo run --release --example corpus_gen -- --scale 0.05 --check
//! ```
//!
//! Prints the best and median milliseconds of each over nine runs.
//! `MISO_THREADS` sets the width. With `--check` it first asserts that the
//! corpus generated at width 1 is, byte for byte, the corpus generated at
//! the pool's width.

use miso::common::pool;
use miso::data::logs::{twitter_draws, Corpus, LogsConfig};
use std::time::Instant;

const RUNS: usize = 9;

fn main() {
    let (mut scale, mut check) = (1.0, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("--scale takes a positive number"));
            }
            "--check" => check = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let cfg = scaled(scale);
    let width = pool::threads();
    if check {
        pool::set_threads(1);
        let serial = Corpus::generate(&cfg);
        pool::set_threads(width);
        let wide = Corpus::generate(&cfg);
        for (one, many) in serial.files().into_iter().zip(wide.files()) {
            assert!(
                one.lines == many.lines,
                "{}: width 1 and width {width} generate different lines",
                one.kind.table_name()
            );
        }
        println!("check: width 1 and width {width} generate the same lines");
    }
    let corpus = Corpus::generate(&cfg);
    println!(
        "scale {scale}: {} tweets, {} check-ins, {} landmarks, {} at width {width}",
        cfg.tweets,
        cfg.checkins,
        cfg.landmarks,
        corpus.total_size()
    );
    drop(corpus);
    report("Corpus::generate", time(|| Corpus::generate(&cfg)));
    report("twitter draws", time(|| twitter_draws(&cfg)));
}

fn usage(why: &str) -> ! {
    eprintln!("corpus_gen: {why}\nusage: corpus_gen [--scale S] [--check]");
    std::process::exit(2)
}

/// `LogsConfig::experiment()` with every cardinality multiplied by `scale`.
fn scaled(scale: f64) -> LogsConfig {
    let base = LogsConfig::experiment();
    let times = |n: u64| (n as f64 * scale).round() as u64;
    LogsConfig {
        users: times(base.users).max(1),
        venues: times(base.venues).max(1),
        tweets: times(base.tweets as u64) as usize,
        checkins: times(base.checkins as u64) as usize,
        landmarks: times(base.landmarks as u64) as usize,
        seed: base.seed,
    }
}

/// Best and median milliseconds of `RUNS` calls; what a call returns is
/// dropped outside the timing.
fn time<T>(mut f: impl FnMut() -> T) -> (f64, f64) {
    let mut ms: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            let out = f();
            let elapsed = start.elapsed();
            drop(out);
            elapsed.as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    (ms[0], ms[RUNS / 2])
}

fn report(what: &str, (best, median): (f64, f64)) {
    println!("{what:<18} best {best:7.1} ms   median {median:7.1} ms");
}
