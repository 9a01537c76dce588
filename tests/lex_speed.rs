//! How fast a cold log is lexed: `RawColumns::lex` on one thread and
//! `col::columnize` at pool widths 1 and 2, over the scale-2 seed-7 logs
//! (the `stream_cold` corpus). The three readers and three logs are timed
//! in turn, repetition after repetition, in one process, so that a noisy
//! moment is shared; each line prints the median and quartiles in MB/s.
//!
//! Run: `cargo test --release --test lex_speed -- --ignored --nocapture`.

use miso::common::pool;
use miso::data::json::RawColumns;
use miso::data::logs::{Corpus, LogsConfig};
use miso::exec::col::columnize;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 21;

/// The experiment corpus at scale 2, seed 7: what `stream_cold` lexes.
fn stream_cold_logs() -> LogsConfig {
    let base = LogsConfig::experiment();
    LogsConfig {
        users: base.users * 2,
        venues: base.venues * 2,
        tweets: base.tweets * 2,
        checkins: base.checkins * 2,
        landmarks: base.landmarks * 2,
        seed: 7,
    }
}

/// Median, first and third quartile of `xs`.
fn quartiles(mut xs: Vec<f64>) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    let at = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
    [at(0.5), at(0.25), at(0.75)]
}

#[test]
#[ignore = "a measurement: run with --release -- --ignored --nocapture"]
fn lex_speed() {
    let corpus = Corpus::generate(&stream_cold_logs());
    let logs = corpus.files();
    type Reader = fn(&[String]) -> RawColumns;
    let readers: [(&str, usize, Reader); 3] = [
        ("RawColumns::lex", 1, RawColumns::lex),
        ("columnize", 1, |lines| columnize(lines).expect("no guard")),
        ("columnize", 2, |lines| columnize(lines).expect("no guard")),
    ];
    let was = pool::threads();
    let mut secs = vec![vec![Vec::with_capacity(REPS); logs.len()]; readers.len()];
    for _ in 0..REPS {
        for (r, &(_, width, read)) in readers.iter().enumerate() {
            pool::set_threads(width);
            for (l, log) in logs.iter().enumerate() {
                let start = Instant::now();
                black_box(read(black_box(&log.lines)));
                secs[r][l].push(start.elapsed().as_secs_f64());
            }
        }
    }
    pool::set_threads(was);
    println!("reader               width log         lines     MB   MB/s median [q1, q3]");
    for (r, &(name, width, _)) in readers.iter().enumerate() {
        for (l, log) in logs.iter().enumerate() {
            let mb = log.size.as_bytes() as f64 / 1e6;
            let [mid, q1, q3] = quartiles(secs[r][l].iter().map(|s| mb / s).collect());
            println!(
                "{name:<20} {width:>5} {:<11} {:>6} {mb:>6.2} {mid:>6.0} [{q1:.0}, {q3:.0}]",
                log.kind.table_name(),
                log.lines.len(),
            );
        }
    }
}
