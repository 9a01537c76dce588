//! Synthetic social-media log generators.
//!
//! The paper's evaluation uses a 1 TB Twitter stream, a 1 TB Foursquare
//! stream, and a 12 GB Landmarks data set, with the **user id shared across
//! Twitter/Foursquare** and the **venue (check-in location) shared across
//! Foursquare/Landmarks**. Neither stream is available, so we generate
//! deterministic synthetic equivalents that preserve the properties the
//! workload exploits:
//!
//! * the join graph above (both cross-log keys exist and are selective);
//! * skewed popularity (Zipf users, venues, and topics) so predicates have
//!   widely varying selectivities across query versions;
//! * text-bearing records with hashtags/categories that the workload's
//!   marketing queries filter on;
//! * JSON-line encoding, exercised by the HV scan's SerDe path.
//!
//! Sizes are scaled down (MBs instead of TBs); the store cost models scale
//! charged bytes back to paper magnitudes (see `miso-hv`/`miso-dw`).
//!
//! Each record's line is written directly, with no [`crate::Value`] in
//! between, in the canonical form [`crate::json::to_json`] gives the parsed
//! record: members in ascending key order, floats in shortest round-trip
//! digits. A record's values are drawn first, in a fixed order, and written
//! after; the draw order is the contract of the bytes a seed yields, and so
//! of every figure and simulated time (`generated_bytes_are_pinned` holds
//! both). The twitter log, the largest, is made in two phases: one
//! sequential pass draws every tweet's values into a [`TweetDraw`], and the
//! lines are then formatted from those draws in fixed-size morsels on the
//! worker pool. Formatting is a pure function of a morsel's draws and its
//! first tweet id, so neither the pool's width nor the morsel size enters
//! the bytes. The Zipf tables whose parameters are constants are built once
//! per process. Keys and vocabulary words are constants, copied into a line
//! as they stand; a tweet's text is its words written straight into the
//! line ([`crate::json`]'s `ObjectWriter` has the rules that make it safe).

use crate::json::ObjectWriter;
use miso_common::pool;
use miso_common::rng::{DetRng, ZipfSampler};
use miso_common::ByteSize;
use std::fmt::Write;
use std::sync::{Arc, LazyLock};

/// Identifies one of the three generated data sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogKind {
    /// Tweet stream (user-keyed).
    Twitter,
    /// Check-in stream (user- and venue-keyed).
    Foursquare,
    /// Static venue/geography reference data (venue-keyed).
    Landmarks,
}

impl LogKind {
    /// The HDFS-style base name used by the stores and the query language.
    pub fn table_name(&self) -> &'static str {
        match self {
            LogKind::Twitter => "twitter",
            LogKind::Foursquare => "foursquare",
            LogKind::Landmarks => "landmarks",
        }
    }

    /// The inverse of [`LogKind::table_name`] (used when routing a
    /// [`crate::Delta`] carrying only the table name).
    pub fn from_table_name(name: &str) -> Option<LogKind> {
        match name {
            "twitter" => Some(LogKind::Twitter),
            "foursquare" => Some(LogKind::Foursquare),
            "landmarks" => Some(LogKind::Landmarks),
            _ => None,
        }
    }
}

/// Generation parameters for the full corpus.
#[derive(Debug, Clone)]
pub struct LogsConfig {
    /// Number of distinct users (shared by Twitter and Foursquare).
    pub users: u64,
    /// Number of distinct venues (shared by Foursquare and Landmarks).
    pub venues: u64,
    /// Tweet record count.
    pub tweets: usize,
    /// Check-in record count.
    pub checkins: usize,
    /// Landmark record count (≤ `venues`; remaining venues are "unlisted").
    pub landmarks: usize,
    /// Master seed; all three logs derive independent streams from it.
    pub seed: u64,
}

impl LogsConfig {
    /// A tiny corpus for unit tests (sub-second generation).
    pub fn tiny() -> Self {
        LogsConfig {
            users: 200,
            venues: 80,
            tweets: 1_200,
            checkins: 800,
            landmarks: 64,
            seed: 0xC0FFEE,
        }
    }

    /// The default experiment corpus: big enough for meaningful
    /// selectivities and view sizes, small enough to run every figure
    /// quickly.
    pub fn experiment() -> Self {
        LogsConfig {
            users: 4_000,
            venues: 1_000,
            tweets: 40_000,
            checkins: 24_000,
            landmarks: 900,
            seed: 0x5EED_2014,
        }
    }
}

/// One generated log: JSON text lines plus its total byte size.
#[derive(Debug, Clone)]
pub struct LogFile {
    /// Which data set this is.
    pub kind: LogKind,
    /// One JSON document per line. Shared: a clone of the file holds the
    /// same lines until one of them changes its copy ([`Arc::make_mut`]),
    /// and a store the file is registered with keeps them as the first
    /// segment of its log, which an append never writes.
    pub lines: Arc<Vec<String>>,
    /// Total size (sum of line lengths + newlines).
    pub size: ByteSize,
}

impl LogFile {
    /// A log of `lines`, sized as line lengths plus newlines.
    pub fn from_lines(kind: LogKind, lines: Vec<String>) -> Self {
        let bytes: u64 = lines.iter().map(|l| l.len() as u64 + 1).sum();
        LogFile {
            kind,
            lines: Arc::new(lines),
            size: ByteSize::from_bytes(bytes),
        }
    }

    /// Record count.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True iff the log has no records.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

/// The complete generated corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Tweet log.
    pub twitter: LogFile,
    /// Check-in log.
    pub foursquare: LogFile,
    /// Landmarks reference data.
    pub landmarks: LogFile,
}

impl Corpus {
    /// Generates the corpus deterministically from `cfg`, each log from a
    /// stream of its own, in two pool batches: first the twitter draws
    /// ([`twitter_draws`]) beside the whole foursquare and landmarks logs,
    /// then the twitter lines, formatted from the draws a morsel per task.
    /// The second batch is dispatched from the top, not from inside the
    /// first, where it would get no helpers. The bytes are those of any
    /// thread count: the draws are one sequential pass, and each morsel's
    /// lines a pure function of its draws and its first tweet id.
    pub fn generate(cfg: &LogsConfig) -> Corpus {
        let root = DetRng::new(cfg.seed);
        let landmarks = cfg.landmarks.min(cfg.venues as usize);
        let [(draws, _), (_, foursquare), (_, landmarks)]: [_; 3] =
            pool::run_batch(3, |log| match log {
                0 => (twitter_draws(cfg), Vec::new()),
                1 => (
                    Vec::new(),
                    generate_foursquare_batch(cfg, root.fork(2), 0, cfg.checkins),
                ),
                _ => (
                    Vec::new(),
                    generate_landmarks_batch(root.fork(3), 0, landmarks),
                ),
            })
            .unwrap_or_else(|e| panic!("{e}"))
            .try_into()
            .expect("three logs");
        Corpus {
            twitter: LogFile::from_lines(LogKind::Twitter, twitter_lines(&draws, 0)),
            foursquare: LogFile::from_lines(LogKind::Foursquare, foursquare),
            landmarks: LogFile::from_lines(LogKind::Landmarks, landmarks),
        }
    }

    /// Iterates (kind, file) pairs.
    pub fn files(&self) -> [&LogFile; 3] {
        [&self.twitter, &self.foursquare, &self.landmarks]
    }

    /// Total corpus size.
    pub fn total_size(&self) -> ByteSize {
        self.twitter.size + self.foursquare.size + self.landmarks.size
    }
}

/// Generates an **append batch** for a streaming log (the paper's §6 notes
/// that HDFS updates are append-only). Batch `b` of size `count` is
/// deterministic in `(cfg.seed, kind, b)` and carries record ids disjoint
/// from the base corpus and from other batches of the same size: ids
/// `base + b·count ..`, where `base` is the base file's record count.
///
/// Landmarks is reference data over the venue id space `0..cfg.venues`; its
/// batch `b` lists the next unlisted venues, `cfg.landmarks + b·count ..`.
/// A batch that reaches `cfg.venues` stops there, so once every venue is
/// listed a landmarks batch is short or empty.
pub fn generate_delta(cfg: &LogsConfig, kind: LogKind, batch: u64, count: usize) -> Vec<String> {
    let root = DetRng::new(cfg.seed ^ 0xDE17A);
    let skip = batch as usize * count;
    match kind {
        LogKind::Twitter => twitter_lines(
            &draw_tweets(cfg, root.fork(batch * 4 + 1), count),
            cfg.tweets + skip,
        ),
        LogKind::Foursquare => {
            generate_foursquare_batch(cfg, root.fork(batch * 4 + 2), cfg.checkins + skip, count)
        }
        LogKind::Landmarks => {
            let venues = cfg.venues as usize;
            let first = (cfg.landmarks + skip).min(venues);
            generate_landmarks_batch(root.fork(batch * 4 + 3), first, count.min(venues - first))
        }
    }
}

/// Marketing-relevant topic vocabulary: queries filter on these hashtags.
pub const TOPICS: &[&str] = &[
    "coffee",
    "pizza",
    "sushi",
    "burgers",
    "brunch",
    "vegan",
    "bbq",
    "tacos",
    "ramen",
    "dessert",
    "cocktails",
    "beer",
    "wine",
    "breakfast",
    "seafood",
    "steak",
];

/// Venue categories used by Landmarks and filtered by the workload.
pub const CATEGORIES: &[&str] = &[
    "restaurant",
    "cafe",
    "bar",
    "museum",
    "park",
    "theater",
    "stadium",
    "hotel",
    "mall",
    "landmark",
];

/// Cities shared by all three logs (geography join/filter dimension).
pub const CITIES: &[&str] = &[
    "san_francisco",
    "new_york",
    "austin",
    "seattle",
    "chicago",
    "boston",
    "portland",
    "denver",
    "miami",
    "los_angeles",
];

const LANGS: &[&str] = &["en", "es", "pt", "ja", "de", "fr"];
const WORDS: &[&str] = &[
    "loving", "the", "new", "place", "downtown", "amazing", "terrible", "queue", "service",
    "tonight", "friends", "best", "worst", "ever", "grand", "opening", "happy", "hour", "deal",
    "try", "again", "never", "crowded", "quiet", "cozy", "fresh", "local", "spot", "hidden", "gem",
];

/// Timestamps span 90 synthetic days, seconds resolution.
const TIME_SPAN_SECS: u64 = 90 * 24 * 3600;

/// Zipf tables whose parameters are constants, built once per process; the
/// user and venue tables depend on the config and are built per call.
static RETWEETS: LazyLock<ZipfSampler> = LazyLock::new(|| ZipfSampler::new(1000, 1.3));
static FOLLOWERS: LazyLock<ZipfSampler> = LazyLock::new(|| ZipfSampler::new(100_000, 1.2));
static LIKES: LazyLock<ZipfSampler> = LazyLock::new(|| ZipfSampler::new(200, 1.4));

/// Hashtags and prose words a tweet draws at most.
const MAX_TAGS: usize = 3;
const MAX_WORDS: usize = 14;

// A vocabulary index is drawn into a `u8`.
const _: () =
    assert!(TOPICS.len() <= 256 && WORDS.len() <= 256 && LANGS.len() <= 256 && CITIES.len() <= 256);

/// Tweets per format morsel. A morsel's lines depend on its draws and its
/// first tweet id only, so the size moves no byte; a growth batch (2 % of
/// the base log at the benchmark's scales) is one morsel and runs inline.
const TWEET_MORSEL: usize = 2048;

/// One tweet's drawn values, everything its line is written from except its
/// id: indices into the constant vocabularies, and the numbers at the width
/// they are drawn at.
#[derive(Debug)]
pub struct TweetDraw {
    user: usize,
    ts: u64,
    retweets: usize,
    followers: usize,
    sentiment: f64,
    tags: [u8; MAX_TAGS],
    n_tags: u8,
    words: [u8; MAX_WORDS],
    n_words: u8,
    mention: Option<u8>,
    lang: u8,
    city: u8,
}

/// The draw phase of the base twitter log: the values of its `cfg.tweets`
/// records, in id order. [`Corpus::generate`] formats its lines from these;
/// it is public so the phase can be timed apart (`examples/corpus_gen.rs`).
pub fn twitter_draws(cfg: &LogsConfig) -> Vec<TweetDraw> {
    draw_tweets(cfg, DetRng::new(cfg.seed).fork(1), cfg.tweets)
}

/// An index into `table`, drawn as [`DetRng::pick`] draws an item.
fn pick_index(rng: &mut DetRng, table: &[&str]) -> u8 {
    rng.below(table.len() as u64) as u8
}

/// Draws `count` tweets from `rng`. The order of the draws is the bytes'
/// contract.
fn draw_tweets(cfg: &LogsConfig, mut rng: DetRng, count: usize) -> Vec<TweetDraw> {
    let users = ZipfSampler::new(cfg.users as usize, 0.35);
    (0..count)
        .map(|_| {
            let user = users.sample(&mut rng);
            let mut tags = [0; MAX_TAGS];
            let n_tags = rng.range_inclusive(0, MAX_TAGS as u64) as u8;
            for tag in &mut tags[..n_tags as usize] {
                *tag = pick_index(&mut rng, TOPICS);
            }
            let mut words = [0; MAX_WORDS];
            let n_words = rng.range_inclusive(4, MAX_WORDS as u64) as u8;
            for word in &mut words[..n_words as usize] {
                *word = pick_index(&mut rng, WORDS);
            }
            // Tweets often mention the topic in prose too, so text-search
            // predicates (`contains(t.text, 'coffee')`) have real selectivity.
            let mention = rng.chance(0.35).then(|| pick_index(&mut rng, TOPICS));
            // Field initialisers run in the order written: keep it the draw
            // order.
            TweetDraw {
                user,
                tags,
                n_tags,
                words,
                n_words,
                mention,
                ts: rng.below(TIME_SPAN_SECS),
                retweets: RETWEETS.sample(&mut rng),
                followers: FOLLOWERS.sample(&mut rng),
                lang: pick_index(&mut rng, LANGS),
                city: pick_index(&mut rng, CITIES),
                sentiment: (rng.f64() * 2.0 - 1.0 + rng.f64() * 0.2).clamp(-1.0, 1.0),
            }
        })
        .collect()
}

/// The lines of `draws`, the first with tweet id `first_id`: one
/// [`format_tweets`] per morsel on the pool, split into lines in morsel
/// order. The lines are allocated here, on the dispatching thread, not by
/// the helpers (with glibc a block lives in the malloc arena of the thread
/// that allocated it): with half the twitter log in a helper's arena, the
/// benchmark's scaled `wall_s` on `stream_growth` read 3–8 % higher in
/// three of four pair sets on 2 cores, and level at width 1.
fn twitter_lines(draws: &[TweetDraw], first_id: usize) -> Vec<String> {
    let morsels = pool::run_chunks(draws, TWEET_MORSEL, |m, morsel| {
        format_tweets(morsel, first_id + m * TWEET_MORSEL)
    })
    .unwrap_or_else(|e| panic!("{e}"));
    let mut lines = Vec::with_capacity(draws.len());
    for (text, ends) in &morsels {
        let mut start = 0;
        for &end in ends {
            lines.push(text[start..end].to_owned());
            start = end;
        }
    }
    lines
}

/// The format phase: the lines of `draws`, the first with tweet id
/// `first_id`, as one text and the end of each line in it. A pure function
/// of its arguments.
fn format_tweets(draws: &[TweetDraw], first_id: usize) -> (String, Vec<usize>) {
    let mut ends = Vec::with_capacity(draws.len());
    let mut lines = String::new();
    for (id, draw) in (first_id..).zip(draws) {
        let words = draw.words[..draw.n_words as usize]
            .iter()
            .map(|&w| WORDS[w as usize]);
        let text = words.chain(draw.mention.map(|topic| TOPICS[topic as usize]));
        let tags = draw.tags.map(|tag| TOPICS[tag as usize]);
        let mut record = ObjectWriter::new(&mut lines);
        record.str("city", CITIES[draw.city as usize]);
        record.int("followers", draw.followers as i64);
        record.strs("hashtags", &tags[..draw.n_tags as usize]);
        record.str("lang", LANGS[draw.lang as usize]);
        record.int("retweets", draw.retweets as i64);
        record.float("sentiment", draw.sentiment);
        record.words("text", text);
        record.int("ts", draw.ts as i64);
        record.int("tweet_id", id as i64);
        record.int("user_id", draw.user as i64);
        record.finish();
        ends.push(lines.len());
    }
    (lines, ends)
}

fn generate_foursquare_batch(
    cfg: &LogsConfig,
    mut rng: DetRng,
    id_offset: usize,
    count: usize,
) -> Vec<String> {
    let users = ZipfSampler::new(cfg.users as usize, 0.35);
    let venues = ZipfSampler::new(cfg.venues as usize, 0.7);
    let mut lines = Vec::with_capacity(count);
    let mut line = String::new();
    for i in id_offset..id_offset + count {
        let user = users.sample(&mut rng);
        let venue = venues.sample(&mut rng);
        let ts = rng.below(TIME_SPAN_SECS);
        let likes = LIKES.sample(&mut rng);
        let with_friends = rng.chance(0.35);
        let city = *rng.pick(CITIES);
        line.clear();
        let mut record = ObjectWriter::new(&mut line);
        record.int("checkin_id", i as i64);
        record.str("city", city);
        record.int("likes", likes as i64);
        record.int("ts", ts as i64);
        record.int("user_id", user as i64);
        record.int("venue_id", venue as i64);
        record.bool("with_friends", with_friends);
        record.finish();
        lines.push(line.clone());
    }
    lines
}

/// Landmarks for the venues `first_venue..first_venue + count`.
fn generate_landmarks_batch(mut rng: DetRng, first_venue: usize, count: usize) -> Vec<String> {
    let mut lines = Vec::with_capacity(count);
    let (mut line, mut name) = (String::new(), String::new());
    for venue in first_venue..first_venue + count {
        let word = *rng.pick(WORDS);
        let category = *rng.pick(CATEGORIES);
        let city = *rng.pick(CITIES);
        let lat = 25.0 + rng.f64() * 24.0;
        let lon = -124.0 + rng.f64() * 54.0;
        let rating = (rng.f64() * 4.0 + rng.f64()).clamp(0.5, 5.0);
        let price_tier = rng.range_inclusive(1, 4);
        name.clear();
        let _ = write!(name, "{word}_{venue}");
        line.clear();
        let mut record = ObjectWriter::new(&mut line);
        record.str("category", category);
        record.str("city", city);
        record.float("lat", lat);
        record.float("lon", lon);
        record.str("name", &name);
        record.int("price_tier", price_tier as i64);
        record.float("rating", rating);
        record.int("venue_id", venue as i64);
        record.finish();
        lines.push(line.clone());
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, to_json};
    use crate::value::Value;
    use miso_common::prehash::Fnv;

    #[test]
    fn generation_is_deterministic() {
        let a = Corpus::generate(&LogsConfig::tiny());
        let b = Corpus::generate(&LogsConfig::tiny());
        assert_eq!(a.twitter.lines, b.twitter.lines);
        assert_eq!(a.foursquare.lines, b.foursquare.lines);
        assert_eq!(a.landmarks.lines, b.landmarks.lines);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = LogsConfig::tiny();
        let a = Corpus::generate(&cfg);
        cfg.seed += 1;
        let b = Corpus::generate(&cfg);
        assert_ne!(a.twitter.lines[0], b.twitter.lines[0]);
    }

    #[test]
    fn counts_match_config() {
        let cfg = LogsConfig::tiny();
        let c = Corpus::generate(&cfg);
        assert_eq!(c.twitter.len(), cfg.tweets);
        assert_eq!(c.foursquare.len(), cfg.checkins);
        assert_eq!(c.landmarks.len(), cfg.landmarks);
    }

    #[test]
    fn every_line_is_valid_json_with_expected_keys() {
        let c = Corpus::generate(&LogsConfig::tiny());
        for line in c.twitter.lines.iter().take(50) {
            let v = parse_json(line).unwrap();
            assert!(v.get_field("user_id").is_some());
            assert!(v.get_field("hashtags").is_some());
        }
        for line in c.foursquare.lines.iter().take(50) {
            let v = parse_json(line).unwrap();
            assert!(v.get_field("user_id").is_some());
            assert!(v.get_field("venue_id").is_some());
        }
        for line in c.landmarks.lines.iter().take(50) {
            let v = parse_json(line).unwrap();
            assert!(v.get_field("venue_id").is_some());
            assert!(v.get_field("category").is_some());
        }
    }

    #[test]
    fn join_keys_are_shared() {
        let cfg = LogsConfig::tiny();
        let c = Corpus::generate(&cfg);
        // Every foursquare user id must lie in the same id space as twitter.
        for line in c.foursquare.lines.iter().take(100) {
            let v = parse_json(line).unwrap();
            let uid = v.get_field("user_id").unwrap().as_i64().unwrap();
            assert!((0..cfg.users as i64).contains(&uid));
            let vid = v.get_field("venue_id").unwrap().as_i64().unwrap();
            assert!((0..cfg.venues as i64).contains(&vid));
        }
    }

    #[test]
    fn popularity_is_skewed() {
        let c = Corpus::generate(&LogsConfig::tiny());
        let mut user0 = 0usize;
        for line in c.twitter.lines.iter() {
            let v = parse_json(line).unwrap();
            if v.get_field("user_id").unwrap() == &Value::Int(0) {
                user0 += 1;
            }
        }
        // Zipf rank 0 must appear far more than the uniform expectation.
        let uniform = c.twitter.len() / 200;
        assert!(user0 > uniform * 3, "user0={user0}, uniform={uniform}");
    }

    /// The workspace's FNV-1a over each line and a newline after it.
    fn digest<'a>(lines: impl IntoIterator<Item = &'a String>, h: &mut Fnv) {
        for line in lines {
            h.bytes(line.as_bytes());
            h.byte(b'\n');
        }
    }

    #[test]
    fn generated_bytes_are_pinned() {
        // Every figure, golden and benchmark `sim_s` is a function of these
        // bytes, which depend on the order of the draws as well as on the
        // writer.
        let pins = [
            (LogsConfig::tiny(), 0xC0FFEE, 0x2c76_f206_4fd4_2046),
            (LogsConfig::tiny(), 7, 0x7f8c_4019_8be8_7edc),
            (LogsConfig::experiment(), 0x5EED_2014, 0x30ad_d858_3ceb_1ab9),
            (LogsConfig::experiment(), 7, 0x2d3a_fc83_1109_bf80),
        ];
        for (mut cfg, seed, pin) in pins {
            cfg.seed = seed;
            let corpus = Corpus::generate(&cfg);
            let mut h = Fnv::new();
            for file in corpus.files() {
                digest(file.lines.iter(), &mut h);
            }
            for kind in [LogKind::Twitter, LogKind::Foursquare] {
                for batch in 0..3 {
                    digest(&generate_delta(&cfg, kind, batch, 100), &mut h);
                }
            }
            assert_eq!(h.finish(), pin, "{} tweets at seed {seed:#x}", cfg.tweets);
        }
    }

    #[test]
    fn generation_is_width_and_morsel_independent() {
        // Tweet counts on both sides of the morsel seams, each generated at
        // three pool widths: the base logs and three twitter and foursquare
        // growth batches of the same size must not move by a byte.
        let before = pool::threads();
        let m = TWEET_MORSEL;
        for tweets in [0, 1, m - 1, m, m + 1, 3 * m + 17] {
            let cfg = LogsConfig {
                tweets,
                ..LogsConfig::tiny()
            };
            let mut reference: Option<Vec<Vec<String>>> = None;
            for t in [1, 2, 8] {
                pool::set_threads(t);
                let corpus = Corpus::generate(&cfg);
                let mut logs: Vec<Vec<String>> = corpus.files().map(|f| f.lines.to_vec()).into();
                for kind in [LogKind::Twitter, LogKind::Foursquare] {
                    for batch in 0..3 {
                        logs.push(generate_delta(&cfg, kind, batch, tweets));
                    }
                }
                match &reference {
                    None => reference = Some(logs),
                    Some(want) => {
                        for (i, (got, want)) in logs.iter().zip(want).enumerate() {
                            assert!(got == want, "{tweets} tweets, log {i}: width {t} ≠ width 1");
                        }
                    }
                }
            }
            pool::set_threads(before);
            // A morsel that starts at the wrong id shows as the first line
            // whose id is not its position.
            let twitter = &reference.expect("three widths")[0];
            assert_eq!(twitter.len(), tweets);
            for (k, line) in twitter.iter().enumerate() {
                let id = parse_json(line)
                    .unwrap()
                    .get_field("tweet_id")
                    .unwrap()
                    .as_i64();
                assert_eq!(id, Some(k as i64), "line {k} (morsel {})", k / m);
            }
        }
    }

    #[test]
    fn lines_are_in_canonical_form() {
        // The lines are written directly, with no `Value` in between: each
        // must be exactly what `to_json` prints for the record it parses to.
        let cfg = LogsConfig::tiny();
        let corpus = Corpus::generate(&cfg);
        let deltas = [LogKind::Twitter, LogKind::Foursquare, LogKind::Landmarks]
            .map(|kind| generate_delta(&cfg, kind, 0, 8));
        let lines = corpus.files().into_iter().flat_map(|f| f.lines.iter());
        for line in lines.chain(deltas.iter().flatten()) {
            assert_eq!(&to_json(&parse_json(line).unwrap()), line);
        }
    }

    #[test]
    fn landmark_batches_list_new_venues() {
        let cfg = LogsConfig::tiny();
        let venue_ids = |lines: &[String]| -> Vec<i64> {
            lines
                .iter()
                .map(|l| {
                    let v = parse_json(l).unwrap();
                    v.get_field("venue_id").unwrap().as_i64().unwrap()
                })
                .collect()
        };
        let base = Corpus::generate(&cfg);
        let mut seen = venue_ids(&base.landmarks.lines);
        assert_eq!(seen, (0..cfg.landmarks as i64).collect::<Vec<_>>());
        // Batches of 6 take the next ids after the base file's 64, until the
        // 80 venues run out: 6, 6, then the last 4, then nothing.
        for (batch, len) in [(0, 6), (1, 6), (2, 4), (3, 0)] {
            let delta = generate_delta(&cfg, LogKind::Landmarks, batch, 6);
            assert_eq!(delta, generate_delta(&cfg, LogKind::Landmarks, batch, 6));
            let ids = venue_ids(&delta);
            assert_eq!(ids.len(), len, "batch {batch}");
            let first = (cfg.landmarks + batch as usize * 6) as i64;
            assert_eq!(ids, (first..first + len as i64).collect::<Vec<_>>());
            seen.extend(ids);
        }
        assert_eq!(seen, (0..cfg.venues as i64).collect::<Vec<_>>());
        // A large request is not silently cut to a fixed size.
        let mut roomy = cfg.clone();
        roomy.venues = 1_000;
        assert_eq!(
            generate_delta(&roomy, LogKind::Landmarks, 0, 500).len(),
            500
        );
    }

    #[test]
    fn size_accounts_for_newlines() {
        let c = Corpus::generate(&LogsConfig::tiny());
        let expected: u64 = c.twitter.lines.iter().map(|l| l.len() as u64 + 1).sum();
        assert_eq!(c.twitter.size.as_bytes(), expected);
        assert_eq!(
            c.total_size(),
            c.twitter.size + c.foursquare.size + c.landmarks.size
        );
    }
}
