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

use crate::json::to_json;
use crate::value::Value;
use miso_common::rng::{DetRng, ZipfSampler};
use miso_common::ByteSize;
use std::sync::Arc;

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
    /// One JSON document per line. Shared: a clone of the file, and a store
    /// the file is registered with, hold the same lines until one of them
    /// changes its copy ([`Arc::make_mut`]).
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
    /// Generates the corpus deterministically from `cfg`.
    pub fn generate(cfg: &LogsConfig) -> Corpus {
        let root = DetRng::new(cfg.seed);
        Corpus {
            twitter: generate_twitter(cfg, root.fork(1)),
            foursquare: generate_foursquare(cfg, root.fork(2)),
            landmarks: generate_landmarks(cfg, root.fork(3)),
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
/// from the base corpus and from other batches.
pub fn generate_delta(cfg: &LogsConfig, kind: LogKind, batch: u64, count: usize) -> Vec<String> {
    let root = DetRng::new(cfg.seed ^ 0xDE17A);
    match kind {
        LogKind::Twitter => Arc::unwrap_or_clone(
            generate_twitter_batch(
                cfg,
                root.fork(batch * 4 + 1),
                cfg.tweets + batch as usize * count,
                count,
            )
            .lines,
        ),
        LogKind::Foursquare => Arc::unwrap_or_clone(
            generate_foursquare_batch(
                cfg,
                root.fork(batch * 4 + 2),
                cfg.checkins + batch as usize * count,
                count,
            )
            .lines,
        ),
        // Landmarks is static reference data; an appended batch models newly
        // listed venues beyond the base id range.
        LogKind::Landmarks => {
            let mut extended = cfg.clone();
            extended.landmarks = (cfg.landmarks + count).min(cfg.venues as usize);
            let full = generate_landmarks(&extended, root.fork(batch * 4 + 3));
            full.lines[cfg.landmarks.min(full.lines.len())..].to_vec()
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

fn generate_twitter(cfg: &LogsConfig, rng: DetRng) -> LogFile {
    generate_twitter_batch(cfg, rng, 0, cfg.tweets)
}

fn generate_twitter_batch(
    cfg: &LogsConfig,
    mut rng: DetRng,
    id_offset: usize,
    count: usize,
) -> LogFile {
    let users = ZipfSampler::new(cfg.users as usize, 0.35);
    let retweets = ZipfSampler::new(1000, 1.3);
    let followers = ZipfSampler::new(100_000, 1.2);
    let mut lines = Vec::with_capacity(count);
    for i in id_offset..id_offset + count {
        let user = users.sample(&mut rng) as i64;
        let n_tags = rng.range_inclusive(0, 3);
        let mut tags = Vec::new();
        for _ in 0..n_tags {
            tags.push(Value::str(*rng.pick(TOPICS)));
        }
        let n_words = rng.range_inclusive(4, 14);
        let mut text = String::new();
        for w in 0..n_words {
            if w > 0 {
                text.push(' ');
            }
            text.push_str(rng.pick(WORDS) as &str);
        }
        // Tweets often mention the topic in prose too, so text-search
        // predicates (`contains(t.text, 'coffee')`) have real selectivity.
        if rng.chance(0.35) {
            text.push(' ');
            text.push_str(rng.pick(TOPICS) as &str);
        }
        let record = Value::object(vec![
            ("tweet_id".into(), Value::Int(i as i64)),
            ("user_id".into(), Value::Int(user)),
            ("ts".into(), Value::Int(rng.below(TIME_SPAN_SECS) as i64)),
            ("text".into(), Value::Str(text)),
            ("hashtags".into(), Value::Array(tags)),
            (
                "retweets".into(),
                Value::Int(retweets.sample(&mut rng) as i64),
            ),
            (
                "followers".into(),
                Value::Int(followers.sample(&mut rng) as i64),
            ),
            ("lang".into(), Value::str(*rng.pick(LANGS))),
            ("city".into(), Value::str(*rng.pick(CITIES))),
            (
                "sentiment".into(),
                Value::Float((rng.f64() * 2.0 - 1.0 + rng.f64() * 0.2).clamp(-1.0, 1.0)),
            ),
        ]);
        lines.push(to_json(&record));
    }
    LogFile::from_lines(LogKind::Twitter, lines)
}

fn generate_foursquare(cfg: &LogsConfig, rng: DetRng) -> LogFile {
    generate_foursquare_batch(cfg, rng, 0, cfg.checkins)
}

fn generate_foursquare_batch(
    cfg: &LogsConfig,
    mut rng: DetRng,
    id_offset: usize,
    count: usize,
) -> LogFile {
    let users = ZipfSampler::new(cfg.users as usize, 0.35);
    let venues = ZipfSampler::new(cfg.venues as usize, 0.7);
    let likes = ZipfSampler::new(200, 1.4);
    let mut lines = Vec::with_capacity(count);
    for i in id_offset..id_offset + count {
        let user = users.sample(&mut rng) as i64;
        let venue = venues.sample(&mut rng) as i64;
        let record = Value::object(vec![
            ("checkin_id".into(), Value::Int(i as i64)),
            ("user_id".into(), Value::Int(user)),
            ("venue_id".into(), Value::Int(venue)),
            ("ts".into(), Value::Int(rng.below(TIME_SPAN_SECS) as i64)),
            ("likes".into(), Value::Int(likes.sample(&mut rng) as i64)),
            ("with_friends".into(), Value::Bool(rng.chance(0.35))),
            ("city".into(), Value::str(*rng.pick(CITIES))),
        ]);
        lines.push(to_json(&record));
    }
    LogFile::from_lines(LogKind::Foursquare, lines)
}

fn generate_landmarks(cfg: &LogsConfig, mut rng: DetRng) -> LogFile {
    let count = cfg.landmarks.min(cfg.venues as usize);
    let mut lines = Vec::with_capacity(count);
    for venue in 0..count {
        let record = Value::object(vec![
            ("venue_id".into(), Value::Int(venue as i64)),
            (
                "name".into(),
                Value::Str(format!("{}_{}", rng.pick(WORDS), venue)),
            ),
            ("category".into(), Value::str(*rng.pick(CATEGORIES))),
            ("city".into(), Value::str(*rng.pick(CITIES))),
            ("lat".into(), Value::Float(25.0 + rng.f64() * 24.0)),
            ("lon".into(), Value::Float(-124.0 + rng.f64() * 54.0)),
            (
                "rating".into(),
                Value::Float((rng.f64() * 4.0 + 1.0 * rng.f64()).clamp(0.5, 5.0)),
            ),
            (
                "price_tier".into(),
                Value::Int(rng.range_inclusive(1, 4) as i64),
            ),
        ]);
        lines.push(to_json(&record));
    }
    LogFile::from_lines(LogKind::Landmarks, lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

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
