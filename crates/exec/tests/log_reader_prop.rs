//! Differential test of the fused log reader: over generated tweets mutated
//! byte by byte, member by member, and in their `hashtags` value,
//! [`parse_log_columns`] builds exactly the columns a reader that parses
//! each line whole ([`parse_json`]), takes the field and casts it would —
//! every field, every cast, the same skip count — and so do the raw
//! columns of the lines lexed in two runs and appended, and those of a log
//! of several morsels at any pool width. Compact tweets — the layout the
//! lexer reads layout-keyed — that depart from a warm layout in one way
//! each (a key's prefix or extension, an escaped key, whitespace at a
//! colon, a value of another kind, rotated members, a member more or less,
//! backslash runs ending at every offset mod 8) are checked the same way,
//! across morsel boundaries too. Cases are seeded [`DetRng`] streams; a
//! failing assert names the seed.

use miso_common::pool;
use miso_common::rng::DetRng;
use miso_data::json::{parse_flat_line, parse_json, to_json, RawColumns};
use miso_data::logs::{Corpus, LogsConfig};
use miso_data::{ColBuilder, Column, DataType, Value};
use miso_exec::col::{columnize, field_columns, parse_log_columns};
use miso_exec::engine::MORSEL_SIZE;
use miso_exec::eval::cast;
use miso_exec::FusedField;

const CASES: u64 = 3_000;

/// Keys of a tweet, and one no line has.
const KEYS: [&str; 11] = [
    "tweet_id",
    "user_id",
    "ts",
    "text",
    "hashtags",
    "retweets",
    "followers",
    "lang",
    "city",
    "sentiment",
    "absent",
];

const CASTS: [Option<DataType>; 6] = [
    None,
    Some(DataType::Int),
    Some(DataType::Float),
    Some(DataType::Str),
    Some(DataType::Bool),
    Some(DataType::Json),
];

/// What a `hashtags` value is replaced with: lists a list column holds,
/// and every shape that keeps it out of one.
const HASHTAGS: [&str; 11] = [
    "[]",
    r#"["x", "é ✓"]"#,
    "[null]",
    r#"["a",1]"#,
    r#"[["pizza"]]"#,
    r#"["a\"b", "c"]"#,
    r#"["café"]"#,
    r#"{"tag": "pizza"}"#,
    r#""pizza""#,
    r#""esc\"aped""#,
    "null",
];

/// Bytes a byte edit writes.
const EDITS: [&str; 13] = [
    "", "[", "]", "{", "}", "\"", "\\", ",", ":", " ", "1", "n", "é",
];

/// The members of a fast-path line, in line order, each value as JSON.
fn members(line: &str) -> Option<Vec<(String, String)>> {
    let flat = parse_flat_line(line)?;
    let members = flat
        .iter()
        .map(|(k, v)| (k.to_string(), to_json(&v.to_value())));
    Some(members.collect()).filter(|m: &Vec<_>| !m.is_empty())
}

fn object(members: &[(String, String)]) -> String {
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `line` with one mutation applied: a byte edit, or — on a line whose
/// members the fast path reads — a member duplicated, the members
/// shuffled, one dropped, or `hashtags` replaced.
fn mutate(rng: &mut DetRng, line: &str) -> String {
    let kind = rng.below(5);
    let Some(mut m) = members(line).filter(|_| kind > 0) else {
        let at: Vec<usize> = line.char_indices().map(|(i, _)| i).collect();
        let Some(&i) = at.get(rng.below(at.len().max(1) as u64) as usize) else {
            return rng.pick(&EDITS).to_string();
        };
        let width = line[i..].chars().next().map_or(0, char::len_utf8);
        let keep = if rng.chance(0.5) { width } else { 0 };
        let edit = rng.pick(&EDITS);
        return format!("{}{edit}{}", &line[..i + keep], &line[i + width..]);
    };
    match kind {
        1 => {
            let dup = m[rng.below(m.len() as u64) as usize].clone();
            let at = rng.below(m.len() as u64 + 1) as usize;
            m.insert(at, dup);
            object(&m)
        }
        2 => {
            for i in (1..m.len()).rev() {
                m.swap(i, rng.below(i as u64 + 1) as usize);
            }
            object(&m)
        }
        3 => {
            m.remove(rng.below(m.len() as u64) as usize);
            object(&m)
        }
        _ => {
            let tags = rng.pick(&HASHTAGS).to_string();
            for (k, v) in &mut m {
                if k == "hashtags" {
                    *v = tags.clone();
                }
            }
            object(&m)
        }
    }
}

/// The columns, and the skip count, of a reader that parses every line
/// whole.
fn parse_whole(lines: &[String], fields: &[FusedField<'_>]) -> (Vec<Column>, u64) {
    let mut builders: Vec<ColBuilder> = fields.iter().map(|_| ColBuilder::new()).collect();
    let mut skipped = 0;
    for line in lines {
        let Ok(doc) = parse_json(line) else {
            skipped += 1;
            continue;
        };
        for (f, b) in fields.iter().zip(&mut builders) {
            let field = doc.get_field(f.key).cloned().unwrap_or(Value::Null);
            b.push_value(match f.ty {
                Some(ty) => cast(field, ty),
                None => field,
            });
        }
    }
    (
        builders.into_iter().map(ColBuilder::finish).collect(),
        skipped,
    )
}

#[test]
fn fused_reader_is_parse_then_cast() {
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let tweets = &corpus.twitter.lines[..64];
    let fields: Vec<FusedField<'_>> = KEYS
        .iter()
        .flat_map(|key| CASTS.map(|ty| FusedField { key, ty }))
        .collect();
    let (mut lists, mut skipped_total) = (0, 0);
    for seed in 0..CASES {
        let mut rng = DetRng::new(0x10c5_0000 + seed);
        let lines: Vec<String> = (0..1 + rng.below(6))
            .map(|_| {
                let line = rng.pick(tweets);
                match rng.below(3) {
                    0 => line.clone(),
                    1 => mutate(&mut rng, line),
                    _ => {
                        let once = mutate(&mut rng, line);
                        mutate(&mut rng, &once)
                    }
                }
            })
            .collect();
        let (batch, skipped) = parse_log_columns(&lines, &fields).expect("the lines parse");
        let (want, want_skipped) = parse_whole(&lines, &fields);
        assert_eq!(skipped, want_skipped, "seed {seed}: {lines:?}");
        assert_eq!(batch.len() as u64 + skipped, lines.len() as u64);
        for ((f, got), want) in fields.iter().zip(batch.columns()).zip(&want) {
            // Debug forms tell NaN payloads and signed zeros apart.
            let same = **got == *want || format!("{got:?}") == format!("{want:?}");
            assert!(
                same,
                "seed {seed}, {f:?}: {got:?} vs {want:?} over {lines:?}"
            );
        }
        // Lexed as two runs, cut anywhere, and appended: the same columns.
        let cut = rng.below(lines.len() as u64 + 1) as usize;
        let mut runs = columnize(&lines[..cut]).expect("the head lexes");
        runs.append(columnize(&lines[cut..]).expect("the tail lexes"));
        let split = field_columns(&runs, &fields);
        assert!(
            split == batch || format!("{split:?}") == format!("{batch:?}"),
            "seed {seed}"
        );
        lists += usize::from(matches!(
            *batch.columns()[4 * CASTS.len()],
            Column::StrList(..)
        ));
        skipped_total += skipped;
    }
    // The mutations reach both the list column and malformed lines.
    assert!(
        lists > 0 && skipped_total > 0,
        "{lists} lists, {skipped_total} skipped"
    );
}

/// The keys any well-formed line of `lines` has, per the strict parser.
fn strict_keys(lines: &[String]) -> Vec<String> {
    let mut keys: Vec<String> = Vec::new();
    for doc in lines.iter().filter_map(|line| parse_json(line).ok()) {
        if let Value::Object(members) = doc {
            keys.extend(members.into_iter().map(|(k, _)| k));
        }
    }
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// `line`, an object, with `members` added at its end.
fn with(line: &str, members: &str) -> String {
    let body = line.trim_end().strip_suffix('}').expect("an object line");
    format!("{body}, {members}}}")
}

/// Two and a half morsels of tweets, one in fifty mutated, with members
/// planted that the one pass must place: a key first seen mid-log, a key
/// only a strict line has (its name escaped), a key only the last morsel
/// has, duplicate keys, and fields whose type changes across a morsel
/// boundary — a new key turning Float then Str, and a typed `retweets`
/// turned Str by a duplicate.
fn planted_log(tweets: &[String]) -> Vec<String> {
    let mut rng = DetRng::new(0x10c5_f00d);
    let n = 2 * MORSEL_SIZE + MORSEL_SIZE / 2;
    let mut lines: Vec<String> = (0..n)
        .map(|i| {
            let line = &tweets[i % tweets.len()];
            if rng.chance(0.02) {
                mutate(&mut rng, line)
            } else {
                line.clone()
            }
        })
        .collect();
    let plants: [(usize, &str); 12] = [
        (100, r#""mid_key": 1"#),
        (3000, r#""mid_key": 2"#),
        (200, r#""str\u0069ct_key": "x\"y""#),
        (300, r#""dup": 1, "dup": "two""#),
        (301, r#""dup": [1], "dup": null"#),
        (2 * MORSEL_SIZE + 50, r#""late_key": ["a"]"#),
        (2 * MORSEL_SIZE + 60, r#""late_key": true"#),
        (MORSEL_SIZE - 2, r#""shift": 7"#),
        (MORSEL_SIZE + 2, r#""shift": 7.5"#),
        (2 * MORSEL_SIZE - 1, r#""shift": "seven""#),
        (MORSEL_SIZE + 5, r#""retweets": "many""#),
        (2 * MORSEL_SIZE + 3, r#""retweets": 2.5"#),
    ];
    for (at, members) in plants {
        lines[at] = with(&tweets[at % tweets.len()], members);
    }
    lines
}

/// The one pass over a log of several morsels, at pool widths 1 and 8:
/// for every key of the log (and one it lacks) under every cast, the column
/// served is the strict path's — each line parsed whole, the field taken
/// and cast through one builder — with the strict path's skip count; and
/// the log lexed as a head and a tail, cut anywhere and appended, keeps the
/// same raw columns.
#[test]
fn one_pass_across_morsels_is_parse_then_cast() {
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let lines = planted_log(&corpus.twitter.lines);
    let mut keys = strict_keys(&lines);
    for key in [
        "mid_key",
        "strict_key",
        "late_key",
        "dup",
        "shift",
        "tweet_id",
    ] {
        assert!(keys.iter().any(|k| k == key), "`{key}` planted");
    }
    let width = keys.len();
    keys.push("absent".to_string());
    let fields: Vec<FusedField<'_>> = keys
        .iter()
        .flat_map(|key| CASTS.map(|ty| FusedField { key, ty }))
        .collect();
    let (want, want_skipped) = parse_whole(&lines, &fields);
    assert!(want_skipped > 0, "the mutations reach malformed lines");
    let was = pool::threads();
    for threads in [1, 8] {
        pool::set_threads(threads);
        let raw = columnize(&lines).expect("the log lexes");
        assert_eq!((raw.width(), raw.skipped()), (width, want_skipped));
        let got = field_columns(&raw, &fields);
        assert_eq!(got.len() as u64 + want_skipped, lines.len() as u64);
        for ((f, got), want) in fields.iter().zip(got.columns()).zip(&want) {
            let same = **got == *want || format!("{got:?}") == format!("{want:?}");
            assert!(same, "{threads} threads, {f:?}");
        }
        let shift = raw.column("shift").expect("planted");
        assert!(matches!(**shift, Column::Mixed(..)), "Int, Float, Str");
        let cuts = [
            0,
            1,
            250,
            MORSEL_SIZE,
            MORSEL_SIZE + 3,
            2 * MORSEL_SIZE + 55,
        ];
        for cut in cuts.into_iter().chain([lines.len()]) {
            let mut grown = columnize(&lines[..cut]).expect("the head lexes");
            grown.append(columnize(&lines[cut..]).expect("the tail lexes"));
            assert_same_raw(
                &grown,
                &raw,
                &keys,
                &format!("{threads} threads, cut {cut}"),
            );
        }
    }
    pool::set_threads(was);
}

/// `a` and `b` hold the same rows, skips and columns under `keys`.
fn assert_same_raw(a: &RawColumns, b: &RawColumns, keys: &[String], what: &str) {
    assert_eq!(
        (a.width(), a.rows(), a.skipped()),
        (b.width(), b.rows(), b.skipped())
    );
    for key in keys {
        let (x, y) = (a.column(key), b.column(key));
        assert_eq!(format!("{x:?}"), format!("{y:?}"), "{what}: `{key}`");
    }
}

/// `members` as the generator writes them: no space after a colon or a
/// comma — the layout the lexer's layout-keyed path reads.
fn compact(members: &[(String, String)]) -> String {
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Values that replace a member's: another kind than the tweet's, or its
/// kind in a form a typed column does not take as it stands.
const OTHER_VALUES: [&str; 14] = [
    r#""12""#,
    r#""""#,
    r#""esc\"aped""#,
    "1.5",
    "7",
    "-0",
    "1e3",
    "null",
    "true",
    "false",
    "[]",
    "[1]",
    r#"["x","y"]"#,
    r#"{"a":1}"#,
];

/// How many kinds of departure [`deviate`] makes.
const DEVIATIONS: u64 = 9;

/// `line`, a generated tweet, departing from its own layout in one way,
/// written compactly: a key that is a prefix or an extension of its own, a
/// key escaped so that it decodes to its own, whitespace between a key and
/// its colon (or after it), a value of another kind, the members rotated,
/// one member more or one less, or a run of one to four backslashes
/// closed by a quote, ending at any offset mod 8 of a string value.
fn deviate(rng: &mut DetRng, line: &str, kind: u64) -> String {
    let mut m = members(line).expect("a generated tweet");
    assert_eq!(compact(&m), line, "the generator writes compact lines");
    let at = rng.below(m.len() as u64) as usize;
    let key = m[at].0.clone();
    match kind {
        0 => m[at].0 = key[..key.len() - 1].to_string(),
        1 => m[at].0 = format!("{key}{}", rng.pick(&["_", "s", "é"])),
        2 => {
            let i = rng.below(key.len() as u64) as usize;
            let escaped = format!("\\u{:04x}", key.as_bytes()[i]);
            m[at].0 = format!("{}{escaped}{}", &key[..i], &key[i + 1..]);
        }
        3 => {
            let sep = rng.pick(&[" :", "\t:", " : ", ":\n", ":  "]);
            let body: Vec<String> = m
                .iter()
                .enumerate()
                .map(|(i, (k, v))| match i == at {
                    true => format!("\"{k}\"{sep}{v}"),
                    false => format!("\"{k}\":{v}"),
                })
                .collect();
            return format!("{{{}}}", body.join(","));
        }
        4 => m[at].1 = rng.pick(&OTHER_VALUES).to_string(),
        5 => {
            let by = 1 + rng.below(m.len() as u64 - 1) as usize;
            m.rotate_left(by);
        }
        6 => {
            let extra = match rng.below(2) {
                0 => ("extra".to_string(), "1".to_string()),
                _ => m[at].clone(),
            };
            m.insert(rng.below(m.len() as u64 + 1) as usize, extra);
        }
        7 => {
            m.remove(at);
        }
        _ => {
            let (j, k) = (rng.below(8) as usize, 1 + rng.below(4) as usize);
            let tail = rng.pick(&["", "x\""]);
            let text = format!("\"{}{}\"{tail}", "a".repeat(j), "\\".repeat(k));
            let key = *rng.pick(&["city", "lang", "text", "hashtags"]);
            let (k, v) = m
                .iter_mut()
                .find(|(k, _)| k == key)
                .expect("a tweet has every string member");
            *v = if k == "hashtags" {
                format!("[\"a\",{text}]")
            } else {
                text
            };
        }
    }
    compact(&m)
}

/// The columns of `lines` under every key the strict parser finds (and one
/// it does not) and every cast equal the strict path's, with its skip
/// count; and so do the runs of `lines` cut every `run` lines, lexed one by
/// one and joined.
fn assert_parse_then_cast(lines: &[String], run: usize, what: &str) {
    let mut keys = strict_keys(lines);
    keys.push("absent".to_string());
    let fields: Vec<FusedField<'_>> = keys
        .iter()
        .flat_map(|key| CASTS.map(|ty| FusedField { key, ty }))
        .collect();
    let (want, want_skipped) = parse_whole(lines, &fields);
    let (got, skipped) = parse_log_columns(lines, &fields).expect("the lines parse");
    assert_eq!(skipped, want_skipped, "{what}: {lines:?}");
    for ((f, got), want) in fields.iter().zip(got.columns()).zip(&want) {
        let same = **got == *want || format!("{got:?}") == format!("{want:?}");
        assert!(same, "{what}, {f:?}: {got:?} vs {want:?} over {lines:?}");
    }
    let runs = RawColumns::concat(lines.chunks(run).map(RawColumns::lex).collect());
    let one = RawColumns::lex(lines);
    assert_same_raw(&runs, &one, &keys, &format!("{what}, runs of {run}"));
}

/// Compact tweets with departures from their layout interleaved, so that
/// the layout is warm when each one comes: every column under every cast
/// is the strict path's, lexed in one run or cut anywhere.
#[test]
fn layout_deviations_are_parse_then_cast() {
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let tweets = &corpus.twitter.lines[..64];
    let mut kinds = [0; DEVIATIONS as usize];
    for seed in 0..CASES / 3 {
        let mut rng = DetRng::new(0x1a10_0000 + seed);
        let lines: Vec<String> = (0..4 + rng.below(12))
            .map(|_| {
                let line = rng.pick(tweets);
                if rng.chance(0.3) {
                    let kind = rng.below(DEVIATIONS);
                    kinds[kind as usize] += 1;
                    deviate(&mut rng, line, kind)
                } else {
                    line.clone()
                }
            })
            .collect();
        let run = 1 + rng.below(lines.len() as u64) as usize;
        assert_parse_then_cast(&lines, run, &format!("seed {seed}"));
    }
    assert!(kinds.iter().all(|&n| n > 30), "{kinds:?}");
}

/// A log of two and a half morsels with a departure from the layout on
/// each side of both morsel boundaries and one in every forty lines: the
/// strict path's columns at pool widths 1 and 8.
#[test]
fn layout_deviations_across_morsels() {
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let tweets = &corpus.twitter.lines;
    let mut rng = DetRng::new(0x1a10_f00d);
    let edges = [
        MORSEL_SIZE - 1,
        MORSEL_SIZE,
        2 * MORSEL_SIZE - 1,
        2 * MORSEL_SIZE,
    ];
    let lines: Vec<String> = (0..2 * MORSEL_SIZE + MORSEL_SIZE / 2)
        .map(|i| {
            let line = &tweets[i % tweets.len()];
            if edges.contains(&i) || i % 40 == 17 {
                let kind = rng.below(DEVIATIONS);
                deviate(&mut rng, line, kind)
            } else {
                line.clone()
            }
        })
        .collect();
    let was = pool::threads();
    for threads in [1, 8] {
        pool::set_threads(threads);
        assert_parse_then_cast(&lines, MORSEL_SIZE, &format!("{threads} threads"));
    }
    pool::set_threads(was);
}
