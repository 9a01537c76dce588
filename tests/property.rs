//! Generated-input tests over the core data structures and algorithmic
//! invariants.
//!
//! Every property runs a fixed number of cases, each from its own
//! [`DetRng`] seed, so a run replays bit for bit; a failing assert names the
//! seed. There is no shrinker: rerun the one seed under a debugger.

use miso::common::rng::DetRng;
use miso::common::ByteSize;
use miso::core::{m_knapsack, PackItem};
use miso::data::json::{parse_json, to_json};
use miso::data::Value;
use miso::plan::split::enumerate_splits;
use miso::plan::{AggExpr, AggFunc, Expr, LogicalPlan, Operator, PlanBuilder};
use miso::views::decay_weights;

/// Runs `case` once per seed, `cases` times.
fn for_seeds(cases: u64, mut case: impl FnMut(u64, &mut DetRng)) {
    for seed in 0..cases {
        case(seed, &mut DetRng::new(0x5eed_0000 + seed));
    }
}

fn pick_char(rng: &mut DetRng, alphabet: &str) -> char {
    let chars: Vec<char> = alphabet.chars().collect();
    *rng.pick(&chars)
}

/// A string of up to `max_len` characters of `alphabet`.
fn arb_string(rng: &mut DetRng, alphabet: &str, max_len: u64) -> String {
    (0..rng.below(max_len + 1))
        .map(|_| pick_char(rng, alphabet))
        .collect()
}

/// Up to 64 printable characters: JSON punctuation and literals mostly, any
/// non-control scalar value otherwise.
fn arb_garbage(rng: &mut DetRng) -> String {
    (0..rng.below(65))
        .filter_map(|_| {
            if rng.chance(0.7) {
                Some(pick_char(rng, "{}[]\",:\\ 0123456789eE.-+truefalsn=;@äö€"))
            } else {
                char::from_u32(rng.below(0x11_0000) as u32).filter(|c| !c.is_control())
            }
        })
        .collect()
}

// ---- JSON round-trips -------------------------------------------------

/// A JSON value nested at most `depth` containers deep.
fn arb_value(rng: &mut DetRng, depth: u32) -> Value {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.below(kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::Int(rng.next_u64() as i64),
        // Finite floats only: non-finite serialize to null by design.
        3 => Value::Float((rng.f64() - 0.5) * 2e15),
        4 => Value::str(arb_string(rng, "abcXYZ019 _äöü€", 24)),
        5 => Value::Array(
            (0..rng.below(5))
                .map(|_| arb_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::object(
            (0..rng.below(5))
                .map(|_| {
                    let key = format!("k{}", arb_string(rng, "abcdefgh", 7));
                    (key, arb_value(rng, depth - 1))
                })
                .collect(),
        ),
    }
}

#[test]
fn json_roundtrip() {
    for_seeds(256, |seed, rng| {
        let v = arb_value(rng, 3);
        let back = parse_json(&to_json(&v)).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // Floats that happen to be integral parse back as Int; Value's
        // cross-type equality makes this comparison still exact.
        assert_eq!(back, v, "seed {seed}");
    });
}

#[test]
fn json_never_panics_on_garbage() {
    for_seeds(512, |_, rng| {
        let _ = parse_json(&arb_garbage(rng));
    });
}

// ---- Value ordering is a total order -----------------------------------

#[test]
fn value_ordering_is_total_and_antisymmetric() {
    use std::cmp::Ordering;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let hash = |v: &Value| {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    };
    for_seeds(256, |seed, rng| {
        // Shallow values collide often enough to reach the equal branches.
        let depth = rng.below(3) as u32;
        let (a, b, c) = (
            arb_value(rng, depth),
            arb_value(rng, depth),
            arb_value(rng, depth),
        );
        assert_eq!(a.cmp(&b), b.cmp(&a).reverse(), "seed {seed}: antisymmetry");
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            assert_ne!(a.cmp(&c), Ordering::Greater, "seed {seed}: transitivity");
        }
        if a == b {
            assert_eq!(hash(&a), hash(&b), "seed {seed}: equal values hash alike");
        }
        assert_eq!(hash(&a), hash(&a.clone()), "seed {seed}");
    });
}

// ---- Knapsack optimality vs brute force ---------------------------------

#[test]
fn knapsack_matches_brute_force() {
    for_seeds(64, |seed, rng| {
        let items: Vec<PackItem> = (0..rng.below(10))
            .map(|i| PackItem {
                views: vec![format!("v{i}")],
                storage_units: rng.below(6),
                transfer_units: rng.below(4),
                benefit: rng.f64() * 100.0,
            })
            .collect();
        let (storage, transfer) = (rng.below(12), rng.below(8));
        let dp = m_knapsack(&items, storage, transfer);
        let mut best = 0.0f64;
        for mask in 0u32..(1 << items.len()) {
            let chosen = || {
                items
                    .iter()
                    .enumerate()
                    .filter(move |(i, _)| mask & (1 << i) != 0)
                    .map(|(_, item)| item)
            };
            let s: u64 = chosen().map(|i| i.storage_units).sum();
            let t: u64 = chosen().map(|i| i.transfer_units).sum();
            if s <= storage && t <= transfer {
                best = best.max(chosen().map(|i| i.benefit).sum());
            }
        }
        assert!(
            (dp.benefit - best).abs() < 1e-9,
            "seed {seed}: dp {} vs brute {best}",
            dp.benefit
        );
        assert!(dp.storage_used <= storage, "seed {seed}");
        assert!(dp.transfer_used <= transfer, "seed {seed}");
    });
}

// ---- Split enumeration invariants ---------------------------------------

/// A random linear-with-one-join plan shape.
fn arb_plan(rng: &mut DetRng) -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let chain = |b: &mut PlanBuilder, log: &str, filters: u64| {
        let mut node = b
            .add(Operator::ScanLog { log: log.into() }, vec![])
            .unwrap();
        for i in 0..filters {
            let predicate = Expr::col(0).eq(Expr::lit(i as i64));
            node = b.add(Operator::Filter { predicate }, vec![node]).unwrap();
        }
        node
    };
    let mut node = chain(&mut b, "twitter", 1 + rng.below(3));
    if rng.chance(0.5) {
        let right = chain(&mut b, "foursquare", rng.below(3));
        node = b
            .add(Operator::Join { on: vec![(0, 0)] }, vec![node, right])
            .unwrap();
    }
    let agg = b
        .add(
            Operator::Aggregate {
                group_by: vec![],
                aggs: vec![AggExpr::new(AggFunc::Count, None, "n")],
            },
            vec![node],
        )
        .unwrap();
    b.finish(agg).unwrap()
}

#[test]
fn enumerated_splits_are_valid_unique_and_include_hv_only() {
    for_seeds(64, |seed, rng| {
        let p = arb_plan(rng);
        let splits = enumerate_splits(&p);
        assert!(!splits.is_empty(), "seed {seed}");
        for (i, s) in splits.iter().enumerate() {
            assert!(s.validate(&p).is_ok(), "seed {seed}");
            assert!(!splits[i + 1..].contains(s), "seed {seed}: duplicate split");
            // Cut working sets are exactly the HV nodes feeding DW nodes.
            for cut in s.cut_nodes(&p) {
                assert!(s.in_hv(cut), "seed {seed}");
            }
        }
        assert!(splits.iter().any(|s| s.is_hv_only(&p)), "seed {seed}");
    });
}

// ---- Decay weights -------------------------------------------------------

#[test]
fn decay_weights_are_monotone_and_bounded() {
    for_seeds(256, |seed, rng| {
        let n = rng.below(40) as usize;
        let epoch = 1 + rng.below(7) as usize;
        let decay = 0.05 + rng.f64() * 0.95;
        let w = decay_weights(n, epoch, decay);
        assert_eq!(w.len(), n, "seed {seed}");
        for pair in w.windows(2) {
            assert!(
                pair[0] <= pair[1] + 1e-12,
                "seed {seed}: weights increase toward now"
            );
        }
        assert!(w.iter().all(|&x| x > 0.0 && x <= 1.0), "seed {seed}");
        if let Some(last) = w.last() {
            assert!((last - 1.0).abs() < 1e-12, "seed {seed}");
        }
    });
}

// ---- ByteSize discretization ----------------------------------------------

#[test]
fn units_ceil_overcharges_but_never_undercharges() {
    for_seeds(256, |seed, rng| {
        let bytes = rng.below(1_000_000);
        let unit = ByteSize::from_kib(1 + rng.below(127));
        let units = ByteSize::from_bytes(bytes).units_ceil(unit);
        assert!(units * unit.as_bytes() >= bytes, "seed {seed}");
        assert!(
            units.saturating_sub(1) * unit.as_bytes() < bytes || bytes == 0,
            "seed {seed}"
        );
    });
}

// ---- Retry backoff --------------------------------------------------------

#[test]
fn backoff_is_bounded_and_replayable() {
    use miso::common::{RetryPolicy, SimDuration};
    for_seeds(256, |seed, rng| {
        let policy = RetryPolicy {
            max_retries: 4,
            base_delay: SimDuration::from_millis(1 + rng.below(9_999)),
            multiplier: 1.0 + rng.f64() * 3.0,
            max_delay: SimDuration::from_millis(1 + rng.below(599_999)),
            jitter: rng.f64(),
        };
        let attempt = 1 + rng.below(11) as u32;
        let stream = rng.next_u64();
        let a = policy.backoff(attempt, &mut DetRng::new(stream));
        let b = policy.backoff(attempt, &mut DetRng::new(stream));
        assert_eq!(a, b, "seed {seed}: same seed must replay the same backoff");
        let ceiling = policy.max_delay.as_secs_f64() * (1.0 + policy.jitter) + 1e-9;
        assert!(
            a.as_secs_f64() <= ceiling,
            "seed {seed}: backoff exceeds jittered cap"
        );
    });
}

// ---- Query guard memory accounting ------------------------------------------

/// Random charge/release interleavings never drive the recorded peak past
/// the budget (refused charges are not recorded) and never let the gauge
/// outrun its own high-water mark.
#[test]
fn guard_peak_never_exceeds_budget() {
    use miso::common::QueryGuard;
    for_seeds(256, |seed, rng| {
        let budget = 1 + rng.below(9_999);
        let guard = QueryGuard::new(None, budget);
        for _ in 0..rng.below(64) {
            let n = 1 + rng.below(3_999);
            if rng.chance(0.5) {
                let _ = guard.try_charge(n);
            } else {
                guard.release(n);
            }
        }
        assert!(
            guard.peak() <= budget,
            "seed {seed}: peak {} > budget {budget}",
            guard.peak()
        );
        assert!(guard.used() <= guard.peak(), "seed {seed}");
    });
}

// ---- Chaos spec parsing ----------------------------------------------------

#[test]
fn chaos_spec_parser_never_panics() {
    for_seeds(512, |_, rng| {
        let _ = miso::chaos::parse_spec(&arb_garbage(rng));
    });
}

#[test]
fn chaos_spec_roundtrips_structured_rules() {
    for_seeds(128, |case, rng| {
        let seed = rng.next_u64();
        let p = 0.01 + rng.f64() * 0.98;
        let n = 1 + rng.below(99);
        let spec = format!("seed={seed};dw.execute=error@p{p:.2};reorg.step=crash@n{n}");
        let plan = miso::chaos::parse_spec(&spec).unwrap_or_else(|e| panic!("seed {case}: {e}"));
        assert_eq!(plan.seed, seed, "seed {case}");
        assert_eq!(plan.rules.len(), 2, "seed {case}");
        assert_eq!(
            plan.rules[1].trigger,
            miso::chaos::Trigger::OnHit(n),
            "seed {case}"
        );
    });
}

// ---- Content checksums ------------------------------------------------------

mod checksum_stability {
    use super::*;
    use miso::data::checksum::{checksum_batch, checksum_row, checksum_rows, corrupt_first_cell};
    use miso::data::{ColBatch, Row};
    use std::sync::Arc;

    fn arb_row(rng: &mut DetRng) -> Row {
        let arity = rng.below(5);
        arb_row_of(rng, arity)
    }

    fn arb_row_of(rng: &mut DetRng, arity: u64) -> Row {
        Row::new(
            (0..arity)
                .map(|_| match rng.below(5) {
                    0 => Value::Null,
                    1 => Value::Bool(rng.chance(0.5)),
                    2 => Value::Int(rng.next_u64() as i64),
                    3 => Value::Float((rng.f64() - 0.5) * 2e12),
                    _ => Value::str(arb_string(rng, "abcxyz019 ", 12)),
                })
                .collect(),
        )
    }

    fn arb_rows(rng: &mut DetRng) -> Vec<Row> {
        (0..rng.below(12)).map(|_| arb_row(rng)).collect()
    }

    /// The digest covers the row *multiset*: any emission order (a
    /// recomputed view, a different engine) produces the same checksum.
    #[test]
    fn checksum_is_order_insensitive() {
        for_seeds(256, |seed, rng| {
            let rows = arb_rows(rng);
            let expected = checksum_rows(&rows);
            let mut shuffled = rows.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.below(i as u64 + 1) as usize);
            }
            assert_eq!(checksum_rows(&shuffled), expected, "seed {seed}");
            let mut reversed = rows;
            reversed.reverse();
            assert_eq!(checksum_rows(&reversed), expected, "seed {seed}");
        });
    }

    /// The digest depends only on row *content* — rebuilding every row
    /// from fresh allocations (as a store in another process would)
    /// replays it exactly. Together with the pinned reference digest in
    /// the unit tests this is what makes a materialization-time
    /// checksum comparable after a transfer between stores.
    #[test]
    fn checksum_is_content_only() {
        for_seeds(256, |seed, rng| {
            let rows = arb_rows(rng);
            let rebuilt: Vec<Row> = rows.iter().map(|r| Row::new(r.values().to_vec())).collect();
            assert_eq!(checksum_rows(&rebuilt), checksum_rows(&rows), "seed {seed}");
            for (a, b) in rows.iter().zip(&rebuilt) {
                assert_eq!(checksum_row(a), checksum_row(b), "seed {seed}");
            }
        });
    }

    /// The simulated bit-rot helper always changes the multiset digest
    /// (that is its contract: undetectable corruption injection would
    /// silently weaken every integrity test built on it), and it must
    /// not touch other handles to the same shared batch.
    #[test]
    fn injected_corruption_always_changes_the_checksum() {
        for_seeds(256, |seed, rng| {
            let arity = 1 + rng.below(4);
            let rows: Vec<Row> = (0..1 + rng.below(12))
                .map(|_| arb_row_of(rng, arity))
                .collect();
            let clean = checksum_rows(&rows);
            let shipped = Arc::new(ColBatch::from_rows(&rows).expect("one arity"));
            let mut replica = Arc::clone(&shipped);
            assert!(corrupt_first_cell(&mut replica), "seed {seed}");
            assert_ne!(checksum_batch(&replica), clean, "seed {seed}");
            assert_ne!(checksum_rows(&replica.to_rows()), clean, "seed {seed}");
            // Copy-on-write: the already-shipped copy stays pristine.
            assert_eq!(checksum_batch(&shipped), clean, "seed {seed}");
        });
    }

    /// Dropped duplicates are detected: the final mix binds the row
    /// count, so losing one copy of a repeated row changes the digest
    /// even though a plain XOR/sum of row digests could cancel.
    #[test]
    fn checksum_binds_the_row_count() {
        for_seeds(256, |seed, rng| {
            let row = arb_row(rng);
            let copies = 1 + rng.below(5) as usize;
            let rows = vec![row; copies];
            assert_ne!(
                checksum_rows(&rows[..copies - 1]),
                checksum_rows(&rows),
                "seed {seed}"
            );
        });
    }
}

// ---- Reorganization crash safety -------------------------------------------

/// Crash injection at a random journal step must never lose a view, break
/// the DW budget, or change query answers. The chaos registry is global and
/// this is the one test of this binary that runs a system, so nothing else
/// here can reach the fail point it arms.
mod reorg_crash_safety {
    use super::*;
    use miso::chaos::{FaultKind, FaultPlan, FaultRule, Trigger};
    use miso::common::Budgets;
    use miso::core::{MultistoreSystem, SystemConfig, Variant};
    use miso::data::logs::{Corpus, LogsConfig};
    use miso::workload::{standard_udfs, workload_catalog};

    fn budgets() -> Budgets {
        Budgets::new(
            ByteSize::from_mib(32),
            ByteSize::from_mib(4),
            ByteSize::from_mib(2),
        )
        .with_discretization(ByteSize::from_kib(16))
    }

    fn system(corpus: &Corpus) -> MultistoreSystem {
        MultistoreSystem::new(
            corpus,
            workload_catalog(),
            standard_udfs(),
            SystemConfig::paper_default(budgets()),
        )
    }

    #[test]
    fn any_crash_point_recovers() {
        let corpus = Corpus::generate(&LogsConfig::tiny());
        let catalog = workload_catalog();
        let queries: Vec<(String, LogicalPlan)> = [
            "SELECT t.city AS city, COUNT(*) AS n, AVG(t.sentiment) AS mood \
             FROM twitter t WHERE t.followers > 50 GROUP BY t.city",
            "SELECT l.category AS cat, COUNT(*) AS n \
             FROM foursquare f JOIN landmarks l ON f.venue_id = l.venue_id \
             WHERE f.likes > 1 GROUP BY l.category",
            "SELECT b.city AS city, MAX(b.buzz) AS peak \
             FROM APPLY(buzz_score, twitter) b WHERE b.buzz > 0.1 GROUP BY b.city",
            "SELECT t.city AS city, COUNT(*) AS n, AVG(t.sentiment) AS mood \
             FROM twitter t WHERE t.followers > 50 GROUP BY t.city \
             ORDER BY mood DESC LIMIT 3",
        ]
        .iter()
        .enumerate()
        .map(|(i, sql)| (format!("q{i}"), miso::lang::compile(sql, &catalog).unwrap()))
        .collect();
        let clean = system(&corpus)
            .run_workload(Variant::MsMiso, &queries)
            .unwrap();
        let clean_rows: Vec<u64> = clean.records.iter().map(|r| r.result_rows).collect();

        let mut crashed = 0;
        for_seeds(16, |seed, rng| {
            let step = 1 + rng.below(47);
            miso::chaos::install(FaultPlan::seeded(rng.next_u64()).with_rule(FaultRule::new(
                "reorg.step",
                FaultKind::Crash,
                Trigger::OnHit(step),
            )));
            let mut sys = system(&corpus);
            let result = sys.run_workload(Variant::MsMiso, &queries);
            miso::chaos::disable();
            crashed += u64::from(miso::chaos::hit_count("reorg.step") >= step);
            let what = format!("seed {seed}, crash at step {step}");
            let faulted = result.unwrap_or_else(|e| panic!("{what} leaked to the caller: {e}"));
            let rows: Vec<u64> = faulted.records.iter().map(|r| r.result_rows).collect();
            assert_eq!(rows, clean_rows, "{what} changed answers");
            for name in sys.catalog.names() {
                assert!(
                    sys.resident(&name),
                    "{what}: view `{name}` lost from both stores"
                );
            }
            assert!(sys.dw.views.total_bytes() <= budgets().dw_storage, "{what}");
        });
        assert!(crashed > 0, "no case reached its crash step");
    }
}

// ---- Deterministic RNG -----------------------------------------------------

#[test]
fn det_rng_streams_replay_and_stay_in_range() {
    for_seeds(256, |seed, rng| {
        let stream = rng.next_u64();
        let (mut a, mut b) = (DetRng::new(stream), DetRng::new(stream));
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64(), "seed {seed}");
        }
        let bound = 1 + rng.below(999_999);
        for _ in 0..16 {
            assert!(a.below(bound) < bound, "seed {seed}");
        }
    });
}
