//! Every switch has one owner. The process-level ones are the three `MISO_*`
//! environment names README's knob table lists and nothing else in the tree;
//! everything else is a field of the configuration a system is built with,
//! so differently configured systems share a process without seeing each
//! other.

use miso::common::{Budgets, ByteSize};
use miso::core::{GuardConfig, MultistoreSystem, SystemConfig, Variant};
use miso::data::logs::{Corpus, LogsConfig};
use miso::lang::compile;
use miso::workload::{standard_udfs, workload_catalog};
use std::collections::BTreeSet;
use std::path::Path;

/// Every `MISO_[A-Z_]+` name in `text`. The paper's algorithm is called
/// MISO_TUNE; it names no switch.
fn switch_names(text: &str, into: &mut BTreeSet<String>) {
    let mut rest = text;
    while let Some(at) = rest.find("MISO_") {
        let name: String = rest[at..]
            .chars()
            .take_while(|c| c.is_ascii_uppercase() || *c == '_')
            .collect();
        rest = &rest[at + name.len()..];
        let name = name.trim_end_matches('_');
        if name.len() > "MISO".len() && name != "MISO_TUNE" {
            into.insert(name.to_string());
        }
    }
}

fn scan(dir: &Path, into: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("source directory reads") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            scan(&path, into);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "sh" | "toml")
        ) {
            switch_names(&std::fs::read_to_string(&path).expect("source reads"), into);
        }
    }
}

#[test]
fn the_tree_and_the_readme_name_the_same_switches() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut in_tree = BTreeSet::new();
    for dir in ["crates", "src", "tests", "examples", "scripts"] {
        scan(&root.join(dir), &mut in_tree);
    }
    let three: BTreeSet<String> = ["MISO_OBS", "MISO_THREADS", "MISO_TRACE"]
        .map(String::from)
        .into();
    assert_eq!(in_tree, three, "switches named in the tree");

    let readme = std::fs::read_to_string(root.join("README.md")).expect("README reads");
    let mut in_table = BTreeSet::new();
    for row in readme.lines().filter(|l| l.starts_with("| `MISO_")) {
        let first_cell = row.split('|').nth(1).expect("a table row has cells");
        switch_names(first_cell, &mut in_table);
    }
    assert_eq!(in_table, three, "rows of README's knob table");
}

fn system(corpus: &Corpus, verify_on_read: bool, guard: GuardConfig) -> MultistoreSystem {
    let budgets = Budgets::new(
        ByteSize::from_mib(16),
        ByteSize::from_mib(2),
        ByteSize::from_mib(1),
    )
    .with_discretization(ByteSize::from_kib(16));
    let mut config = SystemConfig::paper_default(budgets);
    config.verify_on_read = verify_on_read;
    config.guard = guard;
    MultistoreSystem::new(corpus, workload_catalog(), standard_udfs(), config)
}

/// Stored HV copies that no longer match their catalog checksum.
fn corrupt_copies(sys: &MultistoreSystem) -> usize {
    let bad = |d: &&miso::views::ViewDef| {
        d.checksum
            .is_some_and(|sum| sys.hv.views.verify(&d.name, sum) == Some(false))
    };
    sys.catalog.defs().into_iter().filter(bad).count()
}

/// Two systems in one process, one verifying reads and unguarded, the other
/// trusting reads and guarded, run turn by turn — with a third, configured
/// the other way round on both counts, built in between: each catches (or
/// misses) corruption and charges (or does not charge) a guard as its own
/// configuration says.
#[test]
fn two_systems_in_one_process_each_follow_their_own_config() {
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let q = compile(
        "SELECT t.city AS c, COUNT(*) AS n FROM twitter t WHERE t.followers > 1 GROUP BY t.city",
        &workload_catalog(),
    )
    .unwrap();
    let observing = GuardConfig {
        enabled: true,
        ..GuardConfig::disabled()
    };
    let mut verifying = system(&corpus, true, GuardConfig::disabled());
    let first = verifying
        .run_workload(Variant::HvOp, &[("q0".into(), q.clone())])
        .unwrap();
    let mut trusting = system(&corpus, false, observing.clone());
    trusting
        .run_workload(Variant::HvOp, &[("q0".into(), q.clone())])
        .unwrap();

    // The same silent corruption in both: every harvested view.
    for sys in [&mut verifying, &mut trusting] {
        let names = sys.hv.view_names();
        assert!(!names.is_empty(), "q0 left views behind");
        for name in &names {
            assert!(sys.hv.views.corrupt(name));
        }
    }
    let corrupted = corrupt_copies(&verifying);
    assert!(corrupted > 0);
    assert_eq!(corrupt_copies(&trusting), corrupted);

    drop(system(&corpus, false, observing));
    let again = verifying
        .run_workload(Variant::HvOp, &[("q1".into(), q.clone())])
        .unwrap();
    drop(system(&corpus, true, GuardConfig::disabled()));
    trusting
        .run_workload(Variant::HvOp, &[("q1".into(), q)])
        .unwrap();

    // Verifying, unguarded: the view q1 would have read was caught and
    // dropped or repaired, the answer is q0's, and no guard charged a byte.
    assert!(corrupt_copies(&verifying) < corrupted);
    assert!(verifying.catalog.quarantined_names().is_empty());
    assert_eq!(again.records[0].result_rows, first.records[0].result_rows);
    assert_eq!(verifying.guard_peak_bytes(), 0);
    // Trusting, guarded: nothing was noticed, and its guard metered q1.
    assert_eq!(corrupt_copies(&trusting), corrupted);
    assert!(trusting.catalog.quarantined_names().is_empty());
    assert!(trusting.guard_peak_bytes() > 0);
}
