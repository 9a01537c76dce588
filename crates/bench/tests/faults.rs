//! The fault-path figures against their goldens: the text of every
//! `figures::FAULTS` entry must equal `results/NAME.txt` at one pool thread
//! and at eight. They install the process's fault plan and zero its
//! counters, so they run in this binary of their own, one at a time, from
//! one shared harness; nothing is written.

use miso_bench::{figures, Harness};
use miso_common::pool;
use std::path::PathBuf;
use std::sync::{LazyLock, Mutex};

static HARNESS: LazyLock<Harness> = LazyLock::new(Harness::standard);

/// Held by each render: the fault plan, the counters and the pool size are
/// the process's.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn check(name: &str) {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // A render that panicked may have left its fault plan installed.
    miso_chaos::disable();
    let render = figures::find(name).expect("figure in the table");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../results/{name}.txt"));
    let want = std::fs::read_to_string(path).expect("committed golden");
    for threads in [1, 8] {
        pool::set_threads(threads);
        let text = render(&HARNESS).text;
        assert!(
            text == want,
            "{name} at {threads} threads differs from results/{name}.txt:\n{text}"
        );
    }
}

macro_rules! fault_tests {
    ($($name:ident),* $(,)?) => {
        $(#[test] fn $name() { check(stringify!($name)); })*

        #[test]
        fn every_fault_figure_has_a_golden_test() {
            let names: Vec<_> = figures::FAULTS.iter().map(|(name, _)| *name).collect();
            assert_eq!(names, [$(stringify!($name)),*]);
        }
    };
}

fault_tests!(chaos, integrity, soakbench, servebench);
