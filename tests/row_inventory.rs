//! Between an operator and a store there is one form, the engine's batch.
//! Rows are built for callers that speak them — tests, bench bins, the
//! benchmark adapter, a UDF's function — by a short list of boundary
//! adaptors that convert and delegate. This test carries that list: a row
//! vector, or a pivot between rows and batches, anywhere else in the stores,
//! the driver, the serving layer or the engine has to be added here on
//! purpose.

use std::collections::BTreeSet;
use std::path::Path;

/// What names a row set or builds one.
const ROW_FORMS: [&str; 5] = [
    "Vec<Row>",
    "to_rows(",
    "into_rows(",
    "from_rows(",
    "of_rows(",
];

/// `(file, item)` pairs allowed to hold one. `exec/src/{serial,udf}.rs` —
/// the row-at-a-time reference interpreter and the UDF ABI — are not
/// scanned.
const ADAPTORS: [(&str, &str); 13] = [
    // A run's outputs as rows, pivoted on request.
    ("crates/exec/src/engine.rs", "struct Held"),
    ("crates/exec/src/engine.rs", "fn rows"),
    ("crates/exec/src/engine.rs", "fn output"),
    ("crates/exec/src/engine.rs", "fn retained_output"),
    ("crates/exec/src/engine.rs", "fn try_output"),
    // The reference interpreter's result, and working sets handed over as
    // rows.
    ("crates/exec/src/engine.rs", "fn from_parts"),
    ("crates/exec/src/engine.rs", "fn execute_subset"),
    ("crates/exec/src/engine.rs", "fn seed_batches"),
    ("crates/exec/src/engine.rs", "fn pivot"),
    // The test fixture registers views from rows.
    ("crates/exec/src/engine.rs", "fn add_view"),
    // Views out of the stores as rows, and working sets into DW as rows.
    ("crates/hv/src/store.rs", "fn view_rows"),
    ("crates/dw/src/store.rs", "fn view_rows_arc"),
    ("crates/dw/src/store.rs", "fn execute"),
];

/// The `fn` / `struct` a declaration line opens, as `"fn name"`.
fn item_of(line: &str) -> Option<String> {
    let mut words = line
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .skip_while(|w| matches!(*w, "pub" | "crate" | "super"));
    let kind = words.next().filter(|k| matches!(*k, "fn" | "struct"))?;
    Some(format!("{kind} {}", words.next()?))
}

/// Every `(file, enclosing item)` of non-test code under `path` that names a
/// row form.
fn scan(root: &Path, path: &Path, into: &mut BTreeSet<(String, String)>) {
    if path.is_dir() {
        for entry in std::fs::read_dir(path).expect("source directory reads") {
            scan(root, &entry.expect("directory entry").path(), into);
        }
        return;
    }
    let file = path.strip_prefix(root).expect("under the root");
    let file = file.to_string_lossy().replace('\\', "/");
    let text = std::fs::read_to_string(path).expect("source reads");
    let mut item = String::new();
    // Unit tests sit at the end of a file, behind `#[cfg(test)]`.
    for line in text.lines().take_while(|l| l.trim() != "#[cfg(test)]") {
        let code = line.trim();
        if code.starts_with("//") {
            continue;
        }
        item = item_of(code).unwrap_or(item);
        if ROW_FORMS.iter().any(|form| code.contains(form)) {
            into.insert((file.clone(), item.clone()));
        }
    }
}

#[test]
fn rows_are_built_only_by_the_named_boundary_adaptors() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = BTreeSet::new();
    for dir in ["hv", "dw", "core", "serve"] {
        scan(root, &root.join("crates").join(dir).join("src"), &mut found);
    }
    for file in ["engine.rs", "ivm.rs"] {
        scan(root, &root.join("crates/exec/src").join(file), &mut found);
    }
    let allowed: BTreeSet<(String, String)> = ADAPTORS
        .iter()
        .map(|(file, item)| (file.to_string(), item.to_string()))
        .collect();
    let strays: Vec<_> = found.difference(&allowed).collect();
    assert!(
        strays.is_empty(),
        "row forms outside the adaptors: {strays:?}"
    );
    let gone: Vec<_> = allowed.difference(&found).collect();
    assert!(gone.is_empty(), "adaptors listed but gone: {gone:?}");
}

#[test]
fn item_names_are_read_off_declarations() {
    assert_eq!(
        item_of("pub fn output(&self, id: NodeId) -> &Arc<Vec<Row>> {").unwrap(),
        "fn output"
    );
    assert_eq!(
        item_of("pub(crate) fn from_parts(").unwrap(),
        "fn from_parts"
    );
    assert_eq!(item_of("struct Held {").unwrap(), "struct Held");
    assert_eq!(item_of("let rows = held.rows();"), None);
}
