//! Every fail point has one list. `miso_chaos::POINTS` names the points the
//! engine polls — the ones `parse_spec` accepts and the crate docs' table
//! describes — and the code is held to it: every point name passed to the
//! fault envelope (`miso_chaos::strike`, or serving's `Envelope::phase`)
//! anywhere in `crates/*/src` is on the list, and every entry on the list is
//! polled somewhere. A new fail point cannot ship undocumented, nor a
//! deleted one linger in the table.

use miso::chaos::POINTS;
use std::collections::BTreeSet;
use std::path::Path;

/// The calls that poll a fail point by name.
const ENVELOPE: [&str; 2] = ["strike(", "phase("];

/// The literal point names `code` passes to the envelope, and the first
/// arguments of the calls that pass something else.
fn envelope_points(code: &str, literals: &mut BTreeSet<String>, others: &mut Vec<String>) {
    for call in ENVELOPE {
        let mut rest = code;
        while let Some(at) = rest.find(call) {
            let before = &rest[..at];
            rest = &rest[at + call.len()..];
            // A definition, or a longer name that ends in the call's.
            if before.ends_with("fn ")
                || before.ends_with(|c: char| c.is_alphanumeric() || c == '_')
            {
                continue;
            }
            let arg = rest.trim_start();
            match arg.strip_prefix('"') {
                Some(literal) => {
                    let end = literal.find('"').expect("a string literal closes");
                    literals.insert(literal[..end].to_string());
                }
                None => {
                    let end = arg.find([',', ')']).unwrap_or(arg.len());
                    others.push(arg[..end].trim().to_string());
                }
            }
        }
    }
}

/// Scans the non-test code of every `.rs` file under `dir`: a file's
/// `#[cfg(test)]` module, when it has one, comes last.
fn scan(dir: &Path, literals: &mut BTreeSet<String>, others: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("source directory reads") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            scan(&path, literals, others);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("source reads");
            let code = text.split("#[cfg(test)]").next().unwrap_or_default();
            envelope_points(code, literals, others);
        }
    }
}

#[test]
fn the_code_polls_exactly_the_listed_fail_points() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut literals = BTreeSet::new();
    let mut others = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("crates/ reads") {
        let dir = entry.expect("directory entry").path();
        // The envelope itself lives in `miso-chaos`.
        if dir.file_name().is_some_and(|name| name != "chaos") {
            scan(&dir.join("src"), &mut literals, &mut others);
        }
    }
    let listed: BTreeSet<String> = POINTS.map(String::from).into();
    let unlisted: Vec<_> = literals.difference(&listed).collect();
    assert!(
        unlisted.is_empty(),
        "polled but not in POINTS: {unlisted:?}"
    );
    let unpolled: Vec<_> = listed.difference(&literals).collect();
    assert!(
        unpolled.is_empty(),
        "in POINTS but never polled: {unpolled:?}"
    );
    // The one call that strikes a point it did not name itself: serving's
    // envelope, striking the point its phase was handed.
    assert_eq!(others, ["point"], "fail points passed other than by name");
}
