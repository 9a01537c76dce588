//! FNV-1a has one home. Plan fingerprints, content checksums, key hashes
//! and the generated-bytes pins all fold through `miso_common::prehash::Fnv`;
//! a second copy of its constants is a second place the digest can drift —
//! in how it encodes a value, or in its multiplier, which is not FNV's
//! published prime.

use std::collections::BTreeSet;
use std::path::Path;

/// The offset basis, the workspace's multiplier and FNV's published prime.
const FNV_CONSTANTS: [u128; 3] = [0xcbf2_9ce4_8422_2325, 0x1000_0000_01b3, 0x100_0000_01b3];

/// Whether `text` spells an FNV constant as a hex literal, however its
/// digits are grouped or zero-padded.
fn names_fnv_constant(text: &str) -> bool {
    let mut rest = text;
    while let Some(at) = rest.find("0x") {
        rest = &rest[at + 2..];
        let digits: String = rest
            .chars()
            .take_while(|c| c.is_ascii_hexdigit() || *c == '_')
            .filter(|c| *c != '_')
            .collect();
        if let Ok(v) = u128::from_str_radix(&digits, 16) {
            if FNV_CONSTANTS.contains(&v) {
                return true;
            }
        }
    }
    false
}

fn scan(dir: &Path, root: &Path, into: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("source directory reads") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            scan(&path, root, into);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs")
            && names_fnv_constant(&std::fs::read_to_string(&path).expect("source reads"))
        {
            let rel = path.strip_prefix(root).expect("under the root");
            into.insert(rel.to_string_lossy().into_owned());
        }
    }
}

#[test]
fn fnv_constants_live_in_one_source_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut holders = BTreeSet::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates reads") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            scan(&src, root, &mut holders);
        }
    }
    let home: BTreeSet<String> = ["crates/common/src/prehash.rs".to_string()].into();
    assert_eq!(holders, home, "files spelling the FNV-1a constants");
}

#[test]
fn the_scan_sees_every_spelling() {
    assert!(names_fnv_constant("let h = 0xcbf2_9ce4_8422_2325;"));
    assert!(names_fnv_constant("h.wrapping_mul(0x0100_0000_01b3)"));
    assert!(names_fnv_constant("0x100000001B3"));
    assert!(names_fnv_constant("const P: u64 = 0x1000_0000_01b3;"));
    assert!(!names_fnv_constant("0x9e37_79b9_7f4a_7c15 and 0x"));
}
