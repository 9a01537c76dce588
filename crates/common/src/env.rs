//! The one grammar of the boolean `MISO_*` environment flags.

/// Whether the process-level flag `name` is switched on: unset, empty, `0`,
/// `false`, `off` and `no` are off; `1`, `true`, `on` and `yes` are on
/// (case-insensitive). Anything else is off too, with one line on stderr
/// naming the variable.
pub fn flag(name: &str) -> bool {
    let Some(value) = std::env::var_os(name) else {
        return false;
    };
    match value.to_string_lossy().trim().to_ascii_lowercase().as_str() {
        "" | "0" | "false" | "off" | "no" => false,
        "1" | "true" | "on" | "yes" => true,
        _ => {
            eprintln!("miso: ignoring malformed {name} ({value:?})");
            false
        }
    }
}
