//! The boolean `MISO_*` flags share one grammar (`miso::common::env::flag`).
//! One test, alone in its binary: it rewrites the process environment.

use miso::exec::profile;
use miso_obs::ObsConfig;

#[test]
fn every_boolean_flag_reads_off_as_off() {
    // (variable, value, the layer ends up on)
    let table = [
        ("MISO_OBS", "false", false),
        ("MISO_OBS", "", false),
        ("MISO_XRAY", "off", false),
        ("MISO_OBS", "0", false),
        ("MISO_XRAY", "No", false),
        ("MISO_XRAY", "FALSE", false),
        ("MISO_OBS", "maybe", false),
        ("MISO_OBS", "1", true),
        ("MISO_OBS", "on", true),
        ("MISO_XRAY", "TRUE", true),
        ("MISO_XRAY", "yes", true),
    ];
    for (var, value, want) in table {
        for name in ["MISO_OBS", "MISO_XRAY", "MISO_TRACE"] {
            std::env::remove_var(name);
        }
        miso_obs::init(ObsConfig::disabled());
        std::env::set_var(var, value);
        let obs_on = miso_obs::init_from_env();
        profile::init_from_env();
        assert_eq!(obs_on, miso_obs::enabled());
        let (layer, other) = match var {
            "MISO_OBS" => (miso_obs::enabled(), profile::enabled()),
            _ => (profile::enabled(), miso_obs::enabled()),
        };
        assert_eq!(layer, want, "{var}={value:?}");
        assert!(!other, "{var}={value:?} switched the other layer on");
    }
}
