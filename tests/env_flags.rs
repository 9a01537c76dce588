//! The boolean `MISO_*` flag has one grammar (`miso::common::env::flag`),
//! and an empty `MISO_TRACE` reads as unset. One test, alone in its binary:
//! it rewrites the process environment.

use miso_obs::ObsConfig;

#[test]
fn every_boolean_flag_reads_off_as_off() {
    // (value, observability ends up on)
    let table = [
        ("false", false),
        ("", false),
        ("off", false),
        ("0", false),
        ("No", false),
        ("FALSE", false),
        ("maybe", false),
        ("1", true),
        ("on", true),
        ("TRUE", true),
        ("yes", true),
    ];
    std::env::remove_var("MISO_TRACE");
    for (value, want) in table {
        miso_obs::init(ObsConfig::disabled());
        std::env::set_var("MISO_OBS", value);
        let obs_on = miso_obs::init_from_env();
        assert_eq!(obs_on, miso_obs::enabled());
        assert_eq!(obs_on, want, "MISO_OBS={value:?}");
    }
    // An empty trace path is no trace path: nothing to open, nothing on.
    std::env::remove_var("MISO_OBS");
    std::env::set_var("MISO_TRACE", "");
    miso_obs::init(ObsConfig::disabled());
    assert!(!miso_obs::init_from_env(), "MISO_TRACE=\"\"");
    assert!(!miso_obs::enabled(), "MISO_TRACE=\"\"");
}
