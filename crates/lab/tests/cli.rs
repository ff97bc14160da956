//! Bad environment knobs stop the `pimdsm-lab` binary at its boundary:
//! exit 1 with the usage text, before any point runs.

use std::process::Command;

#[test]
fn bad_env_knobs_exit_1_with_usage_before_any_point_runs() {
    let cache = std::env::temp_dir().join(format!("pimdsm-lab-cli-{}", std::process::id()));
    for (knob, value) in [
        ("PIMDSM_SCALE", "bogus"),
        ("PIMDSM_THREADS", "0"),
        ("PIMDSM_THREADS", "65"),
        ("PIMDSM_THREADS", "abc"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pimdsm-lab"))
            .args(["run", "smoke", "--quiet", "--cache-dir"])
            .arg(&cache)
            .env_remove("PIMDSM_SCALE")
            .env_remove("PIMDSM_THREADS")
            .env(knob, value)
            .output()
            .expect("run pimdsm-lab");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{knob}={value}: {stderr}");
        assert!(
            stderr.contains(knob),
            "{knob}={value}: names the knob: {stderr}"
        );
        assert!(
            stderr.contains("usage: pimdsm-lab"),
            "{knob}={value}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{knob}={value}: nothing rendered");
        assert!(!cache.exists(), "{knob}={value}: no point ran");
    }
}
