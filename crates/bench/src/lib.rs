//! # aqua-bench — benchmarks and figure regeneration
//!
//! Shared harness code for the criterion benches (`benches/`), the
//! experiment binaries (`src/bin/`) that regenerate every figure of the
//! paper's evaluation (§6), and the ablation [`studies`] that `aqua_lab
//! study` runs. See DESIGN.md's experiment index for the mapping from
//! paper figure or ablation to its regenerator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod paper_eval;
pub mod studies;
pub mod synthetic;

/// Opens the observability sink requested via the `AQUA_OBS` environment
/// variable (see [`aqua_obs::dir_from_env`]): returns the handle plus the
/// output directory, or `None` when observability is off. Exits on I/O
/// errors — this is binary-startup code.
pub fn obs_from_env() -> Option<(aqua_obs::Obs, String)> {
    aqua_obs::dir_from_env().map(obs_open)
}

/// Opens an observability sink writing into `dir`. Setting
/// `AQUA_OBS_ROTATE_BYTES` to a positive value rotates the journal once
/// the active file passes that size, so long soaks stay bounded. Exits on
/// I/O errors.
pub fn obs_open(dir: String) -> (aqua_obs::Obs, String) {
    let rotate_bytes: u64 = std::env::var("AQUA_OBS_ROTATE_BYTES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    match aqua_obs::Obs::to_dir_rotating(&dir, rotate_bytes) {
        Ok(obs) => (obs, dir),
        Err(e) => {
            eprintln!("cannot open observability directory {dir:?}: {e}");
            std::process::exit(2);
        }
    }
}

/// Opens a sink in `base/<slug>` (see [`obs_open`]) where the slug is
/// `label` reduced to `[a-z0-9-]`. Used by multi-scenario harnesses that
/// must keep each run's journal separate (gateway sequence numbers
/// restart per run, so a shared journal would alias spans during
/// forensics replay).
pub fn obs_into_subdir(base: &str, label: &str) -> (aqua_obs::Obs, String) {
    let slug: String = label
        .to_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect::<String>()
        .split('-')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("-");
    obs_open(format!("{base}/{slug}"))
}

/// Flushes `obs` into `dir` (journal + both metric snapshots), reporting
/// the location on stderr. Exits on I/O errors.
pub fn obs_dump(obs: &aqua_obs::Obs, dir: &str) {
    if let Err(e) = obs.dump(dir) {
        eprintln!("cannot write metric snapshots into {dir:?}: {e}");
        std::process::exit(2);
    }
    eprintln!("observability written to {dir}/{{journal.jsonl,metrics.prom,metrics.json}}");
}
