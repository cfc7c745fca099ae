//! The `dptd` subcommands. Each `execute` takes parsed arguments and
//! returns the rendered report as a `String` (testable, printable).

pub mod audit;
pub mod campaign;
pub mod cluster;
pub mod engine;
pub mod flight;
pub mod recover;
pub mod run;
pub mod serve;
pub mod status;
pub mod submit;
pub mod theory;
pub mod trace;

use crate::CliError;

/// Serialises the tests that reset or toggle the process-global trace
/// rings (`dptd trace`, `dptd cluster trace`). Run in parallel, one
/// test's `reset()` or `set_enabled(false)` empties or stops another's
/// recording mid-run.
#[cfg(test)]
pub(crate) fn trace_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Parse a `--key true|false` switch with a default.
pub(crate) fn bool_flag(
    args: &crate::args::ArgMap,
    key: &str,
    default: bool,
) -> Result<bool, CliError> {
    match args.str_or(key, if default { "true" } else { "false" }) {
        "true" | "1" | "yes" => Ok(true),
        "false" | "0" | "no" => Ok(false),
        other => Err(CliError::Usage(format!(
            "flag `--{key}` expects true|false, got `{other}`"
        ))),
    }
}

/// Arm the shared observability hooks a serving process offers:
/// `--flight-dir <dir>` points the process-wide flight recorder at a
/// dump directory (and chains the panic hook, so a crash leaves a
/// bundle too); `--trace true` records stage spans into the in-process
/// trace rings so `QueryTrace` (`dptd cluster trace`) has something to
/// fetch. Used by `dptd serve` and `dptd cluster serve`.
pub(crate) fn arm_observability(args: &crate::args::ArgMap) -> Result<Option<String>, CliError> {
    let mut armed = Vec::new();
    if let Some(dir) = args.get("flight-dir") {
        let dir = std::path::PathBuf::from(dir);
        dptd_obs::flight::global().set_dir(Some(dir.clone()));
        dptd_obs::flight::install_panic_hook();
        armed.push(format!("flight recorder -> {}", dir.display()));
    }
    if bool_flag(args, "trace", false)? {
        dptd_obs::trace::set_enabled(true);
        armed.push("tracing on".to_string());
    }
    Ok(if armed.is_empty() {
        None
    } else {
        Some(armed.join("; "))
    })
}

/// Resolve λ₂ for a command: an explicit `--lambda2` wins; otherwise map
/// `(--epsilon, --delta, --lambda1)` through Theorem 4.8.
pub(crate) fn resolve_lambda2(args: &crate::args::ArgMap) -> Result<(f64, String), CliError> {
    if let Some(lambda2) = args.f64_opt("lambda2")? {
        return Ok((lambda2, format!("lambda2 = {lambda2} (explicit)")));
    }
    let epsilon = args.f64_or("epsilon", 1.0)?;
    let delta = args.f64_or("delta", 0.3)?;
    let lambda1 = args.f64_or("lambda1", 2.0)?;
    let sens = dptd_ldp::SensitivityBound::new(1.5, 0.9, lambda1)?;
    let req = dptd_core::theory::privacy::PrivacyRequirement::new(epsilon, delta, sens)?;
    let c = dptd_core::theory::privacy::min_noise_level(&req);
    let lambda2 = dptd_core::theory::privacy::lambda2_for_noise_level(lambda1, c)?;
    Ok((
        lambda2,
        format!(
            "lambda2 = {lambda2:.4} from (epsilon = {epsilon}, delta = {delta}, lambda1 = {lambda1}) via Theorem 4.8"
        ),
    ))
}

/// Resolve the segmented store's thresholds from the shared WAL flags:
/// `--wal-rotate-bytes` (default 64 MiB), `--wal-rotate-records`
/// (default 0 = off) and `--wal-compact-every` (default 256 records; 0
/// disables compaction and the log grows like the old single-segment
/// layout). Used by `dptd campaign` and `dptd serve`.
pub(crate) fn resolve_store_config(
    args: &crate::args::ArgMap,
) -> Result<dptd_engine::StoreConfig, CliError> {
    let defaults = dptd_engine::StoreConfig::default();
    Ok(dptd_engine::StoreConfig {
        rotate_bytes: args.u64_or("wal-rotate-bytes", defaults.rotate_bytes)?,
        rotate_records: args.u64_or("wal-rotate-records", defaults.rotate_records)?,
        compact_every: args.u64_or("wal-compact-every", defaults.compact_every)?,
    })
}

/// Resolve the connection front end's shared I/O flags: `--io-model`
/// (`reactor` | `threads`, default reactor), `--reactor-threads`
/// (default 0 = one per core), `--idle-timeout-ms` and
/// `--stall-timeout-ms` (per-connection deadlines). Used by
/// `dptd serve` and `dptd cluster serve`.
pub(crate) fn resolve_io_config(
    args: &crate::args::ArgMap,
) -> Result<dptd_server::IoConfig, CliError> {
    let defaults = dptd_server::IoConfig::default();
    let io_model = match args.get("io-model") {
        None => defaults.io_model,
        Some(raw) => raw
            .parse()
            .map_err(|e: String| CliError::Usage(format!("flag `--io-model`: {e}")))?,
    };
    Ok(dptd_server::IoConfig {
        io_model,
        reactor_threads: args.usize_or("reactor-threads", defaults.reactor_threads)?,
        idle_timeout: std::time::Duration::from_millis(
            args.u64_or("idle-timeout-ms", defaults.idle_timeout.as_millis() as u64)?,
        ),
        stall_timeout: std::time::Duration::from_millis(args.u64_or(
            "stall-timeout-ms",
            defaults.stall_timeout.as_millis() as u64,
        )?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::ArgMap;

    fn map(words: &[&str]) -> ArgMap {
        ArgMap::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn store_flags_resolve_with_defaults() {
        let cfg = resolve_store_config(&map(&[])).unwrap();
        assert_eq!(cfg, dptd_engine::StoreConfig::default());
        let cfg = resolve_store_config(&map(&[
            "--wal-rotate-bytes",
            "1024",
            "--wal-rotate-records",
            "4",
            "--wal-compact-every",
            "0",
        ]))
        .unwrap();
        assert_eq!(cfg.rotate_bytes, 1024);
        assert_eq!(cfg.rotate_records, 4);
        assert_eq!(cfg.compact_every, 0);
    }

    #[test]
    fn io_flags_resolve_with_defaults() {
        let cfg = resolve_io_config(&map(&[])).unwrap();
        assert_eq!(cfg.io_model, dptd_server::IoModel::Reactor);
        assert_eq!(cfg.reactor_threads, 0);
        let cfg = resolve_io_config(&map(&[
            "--io-model",
            "threads",
            "--reactor-threads",
            "2",
            "--idle-timeout-ms",
            "250",
            "--stall-timeout-ms",
            "50",
        ]))
        .unwrap();
        assert_eq!(cfg.io_model, dptd_server::IoModel::Threads);
        assert_eq!(cfg.reactor_threads, 2);
        assert_eq!(cfg.idle_timeout, std::time::Duration::from_millis(250));
        assert_eq!(cfg.stall_timeout, std::time::Duration::from_millis(50));
        let err = resolve_io_config(&map(&["--io-model", "epoll"])).unwrap_err();
        assert!(err.to_string().contains("unknown io model"), "{err}");
    }

    #[test]
    fn explicit_lambda2_wins() {
        let (l2, desc) = resolve_lambda2(&map(&["--lambda2", "3.5", "--epsilon", "9"])).unwrap();
        assert_eq!(l2, 3.5);
        assert!(desc.contains("explicit"));
    }

    #[test]
    fn privacy_target_resolves() {
        let (l2, desc) = resolve_lambda2(&map(&["--epsilon", "1.0", "--delta", "0.3"])).unwrap();
        assert!(l2 > 0.0);
        assert!(desc.contains("Theorem 4.8"));
    }
}
