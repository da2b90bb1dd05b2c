//! One-call experiment driver.

use siteselect_obs::{EventSink, TraceData};
use siteselect_types::{ConfigError, ExperimentConfig, SystemKind};

use crate::centralized::CentralizedSim;
use crate::clientserver::ClientServerSim;
use crate::metrics::RunMetrics;

/// Validates `cfg` and runs the matching system simulator to completion.
///
/// # Errors
///
/// Returns a [`ConfigError`] if the configuration is inconsistent.
///
/// # Example
///
/// ```
/// use siteselect_core::run_experiment;
/// use siteselect_types::{ExperimentConfig, SimDuration, SystemKind};
///
/// let mut cfg = ExperimentConfig::paper(SystemKind::Centralized, 4, 0.01);
/// cfg.runtime.duration = SimDuration::from_secs(100);
/// cfg.runtime.warmup = SimDuration::from_secs(10);
/// let m = run_experiment(&cfg).unwrap();
/// assert!(m.is_consistent());
/// ```
pub fn run_experiment(cfg: &ExperimentConfig) -> Result<RunMetrics, ConfigError> {
    cfg.validate()?;
    let metrics = match cfg.system {
        SystemKind::Centralized => CentralizedSim::new(cfg.clone()).run(),
        SystemKind::ClientServer | SystemKind::LoadSharing => {
            ClientServerSim::new(cfg.clone()).run()
        }
    };
    debug_assert!(metrics.is_consistent(), "outcome accounting out of balance");
    Ok(metrics)
}

/// Like [`run_experiment`], but with the event-tracing pipeline attached:
/// every engine event lands in a ring buffer of `capacity` records
/// (oldest dropped first; aggregates in the [`siteselect_obs::ObsReport`]
/// still see every event).
///
/// Tracing observes the deterministic simulation without perturbing it:
/// the returned [`RunMetrics`] are identical to an untraced run at the
/// same config, and the trace itself is byte-stable across runs at the
/// same seed.
///
/// # Errors
///
/// Returns a [`ConfigError`] if the configuration is inconsistent.
#[expect(clippy::expect_used, reason = "the sink was attached unconditionally a few lines up")]
pub fn run_experiment_traced(
    cfg: &ExperimentConfig,
    capacity: usize,
) -> Result<(RunMetrics, TraceData), ConfigError> {
    cfg.validate()?;
    let sink = EventSink::enabled(capacity);
    let metrics = match cfg.system {
        SystemKind::Centralized => {
            let mut sim = CentralizedSim::new(cfg.clone());
            sim.attach_sink(sink.clone());
            sim.run()
        }
        SystemKind::ClientServer | SystemKind::LoadSharing => {
            let mut sim = ClientServerSim::new(cfg.clone());
            sim.attach_sink(sink.clone());
            sim.run()
        }
    };
    debug_assert!(metrics.is_consistent(), "outcome accounting out of balance");
    let trace = sink.finish().expect("sink was enabled");
    Ok((metrics, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use siteselect_types::SimDuration;

    fn quick(system: SystemKind, clients: u16, updates: f64) -> RunMetrics {
        let mut cfg = ExperimentConfig::paper(system, clients, updates);
        cfg.runtime.duration = SimDuration::from_secs(300);
        cfg.runtime.warmup = SimDuration::from_secs(50);
        run_experiment(&cfg).unwrap()
    }

    #[test]
    fn all_three_systems_run_and_balance() {
        for system in SystemKind::ALL {
            let m = quick(system, 6, 0.05);
            assert!(m.measured > 0, "{system}: no transactions measured");
            assert!(m.is_consistent(), "{system}: inconsistent outcomes");
            assert!(m.success_percent() > 0.0, "{system}: nothing succeeded");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = quick(SystemKind::LoadSharing, 5, 0.20);
        let b = quick(SystemKind::LoadSharing, 5, 0.20);
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_change_results() {
        let mut cfg = ExperimentConfig::paper(SystemKind::ClientServer, 5, 0.05);
        cfg.runtime.duration = SimDuration::from_secs(300);
        cfg.runtime.warmup = SimDuration::from_secs(50);
        let a = run_experiment(&cfg).unwrap();
        let b = run_experiment(&cfg.clone().with_seed(99)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = ExperimentConfig {
            clients: 0,
            ..ExperimentConfig::default()
        };
        assert!(run_experiment(&cfg).is_err());
    }

    #[test]
    fn client_server_reports_cache_and_response_stats() {
        let m = quick(SystemKind::ClientServer, 6, 0.05);
        assert!(m.cache.memory_hits + m.cache.disk_hits + m.cache.misses > 0);
        assert!(m.response.shared.count() + m.response.exclusive.count() > 0);
    }

    #[test]
    fn centralized_reports_server_utilization() {
        let m = quick(SystemKind::Centralized, 6, 0.05);
        assert!(m.server_cpu_utilization > 0.0);
        assert!(m.server_buffer.total() > 0);
    }

    #[test]
    fn chaos_runs_complete_and_stay_balanced() {
        use siteselect_types::FaultConfig;
        for system in [SystemKind::ClientServer, SystemKind::LoadSharing] {
            for intensity in [1.0, 3.0] {
                let mut cfg = ExperimentConfig::paper(system, 6, 0.20);
                cfg.runtime.duration = SimDuration::from_secs(300);
                cfg.runtime.warmup = SimDuration::from_secs(50);
                cfg.faults = FaultConfig::chaos(intensity);
                // The run draining at all proves no transaction hangs: the
                // sweep keeps firing while anything is in flight.
                let m = run_experiment(&cfg).unwrap();
                assert!(m.measured > 0, "{system}@{intensity}: nothing measured");
                assert!(
                    m.is_consistent(),
                    "{system}@{intensity}: outcome accounting out of balance"
                );
                assert!(
                    m.faults.any(),
                    "{system}@{intensity}: chaos injected no observable fault"
                );
                assert!(
                    m.faults.messages_dropped > 0,
                    "{system}@{intensity}: 10%+ loss dropped nothing"
                );
                // Conservation: every measured transaction is either
                // committed on time or accounted to exactly one failure
                // bucket — chaos must not create or lose transactions.
                let f = m.failures;
                assert_eq!(
                    f.total(),
                    f.expired + f.deadlock + f.subtask + f.late + f.shutdown + f.site_crash,
                    "{system}@{intensity}: breakdown total out of sync with its buckets"
                );
                assert_eq!(
                    m.in_time + f.total(),
                    m.measured,
                    "{system}@{intensity}: submitted != committed-on-time + failures"
                );
            }
        }
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        use siteselect_types::FaultConfig;
        let mut cfg = ExperimentConfig::paper(SystemKind::LoadSharing, 5, 0.20);
        cfg.runtime.duration = SimDuration::from_secs(300);
        cfg.runtime.warmup = SimDuration::from_secs(50);
        cfg.faults = FaultConfig::chaos(2.0);
        let a = run_experiment(&cfg).unwrap();
        let b = run_experiment(&cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn handling_knobs_alone_change_nothing() {
        // Lease/backoff settings are failure *handling*: with every
        // injection knob off they must not perturb the run at all.
        let mut cfg = ExperimentConfig::paper(SystemKind::LoadSharing, 5, 0.20);
        cfg.runtime.duration = SimDuration::from_secs(300);
        cfg.runtime.warmup = SimDuration::from_secs(50);
        let a = run_experiment(&cfg).unwrap();
        cfg.faults.callback_lease = SimDuration::from_secs(1);
        cfg.faults.max_retries = 9;
        cfg.faults.retry_backoff_base = SimDuration::from_millis(50);
        let b = run_experiment(&cfg).unwrap();
        assert_eq!(a, b);
        assert!(!a.faults.any());
    }

    #[test]
    fn crash_only_chaos_records_crashes_and_site_crash_losses() {
        use siteselect_types::FaultConfig;
        let mut cfg = ExperimentConfig::paper(SystemKind::ClientServer, 6, 0.20);
        cfg.runtime.duration = SimDuration::from_secs(600);
        cfg.runtime.warmup = SimDuration::from_secs(50);
        cfg.faults = FaultConfig {
            mean_time_to_crash: SimDuration::from_secs(120),
            mean_recovery_time: SimDuration::from_secs(30),
            ..FaultConfig::default()
        };
        let m = run_experiment(&cfg).unwrap();
        assert!(m.faults.crashes > 0, "no crash in 600s at MTTC 120s x6 sites");
        assert!(m.faults.recoveries > 0, "no recovery observed");
        assert!(
            m.failures.site_crash > 0,
            "crashes killed no measured transaction"
        );
        assert!(m.is_consistent());
        // Conservation under crash-only chaos: the breakdown still
        // balances against the measured population.
        assert_eq!(m.in_time + m.failures.total(), m.measured);
    }

    #[test]
    fn server_crash_restart_recovers_in_all_three_systems() {
        use siteselect_types::FaultConfig;
        for system in SystemKind::ALL {
            let mut cfg = ExperimentConfig::paper(system, 6, 0.20);
            cfg.runtime.duration = SimDuration::from_secs(600);
            cfg.runtime.warmup = SimDuration::from_secs(50);
            cfg.faults = FaultConfig {
                mean_time_to_server_crash: SimDuration::from_secs(150),
                mean_recovery_time: SimDuration::from_secs(20),
                ..FaultConfig::default()
            };
            let m = run_experiment(&cfg).unwrap();
            assert!(
                m.faults.crashes > 0,
                "{system}: no server crash in 600s at MTTF 150s"
            );
            assert!(m.faults.recoveries > 0, "{system}: server never rejoined");
            assert!(
                m.is_consistent(),
                "{system}: outcome accounting out of balance"
            );
            assert!(
                m.in_time > 0,
                "{system}: nothing succeeded around the outages"
            );
            let again = run_experiment(&cfg).unwrap();
            assert_eq!(m, again, "{system}: crash-restart run not deterministic");
        }
    }

    #[test]
    fn permanent_server_crash_goes_dark_but_drains() {
        use siteselect_types::FaultConfig;
        for system in SystemKind::ALL {
            let mut cfg = ExperimentConfig::paper(system, 6, 0.20);
            cfg.runtime.duration = SimDuration::from_secs(600);
            cfg.runtime.warmup = SimDuration::from_secs(50);
            cfg.faults = FaultConfig {
                mean_time_to_server_crash: SimDuration::from_secs(100),
                mean_recovery_time: SimDuration::ZERO,
                ..FaultConfig::default()
            };
            // With no recovery time the site stays down; the run must still
            // drain (sweeps reap everything the dead server stranded).
            let m = run_experiment(&cfg).unwrap();
            assert!(m.faults.crashes > 0, "{system}: no crash at MTTF 100s");
            assert_eq!(
                m.faults.recoveries, 0,
                "{system}: permanent crash must not recover"
            );
            assert!(m.is_consistent(), "{system}: accounting out of balance");
        }
    }

    #[test]
    fn tracing_does_not_perturb_results() {
        // The observability pipeline must be a pure observer: attaching a
        // sink changes nothing about the simulation itself, for every
        // system kind, with and without chaos.
        use siteselect_types::FaultConfig;
        for system in SystemKind::ALL {
            let mut cfg = ExperimentConfig::paper(system, 5, 0.20);
            cfg.runtime.duration = SimDuration::from_secs(300);
            cfg.runtime.warmup = SimDuration::from_secs(50);
            let plain = run_experiment(&cfg).unwrap();
            let (traced, trace) = run_experiment_traced(&cfg, 1 << 16).unwrap();
            assert_eq!(plain, traced, "{system}: tracing perturbed the run");
            assert!(trace.report.events > 0, "{system}: no events captured");
            cfg.faults = FaultConfig::chaos(1.0);
            let plain = run_experiment(&cfg).unwrap();
            let (traced, _) = run_experiment_traced(&cfg, 1 << 16).unwrap();
            assert_eq!(plain, traced, "{system}: tracing perturbed chaos run");
        }
    }

    #[test]
    fn traced_runs_are_byte_deterministic() {
        let mut cfg = ExperimentConfig::paper(SystemKind::LoadSharing, 5, 0.20);
        cfg.runtime.duration = SimDuration::from_secs(300);
        cfg.runtime.warmup = SimDuration::from_secs(50);
        let (_, a) = run_experiment_traced(&cfg, 1 << 20).unwrap();
        let (_, b) = run_experiment_traced(&cfg, 1 << 20).unwrap();
        assert_eq!(
            siteselect_obs::export::jsonl(&a.records),
            siteselect_obs::export::jsonl(&b.records)
        );
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn load_sharing_reports_ls_activity() {
        let m = quick(SystemKind::LoadSharing, 8, 0.20);
        // At 20% updates with shared hot regions there must be some LS
        // machinery engaged (windows, ships or decompositions).
        let ls = m.load_sharing;
        assert!(
            ls.windows_opened + ls.shipped + ls.decomposed + ls.forward_satisfied > 0,
            "no load-sharing activity at all: {ls:?}"
        );
    }
}
