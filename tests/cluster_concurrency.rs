//! Integration tests of the real-thread cluster: protocol correctness under
//! genuine concurrency.

use siteselect::cluster::{Cluster, ClusterConfig};
use siteselect::types::SimDuration;

#[test]
fn default_cluster_is_serializable_and_balanced() {
    let report = Cluster::run(ClusterConfig::default()).expect("cluster runs");
    assert!(report.generated > 0);
    assert!(report.is_balanced());
    report.history.check_serializable().expect("serializable history");
}

#[test]
fn extreme_contention_stays_serializable() {
    // Every client fights over four objects with mostly-update
    // transactions: the worst case for callback locking.
    let mut cfg = ClusterConfig {
        clients: 8,
        db_objects: 4,
        server_buffer: 4,
        client_cache: 4,
        txns_per_client: 20,
        ..ClusterConfig::default()
    };
    cfg.workload.access_pattern.hot_region_objects = 4;
    cfg.workload.update_fraction = 0.9;
    cfg.workload.mean_objects_per_txn = 2.0;
    cfg.workload.mean_interarrival = SimDuration::from_secs(1);
    let report = Cluster::run(cfg).expect("cluster runs");
    assert!(report.is_balanced());
    assert!(report.server.recalls > 0);
    report.history.check_serializable().expect("serializable history");
}

#[test]
fn read_only_workload_never_recalls_data() {
    let mut cfg = ClusterConfig {
        clients: 4,
        ..ClusterConfig::default()
    };
    cfg.workload.update_fraction = 0.0;
    let report = Cluster::run(cfg).expect("cluster runs");
    assert!(report.is_balanced());
    // Readers share locks: no data returns are forced by recalls (evictions
    // may still return clean copies, which carry no data).
    assert_eq!(report.server.downgrades, 0);
    report.history.check_serializable().expect("serializable history");
}

#[test]
fn final_store_versions_match_committed_writes() {
    use siteselect::cluster::Op;
    use siteselect::types::HashMap;
    let mut cfg = ClusterConfig {
        clients: 6,
        db_objects: 32,
        server_buffer: 32,
        client_cache: 8,
        txns_per_client: 25,
        ..ClusterConfig::default()
    };
    cfg.workload.update_fraction = 0.5;
    cfg.workload.access_pattern.hot_region_objects = 32;
    cfg.workload.mean_interarrival = SimDuration::from_secs(1);
    let report = Cluster::run(cfg).expect("cluster runs");
    report.history.check_serializable().expect("serializable");
    // Count committed writes per object: every write bumped the version by
    // one, and the shutdown flush pushed all dirty pages home, so the
    // maximum committed transition must be visible in the history itself.
    let mut writes: HashMap<_, u64> = HashMap::default();
    for op in report.history.snapshot() {
        if let Op::Write { object, from, .. } = op {
            let e = writes.entry(object).or_insert(0);
            *e = (*e).max(from + 1);
        }
    }
    // Monotone versions: for every object the set of transitions is exactly
    // 0..max (no gaps, no duplicates — duplicates are caught by the
    // checker, gaps would mean a lost update).
    let mut seen: HashMap<_, Vec<u64>> = HashMap::default();
    for op in report.history.snapshot() {
        if let Op::Write { object, from, .. } = op {
            seen.entry(object).or_default().push(from + 1);
        }
    }
    #[expect(
        clippy::iter_over_hash_type,
        reason = "each object is asserted independently; order is free"
    )]
    for (object, mut versions) in seen {
        versions.sort_unstable();
        let expected: Vec<u64> = (1..=versions.len() as u64).collect();
        assert_eq!(
            versions, expected,
            "object {object} has gaps or duplicates in its version history"
        );
    }
}

#[test]
fn per_run_reports_are_reasonable() {
    let report = Cluster::run(ClusterConfig {
        clients: 2,
        txns_per_client: 5,
        ..ClusterConfig::default()
    })
    .expect("cluster runs");
    assert_eq!(report.generated, 10);
    assert!(report.success_percent() <= 100.0);
    let text = report.to_string();
    assert!(text.contains("cluster:"));
    assert!(text.contains("server:"));
}
