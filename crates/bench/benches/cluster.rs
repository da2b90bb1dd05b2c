//! Benchmarks of the real-thread cluster: lock service latency and a full
//! mini-run including the serializability check.

#![allow(
    clippy::disallowed_methods,
    reason = "D1 allowlist: the bench times real threads on the wall clock"
)]

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use siteselect_bench::harness::bench;
use siteselect_cluster::{Cluster, ClusterConfig, SharedServer};
use siteselect_types::{ClientId, LockMode, ObjectId, SimDuration};

fn bench_server_acquire_release() {
    bench("cluster/uncontended_acquire_release", |b| {
        let server: Arc<SharedServer> = SharedServer::new(64, 32, Vec::new());
        let mut i = 0u32;
        b.iter(|| {
            let obj = ObjectId(i % 64);
            i += 1;
            let bytes = server
                .acquire(
                    ClientId(0),
                    obj,
                    LockMode::Exclusive,
                    Instant::now() + Duration::from_secs(1),
                )
                .expect("uncontended");
            black_box(bytes.len());
            server.return_object(ClientId(0), obj, None, false);
        });
    });
}

fn bench_cluster_run() {
    bench("cluster_run/4x10_txns_with_serializability_check", |b| {
        b.iter(|| {
            let mut cfg = ClusterConfig {
                clients: 4,
                txns_per_client: 10,
                ..ClusterConfig::default()
            };
            // Fast pacing so the bench measures protocol work, not sleeps.
            cfg.workload.mean_interarrival = SimDuration::from_millis(200);
            cfg.workload.mean_length = SimDuration::from_millis(100);
            let report = Cluster::run(cfg).expect("cluster runs");
            report.history.check_serializable().expect("serializable");
            black_box(report.generated)
        });
    });
}

fn main() {
    bench_server_acquire_release();
    bench_cluster_run();
}
