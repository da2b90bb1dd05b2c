//! Microbenchmarks of every substrate the systems are built on: lock
//! table, wait-for graph, buffer manager, client cache, event queue, PRNG
//! and the Zipf sampler.

use std::hint::black_box;

use siteselect_bench::harness::bench;
use siteselect_locks::{LockTable, QueueDiscipline, WaitForGraph};
use siteselect_sim::{EventQueue, Prng};
use siteselect_storage::{BufferManager, ClientCache, DiskFile, Replacement};
use siteselect_types::{ClientId, LockMode, ObjectId, SimTime};
use siteselect_workload::Zipf;

fn bench_lock_table() {
    for &objects in &[8u32, 512] {
        bench(&format!("lock_table/request_release_cycle/{objects}"), |b| {
            let mut table: LockTable<ClientId> = LockTable::new(QueueDiscipline::Deadline);
            let mut rng = Prng::seed_from_u64(1);
            b.iter(|| {
                let obj = ObjectId(rng.below(u64::from(objects)) as u32);
                let owner = ClientId(rng.below(32) as u16);
                let mode = LockMode::for_write(rng.bernoulli(0.2));
                let _ = black_box(table.request(obj, owner, mode, SimTime::from_secs(60)));
                let _ = black_box(table.release(obj, owner));
            });
        });
    }
}

fn bench_wait_for_graph() {
    bench("wfg/would_deadlock_50_nodes", |b| {
        let mut g: WaitForGraph<u16> = WaitForGraph::new();
        // A long chain: worst case for the DFS.
        for i in 0..49u16 {
            g.add_waits(i, [i + 1]);
        }
        b.iter(|| black_box(g.would_deadlock(49, [0])));
    });
}

fn bench_buffer_manager() {
    for &policy in &[Replacement::Lru, Replacement::Clock] {
        bench(&format!("buffer/fetch_zipf/{policy:?}"), |b| {
            let mut disk = DiskFile::with_patterned_pages(2_000);
            let mut buf = BufferManager::new(500, policy);
            let zipf = Zipf::new(2_000, 0.95);
            let mut rng = Prng::seed_from_u64(2);
            b.iter(|| {
                let id = ObjectId(zipf.sample(&mut rng) as u32);
                let f = buf.fetch(id, &mut disk).expect("page exists");
                buf.unpin(f).expect("pinned");
            });
        });
    }
}

fn bench_client_cache() {
    bench("client_cache/probe_insert_localized", |b| {
        let mut cache = ClientCache::new(500, 500);
        let mut rng = Prng::seed_from_u64(3);
        b.iter(|| {
            let id = ObjectId(rng.below(3_000) as u32);
            if cache.probe(id).is_none() {
                cache.insert(id);
            }
        });
    });
}

fn bench_event_queue() {
    bench("event_queue/push_pop_1000", |b| {
        let mut rng = Prng::seed_from_u64(4);
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1_000u32 {
                q.push(SimTime::from_micros(rng.below(1_000_000)), i);
            }
            let mut count = 0;
            while q.pop().is_some() {
                count += 1;
            }
            black_box(count)
        });
    });
}

fn bench_prng_and_zipf() {
    bench("prng/exp_sample", |b| {
        let mut rng = Prng::seed_from_u64(5);
        b.iter(|| black_box(rng.exp_f64(10.0)));
    });
    bench("zipf/sample_10k_ranks", |b| {
        let zipf = Zipf::new(10_000, 0.95);
        let mut rng = Prng::seed_from_u64(6);
        b.iter(|| black_box(zipf.sample(&mut rng)));
    });
}

fn main() {
    bench_lock_table();
    bench_wait_for_graph();
    bench_buffer_manager();
    bench_client_cache();
    bench_event_queue();
    bench_prng_and_zipf();
}
