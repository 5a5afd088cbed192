//! Determinism of the parallel virtual-time engine (DESIGN.md §15):
//! identical `Report` bytes across repeated runs and across host worker
//! counts, on a workload exercising every lookahead-barrier kind (faults,
//! releases/acquires, locks, barriers, flags, bus and link settles), plus a
//! committed golden that pins the schedule itself across scheduler changes.

use cashmere_core::{Cluster, ClusterConfig, ProtocolKind, Report, SyncSpec, Topology};

/// A small mixed workload: per-proc strided writes (faults + twins), a
/// lock-protected accumulator (lock gates), barrier phases (rendezvous
/// gates), and a flag hand-off (flag gates).
fn mixed_workload(cfg: ClusterConfig) -> (Report, Vec<u64>) {
    let mut cluster = Cluster::new(cfg);
    let data = cluster.alloc_page_aligned(4 * 512);
    let accum = cluster.alloc_page_aligned(8);
    let report = cluster.run(|p| {
        let n = p.nprocs();
        p.barrier(0);
        for round in 0..3u64 {
            for i in 0..128 {
                let a = data + (p.id() + i * n) % (4 * 512);
                let v = p.read_u64(a);
                p.write_u64(a, v + round + p.id() as u64 + 1);
            }
            p.compute(20_000);
            p.lock(0);
            let v = p.read_u64(accum);
            p.write_u64(accum, v + p.id() as u64 + round);
            p.unlock(0);
            p.barrier(1);
        }
        if p.id() == 0 {
            p.flag_set(0);
        } else {
            p.flag_wait(0);
        }
        p.barrier(0);
    });
    let mut words = vec![0u64; 64];
    cluster.read_back_run(data, &mut words);
    words.push(cluster.read_u64(accum));
    (report, words)
}

fn cfg_with_workers(protocol: ProtocolKind, workers: usize) -> ClusterConfig {
    cfg_at(Topology::new(2, 2), protocol, workers)
}

fn cfg_at(topology: Topology, protocol: ProtocolKind, workers: usize) -> ClusterConfig {
    ClusterConfig::new(topology, protocol)
        .with_sync(SyncSpec {
            locks: 1,
            barriers: 2,
            flags: 1,
        })
        .with_det_parallel(workers)
}

#[test]
fn report_bytes_identical_across_worker_counts() {
    for protocol in PROTOCOLS {
        let (base_report, base_words) = mixed_workload(cfg_with_workers(protocol, 1));
        let base_json = base_report.to_json();
        for workers in [1, 2, 8] {
            let (report, words) = mixed_workload(cfg_with_workers(protocol, workers));
            assert_eq!(
                report.to_json(),
                base_json,
                "{protocol:?}: report bytes diverge at {workers} workers"
            );
            assert_eq!(
                words, base_words,
                "{protocol:?}: memory contents diverge at {workers} workers"
            );
        }
    }
}

#[test]
fn det_single_worker_matches_repeat_runs() {
    let (a, wa) = mixed_workload(cfg_with_workers(ProtocolKind::TwoLevel, 3));
    let (b, wb) = mixed_workload(cfg_with_workers(ProtocolKind::TwoLevel, 3));
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(wa, wb);
}

/// The quantum is part of the schedule definition — different quanta are
/// different (each internally valid) schedules, so determinism across
/// worker counts must hold at *every* quantum, not just the default.
#[test]
fn every_quantum_is_deterministic_across_worker_counts() {
    for quantum in [1_000u64, 50_000, 1_000_000] {
        let (base, base_words) = mixed_workload(
            cfg_with_workers(ProtocolKind::OneLevelDiff, 1).with_det_quantum(quantum),
        );
        for workers in [2, 8] {
            let (r, w) = mixed_workload(
                cfg_with_workers(ProtocolKind::OneLevelDiff, workers).with_det_quantum(quantum),
            );
            assert_eq!(
                r.to_json(),
                base.to_json(),
                "quantum {quantum}: report bytes diverge at {workers} workers"
            );
            assert_eq!(w, base_words);
        }
    }
}

const PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::TwoLevel,
    ProtocolKind::TwoLevelShootdown,
    ProtocolKind::OneLevelDiff,
    ProtocolKind::OneLevelWrite,
];

/// Runs `mixed_workload` on 2 det workers for every protocol (in
/// [`PROTOCOLS`] order) and checks each `Report::to_json()` line against
/// `golden` byte for byte, printing the fresh line on a mismatch.
fn assert_matches_golden(golden: &str, topology: Topology) {
    let lines: Vec<&str> = golden.lines().collect();
    assert_eq!(
        lines.len(),
        PROTOCOLS.len(),
        "golden has one line per protocol"
    );
    for (protocol, want) in PROTOCOLS.into_iter().zip(lines) {
        let (report, _) = mixed_workload(cfg_at(topology, protocol, 2));
        let got = report.to_json();
        assert!(
            got == want,
            "{protocol:?}: det schedule drifted from the golden; fresh line:\n{got}"
        );
    }
}

/// The det schedule pinned: `mixed_workload` at 2:2 on 2 det workers, one
/// `Report::to_json()` line per protocol (in [`PROTOCOLS`] order), must
/// reproduce `data/det_mixed_golden.jsonl` byte for byte. Worker-count
/// identity alone cannot catch a scheduler change that moves every worker
/// count the same way; this can. 1L is the protocol whose write-through
/// stores exercise the MC-link settles. A deliberate schedule change
/// regenerates the file from the lines this test prints on mismatch.
#[test]
fn det_schedule_matches_committed_golden() {
    assert_matches_golden(
        include_str!("data/det_mixed_golden.jsonl"),
        Topology::new(2, 2),
    );
}

/// The same pin at 8:4 (32 procs): contended lock chains, 32-way barrier
/// re-arms and a 31-waiter flag, which the 4-proc golden cannot show.
#[test]
fn det_schedule_matches_committed_golden_at_32_procs() {
    assert_matches_golden(
        include_str!("data/det_mixed_golden_32.jsonl"),
        Topology::new(8, 4),
    );
}

/// The message `cluster.run(f)` panics with.
fn run_panic_message(cluster: &Cluster, f: impl Fn(&mut cashmere_core::Proc) + Sync) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cluster.run(f)))
        .expect_err("the run panics");
    payload
        .downcast_ref::<String>()
        .cloned()
        .expect("a formatted panic message")
}

/// A processor's panic surfaces as `simulated processor {p} panicked:
/// {message}` on both engines. Under the det engine its peers, parked at
/// a barrier the failed processor never reaches, abort instead of hanging,
/// and the report names the processor that failed, not an aborted peer.
#[test]
fn a_processor_panic_names_the_processor_and_its_message() {
    for workers in [None, Some(2)] {
        let mut cfg = cfg_with_workers(ProtocolKind::TwoLevel, 1);
        cfg.det_workers = workers;
        let cluster = Cluster::new(cfg);
        let msg = run_panic_message(&cluster, |p| {
            if p.id() == 2 {
                panic!("bad input on proc {}", p.id());
            }
            if workers.is_some() {
                p.barrier(0);
            }
        });
        assert_eq!(
            msg, "simulated processor 2 panicked: bad input on proc 2",
            "workers={workers:?}"
        );
    }
}
