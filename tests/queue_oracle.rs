//! Output pins for the grid simulator: the report of a fixed synthetic
//! workload, and where jobs park, its trace, plus report and trace of the
//! table-built workload the `simloop` and `downstream` binaries run. A
//! change to the simulator's physics (brokerage, transfers, slot
//! accounting, which parked job a freed slot goes to) or to the order its
//! event queue pops cannot pass unnoticed.

use panda_surrogate::htcsim::arena::synthetic_workload;
use panda_surrogate::htcsim::{BrokerPolicy, GridSimulator, JobArena, SimConfig};
use panda_surrogate::pandasim::{
    records_to_table, FilterFunnel, GeneratorConfig, WorkloadGenerator,
};
use panda_surrogate::surrogate::fnv1a_hex;

/// The original mix: one job in seven needs 8 cores, the rest 4.
fn two_classes(i: usize) -> u32 {
    if i.is_multiple_of(7) {
        8
    } else {
        4
    }
}

/// Five core classes in rotation, so parked jobs of every size interleave.
fn five_classes(i: usize) -> u32 {
    [1, 2, 4, 8, 16][i % 5]
}

/// FNV-1a digests of the serialized `SimReport` per (jobs, slot fraction,
/// policy). At the default slot fraction the sites absorb every job on
/// arrival; at 0.001 a backlog of parked jobs builds up (mean wait ~12 h),
/// so job finishes hand freed slots to parked jobs. The digests were
/// recorded where the seed simulation loop (string-keyed replica map,
/// binary heap) still ran beside the arena simulator and produced the same
/// bytes, so they pin the seed loop's physics. The simulator uses only
/// `+ - * /` and comparisons, so the digests do not depend on the platform.
#[test]
fn synthetic_workload_reports_are_pinned() {
    const PINS: [(usize, f64, BrokerPolicy, &str); 9] = [
        (10_000, 0.02, BrokerPolicy::RoundRobin, "fa171afa5af628f7"),
        (10_000, 0.02, BrokerPolicy::LeastLoaded, "3b8a80d0c045eaf4"),
        (10_000, 0.02, BrokerPolicy::DataLocality, "20aaef761ed40cad"),
        (10_000, 0.001, BrokerPolicy::RoundRobin, "9a2e63da78c084e6"),
        (10_000, 0.001, BrokerPolicy::LeastLoaded, "aab0a05b8fbbd8f2"),
        (
            10_000,
            0.001,
            BrokerPolicy::DataLocality,
            "6caf2d9db292386d",
        ),
        (50_000, 0.02, BrokerPolicy::RoundRobin, "914a69ebb807967a"),
        (50_000, 0.02, BrokerPolicy::LeastLoaded, "ff71ee8290008990"),
        (50_000, 0.02, BrokerPolicy::DataLocality, "4a96017eb6f84a8c"),
    ];
    for n_jobs in [10_000, 50_000] {
        let (catalog, arena) = synthetic_workload(n_jobs, two_classes);
        for &(_, slot_fraction, policy, digest) in PINS.iter().filter(|pin| pin.0 == n_jobs) {
            let config = SimConfig {
                policy,
                slot_fraction,
                ..SimConfig::default()
            };
            let report = GridSimulator::new(&catalog, config).run_arena(&arena);
            let bytes = serde_json::to_string(&report).expect("report serializes");
            assert_eq!(
                fnv1a_hex(bytes.as_bytes()),
                digest,
                "{n_jobs} jobs, slot fraction {slot_fraction}, policy {}: {bytes}",
                policy.name()
            );
        }
    }
}

/// FNV-1a digests of the JSON of `run_arena_traced(&arena, 24)`, report and
/// trace together, on 10,000 synthetic jobs at slot fraction 0.001, per
/// core-class mix and policy. Parked jobs of several sizes wait side by side
/// there, so these pin which parked job each freed slot goes to, and when:
/// the queue-depth trace moves with every start. The digests were recorded
/// on the simulator that re-scanned every parked job in arrival order on
/// each job finish.
#[test]
fn parked_runs_are_pinned_with_their_traces() {
    // Digests in `BrokerPolicy::ALL` order.
    type Pin = (&'static str, fn(usize) -> u32, [&'static str; 3]);
    const PINS: [Pin; 2] = [
        (
            "{4, 8}",
            two_classes,
            ["2d556c424f666d8a", "15c80bb7e5cd8d4e", "b18776c84a5d68a9"],
        ),
        (
            "{1, 2, 4, 8, 16}",
            five_classes,
            ["382654bb7f872050", "ab617647279373da", "92602a467eb18c98"],
        ),
    ];
    for (classes, cores, digests) in PINS {
        let (catalog, arena) = synthetic_workload(10_000, cores);
        for (policy, digest) in BrokerPolicy::ALL.into_iter().zip(digests) {
            let config = SimConfig {
                policy,
                slot_fraction: 0.001,
                ..SimConfig::default()
            };
            let traced = GridSimulator::new(&catalog, config).run_arena_traced(&arena, 24);
            let context = format!("classes {classes}, policy {}", policy.name());
            assert_eq!(traced.0.completed, arena.len(), "{context}");
            assert!(traced.0.mean_wait_hours > 0.0, "{context}: nothing parked");
            let bytes = serde_json::to_string(&traced).expect("report and trace serialize");
            assert_eq!(fnv1a_hex(bytes.as_bytes()), digest, "{context}: {bytes}");
        }
    }
}

/// FNV-1a digests of the JSON of `run_arena_traced(&arena, 24)`, report and
/// trace together, on the 2,446 jobs `GeneratorConfig::small()` keeps after
/// the filter funnel, built by `records_to_table` and `JobArena::from_table`:
/// the path the `simloop` and `downstream` binaries run. Nothing parks on
/// this workload even at slot fraction 0.001 (every mean wait is 0 h), so
/// the synthetic pins above stay the ones that cover parked jobs. The
/// digests were recorded while a calendar queue still ran every simulation,
/// and its binary-heap oracle read the same.
#[test]
fn table_built_runs_are_pinned_with_their_traces() {
    // Digests in `BrokerPolicy::ALL` order.
    const PINS: [(f64, [&str; 3]); 2] = [
        (
            0.02,
            ["9028199d030ff130", "74ed89d9225cb7eb", "03334c7ac2a44218"],
        ),
        (
            0.001,
            ["81ffeb84bab1c53d", "b7ee286fdd5c81f5", "10dc849df83d6fe4"],
        ),
    ];
    let generator = WorkloadGenerator::new(GeneratorConfig::small());
    let funnel = FilterFunnel::apply(&generator.generate());
    let arena =
        JobArena::from_table(&records_to_table(&funnel.records)).expect("full modelling table");
    assert_eq!(arena.len(), 2_446);
    for (slot_fraction, digests) in PINS {
        for (policy, digest) in BrokerPolicy::ALL.into_iter().zip(digests) {
            let config = SimConfig {
                policy,
                slot_fraction,
                ..SimConfig::default()
            };
            let traced = GridSimulator::new(generator.sites(), config).run_arena_traced(&arena, 24);
            let context = format!("slot fraction {slot_fraction}, policy {}", policy.name());
            assert_eq!(traced.0.completed, arena.len(), "{context}");
            let bytes = serde_json::to_string(&traced).expect("report and trace serialize");
            assert_eq!(fnv1a_hex(bytes.as_bytes()), digest, "{context}: {bytes}");
        }
    }
}
