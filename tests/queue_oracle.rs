//! Oracle pins for the calendar event queue (tentpole of the planetary-scale
//! simulator): the bucketed `CalendarQueue` must pop randomized event
//! streams in exactly the order of the seed `HeapQueue` — including FIFO
//! order among equal timestamps — and a full simulation run must produce a
//! byte-identical serialized `SimReport` on either scheduler. The report of
//! a fixed synthetic workload is pinned too, and where jobs park, its trace,
//! so a change to the simulator's physics (brokerage, transfers, slot
//! accounting, which parked job a freed slot goes to) cannot pass unnoticed.

use panda_surrogate::htcsim::{
    BrokerPolicy, CalendarQueue, Event, EventKind, EventScheduler, GridSimulator, HeapQueue,
    JobArena, SimConfig, SimJob,
};
use panda_surrogate::pandasim::{FilterFunnel, GeneratorConfig, SiteCatalog, WorkloadGenerator};
use panda_surrogate::surrogate::fnv1a_hex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Interleaved push/pop script applied to both schedulers in lock-step.
fn run_script<Q: EventScheduler>(seed: u64, ops: usize) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queue = Q::default();
    let mut popped = Vec::new();
    for step in 0..ops {
        // Bias towards pushes so the queue grows through resize thresholds,
        // with bursts of pops to drain it back down.
        let push = queue.is_empty() || rng.gen_bool(0.6);
        if push {
            // Coarse time grid (quarter-hours over ~50 h) to force many
            // equal-timestamp collisions, plus occasional far-future spikes
            // that exercise the sparse direct-search fallback.
            let time = if rng.gen_bool(0.02) {
                rng.gen_range(0..4) as f64 * 10_000.0 + 5_000.0
            } else {
                rng.gen_range(0..200) as f64 * 0.25
            };
            queue.push(time, EventKind::JobArrival { job: step as u32 });
        } else {
            let before = queue.len();
            let event = queue.pop().expect("non-empty queue pops Some");
            assert_eq!(queue.len(), before - 1);
            popped.push(event);
        }
    }
    // Drain the remainder.
    while let Some(event) = queue.pop() {
        popped.push(event);
    }
    assert!(queue.is_empty());
    popped
}

#[test]
fn randomized_streams_pop_identically_on_both_schedulers() {
    for seed in 0..8u64 {
        let heap = run_script::<HeapQueue>(seed, 4_000);
        let calendar = run_script::<CalendarQueue>(seed, 4_000);
        assert_eq!(
            heap.len(),
            calendar.len(),
            "seed {seed}: drained event counts differ"
        );
        for (i, (h, c)) in heap.iter().zip(&calendar).enumerate() {
            assert_eq!(h, c, "seed {seed}: pop {i} diverges");
        }
    }
}

#[test]
fn equal_timestamp_bursts_drain_in_fifo_order() {
    fn check<Q: EventScheduler>() {
        let mut queue = Q::default();
        // Three waves of pushes at the same two timestamps.
        for wave in 0..3u32 {
            for j in 0..50u32 {
                queue.push(
                    1.0,
                    EventKind::JobArrival {
                        job: wave * 100 + j,
                    },
                );
                queue.push(
                    2.0,
                    EventKind::JobFinish {
                        job: wave * 100 + j,
                        site: 0,
                    },
                );
            }
        }
        let mut last_seq_at = [None::<u64>, None::<u64>];
        let mut last_time = f64::NEG_INFINITY;
        while let Some(event) = queue.pop() {
            assert!(event.time >= last_time, "time order violated");
            last_time = event.time;
            let slot = if event.time == 1.0 { 0 } else { 1 };
            if let Some(prev) = last_seq_at[slot] {
                assert!(
                    event.sequence > prev,
                    "FIFO violated at t={}: sequence {} after {}",
                    event.time,
                    event.sequence,
                    prev
                );
            }
            last_seq_at[slot] = Some(event.sequence);
        }
    }
    check::<HeapQueue>();
    check::<CalendarQueue>();
}

/// A workload big enough to push the calendar queue through several grow
/// resizes and the simulator through heavy pending-queue churn.
fn workload() -> (SiteCatalog, JobArena) {
    let generator = WorkloadGenerator::new(GeneratorConfig::small());
    let gross = generator.generate();
    let funnel = FilterFunnel::apply(&gross);
    let jobs: Vec<_> = funnel
        .records
        .iter()
        .map(panda_surrogate::htcsim::SimJob::from_record)
        .collect();
    (generator.sites().clone(), JobArena::from_jobs(&jobs))
}

#[test]
fn sim_report_is_byte_identical_across_schedulers() {
    let (catalog, arena) = workload();
    for policy in BrokerPolicy::ALL {
        let config = SimConfig {
            policy,
            ..SimConfig::default()
        };
        let mut heap_sim = GridSimulator::new(&catalog, config.clone());
        let mut calendar_sim = GridSimulator::new(&catalog, config);
        let heap_report = heap_sim.run_arena_with::<HeapQueue>(&arena);
        let calendar_report = calendar_sim.run_arena_with::<CalendarQueue>(&arena);
        let heap_bytes = serde_json::to_string(&heap_report).expect("report serializes");
        let calendar_bytes = serde_json::to_string(&calendar_report).expect("report serializes");
        assert_eq!(
            heap_bytes,
            calendar_bytes,
            "policy {}: serialized reports diverge",
            policy.name()
        );
        assert_eq!(calendar_report.completed, arena.len());
    }
}

#[test]
fn slot_starved_runs_agree_too() {
    // Scarce slots maximise pending-queue churn and re-dispatch traffic —
    // the paths where a pop-order divergence would actually change physics.
    let (catalog, arena) = workload();
    let config = SimConfig {
        slot_fraction: 0.001,
        ..SimConfig::default()
    };
    let mut heap_sim = GridSimulator::new(&catalog, config.clone());
    let mut calendar_sim = GridSimulator::new(&catalog, config);
    let heap_report = heap_sim.run_arena_with::<HeapQueue>(&arena);
    let calendar_report = calendar_sim.run_arena_with::<CalendarQueue>(&arena);
    assert_eq!(
        serde_json::to_string(&heap_report).unwrap(),
        serde_json::to_string(&calendar_report).unwrap()
    );
}

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

/// `n_jobs` synthetic jobs from a fixed LCG over 40 atlas-like sites,
/// arriving at a constant ~150 jobs/hour; job `i` needs `cores(i)` cores.
fn synthetic_workload(n_jobs: usize, cores: fn(usize) -> u32) -> (SiteCatalog, JobArena) {
    let catalog = SiteCatalog::atlas_like(40);
    let site_names: Vec<String> = catalog.sites().iter().map(|s| s.name.clone()).collect();
    let mut jobs = Vec::with_capacity(n_jobs);
    let mut state = 0x2545f4914f6cdd1du64;
    for i in 0..n_jobs {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
        jobs.push(SimJob {
            arrival_hours: unit * (n_jobs as f64 / 150.0),
            cores: cores(i),
            cpu_hours: 0.5 + unit * 6.0,
            dataset: format!("ds{}", state % 512),
            input_bytes: (state % 1_000) as f64 * 1e9,
            origin_site: Some(site_names[(state % site_names.len() as u64) as usize].clone()),
        });
    }
    (catalog, JobArena::from_jobs(&jobs))
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
/// the queue-depth trace moves with every start. The binary-heap run must
/// report what the calendar run does. The digests were recorded on the
/// simulator that re-scanned every parked job in arrival order on each job
/// finish.
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
            let traced = GridSimulator::new(&catalog, config.clone()).run_arena_traced(&arena, 24);
            let heap = GridSimulator::new(&catalog, config).run_arena_with::<HeapQueue>(&arena);
            let context = format!("classes {classes}, policy {}", policy.name());
            assert_eq!(traced.0.completed, arena.len(), "{context}");
            assert!(traced.0.mean_wait_hours > 0.0, "{context}: nothing parked");
            assert_eq!(
                heap, traced.0,
                "{context}: heap and calendar reports diverge"
            );
            let bytes = serde_json::to_string(&traced).expect("report and trace serialize");
            assert_eq!(fnv1a_hex(bytes.as_bytes()), digest, "{context}: {bytes}");
        }
    }
}
