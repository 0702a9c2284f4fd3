//! The grid simulator main loop and its summary report.
//!
//! The loop is generic over the [`EventScheduler`] so the calendar queue can
//! be pinned byte-identical against the binary-heap oracle, and it runs
//! entirely over [`JobArena`] struct-of-arrays storage: after setup, a
//! simulated event touches only integer ids, no hashing or string traffic.
//! The per-job vectors are allocated once; the only storage that grows
//! during a run is the parked-job FIFOs (one per core count), amortised
//! like any `VecDeque`.

use std::collections::{HashMap, VecDeque};

use serde::{Deserialize, Serialize};

use pandasim::{JobRecord, SiteCatalog};

use crate::arena::{JobArena, SimInputError, NO_ORIGIN};
use crate::broker::BrokerPolicy;
use crate::event::{CalendarQueue, EventKind, EventScheduler};
use crate::site::SimSite;
use crate::storage::{ReplicaCatalog, TransferModel};

/// One job as the simulator sees it (row form; the simulator itself runs on
/// the columnar [`JobArena`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimJob {
    /// Arrival (submission) time in hours from the start of the window.
    pub arrival_hours: f64,
    /// Cores requested.
    pub cores: u32,
    /// CPU time needed, in hours (site-independent, HS23-normalised work is
    /// `cores × hs23 × wall`, so wall time depends on the executing site).
    pub cpu_hours: f64,
    /// Input dataset name (for the replica catalogue).
    pub dataset: String,
    /// Input size in bytes.
    pub input_bytes: f64,
    /// Site that held the input in the originating record (seeds the replica
    /// catalogue).
    pub origin_site: Option<String>,
}

impl SimJob {
    /// Build a simulator job from a PanDA record.
    pub fn from_record(record: &JobRecord) -> Self {
        Self {
            arrival_hours: record.creation_time_days * 24.0,
            cores: record.cores.max(1),
            cpu_hours: (record.cpu_time_s / 3600.0).max(1e-3),
            dataset: record.dataset_name.clone(),
            input_bytes: record.input_file_bytes.max(0.0),
            origin_site: Some(record.computing_site.clone()),
        }
    }

    /// Build simulator jobs from the nine-feature modelling table produced by
    /// `pandasim::records_to_table` (or by a surrogate model). See
    /// [`JobArena::from_table`] for the column contract; a missing required
    /// column, or a NaN or infinite value in one, is a typed
    /// [`SimInputError`] naming it.
    pub fn from_table(table: &tabular::Table) -> Result<Vec<Self>, SimInputError> {
        let arena = JobArena::from_table(table)?;
        Ok((0..arena.len()).map(|i| arena.job(i)).collect())
    }
}

/// Simulator configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Brokerage policy in force.
    pub policy: BrokerPolicy,
    /// Transfer cost model.
    pub transfer: TransferModel,
    /// Fraction of each site's real slot count exposed to the simulated
    /// user-analysis share (keeps queues realistic when feeding a subsample
    /// of the full workload).
    pub slot_fraction: f64,
    /// Reference HS23 per core used to convert CPU hours to wall hours.
    pub reference_hs23: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            policy: BrokerPolicy::DataLocality,
            transfer: TransferModel::default(),
            slot_fraction: 0.02,
            reference_hs23: 15.0,
        }
    }
}

/// Aggregate response of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Brokerage policy used.
    pub policy: String,
    /// Number of jobs completed.
    pub completed: usize,
    /// Time at which the last job finished, in hours.
    pub makespan_hours: f64,
    /// Mean time a job spent waiting for a slot, in hours.
    pub mean_wait_hours: f64,
    /// Mean wide-area transfer time per job, in hours.
    pub mean_transfer_hours: f64,
    /// Total bytes moved over the wide-area network.
    pub wan_bytes: f64,
    /// Mean utilisation across sites over the makespan.
    pub mean_utilization: f64,
}

/// Time-resolved observables of one simulation run, for fidelity
/// comparisons (the `simloop` harness): the pending-queue depth binned over
/// the makespan plus per-site utilisation and completion counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimTrace {
    /// Width of each queue-depth bin, in hours (`makespan / bins`).
    pub bin_hours: f64,
    /// Time-weighted mean pending-queue depth per bin.
    pub queue_depth: Vec<f64>,
    /// Site names, aligned with the per-site vectors.
    pub site_names: Vec<String>,
    /// Utilisation of each site over the makespan.
    pub site_utilization: Vec<f64>,
    /// Jobs completed at each site.
    pub site_jobs_completed: Vec<u64>,
}

/// The event-driven grid simulator.
#[derive(Debug)]
pub struct GridSimulator {
    config: SimConfig,
    sites: Vec<SimSite>,
    site_lookup: HashMap<String, usize>,
}

/// Dispatch one job: broker it, account the transfer, and schedule its
/// `TransferComplete`. Returns false when no site has capacity.
#[allow(clippy::too_many_arguments)] // the full brokerage context, passed flat
fn dispatch<Q: EventScheduler>(
    arena: &JobArena,
    job: u32,
    now: f64,
    config: &SimConfig,
    sites: &mut [SimSite],
    catalog: &ReplicaCatalog,
    queue: &mut Q,
    wan_bytes: &mut f64,
    transfer_hours: &mut [f64],
    rr_cursor: &mut usize,
) -> bool {
    let j = job as usize;
    let choice = config.policy.choose(
        sites,
        arena.cores[j],
        arena.dataset[j],
        catalog,
        &config.transfer,
        arena.input_bytes[j],
        rr_cursor,
    );
    let Some(site_idx) = choice else {
        return false;
    };
    sites[site_idx].acquire(arena.cores[j]);
    let local = catalog.has_replica(arena.dataset[j], site_idx as u32);
    let t_hours = config.transfer.transfer_hours(arena.input_bytes[j], local);
    if !local {
        *wan_bytes += arena.input_bytes[j];
    }
    transfer_hours[j] = t_hours;
    queue.push(
        now + t_hours,
        EventKind::TransferComplete {
            job,
            site: site_idx as u32,
        },
    );
    true
}

/// Jobs waiting for a slot: one FIFO per distinct core count, sorted by core
/// count. Each entry is `(park index, job)`; park indices grow by one per
/// park, so the earliest-parked job of several FIFOs is the head with the
/// smallest index. A job parks at most once, so the index fits a `u32` like
/// the job ids.
#[derive(Debug, Default)]
struct ParkedJobs {
    classes: Vec<(u32, VecDeque<(u32, u32)>)>,
    parks: u32,
    len: usize,
}

impl ParkedJobs {
    fn push(&mut self, cores: u32, job: u32) {
        let class = match self.classes.binary_search_by_key(&cores, |&(c, _)| c) {
            Ok(class) => class,
            Err(at) => {
                self.classes.insert(at, (cores, VecDeque::new()));
                at
            }
        };
        self.classes[class].1.push_back((self.parks, job));
        self.parks += 1;
        self.len += 1;
    }

    /// The FIFO whose head parked earliest among those needing fewer than
    /// `unfit` cores.
    fn earliest_below(&self, unfit: u32) -> Option<usize> {
        self.classes
            .iter()
            .take_while(|&&(cores, _)| cores < unfit)
            .enumerate()
            .filter_map(|(class, (_, fifo))| fifo.front().map(|&(park, _)| (park, class)))
            .min()
            .map(|(_, class)| class)
    }
}

impl GridSimulator {
    /// Build a simulator over a site catalogue.
    pub fn new(catalog: &SiteCatalog, config: SimConfig) -> Self {
        let sites: Vec<SimSite> = catalog
            .sites()
            .iter()
            .map(|s| {
                let slots = ((s.slots as f64 * config.slot_fraction).round() as u32).max(8);
                SimSite::new(&s.name, slots, s.hs23_per_core)
            })
            .collect();
        let site_lookup = sites
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.clone(), i))
            .collect();
        Self {
            config,
            sites,
            site_lookup,
        }
    }

    /// Number of simulated sites.
    pub fn n_sites(&self) -> usize {
        self.sites.len()
    }

    /// The simulated sites (post-run state carries utilisation counters).
    pub fn sites(&self) -> &[SimSite] {
        &self.sites
    }

    /// Run the simulation over row-structured jobs (compatibility path:
    /// builds a [`JobArena`] and runs on the default calendar queue).
    pub fn run(&mut self, jobs: &[SimJob]) -> SimReport {
        let arena = JobArena::from_jobs(jobs);
        self.run_arena(&arena)
    }

    /// Run the simulation over an arena on the default [`CalendarQueue`].
    pub fn run_arena(&mut self, arena: &JobArena) -> SimReport {
        self.run_inner::<CalendarQueue>(arena, None)
    }

    /// Run on an explicit scheduler implementation — the hook the oracle
    /// tests and throughput benches use to pin [`CalendarQueue`] against
    /// [`HeapQueue`](crate::event::HeapQueue) byte for byte.
    pub fn run_arena_with<Q: EventScheduler>(&mut self, arena: &JobArena) -> SimReport {
        self.run_inner::<Q>(arena, None)
    }

    /// Run on the default scheduler while recording a [`SimTrace`] with
    /// `bins` queue-depth bins over the makespan.
    pub fn run_arena_traced(&mut self, arena: &JobArena, bins: usize) -> (SimReport, SimTrace) {
        let mut samples: Vec<(f64, u32)> = Vec::new();
        let report = self.run_inner::<CalendarQueue>(arena, Some(&mut samples));
        let trace = self.bin_trace(&samples, report.makespan_hours, bins);
        (report, trace)
    }

    /// Convert raw `(time, depth)` step samples into a binned trace.
    fn bin_trace(&self, samples: &[(f64, u32)], makespan: f64, bins: usize) -> SimTrace {
        let bins = bins.max(1);
        let mut queue_depth = vec![0.0f64; bins];
        let bin_hours = if makespan > 0.0 {
            makespan / bins as f64
        } else {
            0.0
        };
        if bin_hours > 0.0 {
            // Samples are a right-continuous step function of pending depth.
            let mut prev_t = 0.0f64;
            let mut depth = 0u32;
            let integrate = |from: f64, to: f64, d: u32, acc: &mut [f64]| {
                if d == 0 || to <= from {
                    return;
                }
                let (from, to) = (from.min(makespan), to.min(makespan));
                let mut lo = from;
                while lo < to {
                    let bin = ((lo / bin_hours) as usize).min(bins - 1);
                    let edge = ((bin + 1) as f64 * bin_hours).min(to);
                    acc[bin] += d as f64 * (edge - lo);
                    if edge <= lo {
                        break;
                    }
                    lo = edge;
                }
            };
            for &(t, d) in samples {
                integrate(prev_t, t, depth, &mut queue_depth);
                prev_t = t.max(prev_t);
                depth = d;
            }
            integrate(prev_t, makespan, depth, &mut queue_depth);
            for v in &mut queue_depth {
                *v /= bin_hours;
            }
        }
        SimTrace {
            bin_hours,
            queue_depth,
            site_names: self.sites.iter().map(|s| s.name.clone()).collect(),
            site_utilization: self.sites.iter().map(|s| s.utilization(makespan)).collect(),
            site_jobs_completed: self.sites.iter().map(|s| s.jobs_completed).collect(),
        }
    }

    /// The event loop. Jobs whose origin site is known seed a per-run
    /// replica catalogue, so data-aware policies have locality information
    /// to exploit. When `trace` is given, every pending-depth change is
    /// recorded as a `(time, depth)` step sample.
    fn run_inner<Q: EventScheduler>(
        &mut self,
        arena: &JobArena,
        mut trace: Option<&mut Vec<(f64, u32)>>,
    ) -> SimReport {
        let config = &self.config;
        let sites = &mut self.sites;

        // Map each interned origin symbol to a simulated site once, then
        // seed replicas with pure integer traffic.
        let origin_to_site: Vec<Option<usize>> = arena
            .origin_site_names()
            .iter()
            .map(|name| self.site_lookup.get(name).copied())
            .collect();
        let mut catalog = ReplicaCatalog::with_datasets(arena.n_datasets());
        for j in 0..arena.len() {
            let origin = arena.origin[j];
            if origin != NO_ORIGIN {
                if let Some(site) = origin_to_site[origin as usize] {
                    catalog.add_replica(arena.dataset[j], site as u32);
                }
            }
        }

        let mut queue = Q::default();
        for (i, &arrival) in arena.arrival_hours.iter().enumerate() {
            queue.push(arrival.max(0.0), EventKind::JobArrival { job: i as u32 });
        }

        let mut parked = ParkedJobs::default();
        let mut wait_hours = vec![0.0f64; arena.len()];
        let mut transfer_hours = vec![0.0f64; arena.len()];
        let mut arrival_time = vec![0.0f64; arena.len()];
        let mut completed = 0usize;
        let mut makespan: f64 = 0.0;
        let mut wan_bytes = 0.0f64;
        let mut rr_cursor = 0usize;

        while let Some(event) = queue.pop() {
            let now = event.time;
            match event.kind {
                EventKind::JobArrival { job } => {
                    arrival_time[job as usize] = now;
                    if !dispatch(
                        arena,
                        job,
                        now,
                        config,
                        sites,
                        &catalog,
                        &mut queue,
                        &mut wan_bytes,
                        &mut transfer_hours,
                        &mut rr_cursor,
                    ) {
                        parked.push(arena.cores[job as usize], job);
                        if let Some(samples) = trace.as_deref_mut() {
                            samples.push((now, parked.len as u32));
                        }
                    } else {
                        wait_hours[job as usize] = 0.0;
                    }
                }
                EventKind::TransferComplete { job, site } => {
                    // Wall time: CPU hours scaled by the site's speed relative
                    // to the reference, divided across the cores.
                    let j = job as usize;
                    let speed = sites[site as usize].hs23_per_core / config.reference_hs23;
                    let wall = (arena.cpu_hours[j] / arena.cores[j] as f64 / speed).max(1e-4);
                    queue.push(now + wall, EventKind::JobFinish { job, site });
                }
                EventKind::JobFinish { job, site } => {
                    let j = job as usize;
                    let speed = sites[site as usize].hs23_per_core / config.reference_hs23;
                    let wall = (arena.cpu_hours[j] / arena.cores[j] as f64 / speed).max(1e-4);
                    sites[site as usize].release(arena.cores[j], wall);
                    completed += 1;
                    makespan = makespan.max(now);

                    // Offer the freed slots to parked jobs in park order.
                    // A broker call that finds no site changes nothing
                    // (`choose` returns before touching its cursor), and
                    // dispatches only take slots, so once a job needing
                    // `unfit` cores fails, every job needing as many fails
                    // too: its FIFO and every larger one close for this
                    // finish. The jobs a scan of all parked jobs would
                    // start from one FIFO are thus a prefix of it, and the
                    // earliest-parked head among the open FIFOs is the job
                    // that scan would offer next, so the broker sees the
                    // same calls in the same order. A finish costs
                    // (jobs started + FIFOs) × FIFOs, not the backlog.
                    let before = parked.len;
                    let mut unfit = u32::MAX;
                    while let Some(class) = parked.earliest_below(unfit) {
                        let (cores, fifo) = &mut parked.classes[class];
                        let (_, p) = fifo[0];
                        if dispatch(
                            arena,
                            p,
                            now,
                            config,
                            sites,
                            &catalog,
                            &mut queue,
                            &mut wan_bytes,
                            &mut transfer_hours,
                            &mut rr_cursor,
                        ) {
                            fifo.pop_front();
                            parked.len -= 1;
                            wait_hours[p as usize] = now - arrival_time[p as usize];
                        } else {
                            unfit = *cores;
                        }
                    }
                    if parked.len != before {
                        if let Some(samples) = trace.as_deref_mut() {
                            samples.push((now, parked.len as u32));
                        }
                    }
                }
            }
        }

        let n = arena.len().max(1) as f64;
        let mean_utilization = if makespan > 0.0 {
            sites.iter().map(|s| s.utilization(makespan)).sum::<f64>() / sites.len().max(1) as f64
        } else {
            0.0
        };
        SimReport {
            policy: config.policy.name().to_string(),
            completed,
            makespan_hours: makespan,
            mean_wait_hours: wait_hours.iter().sum::<f64>() / n,
            mean_transfer_hours: transfer_hours.iter().sum::<f64>() / n,
            wan_bytes,
            mean_utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::HeapQueue;
    use pandasim::{FilterFunnel, GeneratorConfig, WorkloadGenerator};

    fn small_jobs() -> (SiteCatalog, Vec<SimJob>) {
        let generator = WorkloadGenerator::new(GeneratorConfig::small());
        let gross = generator.generate();
        let funnel = FilterFunnel::apply(&gross);
        let jobs: Vec<SimJob> = funnel
            .records
            .iter()
            .take(400)
            .map(SimJob::from_record)
            .collect();
        (generator.sites().clone(), jobs)
    }

    #[test]
    fn all_jobs_complete() {
        let (catalog, jobs) = small_jobs();
        let mut sim = GridSimulator::new(&catalog, SimConfig::default());
        let report = sim.run(&jobs);
        assert_eq!(report.completed, jobs.len());
        assert!(report.makespan_hours > 0.0);
        assert!(report.mean_wait_hours >= 0.0);
        assert!(report.mean_utilization >= 0.0 && report.mean_utilization <= 1.0);
    }

    #[test]
    fn calendar_and_heap_schedulers_agree_exactly() {
        let (catalog, jobs) = small_jobs();
        let arena = JobArena::from_jobs(&jobs);
        for policy in BrokerPolicy::ALL {
            let config = SimConfig {
                policy,
                ..Default::default()
            };
            let mut heap_sim = GridSimulator::new(&catalog, config.clone());
            let mut cal_sim = GridSimulator::new(&catalog, config);
            let heap = heap_sim.run_arena_with::<HeapQueue>(&arena);
            let cal = cal_sim.run_arena_with::<CalendarQueue>(&arena);
            assert_eq!(heap, cal, "policy {}", policy.name());
        }
    }

    #[test]
    fn data_locality_moves_fewer_bytes_than_round_robin() {
        let (catalog, jobs) = small_jobs();
        let mut locality = GridSimulator::new(
            &catalog,
            SimConfig {
                policy: BrokerPolicy::DataLocality,
                ..Default::default()
            },
        );
        let mut round_robin = GridSimulator::new(
            &catalog,
            SimConfig {
                policy: BrokerPolicy::RoundRobin,
                ..Default::default()
            },
        );
        let locality_report = locality.run(&jobs);
        let rr_report = round_robin.run(&jobs);
        assert!(
            locality_report.wan_bytes < rr_report.wan_bytes,
            "locality {} vs round-robin {}",
            locality_report.wan_bytes,
            rr_report.wan_bytes
        );
    }

    #[test]
    fn empty_job_list_is_a_noop() {
        let (catalog, _) = small_jobs();
        let mut sim = GridSimulator::new(&catalog, SimConfig::default());
        let report = sim.run(&[]);
        assert_eq!(report.completed, 0);
        assert_eq!(report.makespan_hours, 0.0);
    }

    #[test]
    fn jobs_from_table_have_sane_fields() {
        let generator = WorkloadGenerator::new(GeneratorConfig::small());
        let gross = generator.generate();
        let funnel = FilterFunnel::apply(&gross);
        let table = pandasim::records_to_table(&funnel.records);
        let jobs = SimJob::from_table(&table).expect("full modelling table");
        assert_eq!(jobs.len(), table.n_rows());
        for job in jobs.iter().take(100) {
            assert!(job.arrival_hours >= 0.0);
            assert!(job.cpu_hours > 0.0);
            assert!(job.cores >= 1);
            assert!(!job.dataset.is_empty());
        }
    }

    #[test]
    fn slot_starved_grid_still_finishes_with_queueing() {
        let (catalog, jobs) = small_jobs();
        let mut sim = GridSimulator::new(
            &catalog,
            SimConfig {
                slot_fraction: 0.001, // extremely scarce slots
                ..Default::default()
            },
        );
        let report = sim.run(&jobs[..150.min(jobs.len())]);
        assert_eq!(report.completed, 150.min(jobs.len()));
        // With scarce slots some jobs must have waited.
        assert!(report.mean_wait_hours >= 0.0);
    }

    #[test]
    fn traced_run_matches_untraced_report() {
        let (catalog, jobs) = small_jobs();
        let arena = JobArena::from_jobs(&jobs);
        let mut plain = GridSimulator::new(&catalog, SimConfig::default());
        let mut traced = GridSimulator::new(&catalog, SimConfig::default());
        let report = plain.run_arena(&arena);
        let (traced_report, trace) = traced.run_arena_traced(&arena, 24);
        assert_eq!(report, traced_report, "tracing must not perturb the run");
        assert_eq!(trace.queue_depth.len(), 24);
        assert_eq!(trace.site_names.len(), trace.site_utilization.len());
        assert_eq!(trace.site_names.len(), trace.site_jobs_completed.len());
        assert!((trace.bin_hours * 24.0 - report.makespan_hours).abs() < 1e-9);
        assert!(trace.queue_depth.iter().all(|&d| d >= 0.0 && d.is_finite()));
        let total_completed: u64 = trace.site_jobs_completed.iter().sum();
        assert_eq!(total_completed as usize, report.completed);
    }

    #[test]
    fn queue_depth_trace_sees_slot_starvation() {
        // A single 8-slot site (the floor) with a burst of 4-core jobs at
        // t=0 can run only two at a time — the rest must park.
        let catalog = SiteCatalog::new(vec![pandasim::Site {
            name: "ONLY".to_string(),
            hs23_per_core: 15.0,
            capacity_weight: 1.0,
            reliability: 1.0,
            slots: 8,
            tier: 1,
        }]);
        let mut arena = JobArena::new();
        for _ in 0..32 {
            arena.push(0.0, 4, 1.0, "ds", 0.0, Some("ONLY"));
        }
        let mut starved = GridSimulator::new(&catalog, SimConfig::default());
        let (report, trace) = starved.run_arena_traced(&arena, 16);
        assert_eq!(report.completed, 32);
        assert!(report.mean_wait_hours > 0.0);
        assert!(
            trace.queue_depth.iter().any(|&d| d > 0.0),
            "a slot-starved grid must show queueing in the trace"
        );
    }

    #[test]
    fn freed_cores_go_to_parked_jobs_in_park_order_among_those_that_fit() {
        // One 8-slot site, data local, unit speed: wall = cpu / cores.
        let catalog = SiteCatalog::new(vec![pandasim::Site {
            name: "ONLY".to_string(),
            hs23_per_core: 15.0,
            capacity_weight: 1.0,
            reliability: 1.0,
            slots: 8,
            tier: 1,
        }]);
        let mut arena = JobArena::new();
        for (arrival, cores, cpu_hours) in [
            (0.0, 4, 40.0),   // j0 runs 0 → 10
            (0.0, 3, 60.0),   // j1 runs 0 → 20
            (0.0, 1, 1.0),    // j2 runs 0 → 1
            (0.25, 4, 4.0),   // j3 parks first; runs 10 → 11
            (0.5, 1, 2.0),    // j4 parks second; runs 1 → 3
            (0.75, 1, 0.5),   // j5 parks third; runs 3 → 3.5
            (3.75, 1, 100.0), // j6 takes the core j5 freed; runs 3.75 → 103.75
            (4.0, 1, 2.0),    // j7 parks fourth; runs 11 → 13
        ] {
            arena.push(arrival, cores, cpu_hours, "ds", 0.0, Some("ONLY"));
        }
        // Every change of the parked count, as (time, parked jobs). At 1
        // one core frees: j4 starts ahead of the 4-core j3 parked before
        // it. At 3 j4's class-mate j5 follows in park order. At 10 four
        // cores free: j3 takes them ahead of the 1-core j7 parked after it.
        let expected = vec![
            (0.25, 1),
            (0.5, 2),
            (0.75, 3),
            (1.0, 2),
            (3.0, 1),
            (4.0, 2),
            (10.0, 1),
            (11.0, 0),
        ];
        for run in [
            GridSimulator::run_inner::<CalendarQueue>,
            GridSimulator::run_inner::<HeapQueue>,
        ] {
            let mut sim = GridSimulator::new(&catalog, SimConfig::default());
            let mut samples = Vec::new();
            let report = run(&mut sim, &arena, Some(&mut samples));
            assert_eq!(samples, expected);
            // Waits of j3, j4, j5 and j7: 9.75 + 0.5 + 2.25 + 7 over eight
            // jobs.
            assert_eq!(report.mean_wait_hours, 19.5 / 8.0);
            assert_eq!(report.makespan_hours, 103.75);
            assert_eq!(report.completed, 8);
        }
    }
}
