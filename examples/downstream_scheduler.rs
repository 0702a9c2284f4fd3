//! Downstream use-case: calibrate a distributed-computing simulation with
//! surrogate-generated workloads.
//!
//! The paper's closing argument is that synthetic job records can feed
//! AI-based optimisers and event-based simulations of the ATLAS grid without
//! exposing real user data. This example drives the `htcsim` grid simulator
//! with (a) the ground-truth workload and (b) a TabDDPM-generated workload,
//! under two brokerage policies, and compares the simulator's responses.
//!
//! ```text
//! cargo run --release --example downstream_scheduler
//! ```

use panda_surrogate::htcsim::{BrokerPolicy, GridSimulator, JobArena, SimConfig};
use panda_surrogate::surrogate::{
    fit_and_sample, prepare_data, ExperimentOptions, ModelKind, TrainingBudget,
};

fn main() {
    let options = ExperimentOptions {
        gross_records: 12_000,
        seed: 11,
        ..ExperimentOptions::default()
    };
    let data = prepare_data(&options);
    let train = &data.train;
    let generator = &data.generator;

    let synthetic = fit_and_sample(
        ModelKind::TabDdpm,
        train,
        train.n_rows(),
        TrainingBudget::Smoke,
        11,
    )
    .expect("TabDDPM fits and samples");

    let real_jobs = JobArena::from_table(train).expect("real table has the modelling columns");
    let synthetic_jobs =
        JobArena::from_table(&synthetic).expect("synthetic table has the modelling columns");
    println!(
        "driving the grid simulator with {} real and {} synthetic jobs\n",
        real_jobs.len(),
        synthetic_jobs.len()
    );

    for policy in [BrokerPolicy::RoundRobin, BrokerPolicy::DataLocality] {
        println!("== policy: {} ==", policy.name());
        println!(
            "{:<12} {:>12} {:>12} {:>12}",
            "workload", "makespan(h)", "wait(h)", "WAN(TB)"
        );
        for (name, jobs) in [("real", &real_jobs), ("synthetic", &synthetic_jobs)] {
            let mut simulator = GridSimulator::new(
                generator.sites(),
                SimConfig {
                    policy,
                    ..SimConfig::default()
                },
            );
            let report = simulator.run_arena(jobs);
            println!(
                "{:<12} {:>12.1} {:>12.2} {:>12.2}",
                name,
                report.makespan_hours,
                report.mean_wait_hours,
                report.wan_bytes / 1e12
            );
        }
        println!();
    }

    println!("a surrogate is useful for calibration when the synthetic rows lead the simulator");
    println!("to the same conclusions as the real rows — e.g. that data-locality brokerage");
    println!("moves far fewer bytes over the WAN than round-robin.");
}
