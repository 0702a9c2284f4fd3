//! Experiment E6 (extension, §VI) — downstream response of an event-driven
//! HTC-grid simulation to real vs. surrogate-generated workloads.
//!
//! The paper motivates the surrogate models as a source of "more realistic
//! workload inputs to calibrate large-scale event-based simulations". Here we
//! drive the `htcsim` grid simulator once with the ground-truth job stream
//! and once with each model's synthetic stream, under every brokerage
//! policy, and compare the simulator's aggregate responses (makespan, mean
//! wait, WAN traffic). A good surrogate produces responses close to the
//! ground truth's.
//!
//! ```text
//! cargo run -p bench --release --bin downstream -- --rows 20000 --budget smoke
//! ```

use std::collections::BTreeMap;

use bench::cli::{experiment, experiment_options, Command};
use bench::{fit_all, try_prepare_data};
use htcsim::{BrokerPolicy, GridSimulator, SimConfig, SimJob, SimReport};
use serde::Serialize;

const CLI: Command = experiment(
    "downstream",
    "grid-simulator responses to real vs synthetic jobs",
);

#[derive(Serialize)]
struct DownstreamArtifact {
    /// policy -> source ("GT" or model name) -> simulator report.
    responses: BTreeMap<String, BTreeMap<String, SimReport>>,
}

fn main() {
    let options = CLI.check(experiment_options(&CLI.parse()));
    let data = try_prepare_data(&options)
        .unwrap_or_else(|e| CLI.fail(format_args!("cannot prepare the dataset: {e}")));
    let fits = fit_all(&data.train, options.budget, options.seed);
    if fits.report_failures() == fits.runs.len() {
        CLI.fail("every surrogate model failed — nothing to compare against GT");
    }

    let jobs_or_exit = |source: &str, table: &tabular::Table| -> Vec<SimJob> {
        SimJob::from_table(table)
            .unwrap_or_else(|err| CLI.fail(format!("{source} workload table is unusable: {err}")))
    };
    let mut sources: Vec<(String, Vec<SimJob>)> =
        vec![("GT".to_string(), jobs_or_exit("GT", &data.train))];
    for (name, synthetic) in fits.successes() {
        sources.push((name.to_string(), jobs_or_exit(name, synthetic)));
    }

    let mut artifact = DownstreamArtifact {
        responses: BTreeMap::new(),
    };

    for policy in BrokerPolicy::ALL {
        println!("\n== brokerage policy: {} ==", policy.name());
        println!(
            "{:<10} {:>10} {:>12} {:>12} {:>14} {:>12}",
            "source", "completed", "makespan(h)", "wait(h)", "transfer(h)", "WAN(TB)"
        );
        let mut per_source = BTreeMap::new();
        for (source, jobs) in &sources {
            let mut simulator = GridSimulator::new(
                data.generator.sites(),
                SimConfig {
                    policy,
                    ..SimConfig::default()
                },
            );
            let report = simulator.run(jobs);
            println!(
                "{:<10} {:>10} {:>12.1} {:>12.2} {:>14.3} {:>12.2}",
                source,
                report.completed,
                report.makespan_hours,
                report.mean_wait_hours,
                report.mean_transfer_hours,
                report.wan_bytes / 1e12
            );
            per_source.insert(source.clone(), report);
        }
        artifact
            .responses
            .insert(policy.name().to_string(), per_source);
    }

    println!("\ninterpretation: the closer a model's row is to GT, the better the surrogate");
    println!("serves as a calibration input for the event-based grid simulation.");
    CLI.maybe_write_json(options.output_json.as_deref(), &artifact);
}
