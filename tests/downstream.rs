//! Downstream integration: the HTC-grid simulator consuming real and
//! surrogate-generated workloads (experiment E6).

use panda_surrogate::htcsim::{BrokerPolicy, GridSimulator, JobArena, SimConfig};
use panda_surrogate::surrogate::{
    fit_and_sample, prepare_data, ExperimentOptions, ModelKind, TrainingBudget,
};

fn setup() -> (
    panda_surrogate::pandasim::WorkloadGenerator,
    panda_surrogate::tabular::Table,
) {
    let data = prepare_data(&ExperimentOptions {
        gross_records: 5_000,
        ..ExperimentOptions::default()
    });
    (data.generator, data.table)
}

#[test]
fn simulator_completes_real_and_synthetic_workloads() {
    let (generator, table) = setup();
    let synthetic = fit_and_sample(
        ModelKind::Smote,
        &table,
        table.n_rows(),
        TrainingBudget::Smoke,
        3,
    )
    .expect("SMOTE fits");

    for jobs in [
        JobArena::from_table(&table).expect("real table has the modelling columns"),
        JobArena::from_table(&synthetic).expect("synthetic table has the modelling columns"),
    ] {
        let mut simulator = GridSimulator::new(generator.sites(), SimConfig::default());
        let report = simulator.run_arena(&jobs);
        assert_eq!(report.completed, jobs.len());
        assert!(report.makespan_hours > 0.0);
        assert!(report.mean_utilization > 0.0);
    }
}

#[test]
fn policy_ordering_is_preserved_under_synthetic_workloads() {
    // The qualitative conclusion "data-locality brokerage moves fewer bytes
    // over the WAN than round-robin" must hold whether the simulator is fed
    // real or surrogate data — that is what makes the surrogate usable for
    // calibration.
    let (generator, table) = setup();
    let synthetic = fit_and_sample(
        ModelKind::Smote,
        &table,
        table.n_rows(),
        TrainingBudget::Smoke,
        4,
    )
    .expect("SMOTE fits");

    for (label, source) in [("real", &table), ("synthetic", &synthetic)] {
        let jobs = JobArena::from_table(source).expect("modelling columns present");
        let mut wan_by_policy = Vec::new();
        for policy in [BrokerPolicy::DataLocality, BrokerPolicy::RoundRobin] {
            let mut simulator = GridSimulator::new(
                generator.sites(),
                SimConfig {
                    policy,
                    ..SimConfig::default()
                },
            );
            let report = simulator.run_arena(&jobs);
            wan_by_policy.push(report.wan_bytes);
        }
        assert!(
            wan_by_policy[0] < wan_by_policy[1],
            "{label}: locality {} >= round-robin {}",
            wan_by_policy[0],
            wan_by_policy[1]
        );
    }
}

#[test]
fn synthetic_workload_yields_similar_simulator_response() {
    // A fidelity check at the application level: total delivered core-hours
    // implied by the synthetic workload should be within a factor of ~3 of
    // the real one (SMOTE interpolates real rows, so the aggregate volume is
    // close).
    let (generator, table) = setup();
    let synthetic = fit_and_sample(
        ModelKind::Smote,
        &table,
        table.n_rows(),
        TrainingBudget::Smoke,
        5,
    )
    .expect("SMOTE fits");

    let run = |t: &panda_surrogate::tabular::Table| {
        let jobs = JobArena::from_table(t).expect("modelling columns present");
        let mut simulator = GridSimulator::new(generator.sites(), SimConfig::default());
        simulator.run_arena(&jobs)
    };
    let real_report = run(&table);
    let synthetic_report = run(&synthetic);

    let ratio = synthetic_report.makespan_hours / real_report.makespan_hours.max(1e-9);
    assert!(
        (0.33..3.0).contains(&ratio),
        "makespan ratio {ratio} (real {}, synthetic {})",
        real_report.makespan_hours,
        synthetic_report.makespan_hours
    );
}
