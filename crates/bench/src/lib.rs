//! Shared plumbing for the experiment binaries and Criterion benches.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation section (see DESIGN.md §3 for the index). They all share the
//! same dataset-preparation path so that Table I, Fig. 4 and Fig. 5 are
//! computed over exactly the same train/test split and the same fitted
//! models.
//!
//! The orchestration itself lives in [`surrogate::experiment`] — the single
//! fit→sample→evaluate runtime for the whole workspace (parallel model fits,
//! per-model error isolation). This crate only re-exports it so the binaries
//! keep their `bench::` imports, and adds [`cli`], the one command-line
//! layer of every binary, and [`hold_model`], the event-queue workload that
//! `perf_report` and the `htcsim_events` bench both drive.

pub mod cli;

use htcsim::{EventKind, EventScheduler};
pub use surrogate::experiment::{
    fit_all, fit_models_with, prepare_data, ExecutionMode, ExperimentOptions, FitReport, ModelRun,
    PreparedData,
};

/// The classic "hold" benchmark for discrete-event priority queues: prime
/// the queue with `held` events, then run `transitions` pop→push steps where
/// each push lands at the popped time plus a service increment — a
/// discrete-event steady state, in which (like the simulator) nothing is
/// ever scheduled behind the clock. Increments mix WAN-latency transfer
/// completions, job runtimes and far-future stragglers. Returns the last
/// popped time.
pub fn hold_model<Q: EventScheduler>(held: usize, transitions: usize) -> f64 {
    let mut queue = Q::default();
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64, state)
    };
    for i in 0..held {
        let (unit, _) = next();
        queue.push(unit * 168.0, EventKind::JobArrival { job: i as u32 });
    }
    let mut last = 0.0;
    for i in 0..transitions {
        let event = queue.pop().expect("primed queue never drains");
        last = event.time;
        let (unit, s) = next();
        let delta = match s % 8 {
            0 => unit * 0.1,      // transfer completions
            1..=5 => unit * 12.0, // job runtimes
            _ => unit * 400.0,    // stragglers / future arrivals
        };
        queue.push(
            event.time + delta,
            EventKind::JobFinish {
                job: i as u32,
                site: 0,
            },
        );
    }
    last
}
