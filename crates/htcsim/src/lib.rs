//! Event-driven simulator of a distributed high-throughput-computing grid.
//!
//! The paper motivates its surrogate models as a safe source of training and
//! calibration data for optimising *data placement and job allocation* on the
//! globally distributed ATLAS computing grid (Fig. 2), and explicitly lists
//! "more realistic workload inputs to calibrate large-scale event-based
//! simulations" as a use of the synthetic data. This crate is that
//! downstream consumer: a discrete-event simulation of computing sites with
//! bounded execution slots, a replica catalogue with wide-area transfer
//! costs, and pluggable brokerage policies. Feeding it a real workload and a
//! surrogate-generated workload and comparing the simulator's responses is an
//! additional, application-level check of surrogate fidelity (the
//! `downstream` and `simloop` experiment binaries).
//!
//! Built for planetary scale: jobs live in struct-of-arrays
//! [`arena`] storage with interned `u32` dataset/site ids, events flow
//! through a bucketed [`event::CalendarQueue`] (amortised `O(1)` vs the
//! heap's `O(log n)`, byte-identical pop order), and the per-event path
//! performs no allocation — tens of millions of job events per run.
//!
//! * [`event`] — the time-ordered event schedulers (calendar queue + heap
//!   oracle),
//! * [`arena`] — columnar job storage with interned identifiers,
//! * [`site`] — execution sites with slot accounting,
//! * [`storage`] — symbol interning, the dataset replica catalogue, and the
//!   transfer-time model,
//! * [`broker`] — job-to-site brokerage policies,
//! * [`sim`] — the [`GridSimulator`] main loop, its summary report, and
//!   the time-resolved [`SimTrace`].

pub mod arena;
pub mod broker;
pub mod event;
pub mod sim;
pub mod site;
pub mod storage;

pub use arena::{JobArena, SimInputError, NO_ORIGIN};
pub use broker::BrokerPolicy;
pub use event::{CalendarQueue, Event, EventKind, EventScheduler, HeapQueue};
pub use sim::{GridSimulator, SimConfig, SimJob, SimReport, SimTrace};
pub use site::SimSite;
pub use storage::{DatasetId, ReplicaCatalog, SiteId, SymbolTable, TransferModel};
