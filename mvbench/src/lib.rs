//! mvbench: one benchmark for mvqoe, end to end and layer by layer.
//!
//! Two workloads drawn from the paper's own experiments drive the program
//! through its public entry points from one process: the §3 fleet at its
//! million-user shape (`fleet-million`) and the live telemetry service
//! (`fleet-ingest`). The session layers — the §4.3 controlled grid and the
//! counterfactual/arena/blame path — are checked and probed inside
//! `fleet-million`, untimed.
//! See `README.md` next to this crate for why each exists and what each
//! metric should move.

pub mod fleet_ingest;
pub mod fleet_million;
pub mod harness;
pub mod host;
pub mod paper_grid;
pub mod report;
pub mod spans;
pub mod stats;
pub mod whatif_fork;

use harness::{RunConfig, RunResult};

/// Run the workload named `name`, or `None` if there is no such workload.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Option<RunResult> {
    Some(match name {
        "fleet-million" => harness::run::<fleet_million::FleetMillion>(cfg),
        "fleet-ingest" => harness::run::<fleet_ingest::FleetIngest>(cfg),
        _ => return None,
    })
}
