//! A Perfetto-like tracing layer.
//!
//! §5 of the paper answers "why does video QoE degrade?" by recording
//! system-wide scheduler traces with Perfetto and querying them: total time
//! per thread state (Table 4), the top running threads, `mmcqd` preemption
//! statistics (Table 5), `kswapd`'s state breakdown (Fig. 13) and counter
//! tracks like lmkd CPU utilization (Fig. 14).
//!
//! [`Trace`] records the scheduler's switch/wakeup events, preemption
//! records and named counter tracks during a run; [`analysis`] implements
//! the queries the paper's IPython notebooks run over Perfetto output.

pub mod analysis;
pub mod chrome_trace;
pub mod trace;

pub use analysis::{PreemptionSummary, ThreadRunTime};
pub use chrome_trace::{chrome_trace_json, validate_chrome_trace, write_chrome_trace};
pub use trace::{FlowRecord, InstantEvent, Trace};
