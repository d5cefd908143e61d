//! Memory-pressure workloads.
//!
//! The paper induces pressure two ways (§4.1):
//!
//! * **Synthetic** — the *MP Simulator* app from \[34\]: allocate (and pin)
//!   memory until the kernel emits the target `onTrimMemory` level, then
//!   hold it for the duration of the experiment ([`MpSimulator`]).
//! * **Organic** — open real applications (8 top-free Play Store apps, no
//!   games) before starting the video, and let the system fight over memory
//!   naturally ([`organic::BackgroundApps`]).
//!
//! For the §3 user study, [`fleet`] models a user's day on their phone —
//! screen-on sessions, app launches weighted by their self-reported usage
//! pattern (Fig. 1), multitasking depth, foreground app growth — driving a
//! coarse-stepped memory manager for days of simulated time.

pub mod catalog;
pub mod fleet;
pub mod mp_simulator;
pub mod organic;

pub use fleet::{FleetSample, FleetUser, UsagePattern};
pub use mp_simulator::MpSimulator;
pub use organic::BackgroundApps;
