//! `mvqoe`: regenerate any experiment in the registry, or check the
//! artifacts they write. `mvqoe list` prints the registry, `mvqoe all
//! --quick` runs a reduced pass of the paper's evaluation, and
//! `mvqoe lint results/arena.json` checks one artifact.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    mvqoe_experiments::registry::cli(&args)
}
