//! The fleet simulator's load-generator mode: drive fleet users and upload
//! their 1 Hz output as newline-delimited JSON device reports, exactly as
//! a phone-side agent would. The generator replays the same
//! coordinate-derived seeds as the batch engine (`start_user` +
//! `step_1s`) and sends each maximal run of same-state seconds as one
//! `Run` frame, so a service that ingests its stream must fold to a
//! byte-identical [`mvqoe_study::FleetAggregate`].

use crate::report::{DeviceReport, IngestAck};
use mvqoe_sim::SimTime;
use mvqoe_study::{start_user, FleetConfig};
use mvqoe_workload::FleetSample;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::ops::Range;

fn io_err(e: impl ToString) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::Other, e.to_string())
}

/// How many encoded bytes an ingest connection holds before it writes
/// them. Small enough that the server parses a device's frames while the
/// device is still being simulated, leaving at most this much to parse
/// after the final flush; large enough to keep most lines off the
/// syscall path.
const UPLINK_BUFFER: usize = 16 * 1024;

/// An ingest connection's write half: each report is encoded into one
/// reused line buffer, and the lines go out through [`UPLINK_BUFFER`]
/// bytes of buffering.
struct Uplink<'a> {
    out: BufWriter<&'a TcpStream>,
    line: String,
}

impl Uplink<'_> {
    fn send(&mut self, report: &DeviceReport) -> std::io::Result<()> {
        self.line.clear();
        serde_json::to_string_into(&mut self.line, report);
        self.line.push('\n');
        self.out.write_all(self.line.as_bytes())
    }
}

/// Coalesce consecutive 1 Hz samples into maximal runs of the same state:
/// each run's first sample and the number of seconds it covers.
fn sample_runs(
    samples: impl Iterator<Item = FleetSample>,
) -> impl Iterator<Item = (FleetSample, u32)> {
    let mut samples = samples.peekable();
    std::iter::from_fn(move || {
        let first = samples.next()?;
        let mut count = 1u32;
        while count < u32::MAX && samples.next_if(|s| first.same_state(s)).is_some() {
            count += 1;
        }
        Some((first, count))
    })
}

/// Simulate fleet users `users` under `cfg` and upload each as a
/// `Begin` / `Run` frames covering its 1 Hz samples / `End` sequence over
/// one connection, then half-close it and wait for the server's
/// [`IngestAck`] line, which comes once everything uploaded is folded.
pub fn run_fleet_loadgen(
    addr: SocketAddr,
    cfg: &FleetConfig,
    users: Range<u32>,
) -> std::io::Result<IngestAck> {
    let stream = TcpStream::connect(addr)?;
    let mut uplink = Uplink {
        out: BufWriter::with_capacity(UPLINK_BUFFER, &stream),
        line: String::new(),
    };
    for i in users {
        let mut st = start_user(cfg, i);
        uplink.send(&DeviceReport::Begin {
            device: i,
            name: st.user.device.name.clone(),
            manufacturer: st.user.device.manufacturer.clone(),
            ram_mib: st.user.device.ram_mib,
            pattern: st.user.pattern,
            hours: st.hours,
        })?;
        let steps = (0..st.seconds()).map(|s| st.user.step_1s(SimTime::from_secs(s)));
        for (sample, count) in sample_runs(steps) {
            uplink.send(&DeviceReport::Run {
                device: i,
                sample,
                count,
            })?;
        }
        uplink.send(&DeviceReport::End { device: i })?;
    }
    uplink.out.flush()?;
    stream.shutdown(Shutdown::Write)?;
    let mut ack_line = String::new();
    BufReader::new(&stream).read_line(&mut ack_line)?;
    serde_json::from_str(ack_line.trim_end()).map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescer_emits_maximal_runs_covering_every_second() {
        let cfg = FleetConfig::scaled(6, 2077, 0.05, 0.005);
        let mut runs_total = 0;
        for i in 0..cfg.n_users {
            let mut st = start_user(&cfg, i);
            let samples: Vec<FleetSample> = (0..st.seconds())
                .map(|s| st.user.step_1s(SimTime::from_secs(s)))
                .collect();
            let runs: Vec<(FleetSample, u32)> = sample_runs(samples.iter().copied()).collect();
            let covered: u64 = runs.iter().map(|&(_, n)| u64::from(n)).sum();
            assert_eq!(covered, st.seconds(), "device {i}: runs cover every second");
            let mut next = 0u64;
            for (k, &(first, count)) in runs.iter().enumerate() {
                assert!(count >= 1, "device {i}: empty run");
                assert_eq!(first.at, SimTime::from_secs(next), "device {i}: run {k}");
                let span = &samples[next as usize..(next + u64::from(count)) as usize];
                assert!(
                    span.iter().all(|s| first.same_state(s)),
                    "device {i}: run {k} mixes states"
                );
                if let Some(after) = samples.get((next + u64::from(count)) as usize) {
                    assert!(
                        !first.same_state(after),
                        "device {i}: run {k} is not maximal"
                    );
                }
                next += u64::from(count);
            }
            runs_total += runs.len();
        }
        assert!(runs_total > 0);
    }
}
