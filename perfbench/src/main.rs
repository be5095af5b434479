//! `perfbench` — drives the NVMExplorer-RS runners from outside and prints
//! one JSON result line.
//!
//! ```text
//! perfbench --workload <dse_cells|fault_trials|serve_grid|fleet_fault>
//!           --seed N --seconds S --trace 0|1 --bin-dir DIR [--out DIR]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of one timed window of
//! identical campaigns. `--trace 1` runs the same loop with an in-process
//! decomposition pass for each campaign of its second half and reports the
//! per-layer metrics, writing a Chrome trace and a summary table under
//! `--out`.
//! `perfbench/README.md` documents every workload and metric.

mod decompose;
mod gen;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bin_dir: PathBuf,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut bin_dir) =
        (None, 0, 10.0, false, None);
    let mut out = PathBuf::from(".perfbench");
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {:?})",
            workloads::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        out,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Every check beyond the per-campaign gate (reference, decomposition
    /// byte-identity, set-up) passed.
    pub checks_ok: bool,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks_ok && self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    match workloads::run(&args) {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
