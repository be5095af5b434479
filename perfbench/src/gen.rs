//! Seeded input generator: turns one `--seed` into the config files every
//! workload runs. The programs under test only ever see these files; the
//! seed reaches them solely through the fault spec's own `seed` field and
//! through the generated cell and traffic values.

use nvmexplorer_core::config::{
    ArraySettings, CellSelection, Constraints, FaultSpec, FaultStudyConfig, StudyConfig,
    TrafficSpec,
};
use nvmx_celldb::{tentpole, CellDefinition, CellFlavor, TechnologyClass};
use nvmx_nvsim::OptimizationTarget;
use nvmx_units::{BitsPerCell, FeatureSquares};
use nvmx_workloads::TrafficPattern;
use std::path::{Path, PathBuf};

/// SplitMix64: a tiny deterministic generator, identical on every host.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6E76_6D78_6265_6E63)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        #[allow(clippy::cast_possible_truncation)]
        let index = (self.next_u64() % items.len() as u64) as usize;
        &items[index]
    }
}

/// Custom cells in the `dse_cells` population.
pub const CUSTOM_CELLS: usize = 100;
/// Capacities (MiB) of the `dse_cells` sweep.
pub const DSE_CAPACITIES: [u64; 6] = [1, 2, 4, 8, 16, 32];
/// Injection trials per fault model in the fault campaign.
pub const FAULT_TRIALS: u32 = 3;
/// Side of the `serve_grid` traffic grid (read steps × write steps).
pub const GRID_SIDE: usize = 8;

fn base_study(name: &str, cells: CellSelection, traffic: Vec<TrafficPattern>) -> StudyConfig {
    StudyConfig {
        name: name.to_owned(),
        cells,
        array: ArraySettings::default(),
        traffic: TrafficSpec::Explicit { patterns: traffic },
        constraints: Constraints {
            max_power_w: Some(0.5),
            ..Constraints::default()
        },
        output: Default::default(),
        store: Default::default(),
    }
}

fn tentpoles_only() -> CellSelection {
    CellSelection {
        technologies: None,
        tentpoles: true,
        reference_rram: false,
        sram_baseline: false,
        back_gated_fefet: false,
        custom: Vec::new(),
    }
}

/// One seeded traffic pattern: reads between 100 MB/s and 10 GB/s, writes
/// between 1 MB/s and 100 MB/s, log-uniform.
fn one_pattern(rng: &mut Rng) -> TrafficPattern {
    let read = 10f64.powf(rng.uniform(8.0, 10.0));
    let write = 10f64.powf(rng.uniform(6.0, 8.0));
    TrafficPattern::new("seeded", read, write, 64)
}

/// A jittered copy of a randomly chosen tentpole cell: the device expert's
/// "what if this cell were a little denser / faster / leakier" sweep.
fn custom_cell(rng: &mut Rng, bases: &[CellDefinition], index: usize) -> CellDefinition {
    let mut cell = rng.pick(bases).clone();
    let mut jitter = || rng.uniform(0.7, 1.4);
    cell.name = format!("{}-x{index:03}", cell.name);
    cell.flavor = CellFlavor::Custom("perfbench".to_owned());
    cell.area = FeatureSquares::new(cell.area.value() * jitter());
    cell.read.cell_current = cell.read.cell_current * jitter();
    cell.write.pulse = cell.write.pulse * jitter();
    cell.write.current = cell.write.current * jitter();
    cell.endurance_cycles *= jitter();
    cell
}

/// The `dse_cells` campaign: ~100 custom cells × 6 capacities × SLC/MLC2
/// × 2 targets × 1 traffic pattern.
pub fn dse_cells(seed: u64) -> StudyConfig {
    let mut rng = Rng::new(seed);
    let bases: Vec<CellDefinition> = tentpole::tentpoles(nvmx_celldb::survey::database())
        .into_iter()
        .filter(|c| c.technology != TechnologyClass::Sram && c.technology.is_validated())
        .collect();
    let custom = (0..CUSTOM_CELLS)
        .map(|i| custom_cell(&mut rng, &bases, i))
        .collect();
    let cells = CellSelection {
        tentpoles: false,
        custom,
        ..tentpoles_only()
    };
    let mut study = base_study("dse_cells", cells, vec![one_pattern(&mut rng)]);
    study.array.capacities_mib = DSE_CAPACITIES.to_vec();
    study.array.bits_per_cell = vec![BitsPerCell::Slc, BitsPerCell::Mlc2];
    study.array.targets = vec![OptimizationTarget::ReadEdp, OptimizationTarget::WriteEdp];
    study
}

/// The fault campaign shared by `fault_trials` and `fleet_fault`: the
/// tentpole cells × SLC/MLC2 × 25/85 °C plus 3 seeded raw BERs, over a
/// 1-pattern base sweep.
pub fn fault_campaign(seed: u64) -> FaultStudyConfig {
    let mut rng = Rng::new(seed.wrapping_add(1));
    let study = base_study(
        "fault_trials",
        tentpoles_only(),
        vec![one_pattern(&mut rng)],
    );
    let raw_bers = (0..3)
        .map(|_| 10f64.powf(rng.uniform(-4.0, -2.0)))
        .collect();
    FaultStudyConfig {
        study,
        fault: FaultSpec {
            trials: FAULT_TRIALS,
            seed: rng.next_u64() >> 1,
            bits_per_cell: vec![BitsPerCell::Slc, BitsPerCell::Mlc2],
            temperatures_c: vec![25.0, 85.0],
            raw_bers,
            tolerance: 0.05,
        },
    }
}

/// The `serve_grid` session: the tentpole cells × SLC/MLC2 × 2 targets
/// over a seeded 8×8 read × write traffic grid.
pub fn serve_grid(seed: u64) -> StudyConfig {
    let mut rng = Rng::new(seed.wrapping_add(2));
    let read0 = rng.uniform(7.5, 8.5);
    let write0 = rng.uniform(5.5, 6.5);
    let mut patterns = Vec::with_capacity(GRID_SIDE * GRID_SIDE);
    for r in 0..GRID_SIDE {
        for w in 0..GRID_SIDE {
            #[allow(clippy::cast_precision_loss)]
            let (read, write) = (
                10f64.powf(read0 + 0.25 * r as f64 + rng.uniform(0.0, 0.05)),
                10f64.powf(write0 + 0.25 * w as f64 + rng.uniform(0.0, 0.05)),
            );
            patterns.push(TrafficPattern::new(format!("r{r}w{w}"), read, write, 64));
        }
    }
    let mut study = base_study("serve_grid", tentpoles_only(), patterns);
    study.array.bits_per_cell = vec![BitsPerCell::Slc, BitsPerCell::Mlc2];
    study.array.targets = vec![OptimizationTarget::ReadEdp, OptimizationTarget::WriteEdp];
    study
}

/// Writes the workload's config into `dir` and returns its path.
pub fn write_config(workload: &str, seed: u64, dir: &Path) -> std::io::Result<PathBuf> {
    let json = match workload {
        "dse_cells" => dse_cells(seed).to_json(),
        "serve_grid" => serve_grid(seed).to_json(),
        _ => fault_campaign(seed).to_json(),
    };
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{workload}.json"));
    std::fs::write(&path, json)?;
    Ok(path)
}
