//! Integration: the JSON configuration interface (the paper artifact's
//! `run.py config/*.json` flow) round-trips and drives studies.

use nvmexplorer_core::config::{
    ArraySettings, CellSelection, Constraints, OutputSpec, StudyConfig, TrafficSpec,
};
use nvmexplorer_core::explore::ResultSet;
use nvmexplorer_core::stream::{NullSink, StudyExecutor};
use nvmx_celldb::TechnologyClass;
use nvmx_nvsim::OptimizationTarget;
use nvmx_units::BitsPerCell;

fn main_dnn_study() -> StudyConfig {
    StudyConfig {
        name: "main_dnn_study".into(),
        cells: CellSelection {
            back_gated_fefet: true,
            ..CellSelection::default()
        },
        array: ArraySettings {
            capacities_mib: vec![2],
            word_bits: 256,
            node_nm: 22.0,
            bits_per_cell: vec![BitsPerCell::Slc],
            targets: vec![OptimizationTarget::ReadEdp, OptimizationTarget::ReadLatency],
        },
        traffic: TrafficSpec::DnnContinuous {
            model: "resnet26".into(),
            tasks: 1,
            store_activations: false,
            fps: 60.0,
        },
        constraints: Constraints {
            max_power_w: Some(0.05),
            ..Constraints::default()
        },
        output: OutputSpec::default(),
        store: Default::default(),
    }
}

#[test]
fn full_config_round_trips_through_json() {
    let study = main_dnn_study();
    let json = study.to_json();
    let parsed = StudyConfig::from_json(&json).expect("valid JSON");
    assert_eq!(parsed, study);
    // Key fields survive.
    assert!(json.contains("main_dnn_study"));
    assert!(json.contains("resnet26"));
    assert!(json.contains("dnn_continuous"));
}

#[test]
fn handwritten_json_is_accepted() {
    // A user-authored config with defaults omitted — the artifact style.
    let json = r#"{
        "name": "my_study",
        "traffic": {
            "kind": "generic_sweep",
            "read_min": 1e9, "read_max": 1e10, "read_steps": 3,
            "write_min": 1e6, "write_max": 1e8, "write_steps": 3,
            "access_bytes": 8
        }
    }"#;
    let study = StudyConfig::from_json(json).expect("parses with defaults");
    assert_eq!(study.array.capacities_mib, vec![2]);
    let result = StudyExecutor::new()
        .run(&study, &mut NullSink)
        .expect("runs");
    assert_eq!(result.evaluations.len(), result.arrays.len() * 9);
}

#[test]
fn constraints_filter_results_after_a_run() {
    let study = main_dnn_study();
    let result = StudyExecutor::new()
        .run(&study, &mut NullSink)
        .expect("runs");
    let set = ResultSet::new(result.evaluations);
    let constrained = set.constrained(&study.constraints);
    assert!(
        constrained.len() < set.len(),
        "the 50 mW budget must exclude SRAM"
    );
    assert!(constrained
        .evaluations()
        .iter()
        .all(|e| e.total_power().value() <= 0.05));
}

#[test]
fn malformed_json_is_rejected() {
    assert!(StudyConfig::from_json("{\"name\": }").is_err());
    assert!(
        StudyConfig::from_json("{}").is_err(),
        "traffic is mandatory"
    );
}

#[test]
fn narrowed_selection_excludes_other_technologies() {
    let mut study = main_dnn_study();
    study.cells = CellSelection {
        technologies: Some(vec![TechnologyClass::FeFet]),
        reference_rram: false,
        sram_baseline: false,
        back_gated_fefet: false,
        ..CellSelection::default()
    };
    let result = StudyExecutor::new()
        .run(&study, &mut NullSink)
        .expect("runs");
    assert!(result
        .arrays
        .iter()
        .all(|a| a.technology == TechnologyClass::FeFet));
}
