//! End-to-end integration: DNN traffic model → array characterization →
//! analytical evaluation → exploration, across crates.

use nvmexplorer_core::config::{ArraySettings, CellSelection, StudyConfig, TrafficSpec};
use nvmexplorer_core::explore::{Objective, ResultSet};
use nvmexplorer_core::stream::{NullSink, StudyExecutor};
use nvmx_celldb::TechnologyClass;

fn dnn_study() -> StudyConfig {
    StudyConfig {
        name: "e2e-dnn".into(),
        cells: CellSelection::default(),
        array: ArraySettings {
            capacities_mib: vec![2],
            word_bits: 256,
            ..Default::default()
        },
        traffic: TrafficSpec::DnnContinuous {
            model: "resnet26".into(),
            tasks: 1,
            store_activations: false,
            fps: 60.0,
        },
        constraints: Default::default(),
        output: Default::default(),
        store: Default::default(),
    }
}

#[test]
fn dnn_study_runs_and_produces_a_power_winner() {
    let result = StudyExecutor::new()
        .run(&dnn_study(), &mut NullSink)
        .expect("study runs");
    assert_eq!(
        result.arrays.len(),
        14,
        "6 NVM classes x2 + ref RRAM + SRAM"
    );
    assert!(result.skipped.is_empty());

    let set = ResultSet::new(result.evaluations).feasible();
    assert!(!set.is_empty(), "several technologies sustain 60 FPS");

    let best = set.best(Objective::TotalPower).expect("nonempty");
    assert!(
        best.array.technology.is_nonvolatile(),
        "an eNVM must beat SRAM on power"
    );
}

#[test]
fn envm_power_advantage_over_sram_holds_end_to_end() {
    // Paper Fig. 6: PCM/RRAM/STT offer >4x lower total memory power.
    let result = StudyExecutor::new()
        .run(&dnn_study(), &mut NullSink)
        .expect("study runs");
    let set = ResultSet::new(result.evaluations);
    let power_of = |tech: TechnologyClass, flavor: &str| -> f64 {
        set.evaluations()
            .iter()
            .filter(|e| e.array.technology == tech && e.array.flavor.label() == flavor)
            .map(|e| e.total_power().value())
            .next()
            .expect("present")
    };
    let sram = power_of(TechnologyClass::Sram, "ref");
    for tech in [
        TechnologyClass::Pcm,
        TechnologyClass::Rram,
        TechnologyClass::Stt,
    ] {
        let envm = power_of(tech, "opt");
        assert!(
            sram / envm > 4.0,
            "{tech}: SRAM {sram} W vs {envm} W ({}x)",
            sram / envm
        );
    }
}

#[test]
fn multi_task_needs_more_power_than_single_task() {
    let single = StudyExecutor::new()
        .run(&dnn_study(), &mut NullSink)
        .expect("runs");
    let mut multi_cfg = dnn_study();
    multi_cfg.traffic = TrafficSpec::DnnContinuous {
        model: "resnet26".into(),
        tasks: 3,
        store_activations: false,
        fps: 60.0,
    };
    let multi = StudyExecutor::new()
        .run(&multi_cfg, &mut NullSink)
        .expect("runs");
    let stt_power = |r: &nvmexplorer_core::StudyResult| -> f64 {
        r.evaluations
            .iter()
            .find(|e| e.array.cell_name == "STT-opt")
            .expect("STT present")
            .total_power()
            .value()
    };
    assert!(stt_power(&multi) > stt_power(&single));
}

#[test]
fn json_config_roundtrip_drives_the_same_study() {
    let study = dnn_study();
    let json = study.to_json();
    let parsed = StudyConfig::from_json(&json).expect("parses");
    let a = StudyExecutor::new()
        .run(&study, &mut NullSink)
        .expect("runs");
    let b = StudyExecutor::new()
        .run(&parsed, &mut NullSink)
        .expect("runs");
    assert_eq!(a.arrays.len(), b.arrays.len());
    let names = |r: &nvmexplorer_core::StudyResult| -> Vec<String> {
        r.arrays.iter().map(|x| x.cell_name.clone()).collect()
    };
    assert_eq!(names(&a), names(&b));
}
