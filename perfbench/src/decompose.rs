//! In-process passes over the same config the runners execute: the
//! reference artifacts for the correctness gate, and the traced
//! decomposition that times each layer's public call on its own.
//!
//! The decomposition fans the per-item layers (characterization jobs,
//! evaluation batches, fault trials) out over the same worker count the
//! runner uses, so each span is the layer's wall share of a real campaign.
//! It reassembles the study from the layer outputs and renders the
//! artifacts from them, so the caller can prove the pass byte-identical to
//! what the runner wrote.
//!
//! The passes run in the long-lived harness, where the process-wide memos
//! (nvsim's H-tree stairs, the celldb survey table, the classifier) are
//! already built; a fresh runner builds them cold, and that cost falls in
//! the campaign's unattributed remainder.

use crate::trace::Recorder;
use nvmexplorer_core::config::{CampaignConfig, FaultStudyConfig, StudyConfig};
use nvmexplorer_core::eval::{EvalKernel, Evaluation, RateLanes};
use nvmexplorer_core::fault_study::{expand_models, injection_seed, FaultOutcome, FaultTrial};
use nvmexplorer_core::stream::{NullSink, StudyExecutor};
use nvmexplorer_core::sweep::StudyResult;
use nvmexplorer_core::wire::{EventReplayer, SlotMerger, StreamReplayer, WireFrame, WireSink};
use nvmx_bench::campaign::{fault_csv, fault_summary_line, results_csv, summary_line};
use nvmx_celldb::CellDefinition;
use nvmx_nvsim::{
    characterize_targets_cached, ArrayCharacterization, ArrayConfig, OptimizationTarget,
    SubarrayCache,
};
use nvmx_workloads::nn::trained_classifier;
use nvmx_workloads::{TrafficGrid, TrafficPattern};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Training seed of the process-wide fault-study classifier
/// (`core::accuracy`); the byte-identity check against the runner's fault
/// CSV proves this still matches.
const CLASSIFIER_SEED: u64 = 2022;

/// The artifacts a campaign produces: results CSV, fault CSV (fault
/// campaigns), and the stdout summary line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifacts {
    pub results_csv: String,
    pub fault_csv: Option<String>,
    pub summary: String,
}

impl Artifacts {
    pub fn of(study: &StudyConfig, result: &StudyResult, fault: Option<&FaultOutcome>) -> Self {
        Self {
            results_csv: results_csv(study, result).render(),
            fault_csv: fault.map(|f| fault_csv(f).render()),
            summary: match fault {
                Some(f) => fault_summary_line(study, result, f),
                None => summary_line(study, result),
            },
        }
    }
}

/// What a reference run knows beyond its artifacts.
pub struct Reference {
    pub artifacts: Artifacts,
    pub evaluations: usize,
    pub trials: usize,
    pub bits_flipped: u64,
}

pub fn parse(text: &str) -> Result<CampaignConfig, String> {
    CampaignConfig::from_json(text).map_err(|e| e.to_string())
}

/// The in-process `StudyExecutor` reference for a config.
pub fn reference(campaign: &CampaignConfig) -> Result<Reference, String> {
    let executor = StudyExecutor::new();
    match campaign {
        CampaignConfig::Study(study) => {
            let result = executor
                .run(study, &mut NullSink)
                .map_err(|e| e.to_string())?;
            Ok(Reference {
                evaluations: result.evaluations.len(),
                trials: 0,
                bits_flipped: 0,
                artifacts: Artifacts::of(study, &result, None),
            })
        }
        CampaignConfig::Fault(fc) => {
            let result = executor
                .run_fault(fc, &mut NullSink)
                .map_err(|e| e.to_string())?;
            Ok(Reference {
                evaluations: result.study.evaluations.len(),
                trials: result.fault.trials.len(),
                bits_flipped: result.fault.trials.iter().map(|t| t.bits_flipped).sum(),
                artifacts: Artifacts::of(&fc.study, &result.study, Some(&result.fault)),
            })
        }
    }
}

/// Runs `f(0..n)` over `threads` workers claiming items from an atomic
/// index, like the engine's fan-out; results come back in item order.
pub fn fan_out<T: Send + Sync>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let _ = slots[i].set(f(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every slot filled"))
        .collect()
}

/// One `(cell, capacity, depth)` design-space job, in the engine's report
/// order: cells by name, capacities ascending, depths ascending.
fn jobs<'a>(
    study: &StudyConfig,
    cells: &'a [CellDefinition],
) -> Vec<(&'a CellDefinition, ArrayConfig)> {
    let targets = targets(study);
    let mut order: Vec<&CellDefinition> = cells.iter().collect();
    order.sort_by(|a, b| a.name.cmp(&b.name));
    let mut capacities = study.array.capacities();
    capacities.sort_unstable();
    let mut depths = study.array.bits_per_cell.clone();
    depths.sort_unstable();
    let mut out = Vec::new();
    for cell in order {
        for &capacity in &capacities {
            for &bits_per_cell in &depths {
                out.push((
                    cell,
                    ArrayConfig {
                        capacity,
                        word_bits: study.array.word_bits,
                        node: study.array.node_for(cell),
                        bits_per_cell,
                        target: targets[0],
                    },
                ));
            }
        }
    }
    out
}

fn targets(study: &StudyConfig) -> Vec<OptimizationTarget> {
    let mut targets = study.array.targets.clone();
    targets.sort_by_key(|t| t.label());
    targets
}

/// Characterized arrays in job order, plus the skipped design points.
type Characterized = (Vec<ArrayCharacterization>, Vec<(String, String)>);

/// `characterize_targets_cached` over every job of the study.
pub fn characterize(
    study: &StudyConfig,
    cells: &[CellDefinition],
    cache: &SubarrayCache,
    threads: usize,
) -> Characterized {
    let targets = targets(study);
    let jobs = jobs(study, cells);
    let outcomes = fan_out(jobs.len(), threads, |i| {
        characterize_targets_cached(jobs[i].0, &jobs[i].1, &targets, cache)
    });
    let mut arrays = Vec::new();
    let mut skipped = Vec::new();
    for ((cell, _), outcome) in jobs.iter().zip(outcomes) {
        match outcome {
            Ok(designs) => arrays.extend(designs),
            Err(e) => {
                let reason = e.to_string();
                skipped.extend(targets.iter().map(|_| (cell.name.clone(), reason.clone())));
            }
        }
    }
    (arrays, skipped)
}

/// `EvalKernel::new` + `apply_batch_with` for every array over the
/// study's traffic lanes, array-major like the engine's stream.
fn evaluate(
    arrays: &[ArrayCharacterization],
    traffic: Vec<TrafficPattern>,
    threads: usize,
) -> Vec<Evaluation> {
    let grid = TrafficGrid::from_shared(traffic.into_iter().map(Arc::new).collect());
    let mut rate_sets: Vec<RateLanes> = Vec::new();
    let kernels: Vec<(EvalKernel, usize)> = arrays
        .iter()
        .map(|a| {
            let kernel = EvalKernel::new(&Arc::new(a.clone()));
            let slot = rate_sets
                .iter()
                .position(|r| r.word_bits() == kernel.word_bits())
                .unwrap_or_else(|| {
                    rate_sets.push(RateLanes::new(&grid, kernel.word_bits()));
                    rate_sets.len() - 1
                });
            (kernel, slot)
        })
        .collect();
    fan_out(kernels.len(), threads, |i| {
        kernels[i]
            .0
            .apply_batch_with(&grid, &rate_sets[kernels[i].1])
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Spans of one traced fault-trial phase.
struct TrialPhase {
    trials: Vec<FaultTrial>,
    wall: Duration,
    inject: Duration,
    infer: Duration,
}

/// The fault trials of a campaign, each built from its public pieces
/// (`weight_bytes`, `inject_seeded`, `load_weight_bytes` + `accuracy`)
/// exactly as `core::accuracy::fault_trial` composes them. Parallel piece
/// times are scaled to the phase's wall share.
fn trials(
    fc: &FaultStudyConfig,
    classifier: &(
        nvmx_workloads::nn::QuantizedMlp,
        nvmx_workloads::dataset::Dataset,
    ),
    threads: usize,
) -> TrialPhase {
    let models = expand_models(fc);
    let per_model = fc.fault.trials.max(1) as usize;
    let (clean, test) = classifier;
    let start = Instant::now();
    let timed = fan_out(models.len() * per_model, threads, |slot| {
        let (m, t) = (slot / per_model, slot % per_model);
        let seed = injection_seed(fc.fault.seed, slot as u64);
        let spec = &models[m];
        let t0 = Instant::now();
        let mut bytes = clean.weight_bytes();
        let t1 = Instant::now();
        let injection = spec.model.inject_seeded(&mut bytes, seed);
        let t2 = Instant::now();
        let mut faulty = clean.clone();
        faulty.load_weight_bytes(&bytes);
        let accuracy = faulty.accuracy(test);
        let t3 = Instant::now();
        let trial = FaultTrial {
            model_index: m,
            #[allow(clippy::cast_possible_truncation)]
            trial: t as u32,
            cell: spec.model.cell_name.clone(),
            bits_per_cell: spec.model.bits_per_cell,
            temperature_c: spec.temperature_c,
            bit_error_rate: spec.model.bit_error_rate(),
            injection_seed: seed,
            bits_total: injection.bits_total,
            bits_flipped: injection.bits_flipped,
            accuracy,
        };
        (trial, t3 - t0, t2 - t1, t3 - t2)
    });
    let wall = start.elapsed();
    let total: f64 = timed.iter().map(|x| x.1.as_secs_f64()).sum();
    let share = |d: f64| wall.mul_f64(if total > 0.0 { d / total } else { 0.0 });
    let inject = share(timed.iter().map(|x| x.2.as_secs_f64()).sum());
    let infer = share(timed.iter().map(|x| x.3.as_secs_f64()).sum());
    TrialPhase {
        trials: timed.into_iter().map(|x| x.0).collect(),
        wall,
        inject,
        infer,
    }
}

fn record_trials(rec: &mut Recorder, phase: &TrialPhase, start: Instant, parent: usize, cid: u64) {
    let id = rec.record("fault.trial", start, phase.wall, Some(parent), cid);
    rec.record("fault.inject", start, phase.inject, Some(id), cid);
    rec.record("nn.infer", start, phase.infer, Some(id), cid);
}

/// The traced decomposition of one local `run` campaign, attached under
/// `campaign` (the runner's process span). Returns the artifacts rendered
/// from the layer outputs.
pub fn local_pass(
    rec: &mut Recorder,
    campaign: usize,
    cid: u64,
    text: &str,
    threads: usize,
) -> Result<Artifacts, String> {
    let parent = Some(campaign);
    let (config, _) = rec.time("config.parse", parent, cid, || parse(text));
    let config = config?;
    let study = config.study();
    let (cells, _) = rec.time("celldb.resolve", parent, cid, || study.cells.resolve());
    let classifier = match &config {
        CampaignConfig::Fault(_) => Some(
            rec.time("nn.train", parent, cid, || {
                trained_classifier(CLASSIFIER_SEED)
            })
            .0,
        ),
        CampaignConfig::Study(_) => None,
    };
    let (engine, engine_id) = rec.time("engine.run", parent, cid, || {
        let executor = StudyExecutor::with_threads(threads);
        match &config {
            CampaignConfig::Study(s) => executor.run(s, &mut NullSink).map(|r| (r, None)),
            CampaignConfig::Fault(fc) => executor
                .run_fault(fc, &mut NullSink)
                .map(|r| (r.study, Some(r.fault))),
        }
    });
    let (engine_result, engine_fault) = engine.map_err(|e| e.to_string())?;
    let cache = SubarrayCache::new();
    let ((arrays, skipped), _) = rec.time("nvsim.characterize", Some(engine_id), cid, || {
        characterize(study, &cells, &cache, threads)
    });
    let traffic = study.traffic.resolve().map_err(|e| e.to_string())?;
    let (evaluations, _) = rec.time("eval.batch", Some(engine_id), cid, || {
        evaluate(&arrays, traffic, threads)
    });
    let fault = match (&config, classifier, engine_fault) {
        (CampaignConfig::Fault(fc), Some(classifier), Some(engine_fault)) => {
            let start = Instant::now();
            let phase = trials(fc, &classifier, threads);
            record_trials(rec, &phase, start, engine_id, cid);
            Some(FaultOutcome {
                trials: phase.trials,
                reports: engine_fault.reports,
                stats: engine_fault.stats,
            })
        }
        _ => None,
    };
    let result = StudyResult {
        name: study.name.clone(),
        arrays,
        evaluations,
        skipped,
    };
    Ok(render(
        rec,
        parent,
        cid,
        study,
        &result,
        fault.as_ref(),
        &engine_result,
    ))
}

/// `csv.build` + `csv.render` spans; the summary line comes from the
/// engine's own result (it is a count, not a layer).
fn render(
    rec: &mut Recorder,
    parent: Option<usize>,
    cid: u64,
    study: &StudyConfig,
    result: &StudyResult,
    fault: Option<&FaultOutcome>,
    summary_of: &StudyResult,
) -> Artifacts {
    let (csvs, _) = rec.time("csv.build", parent, cid, || {
        (results_csv(study, result), fault.map(fault_csv))
    });
    let ((results, faults), _) = rec.time("csv.render", parent, cid, || {
        (
            csvs.0.render(),
            csvs.1.as_ref().map(nvmx_viz::csv::Csv::render),
        )
    });
    Artifacts {
        results_csv: results,
        fault_csv: faults,
        summary: match fault {
            Some(f) => fault_summary_line(study, summary_of, f),
            None => summary_line(study, summary_of),
        },
    }
}

/// Wire volume of one encoded campaign.
#[derive(Default, Clone, Copy)]
pub struct WireVolume {
    pub frames: u64,
    pub bytes: u64,
}

fn encode(executor: &StudyExecutor<'_>, config: &CampaignConfig) -> Result<Vec<u8>, String> {
    let mut sink = WireSink::new(Vec::new());
    match config {
        CampaignConfig::Study(s) => executor.run(s, &mut sink).map(|_| ()),
        CampaignConfig::Fault(fc) => executor.run_fault(fc, &mut sink).map(|_| ()),
    }
    .map_err(|e| e.to_string())?;
    Ok(sink.into_inner())
}

fn lines(buffer: &[u8]) -> Result<Vec<&str>, String> {
    std::str::from_utf8(buffer)
        .map(|s| s.lines().collect())
        .map_err(|e| e.to_string())
}

/// Span ids of one client-observed serve session.
pub struct SessionSpans {
    pub submit: usize,
    pub first_frame: usize,
    pub stream: usize,
    pub client: usize,
}

/// The traced decomposition of one `nvmx-serve` session against a warm
/// cache (the daemon's state after set-up): the engine and the wire
/// encode under `service.stream`, the client's strict replay beside them,
/// and the CSV under `service.client`.
pub fn serve_pass(
    rec: &mut Recorder,
    spans: &SessionSpans,
    cid: u64,
    text: &str,
    threads: usize,
    warm: &SubarrayCache,
) -> Result<(Artifacts, WireVolume), String> {
    let (config, _) = rec.time("config.parse", Some(spans.submit), cid, || parse(text));
    let config = config?;
    let study = config.study();
    let (cells, _) = rec.time("celldb.resolve", Some(spans.first_frame), cid, || {
        study.cells.resolve()
    });
    let executor = StudyExecutor::with_threads(threads).cache(warm);
    let (engine, engine_id) = rec.time("engine.run", Some(spans.stream), cid, || {
        executor.run(study, &mut NullSink)
    });
    engine.map_err(|e| e.to_string())?;
    let ((arrays, _), _) = rec.time("nvsim.characterize", Some(engine_id), cid, || {
        characterize(study, &cells, warm, threads)
    });
    let traffic = study.traffic.resolve().map_err(|e| e.to_string())?;
    rec.time("eval.batch", Some(engine_id), cid, || {
        evaluate(&arrays, traffic, threads)
    });
    let start = Instant::now();
    let buffer = encode(&executor, &config)?;
    let encode_wall = start.elapsed();
    let engine_wall = rec.spans[engine_id].dur;
    rec.record(
        "wire.encode",
        start,
        encode_wall.saturating_sub(engine_wall),
        Some(spans.stream),
        cid,
    );
    let lines = lines(&buffer)?;
    let (replayed, replay_id) = rec.time("wire.replay", Some(spans.stream), cid, || {
        let mut replayer = StreamReplayer::new();
        for line in &lines {
            replayer
                .push_line(line, &mut NullSink)
                .map_err(|e| e.to_string())?;
        }
        replayer.finish().map_err(|e| e.to_string())
    });
    let replay = replayed?;
    rec.time("wire.parse", Some(replay_id), cid, || {
        lines.iter().filter(|l| WireFrame::parse(l).is_ok()).count()
    });
    let volume = WireVolume {
        frames: lines.len() as u64,
        bytes: buffer.len() as u64,
    };
    let artifacts = render(
        rec,
        Some(spans.client),
        cid,
        study,
        &replay.result,
        None,
        &replay.result,
    );
    Ok((artifacts, volume))
}

/// The traced decomposition of one leased-fleet campaign under
/// `campaign` (the coordinator's process span): one worker's compute into
/// a wire buffer, the coordinator's parse + slot merge, its replay, and
/// the CSV. Supervision, transport and fixed sleeps stay unattributed.
pub fn fleet_pass(
    rec: &mut Recorder,
    campaign: usize,
    cid: u64,
    text: &str,
) -> Result<(Artifacts, WireVolume, f64), String> {
    let parent = Some(campaign);
    let (config, _) = rec.time("config.parse", parent, cid, || parse(text));
    let config = config?;
    let study = config.study();
    rec.time("celldb.resolve", parent, cid, || study.cells.resolve());
    rec.time("nn.train", parent, cid, || {
        trained_classifier(CLASSIFIER_SEED)
    });
    let (buffer, compute_id) = rec.time("fleet.worker_compute", parent, cid, || {
        encode(&StudyExecutor::with_threads(1), &config)
    });
    let buffer = buffer?;
    let compute_s = rec.spans[compute_id].dur.as_secs_f64();
    let lines = lines(&buffer)?;
    let (merged, _) = rec.time("fleet.merge", parent, cid, || {
        let mut merger = SlotMerger::new();
        let mut merged = Vec::with_capacity(lines.len());
        for line in &lines {
            let frame = WireFrame::parse(line).map_err(|e| e.to_string())?;
            merger.offer(frame.seq, frame, &mut |_, f| {
                merged.push(f);
                Ok::<(), String>(())
            })?;
        }
        Ok::<_, String>(merged)
    });
    let merged = merged?;
    let (replayed, _) = rec.time("wire.replay", parent, cid, || {
        let mut replayer = EventReplayer::new();
        for frame in &merged {
            replayer
                .apply(&frame.event, &mut NullSink)
                .map_err(|e| e.to_string())?;
        }
        replayer
            .finish_parts()
            .ok_or_else(|| "merged stream did not finish".to_owned())
    });
    let (result, fault) = replayed?;
    let volume = WireVolume {
        frames: lines.len() as u64,
        bytes: buffer.len() as u64,
    };
    let artifacts = render(rec, parent, cid, study, &result, fault.as_ref(), &result);
    Ok((artifacts, volume, compute_s))
}

/// Deterministic layer counters, taken once per run on one thread.
#[derive(Default, Clone, Copy)]
pub struct Counters {
    pub candidates: u64,
    pub pruned: u64,
    pub prune_rate: f64,
    pub l1_hit_rate: f64,
    pub l2_hits: u64,
}

/// Characterizes the study once on one thread against `cache` and reports
/// what the cache saw.
pub fn counters(study: &StudyConfig, cache: &SubarrayCache) -> Counters {
    let before = cache.stats();
    characterize(study, &study.cells.resolve(), cache, 1);
    let stats = cache.stats().since(before);
    Counters {
        candidates: stats.candidates(),
        pruned: stats.pruned,
        prune_rate: stats.prune_rate(),
        l1_hit_rate: stats.hit_rate(),
        l2_hits: stats.l2_hits,
    }
}
