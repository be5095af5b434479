//! The four workloads: each generates its inputs, sets up (timed, several
//! times, median reported), computes the in-process reference outside
//! every timed region, then runs identical campaigns for the window and
//! gates every one of them against the reference.

use crate::decompose::{self, Artifacts, Counters, SessionSpans, WireVolume};
use crate::trace::{median, quantile, Recorder};
use crate::{gen, sys, Args, Metric, Report};
use nvmexplorer_core::config::{CampaignConfig, StudyConfig};
use nvmexplorer_core::stream::{NullSink, StudyExecutor};
use nvmexplorer_core::wire::{RequestFrame, ResponseFrame, StreamReplayer};
use nvmx_bench::campaign::{results_csv, summary_line};
use nvmx_bench::service_net::{Client, Endpoint};
use nvmx_nvsim::SubarrayCache;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = ["dse_cells", "fault_trials", "serve_grid", "fleet_fault"];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Any single campaign or session running longer than this is a failure.
const TIMEOUT: Duration = Duration::from_secs(60);
/// Closed-loop client connections on `serve_grid`.
const CLIENTS: usize = 2;
/// Sessions each `serve_grid` client sends per second of `--seconds`. The
/// daemon retains every session's log, so its peak RSS is only comparable
/// between runs that send the same number of sessions.
const SESSIONS_PER_CLIENT_PER_S: f64 = 4.0;
/// Engine workers per `serve_grid` session: with two replaying clients on
/// the same host, a second worker oversubscribes a 2-CPU machine.
const SERVE_WORKERS: usize = 1;
/// The workload whose runner is pinned to one CPU. With two CPUs the fault
/// trial phase runs two lanes beside a slot drain that spin-waits even for
/// passive sinks, and per-campaign time turns bimodal (+45 % in 10-40 %
/// of campaigns, varying run to run), which puts p90 and at times p50 on
/// a cliff. `fleet_fault` still runs the fault path on parallel workers.
const PINNED: &str = "fault_trials";
/// Leased workers on `fleet_fault`.
const FLEET_WORKERS: &str = "2";

/// Every per-layer metric, with its unit. Span metrics (`*_s` whose name
/// minus the suffix is a span) report the median self time per traced
/// campaign; the rest are counters and ratios.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("config.parse_s", "s"),
    ("celldb.resolve_s", "s"),
    ("engine.run_s", "s"),
    ("run.unattributed_s", "s"),
    ("fleet.unattributed_s", "s"),
    ("nvsim.characterize_s", "s"),
    ("nvsim.candidates", "count"),
    ("nvsim.pruned", "count"),
    ("nvsim.prune_rate", "ratio"),
    ("nvsim.l1_hit_rate", "ratio"),
    ("nvsim.l2_hits", "count"),
    ("store.publish_s", "s"),
    ("eval.batch_s", "s"),
    ("eval.evaluations", "count"),
    ("csv.build_s", "s"),
    ("csv.render_s", "s"),
    ("wire.encode_s", "s"),
    ("wire.parse_s", "s"),
    ("wire.replay_s", "s"),
    ("wire.frames", "count"),
    ("wire.bytes", "bytes"),
    ("service.submit_s", "s"),
    ("service.first_frame_s", "s"),
    ("service.stream_s", "s"),
    ("service.client_s", "s"),
    ("service.retained_mb_per_session", "MB"),
    ("nn.train_s", "s"),
    ("fault.trial_s", "s"),
    ("fault.inject_s", "s"),
    ("nn.infer_s", "s"),
    ("fault.trials", "count"),
    ("fault.bits_flipped", "count"),
    ("trials_per_s", "1/s"),
    ("fleet.worker_compute_s", "s"),
    ("fleet.merge_s", "s"),
    ("fleet.dup_ratio", "ratio"),
    ("fleet.duplicate_slots", "count"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
];

/// Counters whose values depend on timing, not only on the input.
const OBSERVATIONAL: [&str; 2] = ["nvsim.l2_hits", "fleet.duplicate_slots"];

/// The span every campaign's decomposition hangs under; its self time is
/// the workload's unattributed remainder.
const CAMPAIGN: &str = "campaign";

/// Shared state of one benchmark run.
struct Ctx<'a> {
    args: &'a Args,
    work: PathBuf,
    config: PathBuf,
    text: String,
    campaign: CampaignConfig,
    threads: usize,
}

impl Ctx<'_> {
    fn bin(&self, name: &str) -> PathBuf {
        self.args.bin_dir.join(name)
    }

    fn log(&self) -> PathBuf {
        self.work.join("stderr.log")
    }

    fn study(&self) -> &StudyConfig {
        self.campaign.study()
    }
}

/// One timed campaign as the user sees it.
struct Sample {
    wall: f64,
    cpu: f64,
    rss: f64,
    ok: bool,
}

/// The per-layer side of a traced run.
#[derive(Default)]
struct Traced {
    rec: Recorder,
    /// `(campaign id, campaign wall)` of every decomposed campaign.
    campaigns: Vec<(u64, f64)>,
    /// Walls of the untraced first half, for the overhead estimate.
    untraced_walls: Vec<f64>,
    values: BTreeMap<&'static str, f64>,
    /// Some decomposition pass did not render the runner's bytes.
    diverged: bool,
}

pub fn run(args: &Args) -> Result<Report, String> {
    let work = args
        .out
        .join(format!("work-{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let result = match args.workload.as_str() {
        "serve_grid" => serve(args, &work),
        workload => spawned(args, &work, workload),
    };
    if result.is_ok() {
        let _ = std::fs::remove_dir_all(&work);
    }
    result
}

fn io<T>(what: &str, r: std::io::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// Generates the inputs and loads them back.
fn generate(args: &Args, work: &Path) -> Result<(PathBuf, String, CampaignConfig), String> {
    let path = io(
        "write config",
        gen::write_config(&args.workload, args.seed, &work.join("input")),
    )?;
    let text = io("read config", std::fs::read_to_string(&path))?;
    let campaign = decompose::parse(&text)?;
    Ok((path, text, campaign))
}

// ------------------------------------------------- run / coordinator

/// `dse_cells` and `fault_trials` spawn `run` per campaign; `fleet_fault`
/// spawns the leased `nvmx-coordinator` (pipe transport, 2 single-thread
/// workers) on the same generated input as `fault_trials`.
fn spawned(args: &Args, work: &Path, workload: &str) -> Result<Report, String> {
    let fleet = workload == "fleet_fault";
    let mut setups = Vec::new();
    let mut setup_dirs = Vec::new();
    let mut generated = None;
    for k in 0..SETUPS {
        let start = Instant::now();
        let (config, text, campaign) = generate(args, work)?;
        let ctx = Ctx {
            args,
            work: work.to_path_buf(),
            config,
            text,
            campaign,
            threads: if workload == PINNED {
                1
            } else {
                StudyExecutor::new().threads()
            },
        };
        let dir = work.join(format!("setup{k}"));
        let exit = launch(&ctx, fleet, &dir)?;
        setups.push(start.elapsed().as_secs_f64());
        setup_dirs.push((dir, exit));
        generated = Some(ctx);
    }
    let ctx = generated.expect("at least one set-up");
    let reference = decompose::reference(&ctx.campaign)?;
    let mut checks_ok = setup_dirs
        .iter()
        .all(|(dir, exit)| gate(&ctx, fleet, dir, exit, &reference.artifacts));

    let mut traced = Traced::default();
    if args.trace {
        let cache = SubarrayCache::new();
        counters_into(
            &mut traced.values,
            &decompose::counters(ctx.study(), &cache),
        );
    }
    let dir = work.join("campaign");
    let mut samples = Vec::new();
    let mut compute = Vec::new();
    let mut duplicates = Vec::new();
    let mut volume = WireVolume::default();
    let window = Instant::now();
    let mut cid = 0u64;
    while window.elapsed().as_secs_f64() < args.seconds {
        cid += 1;
        let start = Instant::now();
        let exit = launch(&ctx, fleet, &dir)?;
        let ok = gate(&ctx, fleet, &dir, &exit, &reference.artifacts);
        samples.push(Sample {
            wall: exit.wall_s,
            cpu: exit.cpu_s,
            rss: exit.peak_rss_mb,
            ok,
        });
        if fleet {
            duplicates.push(duplicate_slots(&ctx.log()));
        }
        // The traced run decomposes the second half of its window; the
        // first half is its untraced baseline.
        if !args.trace || window.elapsed().as_secs_f64() < args.seconds / 2.0 {
            traced.untraced_walls.push(exit.wall_s);
            continue;
        }
        let span = traced.rec.record(
            CAMPAIGN,
            start,
            Duration::from_secs_f64(exit.wall_s),
            None,
            cid,
        );
        let artifacts = if fleet {
            decompose::fleet_pass(&mut traced.rec, span, cid, &ctx.text).map(|(a, v, c)| {
                volume = v;
                compute.push(c);
                a
            })
        } else {
            decompose::local_pass(&mut traced.rec, span, cid, &ctx.text, ctx.threads)
        };
        traced.diverged |= artifacts.as_ref() != Ok(&reference.artifacts);
        traced.campaigns.push((cid, exit.wall_s));
    }
    checks_ok &= !traced.diverged;

    let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    let busy: f64 = samples.iter().map(|s| s.wall).sum();
    #[allow(clippy::cast_precision_loss)]
    let campaigns_per_s = ok.len() as f64 / busy.max(f64::MIN_POSITIVE);
    // Total over count, not a median: lease steals make per-campaign CPU
    // bimodal on the fleet, and the mean is what the user pays.
    #[allow(clippy::cast_precision_loss)]
    let cpu = ok.iter().map(|s| s.cpu).sum::<f64>() / ok.len().max(1) as f64;
    let rss = ok.iter().map(|s| s.rss).fold(0.0, f64::max);
    let metrics = if args.trace {
        let v = &mut traced.values;
        v.insert("eval.evaluations", reference.evaluations as f64);
        v.insert("fault.trials", reference.trials as f64);
        v.insert("fault.bits_flipped", reference.bits_flipped as f64);
        v.insert("trials_per_s", campaigns_per_s * reference.trials as f64);
        if fleet {
            v.insert("wire.frames", volume.frames as f64);
            v.insert("wire.bytes", volume.bytes as f64);
            v.insert(
                "fleet.dup_ratio",
                cpu / median(&compute).max(f64::MIN_POSITIVE),
            );
            v.insert("fleet.duplicate_slots", median(&duplicates));
        }
        per_layer(
            &mut traced,
            if fleet {
                "fleet.unattributed_s"
            } else {
                "run.unattributed_s"
            },
            args,
        )?
    } else {
        let walls: Vec<f64> = ok.iter().map(|s| s.wall).collect();
        end_to_end(
            &setups,
            &walls,
            campaigns_per_s,
            reference.evaluations,
            cpu,
            rss,
        )
    };
    #[allow(clippy::cast_possible_truncation)]
    Ok(Report {
        attempted: samples.len() as u64,
        failed: (samples.len() - ok.len()) as u64,
        checks_ok,
        metrics,
    })
}

/// Spawns one campaign writing its artifacts under `dir`.
fn launch(ctx: &Ctx<'_>, fleet: bool, dir: &Path) -> Result<sys::Exit, String> {
    let _ = std::fs::remove_dir_all(dir);
    io("create campaign dir", std::fs::create_dir_all(dir))?;
    let command = if fleet {
        let _ = std::fs::remove_file(ctx.log());
        let mut c = Command::new(ctx.bin("nvmx-coordinator"));
        c.arg("run")
            .arg("--config")
            .arg(&ctx.config)
            .args([
                "--transport",
                "pipe",
                "--workers",
                FLEET_WORKERS,
                "--threads",
                "1",
            ])
            .arg("--capture")
            .arg(dir);
        c
    } else {
        let mut c = Command::new(ctx.bin("run"));
        c.arg(&ctx.config).env("NVMX_OUT", dir);
        if ctx.args.workload == PINNED {
            sys::pin_to_one_cpu(&mut c);
        }
        c
    };
    io("spawn runner", sys::run(command, &ctx.log(), TIMEOUT))
}

/// The per-campaign correctness gate: clean exit, the summary line, and
/// every artifact byte-identical to the in-process reference. The fleet's
/// artifact is its capture, strictly replayed here (outside the timing).
fn gate(ctx: &Ctx<'_>, fleet: bool, dir: &Path, exit: &sys::Exit, reference: &Artifacts) -> bool {
    if !exit.success || exit.timed_out || exit.stdout.trim_end() != reference.summary {
        return false;
    }
    let name = &ctx.study().name;
    let got = if fleet {
        replay_capture(ctx, &dir.join(format!("{name}.jsonl")))
    } else {
        let read =
            |suffix: &str| std::fs::read_to_string(dir.join(format!("{name}_{suffix}.csv"))).ok();
        read("results").map(|results_csv| Artifacts {
            results_csv,
            fault_csv: read("fault"),
            summary: reference.summary.clone(),
        })
    };
    got.as_ref() == Some(reference)
}

fn replay_capture(ctx: &Ctx<'_>, path: &Path) -> Option<Artifacts> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut replayer = StreamReplayer::new();
    for line in text.lines() {
        replayer.push_line(line, &mut NullSink).ok()?;
    }
    let replay = replayer.finish().ok()?;
    Some(Artifacts::of(
        ctx.study(),
        &replay.result,
        replay.fault.as_ref(),
    ))
}

/// The coordinator's own report of duplicate slots it dropped
/// (observational: depends on lease timing).
fn duplicate_slots(log: &Path) -> f64 {
    std::fs::read_to_string(log)
        .ok()
        .and_then(|text| {
            text.lines().rev().find_map(|line| {
                let head = line.split(" duplicate slots deduped").next()?;
                if head.len() == line.len() {
                    return None;
                }
                head.rsplit(' ').next()?.parse().ok()
            })
        })
        .unwrap_or(0.0)
}

// ------------------------------------------------------------- serve

struct Daemon {
    child: std::process::Child,
    pid: i32,
    endpoint: Endpoint,
    _stdout: BufReader<std::process::ChildStdout>,
    reaped: bool,
}

impl Drop for Daemon {
    /// A daemon abandoned on an error path is killed and reaped, never
    /// left running.
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = sys::wait_exit(self.pid, TIMEOUT);
        }
    }
}

/// Starts `nvmx-serve` with a fresh store in `dir`, listening on a Unix
/// socket there, and waits for its ready line.
fn start_daemon(ctx: &Ctx<'_>, dir: &Path) -> Result<Daemon, String> {
    let _ = std::fs::remove_dir_all(dir);
    io("create daemon dir", std::fs::create_dir_all(dir))?;
    let log = io(
        "open log",
        std::fs::File::options()
            .create(true)
            .append(true)
            .open(ctx.log()),
    )?;
    let bin = io(
        "resolve nvmx-serve",
        std::fs::canonicalize(ctx.bin("nvmx-serve")),
    )?;
    let mut child = io(
        "spawn nvmx-serve",
        Command::new(bin)
            .args([
                "--listen",
                "unix:nvmx.sock",
                "--store",
                "store",
                "--workers",
            ])
            .arg(SERVE_WORKERS.to_string())
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn(),
    )?;
    #[allow(clippy::cast_possible_wrap)]
    let pid = child.id() as i32;
    let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
    let mut line = String::new();
    let _ = stdout.read_line(&mut line);
    let daemon = Daemon {
        child,
        pid,
        endpoint: Endpoint::parse(&format!("unix:{}", dir.join("nvmx.sock").display()))?,
        _stdout: stdout,
        reaped: false,
    };
    if !line.starts_with("nvmx-serve listening") {
        return Err(format!("nvmx-serve did not come up: `{}`", line.trim_end()));
    }
    Ok(daemon)
}

/// Drains the daemon with a `shutdown` request and reaps it; `true` on a
/// clean exit.
fn stop_daemon(mut daemon: Daemon) -> bool {
    let asked = Client::connect(&daemon.endpoint)
        .and_then(|mut c| c.send(&RequestFrame::Shutdown).and_then(|()| c.read_line()))
        .is_ok();
    if !asked {
        let _ = daemon.child.kill();
    }
    daemon.reaped = true;
    matches!(sys::wait_exit(daemon.pid, TIMEOUT), Ok((true, _))) && asked
}

/// Client-side timestamps of one session.
struct Session {
    start: Instant,
    submitted: Instant,
    first_frame: Instant,
    done: Instant,
    end: Instant,
    artifacts: Artifacts,
}

impl Session {
    fn wall(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Submits the config, strictly replays the streamed frames, and writes
/// the results CSV — the whole user-visible session.
fn session(
    client: &mut Client,
    config: &serde::Value,
    study: &StudyConfig,
    out: &Path,
) -> Result<Session, String> {
    let config = config.clone();
    let start = Instant::now();
    client
        .send(&RequestFrame::Submit {
            priority: 0,
            config,
        })
        .map_err(|e| format!("submit: {e}"))?;
    let mut replayer = StreamReplayer::new();
    let (mut submitted, mut first_frame) = (None, None);
    let done = loop {
        let line = client
            .read_line()
            .map_err(|e| format!("read: {e}"))?
            .ok_or("server closed the connection mid-session")?;
        if !ResponseFrame::is_response_line(&line) {
            first_frame.get_or_insert_with(Instant::now);
            replayer
                .push_line(&line, &mut NullSink)
                .map_err(|e| e.to_string())?;
            continue;
        }
        match ResponseFrame::parse(&line).map_err(|e| e.to_string())? {
            ResponseFrame::Submitted { .. } => submitted = Some(Instant::now()),
            ResponseFrame::Done { outcome, error, .. } => {
                if outcome != "finished" {
                    return Err(format!("session {outcome}: {}", error.unwrap_or_default()));
                }
                break Instant::now();
            }
            ResponseFrame::Error { reason } => return Err(format!("error frame: {reason}")),
            other => return Err(format!("unexpected `{}` response", other.kind())),
        }
    };
    let replay = replayer.finish().map_err(|e| e.to_string())?;
    let csv = results_csv(study, &replay.result).render();
    std::fs::write(out, &csv).map_err(|e| format!("write csv: {e}"))?;
    let end = Instant::now();
    let submitted = submitted.ok_or("no `submitted` response")?;
    Ok(Session {
        start,
        submitted,
        first_frame: first_frame.unwrap_or(done),
        done,
        end,
        artifacts: Artifacts {
            results_csv: csv,
            fault_csv: None,
            summary: summary_line(study, &replay.result),
        },
    })
}

/// `serve_grid`: one `nvmx-serve --store` daemon, a closed loop of two
/// client connections sending identical sessions.
fn serve(args: &Args, work: &Path) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut cold = Vec::new();
    let mut daemon = None;
    let mut ctx = None;
    let mut checks_ok = true;
    for k in 0..SETUPS {
        if let Some(previous) = daemon.take() {
            checks_ok &= stop_daemon(previous);
        }
        let start = Instant::now();
        let (config, text, campaign) = generate(args, work)?;
        let c = Ctx {
            args,
            work: work.to_path_buf(),
            config,
            text,
            campaign,
            threads: SERVE_WORKERS,
        };
        let d = start_daemon(&c, &work.join(format!("daemon{k}")))?;
        let value: serde::Value = serde_json::from_str(&c.text).map_err(|e| e.to_string())?;
        let mut client = Client::connect(&d.endpoint).map_err(|e| format!("connect: {e}"))?;
        cold.push(session(
            &mut client,
            &value,
            c.study(),
            &work.join("cold.csv"),
        ));
        setups.push(start.elapsed().as_secs_f64());
        daemon = Some(d);
        ctx = Some(c);
    }
    let (ctx, daemon) = (ctx.expect("set up"), daemon.expect("set up"));
    let reference = decompose::reference(&ctx.campaign)?;
    checks_ok &= cold
        .iter()
        .all(|s| s.as_ref().is_ok_and(|s| s.artifacts == reference.artifacts));

    let value: serde::Value = serde_json::from_str(&ctx.text).map_err(|e| e.to_string())?;
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(&daemon.endpoint).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut traced = Traced::default();

    let daemon_cpu0 = sys::proc_cpu_s(daemon.pid).unwrap_or(0.0);
    let daemon_rss0 = sys::proc_mem_mb(daemon.pid, "VmRSS:").unwrap_or(0.0);
    let self_cpu0 = sys::self_cpu_s();
    let window = Instant::now();
    // Free-running closed loop: each client submits again as soon as its
    // previous session's CSV is written, for a fixed number of sessions
    // (the time limit only guards a stalled daemon).
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let per_client = (args.seconds * SESSIONS_PER_CLIENT_PER_S).ceil().max(1.0) as usize;
    let deadline = window + Duration::from_secs_f64(args.seconds * 6.0);
    let shared = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (i, client) in clients.iter_mut().enumerate() {
            let (shared, value, study) = (&shared, &value, ctx.study());
            let out = work.join(format!("client{i}.csv"));
            scope.spawn(move || {
                for _ in 0..per_client {
                    if Instant::now() >= deadline {
                        break;
                    }
                    let outcome = session(client, value, study, &out);
                    let failed = outcome.is_err();
                    shared.lock().expect("no poisoning").push(outcome);
                    if failed {
                        break;
                    }
                }
            });
        }
    });
    let outcomes: Vec<Result<Session, String>> = shared.into_inner().expect("no poisoning");
    let elapsed = window.elapsed().as_secs_f64();
    let daemon_cpu = sys::proc_cpu_s(daemon.pid).unwrap_or(0.0) - daemon_cpu0;
    let client_cpu = sys::self_cpu_s() - self_cpu0;
    let peak_rss = sys::proc_mem_mb(daemon.pid, "VmHWM:").unwrap_or(0.0);
    // What the daemon holds on to per session: its resident-set growth
    // over the window (it keeps every session's event log) per session.
    #[allow(clippy::cast_precision_loss)]
    let retained_mb = (sys::proc_mem_mb(daemon.pid, "VmRSS:").unwrap_or(0.0) - daemon_rss0)
        / outcomes.len().max(1) as f64;
    // The daemon joins every connection's handler before it exits.
    drop(clients);
    checks_ok &= stop_daemon(daemon);

    if args.trace {
        // The loop above is the traced run: its first half of sessions, in
        // submit order, is the untraced baseline, and each session of the
        // second half is decomposed now, against the daemon's state after
        // set-up rebuilt in-process (a store-backed cold pass times the
        // publish, then stays warm).
        let warm = warm_cache(&ctx, work, &mut traced.values)?;
        traced
            .values
            .insert("service.retained_mb_per_session", retained_mb);
        let mut sessions: Vec<&Session> = outcomes.iter().flatten().collect();
        sessions.sort_by_key(|s| s.start);
        let (baseline, decomposed) = sessions.split_at(sessions.len() / 2);
        traced.untraced_walls = baseline.iter().map(|s| s.wall()).collect();
        for (cid, s) in (1..).zip(decomposed) {
            let artifacts = decompose_session(&mut traced, cid, s, &ctx, &warm);
            traced.diverged |= artifacts.as_ref() != Ok(&reference.artifacts);
            traced.campaigns.push((cid, s.wall()));
        }
        checks_ok &= !traced.diverged;
    }

    let walls: Vec<f64> = outcomes
        .iter()
        .flatten()
        .filter(|s| s.artifacts == reference.artifacts)
        .map(Session::wall)
        .collect();
    let passed = walls.len();
    #[allow(clippy::cast_precision_loss)]
    let campaigns_per_s = passed as f64 / elapsed;
    let metrics = if args.trace {
        #[allow(clippy::cast_precision_loss)]
        traced
            .values
            .insert("eval.evaluations", reference.evaluations as f64);
        per_layer(&mut traced, "run.unattributed_s", args)?
    } else {
        #[allow(clippy::cast_precision_loss)]
        let cpu = (daemon_cpu + client_cpu) / passed.max(1) as f64;
        end_to_end(
            &setups,
            &walls,
            campaigns_per_s,
            reference.evaluations,
            cpu,
            peak_rss,
        )
    };
    #[allow(clippy::cast_possible_truncation)]
    Ok(Report {
        attempted: outcomes.len() as u64,
        failed: (outcomes.len() - passed) as u64,
        checks_ok,
        metrics,
    })
}

/// Times the store publish of a cold, store-backed pass (the set-up
/// session's work) and returns the warm cache it leaves behind; records
/// the warm-session counters and the L2 hits a cold process would see.
fn warm_cache(
    ctx: &Ctx<'_>,
    work: &Path,
    values: &mut BTreeMap<&'static str, f64>,
) -> Result<SubarrayCache, String> {
    let store = work.join("trace-store");
    let _ = std::fs::remove_dir_all(&store);
    let cache = io("open store", SubarrayCache::with_store(&store))?;
    let study = ctx.study();
    decompose::characterize(study, &study.cells.resolve(), &cache, ctx.threads);
    let start = Instant::now();
    io("publish store", cache.flush_store())?;
    values.insert("store.publish_s", start.elapsed().as_secs_f64());
    counters_into(values, &decompose::counters(study, &cache));
    let reloaded = io("reopen store", SubarrayCache::with_store(&store))?;
    values.insert(
        "nvsim.l2_hits",
        decompose::counters(study, &reloaded).l2_hits as f64,
    );
    Ok(cache)
}

fn decompose_session(
    traced: &mut Traced,
    cid: u64,
    s: &Session,
    ctx: &Ctx<'_>,
    warm: &SubarrayCache,
) -> Result<Artifacts, String> {
    let rec = &mut traced.rec;
    let campaign = rec.record(CAMPAIGN, s.start, s.end - s.start, None, cid);
    let mut phase =
        |name, from: Instant, to: Instant| rec.record(name, from, to - from, Some(campaign), cid);
    let spans = SessionSpans {
        submit: phase("service.submit", s.start, s.submitted),
        first_frame: phase("service.first_frame", s.submitted, s.first_frame),
        stream: phase("service.stream", s.first_frame, s.done),
        client: phase("service.client", s.done, s.end),
    };
    let (artifacts, volume) =
        decompose::serve_pass(rec, &spans, cid, &ctx.text, ctx.threads, warm)?;
    #[allow(clippy::cast_precision_loss)]
    {
        traced.values.insert("wire.frames", volume.frames as f64);
        traced.values.insert("wire.bytes", volume.bytes as f64);
    }
    Ok(artifacts)
}

// ----------------------------------------------------------- metrics

fn counters_into(values: &mut BTreeMap<&'static str, f64>, c: &Counters) {
    #[allow(clippy::cast_precision_loss)]
    {
        values.insert("nvsim.candidates", c.candidates as f64);
        values.insert("nvsim.pruned", c.pruned as f64);
    }
    values.insert("nvsim.prune_rate", c.prune_rate);
    values.insert("nvsim.l1_hit_rate", c.l1_hit_rate);
}

fn end_to_end(
    setups: &[f64],
    walls: &[f64],
    campaigns_per_s: f64,
    evaluations: usize,
    cpu: f64,
    rss: f64,
) -> Vec<Metric> {
    #[allow(clippy::cast_precision_loss)]
    let evals_per_s = campaigns_per_s * evaluations as f64;
    vec![
        Metric {
            name: "setup_s",
            value: median(setups),
            unit: "s",
        },
        Metric {
            name: "campaign_p50_s",
            value: quantile(walls, 0.5),
            unit: "s",
        },
        Metric {
            name: "campaign_p90_s",
            value: quantile(walls, 0.9),
            unit: "s",
        },
        Metric {
            name: "campaigns_per_s",
            value: campaigns_per_s,
            unit: "1/s",
        },
        Metric {
            name: "evals_per_s",
            value: evals_per_s,
            unit: "1/s",
        },
        Metric {
            name: "cpu_s_per_campaign",
            value: cpu,
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: rss,
            unit: "MB",
        },
    ]
}

/// Per-layer metrics from the traced campaigns, plus the summary table
/// and the Chrome trace written under `--out/trace`.
fn per_layer(
    traced: &mut Traced,
    remainder: &'static str,
    args: &Args,
) -> Result<Vec<Metric>, String> {
    let self_times = traced.rec.self_times();
    let per_campaign = |span: &str| -> f64 {
        let values: Vec<f64> = traced
            .campaigns
            .iter()
            .map(|(cid, _)| {
                self_times
                    .iter()
                    .filter(|((c, name), _)| c == cid && *name == span)
                    .map(|(_, v)| *v)
                    .sum()
            })
            .collect();
        median(&values)
    };
    let walls: Vec<f64> = traced.campaigns.iter().map(|c| c.1).collect();
    let wall = median(&walls);
    let unattributed = per_campaign(CAMPAIGN);
    let v = &mut traced.values;
    v.insert(remainder, unattributed);
    v.insert("trace.overhead_s", wall - median(&traced.untraced_walls));
    v.insert(
        "trace.coverage",
        if wall > 0.0 {
            1.0 - unattributed / wall
        } else {
            0.0
        },
    );
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match traced.values.get(name) {
                Some(value) => *value,
                None => match name.strip_suffix("_s") {
                    Some(span) if !name.ends_with("unattributed_s") => per_campaign(span),
                    _ => 0.0,
                },
            };
            Metric { name, value, unit }
        })
        .collect();

    let mut table = format!(
        "perfbench {} seed {}: {} traced campaigns, median wall {:.6} s\n{:<34} {:>14} {:>8}\n",
        args.workload,
        args.seed,
        traced.campaigns.len(),
        wall,
        "metric",
        "value",
        "share"
    );
    for m in &metrics {
        let share = if m.unit == "s"
            && wall > 0.0
            && m.name.starts_with(|c: char| c.is_ascii_lowercase())
        {
            format!("{:>7.1}%", 100.0 * m.value / wall)
        } else {
            String::new()
        };
        let note = if OBSERVATIONAL.contains(&m.name) {
            "  (observational)"
        } else {
            ""
        };
        table.push_str(&format!(
            "{:<34} {:>14.6} {:>8} {}{note}\n",
            m.name, m.value, share, m.unit
        ));
    }
    eprint!("{table}");
    let dir = args.out.join("trace");
    io("create trace dir", std::fs::create_dir_all(&dir))?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    io(
        "write summary",
        std::fs::write(dir.join(format!("{stem}.summary.txt")), &table),
    )?;
    io(
        "write trace",
        std::fs::write(
            dir.join(format!("{stem}.trace.json")),
            traced.rec.chrome_json(),
        ),
    )?;
    Ok(metrics)
}
