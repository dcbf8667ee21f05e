//! The untraced mode: set-up, closed-loop load over the daemon's Unix
//! socket, a detection probe, and warm restarts, all measured from the
//! client side of a separate `sedspec serve` process.

use std::fs;
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use sedspec_fleet::pool::BatchReport;
use sedspec_workloads::attacks::Cve;
use sedspecd::{ClientError, CtlClient, ResponseBody};

use crate::proc::{cpu_us, host_speed_ms, peak_rss_mb, steal_ticks, DaemonProc};
use crate::stats::{median, quantile, ratio, Phase, RunResult};
use crate::workload::{
    elapsed_ns, train_channels, Channel, Fixture, Op, Stream, Workload, BENIGN_PER_POC,
};
use crate::Ctx;

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Warm restarts per run; `restart_s` is their median.
const RESTARTS: usize = 3;
/// Passes over the eight proofs of concept in the post-load probe of
/// the benign-only workloads.
const PROBE_CYCLES: usize = 256;
/// Load windows, in seconds, for the throughput and CPU medians.
const WINDOW_S: f64 = 1.0;
/// How often the host's steal counter is read during the load, to tell
/// which requests the hypervisor may have paused.
const STEAL_SLOT: Duration = Duration::from_millis(50);

/// Whole load windows in a run of `seconds`.
fn windows(seconds: f64) -> usize {
    ((seconds / WINDOW_S).floor() as usize).max(1)
}

/// The window an answer arriving `done_ns` into the load falls in.
fn window_of(done_ns: u64) -> usize {
    (done_ns as f64 / 1e9 / WINDOW_S) as usize
}

/// Benign samples below which a p99 is reported as indicative only.
pub const P99_MIN_SAMPLES: usize = 1000;

/// What one request/response exchange produced.
pub struct Exchange {
    /// Client-side latency: send to parsed response.
    pub latency_ns: u64,
    /// The batch report, for `SubmitBatch` ops that succeeded.
    pub report: Option<BatchReport>,
    /// Why the exchange failed, if it did.
    pub failure: Option<String>,
    /// Whether the connection is unusable afterwards.
    pub broken: bool,
}

/// Sends `op` on `client`, times it, checks the answer and feeds it
/// back to `stream`.
pub fn exchange(client: &mut CtlClient, stream: &mut Stream, op: &Op) -> Exchange {
    let body = op.body();
    let t0 = Instant::now();
    let answer = client.call(body);
    let latency_ns = elapsed_ns(t0);
    let (report, failure, broken) = match (op, answer) {
        (Op::Release { .. }, Ok(ResponseBody::QuarantineSet { .. })) => (None, None, false),
        (Op::Benign { .. } | Op::Poc { .. }, Ok(ResponseBody::Batch { report })) => {
            let failure = op.check(&report);
            stream.observe(op, &report);
            (Some(report), failure, false)
        }
        (_, Ok(other)) => (None, Some(format!("unexpected answer {other:?}")), false),
        (_, Err(e @ ClientError::Server { .. })) => (None, Some(e.to_string()), false),
        (_, Err(e)) => (None, Some(e.to_string()), true),
    };
    Exchange { latency_ns, report, failure, broken }
}

/// One timed request of the load or the probe.
pub struct Sample {
    /// The request.
    pub op: Op,
    /// Client latency.
    pub latency_ns: u64,
    /// Rounds the daemon serviced for it.
    pub rounds: u64,
    /// Whether its answer was correct.
    pub ok: bool,
    /// When the answer arrived, in nanoseconds since the load started.
    pub done_ns: u64,
}

/// A finished closed-loop load.
pub struct Load {
    /// Every request, in per-connection order.
    pub samples: Vec<Sample>,
    /// From the start barrier to the end of the last request.
    pub elapsed: Duration,
    /// Request accounting.
    pub phase: Phase,
    /// First failures.
    pub failures: Vec<String>,
    /// Daemon CPU microseconds at each window boundary.
    pub cpu_us: Vec<u64>,
    /// The host's (steal, all) CPU ticks at each window boundary.
    pub steal: Vec<(u64, u64)>,
    /// Nanoseconds since the load started and the host's steal ticks so
    /// far, every [`STEAL_SLOT`].
    pub steal_slots: Vec<(u64, u64)>,
}

/// Sends `op`, counts its outcome in `phase` and returns its sample and
/// whether the connection broke.
fn send(
    client: &mut CtlClient,
    stream: &mut Stream,
    op: Op,
    start: Instant,
    phase: &mut Phase,
    failures: &mut Vec<String>,
) -> (Sample, bool) {
    let ex = exchange(client, stream, &op);
    phase.count(ex.failure.as_deref(), failures);
    let sample = Sample {
        rounds: ex.report.as_ref().map_or(0, |r| r.rounds),
        ok: ex.failure.is_none(),
        latency_ns: ex.latency_ns,
        done_ns: elapsed_ns(start),
        op,
    };
    (sample, ex.broken)
}

/// Drives `streams`, one connection each, in a closed loop for
/// `seconds`: every connection sends its next request as soon as the
/// previous one is answered, the way a guest vCPU blocks on a trapped
/// I/O. A paced stream (the attacker) also waits, before each PoC,
/// until the benign connections have had [`BENIGN_PER_POC`] more
/// answers.
pub fn closed_loop(daemon: &DaemonProc, streams: Vec<Stream>, seconds: f64) -> Load {
    let barrier = Arc::new(Barrier::new(streams.len() + 1));
    let socket = daemon.socket.clone();
    // One token per BENIGN_PER_POC benign answers, for the paced stream.
    let (tokens, paced_rx) = mpsc::channel::<()>();
    let mut paced_rx = Some(paced_rx);
    let workers: Vec<_> = streams
        .into_iter()
        .map(|mut stream| {
            let barrier = Arc::clone(&barrier);
            let socket = socket.clone();
            let tokens = tokens.clone();
            let pace = if stream.paced() { paced_rx.take() } else { None };
            thread::spawn(move || {
                let mut phase = Phase::new("load");
                let mut failures = Vec::new();
                let mut samples = Vec::new();
                let mut benign = 0u64;
                let mut client = CtlClient::connect_unix(&socket).ok();
                barrier.wait();
                let start = Instant::now();
                let deadline = start + Duration::from_secs_f64(seconds);
                while Instant::now() < deadline {
                    if let Some(pace) = &pace {
                        if !stream.release_pending() {
                            let left = deadline.saturating_duration_since(Instant::now());
                            if pace.recv_timeout(left).is_err() {
                                break;
                            }
                        }
                    }
                    let op = stream.next_op();
                    let Some(c) = client.as_mut() else {
                        phase.count(Some("no connection"), &mut failures);
                        client = CtlClient::connect_unix(&socket).ok();
                        thread::sleep(Duration::from_millis(10));
                        continue;
                    };
                    let is_benign = matches!(op, Op::Benign { .. });
                    let (sample, broken) =
                        send(c, &mut stream, op, start, &mut phase, &mut failures);
                    samples.push(sample);
                    if broken {
                        client = CtlClient::connect_unix(&socket).ok();
                    }
                    if is_benign {
                        benign += 1;
                        if benign.is_multiple_of(BENIGN_PER_POC) {
                            // No paced stream on this workload: nobody listens.
                            let _ = tokens.send(());
                        }
                    }
                }
                (samples, phase, failures, Instant::now())
            })
        })
        .collect();
    drop(tokens);
    barrier.wait();
    let t0 = Instant::now();
    // Sample the daemon's CPU time at every window boundary, and the
    // host's steal counter every slot.
    let mut cpu = vec![cpu_us(daemon.pid()).unwrap_or(0)];
    let mut steal = vec![steal_ticks().unwrap_or((0, 0))];
    let mut steal_slots = vec![(0, steal[0].0)];
    for k in 1..=windows(seconds) {
        let boundary = t0 + Duration::from_secs_f64(k as f64 * WINDOW_S);
        loop {
            let next = (Instant::now() + STEAL_SLOT).min(boundary);
            thread::sleep(next.saturating_duration_since(Instant::now()));
            let ticks = steal_ticks().unwrap_or((0, 0));
            steal_slots.push((elapsed_ns(t0), ticks.0));
            if next >= boundary {
                cpu.push(cpu_us(daemon.pid()).unwrap_or(0));
                steal.push(ticks);
                break;
            }
        }
    }
    let mut load = Load {
        samples: Vec::new(),
        elapsed: Duration::ZERO,
        phase: Phase::new("load"),
        failures: Vec::new(),
        cpu_us: cpu,
        steal,
        steal_slots,
    };
    for worker in workers {
        let (samples, phase, failures, end) = worker.join().expect("load thread panicked");
        load.samples.extend(samples);
        load.phase.attempted += phase.attempted;
        load.phase.succeeded += phase.succeeded;
        load.phase.failed += phase.failed;
        load.failures.extend(failures);
        load.elapsed = load.elapsed.max(end.saturating_duration_since(t0));
    }
    load
}

/// A daemon with every channel published and every tenant hosted.
pub struct Hosted {
    /// The daemon process.
    pub daemon: DaemonProc,
    /// Its store directory.
    pub store: PathBuf,
    /// The trained channels.
    pub channels: Vec<Channel>,
    /// Benchmark start to the last `AddTenant` ack.
    pub setup: Duration,
}

/// One full set-up: train every channel, start `sedspec serve` on a
/// fresh store, publish every specification and host every tenant.
///
/// # Errors
///
/// When the daemon cannot start or a publish/hosting request fails.
pub fn set_up(
    ctx: &Ctx,
    fixture: &Fixture,
    tag: &str,
    phase: &mut Phase,
    failures: &mut Vec<String>,
) -> Result<Hosted, String> {
    let t0 = Instant::now();
    let channels = train_channels(ctx.seed);
    let store = ctx.work.join(format!("store-{tag}"));
    let _ = fs::remove_dir_all(&store);
    let daemon =
        DaemonProc::start(&ctx.sedspec, &store, &ctx.socket(), &ctx.work.join("daemon.log"))?;
    let mut client = daemon.connect()?;
    for ch in &channels {
        let r = client.publish_spec(ch.kind, ch.version, ch.json.clone());
        phase.count(r.as_ref().err().map(ToString::to_string).as_deref(), failures);
        r.map_err(|e| format!("publish {} {}: {e}", ch.kind, ch.version))?;
    }
    for tenant in fixture.tenants() {
        let id = tenant.tenant.0;
        let r = client.add_tenant(tenant);
        phase.count(r.as_ref().err().map(ToString::to_string).as_deref(), failures);
        r.map_err(|e| format!("add tenant-{id}: {e}"))?;
    }
    Ok(Hosted { daemon, store, channels, setup: t0.elapsed() })
}

/// Runs `SETUP_REPS` set-ups, tearing down all but the last; returns
/// the survivor and the median set-up time in seconds.
///
/// # Errors
///
/// As for [`set_up`].
pub fn set_up_repeated(
    ctx: &Ctx,
    fixture: &Fixture,
    result: &mut RunResult,
) -> Result<(Hosted, f64), String> {
    let mut phase = Phase::new("setup");
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let hosted = set_up(ctx, fixture, &rep.to_string(), &mut phase, &mut result.failures);
        let hosted = match hosted {
            Ok(h) => h,
            Err(e) => {
                result.phases.push(phase);
                return Err(e);
            }
        };
        times.push(hosted.setup.as_secs_f64());
        if rep + 1 < SETUP_REPS {
            let store = hosted.store.clone();
            let down = hosted.daemon.shutdown();
            phase.count(down.as_ref().err().map(String::as_str), &mut result.failures);
            let _ = fs::remove_dir_all(store);
        } else {
            kept = Some(hosted);
        }
    }
    result.phases.push(phase);
    Ok((kept.expect("at least one set-up"), median(&times)))
}

/// The untraced run: every end-to-end metric.
pub fn run(ctx: &Ctx, workload: Workload, result: &mut RunResult) -> Result<(), String> {
    let fixture = Arc::new(Fixture::new(ctx.seed));
    let (hosted, setup_s) = set_up_repeated(ctx, &fixture, result)?;
    let Hosted { daemon, store, channels, .. } = hosted;
    let pid = daemon.pid();
    let health = daemon.connect()?.server_health().map_err(|e| format!("health: {e}"))?;
    result.note("shards", health.shards);

    // Load.
    // Host interference around the load: a run with a slow probe or a
    // high steal share is slow for reasons outside the code.
    let probe_before = host_speed_ms();
    let steal0 = steal_ticks();
    let load = closed_loop(&daemon, workload.streams(&fixture), ctx.seconds);
    if let (Some((s0, t0)), Some((s1, t1))) = (steal0, steal_ticks()) {
        let share = ratio(s1.saturating_sub(s0) as f64, t1.saturating_sub(t0) as f64);
        result.note("host_steal_frac", format!("{share:.4}"));
    }
    result.note("host_probe_ms", format!("{probe_before:.2},{:.2}", host_speed_ms()));
    result.phases.push(load.phase.clone());
    result.failures.extend(load.failures.iter().cloned());
    let enforced: u64 = load.samples.iter().map(|s| s.rounds).sum();
    let windows = windows(ctx.seconds);
    // Every round the daemon enforced per window (attack rounds too),
    // against the daemon CPU time the window consumed.
    let mut window_all_rounds = vec![0.0; windows];
    for s in &load.samples {
        if let Some(w) = window_all_rounds.get_mut(window_of(s.done_ns)) {
            *w += s.rounds as f64;
        }
    }
    let window_cpu: Vec<f64> = load
        .cpu_us
        .windows(2)
        .zip(&window_all_rounds)
        .map(|(c, r)| ratio(c[1].saturating_sub(c[0]) as f64, *r))
        .collect();
    let benign = || load.samples.iter().filter(|s| matches!(s.op, Op::Benign { .. }));
    // Latency percentiles over every benign request of the run that no
    // steal touched. On a shared host the hypervisor pauses a vCPU for
    // milliseconds at a time, and a percent of requests caught in such
    // pauses sets the p99 on its own. The rule looks only at the steal
    // counter, never at the latencies; when it would leave too few
    // requests (a run stolen from throughout), every request counts.
    let us = |s: &Sample| s.latency_ns as f64 / 1e3;
    let all_us: Vec<f64> = benign().map(us).collect();
    let undisturbed_us: Vec<f64> =
        benign().filter(|s| !stolen_during(s, &load.steal_slots)).map(us).collect();
    let benign_requests = all_us.len();
    let filtered = undisturbed_us.len() >= P99_MIN_SAMPLES.max(benign_requests / 4);
    let latency_us = if filtered { undisturbed_us } else { all_us };
    // Throughput per one-second window, medians across windows: a
    // burst of host noise spoils a window, not the run.
    let mut window_rounds = vec![0.0; windows];
    for s in benign() {
        if let Some(w) = window_rounds.get_mut(window_of(s.done_ns)) {
            *w += s.rounds as f64 / WINDOW_S;
        }
    }
    // The windowed medians skip the windows in which the hypervisor
    // took more CPU time from this machine than in the median window.
    // The rule looks only at the host's steal counter, never at the
    // metrics, and on a host that steals evenly it keeps every window:
    // a window it steals more from measures the host's other tenants,
    // not the code.
    let window_steal: Vec<f64> = load
        .steal
        .windows(2)
        .take(windows)
        .map(|w| ratio(w[1].0.saturating_sub(w[0].0) as f64, w[1].1.saturating_sub(w[0].1) as f64))
        .collect();
    let cut = median(&window_steal);
    let quiet: Vec<usize> = (0..window_steal.len()).filter(|&i| window_steal[i] <= cut).collect();
    let quiet_median = |v: &[f64]| median(&quiet.iter().map(|&i| v[i]).collect::<Vec<_>>());

    // Detection latency: under load on attack_mix, otherwise a
    // post-load probe on a fresh connection with the benign
    // connections idle.
    let attack = if workload == Workload::AttackMix {
        load.samples
    } else {
        probe(&daemon, &fixture, result)?
    };
    let mut sent = [0u64; 8];
    let mut flagged = [0u64; 8];
    let mut per_poc_us = vec![Vec::new(); 8];
    for s in &attack {
        if let Op::Poc { cve, .. } = s.op {
            sent[cve] += 1;
            flagged[cve] += u64::from(s.ok);
            per_poc_us[cve].push(s.latency_ns as f64 / 1e3);
        }
    }
    // The eight PoCs are submitted equally often but differ several-fold
    // in cost, so the pooled median sits on the gap between two PoCs and
    // jumps with noise; the median of per-PoC medians does not.
    let poc_medians: Vec<f64> =
        per_poc_us.iter().filter(|v| !v.is_empty()).map(|v| median(v)).collect();
    let attack_requests: usize = per_poc_us.iter().map(Vec::len).sum();
    for (i, cve) in Cve::all().into_iter().enumerate() {
        if sent[i] == 0 || flagged[i] == 0 {
            result.check_errors.push(format!(
                "{}: submitted {} times, flagged {} times",
                cve.id(),
                sent[i],
                flagged[i]
            ));
        }
    }

    let rss = peak_rss_mb(pid).unwrap_or(0.0);
    let mut restart = Phase::new("restart");
    let down = daemon.shutdown();
    restart.count(down.as_ref().err().map(String::as_str), &mut result.failures);
    let restart_s =
        restarts(ctx, &store, channels.len(), fixture.tenants().len(), &mut restart, result);
    result.phases.push(restart);

    result.metric("benign_rounds_per_s", quiet_median(&window_rounds), "1/s");
    result.metric("benign_p50_us", median(&latency_us), "us");
    result.metric("benign_p99_us", quantile(&latency_us, 0.99), "us");
    result.metric("attack_p50_us", median(&poc_medians), "us");
    result.metric("setup_s", setup_s, "s");
    result.metric("restart_s", restart_s, "s");
    result.metric("daemon_rss_mb", rss, "MB");
    result.metric("daemon_cpu_us_per_round", quiet_median(&window_cpu), "us");

    let fmt = |v: &[f64]| v.iter().map(|x| format!("{x:.0}")).collect::<Vec<_>>().join(",");
    result.note("window_rounds_per_s", fmt(&window_rounds));
    let pct: Vec<f64> = window_steal.iter().map(|x| x * 100.0).collect();
    result.note("window_steal_pct", fmt(&pct));
    result
        .note("windows_used", quiet.iter().map(ToString::to_string).collect::<Vec<_>>().join(","));
    result.note("benign_requests", benign_requests);
    result.note("benign_latency_samples", latency_us.len());
    result.note("benign_latency_steal_filter", if filtered { "on" } else { "off" });
    result.note("benign_p99_samples_ok", latency_us.len() >= P99_MIN_SAMPLES);
    result.note("attack_requests", attack_requests);
    if workload == Workload::AttackMix {
        let (share, behind) = attack_overlap(&attack);
        result.note("attack_share_of_submits", format!("{share:.4}"));
        result.note("benign_behind_poc_frac", format!("{behind:.4}"));
    }
    result.note("enforced_rounds", enforced);
    result.note("load_s", format!("{:.3}", load.elapsed.as_secs_f64()));
    result.note(
        "error_rate",
        format!("{:.6}", ratio(result.failed() as f64, result.attempted() as f64)),
    );
    let _ = fs::remove_dir_all(&store);
    Ok(())
}

/// Whether the host's steal counter grew while `s` was in flight or in
/// the slot after its answer: the kernel books steal in 10 ms ticks,
/// some time after the pause. A sample past the last slot counts as
/// stolen during, since nothing vouches for it.
fn stolen_during(s: &Sample, slots: &[(u64, u64)]) -> bool {
    let slot_of = |ns: u64| slots.partition_point(|&(t, _)| t <= ns).saturating_sub(1);
    let first = slot_of(s.done_ns.saturating_sub(s.latency_ns));
    let last = slot_of(s.done_ns) + 2;
    match (slots.get(first), slots.get(last)) {
        (Some(&(_, before)), Some(&(_, after))) => after > before,
        _ => true,
    }
}

/// The share of a load's submits that were PoCs, and the share of its
/// benign requests that were in flight while a PoC was.
fn attack_overlap(samples: &[Sample]) -> (f64, f64) {
    let span = |s: &Sample| (s.done_ns.saturating_sub(s.latency_ns), s.done_ns);
    // One attacker connection: its PoCs are sequential, so sorted.
    let pocs: Vec<(u64, u64)> =
        samples.iter().filter(|s| matches!(s.op, Op::Poc { .. })).map(span).collect();
    let benign: Vec<(u64, u64)> =
        samples.iter().filter(|s| matches!(s.op, Op::Benign { .. })).map(span).collect();
    let behind = benign
        .iter()
        .filter(|(b0, b1)| {
            let i = pocs.partition_point(|(_, p1)| p1 <= b0);
            pocs.get(i).is_some_and(|(p0, _)| p0 < b1)
        })
        .count();
    let submits = (pocs.len() + benign.len()) as f64;
    (ratio(pocs.len() as f64, submits), ratio(behind as f64, benign.len() as f64))
}

/// Cycles the eight proofs of concept `PROBE_CYCLES` times on a fresh
/// connection, releasing each quarantined attacker tenant.
fn probe(
    daemon: &DaemonProc,
    fixture: &Arc<Fixture>,
    result: &mut RunResult,
) -> Result<Vec<Sample>, String> {
    let mut phase = Phase::new("probe");
    let mut client = daemon.connect()?;
    let mut stream = Stream::attack(fixture);
    let mut samples = Vec::new();
    let mut pocs = 0;
    let start = Instant::now();
    while pocs < PROBE_CYCLES * fixture.pocs.len() {
        let op = stream.next_op();
        pocs += usize::from(matches!(op, Op::Poc { .. }));
        let (sample, broken) =
            send(&mut client, &mut stream, op, start, &mut phase, &mut result.failures);
        samples.push(sample);
        if broken {
            client = daemon.connect()?;
        }
    }
    result.phases.push(phase);
    Ok(samples)
}

/// Restarts `sedspec serve` on the post-load store `RESTARTS` times,
/// timing spawn to first answered ping, and checks that the warm load
/// restored every channel and tenant. Returns the median in seconds.
fn restarts(
    ctx: &Ctx,
    store: &std::path::Path,
    channels: usize,
    tenants: usize,
    phase: &mut Phase,
    result: &mut RunResult,
) -> f64 {
    let mut times = Vec::new();
    for _ in 0..RESTARTS {
        let t0 = Instant::now();
        let started =
            DaemonProc::start(&ctx.sedspec, store, &ctx.socket(), &ctx.work.join("daemon.log"));
        let took = t0.elapsed().as_secs_f64();
        let daemon = match started {
            Ok(d) => d,
            Err(e) => {
                phase.count(Some(&e), &mut result.failures);
                continue;
            }
        };
        phase.count(None, &mut result.failures);
        times.push(took);
        let health =
            daemon.connect().and_then(|mut c| c.server_health().map_err(|e| e.to_string()));
        let restored = match health {
            Ok(h) if h.revisions == channels && h.tenants == tenants => None,
            Ok(h) => Some(format!(
                "warm load restored {} revisions and {} tenants, expected {channels} and {tenants}",
                h.revisions, h.tenants
            )),
            Err(e) => Some(e),
        };
        phase.count(restored.as_deref(), &mut result.failures);
        let down = daemon.shutdown();
        phase.count(down.as_ref().err().map(String::as_str), &mut result.failures);
    }
    median(&times)
}
