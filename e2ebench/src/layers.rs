//! The traced mode: where the time goes, layer by layer.
//!
//! 1. Set up once, as the untraced mode does, timing each
//!    `train_script` and an in-process `SpecRegistry::publish`.
//! 2. Replay the workload's request sequence over the daemon's socket
//!    on one connection, untraced, for `--seconds`: the benign streams
//!    take turns and the attacker sends one PoC (and any release) per
//!    `BENIGN_PER_POC` benign answers, so both the mix and per-tenant
//!    order are the load's. One connection keeps the daemon's core
//!    lock uncontended, so each latency is the request's own cost.
//! 3. Replay the same requests in-process through the same layers,
//!    timing each call: client encode (`write_request`), transport (a
//!    Unix socket pair with an echo thread carrying the same bytes),
//!    decode (`parse_request`), `Daemon::handle`, `write_response` and
//!    the client's `read_response`. Their sum, with decode taken from
//!    the daemon process's own stage timer for the same request,
//!    reconciles with step 2.
//! 4. Replay the benign frames again below the daemon: the pool
//!    (`run_batch_reliable`), enforcement with and without an obs
//!    sink (`handle_batch`), and the bare device (`handle_io`).

use std::collections::BTreeMap;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

use sedspec::checker::WorkingMode;
use sedspec::collect::{apply_step, TrainStep};
use sedspec::compiled::CompiledSpec;
use sedspec::enforce::{EnforceStats, CHECK_BLOCK_NS, CHECK_ROUND_NS, CHECK_SYNC_NS};
use sedspec::pipeline::deploy_compiled;
use sedspec_devices::{build_device, DeviceKind, QemuVersion};
use sedspec_fleet::pool::{BatchReport, EnforcementPool, TenantId};
use sedspec_fleet::registry::SpecRegistry;
use sedspec_obs::{ObsHub, ObsSink, ScopeInfo};
use sedspec_vmm::VmContext;
use sedspecd::proto::{parse_request, read_frame, write_frame, write_request, write_response};
use sedspecd::{
    CtlClient, Daemon, DaemonConfig, DurableStore, Request, RequestBody, ResponseBody, WalRecord,
    PROTOCOL_VERSION,
};

use crate::e2e::{exchange, set_up};
use crate::stats::{mean, median, ratio, Phase, RunResult};
use crate::workload::{
    elapsed_ns, short_name, Channel, Fixture, Op, Stream, Workload, BENIGN_PER_POC,
};
use crate::Ctx;

/// How far the summed layer self times may stray from the untraced
/// end-to-end latency (share of the latter).
pub const RECONCILE_BOUND: f64 = 0.10;
/// Passes of each below-daemon replay; the median pass is reported.
const LAYER_REPS: usize = 3;
/// WAL appends timed for `wal.fsync_us`.
const WAL_APPENDS: usize = 32;

/// One request of the untraced replay.
struct Record {
    op: Op,
    latency_ns: u64,
    report: Option<BatchReport>,
    /// The daemon process's own `parse_request` time for it.
    daemon_decode_ns: u64,
}

/// Per-request layer self times of the traced replay, in nanoseconds.
#[derive(Default)]
struct Traced {
    encode_req: Vec<f64>,
    /// The daemon process's decode of the request (its `decode` stage).
    decode_req: Vec<f64>,
    /// `parse_request` on the same bytes in this process.
    inproc_decode: Vec<f64>,
    handle: Vec<f64>,
    encode_resp: Vec<f64>,
    transport: Vec<f64>,
    decode_resp: Vec<f64>,
    /// Traced client latency: encode, round trip to the serve thread,
    /// decode.
    traced: Vec<f64>,
    frame_bytes: Vec<f64>,
    /// Per-request sum of the self times above (wall excluded).
    sum: Vec<f64>,
}

/// The traced run: every per-layer metric.
pub fn run(ctx: &Ctx, workload: Workload, result: &mut RunResult) -> Result<(), String> {
    let fixture = Arc::new(Fixture::new(ctx.seed));
    let mut setup = Phase::new("setup");
    let hosted = set_up(ctx, &fixture, "0", &mut setup, &mut result.failures);
    result.phases.push(setup);
    let hosted = hosted?;

    // Publish (gate + compile) in-process; this registry also feeds the
    // below-daemon replays.
    let registry = Arc::new(SpecRegistry::new());
    let mut publish_ms = Vec::new();
    for ch in &hosted.channels {
        let t0 = Instant::now();
        registry
            .publish(ch.kind, ch.version, ch.spec.clone())
            .map_err(|e| format!("in-process publish {} {}: {e:?}", ch.kind, ch.version))?;
        publish_ms.push(elapsed_ns(t0) as f64 / 1e6);
    }

    // Untraced replay over the socket, each request followed by its
    // traced twin in-process, so both see the same machine load.
    let mut client = hosted.daemon.connect()?;
    let health0 = client.server_health().map_err(|e| format!("health: {e}"))?;
    let scrape0 = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    let shards = health0.shards;
    let mut traced = TracedDaemon::new(ctx, &hosted.channels, &fixture, shards)?;
    let mut phase = Phase::new("replay");
    let replayed =
        replay_mix(ctx, &mut client, workload, &fixture, &mut traced, &mut phase, result);
    let records = match replayed {
        Ok(records) => records,
        Err(e) => {
            result.phases.push(phase);
            return Err(e);
        }
    };
    let scrape1 = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    let health1 = client.server_health().map_err(|e| format!("health: {e}"))?;
    result.phases.push(phase);
    drop(client);
    hosted.daemon.shutdown()?;
    if traced.diverged > 0 {
        result.check_errors.push(format!(
            "traced replay: {} answers differ from the daemon process's",
            traced.diverged
        ));
    }
    let traced = std::mem::take(&mut traced.times);
    let spans = ctx.work.with_file_name(format!("spans-{}.jsonl", workload.name()));
    match write_spans(&spans, &records, &traced) {
        Ok(()) => result.note("spans", spans.display()),
        Err(e) => result.note("spans", format!("not written: {e}")),
    }
    result.note("shards", shards);
    result.note("replayed_requests", records.len());

    let t0 = Instant::now();
    DurableStore::open(&hosted.store).map_err(|e| format!("store open: {e}"))?;
    let store_ms = elapsed_ns(t0) as f64 / 1e6;

    let pool = pool_replay(&registry, &fixture, &records, shards, result)?;
    let below = below_daemon(&registry, &fixture, &records, result)?;
    let fsync_us = wal_append_us(&ctx.work.join("store-wal"))?;

    // proto
    let n = traced.sum.len() as f64;
    let decode_ns: f64 = traced.decode_req.iter().sum();
    result.metric("proto.inproc_decode_us", mean(&traced.inproc_decode) / 1e3, "us");
    let bytes: f64 = traced.frame_bytes.iter().sum();
    result.metric("proto.decode_us", mean(&traced.decode_req) / 1e3, "us");
    result.metric("proto.decode_ns_per_byte", ratio(decode_ns, bytes), "ns/B");
    let encode: Vec<f64> =
        traced.encode_req.iter().zip(&traced.encode_resp).map(|(a, b)| a + b).collect();
    result.metric("proto.encode_us", mean(&encode) / 1e3, "us");
    result.metric("proto.resp_decode_us", mean(&traced.decode_resp) / 1e3, "us");
    result.metric("proto.frame_kb", ratio(bytes, n) / 1024.0, "KB");

    // daemon: in-process handle, plus the stage histograms scraped from
    // the daemon process over the untraced replay.
    result.metric("daemon.handle_us", mean(&traced.handle) / 1e3, "us");
    let stage = |s: &str| -> (f64, f64) {
        let sum = prom(&scrape1, "_sum", s) - prom(&scrape0, "_sum", s);
        let count = prom(&scrape1, "_count", s) - prom(&scrape0, "_count", s);
        (sum, count)
    };
    let (total_sum, submits) = stage("total");
    let per_submit_us = |s: &str| ratio(stage(s).0, submits) / 1e3;
    result.metric("daemon.auth_us", per_submit_us("auth"), "us");
    result.metric("daemon.enforce_us", per_submit_us("enforce"), "us");
    result.metric("daemon.wal_fsync_us", per_submit_us("wal_fsync"), "us");
    let submit_latency: Vec<f64> = records
        .iter()
        .filter(|r| !matches!(r.op, Op::Release { .. }))
        .map(|r| r.latency_ns as f64)
        .collect();
    let transport_us =
        (mean(&submit_latency) - ratio(total_sum, submits) - ratio(stage("decode").0, submits))
            / 1e3;
    result.metric("daemon.transport_us", transport_us, "us");

    // pool
    result.metric("pool.batch_us", mean(&pool.batch_ns) / 1e3, "us");
    let benign_pool_us = mean(&pool.benign_ns) / 1e3;
    let enforce_obs_per_batch_us = ratio(below.total_obs_ns, pool.benign_ns.len() as f64) / 1e3;
    result.metric("pool.self_us", benign_pool_us - enforce_obs_per_batch_us, "us");
    let batches = pool.batch_ns.len() as f64;
    result.metric("pool.rollbacks_per_1k", ratio(pool.rollbacks as f64, batches) * 1e3, "count/1k");
    result.metric(
        "pool.quarantines_per_1k",
        ratio(pool.quarantines as f64, batches) * 1e3,
        "count/1k",
    );

    // enforce / checker / obs / device
    let (dev_ns, enf_ns, obs_ns, rounds) = below.totals();
    let per_round = |ns: f64| ratio(ns, rounds);
    result.metric("enforce.ns_per_round", per_round(enf_ns), "ns");
    result.metric("enforce.obs_ns_per_round", per_round(obs_ns), "ns");
    result.metric("checker.ns_per_round", per_round(enf_ns - dev_ns), "ns");
    let stats = records
        .iter()
        .filter_map(|r| r.report.as_ref())
        .fold(EnforceStats::default(), |acc, r| acc + r.stats);
    let sr = stats.rounds as f64;
    result.metric("checker.blocks_per_round", ratio(stats.check_blocks as f64, sr), "count");
    result.metric("checker.synced_frac", ratio(stats.synced_rounds as f64, sr), "ratio");
    result.metric("checker.precheck_frac", ratio(stats.precheck_complete as f64, sr), "ratio");
    result.metric("checker.aborts_per_round", ratio(stats.aborts as f64, sr), "count");
    result.metric("checker.virtual_ns_per_round", virtual_ns(&stats), "ns");
    result.metric("obs.ns_per_round", per_round(obs_ns - enf_ns), "ns");
    result.metric("obs.trace_dropped", health1.trace_dropped as f64, "count");
    result.metric("device.ns_per_round", per_round(dev_ns), "ns");
    for (kind, d) in &below.per_kind {
        let name = short_name(*kind);
        let r = d.rounds as f64;
        result.metric(format!("checker.virtual_ns_per_round.{name}"), virtual_ns(&d.stats), "ns");
        result.metric(
            format!("checker.ns_per_round.{name}"),
            ratio(d.enforce_ns - d.device_ns, r),
            "ns",
        );
        result.metric(format!("enforce.obs_ns_per_round.{name}"), ratio(d.obs_ns, r), "ns");
    }

    // store / wal / registry / pipeline
    let wal_records = health1.wal_records.saturating_sub(health0.wal_records) as f64;
    result.metric(
        "wal.records_per_1k_req",
        ratio(wal_records, records.len() as f64) * 1e3,
        "count/1k",
    );
    result.metric("wal.fsync_us", fsync_us, "us");
    result.metric("store.open_ms", store_ms, "ms");
    result.metric("registry.publish_ms", mean(&publish_ms), "ms");
    let train_ms: Vec<f64> = hosted.channels.iter().map(|c| c.train_ns as f64 / 1e6).collect();
    result.metric("pipeline.train_ms", mean(&train_ms), "ms");

    // reconciliation and tracing overhead
    let e2e: Vec<f64> = records.iter().map(|r| r.latency_ns as f64).collect();
    let e2e_us = mean(&e2e) / 1e3;
    let layers_us = mean(&traced.sum) / 1e3;
    // Per request: the signed relative gap between the summed self
    // times and the untraced latency; its median is robust to the odd
    // request that a noisy neighbour slowed down in only one replay.
    let gaps: Vec<f64> = traced.sum.iter().zip(&e2e).map(|(s, l)| ratio(s - l, *l)).collect();
    let reconcile = median(&gaps).abs();
    result.metric("trace.e2e_us", e2e_us, "us");
    result.metric("trace.layers_us", layers_us, "us");
    result.metric("trace.transport_us", mean(&traced.transport) / 1e3, "us");
    result.metric("trace.reconcile_err", reconcile, "ratio");
    result.metric("trace.traced_us", mean(&traced.traced) / 1e3, "us");
    result.metric("trace.overhead_us", mean(&traced.traced) / 1e3 - e2e_us, "us");
    result.note("reconciled_within_bound", reconcile <= RECONCILE_BOUND);
    let _ = std::fs::remove_dir_all(&hosted.store);
    Ok(())
}

/// Steps 2 and 3 for `ctx.seconds`: sends the workload's requests over
/// `client` in the load's mix, each followed by its traced twin. The
/// benign streams take turns; after every [`BENIGN_PER_POC`] benign
/// answers the attacker sends its next PoC, and the release that
/// follows a quarantine, as it does under load.
fn replay_mix(
    ctx: &Ctx,
    client: &mut CtlClient,
    workload: Workload,
    fixture: &Arc<Fixture>,
    traced: &mut TracedDaemon,
    phase: &mut Phase,
    result: &mut RunResult,
) -> Result<Vec<Record>, String> {
    let (mut paced, mut streams): (Vec<_>, Vec<_>) =
        workload.streams(fixture).into_iter().partition(Stream::paced);
    let mut records = Vec::new();
    let mut scraper = DecodeScraper::connect(&ctx.socket())?;
    let mut one = |stream: &mut Stream| -> Result<(), String> {
        let op = stream.next_op();
        let ex = exchange(client, stream, &op);
        phase.count(ex.failure.as_deref(), &mut result.failures);
        if ex.broken {
            return Err("untraced replay lost its connection".into());
        }
        let daemon_decode_ns = scraper.decode_ns(&op)?;
        let rec = Record { op, latency_ns: ex.latency_ns, report: ex.report, daemon_decode_ns };
        traced.step(&rec)?;
        records.push(rec);
        Ok(())
    };
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    let mut benign = 0u64;
    while Instant::now() < deadline {
        for stream in &mut streams {
            one(stream)?;
            benign += 1;
            if !benign.is_multiple_of(BENIGN_PER_POC) {
                continue;
            }
            for attacker in &mut paced {
                one(attacker)?;
                while attacker.release_pending() {
                    one(attacker)?;
                }
            }
        }
    }
    Ok(records)
}

/// Reads the daemon process's cumulative `decode` stage time after
/// each request, over a connection of its own, so each request's
/// decode is the daemon's own. A scrape is 100 KB or more of Prometheus
/// text; it is searched as raw frame bytes, because the vendored JSON
/// parser is quadratic in string length.
struct DecodeScraper {
    stream: UnixStream,
    next_id: u64,
    /// Last cumulative sum per op label.
    last: BTreeMap<&'static str, u64>,
}

impl DecodeScraper {
    fn connect(socket: &Path) -> Result<Self, String> {
        let stream = UnixStream::connect(socket).map_err(|e| format!("scrape connect: {e}"))?;
        let mut scraper = DecodeScraper { stream, next_id: 0, last: BTreeMap::new() };
        for op in ["SubmitBatch", "Release"] {
            let sum = scraper.scrape(op)?;
            scraper.last.insert(op, sum);
        }
        Ok(scraper)
    }

    /// `sedspecd_request_ns_sum{op,stage="decode"}` now.
    fn scrape(&mut self, op: &str) -> Result<u64, String> {
        self.next_id += 1;
        let req = Request {
            v: PROTOCOL_VERSION,
            id: self.next_id,
            auth: None,
            body: RequestBody::Metrics,
        };
        write_request(&mut self.stream, &req).map_err(|e| format!("scrape: {e}"))?;
        let payload = read_frame(&mut self.stream).map_err(|e| format!("scrape: {e}"))?;
        // The text sits in a JSON string, so its quotes are escaped.
        let key = format!("sedspecd_request_ns_sum{{op=\\\"{op}\\\",stage=\\\"decode\\\"}} ");
        let Some(at) = find(&payload, key.as_bytes()) else { return Ok(0) };
        let digits: String = payload[at + key.len()..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .map(|&b| char::from(b))
            .collect();
        digits.parse().map_err(|_| format!("scrape: bad decode sum for {op}"))
    }

    /// The daemon's decode time for the request `op` just answered.
    fn decode_ns(&mut self, op: &Op) -> Result<u64, String> {
        let label = match op {
            Op::Benign { .. } | Op::Poc { .. } => "SubmitBatch",
            Op::Release { .. } => "Release",
        };
        let now = self.scrape(label)?;
        let before = self.last.insert(label, now).unwrap_or(0);
        Ok(now.saturating_sub(before))
    }
}

/// Where `needle` first occurs in `hay`.
fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Writes one JSON line per replayed request: the untraced latency and
/// each layer's self time in the traced replay, in nanoseconds.
fn write_spans(path: &Path, records: &[Record], t: &Traced) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, rec) in records.iter().enumerate() {
        let op = match rec.op {
            Op::Benign { .. } => "benign",
            Op::Poc { .. } => "poc",
            Op::Release { .. } => "release",
        };
        writeln!(
            out,
            "{{\"req\": {i}, \"op\": \"{op}\", \"tenant\": {}, \"bytes\": {}, \"e2e\": {}, \
             \"encode_req\": {}, \"transport\": {}, \"decode_req\": {}, \"inproc_decode\": {}, \
             \"handle\": {}, \
             \"encode_resp\": {}, \"decode_resp\": {}, \"traced\": {}}}",
            rec.op.tenant(),
            t.frame_bytes[i],
            rec.latency_ns,
            t.encode_req[i],
            t.transport[i],
            t.decode_req[i],
            t.inproc_decode[i],
            t.handle[i],
            t.encode_resp[i],
            t.decode_resp[i],
            t.traced[i],
        )?;
    }
    out.flush()
}

/// `sedspecd_request_ns{op="SubmitBatch",stage}` `_sum`/`_count` from a
/// Prometheus text scrape (0 when absent).
fn prom(text: &str, suffix: &str, stage: &str) -> f64 {
    let key = format!("sedspecd_request_ns{suffix}{{op=\"SubmitBatch\",stage=\"{stage}\"}} ");
    text.lines()
        .find_map(|l| l.strip_prefix(key.as_str()))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// The enforcement virtual clock's charge per round for these counts
/// (`CHECK_ROUND_NS` per round, `CHECK_BLOCK_NS` per walked block,
/// `CHECK_SYNC_NS` per consumed sync value; the shadow-replay byte
/// charge is not in `EnforceStats` and is left out).
fn virtual_ns(s: &EnforceStats) -> f64 {
    let ns =
        CHECK_ROUND_NS * s.rounds + CHECK_BLOCK_NS * s.check_blocks + CHECK_SYNC_NS * s.check_syncs;
    ratio(ns as f64, s.rounds as f64)
}

/// Same verdict-bearing fields.
fn same_report(a: &BatchReport, b: &BatchReport) -> bool {
    a.rounds == b.rounds
        && a.flagged == b.flagged
        && a.quarantined == b.quarantined
        && a.rejected == b.rejected
        && a.rollbacks == b.rollbacks
}

/// Step 3: an in-process daemon fed the same requests as the daemon
/// process. A serve thread plays the daemon's connection thread (read
/// a frame, decode, handle, encode, write) with each call timed; an
/// echo thread carries the same bytes with no work in between, which
/// measures the transport on its own.
struct TracedDaemon {
    store: std::path::PathBuf,
    next_id: u64,
    /// Client end of the serve socket pair.
    serve: UnixStream,
    /// Serve-thread timings per request: decode, handle, encode.
    served: mpsc::Receiver<[u64; 3]>,
    /// Client end of the echo socket pair.
    echo: UnixStream,
    /// Hands the echo thread the response bytes to send back.
    answers: Option<mpsc::Sender<Vec<u8>>>,
    threads: Vec<thread::JoinHandle<()>>,
    times: Traced,
    diverged: usize,
}

impl TracedDaemon {
    /// Builds the daemon on a fresh store and performs the same
    /// publishes and hostings the daemon process saw.
    fn new(
        ctx: &Ctx,
        channels: &[Channel],
        fixture: &Fixture,
        shards: usize,
    ) -> Result<Self, String> {
        let store = ctx.work.join("store-traced");
        let _ = std::fs::remove_dir_all(&store);
        let mut config = DaemonConfig::new(&store);
        config.shards = shards;
        let daemon =
            Arc::new(Daemon::new(config, Arc::new(ObsHub::new())).map_err(|e| e.to_string())?);
        let mut next_id = 0u64;
        let mut call = |body: RequestBody| {
            next_id += 1;
            daemon.handle(&Request { v: PROTOCOL_VERSION, id: next_id, auth: None, body })
        };
        for ch in channels {
            let body = RequestBody::PublishSpec {
                device: ch.kind,
                version: ch.version,
                spec_json: ch.json.clone(),
                allow_loosening: false,
            };
            if !matches!(call(body).body, ResponseBody::Published { .. }) {
                return Err(format!("traced daemon refused {} {}", ch.kind, ch.version));
            }
        }
        for config in fixture.tenants() {
            if !matches!(
                call(RequestBody::AddTenant { config }).body,
                ResponseBody::TenantAdded { .. }
            ) {
                return Err("traced daemon refused a tenant".into());
            }
        }

        let (serve, mut serve_far) = UnixStream::pair().map_err(|e| format!("socketpair: {e}"))?;
        let (timings, served) = mpsc::channel::<[u64; 3]>();
        let server = Arc::clone(&daemon);
        let serve_thread = thread::spawn(move || {
            while let Ok(payload) = read_frame(&mut serve_far) {
                let t0 = Instant::now();
                let Ok(req) = parse_request(&payload) else { break };
                let decode = elapsed_ns(t0);
                let t0 = Instant::now();
                let resp = server.handle(&req);
                let handle = elapsed_ns(t0);
                let t0 = Instant::now();
                let mut out = Vec::new();
                if write_response(&mut out, &resp).is_err() {
                    break;
                }
                let encode = elapsed_ns(t0);
                if timings.send([decode, handle, encode]).is_err()
                    || serve_far.write_all(&out).is_err()
                {
                    break;
                }
            }
        });
        let (echo, mut echo_far) = UnixStream::pair().map_err(|e| format!("socketpair: {e}"))?;
        let (answers, answer_rx) = mpsc::channel::<Vec<u8>>();
        let echo_thread = thread::spawn(move || {
            while read_frame(&mut echo_far).is_ok() {
                let Ok(answer) = answer_rx.recv() else { break };
                if write_frame(&mut echo_far, &answer).is_err() {
                    break;
                }
            }
        });
        Ok(TracedDaemon {
            store,
            next_id,
            serve,
            served,
            echo,
            answers: Some(answers),
            threads: vec![serve_thread, echo_thread],
            times: Traced::default(),
            diverged: 0,
        })
    }

    /// Replays one recorded request with every layer call timed and
    /// checks the answer against the daemon process's.
    fn step(&mut self, rec: &Record) -> Result<(), String> {
        self.next_id += 1;
        let req =
            Request { v: PROTOCOL_VERSION, id: self.next_id, auth: None, body: rec.op.body() };
        let t0 = Instant::now();
        let mut frame = Vec::new();
        write_request(&mut frame, &req).map_err(|e| e.to_string())?;
        let encode_req = elapsed_ns(t0);
        let t0 = Instant::now();
        self.serve.write_all(&frame).map_err(|e| e.to_string())?;
        let resp_payload = read_frame(&mut self.serve).map_err(|e| e.to_string())?;
        let round_trip = elapsed_ns(t0);
        let [inproc_decode, handle, encode_resp] =
            self.served.recv().map_err(|_| "serve thread gone".to_string())?;
        let t0 = Instant::now();
        let text = String::from_utf8(resp_payload).map_err(|e| e.to_string())?;
        let back: sedspecd::Response = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        let decode_resp = elapsed_ns(t0);

        // The transport alone: the same bytes both ways, no work between.
        let answers = self.answers.as_ref().ok_or("echo thread gone")?;
        answers.send(text.into_bytes()).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        self.echo.write_all(&frame).map_err(|e| e.to_string())?;
        read_frame(&mut self.echo).map_err(|e| e.to_string())?;
        let transport = elapsed_ns(t0);

        match (&back.body, &rec.report) {
            (ResponseBody::Batch { report }, Some(want)) if same_report(report, want) => {}
            (ResponseBody::QuarantineSet { .. }, None) => {}
            _ => self.diverged += 1,
        }
        let t = &mut self.times;
        t.traced.push((encode_req + round_trip + decode_resp) as f64);
        // Decode is the daemon process's own: the shim's JSON parser
        // runs a hot loop in `core::str::from_utf8` whose speed on large
        // frames depends on where the linker placed it, and this binary
        // and `sedspec` place it independently.
        let decode_req = rec.daemon_decode_ns;
        let parts = [encode_req, decode_req, handle, encode_resp, transport, decode_resp];
        t.sum.push(parts.iter().sum::<u64>() as f64);
        t.encode_req.push(encode_req as f64);
        t.decode_req.push(decode_req as f64);
        t.inproc_decode.push(inproc_decode as f64);
        t.handle.push(handle as f64);
        t.encode_resp.push(encode_resp as f64);
        t.transport.push(transport as f64);
        t.decode_resp.push(decode_resp as f64);
        t.frame_bytes.push((frame.len() - 4) as f64);
        Ok(())
    }
}

impl Drop for TracedDaemon {
    fn drop(&mut self) {
        self.answers = None;
        let _ = self.serve.shutdown(std::net::Shutdown::Both);
        let _ = self.echo.shutdown(std::net::Shutdown::Both);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

/// Pool-layer replay results.
struct PoolRun {
    batch_ns: Vec<f64>,
    benign_ns: Vec<f64>,
    rollbacks: u64,
    quarantines: u64,
}

/// Step 4a: the recorded batches straight into an in-process pool with
/// observability on, as the daemon runs it.
fn pool_replay(
    registry: &Arc<SpecRegistry>,
    fixture: &Fixture,
    records: &[Record],
    shards: usize,
    result: &mut RunResult,
) -> Result<PoolRun, String> {
    let hub = Arc::new(ObsHub::new());
    let mut pool = EnforcementPool::with_obs(shards, Arc::clone(registry), &hub);
    for config in fixture.tenants() {
        pool.add_tenant(config).map_err(|e| format!("pool add tenant: {e}"))?;
    }
    let mut run =
        PoolRun { batch_ns: Vec::new(), benign_ns: Vec::new(), rollbacks: 0, quarantines: 0 };
    let mut diverged = 0usize;
    for rec in records {
        match &rec.op {
            Op::Benign { tenant, steps, .. } | Op::Poc { tenant, steps, .. } => {
                let t0 = Instant::now();
                let (report, _) = pool
                    .run_batch_reliable(TenantId(*tenant), steps)
                    .map_err(|e| format!("pool batch: {e}"))?;
                let ns = elapsed_ns(t0) as f64;
                run.batch_ns.push(ns);
                if matches!(rec.op, Op::Benign { .. }) {
                    run.benign_ns.push(ns);
                }
                run.rollbacks += u64::from(report.rollbacks);
                run.quarantines += u64::from(report.quarantined && !report.rejected);
                if !rec.report.as_ref().is_some_and(|want| same_report(&report, want)) {
                    diverged += 1;
                }
            }
            Op::Release { tenant } => {
                pool.set_quarantine(TenantId(*tenant), false)
                    .map_err(|e| format!("pool release: {e}"))?;
            }
        }
    }
    if diverged > 0 {
        result
            .check_errors
            .push(format!("pool replay: {diverged} reports differ from the daemon's"));
    }
    Ok(run)
}

/// Below-daemon replay totals for one device kind (median pass).
#[derive(Default)]
struct KindTotals {
    device_ns: f64,
    enforce_ns: f64,
    obs_ns: f64,
    rounds: u64,
    /// Checking counters from the daemon's batch reports.
    stats: EnforceStats,
}

struct Below {
    per_kind: BTreeMap<DeviceKind, KindTotals>,
    total_obs_ns: f64,
}

impl Below {
    fn totals(&self) -> (f64, f64, f64, f64) {
        self.per_kind.values().fold((0.0, 0.0, 0.0, 0.0), |acc, k| {
            (acc.0 + k.device_ns, acc.1 + k.enforce_ns, acc.2 + k.obs_ns, acc.3 + k.rounds as f64)
        })
    }
}

/// Step 4b: each benign tenant's frames, in order, through a bare
/// device, an enforcing device without a sink and one with an obs
/// sink; `LAYER_REPS` interleaved passes, median per kind.
fn below_daemon(
    registry: &SpecRegistry,
    fixture: &Fixture,
    records: &[Record],
    result: &mut RunResult,
) -> Result<Below, String> {
    let mut tenants: BTreeMap<u64, (usize, Vec<&[TrainStep]>)> = BTreeMap::new();
    let mut per_kind: BTreeMap<DeviceKind, KindTotals> = BTreeMap::new();
    for rec in records {
        if let Op::Benign { tenant, dev, steps, .. } = &rec.op {
            tenants.entry(*tenant).or_insert((*dev, Vec::new())).1.push(steps);
            if let Some(report) = &rec.report {
                per_kind.entry(fixture.suites[*dev].0).or_default().stats += report.stats;
            }
        }
    }
    let mut samples: BTreeMap<DeviceKind, [Vec<f64>; 3]> = BTreeMap::new();
    for rep in 0..LAYER_REPS {
        let mut pass: BTreeMap<DeviceKind, [f64; 3]> = BTreeMap::new();
        for (dev, frames) in tenants.values() {
            let kind = fixture.suites[*dev].0;
            let (_, compiled, _) = registry
                .current_compiled(kind, QemuVersion::Patched)
                .ok_or_else(|| format!("no compiled {kind} spec"))?;
            let (device_ns, rounds) = replay_device(kind, frames);
            let (enforce_ns, stats, flagged) = replay_enforce(kind, &compiled, frames, None);
            let sink: Arc<dyn ObsSink> =
                Arc::new(ObsHub::new()).sink(ScopeInfo::device(kind.to_string()));
            let (obs_ns, obs_stats, obs_flagged) =
                replay_enforce(kind, &compiled, frames, Some(sink));
            if flagged + obs_flagged > 0 || stats.rounds != rounds || obs_stats.rounds != rounds {
                result.check_errors.push(format!(
                    "{kind} enforcement replay: {flagged}/{obs_flagged} flagged, \
                     {}/{} of {rounds} rounds",
                    stats.rounds, obs_stats.rounds
                ));
            }
            let p = pass.entry(kind).or_default();
            p[0] += device_ns;
            p[1] += enforce_ns;
            p[2] += obs_ns;
            if rep == 0 {
                per_kind.entry(kind).or_default().rounds += rounds;
            }
        }
        for (kind, p) in pass {
            let s = samples.entry(kind).or_default();
            for (i, v) in p.into_iter().enumerate() {
                s[i].push(v);
            }
        }
    }
    let mut total_obs_ns = 0.0;
    for (kind, s) in samples {
        let k = per_kind.entry(kind).or_default();
        k.device_ns = median(&s[0]);
        k.enforce_ns = median(&s[1]);
        k.obs_ns = median(&s[2]);
        total_obs_ns += k.obs_ns;
    }
    Ok(Below { per_kind, total_obs_ns })
}

/// Bare device replay: `(ns, rounds)`.
fn replay_device(kind: DeviceKind, frames: &[&[TrainStep]]) -> (f64, u64) {
    let mut device = build_device(kind, QemuVersion::Patched);
    let mut ctx = VmContext::new(0x100000, 4096);
    let mut rounds = 0;
    let t0 = Instant::now();
    for step in frames.iter().flat_map(|f| f.iter()) {
        if let Some(req) = apply_step(step, &mut ctx) {
            if device.route(req).is_some() {
                let _ = device.handle_io(&mut ctx, req);
                rounds += 1;
            }
        }
    }
    (elapsed_ns(t0) as f64, rounds)
}

/// Enforcing-device replay with the pool's run gathering (maximal runs
/// of routed I/O steps within a frame go through `handle_batch`):
/// `(ns, stats, flagged verdicts)`.
fn replay_enforce(
    kind: DeviceKind,
    compiled: &Arc<CompiledSpec>,
    frames: &[&[TrainStep]],
    sink: Option<Arc<dyn ObsSink>>,
) -> (f64, EnforceStats, u64) {
    let mut enforcer = deploy_compiled(
        build_device(kind, QemuVersion::Patched),
        Arc::clone(compiled),
        WorkingMode::Protection,
    );
    enforcer.set_sink(sink);
    let mut ctx = VmContext::new(0x100000, 4096);
    let mut run = Vec::new();
    let mut verdicts = Vec::new();
    let mut flagged = 0;
    let t0 = Instant::now();
    for frame in frames {
        let mut i = 0;
        while i < frame.len() {
            let Some(req) = apply_step(&frame[i], &mut ctx) else {
                i += 1;
                continue;
            };
            i += 1;
            if enforcer.device.route(req).is_none() {
                continue;
            }
            run.clear();
            run.push(req);
            while let Some(TrainStep::Io(next)) = frame.get(i) {
                if enforcer.device.route(next).is_none() {
                    break;
                }
                run.push(next);
                i += 1;
            }
            let mut consumed = 0;
            while consumed < run.len() {
                verdicts.clear();
                let n = enforcer.handle_batch(&mut ctx, &run[consumed..], &mut verdicts);
                if n == 0 {
                    break;
                }
                consumed += n;
                flagged += verdicts.iter().filter(|v| v.flagged()).count() as u64;
            }
        }
    }
    (elapsed_ns(t0) as f64, enforcer.stats, flagged)
}

/// Median microseconds of one `DurableStore::record` (append + fsync)
/// on a scratch store in `dir`.
fn wal_append_us(dir: &Path) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(dir);
    let (mut store, _) = DurableStore::open(dir).map_err(|e| format!("scratch store: {e}"))?;
    let mut us = Vec::new();
    for i in 0..WAL_APPENDS {
        let record = WalRecord::StateChange {
            tenant: 1,
            quarantined: i % 2 == 0,
            degraded: false,
            rollbacks_used: 0,
        };
        let t0 = Instant::now();
        store.record(record).map_err(|e| format!("wal append: {e}"))?;
        us.push(elapsed_ns(t0) as f64 / 1e3);
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(median(&us))
}
