//! Workload fixtures: the trained specifications, the hosted tenants
//! and the per-connection request streams every mode replays.
//!
//! Benign traffic is training-suite replay: each benign tenant hosts
//! one device and receives that device's training suite (the exact
//! cases its published specification was trained on) in training
//! order, cycling when the suite runs out. Held-out evaluation cases
//! would flag rare commands and quarantine the tenant, which turns a
//! throughput benchmark into a rejection benchmark.

use std::sync::Arc;
use std::time::Instant;

use sedspec::collect::TrainStep;
use sedspec::pipeline::{train_script, TrainingConfig};
use sedspec::spec::ExecutionSpecification;
use sedspec_devices::{build_device, DeviceKind, QemuVersion};
use sedspec_fleet::pool::{BatchReport, TenantConfig};
use sedspec_vmm::VmContext;
use sedspec_workloads::attacks::{poc, Cve, Poc};
use sedspec_workloads::generators::training_suite;

/// Training-suite cases per device. Every case is one `bulk_replay`
/// frame; 24 cases cover all three interaction modes eight times.
pub const CASES: usize = 24;
/// Steps per frame on the small-frame workloads.
pub const SMALL_FRAME: usize = 16;
/// Benign load connections (one per core of the reference host).
pub const CONNECTIONS: usize = 2;
/// Benign requests per proof of concept on `attack_mix`. The attacker
/// connection sends its next PoC once the benign connection has had
/// this many more answers, so the attack share of the request mix is a
/// property of the workload (one PoC in 65 submits, plus the `Release`
/// after each quarantine), not of how fast the host happens to run.
/// At this share the attacker is idle most of the time, so it keeps
/// pace with the benign stream instead of falling behind.
pub const BENIGN_PER_POC: u64 = 64;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One whole training-suite case per request.
    BulkReplay,
    /// The same streams cut into frames of at most [`SMALL_FRAME`] steps.
    SmallReplay,
    /// One small-frame benign connection beside one connection cycling
    /// the eight Table III proofs of concept.
    AttackMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::BulkReplay, Workload::SmallReplay, Workload::AttackMix];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkReplay => "bulk_replay",
            Workload::SmallReplay => "small_replay",
            Workload::AttackMix => "attack_mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One stream per load connection.
    pub fn streams(self, fixture: &Arc<Fixture>) -> Vec<Stream> {
        match self {
            Workload::BulkReplay => {
                (0..CONNECTIONS).map(|c| Stream::replay(fixture, c, false)).collect()
            }
            Workload::SmallReplay => {
                (0..CONNECTIONS).map(|c| Stream::replay(fixture, c, true)).collect()
            }
            Workload::AttackMix => {
                vec![Stream::replay(fixture, 0, true), Stream::attack(fixture)]
            }
        }
    }
}

/// Short lowercase device names used in metric names.
pub fn short_name(kind: DeviceKind) -> &'static str {
    match kind {
        DeviceKind::Fdc => "fdc",
        DeviceKind::Sdhci => "sdhci",
        DeviceKind::Scsi => "scsi",
        DeviceKind::UsbEhci => "ehci",
        DeviceKind::Pcnet => "pcnet",
    }
}

/// One trained `(device, version)` channel.
pub struct Channel {
    /// Device kind.
    pub kind: DeviceKind,
    /// QEMU behaviour version.
    pub version: QemuVersion,
    /// The trained specification.
    pub spec: ExecutionSpecification,
    /// Its shipping JSON (what `PublishSpec` carries).
    pub json: String,
    /// Wall-clock nanoseconds `train_script` took.
    pub train_ns: u64,
}

/// Every channel the benchmark publishes: the five patched devices the
/// benign tenants run, then each distinct vulnerable `(device,
/// version)` a Table III proof of concept needs.
pub fn channel_keys() -> Vec<(DeviceKind, QemuVersion)> {
    let mut keys: Vec<_> =
        DeviceKind::all().into_iter().map(|k| (k, QemuVersion::Patched)).collect();
    for cve in Cve::all() {
        let p = poc(cve);
        if !keys.contains(&(p.device, p.qemu_version)) {
            keys.push((p.device, p.qemu_version));
        }
    }
    keys
}

/// Trains every channel on `training_suite(kind, CASES, seed)`.
///
/// # Panics
///
/// If a suite yields no I/O round (a generator bug, not a load
/// condition).
pub fn train_channels(seed: u64) -> Vec<Channel> {
    channel_keys()
        .into_iter()
        .map(|(kind, version)| {
            let suite = training_suite(kind, CASES, seed);
            let mut device = build_device(kind, version);
            let mut ctx = VmContext::new(0x200000, 8192);
            let t0 = Instant::now();
            let spec = train_script(&mut device, &mut ctx, &suite, &TrainingConfig::default())
                .expect("training suite produced no rounds");
            let train_ns = elapsed_ns(t0);
            let json = spec.to_json();
            Channel { kind, version, spec, json, train_ns }
        })
        .collect()
}

/// Nanoseconds since `t0`.
pub fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Benign tenant id for connection `conn`, device index `dev`.
pub fn benign_tenant(conn: usize, dev: usize) -> u64 {
    100 + 10 * conn as u64 + dev as u64
}

/// Attacker tenant id for proof of concept `i` (in `Cve::all()` order).
pub fn attack_tenant(i: usize) -> u64 {
    200 + i as u64
}

/// Everything the streams replay, shared by every connection.
pub struct Fixture {
    /// Per device (in `DeviceKind::all()` order): its training suite.
    pub suites: Vec<(DeviceKind, Vec<Case>)>,
    /// The eight Table III proofs of concept.
    pub pocs: Vec<Poc>,
}

impl Fixture {
    /// Builds the replay material for `seed`.
    pub fn new(seed: u64) -> Self {
        let suites = DeviceKind::all()
            .into_iter()
            .map(|kind| {
                let device = build_device(kind, QemuVersion::Patched);
                let cases = training_suite(kind, CASES, seed)
                    .into_iter()
                    .map(|steps| Case {
                        rounds: routed_rounds(&device, &steps),
                        small_rounds: steps
                            .chunks(SMALL_FRAME)
                            .map(|chunk| routed_rounds(&device, chunk))
                            .collect(),
                        steps,
                    })
                    .collect();
                (kind, cases)
            })
            .collect();
        let pocs = Cve::all().into_iter().map(poc).collect();
        Fixture { suites, pocs }
    }

    /// Every tenant the benchmark hosts, all in protection mode: one
    /// single-device benign tenant per device per connection, and one
    /// attacker tenant per proof of concept on its vulnerable version.
    pub fn tenants(&self) -> Vec<TenantConfig> {
        let mut out = Vec::new();
        for conn in 0..CONNECTIONS {
            for (dev, (kind, _)) in self.suites.iter().enumerate() {
                out.push(
                    TenantConfig::new(benign_tenant(conn, dev))
                        .with_devices(vec![(*kind, QemuVersion::Patched)]),
                );
            }
        }
        for (i, p) in self.pocs.iter().enumerate() {
            out.push(
                TenantConfig::new(attack_tenant(i)).with_devices(vec![(p.device, p.qemu_version)]),
            );
        }
        out
    }
}

/// One training-suite case with the rounds each framing must service.
pub struct Case {
    /// The case's steps, in training order.
    pub steps: Vec<TrainStep>,
    /// Rounds the whole case services.
    pub rounds: u64,
    /// Rounds each [`SMALL_FRAME`]-step chunk services.
    pub small_rounds: Vec<u64>,
}

/// I/O steps of `steps` the device claims: exactly the rounds a
/// single-device tenant services for them.
fn routed_rounds(device: &sedspec_devices::Device, steps: &[TrainStep]) -> u64 {
    steps.iter().filter(|s| matches!(s, TrainStep::Io(req) if device.route(req).is_some())).count()
        as u64
}

/// One request a stream issues.
#[derive(Debug, Clone)]
pub enum Op {
    /// A benign frame: must come back with every round serviced and
    /// none flagged.
    Benign {
        /// Target tenant.
        tenant: u64,
        /// Device index (`DeviceKind::all()` order).
        dev: usize,
        /// The frame.
        steps: Vec<TrainStep>,
        /// Rounds the frame must service.
        rounds: u64,
    },
    /// A proof of concept: must come back flagged.
    Poc {
        /// Target tenant.
        tenant: u64,
        /// Index into `Cve::all()`.
        cve: usize,
        /// The attack steps.
        steps: Vec<TrainStep>,
    },
    /// Admin release of a quarantined attacker tenant.
    Release {
        /// Target tenant.
        tenant: u64,
    },
}

impl Op {
    /// The tenant the op targets.
    pub fn tenant(&self) -> u64 {
        match self {
            Op::Benign { tenant, .. } | Op::Poc { tenant, .. } | Op::Release { tenant } => *tenant,
        }
    }

    /// The wire request body.
    pub fn body(&self) -> sedspecd::RequestBody {
        match self {
            Op::Benign { tenant, steps, .. } | Op::Poc { tenant, steps, .. } => {
                sedspecd::RequestBody::SubmitBatch { tenant: *tenant, steps: steps.clone() }
            }
            Op::Release { tenant } => sedspecd::RequestBody::Release { tenant: *tenant },
        }
    }

    /// Checks a batch report against the op's expectation; `None` when
    /// it is correct, otherwise why not.
    pub fn check(&self, report: &BatchReport) -> Option<String> {
        match self {
            Op::Benign { tenant, rounds, .. } => {
                if report.flagged > 0 || report.rejected || report.quarantined {
                    Some(format!(
                        "benign tenant-{tenant}: flagged {} rejected {} quarantined {}",
                        report.flagged, report.rejected, report.quarantined
                    ))
                } else if report.rounds != *rounds {
                    Some(format!(
                        "benign tenant-{tenant}: serviced {} rounds, frame has {rounds}",
                        report.rounds
                    ))
                } else {
                    None
                }
            }
            Op::Poc { tenant, cve, .. } => (report.flagged == 0)
                .then(|| format!("{} on tenant-{tenant}: not flagged", Cve::all()[*cve].id())),
            Op::Release { .. } => None,
        }
    }
}

enum Source {
    /// Training-suite replay over one connection's five tenants.
    Replay {
        conn: usize,
        small: bool,
        /// Next device to serve (rotates per case).
        dev: usize,
        /// Next case per device.
        case: Vec<usize>,
        /// Remaining frames of the case being sent.
        pending: std::collections::VecDeque<Op>,
    },
    /// The eight proofs of concept in turn, releasing after quarantine.
    Attack { next: usize, release: Option<u64> },
}

/// A deterministic per-connection request stream.
pub struct Stream {
    fixture: Arc<Fixture>,
    source: Source,
}

impl Stream {
    /// Training-suite replay for connection `conn`: whole cases, or
    /// with `small` each case cut into frames of at most
    /// [`SMALL_FRAME`] steps. Devices rotate per case; connections
    /// start the rotation at different devices.
    pub fn replay(fixture: &Arc<Fixture>, conn: usize, small: bool) -> Self {
        let devices = fixture.suites.len();
        Stream {
            fixture: Arc::clone(fixture),
            source: Source::Replay {
                conn,
                small,
                dev: (conn * 2) % devices,
                case: vec![0; devices],
                pending: std::collections::VecDeque::new(),
            },
        }
    }

    /// The attacker connection.
    pub fn attack(fixture: &Arc<Fixture>) -> Self {
        Stream { fixture: Arc::clone(fixture), source: Source::Attack { next: 0, release: None } }
    }

    /// The next request.
    pub fn next_op(&mut self) -> Op {
        match &mut self.source {
            Source::Replay { conn, small, dev, case, pending } => {
                if let Some(op) = pending.pop_front() {
                    return op;
                }
                let d = *dev;
                let cases = &self.fixture.suites[d].1;
                let c = &cases[case[d] % cases.len()];
                case[d] += 1;
                *dev = (d + 1) % self.fixture.suites.len();
                let tenant = benign_tenant(*conn, d);
                if !*small {
                    return Op::Benign { tenant, dev: d, steps: c.steps.clone(), rounds: c.rounds };
                }
                pending.extend(c.steps.chunks(SMALL_FRAME).zip(&c.small_rounds).map(
                    |(chunk, rounds)| Op::Benign {
                        tenant,
                        dev: d,
                        steps: chunk.to_vec(),
                        rounds: *rounds,
                    },
                ));
                pending.pop_front().expect("training cases are non-empty")
            }
            Source::Attack { next, release } => {
                if let Some(tenant) = release.take() {
                    return Op::Release { tenant };
                }
                let i = *next % self.fixture.pocs.len();
                *next += 1;
                Op::Poc {
                    tenant: attack_tenant(i),
                    cve: i,
                    steps: self.fixture.pocs[i].steps.clone(),
                }
            }
        }
    }

    /// Whether the stream is the attacker, which is paced by benign
    /// answers (see [`BENIGN_PER_POC`]).
    pub fn paced(&self) -> bool {
        matches!(self.source, Source::Attack { .. })
    }

    /// Whether the next op releases a tenant the last PoC quarantined;
    /// the release goes out at once, outside the pacing.
    pub fn release_pending(&self) -> bool {
        matches!(self.source, Source::Attack { release: Some(_), .. })
    }

    /// Feeds a batch report back: a quarantined attacker tenant is
    /// released by the stream's next request.
    pub fn observe(&mut self, op: &Op, report: &BatchReport) {
        if let (Source::Attack { release, .. }, Op::Poc { tenant, .. }) = (&mut self.source, op) {
            if report.quarantined {
                *release = Some(*tenant);
            }
        }
    }
}
