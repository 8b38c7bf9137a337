//! The untraced run: each workload's phases, its end-to-end metrics, and
//! the result line.

use crate::gen::{run_phase, DecisionCheck, PhaseOut, Stream, Writes};
use crate::stats::{self, median, quantile, windowed_by, Rng, WINDOW};
use crate::work::{self, Env, Kind, StaticCheck, VersionCheck};
use std::time::{Duration, Instant};

/// Every end-to-end metric, with its unit, in output order. The tails
/// of the same distributions are reported by the traced run: on a shared
/// two-core host they do not repeat closely enough to gate a change.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("latency_p50_ms", "ms"),
    ("commit_visible_p50_ms", "ms"),
    ("replica_catchup_p50_ms", "ms"),
];

/// Tries per ladder rung: a stall from outside the benchmark on one try
/// does not end the ladder.
const RUNG_TRIES: usize = 2;
/// Share of `--seconds` spent at the reference rate of a read workload.
const REFERENCE_SHARE: f64 = 0.5;
const WARM_UP_SECONDS: f64 = 0.3;
pub const WARM_UP_WRITES: usize = 5;
/// Writes per workload in `--smoke`.
pub const SMOKE_WRITES: usize = 12;
/// Decisions per second beside the writes of a read workload, there only
/// to check that no reply reports a version older than an acknowledgement.
pub const CHECK_RATE: f64 = 400.0;

/// The fixed constants of one workload, chosen once from what the seed
/// sustained on two cores. Rates are requests per second (a
/// `binary_batch` request carries 128 decisions).
pub struct Plan {
    /// The rate decision latency is reported at.
    pub reference_rate: f64,
    /// Offered rates of the traced run's ladder, ascending.
    pub ladder: &'static [f64],
    /// The windowed p99 a ladder rung must meet.
    pub limit_ms: f64,
    /// Writes per run, and the pause after each one's catch-up before the
    /// next. Without a pause the threads stay warm and a write's time
    /// repeats best; a tick has none, as an operator's cron waits for each
    /// tick and starts the next.
    pub writes: usize,
    pub think: Duration,
    /// Whether latency is measured beside the writes (write workloads) or
    /// on a static table before them (read workloads).
    pub latency_beside_writes: bool,
    /// Set-ups per run; `setup_s` is their median. Each set-up starts a
    /// round that measures its share of the run, so a run samples several
    /// server instances (thread placement, allocation layout) and several
    /// stretches of time. Cheap set-ups get more rounds.
    pub rounds: usize,
    /// Whether every round is measured; `false` for the workload whose
    /// state must grow over one long run. That run is measured in the
    /// middle round, and the other set-ups are timed before and after it,
    /// so that `setup_s` does not hinge on one instant of the host.
    pub split_rounds: bool,
}

pub fn plan(kind: Kind) -> Plan {
    // Geometric, 10% apart, from well below to well above what the seed
    // sustained (about 250k JSON singles/s and 50k binary batches/s on
    // one pipelined connection).
    const JSON_LADDER: &[f64] = &[
        64420.0, 70862.0, 77949.0, 85744.0, 94318.0, 103750.0, 114125.0, 125537.0, 138091.0,
        151900.0, 167090.0, 183799.0, 202179.0, 222397.0, 244636.0, 269100.0, 296010.0, 325611.0,
        358172.0, 393989.0,
    ];
    const BATCH_LADDER: &[f64] = &[
        10000.0, 11000.0, 12100.0, 13310.0, 14641.0, 16105.0, 17716.0, 19487.0, 21436.0, 23579.0,
        25937.0, 28531.0, 31384.0, 34523.0, 37975.0, 41772.0, 45950.0, 50545.0, 55599.0, 61159.0,
        67275.0, 74002.0,
    ];
    match kind {
        Kind::JsonSingle => Plan {
            reference_rate: 60000.0,
            ladder: JSON_LADDER,
            limit_ms: 1.0,
            writes: 200,
            think: Duration::ZERO,
            latency_beside_writes: false,
            rounds: 8,
            split_rounds: true,
        },
        Kind::BinaryBatch => Plan {
            reference_rate: 20000.0,
            ladder: BATCH_LADDER,
            limit_ms: 2.0,
            writes: 200,
            think: Duration::ZERO,
            latency_beside_writes: false,
            rounds: 4,
            split_rounds: true,
        },
        // A commit blocks the server's one worker for its whole length,
        // so the pause keeps commits under a fifth of the time and the
        // decision median outside them, and spreads the commits over
        // enough of the run that a slow stretch of the host moves only
        // a part of them.
        Kind::IngestCommit => Plan {
            reference_rate: 5000.0,
            ladder: JSON_LADDER,
            limit_ms: 1.0,
            writes: 200,
            think: Duration::from_millis(80),
            latency_beside_writes: true,
            rounds: 4,
            split_rounds: true,
        },
        // Ticks grow with the state, and the run with them: 300 ticks
        // take about 25 s on two cores.
        Kind::Recrawl => Plan {
            reference_rate: 5000.0,
            ladder: JSON_LADDER,
            limit_ms: 1.0,
            writes: 300,
            think: Duration::ZERO,
            latency_beside_writes: true,
            rounds: 8,
            split_rounds: false,
        },
    }
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The run's shape (cores, workers, connections), printed before the
    /// result line.
    pub info: String,
}

impl RunResult {
    pub fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    r#""{}": {{"value": {value}, "unit": "{}"}}"#,
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Operations attempted and failed, across phases.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, out: &PhaseOut) {
        self.attempted += out.attempted + out.write_attempted;
        self.failed += out.failed + out.write_failed;
    }
}

/// A decision stream at `rate` for `count` requests (`usize::MAX`: until
/// the writes are done) from a seeded place in the pool, beside optional
/// writes.
pub fn stream_phase(
    env: &Env,
    rng: &mut Rng,
    rate: f64,
    count: usize,
    check: &mut dyn DecisionCheck,
    writes: Option<Writes<'_>>,
    acked: &mut u64,
) -> PhaseOut {
    let stream = (count > 0).then(|| Stream {
        requests: &env.requests,
        offset: rng.below(env.requests.len()),
        rate,
        count,
        trace: false,
    });
    run_phase(env.addr, stream, check, writes, acked)
}

/// Climb the ladder until a rung misses the limit; returns the achieved
/// rate of the highest rung met. A rung offers its rate for at least
/// `rung_seconds` and five windows; it is met when the median over
/// windows of at least 50 ms of the p99 stays within the limit, the
/// generator kept to its schedule, and the backlog did not grow (the last
/// window's median is within the limit too).
pub fn ladder(
    env: &Env,
    plan: &Plan,
    rng: &mut Rng,
    check: &mut StaticCheck,
    tally: &mut Tally,
    acked: &mut u64,
    rung_seconds: f64,
) -> f64 {
    let mut best = 0.0;
    for &rate in plan.ladder {
        let window = WINDOW.max((rate * 0.05) as usize);
        let count = ((rate * rung_seconds).ceil() as usize).max(5 * WINDOW);
        let met = (0..RUNG_TRIES).find_map(|_| {
            let out = stream_phase(env, rng, rate, count, check, None, acked);
            tally.add(&out);
            let latencies = &out.latency_ms;
            let tail = &latencies[latencies.len().saturating_sub(window)..];
            let ok = out.failed == 0
                && windowed_by(latencies, 0.99, window) <= plan.limit_ms
                && windowed_by(&out.late_ms, 0.99, window) <= plan.limit_ms / 2.0
                && median(tail) <= plan.limit_ms;
            ok.then(|| latencies.len() as f64 / out.elapsed.as_secs_f64())
        });
        match met {
            Some(achieved) => best = achieved,
            None => break,
        }
    }
    best
}

/// The median of the last tenth of `samples` over that of the first.
pub fn growth(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let tenth = (samples.len() / 10).max(1);
    median(&samples[samples.len() - tenth..]) / median(&samples[..tenth])
}

pub fn write_request(kind: Kind) -> Vec<u8> {
    if kind == Kind::Recrawl {
        work::tick_request()
    } else {
        work::commit_request()
    }
}

/// The write phase: `writes` writes, observation batches from
/// `first_batch` on, beside a decision stream at `rate` whose replies must
/// never report a version older than an acknowledged write.
pub fn write_phase(
    env: &Env,
    plan: &Plan,
    rng: &mut Rng,
    rate: f64,
    writes: usize,
    first_batch: usize,
    acked: &mut u64,
) -> PhaseOut {
    let write = write_request(env.kind);
    let count = if rate == 0.0 { 0 } else { usize::MAX };
    let mut check = VersionCheck(env.kind.codec());
    let w = Writes {
        observe: &env.observe[first_batch.min(env.observe.len())..],
        write: &write,
        think: plan.think,
        count: writes,
        to_follower: &env.to_follower,
        from_follower: &env.from_follower,
    };
    stream_phase(env, rng, rate, count, &mut check, Some(w), acked)
}

/// What one measured round yields.
struct Round {
    /// Decisions timed for `latency_*`, in ms.
    latency: Vec<f64>,
    writes: PhaseOut,
    tally: Tally,
}

/// Round `round` of a run, with `seconds` and `writes` its share.
fn measure(env: &Env, seconds: f64, writes: usize, round: usize) -> Round {
    let plan = plan(env.kind);
    let mut rng = Rng::new(env.seed ^ (0x5eed + round as u64));
    let mut tally = Tally::default();
    let mut acked = env.reader.pin().version();
    // Warm-up reads: connection paths, caches and first-touch allocations,
    // checked but not timed.
    let mut check = StaticCheck::new(env);
    let count = (plan.reference_rate * WARM_UP_SECONDS) as usize;
    tally.add(&stream_phase(
        env,
        &mut rng,
        plan.reference_rate,
        count,
        &mut check,
        None,
        &mut acked,
    ));
    // The first writes to a fresh server pay one-off costs (the first
    // re-freeze of grown keys, the follower's first delta), so a few
    // unmeasured writes precede the measured ones. Each round takes its
    // own observation batches.
    let first_batch = round * writes;
    let warm_batch = plan.rounds * writes + round * WARM_UP_WRITES;
    let warm_writes = |rng: &mut Rng, tally: &mut Tally, acked: &mut u64| {
        tally.add(&write_phase(
            env,
            &plan,
            rng,
            0.0,
            WARM_UP_WRITES,
            warm_batch,
            acked,
        ));
    };
    if plan.latency_beside_writes {
        warm_writes(&mut rng, &mut tally, &mut acked);
        let rate = plan.reference_rate;
        let out = write_phase(env, &plan, &mut rng, rate, writes, first_batch, &mut acked);
        tally.add(&out);
        Round {
            latency: out.latency_ms.clone(),
            writes: out,
            tally,
        }
    } else {
        let count = (plan.reference_rate * seconds * REFERENCE_SHARE) as usize;
        let rate = plan.reference_rate;
        let reads = stream_phase(env, &mut rng, rate, count, &mut check, None, &mut acked);
        tally.add(&reads);
        warm_writes(&mut rng, &mut tally, &mut acked);
        let out = write_phase(
            env,
            &plan,
            &mut rng,
            CHECK_RATE,
            writes,
            first_batch,
            &mut acked,
        );
        tally.add(&out);
        Round {
            latency: reads.latency_ms,
            writes: out,
            tally,
        }
    }
}

/// The untraced run: end-to-end metrics only.
pub fn run(kind: Kind, seed: u64, seconds: f64, smoke: bool) -> RunResult {
    let plan = plan(kind);
    let (setups, writes) = if smoke {
        (1, SMOKE_WRITES)
    } else {
        (plan.rounds, plan.writes)
    };
    let measured = if plan.split_rounds { setups } else { 1 };
    let mut setup_times = Vec::with_capacity(setups);
    let mut latency = Vec::new();
    let mut write_ms = Vec::new();
    let mut catchup_ms = Vec::new();
    let mut tally = Tally::default();
    for setup in 0..setups {
        let started = Instant::now();
        let env = work::setup(kind, seed, setup);
        setup_times.push(started.elapsed().as_secs_f64());
        let round = if plan.split_rounds {
            Some(setup)
        } else {
            (setup == setups / 2).then_some(0)
        };
        if let Some(round) = round {
            let share = measured as f64;
            let out = measure(&env, seconds / share, writes.div_ceil(measured), round);
            latency.extend(out.latency);
            write_ms.extend(out.writes.write_ms);
            catchup_ms.extend(out.writes.catchup_ms);
            tally.attempted += out.tally.attempted;
            tally.failed += out.tally.failed;
        }
        env.teardown();
    }
    let values = [
        median(&setup_times),
        stats::peak_rss_mb(),
        quantile(&latency, 0.50),
        quantile(&write_ms, 0.50),
        quantile(&catchup_ms, 0.50),
    ];
    RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric {
                name: name.to_string(),
                unit,
                value,
            })
            .collect(),
        info: format!(
            r#"{{"workload": "{}", "mode": "end_to_end", "nproc": {}, "server_workers": {}, "generator_threads": 1, "connections": {{"decisions": 1, "ingest": 1, "follower": 1}}, "rounds": {measured}}}"#,
            Kind::ALL[kind as usize],
            stats::nproc(),
            work::SERVER_WORKERS,
        ),
    }
}

/// `--smoke`: every workload, untraced and traced, shortened; every
/// metric must be present with its unit and nothing may fail.
pub fn smoke(seed: u64) -> bool {
    let mut ok = true;
    for name in Kind::ALL {
        let kind = Kind::parse(name).expect("listed workload");
        for traced in [false, true] {
            let (result, expected) = if traced {
                (
                    crate::trace::run(kind, seed, 1.0, true),
                    crate::trace::PER_LAYER.to_vec(),
                )
            } else {
                (run(kind, seed, 1.0, true), END_TO_END.to_vec())
            };
            let names: Vec<(&str, &str)> = result
                .metrics
                .iter()
                .map(|m| (m.name.as_str(), m.unit))
                .collect();
            let complete = names == expected;
            let clean = result.failed == 0 && result.attempted > 0;
            eprintln!(
                "smoke {name} trace={}: {} metrics, attempted {}, failed {}{}",
                traced as u8,
                names.len(),
                result.attempted,
                result.failed,
                if complete { "" } else { ", metric set differs" }
            );
            println!("{}", result.render());
            ok &= complete && clean;
        }
    }
    ok
}
