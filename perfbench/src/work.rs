//! Workload set-up: the corpus, the trained server, the generated
//! requests, the follower, and the checks every reply must pass.

use crate::gen::{CaughtUp, DecisionCheck, Reply};
use crate::stats::Rng;
use crawler::json::Value;
use filterlist::FilterEngine;
use scheduler::{Scheduler, SchedulerConfig, ScriptKeying};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use trackersift::{
    Decision, DecisionRequest, LabeledRequest, RewriterBuilder, Sifter, SifterReader, SifterWriter,
    Study, StudyConfig, TablePublisher, UrlRewriter,
};
use trackersift_server::client::{Client, ReplicaClient, RetryPolicy};
use trackersift_server::wire::{
    self, BinaryKeys, BinaryRecord, DecisionMessage, ObservationMessage,
};
use trackersift_server::{DurabilityConfig, SchedulerDriver, ServerConfig, VerdictServer};
use websim::{filter_rules, CorpusProfile, MutationConfig};

/// Server event-loop workers. With the single generator thread this keeps
/// server workers plus generator threads at the two cores the benchmark
/// was sized on.
pub const SERVER_WORKERS: usize = 1;
/// Records per binary batch request.
pub const BATCH: usize = 128;
/// Observations per `POST /v1/observations` before each commit.
pub const OBSERVATIONS_PER_COMMIT: usize = 50;
/// Distinct decision requests (or batches) a run cycles through.
pub const POOL: usize = 4096;
const BATCH_POOL: usize = 512;
/// Keys the follower's table is compared on after every catch-up.
const FOLLOWER_SAMPLE: usize = 256;
/// Share of JSON decisions that are held-out requests carrying URL context.
const URL_SHARE: f64 = 0.10;
/// The `recrawl` corpus size.
const RECRAWL_SITES: usize = 200;
/// The crawl every run trains on is fixed, so runs differ only in what
/// `--seed` draws from it: the request mix, its order and the order of
/// the observation batches. The seed-to-seed spread is then the
/// server's, not the corpus generator's.
const CORPUS_SEED: u64 = 2021;
/// Observation batches held out of training, at least: one per write of
/// a run, warm-up writes included, so no batch is sent twice.
const HELD_OUT_BATCHES: usize = 240;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    JsonSingle,
    BinaryBatch,
    IngestCommit,
    Recrawl,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "json_single" => Some(Kind::JsonSingle),
            "binary_batch" => Some(Kind::BinaryBatch),
            "ingest_commit" => Some(Kind::IngestCommit),
            "recrawl" => Some(Kind::Recrawl),
            _ => None,
        }
    }

    pub const ALL: [&'static str; 4] = ["json_single", "binary_batch", "ingest_commit", "recrawl"];

    pub fn codec(self) -> Codec {
        match self {
            Kind::BinaryBatch => Codec::BinaryBatch,
            _ => Codec::Json,
        }
    }

    fn sites(self) -> usize {
        match self {
            Kind::JsonSingle => 1000,
            Kind::BinaryBatch | Kind::IngestCommit => 6000,
            Kind::Recrawl => RECRAWL_SITES,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    Json,
    BinaryBatch,
}

/// One decision request of the pool, kept in both wire and in-process
/// form so the expected answer can be recomputed whenever the table moves.
pub enum PoolEntry {
    Json(DecisionMessage),
    Batch(Vec<DecisionMessage>),
}

/// A set-up workload, ready for its first scheduled request.
pub struct Env {
    pub kind: Kind,
    pub server: Option<VerdictServer>,
    pub addr: SocketAddr,
    /// An in-process reader of the primary's published tables.
    pub reader: SifterReader,
    pub entries: Vec<PoolEntry>,
    pub requests: Vec<Vec<u8>>,
    /// `POST /v1/observations` requests, 50 held-out observations each.
    pub observe: Vec<Vec<u8>>,
    /// The observation batches in core form, for the traced replay.
    pub batches: Vec<Vec<ObservationMessage>>,
    /// Training requests followed by the held-out ones (set-up inputs,
    /// for the replay); the first `trained` were trained on.
    pub training: Vec<LabeledRequest>,
    pub trained: usize,
    pub engine: Option<Arc<FilterEngine>>,
    pub rewriter: Option<Arc<UrlRewriter>>,
    pub thresholds: trackersift::Thresholds,
    pub to_follower: Sender<(u64, Instant)>,
    pub from_follower: Receiver<CaughtUp>,
    follower: Option<JoinHandle<()>>,
    journal_dir: Option<PathBuf>,
    pub seed: u64,
}

impl Env {
    /// Stop the server and the follower, wait for both, and remove the
    /// journal directory.
    pub fn teardown(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let (dead, _) = mpsc::channel();
        self.to_follower = dead;
        if let Some(follower) = self.follower.take() {
            follower.join().expect("follower thread");
        }
        if let Some(dir) = self.journal_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn http_post(target: &str, content_type: &str, body: &[u8]) -> Vec<u8> {
    let mut request = format!(
        "POST {target} HTTP/1.1\r\nHost: verdicts\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    request
}

pub fn commit_request() -> Vec<u8> {
    http_post("/v1/commit", "application/json", b"")
}

pub fn tick_request() -> Vec<u8> {
    http_post("/v1/tick", "application/json", b"")
}

fn message_of(request: &LabeledRequest, with_url: bool) -> DecisionMessage {
    let message = DecisionMessage::new(
        &request.domain,
        &request.hostname,
        &request.initiator_script,
        &request.initiator_method,
    );
    if with_url {
        message.with_url(&request.url, &request.site_domain, request.resource_type)
    } else {
        message
    }
}

fn observation_of(request: &LabeledRequest) -> ObservationMessage {
    ObservationMessage::Parts {
        domain: request.domain.clone(),
        hostname: request.hostname.clone(),
        script: request.initiator_script.clone(),
        method: request.initiator_method.clone(),
        tracking: request.label.is_tracking(),
    }
}

/// The `POST /v1/observations` body of one batch.
pub fn observe_body(batch: &[ObservationMessage]) -> String {
    let rows: Vec<String> = batch.iter().map(|o| o.to_json_value().render()).collect();
    format!(r#"{{"observations":[{}]}}"#, rows.join(","))
}

fn observe_request(batch: &[ObservationMessage]) -> Vec<u8> {
    http_post(
        "/v1/observations",
        "application/json",
        observe_body(batch).as_bytes(),
    )
}

/// Where the benchmark keeps its files: the build's target directory,
/// inside the working directory (nothing is read or written outside it).
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// A fresh directory for journals under [`target_dir`].
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = target_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the journal directory");
    dir
}

/// The churny, URL-keyed re-crawl the `recrawl` workload ticks: the
/// keying under which state grows without bound.
pub fn recrawl_config() -> SchedulerConfig {
    SchedulerConfig::new(CORPUS_SEED)
        .with_sites(RECRAWL_SITES)
        .with_mutation(MutationConfig::churny())
        .with_keying(ScriptKeying::Url)
}

/// The trained primary and the inputs generated for it.
struct Primary {
    server: VerdictServer,
    reader: SifterReader,
    entries: Vec<PoolEntry>,
    batches: Vec<Vec<ObservationMessage>>,
    training: Vec<LabeledRequest>,
    trained: usize,
    engine: Arc<FilterEngine>,
    rewriter: Option<Arc<UrlRewriter>>,
    thresholds: trackersift::Thresholds,
    journal_dir: Option<PathBuf>,
}

/// The `recrawl` primary: the scheduler's seed crawl (epoch 0) is set-up;
/// the ticks that follow are the workload.
fn recrawl_primary(config: ServerConfig, rng: &mut Rng) -> Primary {
    let mut scheduler = Scheduler::new(recrawl_config());
    let engine = Arc::new(filter_rules::engine_for(&scheduler.corpus().ecosystem));
    let (mut writer, reader) = scheduler.sifter_pair();
    scheduler.tick(&mut writer);
    let entries = recrawl_pool(&scheduler, rng);
    let thresholds = writer.sifter().thresholds();
    let server = VerdictServer::start_with_scheduler(writer, config, Box::new(scheduler))
        .expect("start the re-crawl server");
    Primary {
        server,
        reader,
        entries,
        batches: Vec::new(),
        training: Vec::new(),
        trained: 0,
        engine,
        rewriter: None,
        thresholds,
        journal_dir: None,
    }
}

/// A primary trained on all but the held-out tail of a crawl.
fn crawl_primary(kind: Kind, config: ServerConfig, rng: &mut Rng, attempt: usize) -> Primary {
    let study = Study::run(StudyConfig {
        profile: CorpusProfile::paper().with_sites(kind.sites()),
        seed: CORPUS_SEED,
        ..StudyConfig::default()
    });
    let engine = Arc::new(study.engine.clone());
    let rewriter = Arc::new(RewriterBuilder::new().default_rules().build());
    let thresholds = study.config.thresholds;
    let mut training = study.requests;
    drop(study.corpus);
    drop(study.database);
    let split =
        (training.len() * 9 / 10).min(training.len() - HELD_OUT_BATCHES * OBSERVATIONS_PER_COMMIT);
    let held_out = training.split_off(split);
    let mut sifter = Sifter::builder()
        .thresholds(thresholds)
        .shared_engine(Arc::clone(&engine))
        .shared_rewriter(Arc::clone(&rewriter))
        .build();
    sifter.observe_all(&training);
    sifter.commit();
    let (writer, reader) = sifter.into_concurrent();
    let journal_dir =
        (kind == Kind::IngestCommit).then(|| scratch_dir(&format!("journal{attempt}")));
    let config = ServerConfig {
        durability: journal_dir.clone().map(DurabilityConfig::new),
        ..config
    };
    let server = VerdictServer::start(writer, config).expect("start the verdict server");
    let entries = match kind.codec() {
        Codec::Json => json_pool(&training, &held_out, rng),
        Codec::BinaryBatch => batch_pool(&training, rng),
    };
    let mut batches: Vec<Vec<ObservationMessage>> = held_out
        .chunks_exact(OBSERVATIONS_PER_COMMIT)
        .map(|chunk| chunk.iter().map(observation_of).collect())
        .collect();
    for at in (1..batches.len()).rev() {
        batches.swap(at, rng.below(at + 1));
    }
    let trained = training.len();
    training.extend(held_out);
    Primary {
        server,
        reader,
        entries,
        batches,
        training,
        trained,
        engine,
        rewriter: Some(rewriter),
        thresholds,
        journal_dir,
    }
}

/// Build everything a workload needs, up to its first scheduled request.
/// `attempt` tells the set-ups of one run apart.
pub fn setup(kind: Kind, seed: u64, attempt: usize) -> Env {
    let mut rng = Rng::new(seed);
    let config = ServerConfig {
        workers: SERVER_WORKERS,
        // Admission control is not under test: the ladder, not shedding,
        // decides where capacity ends.
        max_inflight: 1 << 20,
        read_timeout: Duration::from_secs(30),
        ..ServerConfig::ephemeral()
    };
    let Primary {
        server,
        reader,
        entries,
        batches,
        training,
        trained,
        engine,
        rewriter,
        thresholds,
        journal_dir,
    } = match kind {
        Kind::Recrawl => recrawl_primary(config, &mut rng),
        _ => crawl_primary(kind, config, &mut rng, attempt),
    };
    let addr = server.local_addr();

    // Key handshake: binary clients send interned ids.
    let requests = match kind.codec() {
        Codec::Json => entries
            .iter()
            .map(|entry| match entry {
                PoolEntry::Json(message) => http_post(
                    "/v1/decisions",
                    "application/json",
                    message.to_json_value().render().as_bytes(),
                ),
                PoolEntry::Batch(_) => unreachable!("json pools hold singles"),
            })
            .collect(),
        Codec::BinaryBatch => {
            let keys = Client::connect(addr).fetch_keys();
            entries
                .iter()
                .map(|entry| {
                    let PoolEntry::Batch(messages) = entry else {
                        unreachable!("batch pools hold batches")
                    };
                    let records: Vec<BinaryRecord<'_>> = messages
                        .iter()
                        .map(|m| BinaryRecord {
                            keys: BinaryKeys::Ids {
                                domain: keys.id_of(&m.domain).expect("trained domain"),
                                hostname: keys.id_of(&m.hostname).expect("trained hostname"),
                                script: keys.id_of(&m.script).expect("trained script"),
                                method: keys.id_of(&m.method).expect("trained method"),
                            },
                            context: None,
                        })
                        .collect();
                    http_post(
                        "/v1/decisions:batch",
                        wire::BINARY_CONTENT_TYPE,
                        &wire::encode_binary_batch(keys.epoch, &records),
                    )
                })
                .collect()
        }
    };
    let observe = batches.iter().map(|b| observe_request(b)).collect();

    // Follower bootstrap: a full snapshot, then deltas after every write.
    let sample: Vec<DecisionMessage> = entries
        .iter()
        .flat_map(|entry| match entry {
            PoolEntry::Json(message) => vec![message.clone()],
            PoolEntry::Batch(messages) => messages.iter().take(4).cloned().collect(),
        })
        .take(FOLLOWER_SAMPLE)
        .collect();
    let engine = Some(engine);
    let mut client = ReplicaClient::new(
        addr,
        RetryPolicy::default(),
        engine.clone(),
        rewriter.clone(),
    );
    client.sync().expect("follower bootstrap");
    let (publisher, _replica_reader) = TablePublisher::new(Arc::new(client.table()));
    let (to_follower, follower_rx) = mpsc::channel::<(u64, Instant)>();
    let (follower_tx, from_follower) = mpsc::channel();
    let primary = reader.clone();
    let follower = std::thread::Builder::new()
        .name("perfbench-follower".to_string())
        .spawn(move || follow(client, publisher, primary, sample, follower_rx, follower_tx))
        .expect("spawn the follower");

    Env {
        kind,
        server: Some(server),
        addr,
        reader,
        entries,
        requests,
        observe,
        batches,
        training,
        trained,
        engine,
        rewriter,
        thresholds,
        to_follower,
        from_follower,
        follower: Some(follower),
        journal_dir,
        seed,
    }
}

/// JSON singles: 90% keys-only requests for trained keys, 10% held-out
/// requests with URL context whose script or method the training never
/// saw (the filter-list backstop and the rewrite arm decide those).
fn json_pool(
    training: &[LabeledRequest],
    held_out: &[LabeledRequest],
    rng: &mut Rng,
) -> Vec<PoolEntry> {
    let known: std::collections::HashSet<(&str, &str)> = training
        .iter()
        .map(|r| (r.initiator_script.as_str(), r.initiator_method.as_str()))
        .collect();
    let novel: Vec<&LabeledRequest> = held_out
        .iter()
        .filter(|r| !known.contains(&(r.initiator_script.as_str(), r.initiator_method.as_str())))
        .collect();
    let held_out: Vec<&LabeledRequest> = if novel.is_empty() {
        held_out.iter().collect()
    } else {
        novel
    };
    (0..POOL)
        .map(|_| {
            let message = if rng.chance(URL_SHARE) && !held_out.is_empty() {
                message_of(held_out[rng.below(held_out.len())], true)
            } else {
                message_of(&training[rng.below(training.len())], false)
            };
            PoolEntry::Json(message)
        })
        .collect()
}

/// Binary batches: keys drawn uniformly over the distinct trained
/// attribution chains, so the working set is the whole table.
fn batch_pool(training: &[LabeledRequest], rng: &mut Rng) -> Vec<PoolEntry> {
    let mut chains: Vec<(&str, &str, &str, &str)> = training
        .iter()
        .map(|r| {
            (
                r.domain.as_str(),
                r.hostname.as_str(),
                r.initiator_script.as_str(),
                r.initiator_method.as_str(),
            )
        })
        .collect();
    chains.sort_unstable();
    chains.dedup();
    (0..BATCH_POOL)
        .map(|_| {
            PoolEntry::Batch(
                (0..BATCH)
                    .map(|_| {
                        let (d, h, s, m) = chains[rng.below(chains.len())];
                        DecisionMessage::new(d, h, s, m)
                    })
                    .collect(),
            )
        })
        .collect()
}

/// JSON singles over the re-crawled corpus's planned requests, URL-keyed
/// as the scheduler observes them.
fn recrawl_pool(scheduler: &Scheduler, rng: &mut Rng) -> Vec<PoolEntry> {
    let mut planned = Vec::new();
    for site in &scheduler.corpus().websites {
        for script in &site.scripts {
            for (method_index, request) in script.planned_requests() {
                let Some(host) = request
                    .url
                    .split_once("://")
                    .and_then(|(_, rest)| rest.split('/').next())
                    .filter(|host| !host.is_empty())
                else {
                    continue;
                };
                let message = DecisionMessage::new(
                    &filterlist::registrable_domain(host),
                    host,
                    script.origin.url(),
                    &script.methods[method_index].name,
                );
                planned.push((
                    message,
                    request.url.clone(),
                    site.hostname.clone(),
                    request.resource_type,
                ));
            }
        }
    }
    (0..POOL)
        .map(|_| {
            let (message, url, page, kind) = &planned[rng.below(planned.len())];
            let message = if rng.chance(URL_SHARE) {
                message.clone().with_url(url, page, *kind)
            } else {
                message.clone()
            };
            PoolEntry::Json(message)
        })
        .collect()
}

/// The follower loop: after every acknowledged write, sync until the
/// acknowledged version is applied, publish it, and check it decides a
/// fixed key sample exactly as the primary's table at the same version.
fn follow(
    mut client: ReplicaClient,
    publisher: TablePublisher,
    primary: SifterReader,
    sample: Vec<DecisionMessage>,
    rx: Receiver<(u64, Instant)>,
    tx: Sender<CaughtUp>,
) {
    while let Ok((target, acked_at)) = rx.recv() {
        let started = Instant::now();
        let mut synced = true;
        for _ in 0..8 {
            if client.version() >= target {
                break;
            }
            synced &= client.sync().is_ok();
        }
        let sync = started.elapsed();
        let table = Arc::new(client.table());
        publisher.publish(Arc::clone(&table));
        let catchup = acked_at.elapsed();
        let pin = primary.pin();
        let consistent = synced
            && table.version() == target
            && pin.version() == target
            && sample
                .iter()
                .all(|m| table.decide(&m.as_request()) == pin.decide(&m.as_request()));
        drop(pin);
        let report = CaughtUp {
            catchup,
            sync,
            consistent,
        };
        if tx.send(report).is_err() {
            break;
        }
    }
}

/// Expected answers for a table that does not move during a phase.
pub struct StaticCheck {
    codec: Codec,
    version: u64,
    expected: Vec<Vec<Decision>>,
    verified: Vec<Option<Vec<u8>>>,
}

impl StaticCheck {
    /// Answers of the primary's current table for every pool entry.
    pub fn new(env: &Env) -> StaticCheck {
        let pin = env.reader.pin();
        let expected = env
            .entries
            .iter()
            .map(|entry| match entry {
                PoolEntry::Json(message) => vec![pin.decide(&message.as_request())],
                PoolEntry::Batch(messages) => {
                    let requests: Vec<DecisionRequest<'_>> =
                        messages.iter().map(DecisionMessage::as_request).collect();
                    requests.iter().map(|r| pin.decide(r)).collect()
                }
            })
            .collect();
        StaticCheck {
            codec: env.kind.codec(),
            version: pin.version(),
            verified: vec![None; env.entries.len()],
            expected,
        }
    }
}

impl DecisionCheck for StaticCheck {
    fn check(&mut self, index: usize, _min_version: u64, reply: &Reply) -> bool {
        if self.verified[index].as_deref() == Some(reply.body.as_slice()) {
            return true;
        }
        let ok = decode(self.codec, &reply.body).is_some_and(|(version, decisions)| {
            version == self.version && decisions == self.expected[index]
        });
        if ok {
            self.verified[index] = Some(reply.body.clone());
        }
        ok
    }
}

/// For tables that move under writes: the reply must decode, and report a
/// version no older than the last write acknowledged before it was sent.
pub struct VersionCheck(pub Codec);

impl DecisionCheck for VersionCheck {
    fn check(&mut self, _index: usize, min_version: u64, reply: &Reply) -> bool {
        decode(self.0, &reply.body).is_some_and(|(version, _)| version >= min_version)
    }
}

/// Decode a decision reply into `(version, decisions)`.
fn decode(codec: Codec, body: &[u8]) -> Option<(u64, Vec<Decision>)> {
    match codec {
        Codec::Json => {
            let value = Value::parse(std::str::from_utf8(body).ok()?).ok()?;
            let version = value.field("version").ok()?.as_u64().ok()?;
            let decision = wire::decision_from_json(value.field("decision").ok()?).ok()?;
            Some((version, vec![decision]))
        }
        Codec::BinaryBatch => wire::decode_binary_batch_response(body).ok(),
    }
}

/// The server's cumulative counters from `GET /v1/stats`:
/// (requests, decisions, shed, restarts, journal syncs, journal bytes).
pub fn server_counters(addr: SocketAddr) -> [u64; 6] {
    let (status, body) = Client::connect(addr).request("GET", "/v1/stats", None);
    let mut counters = [0u64; 6];
    if status != 200 {
        return counters;
    }
    let Ok(stats) = Value::parse(&body) else {
        return counters;
    };
    let field =
        |value: &Value, name: &str| value.get(name).and_then(|v| v.as_u64().ok()).unwrap_or(0);
    if let Some(Ok(workers)) = stats.get("workers").map(Value::as_array) {
        for worker in workers {
            counters[0] += field(worker, "requests");
            counters[1] += field(worker, "decisions");
            counters[2] += field(worker, "shed_connections") + field(worker, "shed_requests");
            counters[3] += field(worker, "restarts");
        }
    }
    if let Some(journal) = stats.get("durability").and_then(|d| d.get("journal")) {
        counters[4] = field(journal, "syncs");
        counters[5] = field(journal, "bytes");
    }
    counters
}

/// A sifter trained exactly as the workload's server was.
pub fn mirror_sifter(env: &Env) -> Sifter {
    let mut builder = Sifter::builder().thresholds(env.thresholds);
    if let Some(engine) = &env.engine {
        builder = builder.shared_engine(Arc::clone(engine));
    }
    if let Some(rewriter) = &env.rewriter {
        builder = builder.shared_rewriter(Arc::clone(rewriter));
    }
    let mut sifter = builder.build();
    sifter.observe_all(&env.training[..env.trained]);
    sifter.commit();
    sifter
}

/// A writer trained exactly as the workload's server was, durable in
/// `durable_dir` when given.
pub fn mirror_writer(env: &Env, durable_dir: Option<&std::path::Path>) -> SifterWriter {
    let (mut writer, _) = mirror_sifter(env).into_concurrent();
    if let Some(dir) = durable_dir {
        writer
            .open_durable(dir, DurabilityConfig::new(dir).sync_every)
            .expect("open the mirror journal");
    }
    writer
}
