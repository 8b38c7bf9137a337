//! The traced run: where the time goes, layer by layer.
//!
//! The end-to-end numbers come only from the untraced run. This run sets
//! the same workload up and drives it live once more, for what only the
//! live system shows: the `GET /v1/stats` counters, the follower's sync
//! over the wire, the generator's lateness and CPU, and the cost of
//! tracing itself. Then it replays the workload's generated inputs through
//! each layer's public calls in process. Every call is recorded as a span
//! (name, start, end, parent, request id), kept in memory and written out
//! when the run ends; a layer's figure is the median of its spans' self
//! times (duration minus the part its child spans cover).

use crate::gen::{run_phase, Stream};
use crate::plan::{self, Metric, RunResult, Tally};
use crate::stats::{self, median, quantile, Rng};
use crate::work::{self, Codec, Env, Kind, PoolEntry, StaticCheck};
use crawler::json::Value;
use filterlist::ResourceType;
use scheduler::Scheduler;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use trackersift::frames;
use trackersift::{
    Decision, DecisionSource, FollowerState, Granularity, Journal, JournalEntry, KeyedRequest,
    PrebuiltDecision, RewriterBuilder, Sifter, SifterWriter,
};
use trackersift_server::http::{HttpResponse, RequestParser};
use trackersift_server::wire::{self, DecisionMessage, ObservationMessage};
use trackersift_server::DurabilityConfig;
use trackersift_server::SchedulerDriver;
use websim::{filter_rules, CorpusGenerator, CorpusProfile, EcosystemMutator, WebCorpus};

/// Every per-layer metric, with its unit, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.late_p99_ms", "ms"),
    ("gen.cpu_s", "s"),
    ("server.requests", "count"),
    ("server.decisions", "count"),
    ("server.shed", "count"),
    ("server.restarts", "count"),
    ("http.parse_us", "us"),
    ("http.render_us", "us"),
    ("wire.json_decode_us", "us"),
    ("wire.binary_decode_us", "us"),
    ("wire.observation_decode_us", "us"),
    ("reader.pin_us", "us"),
    ("table.resolve_us", "us"),
    ("table.decide_us", "us"),
    ("handler.body_us", "us"),
    ("decision.share.hierarchy", "share"),
    ("decision.share.filterlist", "share"),
    ("decision.share.surrogate", "share"),
    ("decision.share.rewrite", "share"),
    ("filterlist.match_us", "us"),
    ("rewriter.rewrite_us", "us"),
    ("server.unattributed_us", "us"),
    ("sifter.observe_us", "us"),
    ("sifter.reclassify_ms", "ms"),
    ("sifter.verdict_table_ms", "ms"),
    ("writer.commit_ms", "ms"),
    ("writer.publish_ms", "ms"),
    ("commit.reclassified", "count"),
    ("commit.keys", "count"),
    ("commit.touched_share", "share"),
    ("journal.append_us", "us"),
    ("journal.sync_ms", "ms"),
    ("journal.syncs", "count"),
    ("journal.bytes", "bytes"),
    ("revision.changes", "count"),
    ("follower.delta_since_ms", "ms"),
    ("follower.sync_ms", "ms"),
    ("follower.apply_ms", "ms"),
    ("follower.table_ms", "ms"),
    ("follower.delta_bytes", "bytes"),
    ("scheduler.tick_inproc_ms", "ms"),
    ("scheduler.observations", "count"),
    ("scheduler.drift_events", "count"),
    ("state.keys.domain", "count"),
    ("state.keys.hostname", "count"),
    ("state.keys.script", "count"),
    ("state.keys.method", "count"),
    ("state.key_growth_ratio", "ratio"),
    ("commit.growth_ratio", "ratio"),
    ("tail.latency_p99_ms", "ms"),
    ("tail.commit_visible_p95_ms", "ms"),
    ("tail.replica_catchup_p95_ms", "ms"),
    ("ladder.max_rate_rps", "1/s"),
    ("trace.overhead", "ratio"),
];

/// One recorded call.
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    request: u64,
}

/// The span store: everything stays in memory until [`Tracer::write`].
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, span: usize) {
        self.spans[span].end = Instant::now();
    }

    /// Time `f` as a span.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, parent, request);
        let value = f();
        self.end(span);
        value
    }

    /// Self times in microseconds, by span name.
    fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut covered = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += stats::us(span.end - span.start);
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            by_name
                .entry(span.name)
                .or_default()
                .push(stats::us(span.end - span.start) - covered);
        }
        by_name
    }

    /// Write every span as one JSON line (times in ns from the run's start).
    fn write(&self, path: &PathBuf) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let ns = |at: Instant| at.saturating_duration_since(self.origin).as_nanos();
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                span.name,
                ns(span.start),
                ns(span.end),
                span.request
            )?;
        }
        out.flush()
    }
}

/// The median self time of a span name, in microseconds (0 when the
/// workload never made that call).
fn median_us(times: &BTreeMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    times.get(name).map_or(0.0, |v| median(v))
}

/// Replays of the decision path: a full request per pool entry, twice.
const DECISION_REPLAYS: usize = 2;
/// Commits the commit-path replay folds (each also feeds the journal and
/// the follower replays), and re-crawl epochs the `recrawl` replay runs.
const COMMIT_REPLAYS: usize = 60;
const RECRAWL_REPLAYS: usize = 20;
/// Untraced/traced pairs of live reference segments, and the share of
/// `--seconds` each segment runs for.
const SEGMENT_PAIRS: usize = 3;
const SEGMENT_SHARE: f64 = 0.05;

/// The traced run: per-layer metrics only.
pub fn run(kind: Kind, seed: u64, seconds: f64, smoke: bool) -> RunResult {
    let plan = plan::plan(kind);
    let env = work::setup(kind, seed, 0);
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    let mut rng = Rng::new(seed ^ 0x7ace);
    let mut acked = env.reader.pin().version();
    let cpu_before = stats::thread_cpu_s();
    let before = work::server_counters(env.addr);

    // Live: the reference stream, untraced and traced in turn; the ratio
    // of the two medians is what tracing costs.
    let mut check = StaticCheck::new(&env);
    let count = ((plan.reference_rate * seconds * SEGMENT_SHARE) as usize).max(1000);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut late = Vec::new();
    for segment in 0..2 * SEGMENT_PAIRS {
        let trace = segment % 2 == 1;
        let stream = Stream {
            requests: &env.requests,
            offset: rng.below(env.requests.len()),
            rate: plan.reference_rate,
            count,
            trace,
        };
        let out = run_phase(env.addr, Some(stream), &mut check, None, &mut acked);
        tally.add(&out);
        if trace {
            traced.extend(&out.latency_ms);
            for &(intended, sent, answered) in &out.spans {
                let request = tracer.spans.len() as u64;
                let root = tracer.spans.len();
                tracer.spans.push(Span {
                    name: "wire.request",
                    start: intended,
                    end: answered,
                    parent: None,
                    request,
                });
                tracer.spans.push(Span {
                    name: "gen.send_delay",
                    start: intended,
                    end: sent,
                    parent: Some(root),
                    request,
                });
            }
        } else {
            untraced.extend(&out.latency_ms);
            late.extend(out.late_ms);
        }
    }
    let untraced_p50 = median(&untraced);
    values.insert("trace.overhead", median(&traced) / untraced_p50);
    values.insert("gen.late_p99_ms", quantile(&late, 0.99));

    // Live: the ladder, then the writes with the follower catching up.
    let rung_seconds = if smoke { 0.05 } else { 0.3 };
    values.insert(
        "ladder.max_rate_rps",
        plan::ladder(
            &env,
            &plan,
            &mut rng,
            &mut check,
            &mut tally,
            &mut acked,
            rung_seconds,
        ),
    );
    // The writes run in ten parts, the table's key counts read after each,
    // after a few unmeasured ones (as in the untraced run).
    let writes = if smoke {
        plan::SMOKE_WRITES
    } else {
        plan.writes
    };
    let warm = plan::write_phase(
        &env,
        &plan,
        &mut rng,
        0.0,
        plan::WARM_UP_WRITES,
        writes,
        &mut acked,
    );
    tally.add(&warm);
    let rate = if plan.latency_beside_writes {
        plan.reference_rate
    } else {
        plan::CHECK_RATE
    };
    let mut write_ms = Vec::new();
    let mut catchup_ms = Vec::new();
    let mut sync_ms = Vec::new();
    let mut beside_writes = Vec::new();
    let mut tenths = Vec::new();
    for part in 0..10 {
        let count = writes * (part + 1) / 10 - writes * part / 10;
        let first = writes * part / 10;
        let out = plan::write_phase(&env, &plan, &mut rng, rate, count, first, &mut acked);
        tally.add(&out);
        beside_writes.extend(&out.latency_ms);
        write_ms.extend(out.write_ms);
        catchup_ms.extend(out.catchup_ms);
        sync_ms.extend(out.sync_ms);
        let pin = env.reader.pin();
        tenths.push(Granularity::ALL.map(|level| pin.table().members(level) as f64));
    }
    values.insert("commit.growth_ratio", plan::growth(&write_ms));
    let decisions = if plan.latency_beside_writes {
        &beside_writes
    } else {
        &untraced
    };
    values.insert("tail.latency_p99_ms", stats::windowed(decisions, 0.99));
    values.insert("tail.commit_visible_p95_ms", quantile(&write_ms, 0.95));
    values.insert("tail.replica_catchup_p95_ms", quantile(&catchup_ms, 0.95));
    values.insert("gen.cpu_s", stats::thread_cpu_s() - cpu_before);
    values.insert("follower.sync_ms", median(&sync_ms));
    for (at, name) in [
        "state.keys.domain",
        "state.keys.hostname",
        "state.keys.script",
        "state.keys.method",
    ]
    .into_iter()
    .enumerate()
    {
        values.insert(name, tenths[9][at]);
    }
    let total = |counts: &[f64; 4]| counts.iter().sum::<f64>();
    values.insert(
        "state.key_growth_ratio",
        total(&tenths[9]) / total(&tenths[0]),
    );
    let after = work::server_counters(env.addr);
    for (at, name) in [
        "server.requests",
        "server.decisions",
        "server.shed",
        "server.restarts",
    ]
    .into_iter()
    .enumerate()
    {
        values.insert(name, (after[at] - before[at]) as f64);
    }
    values.insert("journal.syncs", after[4] as f64);
    values.insert("journal.bytes", after[5] as f64);

    // Replays.
    replay_decisions(&env, &mut tracer, &mut values);
    replay_url_layers(&env, &mut tracer);
    if kind == Kind::Recrawl {
        let epochs = if smoke { 4 } else { RECRAWL_REPLAYS };
        replay_recrawl(&env, epochs, &mut tracer, &mut values);
    } else {
        replay_commits(
            &env,
            if smoke { 6 } else { COMMIT_REPLAYS },
            &mut tracer,
            &mut values,
        );
    }
    let times = tracer.self_times();
    let decode = match kind.codec() {
        Codec::Json => "wire.json_decode",
        Codec::BinaryBatch => "wire.binary_decode",
    };
    let per_request: f64 = [
        "http.parse",
        decode,
        "reader.pin",
        "table.resolve",
        "table.decide",
        "handler.body",
        "http.render",
    ]
    .iter()
    .map(|name| median_us(&times, name))
    .sum();
    values.insert("server.unattributed_us", untraced_p50 * 1e3 - per_request);
    // A workload's own decoder is timed inside its request path; the
    // other codec's on the same requests, beside it.
    let (records, json_decode, binary_decode) = match kind.codec() {
        Codec::Json => (1.0, "wire.json_decode", "wire.binary_decode.other"),
        Codec::BinaryBatch => (
            work::BATCH as f64,
            "wire.json_decode.other",
            "wire.binary_decode",
        ),
    };
    for (metric, span, scale) in [
        ("http.parse_us", "http.parse", 1.0),
        ("http.render_us", "http.render", 1.0),
        ("wire.json_decode_us", json_decode, 1.0),
        ("wire.binary_decode_us", binary_decode, 1.0),
        ("wire.observation_decode_us", "wire.observation_decode", 1.0),
        ("reader.pin_us", "reader.pin", 1.0),
        ("table.resolve_us", "table.resolve", 1.0 / records),
        ("table.decide_us", "table.decide", 1.0 / records),
        ("handler.body_us", "handler.body", 1.0),
        ("filterlist.match_us", "filterlist.match", 1.0),
        ("rewriter.rewrite_us", "rewriter.rewrite", 1.0),
        ("journal.append_us", "journal.append", 1.0),
        ("sifter.reclassify_ms", "sifter.reclassify", 1e-3),
        ("sifter.verdict_table_ms", "sifter.verdict_table", 1e-3),
        ("writer.commit_ms", "writer.commit", 1e-3),
        ("journal.sync_ms", "journal.sync", 1e-3),
        ("follower.delta_since_ms", "follower.delta_since", 1e-3),
        ("follower.apply_ms", "follower.apply", 1e-3),
        ("follower.table_ms", "follower.table", 1e-3),
        ("scheduler.tick_inproc_ms", "scheduler.tick", 1e-3),
    ] {
        values.insert(metric, median_us(&times, span) * scale);
    }
    if !smoke {
        let path = spans_path(kind, seed);
        if let Err(error) = tracer.write(&path) {
            eprintln!(
                "perfbench: could not write spans to {}: {error}",
                path.display()
            );
        }
    }
    env.teardown();
    RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_string(),
                unit,
                value: values.get(name).copied().unwrap_or(0.0),
            })
            .collect(),
        info: format!(
            r#"{{"workload": "{}", "mode": "per_layer", "nproc": {}, "server_workers": {}, "spans": {}}}"#,
            Kind::ALL[kind as usize],
            stats::nproc(),
            work::SERVER_WORKERS,
            tracer.spans.len()
        ),
    }
}

fn spans_path(kind: Kind, seed: u64) -> PathBuf {
    let base = work::target_dir();
    let _ = std::fs::create_dir_all(&base);
    base.join(format!(
        "perfbench-spans-{}-{seed}.jsonl",
        Kind::ALL[kind as usize]
    ))
}

/// The server's request path, call by call, over every pool entry:
/// parse, decode, pin, resolve, decide, assemble the body, render.
fn replay_decisions(env: &Env, tracer: &mut Tracer, values: &mut BTreeMap<&'static str, f64>) {
    let codec = env.kind.codec();
    let mut shares = [0usize; 4];
    let mut decided = 0usize;
    let mut request_id = 1_000_000u64;
    let table_epoch = env.reader.pin().table().keys_epoch();
    for round in 0..DECISION_REPLAYS {
        for (entry, raw) in env.entries.iter().zip(&env.requests) {
            request_id += 1;
            let id = request_id;
            let root = tracer.begin("request", None, id);
            let mut parser = RequestParser::new();
            let request = tracer.span("http.parse", Some(root), id, || {
                parser.push(raw);
                parser.next(usize::MAX).ok().flatten()
            });
            let Some(request) = request else {
                tracer.end(root);
                continue;
            };
            let body = match codec {
                Codec::Json => {
                    let message = tracer.span("wire.json_decode", Some(root), id, || {
                        let text = std::str::from_utf8(&request.body).ok()?;
                        DecisionMessage::from_json_value(&Value::parse(text).ok()?).ok()
                    });
                    let Some(message) = message else {
                        tracer.end(root);
                        continue;
                    };
                    let pin = tracer.span("reader.pin", Some(root), id, || env.reader.pin());
                    let table = pin.table();
                    let keyed = tracer.span("table.resolve", Some(root), id, || {
                        table.resolve(&message.as_request())
                    });
                    let decision = tracer.span("table.decide", Some(root), id, || {
                        table.decide_prebuilt(&keyed)
                    });
                    tracer.span("handler.body", Some(root), id, || {
                        json_body(table, decision)
                    })
                }
                Codec::BinaryBatch => {
                    let decoded = tracer.span("wire.binary_decode", Some(root), id, || {
                        wire::decode_binary_request(&request.body).ok()
                    });
                    let Some(decoded) = decoded else {
                        tracer.end(root);
                        continue;
                    };
                    let pin = tracer.span("reader.pin", Some(root), id, || env.reader.pin());
                    let table = pin.table();
                    let keyed: Vec<KeyedRequest<'_>> =
                        tracer.span("table.resolve", Some(root), id, || {
                            let keys = table.keys();
                            decoded
                                .records
                                .iter()
                                .map(|record| match record.keys {
                                    wire::BinaryKeys::Ids {
                                        domain,
                                        hostname,
                                        script,
                                        method,
                                    } => KeyedRequest::new(
                                        keys.key_for_id(domain),
                                        keys.key_for_id(hostname),
                                        keys.key_for_id(script),
                                        keys.key_for_id(method),
                                    ),
                                    wire::BinaryKeys::Strings { .. } => {
                                        KeyedRequest::new(None, None, None, None)
                                    }
                                })
                                .collect()
                        });
                    let decisions: Vec<PrebuiltDecision<'_>> =
                        tracer.span("table.decide", Some(root), id, || {
                            keyed.iter().map(|k| table.decide_prebuilt(k)).collect()
                        });
                    tracer.span("handler.body", Some(root), id, || {
                        batch_body(table, decisions)
                    })
                }
            };
            let (content_type, keep_alive) = match codec {
                Codec::Json => ("application/json", request.keep_alive()),
                Codec::BinaryBatch => (wire::BINARY_CONTENT_TYPE, request.keep_alive()),
            };
            let mut out = Vec::new();
            tracer.span("http.render", Some(root), id, || {
                HttpResponse::bytes(content_type, body).render_into(&mut out, keep_alive)
            });
            tracer.end(root);

            if round == 0 {
                let pin = env.reader.pin();
                let messages: Vec<&DecisionMessage> = match entry {
                    PoolEntry::Json(message) => vec![message],
                    PoolEntry::Batch(messages) => messages.iter().collect(),
                };
                for message in messages {
                    decided += 1;
                    let arm = match pin.decide(&message.as_request()) {
                        Decision::Allow(DecisionSource::FilterList)
                        | Decision::Block(DecisionSource::FilterList) => Some(1),
                        Decision::Allow(_) | Decision::Block(_) => Some(0),
                        Decision::Surrogate(_) => Some(2),
                        Decision::Rewrite(_) => Some(3),
                        Decision::Observe => None,
                    };
                    if let Some(arm) = arm {
                        shares[arm] += 1;
                    }
                    // The other codec's decode of the same request, so
                    // both decoders are timed on every workload's inputs.
                    match codec {
                        Codec::Json => {
                            let frame = wire::encode_binary_single(
                                table_epoch,
                                &wire::BinaryRecord::from_message(message),
                            );
                            tracer.span("wire.binary_decode.other", None, id, || {
                                wire::decode_binary_request(&frame).ok()
                            });
                        }
                        Codec::BinaryBatch => {
                            let text = message.to_json_value().render();
                            tracer.span("wire.json_decode.other", None, id, || {
                                DecisionMessage::from_json_value(&Value::parse(&text).ok()?).ok()
                            });
                        }
                    }
                }
            }
        }
    }
    for (at, name) in [
        "decision.share.hierarchy",
        "decision.share.filterlist",
        "decision.share.surrogate",
        "decision.share.rewrite",
    ]
    .into_iter()
    .enumerate()
    {
        values.insert(name, shares[at] as f64 / decided.max(1) as f64);
    }
}

/// The filter-list match and the URL rewrite over the workload's
/// URL-carrying requests: the pool's URL-context requests, or the
/// held-out requests where the pool carries none. The re-crawl serves
/// without a rewriter; its URLs go through the default rules.
fn replay_url_layers(env: &Env, tracer: &mut Tracer) {
    let mut urls: Vec<(&str, &str, ResourceType)> = env
        .entries
        .iter()
        .filter_map(|entry| match entry {
            PoolEntry::Json(message) => message
                .url
                .as_deref()
                .map(|url| (url, message.source_hostname.as_str(), message.resource_type)),
            PoolEntry::Batch(_) => None,
        })
        .collect();
    if urls.is_empty() {
        urls = env.training[env.trained..]
            .iter()
            .take(work::POOL)
            .map(|r| (r.url.as_str(), r.site_domain.as_str(), r.resource_type))
            .collect();
    }
    let default_rules;
    let rewriter = match &env.rewriter {
        Some(rewriter) => rewriter.as_ref(),
        None => {
            default_rules = RewriterBuilder::new().default_rules().build();
            &default_rules
        }
    };
    for (at, &(url, source, kind)) in urls.iter().enumerate() {
        let id = at as u64;
        if let Some(engine) = &env.engine {
            tracer.span("filterlist.match", None, id, || {
                engine.label_url(url, source, kind)
            });
        }
        tracer.span("rewriter.rewrite", None, id, || rewriter.rewrite(url));
    }
}

/// The JSON single-decision body, assembled from the table's preformatted
/// parts as the server does.
fn json_body(table: &trackersift::VerdictTable, decision: PrebuiltDecision<'_>) -> Vec<u8> {
    let prebuilt = table.prebuilt();
    match decision {
        PrebuiltDecision::Fixed(index) => prebuilt.json_single(index).as_bytes().to_vec(),
        PrebuiltDecision::Surrogate(sf) => {
            let mut out = prebuilt.json_single_prefix().as_bytes().to_vec();
            out.extend_from_slice(sf.json.as_bytes());
            out.push(b'}');
            out
        }
        PrebuiltDecision::Rewrite(rewritten) => {
            let mut out = prebuilt.json_single_prefix().as_bytes().to_vec();
            out.extend_from_slice(frames::rewrite_value(&rewritten).render().as_bytes());
            out.push(b'}');
            out
        }
    }
}

/// The binary batch body, assembled as the server does.
fn batch_body(table: &trackersift::VerdictTable, decisions: Vec<PrebuiltDecision<'_>>) -> Vec<u8> {
    let prebuilt = table.prebuilt();
    let mut out = Vec::with_capacity(13 + decisions.len() * 8);
    out.push(frames::PROTO_VERSION);
    out.extend_from_slice(&table.version().to_le_bytes());
    out.extend_from_slice(&(decisions.len() as u32).to_le_bytes());
    for decision in decisions {
        match decision {
            PrebuiltDecision::Fixed(index) => {
                let frame = prebuilt.binary_single(index);
                out.extend_from_slice(&frames::encode_record_header(frame[1], frame[2], 0));
            }
            PrebuiltDecision::Surrogate(sf) => {
                out.extend_from_slice(&frames::encode_record_header(
                    frames::ACTION_SURROGATE,
                    frames::SOURCE_NONE,
                    sf.binary.len() as u32,
                ));
                out.extend_from_slice(&sf.binary);
            }
            PrebuiltDecision::Rewrite(rewritten) => {
                let payload = frames::encode_rewrite_payload(&rewritten);
                out.extend_from_slice(&frames::encode_record_header(
                    frames::ACTION_REWRITE,
                    frames::SOURCE_NONE,
                    payload.len() as u32,
                ));
                out.extend_from_slice(&payload);
            }
        }
    }
    out
}

/// The commit path, layer by layer: a mirror `Sifter` (ingest,
/// reclassify, freeze the verdict table), a writer fed the same
/// observations (durable on `ingest_commit`), a standalone journal
/// appending the same records at the server's sync cadence, and a follower
/// applying each commit's delta.
struct CommitReplay {
    sifter: Sifter,
    writer: SifterWriter,
    journal: Journal,
    follower: FollowerState,
    dir: PathBuf,
    observe_us: Vec<f64>,
    publish_ms: Vec<f64>,
    reclassified: Vec<f64>,
    keys: Vec<f64>,
    touched: Vec<f64>,
    changes: Vec<f64>,
    delta_bytes: Vec<f64>,
}

/// What the commit path ingests through: the mirror sifter and the
/// writer take observations alike.
trait Ingest {
    fn parts(&mut self, domain: &str, hostname: &str, script: &str, method: &str, tracking: bool);
    fn url(&mut self, url: &str, source: &str, kind: ResourceType, script: &str, method: &str);

    fn ingest(&mut self, observation: &ObservationMessage) {
        match observation {
            ObservationMessage::Parts {
                domain,
                hostname,
                script,
                method,
                tracking,
            } => self.parts(domain, hostname, script, method, *tracking),
            ObservationMessage::Url {
                url,
                source_hostname,
                resource_type,
                script,
                method,
            } => self.url(url, source_hostname, *resource_type, script, method),
        }
    }
}

impl Ingest for Sifter {
    fn parts(&mut self, domain: &str, hostname: &str, script: &str, method: &str, tracking: bool) {
        self.observe_parts(domain, hostname, script, method, tracking);
    }

    fn url(&mut self, url: &str, source: &str, kind: ResourceType, script: &str, method: &str) {
        self.observe_url(url, source, kind, script, method);
    }
}

impl Ingest for SifterWriter {
    fn parts(&mut self, domain: &str, hostname: &str, script: &str, method: &str, tracking: bool) {
        self.observe_parts(domain, hostname, script, method, tracking);
    }

    fn url(&mut self, url: &str, source: &str, kind: ResourceType, script: &str, method: &str) {
        self.observe_url(url, source, kind, script, method);
    }
}

fn journal_entry(observation: &ObservationMessage) -> JournalEntry {
    match observation.clone() {
        ObservationMessage::Parts {
            domain,
            hostname,
            script,
            method,
            tracking,
        } => JournalEntry::Parts {
            domain,
            hostname,
            script,
            method,
            tracking,
        },
        ObservationMessage::Url {
            url,
            source_hostname,
            resource_type,
            script,
            method,
        } => JournalEntry::Url {
            url,
            source_hostname,
            resource_type,
            script,
            method,
        },
    }
}

impl CommitReplay {
    /// Start from `sifter` and `writer`, trained alike; `dir` holds the
    /// journals and is removed by [`CommitReplay::finish`].
    fn new(mut sifter: Sifter, writer: SifterWriter, dir: PathBuf, env: &Env) -> CommitReplay {
        sifter.verdict_table();
        let journal = Journal::open(
            dir.join("journal.wal"),
            DurabilityConfig::new(&dir).sync_every,
        )
        .expect("open the replay journal");
        let mut follower = FollowerState::new(env.engine.clone(), env.rewriter.clone());
        let reader = writer.reader();
        let bootstrap = reader.pin().table().full_snapshot_delta();
        follower
            .apply(&bootstrap)
            .expect("bootstrap the replay follower");
        CommitReplay {
            sifter,
            writer,
            journal,
            follower,
            dir,
            observe_us: Vec::new(),
            publish_ms: Vec::new(),
            reclassified: Vec::new(),
            keys: Vec::new(),
            touched: Vec::new(),
            changes: Vec::new(),
            delta_bytes: Vec::new(),
        }
    }

    /// Fold one batch of observations through every layer of the commit
    /// path as commit `id`.
    fn fold(&mut self, batch: &[ObservationMessage], id: u64, tracer: &mut Tracer) {
        for chunk in batch.chunks(work::OBSERVATIONS_PER_COMMIT) {
            let body = work::observe_body(chunk);
            let decoded = tracer.span("wire.observation_decode", None, id, || {
                let value = Value::parse(&body).ok()?;
                value
                    .field("observations")
                    .ok()?
                    .as_array()
                    .ok()?
                    .iter()
                    .map(|row| ObservationMessage::from_json_value(row).ok())
                    .collect::<Option<Vec<_>>>()
            });
            assert!(decoded.is_some_and(|rows| rows.len() == chunk.len()));
        }

        let root = tracer.begin("commit", None, id);
        let sifter = &mut self.sifter;
        let observe_span = tracer.begin("sifter.observe", Some(root), id);
        for observation in batch {
            sifter.ingest(observation);
        }
        tracer.end(observe_span);
        let span_us = |span: usize| stats::us(tracer.spans[span].end - tracer.spans[span].start);
        self.observe_us
            .push(span_us(observe_span) / batch.len().max(1) as f64);
        let reclassify = tracer.begin("sifter.reclassify", Some(root), id);
        let stats = sifter.commit();
        tracer.end(reclassify);
        let freeze = tracer.begin("sifter.verdict_table", Some(root), id);
        let table = sifter.verdict_table();
        tracer.end(freeze);
        tracer.end(root);
        let keys: usize = Granularity::ALL
            .iter()
            .map(|&level| table.members(level))
            .sum();
        self.reclassified.push(stats.reclassified() as f64);
        self.keys.push(keys as f64);
        self.touched
            .push(stats.reclassified() as f64 / keys.max(1) as f64);

        let writer = &mut self.writer;
        for observation in batch {
            writer.ingest(observation);
        }
        let before = writer.published_version();
        let commit = tracer.begin("writer.commit", None, id);
        writer.commit();
        tracer.end(commit);
        let span_us = |span: usize| stats::us(tracer.spans[span].end - tracer.spans[span].start);
        self.publish_ms
            .push((span_us(commit) - span_us(reclassify) - span_us(freeze)) / 1e3);
        let revision = writer.revisions().last().cloned();
        self.changes
            .push(revision.as_ref().map_or(0, |r| r.changes().len()) as f64);

        let journal = &mut self.journal;
        for observation in batch {
            let entry = journal_entry(observation);
            tracer
                .span("journal.append", None, id, || journal.append(&entry))
                .expect("journal append");
        }
        let marker = JournalEntry::Commit {
            version: writer.published_version(),
        };
        tracer
            .span("journal.append", None, id, || journal.append(&marker))
            .expect("journal append");
        tracer
            .span("journal.sync", None, id, || journal.sync())
            .expect("journal sync");
        if let Some(revision) = revision {
            let entry = JournalEntry::Revision {
                revision: (*revision).clone(),
            };
            tracer
                .span("journal.append", None, id, || journal.append(&entry))
                .expect("journal append");
        }

        let reader = writer.reader();
        let pin = reader.pin();
        let delta = tracer
            .span("follower.delta_since", None, id, || {
                pin.table().delta_since(before)
            })
            .expect("the previous version is in the ring");
        drop(pin);
        self.delta_bytes
            .push(frames::delta_snapshot_value(&delta).render().len() as f64);
        let follower = &mut self.follower;
        tracer
            .span("follower.apply", None, id, || follower.apply(&delta))
            .expect("the delta chains onto the follower");
        tracer.span("follower.table", None, id, || follower.table());
    }

    fn finish(self, values: &mut BTreeMap<&'static str, f64>) {
        values.insert("sifter.observe_us", median(&self.observe_us));
        values.insert("writer.publish_ms", median(&self.publish_ms));
        values.insert("commit.reclassified", median(&self.reclassified));
        values.insert("commit.keys", median(&self.keys));
        values.insert("commit.touched_share", median(&self.touched));
        values.insert("revision.changes", median(&self.changes));
        values.insert("follower.delta_bytes", median(&self.delta_bytes));
        let dir = self.dir.clone();
        drop(self);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The commit path over the workload's first observation batches.
fn replay_commits(
    env: &Env,
    commits: usize,
    tracer: &mut Tracer,
    values: &mut BTreeMap<&'static str, f64>,
) {
    let dir = work::scratch_dir("replay");
    let durable = (env.kind == Kind::IngestCommit).then(|| dir.join("writer"));
    let writer = work::mirror_writer(env, durable.as_deref());
    let mut replay = CommitReplay::new(work::mirror_sifter(env), writer, dir, env);
    for (at, batch) in env.batches.iter().take(commits).enumerate() {
        replay.fold(batch, at as u64, tracer);
    }
    replay.finish(values);
}

/// The re-crawl, in process. The scheduler itself ticks a local writer
/// (`scheduler.tick`); beside it, the same evolving web is crawled the way
/// the scheduler crawls it, and each epoch's observations are folded
/// through the commit path layer by layer.
fn replay_recrawl(
    env: &Env,
    epochs: usize,
    tracer: &mut Tracer,
    values: &mut BTreeMap<&'static str, f64>,
) {
    let config = work::recrawl_config();
    let mut scheduler = Scheduler::new(config.clone());
    let (mut tick_writer, _) = scheduler.sifter_pair();
    scheduler.tick(&mut tick_writer);

    let mut corpus = CorpusGenerator::generate(
        &CorpusProfile::small().with_sites(config.sites),
        config.seed,
    );
    let mutator = EcosystemMutator::new(config.seed, config.mutation);
    let engine = Arc::new(filter_rules::engine_for(&corpus.ecosystem));
    let build = || Sifter::builder().shared_engine(Arc::clone(&engine)).build();
    let mut sifter = build();
    let mut writer = build().into_concurrent().0;
    for observation in crawl(&corpus) {
        sifter.ingest(&observation);
        writer.ingest(&observation);
    }
    sifter.commit();
    writer.commit();
    let mut replay = CommitReplay::new(sifter, writer, work::scratch_dir("replay"), env);

    let mut observations = Vec::new();
    let mut drift = Vec::new();
    for epoch in 1..=epochs as u64 {
        let summary = tracer.span("scheduler.tick", None, epoch, || {
            scheduler.tick(&mut tick_writer)
        });
        observations.push(summary.observations as f64);
        drift.push(summary.drift_events as f64);
        mutator.advance(&mut corpus, epoch);
        replay.fold(&crawl(&corpus), epoch, tracer);
    }
    replay.finish(values);
    values.insert("scheduler.observations", median(&observations));
    values.insert("scheduler.drift_events", median(&drift));
}

/// One epoch's crawl, observed the way the scheduler observes it: every
/// planned script request keyed by the script's URL, and the page's own
/// requests keyed by the page.
fn crawl(corpus: &WebCorpus) -> Vec<ObservationMessage> {
    let mut observations = Vec::new();
    for site in &corpus.websites {
        for script in &site.scripts {
            let key = script.origin.url().to_string();
            for (method_index, request) in script.planned_requests() {
                observations.push(ObservationMessage::Url {
                    url: request.url.clone(),
                    source_hostname: site.hostname.clone(),
                    resource_type: request.resource_type,
                    script: key.clone(),
                    method: script.methods[method_index].name.clone(),
                });
            }
        }
        let page = format!("page:{}", site.hostname);
        for request in &site.non_script_requests {
            observations.push(ObservationMessage::Url {
                url: request.url.clone(),
                source_hostname: site.hostname.clone(),
                resource_type: request.resource_type,
                script: page.clone(),
                method: "html".to_string(),
            });
        }
    }
    observations
}
