//! Serving benchmark: verdict throughput and incremental-commit latency of
//! the `Sifter` against the naive full-reclassify baseline, written as a
//! machine-readable `BENCH_service.json` so successive PRs accumulate a
//! perf trajectory.
//!
//! The scenario is the deployment the paper motivates: a long-lived
//! service trained on a crawl keeps answering verdicts while labeled
//! observations trickle in. Every delta batch is ingested twice —
//!
//! * **incremental** — `observe` the batch, then one `commit` (the work is
//!   proportional to the dirty slice of the hierarchy);
//! * **baseline** — re-run `HierarchicalClassifier::classify` from scratch
//!   over *all* requests seen so far (what a batch-only pipeline must do
//!   to refresh its verdicts).
//!
//! The two states are asserted equal after every batch, so the speedup is
//! measured between provably equivalent results.
//!
//! A third section measures the concurrent reader/writer split under
//! contention: 1/2/4/8 reader threads each serving pinned verdict batches
//! from `SifterReader` clones while the single `SifterWriter` keeps
//! interleaving `observe`+`commit`. Reported per thread count: aggregate
//! verdicts/sec and the worst-case reader stall (the slowest single pinned
//! batch — on a lock-free read path this stays flat as commits land;
//! interpret scaling against the `cores` field, since a single-core
//! container cannot exhibit parallel speedup).
//!
//! A fourth section measures multi-shard commit throughput: the same
//! stream partitioned by registrable-domain hash across 1/2/4 independent
//! `SifterWriter` commit loops (`ShardedWriter::into_writers` is the
//! run-each-on-its-own-thread deployment shape). Each shard's loop is
//! measured sequentially so per-shard costs are clean on a single-core
//! container, and the parallel speedup is modeled structurally as total
//! work over the slowest shard's critical path — valid because the shards
//! share no state. The modeled figure is asserted >= 2x at 4 shards.
//!
//! A fifth section breaks one writer commit into its phases at three
//! scales (500, 2000 and 6000 sites; about 12k, 49k and 138k interned
//! keys): an in-memory `SifterWriter` trained on 90% of each crawl takes
//! up to `PHASE_COMMITS` commits of `PHASE_BATCH` held-out observations,
//! and `SifterWriter::last_commit_phases` splits each into reclassify, key
//! freeze, table copy, revision and retire + swap. The phase means add up
//! to the mean commit. `commit_scale_ratio` is the median commit at 6000
//! sites over the median at 500 — how far commit time still grows with
//! the table. It is reported, not asserted: the flat class arrays and
//! plan/frame maps each publish copies and each retire frees keep it
//! above 2 (see ROADMAP item 1).
//!
//! Scale and placement can be overridden through the environment:
//!
//! * `TRACKERSIFT_BENCH_SITES` — number of websites (default 2000);
//! * `TRACKERSIFT_BENCH_VERDICTS` — verdicts to serve (default 2,000,000);
//! * `TRACKERSIFT_BENCH_COMMITS` — delta batches to ingest (default 20);
//! * `TRACKERSIFT_BENCH_CONTENTION_VERDICTS` — verdicts per contention
//!   configuration, split across its reader threads (default 400,000);
//! * `TRACKERSIFT_BENCH_MAX_READERS` — cap on the reader-thread ladder
//!   (default 8);
//! * `TRACKERSIFT_BENCH_OUT` — output path (default `BENCH_service.json`).

use std::thread;
use std::time::{Duration, Instant};
use trackersift::{
    shard_index, CommitPhases, ShardedWriter, Sifter, Study, StudyConfig, Verdict, VerdictRequest,
};
use trackersift_bench::env_usize;
use websim::CorpusProfile;

/// Crawl sizes of the commit-phase breakdown.
const PHASE_SITES: [usize; 3] = [500, 2_000, 6_000];

/// Held-out observations per commit in the phase breakdown.
const PHASE_BATCH: usize = 50;

/// Commits measured per scale in the phase breakdown (fewer when the
/// held-out tenth of a small crawl runs out first).
const PHASE_COMMITS: usize = 200;

/// Verdicts served per pinned batch in the contention section: small enough
/// that the worst-batch figure resolves individual stalls, large enough to
/// amortise the two pin atomics.
const PIN_CHUNK: usize = 2_048;

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values.get(values.len() / 2).copied().unwrap_or(0.0)
}

/// One scale of the commit-phase breakdown.
struct PhaseRow {
    sites: usize,
    keys: usize,
    commits: usize,
    /// Mean of each phase over the commits.
    mean: CommitPhases,
    commit_ms_mean: f64,
    commit_ms_p50: f64,
}

/// Train a writer on 90% of a `sites`-site crawl and time held-out commits
/// of [`PHASE_BATCH`] observations, phase by phase.
fn commit_phases_at(sites: usize) -> PhaseRow {
    let study = Study::run(StudyConfig {
        profile: CorpusProfile::paper().with_sites(sites),
        seed: 2021,
        ..StudyConfig::default()
    });
    let split = study.requests.len() * 9 / 10;
    let (historical, live) = study.requests.split_at(split);
    let mut sifter = Sifter::builder()
        .thresholds(study.config.thresholds)
        .build();
    sifter.observe_all(historical);
    sifter.commit();
    let (mut writer, _reader) = sifter.into_concurrent();
    let mut sum = CommitPhases::default();
    let mut totals = Vec::new();
    for batch in live.chunks(PHASE_BATCH).take(PHASE_COMMITS) {
        writer.observe_all(batch);
        let start = Instant::now();
        writer.commit();
        totals.push(ms(start.elapsed()));
        let phases = writer.last_commit_phases();
        sum.reclassify += phases.reclassify;
        sum.freeze += phases.freeze;
        sum.table += phases.table;
        sum.revision += phases.revision;
        sum.swap += phases.swap;
    }
    let commits = totals.len().max(1) as u32;
    // An in-memory writer journals nothing.
    let mean = CommitPhases {
        reclassify: sum.reclassify / commits,
        freeze: sum.freeze / commits,
        table: sum.table / commits,
        revision: sum.revision / commits,
        swap: sum.swap / commits,
        ..CommitPhases::default()
    };
    PhaseRow {
        sites,
        keys: writer.reader().pin().table().keys().len(),
        commits: totals.len(),
        mean,
        commit_ms_mean: totals.iter().sum::<f64>() / f64::from(commits),
        commit_ms_p50: median(&mut totals),
    }
}

fn main() {
    let sites = env_usize("TRACKERSIFT_BENCH_SITES", 2_000);
    let target_verdicts = env_usize("TRACKERSIFT_BENCH_VERDICTS", 2_000_000);
    let commits = env_usize("TRACKERSIFT_BENCH_COMMITS", 20).max(1);
    let out_path =
        std::env::var("TRACKERSIFT_BENCH_OUT").unwrap_or_else(|_| "BENCH_service.json".to_string());

    eprintln!("bench_service: {sites} sites, {target_verdicts} verdicts, {commits} commits …");
    let study = Study::run(StudyConfig {
        profile: CorpusProfile::paper().with_sites(sites),
        seed: 2021,
        ..StudyConfig::default()
    });
    let requests = &study.requests;

    // Train on 90% of the crawl; the last 10% replays as the live stream.
    let split = requests.len() * 9 / 10;
    let (historical, live) = requests.split_at(split);
    let mut sifter = Sifter::builder()
        .thresholds(study.config.thresholds)
        .build();
    let build_start = Instant::now();
    sifter.observe_all(historical);
    sifter.commit();
    let build_ms = ms(build_start.elapsed());

    // ------------------------------------------------------------------
    // verdict throughput (bulk serving over the trained state)
    // ------------------------------------------------------------------
    let queries: Vec<VerdictRequest<'_>> =
        requests.iter().map(VerdictRequest::from_labeled).collect();
    let mut buffer: Vec<Verdict> = Vec::new();
    sifter.verdict_batch_into(&queries, &mut buffer); // warm
    let passes = target_verdicts.div_ceil(queries.len()).max(1);
    let serve_start = Instant::now();
    let mut blocked = 0u64;
    for _ in 0..passes {
        sifter.verdict_batch_into(&queries, &mut buffer);
        blocked += buffer.iter().filter(|v| v.should_block()).count() as u64;
    }
    let serve_secs = serve_start.elapsed().as_secs_f64();
    let served = (passes * queries.len()) as u64;
    let verdicts_per_sec = served as f64 / serve_secs.max(1e-12);

    // ------------------------------------------------------------------
    // incremental commit vs. naive full reclassification
    // ------------------------------------------------------------------
    let chunk_size = live.len().div_ceil(commits).max(1);
    let classifier = sifter.classifier();
    let mut incremental_total = Duration::ZERO;
    let mut baseline_total = Duration::ZERO;
    let mut reclassified_resources = 0usize;
    let mut ingested = historical.len();
    let mut batches = 0usize;
    for chunk in live.chunks(chunk_size) {
        // Incremental: observe the delta, commit the dirty slice.
        let start = Instant::now();
        sifter.observe_all(chunk);
        let stats = sifter.commit();
        incremental_total += start.elapsed();
        reclassified_resources += stats.reclassified();
        ingested += chunk.len();

        // Baseline: reclassify everything seen so far from scratch.
        let start = Instant::now();
        let scratch = classifier.classify(&requests[..ingested]);
        baseline_total += start.elapsed();

        // Equivalence: the speedup must be between identical results.
        assert_eq!(
            sifter.hierarchy(),
            scratch,
            "incremental state diverged from the from-scratch baseline"
        );
        batches += 1;
    }
    let speedup = baseline_total.as_secs_f64() / incremental_total.as_secs_f64().max(1e-12);

    // ------------------------------------------------------------------
    // contention: N lock-free readers against a committing writer
    // ------------------------------------------------------------------
    let contention_verdicts = env_usize("TRACKERSIFT_BENCH_CONTENTION_VERDICTS", 400_000);
    let max_readers = env_usize("TRACKERSIFT_BENCH_MAX_READERS", 8).max(1);
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    let (mut writer, reader) = sifter.into_concurrent();
    let mut contention_rows = Vec::new();
    let mut single_reader_rate = 0.0f64;
    for readers in [1usize, 2, 4, 8] {
        if readers > max_readers {
            continue;
        }
        let per_thread = contention_verdicts.div_ceil(readers);
        let mut commits_during = 0u64;
        let mut results: Vec<(u64, Duration)> = Vec::new();
        let wall_start = Instant::now();
        thread::scope(|scope| {
            let mut workers = Vec::new();
            for _ in 0..readers {
                let reader = reader.clone();
                let queries = &queries;
                workers.push(scope.spawn(move || {
                    let mut served = 0u64;
                    let mut worst = Duration::ZERO;
                    let mut verdicts: Vec<Verdict> = Vec::new();
                    let mut offset = 0usize;
                    while served < per_thread as u64 {
                        let end = (offset + PIN_CHUNK).min(queries.len());
                        let chunk = &queries[offset..end];
                        offset = if end == queries.len() { 0 } else { end };
                        let start = Instant::now();
                        reader.verdict_batch_into(chunk, &mut verdicts);
                        worst = worst.max(start.elapsed());
                        served += verdicts.len() as u64;
                    }
                    (served, worst)
                }));
            }
            // The writer keeps the dirty-set machinery busy for the whole
            // measurement: re-observe live-stream chunks and commit until
            // every reader has served its share.
            let mut live_cycle = live.chunks(chunk_size).cycle();
            loop {
                let chunk = live_cycle.next().expect("cycle never ends");
                writer.observe_all(chunk);
                writer.commit();
                commits_during += 1;
                thread::sleep(Duration::from_micros(500));
                if workers.iter().all(|w| w.is_finished()) {
                    break;
                }
            }
            for worker in workers {
                results.push(worker.join().expect("reader thread panicked"));
            }
        });
        let wall = wall_start.elapsed().as_secs_f64();
        let total_served: u64 = results.iter().map(|(served, _)| served).sum();
        let aggregate = total_served as f64 / wall.max(1e-12);
        let worst_batch = results
            .iter()
            .map(|(_, worst)| *worst)
            .max()
            .unwrap_or(Duration::ZERO);
        if readers == 1 {
            single_reader_rate = aggregate;
        }
        eprintln!(
            "bench_service: contention {readers} reader(s): {aggregate:.0} verdicts/sec \
             aggregate, worst pinned batch {:.3}ms, {commits_during} commits interleaved",
            ms(worst_batch),
        );
        contention_rows.push(format!(
            concat!(
                "    {{\"readers\": {readers}, \"verdicts_served\": {served}, ",
                "\"aggregate_verdicts_per_sec\": {rate:.2}, ",
                "\"speedup_vs_single_reader\": {scaling:.3}, ",
                "\"worst_batch_ms\": {worst:.3}, \"commits_interleaved\": {commits}}}"
            ),
            readers = readers,
            served = total_served,
            rate = aggregate,
            scaling = aggregate / single_reader_rate.max(1e-12),
            worst = ms(worst_batch),
            commits = commits_during,
        ));
    }
    let contention_json = contention_rows.join(",\n");

    // ------------------------------------------------------------------
    // multi-shard commit throughput: 1/2/4 independent commit loops
    // ------------------------------------------------------------------
    // Each configuration partitions the same stream by registrable-domain
    // hash across N writers — the deployment shape of
    // `ShardedWriter::into_writers`, where every shard's commit loop runs
    // on its own thread. On this container (`cores` above) concurrent
    // threads serialize onto the same core and per-thread wall clocks
    // would absorb each other's scheduling, so each shard's loop is
    // measured *sequentially*: the per-shard cost is clean, and because
    // the shards share no state (each domain hashes to exactly one
    // writer), parallel throughput equals total work over the slowest
    // shard's critical path. That structural speedup is asserted >= 2x at
    // 4 shards.
    let mut shard_rows = Vec::new();
    let mut single_writer_secs = 0.0f64;
    let mut modeled_speedup_at_4 = 0.0f64;
    for shards in [1usize, 2, 4] {
        // Partition the whole corpus once, up front, so only commit-loop
        // work is on the clock.
        let mut partitions: Vec<Vec<&trackersift::LabeledRequest>> = vec![Vec::new(); shards];
        for request in requests {
            partitions[shard_index(&request.domain, shards)].push(request);
        }
        let sharded = ShardedWriter::build(shards, |_| {
            Sifter::builder()
                .thresholds(study.config.thresholds)
                .build()
        });
        let writers = sharded.into_writers();
        let batches = commits.max(1);
        let mut per_shard: Vec<Duration> = Vec::new();
        for (mut writer, partition) in writers.into_iter().zip(&partitions) {
            let busy_start = Instant::now();
            let chunk = partition.len().div_ceil(batches).max(1);
            for batch in partition.chunks(chunk) {
                for request in batch {
                    writer.observe(request);
                }
                writer.commit();
            }
            per_shard.push(busy_start.elapsed());
        }
        let critical_path = per_shard
            .iter()
            .max()
            .copied()
            .unwrap_or(Duration::ZERO)
            .as_secs_f64();
        let total_busy: f64 = per_shard.iter().map(Duration::as_secs_f64).sum();
        if shards == 1 {
            single_writer_secs = total_busy;
        }
        let modeled_speedup = single_writer_secs / critical_path.max(1e-12);
        if shards == 4 {
            modeled_speedup_at_4 = modeled_speedup;
        }
        eprintln!(
            "bench_service: {shards} shard(s): {total_busy:.3}s total commit-loop work, \
             critical path {critical_path:.3}s, modeled parallel speedup {modeled_speedup:.2}x",
        );
        shard_rows.push(format!(
            concat!(
                "    {{\"shards\": {shards}, \"observations\": {observations}, ",
                "\"commits_per_shard\": {batches}, \"busy_ms_total\": {busy:.3}, ",
                "\"critical_path_ms\": {critical:.3}, ",
                "\"modeled_speedup_vs_single_writer\": {modeled_speedup:.3}}}"
            ),
            shards = shards,
            observations = requests.len(),
            batches = batches,
            busy = total_busy * 1e3,
            critical = critical_path * 1e3,
            modeled_speedup = modeled_speedup,
        ));
    }
    // The structural guarantee behind the modeled figure: with the work
    // split 4 ways, no single shard's commit loop may cost more than half
    // the single-writer loop.
    assert!(
        modeled_speedup_at_4 >= 2.0,
        "4-shard critical path did not halve the single-writer commit loop: \
         modeled {modeled_speedup_at_4:.2}x"
    );
    let shard_commit_json = shard_rows.join(",\n");

    // ------------------------------------------------------------------
    // one writer commit, phase by phase, at three scales
    // ------------------------------------------------------------------
    let phase_rows: Vec<PhaseRow> = PHASE_SITES.into_iter().map(commit_phases_at).collect();
    for row in &phase_rows {
        eprintln!(
            "bench_service: {} sites ({} keys): commit p50 {:.3}ms, mean {:.3}ms = reclassify \
             {:.3} + freeze {:.3} + table {:.3} + revision {:.3} + swap {:.3}",
            row.sites,
            row.keys,
            row.commit_ms_p50,
            row.commit_ms_mean,
            ms(row.mean.reclassify),
            ms(row.mean.freeze),
            ms(row.mean.table),
            ms(row.mean.revision),
            ms(row.mean.swap),
        );
    }
    let commit_scale_ratio = phase_rows[2].commit_ms_p50 / phase_rows[0].commit_ms_p50.max(1e-12);
    let commit_phases_json = phase_rows
        .iter()
        .map(|row| {
            format!(
                concat!(
                    "    {{\"sites\": {sites}, \"keys\": {keys}, \"commits\": {commits}, ",
                    "\"commit_ms_p50\": {p50:.4}, \"commit_ms_mean\": {mean:.4}, ",
                    "\"reclassify_ms\": {reclassify:.4}, \"freeze_ms\": {freeze:.4}, ",
                    "\"table_ms\": {table:.4}, \"revision_ms\": {revision:.4}, ",
                    "\"swap_ms\": {swap:.4}}}"
                ),
                sites = row.sites,
                keys = row.keys,
                commits = row.commits,
                p50 = row.commit_ms_p50,
                mean = row.commit_ms_mean,
                reclassify = ms(row.mean.reclassify),
                freeze = ms(row.mean.freeze),
                table = ms(row.mean.table),
                revision = ms(row.mean.revision),
                swap = ms(row.mean.swap),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    eprintln!(
        "bench_service: median commit at {} sites is {commit_scale_ratio:.2}x the one at {} sites",
        PHASE_SITES[2], PHASE_SITES[0],
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"service\",\n",
            "  \"sites\": {sites},\n",
            "  \"labeled_requests\": {requests},\n",
            "  \"build_ms\": {build:.3},\n",
            "  \"verdicts_served\": {served},\n",
            "  \"verdicts_per_sec\": {verdict_rate:.2},\n",
            "  \"blocked_share\": {blocked_share:.4},\n",
            "  \"commit_batches\": {batches},\n",
            "  \"delta_requests\": {delta},\n",
            "  \"incremental_commit_ms_total\": {incr:.3},\n",
            "  \"incremental_commit_ms_mean\": {incr_mean:.3},\n",
            "  \"full_reclassify_ms_total\": {base:.3},\n",
            "  \"full_reclassify_ms_mean\": {base_mean:.3},\n",
            "  \"reclassified_resources\": {reclassified},\n",
            "  \"commit_speedup\": {speedup:.2},\n",
            "  \"equivalence_checked\": true,\n",
            "  \"cores\": {cores},\n",
            "  \"contention\": [\n{contention}\n  ],\n",
            "  \"shard_commit_note\": \"per-shard loops measured sequentially (wall-clock ",
            "parallelism needs >= shards cores); the modeled figure is total work over the ",
            "slowest shard's critical path — valid because shards share no state — and is ",
            "asserted >= 2x at 4 shards\",\n",
            "  \"shard_commit\": [\n{shard_commit}\n  ],\n",
            "  \"shard_commit_speedup_at_4\": {modeled_speedup_4:.3},\n",
            "  \"commit_phases_note\": \"{phase_batch}-observation held-out commits on an ",
            "in-memory writer trained on 90% of each crawl; phase columns are means and add up ",
            "to commit_ms_mean\",\n",
            "  \"commit_phases\": [\n{commit_phases}\n  ],\n",
            "  \"commit_scale_ratio\": {commit_scale_ratio:.3}\n",
            "}}\n"
        ),
        sites = sites,
        requests = requests.len(),
        build = build_ms,
        served = served,
        verdict_rate = verdicts_per_sec,
        blocked_share = blocked as f64 / served.max(1) as f64,
        batches = batches,
        delta = live.len(),
        incr = ms(incremental_total),
        incr_mean = ms(incremental_total) / batches.max(1) as f64,
        base = ms(baseline_total),
        base_mean = ms(baseline_total) / batches.max(1) as f64,
        reclassified = reclassified_resources,
        speedup = speedup,
        cores = cores,
        contention = contention_json,
        shard_commit = shard_commit_json,
        modeled_speedup_4 = modeled_speedup_at_4,
        phase_batch = PHASE_BATCH,
        commit_phases = commit_phases_json,
        commit_scale_ratio = commit_scale_ratio,
    );

    std::fs::write(&out_path, &json).expect("write benchmark output");
    eprintln!(
        "bench_service: {verdicts_per_sec:.0} verdicts/sec, commit speedup {speedup:.1}x \
         (incremental {:.3}ms vs full {:.3}ms per batch, equivalence checked on every batch)",
        ms(incremental_total) / batches.max(1) as f64,
        ms(baseline_total) / batches.max(1) as f64,
    );
    println!("{json}");
    eprintln!("bench_service: wrote {out_path}");
}
