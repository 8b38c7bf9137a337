//! Property test for commit-emitted revisions.
//!
//! A commit logs the class transitions it makes and the surrogate plans it
//! rebuilds or drops; the concurrent writer records that log as the
//! commit's [`VerdictRevision`]. The oracle here is the whole-table diff the
//! log replaced: every class of the table before against every class of
//! the table after (both enumerated through `full_snapshot_delta`), plus
//! every plan compared by `Arc` identity. The two must be equal at every
//! published version, under random interleavings of observations, commits,
//! batches of never-seen keys (which grow the frozen key view's tail and
//! fold it into the shared base), snapshot restores and journal-recovered
//! restarts whose journal was cut at a random byte inside the last commit.
//! The served `/v1/revisions` and `GET /v1/snapshot?since=` bodies must
//! equal the bodies the oracle ring produces, byte for byte.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use trackersift_suite::prelude::*;
use trackersift_suite::trackersift::{
    diff_revisions, frames, plans_touched_in_span, ChangeKind, DurableDir, RevisionChange,
    SurrogateScript, VerdictRevision,
};

/// One observation over a small key space, index-encoded.
type Obs = (u8, u8, u8, u8, u8);

#[derive(Debug, Clone)]
enum Op {
    Observe(Vec<Obs>),
    /// Observations whose every key is new to the writer.
    Novel(u8),
    Commit,
    /// Restore the writer's own snapshot, then checkpoint it.
    Restore,
    /// Drop the writer and recover it from its durable directory, after
    /// cutting the journal at this fraction (per mille) of the bytes the
    /// last commit appended.
    Restart(u16),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop::collection::vec((0u8..6, 0u8..2, 0u8..3, 0u8..4, 0u8..2), 1..12)
            .prop_map(Op::Observe),
        (1u8..6).prop_map(Op::Novel),
        (0u8..1).prop_map(|_| Op::Commit),
        (0u8..1).prop_map(|_| Op::Commit),
        (0u8..6).prop_map(|roll| if roll == 0 { Op::Restore } else { Op::Commit }),
        (0u16..1001).prop_map(Op::Restart),
    ]
}

fn parts(observation: Obs) -> (String, String, String, String, bool) {
    let (domain, hostname, script, method, tracking) = observation;
    let domain_name = format!("site{domain}.com");
    (
        domain_name.clone(),
        format!("h{hostname}.{domain_name}"),
        format!("https://cdn{}.com/s{script}.js", script % 2),
        format!("m{method}"),
        tracking == 1,
    )
}

/// A published table's committed state, enumerated in full: the class of
/// every member per (granularity, key), and every surrogate plan.
struct FullState {
    classes: HashMap<(Granularity, Arc<str>), Classification>,
    plans: HashMap<Arc<str>, Arc<SurrogateScript>>,
}

fn full_state(table: &VerdictTable) -> FullState {
    let full = table.full_snapshot_delta();
    let classes = full
        .changes
        .iter()
        .map(|change| {
            // Every member string resolves through the table's key view.
            assert!(table.keys().iter().any(|(_, s)| s == change.key.as_ref()));
            let class = change.kind.new_class().expect("a full snapshot only adds");
            ((change.granularity, Arc::clone(&change.key)), class)
        })
        .collect();
    let plans = full
        .plans
        .into_iter()
        .map(|(script, plan)| (script, plan.expect("a full snapshot ships plans")))
        .collect();
    FullState { classes, plans }
}

/// The revision a whole-table diff records for the step `before` → `after`.
fn oracle_revision(version: u64, before: &FullState, after: &FullState) -> VerdictRevision {
    let mut changes = Vec::new();
    for ((granularity, key), &class) in &after.classes {
        let old = before
            .classes
            .get(&(*granularity, Arc::clone(key)))
            .copied();
        if let Some(kind) = ChangeKind::of(old, Some(class)) {
            changes.push(RevisionChange::new(*granularity, Arc::clone(key), kind));
        }
    }
    for ((granularity, key), &class) in &before.classes {
        if !after.classes.contains_key(&(*granularity, Arc::clone(key))) {
            changes.push(RevisionChange::new(
                *granularity,
                Arc::clone(key),
                ChangeKind::Removed(class),
            ));
        }
    }
    let mut plans: Vec<Arc<str>> = after
        .plans
        .iter()
        .filter(|(script, plan)| {
            !before
                .plans
                .get(*script)
                .is_some_and(|old| Arc::ptr_eq(old, plan))
        })
        .map(|(script, _)| Arc::clone(script))
        .collect();
    plans.extend(
        before
            .plans
            .keys()
            .filter(|script| !after.plans.contains_key(*script))
            .cloned(),
    );
    VerdictRevision::with_plans(version, changes, plans)
}

/// The oracle ring covering `table`'s ring, and the served bodies of both.
fn assert_served_bodies_match(table: &VerdictTable, oracle: &BTreeMap<u64, Arc<VerdictRevision>>) {
    let version = table.version();
    let ring = table.revisions();
    let expected: Vec<Arc<VerdictRevision>> = ring
        .iter()
        .map(|revision| Arc::clone(&oracle[&revision.version()]))
        .collect();
    assert_eq!(
        frames::revision_list_value(version, ring).render(),
        frames::revision_list_value(version, &expected).render()
    );
    assert_eq!(
        frames::encode_revision_list(version, ring),
        frames::encode_revision_list(version, &expected)
    );
    let Some(oldest) = ring.first() else {
        return;
    };
    for since in oldest.version() - 1..=version {
        let delta = table.delta_since(since).expect("a span inside the ring");
        let diff = diff_revisions(&expected, since, version).expect("oracle span");
        let oracle_delta = DeltaSnapshot {
            since: Some(since),
            to: version,
            committed: table.committed(),
            residue: table.unattributed(),
            changes: diff.changes,
            plans: plans_touched_in_span(&expected, since, version)
                .into_iter()
                .map(|script| {
                    let plan = table.surrogate_plan(&script);
                    (script, plan)
                })
                .collect(),
        };
        assert_eq!(
            frames::delta_snapshot_value(&delta).render(),
            frames::delta_snapshot_value(&oracle_delta).render()
        );
        assert_eq!(
            frames::encode_delta_snapshot(&delta),
            frames::encode_delta_snapshot(&oracle_delta)
        );
    }
}

fn temp_dir() -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock")
        .as_nanos();
    std::env::temp_dir().join(format!(
        "trackersift-commit-revisions-{}-{nanos}",
        std::process::id()
    ))
}

fn journal_len(dir: &Path) -> u64 {
    let path = DurableDir::open(dir).expect("durable dir").journal_path();
    std::fs::metadata(path).map_or(0, |meta| meta.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The commit-emitted revision equals the whole-table diff at every
    /// published version, and the served ring and delta bodies equal the
    /// oracle ring's.
    #[test]
    fn commit_emitted_revisions_equal_the_table_diff(
        trained in 40usize..160,
        ops in prop::collection::vec(arb_op(), 8..40),
    ) {
        let dir = temp_dir();
        let (mut writer, mut reader) = Sifter::builder().build_concurrent();
        writer.open_durable(&dir, 1).expect("open durable");
        let mut baseline = full_state(reader.pin().table());
        let mut oracle: BTreeMap<u64, Arc<VerdictRevision>> = BTreeMap::new();
        // Journal length before the last commit's marker, while the live
        // generation is unchanged.
        let mut before_commit: Option<u64> = None;
        let mut novel = 0usize;

        // A trained base of many distinct keys, so the few new keys of a
        // later batch stay in the tail for several commits between folds.
        let mut script = vec![Op::Novel(4); trained / 4];
        script.push(Op::Commit);
        script.extend(ops);
        for op in script {
            match op {
                Op::Observe(batch) => {
                    for observation in batch {
                        let (domain, hostname, script, method, tracking) = parts(observation);
                        writer.observe_parts(&domain, &hostname, &script, &method, tracking);
                    }
                }
                Op::Novel(count) => {
                    for _ in 0..count {
                        novel += 1;
                        let domain = format!("novel{novel}.com");
                        writer.observe_parts(
                            &domain,
                            &format!("w.{domain}"),
                            &format!("https://{domain}/n.js"),
                            &format!("n{novel}"),
                            novel % 3 == 0,
                        );
                    }
                }
                Op::Commit => {
                    before_commit = Some(journal_len(&dir));
                    writer.commit();
                    let pin = reader.pin();
                    let table = pin.table();
                    let after = full_state(table);
                    let expected = oracle_revision(table.version(), &baseline, &after);
                    let emitted = writer.revisions().last().expect("a commit records a revision");
                    prop_assert_eq!(emitted.as_ref(), &expected);
                    oracle.insert(table.version(), Arc::new(expected));
                    baseline = after;
                    assert_served_bodies_match(table, &oracle);
                }
                Op::Restore => {
                    let snapshot = writer.snapshot();
                    writer.restore_snapshot(&snapshot).expect("own snapshot restores");
                    writer.checkpoint().expect("checkpoint the restore");
                    prop_assert!(writer.revisions().is_empty(), "a restore starts a new ring");
                    oracle.clear();
                    before_commit = None;
                    baseline = full_state(reader.pin().table());
                }
                Op::Restart(cut) => {
                    drop(writer);
                    drop(reader);
                    if let Some(start) = before_commit.take() {
                        let path = DurableDir::open(&dir).expect("durable dir").journal_path();
                        let end = journal_len(&dir);
                        let keep = start + (end.saturating_sub(start)) * u64::from(cut) / 1000;
                        let file = std::fs::OpenOptions::new()
                            .write(true)
                            .open(&path)
                            .expect("open journal");
                        file.set_len(keep.min(end)).expect("cut journal");
                    }
                    let pair = Sifter::builder().build_concurrent();
                    writer = pair.0;
                    reader = pair.1;
                    writer.open_durable(&dir, 1).expect("recover durable");
                    let pin = reader.pin();
                    let table = pin.table();
                    // Commits cut off the journal are gone; what the ring
                    // kept — persisted records and revisions recomputed
                    // from replayed commits alike — is the oracle's.
                    oracle.retain(|&version, _| version <= table.version());
                    for revision in writer.revisions() {
                        prop_assert_eq!(Some(revision), oracle.get(&revision.version()));
                    }
                    assert_served_bodies_match(table, &oracle);
                    baseline = full_state(table);
                }
            }
        }
        drop(reader);
        drop(writer);
        std::fs::remove_dir_all(&dir).ok();
    }
}
