//! WAL recovery property suite, driven by the `mbp-testkit` crash-point
//! injector.
//!
//! The contract under test (satellite 1): over a seeded 10³-event
//! history, recovery from **every** record-boundary prefix — plus 64
//! seeded torn-byte offsets — is bit-identical to an in-memory replay of
//! the surviving prefix; corrupted-checksum / bit-flipped records are
//! skipped with a counted warning, framing damage truncates, and nothing
//! ever panics. The concurrent half kills the WAL writer
//! mid-group-commit under racing `SharedBroker` buys and requires the
//! recovered ledger to be a sub-multiset of the in-memory one.

use mbp_core::codec::{digest_bytes, DIGEST_SEED};
use mbp_core::market::DurabilitySink;
use mbp_ml::ModelKind;
use mbp_randx::seeded_rng;
use mbp_testkit::crash::{
    default_corpus_path, explore_crashes, CrashCase, CrashConfig, CrashHarness, CrashOracle,
    CrashOutcome, LogGeometry,
};
use mbp_testkit::schedule::{explore_crash, ScheduleConfig};
use mbp_wal::record::FILE_HEADER;
use mbp_wal::{encode_log, recover_bytes, Durability, RecoveredState, WalConfig, WalEvent};
use rand::Rng;
use std::path::PathBuf;
use std::sync::Arc;

const KINDS: [ModelKind; 3] = [
    ModelKind::LinearRegression,
    ModelKind::LogisticRegression,
    ModelKind::LinearSvm,
];

/// A seeded mixed history: mostly sales, with supports, publishes, epoch
/// rollovers, and RNG cursors sprinkled in — every record type present.
fn seeded_history(seed: u64, n: usize) -> Vec<WalEvent> {
    let mut rng = seeded_rng(seed);
    (0..n)
        .map(|i| {
            let kind = KINDS[rng.gen_range(0usize..KINDS.len())];
            match rng.gen_range(0u32..100) {
                0..=2 => WalEvent::Support {
                    kind,
                    ridge: 10f64.powi(-(rng.gen_range(3i32..9))),
                },
                3..=6 => {
                    let k = rng.gen_range(3usize..8);
                    let base = rng.gen_range(5.0..15.0);
                    let grid: Vec<f64> = (1..=k).map(|j| j as f64).collect();
                    let prices: Vec<f64> = grid.iter().map(|x| base * x.sqrt()).collect();
                    WalEvent::Publish { kind, grid, prices }
                }
                7..=8 => WalEvent::Epoch { epoch: i as u64 },
                9 => WalEvent::RngCursor {
                    seed: rng.gen_range(0u64..u64::MAX),
                    draws: i as u64,
                },
                _ => WalEvent::Sale {
                    kind,
                    ncp: rng.gen_range(0.05..2.0),
                    price: rng.gen_range(0.5..60.0),
                },
            }
        })
        .collect()
}

/// Canonical digest of an event sequence: FNV over its bit-exact segment
/// encoding, so equal digests mean bit-identical recovered events.
fn seq_digest(events: &[WalEvent]) -> u64 {
    digest_bytes(DIGEST_SEED, &encode_log(events).bytes)
}

fn geometry(events: &[WalEvent]) -> LogGeometry {
    let log = encode_log(events);
    LogGeometry {
        bytes: log.bytes,
        header_len: FILE_HEADER.len(),
        record_ends: log.record_ends,
        content_spans: log.content_spans,
    }
}

fn outcome(bytes: &[u8]) -> CrashOutcome {
    let log = recover_bytes(bytes);
    CrashOutcome {
        digest: seq_digest(&log.events),
        applied: log.events.len(),
        skipped: log.records_skipped,
        truncated: log.truncated_at.is_some(),
    }
}

/// Satellite 1: a 10³-event history survives every boundary prefix, 64
/// seeded torn cuts, and seeded content/framing bit flips; recovery is
/// bit-identical to the in-memory replay of the surviving prefix and
/// never panics. With over 1000 boundary schedules plus the sampled
/// cuts/flips, this is also the "clean implementation survives 10³
/// seeded crash schedules" acceptance gate.
#[test]
fn recovery_converges_from_every_crash_point_of_a_large_history() {
    let events = seeded_history(0x9a1_e57, 1_000);
    let geom = geometry(&events);
    let expect_prefix = |k: usize| seq_digest(&events[..k]);
    let expect_skip = |k: usize| {
        let mut rest = events.clone();
        rest.remove(k);
        seq_digest(&rest)
    };
    let oracle = CrashOracle {
        recover: &outcome,
        expect_prefix: &expect_prefix,
        expect_skip: &expect_skip,
    };
    let cfg = CrashConfig {
        seed: 0xc4a5_4b07,
        torn_cuts: 64,
        content_flips: 64,
        header_flips: 32,
        corpus: Some(default_corpus_path()),
    };
    let report = explore_crashes(&geom, &oracle, &cfg);
    assert!(
        report.converged(),
        "{}",
        report.failures.first().expect("failure present")
    );
    // Every boundary (0..=1000) plus the empty image ran exhaustively; the
    // sampled schedules can only add to that.
    assert!(
        report.schedules >= 1_002,
        "only {} schedules ran",
        report.schedules
    );
}

/// The recovered *state fold* (not just the event stream) matches the
/// in-memory fold of the surviving prefix, at a spread of boundary cuts.
#[test]
fn recovered_state_folds_match_in_memory_folds_at_boundaries() {
    let events = seeded_history(0x51a7e, 1_000);
    let log = encode_log(&events);
    for k in [0usize, 1, 7, 99, 500, 999, 1_000] {
        let upto = if k == 0 {
            FILE_HEADER.len()
        } else {
            log.record_ends[k - 1]
        };
        let recovered = recover_bytes(&log.bytes[..upto]);
        assert_eq!(recovered.events.len(), k);
        let from_disk = RecoveredState::from_events(&recovered.events);
        let in_memory = RecoveredState::from_events(&events[..k]);
        assert_eq!(from_disk.digest(), in_memory.digest(), "prefix {k}");
        assert_eq!(from_disk, in_memory, "prefix {k}");
    }
}

/// Satellite 2: concurrent buys against a `SharedBroker` wired to a real
/// WAL, writer killed mid-group-commit at a seeded point — the recovered
/// ledger must be a sub-multiset of the in-memory one, for every sampled
/// schedule. Failing case seeds persist to `testkit/corpus/crash.txt`.
#[test]
fn killed_group_commits_recover_a_subset_ledger_under_concurrency() {
    let base = std::env::temp_dir().join(format!("mbp-wal-crash-sched-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dirs: Arc<std::sync::Mutex<Vec<PathBuf>>> = Arc::new(std::sync::Mutex::new(Vec::new()));
    let harness: CrashHarness = {
        let base = base.clone();
        let dirs = Arc::clone(&dirs);
        Arc::new(move |case_seed: u64| {
            let dir = base.join(format!("case-{case_seed:016x}"));
            dirs.lock().unwrap().push(dir.clone());
            // Small groups + no periodic fsync: the buffered tail is real,
            // so a kill genuinely loses records.
            let cfg = WalConfig {
                group_commit: 4,
                fsync_interval: 0,
            };
            let (wal, recovery) = Durability::open(&dir, cfg).expect("fresh wal dir opens");
            assert!(recovery.state.is_empty());
            CrashCase {
                sink: Arc::clone(&wal) as Arc<dyn DurabilitySink>,
                kill: {
                    let wal = Arc::clone(&wal);
                    Arc::new(move || wal.kill_now())
                },
                recovered_sales: Arc::new(move || {
                    wal.recover_now()
                        .expect("recovery scans the dir")
                        .sales
                        .iter()
                        .map(|t| (t.ncp.to_bits(), t.price.to_bits()))
                        .collect()
                }),
            }
        })
    };
    let report = explore_crash(
        &ScheduleConfig {
            seed: 0x9a7e_57ee,
            interleavings: 40,
            threads: 4,
            ops_per_thread: 8,
            faults: true,
        },
        &harness,
        Some(&default_corpus_path()),
    );
    assert_eq!(report.explored, 40);
    assert!(
        report.failures.is_empty(),
        "{}",
        report.failures.first().expect("failure present")
    );
    let _ = std::fs::remove_dir_all(&base);
}

/// `kill_at_byte` produces a genuinely torn tail on disk, and directory
/// recovery truncates it without losing the synced prefix.
#[test]
fn kill_at_byte_leaves_a_recoverable_torn_tail() {
    let dir = std::env::temp_dir().join(format!("mbp-wal-tornbyte-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = WalConfig {
        group_commit: 1,
        fsync_interval: 0,
    };
    let (wal, _) = Durability::open(&dir, cfg).expect("wal opens");
    // Each sale record is 33 bytes after the 8-byte file header; die in
    // the middle of the 6th record.
    wal.kill_at_byte(8 + 33 * 5 + 17);
    for i in 0..10 {
        wal.record_sale(&mbp_core::market::Transaction {
            kind: ModelKind::LinearRegression,
            ncp: 0.5,
            price: 10.0 + i as f64,
        });
    }
    assert!(wal.io_error_count() > 0, "the kill point must have fired");
    let state = wal.recover_now().expect("recovery scans the dir");
    assert_eq!(state.sales.len(), 5, "the torn 6th record must truncate");
    for (i, tx) in state.sales.iter().enumerate() {
        assert_eq!(tx.price.to_bits(), (10.0 + i as f64).to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
