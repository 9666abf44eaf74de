//! Durability microbench: WAL append throughput, the fsync-interval
//! price curve, and recovery speed.
//!
//! Three measurements over the same seeded mostly-sales event history:
//!
//! * **append** — raw group-commit append throughput with no periodic
//!   fsync (one explicit durability point at the end);
//! * **fsync sweep** — the same stream at fsync intervals 1/8/64/512,
//!   showing what each durability granularity costs;
//! * **recovery** — scanning the segment back off disk and folding it
//!   into a [`RecoveredState`], i.e. the `serve --wal` boot path.
//!
//! `recovery_replay_speedup` is the same-process ratio *live ingest
//! seconds ÷ recovery seconds*: replaying a log must never be slower
//! than writing it was, or crash recovery could not catch up with a
//! live market. The ratchet holds the committed artifact to a hard
//! floor of 1.0 on that ratio. Recovery runs twice from the same bytes
//! and must reproduce its state digest (`deterministic`). The `all`
//! binary serializes the result to `BENCH_wal.json`.

use mbp_randx::SeedStream;
use mbp_wal::{recover_dir, RecoveredState, WalConfig, WalEvent, WalWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Fsync intervals exercised by the sweep (records between fsyncs).
pub const FSYNC_INTERVALS: [usize; 4] = [1, 8, 64, 512];

/// One timed append workload.
#[derive(Debug, Clone)]
pub struct WalWorkload {
    /// Workload label, `append` or `fsync@N`.
    pub name: String,
    /// Records between fsyncs (0 = final explicit sync only).
    pub fsync_interval: usize,
    /// Records appended.
    pub records: usize,
    /// Wall seconds for the whole stream, including the final sync.
    pub seconds: f64,
    /// Throughput derived from `seconds`.
    pub records_per_sec: f64,
    /// `fsync` calls the writer issued.
    pub syncs: u64,
}

/// The recovery-side measurement.
#[derive(Debug, Clone)]
pub struct WalRecoveryStats {
    /// Records recovered (must equal the records written).
    pub records: usize,
    /// Wall seconds to scan + fold, best of two runs.
    pub seconds: f64,
    /// Throughput derived from `seconds`.
    pub records_per_sec: f64,
    /// State digest of the first fold.
    pub digest: u64,
    /// Whether the second fold reproduced `digest` exactly.
    pub deterministic: bool,
}

/// The full durability baseline.
#[derive(Debug, Clone)]
pub struct WalBaseline {
    /// Machine + commit + timestamp provenance stamp.
    pub meta: crate::RunMeta,
    /// Records per workload.
    pub records: usize,
    /// Append workloads: the no-fsync run plus the interval sweep.
    pub workloads: Vec<WalWorkload>,
    /// Recovery scan + fold measurement.
    pub recovery: WalRecoveryStats,
    /// Live ingest seconds ÷ recovery seconds (hard floor 1.0).
    pub recovery_replay_speedup: f64,
}

/// Seeded mostly-sales history, every record type present — the same
/// shape the recovery property suite uses.
fn seeded_history(seed: u64, n: usize) -> Vec<WalEvent> {
    use mbp_ml::ModelKind;
    const KINDS: [ModelKind; 3] = [
        ModelKind::LinearRegression,
        ModelKind::LogisticRegression,
        ModelKind::LinearSvm,
    ];
    let mut seeds = SeedStream::new(seed);
    (0..n)
        .map(|i| {
            let r = seeds.next_seed();
            let kind = KINDS[(r % 3) as usize];
            match (r >> 2) % 100 {
                0..=2 => WalEvent::Support { kind, ridge: 1e-6 },
                3..=5 => {
                    let grid: Vec<f64> = (1..=6).map(|j| j as f64).collect();
                    let prices: Vec<f64> = grid.iter().map(|x| 8.0 * x.sqrt()).collect();
                    WalEvent::Publish { kind, grid, prices }
                }
                6 => WalEvent::Epoch { epoch: i as u64 },
                _ => WalEvent::Sale {
                    kind,
                    ncp: 0.05 + ((r >> 9) % 1_000) as f64 * 0.002,
                    price: 0.5 + ((r >> 19) % 10_000) as f64 * 0.006,
                },
            }
        })
        .collect()
}

/// Scratch directory for one benchmark run, unique within the process:
/// two runs in one process (the unit tests run in parallel) must never
/// share, or one truncates the segment the other is recovering.
fn scratch_dir(tag: &str) -> PathBuf {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("mbp-walbench-{}-{run}-{tag}", std::process::id()))
}

/// Appends the whole history to a fresh segment at the given fsync
/// interval, ending with an explicit durability point.
fn timed_append(events: &[WalEvent], fsync_interval: usize, tag: &str) -> (WalWorkload, PathBuf) {
    let dir = scratch_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("wal-000001.log");
    let cfg = WalConfig {
        group_commit: 64,
        fsync_interval,
    };
    let mut writer = WalWriter::create(&path, cfg).expect("segment creates");
    let t0 = Instant::now();
    for event in events {
        writer.append(event).expect("append");
    }
    writer.sync().expect("final durability point");
    let seconds = t0.elapsed().as_secs_f64();
    let syncs = writer.syncs();
    drop(writer);
    let name = if fsync_interval == 0 {
        "append".to_string()
    } else {
        format!("fsync@{fsync_interval}")
    };
    (
        WalWorkload {
            name,
            fsync_interval,
            records: events.len(),
            seconds,
            records_per_sec: if seconds > 0.0 {
                events.len() as f64 / seconds
            } else {
                0.0
            },
            syncs,
        },
        dir,
    )
}

/// One recovery pass: scan the directory and fold the state.
fn timed_recovery(dir: &Path) -> (f64, usize, u64) {
    let t0 = Instant::now();
    let scanned = recover_dir(dir).expect("recovery scans");
    let state = RecoveredState::from_events(&scanned.events);
    (
        t0.elapsed().as_secs_f64(),
        scanned.events.len(),
        state.digest(),
    )
}

/// Runs the full durability sweep with `records` events per workload.
pub fn run(records: usize) -> WalBaseline {
    let _span = mbp_obs::span("mbp.bench.walbench");
    let records = records.max(1_000);
    let events = seeded_history(0xaa17_90b5, records);

    let mut workloads = Vec::new();

    // Raw append throughput: no periodic fsync, one durability point at
    // the end. This run is also the live-ingest side of the recovery
    // speedup ratio, and its segment is what recovery replays.
    let (append, append_dir) = timed_append(&events, 0, "append");
    let ingest_seconds = append.seconds;
    workloads.push(append);

    for interval in FSYNC_INTERVALS {
        let (w, dir) = timed_append(&events, interval, &format!("f{interval}"));
        workloads.push(w);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let (sec_a, recovered_a, digest_a) = timed_recovery(&append_dir);
    let (sec_b, recovered_b, digest_b) = timed_recovery(&append_dir);
    let _ = std::fs::remove_dir_all(&append_dir);
    assert_eq!(recovered_a, records, "recovery must see every record");
    assert_eq!(
        recovered_b, records,
        "second recovery must see every record"
    );
    let seconds = sec_a.min(sec_b);
    let recovery = WalRecoveryStats {
        records: recovered_a,
        seconds,
        records_per_sec: if seconds > 0.0 {
            recovered_a as f64 / seconds
        } else {
            0.0
        },
        digest: digest_a,
        deterministic: digest_a == digest_b,
    };

    let recovery_replay_speedup = if recovery.seconds > 0.0 {
        ingest_seconds / recovery.seconds
    } else {
        1.0
    };

    WalBaseline {
        meta: crate::RunMeta::from_env(),
        records,
        workloads,
        recovery,
        recovery_replay_speedup,
    }
}

impl WalBaseline {
    /// Serializes the baseline as a standalone JSON document
    /// (`BENCH_wal.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&self.meta.json_fields());
        out.push_str(&format!("  \"records\": {},\n", self.records));
        out.push_str(&format!(
            "  \"recovery_replay_speedup\": {:.4},\n",
            self.recovery_replay_speedup
        ));
        out.push_str(&format!(
            "  \"deterministic\": {},\n",
            self.recovery.deterministic
        ));
        out.push_str(&format!(
            "  \"recovery\": {{\"records\": {}, \"seconds\": {:.6}, \"records_per_sec\": {:.1}, \"digest\": {}, \"deterministic\": {}}},\n",
            self.recovery.records,
            self.recovery.seconds,
            self.recovery.records_per_sec,
            self.recovery.digest,
            self.recovery.deterministic
        ));
        out.push_str("  \"workloads\": [\n");
        for (i, w) in self.workloads.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"fsync_interval\": {}, \"records\": {}, \"seconds\": {:.6}, \"records_per_sec\": {:.1}, \"syncs\": {}}}{}\n",
                w.name,
                w.fsync_interval,
                w.records,
                w.seconds,
                w.records_per_sec,
                w.syncs,
                if i + 1 == self.workloads.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_deterministic_and_complete() {
        let b = run(2_000);
        assert_eq!(b.workloads.len(), 1 + FSYNC_INTERVALS.len());
        assert_eq!(b.recovery.records, b.records);
        assert!(b.recovery.deterministic, "recovery digest must reproduce");
        assert!(b.workloads.iter().all(|w| w.records_per_sec > 0.0));
        assert!(b.recovery.records_per_sec > 0.0);
        // fsync@1 must issue at least one fsync per group; the no-fsync
        // run issues exactly the one explicit durability point.
        assert!(b.workloads[0].syncs >= 1);
        let per_record = b.workloads.iter().find(|w| w.name == "fsync@1").unwrap();
        assert!(per_record.syncs > b.workloads[0].syncs);
    }

    #[test]
    fn json_artifact_has_required_fields() {
        let b = run(1_000);
        let json = b.to_json();
        for key in [
            "\"hardware_threads\"",
            "\"records\"",
            "\"recovery_replay_speedup\"",
            "\"deterministic\"",
            "\"recovery\"",
            "\"records_per_sec\"",
            "\"fsync@512\"",
            "\"append\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        let doc = crate::ratchet::parse_json(&json).expect("artifact parses");
        assert_eq!(
            doc.get("workloads")
                .and_then(crate::ratchet::Json::as_arr)
                .map(<[_]>::len),
            Some(1 + FSYNC_INTERVALS.len())
        );
    }
}
