//! State reconstruction and the live [`Durability`] sink.
//!
//! Broker state is a pure function of the event history: the menu depends
//! only on the *last* support per kind (training is deterministic), each
//! listing only on the *last* publish per kind (the compiled table is a
//! pure function of the knots), and the ledger on every sale in order.
//! [`RecoveredState`] folds a recovered event stream down to exactly that
//! — which is also why snapshot compaction is lossless: a compacted
//! segment carries the folded form and supersedes everything before it.
//!
//! Recovery equality is checked bit-for-bit via [`broker_fingerprint`]:
//! model weights, listing knots and prices (all as IEEE-754 bits), and the
//! ledger sequence. Internal caches (the ridge factorization cache) are
//! excluded — they are performance state, not market state.

use crate::log::{list_segments, recover_dir, segment_path, WalConfig, WalWriter};
use crate::record::WalEvent;
use crate::WalError;
use mbp_core::codec::{digest_bytes, kind_to_u8, DIGEST_SEED};
use mbp_core::error::SquareLossTransform;
use mbp_core::market::{Broker, DurabilitySink, Transaction};
use mbp_core::pricing::PricingFunction;
use mbp_ml::ModelKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Every model kind, in the fixed order used for fingerprints and
/// compaction.
pub const ALL_KINDS: [ModelKind; 3] = [
    ModelKind::LinearRegression,
    ModelKind::LogisticRegression,
    ModelKind::LinearSvm,
];

/// The folded form of an event history: enough to rebuild a broker
/// bit-identically, and the exact payload of a compacted segment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveredState {
    /// Last ridge per supported kind, in first-support order.
    supports: Vec<(ModelKind, f64)>,
    /// Last published knots per kind, in first-publish order.
    publishes: Vec<(ModelKind, Vec<f64>, Vec<f64>)>,
    /// Every sale, in log order (the ledger).
    pub sales: Vec<Transaction>,
    /// Current epoch (0 before any rollover).
    pub epoch: u64,
    /// Last RNG session cursor, if any.
    pub rng_cursor: Option<(u64, u64)>,
}

impl RecoveredState {
    /// Folds an event stream. A [`WalEvent::Snapshot`] marker resets the
    /// fold: the records that follow it re-state everything still live.
    pub fn from_events(events: &[WalEvent]) -> RecoveredState {
        let mut state = RecoveredState::default();
        for event in events {
            state.apply_event(event);
        }
        state
    }

    /// Folds one event into the state.
    pub fn apply_event(&mut self, event: &WalEvent) {
        match event {
            WalEvent::Support { kind, ridge } => {
                match self.supports.iter_mut().find(|(k, _)| k == kind) {
                    Some(slot) => slot.1 = *ridge,
                    None => self.supports.push((*kind, *ridge)),
                }
            }
            WalEvent::Publish { kind, grid, prices } => {
                match self.publishes.iter_mut().find(|(k, _, _)| k == kind) {
                    Some(slot) => {
                        slot.1 = grid.clone();
                        slot.2 = prices.clone();
                    }
                    None => self.publishes.push((*kind, grid.clone(), prices.clone())),
                }
            }
            WalEvent::Sale { kind, ncp, price } => self.sales.push(Transaction {
                kind: *kind,
                ncp: *ncp,
                price: *price,
            }),
            WalEvent::Epoch { epoch } => self.epoch = *epoch,
            WalEvent::RngCursor { seed, draws } => self.rng_cursor = Some((*seed, *draws)),
            WalEvent::Snapshot { .. } => *self = RecoveredState::default(),
        }
    }

    /// `true` when no event has been folded in.
    pub fn is_empty(&self) -> bool {
        self == &RecoveredState::default()
    }

    /// Number of live records a compaction of this state would write
    /// (excluding the snapshot marker itself).
    pub fn live_records(&self) -> usize {
        self.supports.len()
            + self.publishes.len()
            + self.sales.len()
            + usize::from(self.epoch > 0)
            + usize::from(self.rng_cursor.is_some())
    }

    /// The last recorded ridge for `kind`, if supported.
    pub fn support_ridge(&self, kind: ModelKind) -> Option<f64> {
        self.supports
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, r)| *r)
    }

    /// The last published knots for `kind`, if listed.
    pub fn published_points(&self, kind: ModelKind) -> Option<(&[f64], &[f64])> {
        self.publishes
            .iter()
            .find(|(k, _, _)| *k == kind)
            .map(|(_, g, p)| (g.as_slice(), p.as_slice()))
    }

    /// Serializes the fold back to events: the compacted segment body,
    /// led by a [`WalEvent::Snapshot`] marker.
    pub fn to_events(&self) -> Vec<WalEvent> {
        let mut events = Vec::with_capacity(1 + self.live_records());
        events.push(WalEvent::Snapshot {
            compacted_records: self.live_records() as u64,
        });
        for (kind, ridge) in &self.supports {
            events.push(WalEvent::Support {
                kind: *kind,
                ridge: *ridge,
            });
        }
        for (kind, grid, prices) in &self.publishes {
            events.push(WalEvent::Publish {
                kind: *kind,
                grid: grid.clone(),
                prices: prices.clone(),
            });
        }
        for tx in &self.sales {
            events.push(WalEvent::Sale {
                kind: tx.kind,
                ncp: tx.ncp,
                price: tx.price,
            });
        }
        if self.epoch > 0 {
            events.push(WalEvent::Epoch { epoch: self.epoch });
        }
        if let Some((seed, draws)) = self.rng_cursor {
            events.push(WalEvent::RngCursor { seed, draws });
        }
        events
    }

    /// Canonical digest of the folded state (FNV over the canonical
    /// re-encoding), for determinism checks and replay reports.
    pub fn digest(&self) -> u64 {
        let encoded = crate::record::encode_log(&self.to_events());
        digest_bytes(DIGEST_SEED, &encoded.bytes)
    }

    /// Replays the fold into `broker`: supports retrain (deterministic),
    /// publishes recompile from the recorded knots (durable listings use
    /// the square-loss transform — the serve path's transform), and sales
    /// settle in log order. Attach any durability sink only *after* this
    /// call, or the replay is re-recorded.
    pub fn apply(&self, broker: &mut Broker) -> Result<(), WalError> {
        for (kind, ridge) in &self.supports {
            broker.support(*kind, *ridge)?;
        }
        for (kind, grid, prices) in &self.publishes {
            let pricing = PricingFunction::from_points(grid.clone(), prices.clone())
                .map_err(|e| WalError::BadPoints(format!("recovered publish for {kind:?}: {e}")))?;
            broker.publish(*kind, pricing, Box::new(SquareLossTransform))?;
        }
        broker.settle(self.sales.iter().cloned());
        Ok(())
    }
}

/// Bit-level fingerprint of the market state a recovery must reproduce:
/// per kind (fixed order), the optimal model's weight bits and the
/// listing's knot/price bits; then the ledger sequence. Two brokers with
/// equal fingerprints price and account identically.
pub fn broker_fingerprint(broker: &Broker) -> u64 {
    let mut h = DIGEST_SEED;
    for kind in ALL_KINDS {
        if let Some(model) = broker.optimal_model(kind) {
            h = digest_bytes(h, &[1, kind_to_u8(kind)]);
            for w in model.weights().as_slice() {
                h = digest_bytes(h, &w.to_bits().to_le_bytes());
            }
        }
        if let Some(pricing) = broker.listed_pricing(kind) {
            h = digest_bytes(h, &[2, kind_to_u8(kind)]);
            for x in pricing.grid() {
                h = digest_bytes(h, &x.to_bits().to_le_bytes());
            }
            for p in pricing.prices() {
                h = digest_bytes(h, &p.to_bits().to_le_bytes());
            }
        }
    }
    for tx in broker.ledger() {
        h = digest_bytes(h, &[3, kind_to_u8(tx.kind)]);
        h = digest_bytes(h, &tx.ncp.to_bits().to_le_bytes());
        h = digest_bytes(h, &tx.price.to_bits().to_le_bytes());
    }
    h
}

/// What [`Durability::open`] found on disk.
#[derive(Debug, Default)]
pub struct Recovery {
    /// The folded pre-crash state (replay with [`RecoveredState::apply`]).
    pub state: RecoveredState,
    /// Corrupt-but-framed records skipped across all segments.
    pub records_skipped: usize,
    /// Segments with a torn or frame-damaged tail.
    pub truncated_segments: usize,
    /// Segment files scanned.
    pub segments: usize,
    /// Intact records replayed.
    pub records: usize,
}

struct DurState {
    writer: WalWriter,
    dir: PathBuf,
    segment: u64,
    cfg: WalConfig,
    /// Live mirror of the full logical state (recovered + appended):
    /// the compaction source.
    mirror: RecoveredState,
}

/// The live write-ahead handle: implements [`DurabilitySink`] by
/// mirroring every event into the current segment (group-commit buffered)
/// and an in-memory fold used for snapshot compaction.
///
/// Sink hooks cannot surface errors to the market hot path; I/O failures
/// and post-kill appends are counted in [`Durability::io_error_count`]
/// instead, and tests assert it stays zero (or exactly matches the
/// injected faults).
pub struct Durability {
    state: Mutex<DurState>,
    io_errors: AtomicU64,
    sales_logged: AtomicU64,
}

impl Durability {
    /// Recovers `dir` (creating it if missing) and opens a fresh segment
    /// for this process's appends. Returns the handle and what was
    /// recovered; replay `recovery.state` into a broker *before*
    /// attaching the handle as its sink.
    pub fn open(dir: &Path, cfg: WalConfig) -> Result<(Arc<Durability>, Recovery), WalError> {
        std::fs::create_dir_all(dir)?;
        let scanned = recover_dir(dir)?;
        let recovery = Recovery {
            state: RecoveredState::from_events(&scanned.events),
            records_skipped: scanned.records_skipped,
            truncated_segments: scanned.truncated_segments,
            segments: scanned.segments,
            records: scanned.events.len(),
        };
        let next = list_segments(dir)?.last().map_or(1, |(id, _)| id + 1);
        let writer = WalWriter::create(&segment_path(dir, next), cfg)?;
        let handle = Durability {
            state: Mutex::new(DurState {
                writer,
                dir: dir.to_path_buf(),
                segment: next,
                cfg,
                mirror: recovery.state.clone(),
            }),
            io_errors: AtomicU64::new(0),
            sales_logged: AtomicU64::new(0),
        };
        Ok((Arc::new(handle), recovery))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DurState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one event, updating the compaction mirror. Failures are
    /// counted, not raised: the market hot path must not stall on a dead
    /// or failing log.
    pub fn append(&self, event: WalEvent) {
        let mut st = self.lock();
        st.mirror.apply_event(&event);
        if st.writer.append(&event).is_err() {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Commits the buffered group to the OS.
    pub fn commit(&self) -> Result<(), WalError> {
        self.lock().writer.commit()
    }

    /// Explicit durability point: commit + fsync.
    pub fn sync(&self) -> Result<(), WalError> {
        self.lock().writer.sync()
    }

    /// Snapshot compaction: folds the full logical state into a fresh
    /// segment (led by a [`WalEvent::Snapshot`] marker), fsyncs it, and
    /// only then retires every older segment. A crash before the retire
    /// step leaves both generations on disk — recovery handles that, the
    /// marker superseding the old segments.
    pub fn compact(&self) -> Result<CompactStats, WalError> {
        let mut st = self.lock();
        st.writer.sync()?;
        let next = st.segment + 1;
        let mut writer = WalWriter::create(&segment_path(&st.dir, next), st.cfg)?;
        let events = st.mirror.to_events();
        for event in &events {
            writer.append(event)?;
        }
        writer.sync()?;
        let old = std::mem::replace(&mut st.writer, writer);
        st.segment = next;
        let mut retired = 0usize;
        for (id, path) in list_segments(&st.dir)? {
            if id < next {
                std::fs::remove_file(&path)?;
                retired += 1;
            }
        }
        drop(old);
        Ok(CompactStats {
            segments_retired: retired,
            live_records: events.len().saturating_sub(1),
        })
    }

    /// Fault injection (see [`WalWriter::kill_now`]): crash the writer
    /// now, losing the buffered group.
    pub fn kill_now(&self) {
        self.lock().writer.kill_now();
    }

    /// Fault injection (see [`WalWriter::kill_at_byte`]): crash once the
    /// current segment file would exceed `total_bytes`.
    pub fn kill_at_byte(&self, total_bytes: u64) {
        self.lock().writer.kill_at_byte(total_bytes);
    }

    /// Recovers the WAL directory as a fresh reader would see it *right
    /// now* (buffered-but-uncommitted records are invisible, as after a
    /// crash) and folds it to state.
    pub fn recover_now(&self) -> Result<RecoveredState, WalError> {
        let st = self.lock();
        let scanned = recover_dir(&st.dir)?;
        Ok(RecoveredState::from_events(&scanned.events))
    }

    /// Append failures counted so far (0 on a healthy log).
    pub fn io_error_count(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Sales recorded through the sink interface.
    pub fn sales_logged(&self) -> u64 {
        self.sales_logged.load(Ordering::Relaxed)
    }

    /// The current segment id.
    pub fn segment(&self) -> u64 {
        self.lock().segment
    }

    /// The WAL directory.
    pub fn dir(&self) -> PathBuf {
        self.lock().dir.clone()
    }
}

/// What one [`Durability::compact`] call did.
#[derive(Debug, Clone, Copy)]
pub struct CompactStats {
    /// Old segment files deleted.
    pub segments_retired: usize,
    /// Live records carried into the compacted segment.
    pub live_records: usize,
}

impl DurabilitySink for Durability {
    fn record_sale(&self, tx: &Transaction) {
        self.sales_logged.fetch_add(1, Ordering::Relaxed);
        self.append(WalEvent::Sale {
            kind: tx.kind,
            ncp: tx.ncp,
            price: tx.price,
        });
    }

    fn record_sales(&self, txs: &[Transaction]) {
        self.sales_logged
            .fetch_add(txs.len() as u64, Ordering::Relaxed);
        let mut st = self.lock();
        for tx in txs {
            let event = WalEvent::Sale {
                kind: tx.kind,
                ncp: tx.ncp,
                price: tx.price,
            };
            st.mirror.apply_event(&event);
            if st.writer.append(&event).is_err() {
                self.io_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn record_support(&self, kind: ModelKind, ridge: f64) {
        self.append(WalEvent::Support { kind, ridge });
    }

    fn record_publish(&self, kind: ModelKind, grid: &[f64], prices: &[f64]) {
        self.append(WalEvent::Publish {
            kind,
            grid: grid.to_vec(),
            prices: prices.to_vec(),
        });
    }

    fn record_epoch(&self, epoch: u64) {
        self.append(WalEvent::Epoch { epoch });
    }

    fn record_rng_cursor(&self, seed: u64, draws: u64) {
        self.append(WalEvent::RngCursor { seed, draws });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_core::market::{concurrent::SharedBroker, PurchaseRequest};
    use mbp_data::synth;
    use mbp_randx::seeded_rng;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mbp-wal-dur-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fresh_broker(seed: u64) -> Broker {
        let mut rng = seeded_rng(seed);
        let data = synth::simulated1(120, 3, 0.5, &mut rng).split(0.75, &mut rng);
        Broker::new(data)
    }

    fn pricing() -> PricingFunction {
        let grid: Vec<f64> = (1..=8).map(|i| i as f64).collect();
        let prices: Vec<f64> = grid.iter().map(|x| 10.0 * x.sqrt()).collect();
        PricingFunction::from_points(grid, prices).unwrap()
    }

    /// A full live session against a durability-attached SharedBroker
    /// recovers to a bit-identical broker in a fresh process image.
    #[test]
    fn recovery_is_bit_identical_to_the_live_broker() {
        let dir = temp_dir("bitident");
        let (wal, recovery) = Durability::open(&dir, WalConfig::default()).unwrap();
        assert!(recovery.state.is_empty());
        let sb = SharedBroker::with_durability(fresh_broker(11), Arc::clone(&wal) as Arc<_>);
        sb.support(ModelKind::LinearRegression, 1e-6).unwrap();
        sb.publish(
            ModelKind::LinearRegression,
            pricing(),
            Box::new(SquareLossTransform),
        )
        .unwrap();
        let mut rng = seeded_rng(12);
        let requests: Vec<PurchaseRequest> = (1..=20)
            .map(|i| PurchaseRequest::AtNcp(i as f64 * 0.1))
            .collect();
        for r in sb
            .buy_batch(ModelKind::LinearRegression, &requests, &mut rng)
            .unwrap()
        {
            r.unwrap();
        }
        wal.record_epoch(2);
        wal.record_rng_cursor(12, 20);
        wal.sync().unwrap();
        let live_print = sb.with_broker(|b| broker_fingerprint(b));
        assert_eq!(wal.sales_logged(), 20);
        assert_eq!(wal.io_error_count(), 0);
        drop(sb);
        drop(wal);

        // "Restart": recover the directory into a fresh broker over the
        // same dataset.
        let (_wal2, recovery) = Durability::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(recovery.state.sales.len(), 20);
        assert_eq!(recovery.state.epoch, 2);
        assert_eq!(recovery.state.rng_cursor, Some((12, 20)));
        assert_eq!(recovery.records_skipped, 0);
        let mut restored = fresh_broker(11);
        recovery.state.apply(&mut restored).unwrap();
        assert_eq!(broker_fingerprint(&restored), live_print);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Compaction retires old segments and preserves the fold exactly —
    /// including when stale segments survive a crash between the snapshot
    /// write and the retire step (the Snapshot marker supersedes them).
    #[test]
    fn compaction_retires_segments_and_preserves_state() {
        let dir = temp_dir("compact");
        let (wal, _) = Durability::open(&dir, WalConfig::default()).unwrap();
        wal.record_support(ModelKind::LinearRegression, 1e-6);
        wal.record_support(ModelKind::LinearRegression, 1e-3); // superseded
        let p = pricing();
        wal.record_publish(ModelKind::LinearRegression, p.grid(), p.prices());
        for i in 0..10 {
            wal.record_sale(&Transaction {
                kind: ModelKind::LinearRegression,
                ncp: 0.5,
                price: 10.0 + i as f64,
            });
        }
        wal.sync().unwrap();
        let before = wal.recover_now().unwrap();
        let stats = wal.compact().unwrap();
        assert_eq!(stats.segments_retired, 1);
        // 1 support (latest ridge only) + 1 publish + 10 sales.
        assert_eq!(stats.live_records, 12);
        let after = wal.recover_now().unwrap();
        assert_eq!(after.digest(), before.digest());
        assert_eq!(after.support_ridge(ModelKind::LinearRegression), Some(1e-3));

        // Simulate the crash-between-write-and-retire: re-materialize a
        // stale pre-snapshot segment *before* the compacted one and check
        // the marker still supersedes it.
        let stale = crate::record::encode_log(&[WalEvent::Sale {
            kind: ModelKind::LinearRegression,
            ncp: 9.0,
            price: 999.0,
        }]);
        std::fs::write(segment_path(&wal.dir(), 1), &stale.bytes).unwrap();
        let with_stale = wal.recover_now().unwrap();
        assert_eq!(with_stale.digest(), before.digest());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Empty and header-only WALs recover to a clean empty broker (the
    /// regression pinned for `mbp-market replay` / `serve --wal`).
    #[test]
    fn empty_and_header_only_wals_recover_to_a_clean_empty_broker() {
        for tag in ["empty-dir", "header-only"] {
            let dir = temp_dir(tag);
            std::fs::create_dir_all(&dir).unwrap();
            if tag == "header-only" {
                std::fs::write(segment_path(&dir, 1), crate::record::FILE_HEADER).unwrap();
            }
            let scanned = recover_dir(&dir).unwrap();
            let state = RecoveredState::from_events(&scanned.events);
            assert!(state.is_empty(), "{tag} must fold to the empty state");
            let mut broker = fresh_broker(31);
            let clean_print = broker_fingerprint(&broker);
            state.apply(&mut broker).unwrap();
            assert_eq!(broker_fingerprint(&broker), clean_print);
            assert_eq!(broker.ledger().len(), 0);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// The per-sale and batched sink paths log the same stream.
    #[test]
    fn batched_and_single_sale_hooks_agree() {
        let txs: Vec<Transaction> = (0..5)
            .map(|i| Transaction {
                kind: ModelKind::LinearRegression,
                ncp: 0.1 * (i + 1) as f64,
                price: i as f64,
            })
            .collect();
        let (d1, dir1) = {
            let dir = temp_dir("hooks1");
            let (d, _) = Durability::open(&dir, WalConfig::default()).unwrap();
            d.record_sales(&txs);
            d.sync().unwrap();
            (d.recover_now().unwrap(), dir)
        };
        let (d2, dir2) = {
            let dir = temp_dir("hooks2");
            let (d, _) = Durability::open(&dir, WalConfig::default()).unwrap();
            for tx in &txs {
                d.record_sale(tx);
            }
            d.sync().unwrap();
            (d.recover_now().unwrap(), dir)
        };
        assert_eq!(d1.digest(), d2.digest());
        std::fs::remove_dir_all(&dir1).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }
}
