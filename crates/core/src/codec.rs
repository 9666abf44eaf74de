//! Byte-level encodings shared by every durable or on-the-wire form of
//! market state: the `mbp-serve` frame protocol and the `mbp-wal` record
//! log both start their frames with the same magic bytes, encode model
//! kinds as the same byte, and checksum with the same rolling FNV-1a
//! digest. Keeping them here lets the log depend on `mbp-core` alone.

use mbp_ml::ModelKind;

/// First magic byte (`b'M'`).
pub const MAGIC0: u8 = b'M';
/// Second magic byte (`b'B'`).
pub const MAGIC1: u8 = b'B';

/// Wire byte for a model kind.
pub fn kind_to_u8(kind: ModelKind) -> u8 {
    match kind {
        ModelKind::LinearRegression => 0,
        ModelKind::LogisticRegression => 1,
        ModelKind::LinearSvm => 2,
    }
}

/// Model kind for a wire byte.
pub fn kind_from_u8(b: u8) -> Option<ModelKind> {
    match b {
        0 => Some(ModelKind::LinearRegression),
        1 => Some(ModelKind::LogisticRegression),
        2 => Some(ModelKind::LinearSvm),
        _ => None,
    }
}

/// FNV-1a over raw frame bytes: the rolling digest behind WAL record
/// checksums and the response-stream determinism checks in `loadgen` and
/// the loopback tests.
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a rolling FNV-1a digest state.
pub fn digest_bytes(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
