//! Named regression pin for the network-serving determinism digests
//! (satellite 3): `BENCH_serve_net.json` is a committed artifact, and the
//! response digests inside it are behavior, not performance — they fold
//! every response byte the daemon produced for the canonical request
//! streams. If a code change makes the wire responses drift, this test
//! fails `cargo test -q` directly instead of waiting for a bench ratchet
//! run.

use mbp_bench::netbench::{self, SWEEP_CONNS};
use mbp_bench::row::{parse_rows, Row, Value};
use std::path::Path;

fn committed_rows() -> Vec<Row> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve_net.json");
    let text = std::fs::read_to_string(path).expect("committed BENCH_serve_net.json");
    parse_rows(&text).expect("baseline parses")
}

fn value(rows: &[Row], name: &str) -> Value {
    rows.iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("committed baseline lacks row {name}"))
        .value
}

/// The committed per-sweep-point digests. They are full u64 values
/// (above 2^53), so the rows must hold them exactly, never as f64.
fn committed_digests(rows: &[Row]) -> Vec<u64> {
    SWEEP_CONNS
        .iter()
        .map(|c| match value(rows, &format!("sweep.{c}conns.digest")) {
            Value::Exact(d) => d,
            other => panic!("digest for {c} conns is not exact: {other:?}"),
        })
        .collect()
}

/// The committed baseline itself must claim full determinism: every sweep
/// point carries a digest, reproduced on its second run, and the
/// per-request path reproduced the batched digest.
#[test]
fn committed_netbench_baseline_claims_determinism() {
    let rows = committed_rows();
    assert_eq!(
        value(&rows, "deterministic"),
        Value::Exact(1),
        "committed baseline must be deterministic"
    );
    assert_eq!(
        value(&rows, "per_request_matches_batched"),
        Value::Exact(1),
        "batch admission must not change responses"
    );
    for c in SWEEP_CONNS {
        assert_eq!(
            value(&rows, &format!("sweep.{c}conns.deterministic")),
            Value::Exact(1)
        );
    }
    let digests = committed_digests(&rows);
    assert!(
        digests.iter().all(|&d| d != 0),
        "digests must be non-trivial"
    );
}

/// Digest drift gate: a live sweep at the committed request count must
/// reproduce the committed response digests bit-for-bit. Throughput may
/// move with the machine; the bytes on the wire may not.
#[test]
fn live_netbench_digests_match_the_committed_baseline() {
    let rows = committed_rows();
    let Value::Exact(per_conn) = value(&rows, "requests_per_conn") else {
        panic!("requests_per_conn is not an exact count");
    };
    let committed = committed_digests(&rows);

    let live = netbench::run(per_conn as usize);
    assert!(
        live.deterministic,
        "live sweep must reproduce its own digests"
    );
    assert!(
        live.per_request_matches_batched,
        "live per-request path must match the batched digest"
    );
    let live_digests: Vec<u64> = live.sweep.iter().map(|p| p.digest).collect();
    assert_eq!(
        live_digests, committed,
        "response digests drifted from the committed BENCH_serve_net.json — \
         if the wire behavior change is intentional, regenerate the baseline"
    );
}
