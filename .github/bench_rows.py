"""Checks every bench artifact in the row format.

Loads the smoke artifacts in bench-smoke/ (if a job wrote any) and the
committed BENCH_*.json files, and asserts that every row has the four
schema fields, that every `true` row reads 1, and that every committed
floor / ceiling holds. Run from the repository root.
"""
import glob
import json

files = sorted(glob.glob("bench-smoke/*.json")) + sorted(glob.glob("BENCH_*.json"))
assert files, "no bench artifacts found"
for path in files:
    doc = json.load(open(path))
    committed = not path.startswith("bench-smoke/")
    for key in ("hardware_threads", "commit", "generated_at"):
        assert key in doc, (path, key)
    rows = doc["rows"]
    assert rows, path
    for r in rows:
        assert all(k in r for k in ("name", "value", "unit", "better")), (path, r)
        assert r["better"] in ("higher", "lower", "true", "none"), (path, r)
        if r["better"] == "true":
            assert r["value"] == 1, (path, r)
        if committed and "floor" in r:
            assert r["value"] >= r["floor"], (path, r)
        if committed and "ceiling" in r:
            assert r["value"] <= r["ceiling"], (path, r)
    print("%s: %d rows ok" % (path, len(rows)))
