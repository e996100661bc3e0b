"""Self-test of the benchmark's tracer.

    python3 -m pytest -q perfbench/test_tracer.py      # or
    python3 perfbench/test_tracer.py

1. Once the wrappers are installed, no module of cremona_lab still binds an
   original function (names imported with `from .ideals import ...` live in
   cremona, hudson, families, cli and acceptance), and uninstalling restores
   every original.
2. Two traced runs with one seed give identical deterministic counters, and
   the traced payload digest equals the digest of an untraced run.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

# small fixed item counts keep the test near a minute
SMOKE_ITEMS = {"scan_invariants": 6, "full_report": 2, "special_inputs": 8}

# from-imports of wrapped names in each dependent module: (module, name, span)
SPOT_CHECKS = (("cremona", "extract_points", "ideals.extract_points"),
               ("hudson", "multiplicity_at", "ideals.multiplicity_at"),
               ("families", "sat_irrelevant", "ideals.sat_irrelevant"),
               ("cli", "analyze_map", "cremona.analyze_map"),
               ("acceptance", "saturate", "ideals.saturate"),
               ("ideals", "groebner_basis", "groebner.groebner_basis"))


def test_wrappers_replace_every_binding():
    tr = tracer.Tracer()
    originals = {}
    for mod, fns in tracer.TARGETS.items():
        home = importlib.import_module(f"cremona_lab.{mod}")
        for fn in fns:
            originals[f"{mod}.{fn}"] = getattr(home, fn)
    tr.install()
    try:
        assert tr.unwrapped_bindings() == []
        for mod, attr, name in SPOT_CHECKS:
            bound = getattr(importlib.import_module(f"cremona_lab.{mod}"), attr)
            assert bound is not originals[name]
            assert bound.__wrapped__ is originals[name]
    finally:
        tr.uninstall()
    for name, orig in originals.items():
        mod, fn = name.split(".")
        assert getattr(importlib.import_module(f"cremona_lab.{mod}"), fn) is orig
    for mod, attr, name in SPOT_CHECKS:
        assert getattr(importlib.import_module(f"cremona_lab.{mod}"), attr) is originals[name]


def _run(workload: str, trace: int) -> tuple:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--items", str(SMOKE_ITEMS[workload]), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    meta = json.loads(next(ln for ln in lines if ln.startswith("# meta "))[len("# meta "):])
    return meta, json.loads(lines[-1])


def _counters(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(tracer.COUNTER_SUFFIXES)}


def test_traced_counters_repeat_and_digest_matches():
    for workload in SMOKE_ITEMS:
        meta1, res1 = _run(workload, 1)
        meta2, res2 = _run(workload, 1)
        meta0, res0 = _run(workload, 0)
        assert res1["correct"] and res2["correct"] and res0["correct"], workload
        assert _counters(res1) == _counters(res2), workload
        assert sum(v for k, v in _counters(res1).items() if k.endswith(".calls")) > 0
        assert meta1["digest"] == meta1["digest_untraced"] == meta2["digest"], workload
        assert meta1["digest"] == meta0["digest"], workload


if __name__ == "__main__":
    test_wrappers_replace_every_binding()
    test_traced_counters_repeat_and_digest_matches()
    print("tracer self-test passed")
