"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import edgejump.cli  # noqa: E402,F401  (loads every module that binds a layer function)
from edgejump import verify  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import summarize  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if (name == "edgejump" or name.startswith("edgejump.")) and mod}


def test_remove_restores_every_patched_attribute():
    before = _namespaces()
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        import edgejump
        from edgejump import fredholm, painleve
        assert painleve.adaptive_rk is not before["edgejump.painleve"]["adaptive_rk"]
        assert fredholm.gauss_legendre is not before["edgejump.fredholm"]["gauss_legendre"]
        assert edgejump.solve_as is not before["edgejump"]["solve_as"]
    finally:
        tracer.remove()
    after = _namespaces()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys()
        for attr, value in attrs.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"


def test_traced_and_untraced_rows_identical():
    run.clear_caches()
    untraced = verify.check_exact_identities()
    assert not hasattr(verify.check_exact_identities, "__wrapped__")
    run.clear_caches()
    with spans.Tracer("test") as tracer:
        traced = verify.check_exact_identities()
    assert untraced.passed and traced.passed
    assert [r.as_record() for r in traced.rows] == [r.as_record() for r in untraced.rows]
    names = {s.name for s in tracer.spans}
    assert {"verify.check_exact_identities", "weightlab.build_op_system",
            "linalg.lu_det"} <= names
    assert all(s.end >= s.start for s in tracer.spans)


def test_self_time_on_synthetic_tree():
    def span(i, parent, start, end, name="x.f"):
        return spans.Span(i, parent, name, "r", start, end)
    tree = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 4.0), span(2, 0, 5.0, 9.0),
            span(3, 2, 6.0, 8.0), span(4, None, 11.0, 12.0)]
    assert spans.self_times(tree) == [3.0, 3.0, 2.0, 2.0, 1.0]


def test_cache_hits_are_lookups_without_a_build():
    tree = [spans.Span(0, None, "verify.op_system_cached", "r", 0.0, 2.0),
            spans.Span(1, 0, "weightlab.build_op_system", "r", 0.5, 1.5),
            spans.Span(2, None, "verify.op_system_cached", "r", 3.0, 3.1)]
    m = spans.layer_metrics(tree, wall_s=4.0, untraced_wall_s=3.5)
    assert m["verify.op_cache_hits"] == 1
    assert m["weightlab.build_op_system.calls"] == 1
    assert m["trace.overhead_s"] == 0.5


def test_raising_driver_is_a_failure_and_the_pass_goes_on():
    def boom():
        raise ArithmeticError("singular")
    fake = SimpleNamespace(
        boom=boom,
        ok=lambda: SimpleNamespace(passed=True, detail="", rows=[]))
    failures = []
    _, outcomes = run.run_pass(fake, [("boom", {}), ("ok", {})], failures)
    assert failures == [{"driver": "boom", "error": "ArithmeticError", "detail": "singular"}]
    assert [o["driver"] for o in outcomes] == ["boom", "ok"]


def test_metric_names_and_units_are_valid_and_declared():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert tuple(m["name"] for m in bench["end_to_end"]) == summarize.END_TO_END
    layer = spans.metric_names()
    assert len(layer) == len(set(layer))
    assert {m["name"] for m in bench["per_layer"]} == set(layer)
    for m in bench["per_layer"]:
        assert m["unit"] == spans.unit(m["name"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
