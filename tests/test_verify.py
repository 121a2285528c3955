import math

from edgejump import verify
from edgejump.report import ReportRow


def test_memo_tables_are_bounded():
    cache = {}
    for k in range(verify.CACHE_SIZE + 5):
        assert verify._memo(cache, k, lambda k=k: k * k) == k * k
    assert list(cache) == list(range(5, verify.CACHE_SIZE + 5))  # oldest out first
    assert verify._memo(cache, 5, lambda: None) == 25  # a hit makes nothing


def test_op_system_cached_reuses_its_system():
    verify._OP_CACHE.clear()
    a = verify.op_system_cached(0.4j, 32, 0.5)
    assert verify.op_system_cached(0.4j, 32, 0.5) is a
    assert len(verify._OP_CACHE) == 1


def test_bulk_hankel_passes_at_defaults():
    rep = verify.check_bulk_hankel()
    assert rep.passed, rep.detail
    assert [r.label for r in rep.rows] == ["bulk-hankel"] * 3 + ["bulk-hankel-edge-degradation"]


def test_given_rel_res_survives_finish():
    row = ReportRow(label="x", finite=2.0, asym=1.0, rel_res=0.123).finish()
    assert row.rel_res == 0.123
    assert row.abs_res == 1.0
    row = ReportRow(label="x", finite=2.0, asym=1.0).finish()
    assert (row.abs_res, row.rel_res) == (1.0, 1.0)


def test_rows_past_double_range_stay_finite():
    # H_n, p_n(lambda0) and their predictions leave double range from
    # n ~ 40 on; the rows report them scaled by the prediction
    reps = [verify.check_edge_hankel(ns=(20, 40, 80, 160, 320, 640)),
            verify.check_polynomial_asymptote(ns=(64, 128, 256, 512, 1024, 2048)),
            verify.check_bulk_hankel()]
    for rep in reps:
        assert rep.passed, rep.detail
        for row in rep.rows:
            rec = row.as_record()
            values = [v for k, v in rec.items()
                      if k.split("_")[0] in ("finite", "asym", "abs", "rel") and v is not None]
            assert all(math.isfinite(v) for v in values), rec
            assert rec["rel_res"] is not None
