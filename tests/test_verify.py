import inspect
import math

import pytest

from edgejump import verify
from edgejump.report import ReportRow
from edgejump.weightlab import edge_cut


def test_every_criterion_resolves_to_driver_calls():
    # each criterion names checks of the one registry, and each call of a
    # check names a driver that takes the keywords its sweep sets
    assert len(verify.CRITERIA) == 12
    names = [name for _, _, checks in verify.CRITERIA for name in checks]
    assert set(names) <= set(verify.CHECKS)
    assert set(verify.CHECKS) - set(names) == {"diff-identity", "qn-identity", "noncrit"}
    for name, check in verify.CHECKS.items():
        for driver, sweep in check.calls:
            inspect.signature(getattr(verify, driver)).bind(**sweep)


def test_op_system_cached_builds_at_the_edge_cut():
    for n, t in ((20, 0.0), (64, 0.5), (256, -2.0)):
        assert verify.op_system_cached(0.4j, n, t).lambda0 == edge_cut(n, t)


def test_bulk_hankel_passes_at_defaults():
    rep = verify.check_bulk_hankel()
    assert rep.passed, rep.detail
    assert [r.label for r in rep.rows] == ["bulk-hankel"] * 3 + ["bulk-hankel-edge-degradation"]


def test_polynomial_order_reads_any_ladder():
    # a ladder that grows by 1.5 once read 0.202, as if every rung doubled n
    orders = [verify.check_polynomial_asymptote(ns=ns).rows[0].order_est
              for ns in ((64, 96, 144, 216), (64, 128, 256, 512))]
    assert orders[0] == pytest.approx(orders[1], abs=0.02)


def test_given_rel_res_survives_finish():
    row = ReportRow(label="x", finite=2.0, asym=1.0, rel_res=0.123).finish()
    assert row.rel_res == 0.123
    assert row.abs_res == 1.0
    row = ReportRow(label="x", finite=2.0, asym=1.0).finish()
    assert (row.abs_res, row.rel_res) == (1.0, 1.0)


def test_rows_past_double_range_stay_finite():
    # H_n, p_n(lambda0) and their predictions leave double range from
    # n ~ 40 on; the rows report them scaled by the prediction (criteria 7
    # and 6 at their ladders, and the bulk check)
    reps = [*verify.CHECKS["thm1.2"].run(), *verify.CHECKS["thm1.5"].run(),
            verify.check_bulk_hankel()]
    for rep in reps:
        assert rep.passed, rep.detail
        for row in rep.rows:
            rec = row.as_record()
            values = [v for k, v in rec.items()
                      if k.split("_")[0] in ("finite", "asym", "abs", "rel") and v is not None]
            assert all(math.isfinite(v) for v in values), rec
            assert rec["rel_res"] is not None


def _gaussian_why(rep):
    return "; ".join(f"n={r.n} rel err {r.rel_res:.2e} > -1e+00" for r in rep.rows)


def _tw_why(rep):
    return f"kappa=0.3: max gap {max(r.abs_res for r in rep.rows):.2e} > 0e+00"


def _edge_why(rep):
    return "; ".join(f"t={t}: deviations {['%.3g' % r.rel_res for r in rep.rows if r.t == t]}"
                     for t in (0.0, 2.0))


def _singular_why(rep):
    rels = [r.rel_res for r in rep.rows if r.label == "singular-asymptote"]
    rt = rep.rows[-1].abs_res
    return (f"singular comparison worst {max(rels):.3f} over {len(rels)} points; "
            f"roundtrip error {rt:.2e} > 0e+00")


#: (check function, its sweep, gate constants set to a bound it cannot meet,
#: expected detail, rows judged FAIL)
_FORCED_FAILURES = [
    ("check_gaussian_closed_form", dict(ns=(1, 2, 3)), dict(_CLOSED_FORM_TOL=-1.0),
     _gaussian_why, lambda r: True),
    ("check_tw_identity", dict(kappas=(0.3,)), dict(_TW_BOUND=0.0), _tw_why,
     lambda r: r.abs_res > 0.0),
    ("check_edge_hankel", {}, dict(_EDGE_FINAL_BOUND=0.0), _edge_why, lambda r: True),
    ("check_bulk_hankel", {}, dict(_DEGRADE_LAMBDA=0.0),
     lambda rep: "no visible degradation toward the edge",
     lambda r: r.label == "bulk-hankel-edge-degradation"),
    ("check_singular_regime", {}, dict(_SINGULAR_REL_BOUND=0.0, _ROUNDTRIP_BOUND=0.0),
     _singular_why, lambda r: True),
]


@pytest.mark.parametrize("driver, kwargs, gates, why, judged", _FORCED_FAILURES,
                         ids=[case[0] for case in _FORCED_FAILURES])
def test_a_bound_that_cannot_be_met_fails(driver, kwargs, gates, why, judged, monkeypatch):
    # each gate shape: a per-row bound, a per-row bound under a worst-case
    # gate, a trend over a ladder, a trend plus its own last row, and
    # per-point rows plus a round trip
    for name, value in gates.items():
        monkeypatch.setattr(verify, name, value)
    rep = getattr(verify, driver)(**kwargs)
    assert not rep.passed
    assert rep.detail == why(rep)
    verdicts = [r.verdict for r in rep.rows]
    assert verdicts == ["FAIL" if judged(r) else "PASS" for r in rep.rows]
    assert "FAIL" in verdicts


def test_zero_standard_error_fails(monkeypatch):
    # two trials alike give the analytic estimator a standard error of 0
    rep = verify.check_mc_thinning(trials=2)
    assert not rep.passed
    assert rep.rows[1].rel_res == math.inf
    assert rep.detail == (f"bernoulli estimate off by {rep.rows[0].rel_res:.2f} sigma; "
                          "analytic estimate off by inf sigma")
    # all 40 samples on one side of t = 0, and no finite-size band
    monkeypatch.setattr(verify, "_FINITE_BAND", 0.0)
    rep = verify.check_mc_plancherel(ts=(0.0,), trials=40)
    assert not rep.passed
    assert rep.rows[0].rel_res == math.inf
    assert rep.detail == f"t=0.0: |cdf - det| = {rep.rows[0].abs_res:.4f} > band 0.0000"


def test_pii_residuals_are_python_floats():
    # the Airy linearization's worst error was a numpy scalar, which the CSV
    # once wrote as np.float64(...)
    assert {type(row.abs_res) for row in verify.check_pii_solution().rows} == {float}
