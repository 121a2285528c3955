"""Acceptance suite: every verification criterion at its stated tolerance.

Each criterion of ``verify.CRITERIA`` is one test, named after its number
and title.  It runs the criterion's checks with nothing set, as a bare
``edgejump verify`` does, prints a single PASS/FAIL line (run with
``pytest -s`` to see them all), and asserts both the verdict and the stated
runtime budget.  The checks judge at the gate constants of
:mod:`edgejump.verify`; ``test_gates_at_stated_tolerances`` pins each of
them to the tolerance its criterion states.
"""
import re
import time

from edgejump import verify

_LINES = []


def _criterion_test(number, title, budget, names):
    def test():
        t0 = time.perf_counter()
        reports = [rep for name in names for rep in verify.CHECKS[name].run()]
        elapsed = time.perf_counter() - t0
        passed = all(rep.passed for rep in reports)
        detail = "; ".join(rep.detail for rep in reports if rep.detail)
        line = (f"[{'PASS' if passed else 'FAIL'}] criterion {number:2d} ({title}): "
                f"{elapsed:.3f}s" + (f" | {detail}" if detail else ""))
        _LINES.append(line)
        print("\n" + line)
        assert passed, f"{title}: {detail}"
        assert elapsed <= budget, f"{title} exceeded its {budget}s budget ({elapsed:.3f}s)"

    test.__name__ = f"test_criterion_{number:02d}_" + re.sub(r"\W+", "_", title.lower())
    return test


for _number, _criterion in enumerate(verify.CRITERIA, 1):
    _test = _criterion_test(_number, *_criterion)
    globals()[_test.__name__] = _test


#: Each gate constant of ``edgejump.verify`` and the value its criterion states.
_STATED_GATES = {
    "_CLOSED_FORM_TOL": 1e-30,      # criterion 1
    "_FINITE_N_TOL": 1e-18,         # criterion 2
    "_TW_BOUND": 1e-8,              # criterion 3
    "_PII_RESIDUAL_TOL": 1e-12,     # criterion 4
    "_LINEARIZATION_BOUND": 1e-10,  # criterion 4
    "_GROWTH_CAP": 1.5,             # criterion 5
    "_GAP_ORDER": 1.0 / 3.0,        # criteria 5 and 6
    "_GAP_ORDER_TOL": 0.15,         # criteria 5 and 6
    "_EDGE_FINAL_BOUND": 0.05,      # criterion 7
    "_AIRY_TAIL_BOUND": 0.05,       # criterion 8
    "_SINGULAR_REL_BOUND": 0.05,    # criterion 9
    "_COS_GUARD": 0.3,              # criterion 9
    "_ROUNDTRIP_BOUND": 1e-6,       # criterion 9
    "_QN_GUARD_BITS": 32,           # criterion 11
    "_DIFF_FD_BOUND": 1e-9,         # criterion 11
    "_DIFF_EXACT_BOUND": 1e-20,     # criterion 11
    "_NORM_PRODUCT_REL_TOL": 1e-80, # criterion 11
    "_MC_SIGMAS": 3.0,              # criterion 12
    "_FINITE_BAND": 0.03,           # criterion 12
    "_BULK_LOG_FACTOR": 5.0,        # the bulk check
    "_DEGRADE_LAMBDA": 0.9,         # the bulk check
    "_ODE_TOL": 1e-12,              # criteria 4 to 7, 9 and 10
}


def test_gates_at_stated_tolerances():
    # a loosened (or tightened) gate constant fails here, not silently
    assert {name: getattr(verify, name) for name in _STATED_GATES} == _STATED_GATES


def test_zz_summary():
    print("\n" + "=" * 72)
    for line in _LINES:
        print(line)
    print("=" * 72)
    assert len(_LINES) == 12
