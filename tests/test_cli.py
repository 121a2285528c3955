import cmath
import csv
import inspect
import json
import math

import pytest

from edgejump import verify
from edgejump.cli import main
from edgejump.report import CSV_HEADER, Report
from edgejump.util import beta_from_kappa, kappa_from_beta


def _read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_header_schema(tmp_path):
    out = tmp_path / "rows.csv"
    code = main(["fredholm", "--kappa", "0.5", "--t-min", "-2", "--t", "0",
                 "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        header = fh.readline().strip()
    assert header == ",".join(CSV_HEADER)


def test_hankel_dump_gaussian_value(tmp_path):
    out = tmp_path / "h.csv"
    assert main(["hankel", "--n", "2", "--beta", "0", "--out", str(out)]) == 0
    rows = [r for r in _read_rows(out) if r["label"] == "opsystem-logH" and r["n"] == "2"]
    assert len(rows) == 1
    assert math.exp(float(rows[0]["finite_re"])) == pytest.approx(math.pi / 2, rel=1e-12)


def test_hankel_dump_has_no_inf(tmp_path):
    # H_k passes double range at k = 32 here; the dump holds its log
    out = tmp_path / "h.csv"
    assert main(["hankel", "--n", "40", "--beta", "0", "--lambda0", "0.3",
                 "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert {r["label"] for r in rows} == {"opsystem-logH", "opsystem-logh",
                                          "opsystem-Q", "opsystem-R"}
    values = [float(v) for r in rows for v in (r["finite_re"], r["finite_im"])]
    assert len(values) == 2 * len(rows) and all(map(math.isfinite, values))


def test_verify_finite_n_identity_documented_invocation(tmp_path):
    out = tmp_path / "fni.csv"
    code = main(["verify", "finite-n-identity", "--n", "12", "--beta-im", "0.4",
                 "--lambda0", "0.5", "--bits", "384", "--out", str(out)])
    assert code == 0
    rows = _read_rows(out)
    assert rows and all(r["verdict"] == "PASS" for r in rows)
    assert all(float(r["abs_res"]) <= 1e-18 for r in rows)
    summary = json.loads(open(str(out) + ".summary.json").read())
    assert summary["all_passed"] is True


def test_verify_tw_identity_documented_invocation(tmp_path):
    out = tmp_path / "tw.csv"
    code = main(["verify", "tw-identity", "--kappa", "0.7", "--t-min", "-8",
                 "--tol", "1e-10", "--out", str(out)])
    assert code == 0
    rows = _read_rows(out)
    assert max(float(r["abs_res"]) for r in rows) <= 1e-8


def test_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["painleve", "--kappa", "0.4", "--t-min", "-6",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_timestamp_flag_adds_header_line(tmp_path):
    out = tmp_path / "t.csv"
    main(["fredholm", "--kappa", "0.3", "--t-min", "0", "--t", "1",
          "--out", str(out), "--timestamp"])
    first = open(out).readline()
    assert first.startswith("# generated ")


def test_invalid_config_exits_2(tmp_path, capsys):
    assert main(["verify", "tw-identity", "--beta", "0.1", "--kappa", "0.5"]) == 2
    assert main(["hankel", "--n", "5,3", "--beta", "0"]) == 2
    assert main(["painleve"]) == 2  # neither beta nor kappa
    for kappa in ("1", "-1"):  # no beta on the jump relation's branch
        assert main(["verify", "thm1.2", "--kappa", kappa]) == 2
    assert main(["hankel", "--n", "x", "--beta", "0"]) == 2
    assert main(["hankel", "--n", "4", "--beta", "0", "--bits", "10"]) == 2
    assert main(["fredholm", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    for text in ('{"kappa": 0.3,', "[0.3]", '{"kappa": "abc"}', '{"kappa": [0.3]}',
                 '{"kappa": 0.3, "t": "x"}', '{"beta": 0, "n": "4,x"}',
                 '{"beta": 0, "n": 4, "bits": "many"}', '{"kappa": 0.3, "format": "xml"}',
                 '{"kappa": 0.3, "t": NaN}', '{"kappa": 0.3, "tol": -1e-10}',
                 '{"beta": 0, "n": "3", "lamda0": 0.5}'):
        bad.write_text(text)
        command = "hankel" if '"n"' in text else "fredholm"
        assert main([command, "--config", str(bad)]) == 2, text
    err = capsys.readouterr().err
    assert "unknown config key(s)" in err and "'lamda0'" in err
    # a float flag must be finite and tol positive: none of these may run
    # (nan or inf once gave tracebacks, a [PASS] dump or a phantom pole)
    for argv in (["painleve", "--kappa", "0.5", "--t-min", "nan"],
                 ["painleve", "--kappa", "0.5", "--tol", "nan"],
                 ["painleve", "--kappa", "0.5", "--tol", "0"],
                 ["painleve", "--kappa", "inf"],
                 ["hankel", "--n", "4", "--beta", "0", "--lambda0", "nan"],
                 ["hankel", "--n", "4", "--beta", "0", "--t", "inf"],
                 ["hankel", "--n", "4", "--beta-im", "nan"],
                 ["verify", "thm1.5", "--t", "nan"],
                 ["verify", "tw-identity", "--kappa", "0.7", "--tol", "-0.5"],
                 ["fredholm", "--kappa", "0.5", "--t", "inf"],
                 ["mc", "gue", "--lambda0", "nan"]):
        assert main(argv) == 2, argv
    assert "t_min must be finite, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["noncrit", "thm1.4", "thm1.5", "thm1.2"])
def test_trend_check_with_one_rung_exits_2(name, capsys):
    assert verify.CHECKS[name].min_ns == 2
    assert main(["verify", name, "--n", "30"]) == 2
    assert "need at least 2 values in --n" in capsys.readouterr().err


def test_negative_node_count_exits_2():
    assert main(["fredholm", "--kappa", "0.5", "--nodes", "-3"]) == 2


def test_fredholm_dump_det_is_exp_logdet(tmp_path):
    out = tmp_path / "f.csv"
    assert main(["fredholm", "--kappa", "0.7", "--t-min", "-3", "--t", "1",
                 "--tol", "1e-10", "--nodes", "16", "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert [float(r["t"]) for r in rows] == [-3.0, -2.5, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0]
    for r in rows:
        det = complex(float(r["finite_re"]), float(r["finite_im"]))
        logdet = complex(float(r["asym_re"]), float(r["asym_im"]))
        assert det == pytest.approx(cmath.exp(logdet), rel=1e-15)
    assert float(rows[0]["finite_re"]) == pytest.approx(0.504725123071, abs=1e-11)


def test_fredholm_dump_has_no_residuals(tmp_path):
    # det and log det side by side are no value and prediction: with
    # residuals filled, rel_res read 1.1e56 at t = 20
    out = tmp_path / "f.csv"
    assert main(["fredholm", "--kappa", "0.5", "--t-min", "19", "--t", "20",
                 "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert len(rows) == 3
    assert all(r["abs_res"] == "" and r["rel_res"] == "" for r in rows)
    assert all(r["finite_re"] and r["asym_re"] for r in rows)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kappa": 0.3, "t_min": -2.0, "t": 0.0}))
    out = tmp_path / "o.csv"
    assert main(["fredholm", "--config", str(cfg), "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert float(rows[0]["kappa_re"]) == pytest.approx(0.3)


def test_mc_plancherel_honours_trials(monkeypatch):
    # --trials runs as given; unset, the driver runs criterion 12's 800
    signature = inspect.signature(verify.check_mc_plancherel)
    trials = []

    def stub(**kwargs):
        bound = signature.bind(**kwargs)
        bound.apply_defaults()
        trials.append(bound.arguments["trials"])
        return Report("stub")

    monkeypatch.setattr(verify, "check_mc_plancherel", stub)
    assert main(["mc", "plancherel", "--trials", "6000"]) == 0
    assert main(["mc", "plancherel"]) == 0
    assert trials == [6000, 800]


def test_mc_gue_subcommand(tmp_path):
    out = tmp_path / "mc.csv"
    code = main(["mc", "gue", "--trials", "20000", "--seed", "77",
                 "--out", str(out)])
    assert code == 0


def test_too_few_trials_exits_2(capsys):
    # every Monte-Carlo estimator reports a ddof = 1 standard error
    for command in ("gue", "plancherel"):
        for trials in ("-5", "0", "1"):
            assert main(["mc", command, "--trials", trials]) == 2
    assert "need trials >= 2, got 1" in capsys.readouterr().err
    # two trials run, and fail on a standard error of 0 instead of raising
    assert main(["mc", "gue", "--trials", "2"]) == 1


def test_failing_check_exits_1(tmp_path):
    from edgejump.cli import _emit, RunConfig

    rep = Report("forced")
    rep.fail("synthetic")
    assert _emit([rep], RunConfig()) == 1


# Flag sets for ``edgejump verify <name>`` and ``edgejump mc <which>``: none,
# beta with every other option, and real or complex kappa with every other option.
_OTHER_FLAGS = ["--n", "12,24", "--t", "0.5", "--t-min", "-3", "--lambda0", "0.25",
                "--bits", "384", "--tol", "1e-10", "--trials", "40", "--seed", "77"]
VERIFY_FLAG_SETS = {
    "bare": [],
    "beta": ["--beta-im", "0.4", *_OTHER_FLAGS],
    "kappa": ["--kappa", "0.7", *_OTHER_FLAGS],
    "complex-kappa": ["--kappa", "0.7", "--kappa-im", "0.2", *_OTHER_FLAGS],
}
_NS = {"ns": (12, 24)}
# the one of beta and kappa not given is derived through the jump relation
_BETA = {"beta": 0.4j}
_BETA_K = {"beta": beta_from_kappa(0.7)}
_BETA_CK = {"beta": beta_from_kappa(0.7 + 0.2j)}


def _flagged(driver, given):
    """One call that takes ``given`` under every flag set but the bare one (none: ``{}``)."""
    return [(driver, {"bare": {}, **dict.fromkeys(("beta", "kappa", "complex-kappa"), given)})]


# command -> its driver calls in order: (driver attribute of edgejump.verify,
# keywords per flag set); a bare trend check runs its criterion's ladder
VERIFY_MAPPING = {
    "thm1.2": [("check_edge_hankel", {
        "bare": {"ns": (20, 40, 80, 160, 320, 640)}, "beta": {**_BETA, **_NS, "ts": (0.5,)},
        "kappa": {**_BETA_K, **_NS, "ts": (0.5,)},
        "complex-kappa": {**_BETA_CK, **_NS, "ts": (0.5,)}})],
    "thm1.4": [("check_recurrence_asymptotics", {
        "bare": {"ns": (256, 512, 1024, 2048)}, "beta": {**_BETA, **_NS},
        "kappa": {**_BETA_K, **_NS}, "complex-kappa": {**_BETA_CK, **_NS}})],
    "thm1.5": [("check_polynomial_asymptote", {
        "bare": {"ns": (64, 128, 256, 512, 1024, 2048)}, "beta": {**_BETA, **_NS, "t": 0.5},
        "kappa": {**_BETA_K, **_NS, "t": 0.5}, "complex-kappa": {**_BETA_CK, **_NS, "t": 0.5}})],
    "noncrit": [("check_bulk_hankel", {
        "bare": {}, "beta": {**_BETA, **_NS}, "kappa": {**_BETA_K, **_NS},
        "complex-kappa": {**_BETA_CK, **_NS}})],
    "conj1.3": [("check_airy_tail", {
        "bare": {}, "beta": _BETA, "kappa": _BETA_K, "complex-kappa": _BETA_CK})],
    "tw-identity": [("check_tw_identity", {
        "bare": {}, "beta": {"tol": 1e-10, "kappas": (kappa_from_beta(0.4j),), "t_lo": -3.0},
        "kappa": {"tol": 1e-10, "kappas": (0.7,), "t_lo": -3.0},
        "complex-kappa": {"tol": 1e-10, "kappas": (0.7 + 0.2j,), "t_lo": -3.0}})],
    "finite-n-identity": [("check_finite_n_identity", {
        "bare": {},
        "beta": {**_NS, "betas": (0.4j,), "lambda0s": (0.25,), "bits": 384},
        "kappa": {**_NS, "betas": (beta_from_kappa(0.7),), "lambda0s": (0.25,), "bits": 384},
        "complex-kappa": {**_NS, "betas": (beta_from_kappa(0.7 + 0.2j),),
                          "lambda0s": (0.25,), "bits": 384}})],
    "diff-identity": _flagged("check_exact_identities", {}),
    "qn-identity": _flagged("check_exact_identities", {}),
    "exact-identities": _flagged("check_exact_identities", {}),
    "thm1.6": _flagged("check_singular_regime", {}),
    "closed-form": _flagged("check_gaussian_closed_form", {}),
    "pii": _flagged("check_pii_solution", {}),
    "pole-free": _flagged("check_pole_freeness", {}),
    # --n (its first value) and --lambda0 reach the gap call only; seed S
    # gives masters S and S + 1
    "mc gue": [*_flagged("check_mc_gue", {"n": 12, "lambda0": 0.25, "trials": 40,
                                          "master": 77}),
               *_flagged("check_mc_thinning", {"trials": 40, "master": 78})],
    "mc plancherel": _flagged("check_mc_plancherel", {"N": 12, "trials": 40, "master": 77}),
}
VERIFY_MAPPING["mc-gue"] = VERIFY_MAPPING["mc gue"]
VERIFY_MAPPING["mc-plancherel"] = VERIFY_MAPPING["mc plancherel"]


@pytest.mark.parametrize("name", VERIFY_MAPPING)
def test_verify_passes_flags_to_its_driver(name, monkeypatch):
    calls = []
    for driver, _ in VERIFY_MAPPING[name]:
        def stub(driver=driver, **kwargs):
            calls.append((driver, kwargs))
            return Report("stub")
        monkeypatch.setattr(verify, driver, stub)
    command = name.split() if " " in name else ["verify", name]
    for flag_set, argv in VERIFY_FLAG_SETS.items():
        calls.clear()
        assert main([*command, *argv]) == 0
        # repr tells a float from a complex and an int from a float
        got = [(driver, sorted((k, repr(v)) for k, v in kwargs.items()))
               for driver, kwargs in calls]
        want = [(driver, sorted((k, repr(v)) for k, v in expected[flag_set].items()))
                for driver, expected in VERIFY_MAPPING[name]]
        assert got == want, flag_set
