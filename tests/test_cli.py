import csv
import json
import math

import pytest

from edgejump import verify
from edgejump.cli import main
from edgejump.report import CSV_HEADER, Report


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
    rows = [r for r in _read_rows(out) if r["label"] == "opsystem-H" and r["n"] == "2"]
    assert len(rows) == 1
    assert float(rows[0]["finite_re"]) == pytest.approx(math.pi / 2, rel=1e-12)


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


def test_invalid_config_exits_2(tmp_path):
    assert main(["verify", "tw-identity", "--beta", "0.1", "--kappa", "0.5"]) == 2
    assert main(["hankel", "--n", "5,3", "--beta", "0"]) == 2
    assert main(["painleve"]) == 2  # neither beta nor kappa
    assert main(["hankel", "--n", "x", "--beta", "0"]) == 2
    assert main(["hankel", "--n", "4", "--beta", "0", "--bits", "10"]) == 2
    assert main(["fredholm", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    for text in ('{"kappa": 0.3,', "[0.3]", '{"kappa": "abc"}', '{"kappa": [0.3]}',
                 '{"kappa": 0.3, "t": "x"}', '{"beta": 0, "n": "4,x"}',
                 '{"beta": 0, "n": 4, "bits": "many"}', '{"kappa": 0.3, "format": "xml"}'):
        bad.write_text(text)
        command = "hankel" if '"n"' in text else "fredholm"
        assert main([command, "--config", str(bad)]) == 2, text


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kappa": 0.3, "t_min": -2.0, "t": 0.0}))
    out = tmp_path / "o.csv"
    assert main(["fredholm", "--config", str(cfg), "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert float(rows[0]["kappa_re"]) == pytest.approx(0.3)


def test_mc_gue_subcommand(tmp_path):
    out = tmp_path / "mc.csv"
    code = main(["mc", "gue", "--trials", "20000", "--seed", "77",
                 "--out", str(out)])
    assert code == 0


def test_failing_check_exits_1(tmp_path):
    from edgejump.cli import _emit, RunConfig

    rep = Report("forced")
    rep.fail("synthetic")
    assert _emit([rep], RunConfig()) == 1


# Flag sets for ``edgejump verify <name>``: none, beta with every other
# option, and real or complex kappa with every other option.
_OTHER_FLAGS = ["--n", "12,24", "--t", "0.5", "--t-min", "-3", "--lambda0", "0.25",
                "--bits", "384", "--tol", "1e-10"]
VERIFY_FLAG_SETS = {
    "bare": [],
    "beta": ["--beta-im", "0.4", *_OTHER_FLAGS],
    "kappa": ["--kappa", "0.7", *_OTHER_FLAGS],
    "complex-kappa": ["--kappa", "0.7", "--kappa-im", "0.2", *_OTHER_FLAGS],
}
_NS = {"ns": (12, 24)}
_BETA = {"beta": 0.4j}
# name -> (driver attribute of edgejump.verify, keywords per flag set)
VERIFY_MAPPING = {
    "thm1.2": ("check_edge_hankel", {
        "bare": {}, "beta": {**_BETA, **_NS, "ts": (0.5,)},
        "kappa": {**_NS, "ts": (0.5,)}, "complex-kappa": {**_NS, "ts": (0.5,)}}),
    "thm1.4": ("check_recurrence_asymptotics", {
        "bare": {}, "beta": {**_BETA, **_NS}, "kappa": _NS, "complex-kappa": _NS}),
    "thm1.5": ("check_polynomial_asymptote", {
        "bare": {}, "beta": {**_BETA, **_NS, "t": 0.5},
        "kappa": {**_NS, "t": 0.5}, "complex-kappa": {**_NS, "t": 0.5}}),
    "noncrit": ("check_bulk_hankel", {
        "bare": {}, "beta": {**_BETA, **_NS}, "kappa": _NS, "complex-kappa": _NS}),
    "conj1.3": ("check_airy_tail", {
        "bare": {}, "beta": _BETA, "kappa": {}, "complex-kappa": {}}),
    "tw-identity": ("check_tw_identity", {
        "bare": {"tol": 1e-12}, "beta": {"tol": 1e-10, "t_lo": -3.0},
        "kappa": {"tol": 1e-10, "kappas": (0.7,), "t_lo": -3.0},
        "complex-kappa": {"tol": 1e-10, "kappas": (0.7 + 0.2j,), "t_lo": -3.0}}),
    "finite-n-identity": ("check_finite_n_identity", {
        "bare": {},
        "beta": {**_NS, "betas": (0.4j,), "lambda0s": (0.25,), "bits": 384},
        "kappa": {**_NS, "lambda0s": (0.25,), "bits": 384},
        "complex-kappa": {**_NS, "lambda0s": (0.25,), "bits": 384}}),
    "diff-identity": ("check_exact_identities", dict.fromkeys(VERIFY_FLAG_SETS, {})),
    "qn-identity": ("check_exact_identities", dict.fromkeys(VERIFY_FLAG_SETS, {})),
    "thm1.6": ("check_singular_regime", dict.fromkeys(VERIFY_FLAG_SETS, {})),
}


@pytest.mark.parametrize("name", VERIFY_MAPPING)
def test_verify_passes_flags_to_its_driver(name, monkeypatch):
    driver, expected = VERIFY_MAPPING[name]
    calls = []

    def stub(**kwargs):
        calls.append(kwargs)
        return Report("stub")

    monkeypatch.setattr(verify, driver, stub)
    for flag_set, argv in VERIFY_FLAG_SETS.items():
        calls.clear()
        assert main(["verify", name, *argv]) == 0
        assert len(calls) == 1
        # repr tells a float from a complex and an int from a float
        got = sorted((k, repr(v)) for k, v in calls[0].items())
        want = sorted((k, repr(v)) for k, v in expected[flag_set].items())
        assert got == want, flag_set
