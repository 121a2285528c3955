import cmath
import csv
import functools
import inspect
import json
import math
import os
import re

import pytest

from edgejump import cli, verify
from edgejump.cli import main
from edgejump.report import CSV_HEADER, Report, ReportRow, rows_to_csv, write_report
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


def test_hankel_dump_judges_its_checked_build():
    # at beta = 1/2 and lambda0 = 0 the weight is odd: mu_0 = H_1 = 0, and
    # rounding leaves mu_0 ~ 1e-65, so the doubled build agrees to 0 digits
    assert main(["hankel", "--n", "4", "--beta", "0.5", "--lambda0", "0"]) == 1
    assert main(["hankel", "--n", "4", "--beta", "0.3", "--lambda0", "0"]) == 0


def test_verify_pii_csv_parses(tmp_path):
    # criterion 4's linearization residual was a numpy scalar, written as np.float64(...)
    out = tmp_path / "pii.csv"
    assert main(["verify", "pii", "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert len(rows) == 2
    for row in rows:
        for key, value in row.items():
            if key not in ("label", "verdict") and value:
                float(value)


def test_csv_writes_a_numpy_scalar_as_a_float():
    import numpy as np
    text = rows_to_csv([ReportRow(label="x", abs_res=np.float64(0.25))])
    assert text.splitlines()[1].split(",")[CSV_HEADER.index("abs_res")] == "0.25"


def _summary(tmp_path, reports):
    out = tmp_path / "r.csv"
    write_report(reports, out)
    return json.loads(open(str(out) + ".summary.json").read())


def test_summary_schema(tmp_path):
    rep = Report("a-check")
    rep.add(ReportRow(label="x", n=1, finite=1.0, asym=1.0), True)
    summary = _summary(tmp_path, [rep])
    assert list(summary) == ["checks", "all_passed"] and summary["all_passed"] is True
    [check] = summary["checks"]
    assert list(check) == ["name", "passed", "detail", "digest"]
    assert check["name"] == "a-check" and check["passed"] is True and check["detail"] == ""
    assert re.fullmatch("[0-9a-f]{64}", check["digest"])


def test_digest_follows_one_row(tmp_path):
    def report(last):
        rep = Report("a-check")
        for value in (1.0, 2.0, last):
            rep.add(ReportRow(label="x", n=int(value), finite=value, asym=1.0), True)
        return rep

    digests = [_summary(tmp_path, [report(v)])["checks"][0]["digest"] for v in (3.0, 3.0, 3.5)]
    assert digests[0] == digests[1] != digests[2]


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
        command = ("hankel" if '"n"' in text else "painleve" if '"tol"' in text
                   else "fredholm")
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
    # hankel cuts at lambda0 or at the edge cut at t, not both; a driver that
    # takes one n takes one value of --n; a config key is a flag the command reads
    assert main(["hankel", "--n", "4", "--beta", "0", "--t", "0", "--lambda0", "5"]) == 2
    assert main(["mc", "gue", "--n", "12,24"]) == 2
    bad.write_text('{"kappa": 0.3, "tol": 1e-10}')
    assert main(["fredholm", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "give t or lambda0, not both" in err
    assert "--n sets one n here, got 2 values" in err
    assert "unknown config key(s)" in err and "'tol'" in err


@pytest.mark.parametrize("name", ["noncrit", "thm1.4", "thm1.5", "thm1.2"])
def test_trend_check_with_one_rung_exits_2(name, capsys):
    assert verify.CHECKS[name].min_ns == 2
    assert main(["verify", name, "--n", "30"]) == 2
    assert "need at least 2 values in --n" in capsys.readouterr().err


@pytest.mark.parametrize("argv, why", [
    (["painleve", "--kappa", "0.5", "--t-min", "-70"], "outside the validated window"),
    (["verify", "tw-identity", "--t-min", "-70"], "outside the validated window"),
    (["verify", "thm1.2", "--n", "20,40", "--t", "40"], "not below the start point"),
    (["fredholm", "--kappa", "0.5", "--t-min", "5", "--t", "4"], "need at least one t"),
])
def test_value_outside_the_library_domain_exits_2(argv, why, capsys):
    # these once exited 1, the status of a failed check, with a traceback;
    # each reaches a library guard that raises DomainError
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and why in err and "Traceback" not in err


def test_a_plain_value_error_from_a_driver_is_no_exit_2(monkeypatch):
    # a ValueError that is no DomainError is a defect inside the library: it
    # surfaces with its traceback, not as a configuration error
    @functools.wraps(verify.check_tw_identity)  # a command's flags come from its signature
    def driver(**kwargs):
        raise ValueError("raised inside the driver")

    monkeypatch.setattr(verify, "check_tw_identity", driver)
    with pytest.raises(ValueError, match="raised inside the driver"):
        main(["verify", "tw-identity"])


def test_order_fit_reads_a_non_doubling_ladder():
    # fitted as if n doubled per rung, this ladder read 0.686 and failed
    assert main(["verify", "thm1.5", "--n", "64,256,1024"]) == 0


def test_negative_node_count_exits_2():
    assert main(["fredholm", "--kappa", "0.5", "--nodes", "-3"]) == 2


def test_fredholm_dump_defaults_to_the_library_node_count(tmp_path):
    # --nodes 0 and an unset --nodes both run fredholm's own default
    default = inspect.signature(cli.fredholm.airy_fredholm_logdet).parameters["nodes"].default
    outs = [tmp_path / f"{i}.csv" for i in range(3)]
    for out, extra in zip(outs, ([], ["--nodes", "0"], ["--nodes", str(default)])):
        assert main(["fredholm", "--kappa", "0.5", "--t-min", "-1", "--t", "0",
                     *extra, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_fredholm_dump_det_is_exp_logdet(tmp_path):
    out = tmp_path / "f.csv"
    assert main(["fredholm", "--kappa", "0.7", "--t-min", "-3", "--t", "1",
                 "--nodes", "16", "--out", str(out)]) == 0
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
    assert main(["fredholm", "--config", str(cfg), "--t", "1", "--out", str(out)]) == 0
    assert float(_read_rows(out)[-1]["t"]) == 1.0


@pytest.mark.parametrize("config, argv, want", [
    ({"n": "4", "lambda0": 5}, ["--t", "0"], ["--beta", "0", "--t", "0"]),
    ({"n": "4", "t": 0}, ["--lambda0", "5"], ["--beta", "0", "--lambda0", "5"]),
    ({"n": "4", "kappa_im": 0.3}, ["--beta", "0.1"], ["--beta", "0.1"]),
    ({"n": "4", "beta": 0.1, "lambda0": 5}, ["--kappa", "0.3"], ["--kappa", "0.3", "--lambda0", "5"]),
])
def test_command_line_flag_overrides_its_config_rival(config, argv, want, tmp_path):
    # flags given on the command line override the config file, rivals too:
    # --t drops the file's lambda0 (and --lambda0 its t), --beta its kappa
    cfg, got, ref = tmp_path / "cfg.json", tmp_path / "got.csv", tmp_path / "ref.csv"
    cfg.write_text(json.dumps({"beta": 0, **config}))
    assert main(["hankel", "--config", str(cfg), *argv, "--out", str(got)]) == 0
    assert main(["hankel", "--n", "4", *want, "--out", str(ref)]) == 0
    assert got.read_bytes() == ref.read_bytes()
    cfg.write_text(json.dumps({"n": "4", "beta": 0, "t": 0, "lambda0": 5}))
    assert main(["hankel", "--config", str(cfg)]) == 2  # both in one file


@pytest.mark.parametrize("key, raw", [
    ("timestamp", "false"), ("timestamp", 0), ("nodes", 2.5), ("nodes", True),
    ("nodes", "12"), ("t", True), ("t", "1"), ("t_min", False), ("format", True),
])
def test_config_value_must_have_its_flag_type(key, raw, tmp_path, capsys):
    # a config value has its flag's JSON type: "false" once turned the
    # timestamp on, 2.5 nodes read 2, true read 1 node and t = 1.0
    cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
    cfg.write_text(json.dumps({"kappa": 0.3, "t_min": 0, "t": 1, key: raw}))
    assert main(["fredholm", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{key} must be " in capsys.readouterr().err
    assert not out.exists()


def test_config_values_of_their_flag_type_run(tmp_path, monkeypatch):
    # true and false set a bool flag; an integer is a number for a float flag
    cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
    for timestamp in (False, True):
        cfg.write_text(json.dumps({"kappa": 0.3, "t_min": 0, "t": 1, "timestamp": timestamp}))
        assert main(["fredholm", "--config", str(cfg), "--out", str(out)]) == 0
        assert open(out).readline().startswith("# generated ") == timestamp
    calls = []
    monkeypatch.setattr(verify, "check_tw_identity", _recording("check_tw_identity", calls))
    cfg.write_text(json.dumps({"kappa": 0.7, "t_min": -3, "tol": 1e-10}))
    assert main(["verify", "tw-identity", "--config", str(cfg)]) == 0
    assert repr(calls[0][1]["t_min"]) == "-3.0"


def test_config_n_as_a_json_list(tmp_path, monkeypatch, capsys):
    # a list of integers is an n-list, as the comma string is, under the same checks
    cfg = tmp_path / "cfg.json"
    calls = []
    monkeypatch.setattr(verify, "check_edge_hankel", _recording("check_edge_hankel", calls))
    for n in ([12, 24], "12,24"):
        cfg.write_text(json.dumps({"beta": 0, "n": n}))
        assert main(["verify", "thm1.2", "--config", str(cfg)]) == 0
    assert [kwargs["ns"] for _, kwargs in calls] == [(12, 24), (12, 24)]
    outs = [tmp_path / "list.csv", tmp_path / "int.csv", tmp_path / "line.csv"]
    for out, n in zip(outs, ([4], 4)):
        cfg.write_text(json.dumps({"beta": 0, "n": n}))
        assert main(["hankel", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["hankel", "--beta", "0", "--n", "4", "--out", str(outs[2])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    for n in ([24, 12], [12, 12], [0, 4], [], [12, "24"], [12.0], [True], {"n": 4}, 4.0):
        cfg.write_text(json.dumps({"beta": 0, "n": n}))
        assert main(["verify", "thm1.2", "--config", str(cfg)]) == 2, n
    assert "n-list must be positive strictly increasing integers" in capsys.readouterr().err
    cfg.write_text(json.dumps({"n": [12, 24]}))
    assert main(["mc", "gue", "--config", str(cfg)]) == 2  # the gap call takes one n


def test_mc_plancherel_honours_trials(monkeypatch):
    # --trials runs as given; unset, the driver runs criterion 12's 800
    signature = inspect.signature(verify.check_mc_plancherel)
    trials = []

    @functools.wraps(verify.check_mc_plancherel)  # a command's flags come from its signature
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
    rep = Report("forced")
    rep.fail("synthetic")
    assert cli._emit([rep]) == 1


@pytest.mark.parametrize("passed", [True, False])
def test_closed_pipe_keeps_the_verdict(passed, tmp_path, monkeypatch, capsys):
    # a reader that has gone (``| head``) makes a write raise BrokenPipeError:
    # the exit status is still the verdict, and no traceback is printed
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

        def flush(self):
            raise BrokenPipeError

        def fileno(self):
            return fd

    rep = Report("forced")
    if not passed:
        rep.fail("synthetic")
    stub = functools.wraps(verify.check_gaussian_closed_form)(lambda **kwargs: rep)
    monkeypatch.setattr(verify, "check_gaussian_closed_form", stub)
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert main(["verify", "closed-form"]) == (0 if passed else 1)
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


def _recording(driver, calls):
    """A stand-in for ``verify.<driver>``, with its signature, that records its keywords."""
    @functools.wraps(getattr(verify, driver))
    def stub(**kwargs):
        calls.append((driver, kwargs))
        return Report("stub")
    return stub


#: A value for every option flag of the vocabulary (--n: one n for ``mc``).
_VALUES = {"--beta": "0.1", "--beta-im": "0.4", "--kappa": "0.7", "--kappa-im": "0.2",
           "--n": "12,24", "--t": "0.5", "--t-min": "-3", "--lambda0": "0.25",
           "--bits": "384", "--tol": "1e-10", "--nodes": "16", "--trials": "40",
           "--seed": "77"}
_JUMP = {"--beta", "--beta-im", "--kappa", "--kappa-im"}
#: The flags each command reads, besides --out, --format, --timestamp and --config.
ACCEPTED = {
    "closed-form": {"--n"},
    "finite-n-identity": {*_JUMP, "--n", "--lambda0", "--bits"},
    "tw-identity": {*_JUMP, "--t-min", "--tol"},
    "pii": set(),
    "thm1.4": {*_JUMP, "--n", "--t"},
    "thm1.5": {*_JUMP, "--n", "--t"},
    "thm1.2": {*_JUMP, "--n", "--t"},
    "conj1.3": _JUMP,
    "thm1.6": set(),
    "pole-free": set(),
    "exact-identities": set(),
    "diff-identity": set(),
    "qn-identity": set(),
    "mc gue": {"--n", "--lambda0", "--trials", "--seed"},
    "mc plancherel": {"--n", "--t", "--trials", "--seed"},
    "noncrit": {*_JUMP, "--n"},
}
ACCEPTED["mc-gue"] = ACCEPTED["mc gue"]
ACCEPTED["mc-plancherel"] = ACCEPTED["mc plancherel"]
#: The dumps: each takes the flags its function reads.
DUMPS = {
    "hankel": {*_JUMP, "--n", "--t", "--lambda0", "--bits"},
    "painleve": {*_JUMP, "--t-min", "--tol"},
    "fredholm": {*_JUMP, "--t-min", "--t", "--nodes"},
}


def _help_flags(command, capsys) -> set:
    """The flags ``edgejump <command> --help`` lists, but the output ones and --config."""
    with pytest.raises(SystemExit):
        main([*command, "--help"])
    listed = set(re.findall(r"(--[a-z][a-z0-9-]*)", capsys.readouterr().out))
    return listed - {"--help", "--out", "--format", "--timestamp", "--config"}


def _refused(command, flag) -> bool:
    with pytest.raises(SystemExit) as exc:
        main([*command, flag, _VALUES[flag]])
    return exc.value.code == 2


def test_vocabulary_has_a_value_for_every_flag():
    assert set(_VALUES) == ({cli._dashed(flag) for flag in cli._FLAGS}
                            - {"--out", "--format", "--timestamp"})
    assert set(verify.CHECKS) | {"mc gue", "mc plancherel"} == set(ACCEPTED)


@pytest.mark.parametrize("name", ACCEPTED)
def test_verify_passes_flags_to_its_driver(name, monkeypatch, capsys):
    # a bare command calls its drivers with its criterion's sweep; every flag
    # it takes changes the keywords of one of its calls, its --help lists
    # exactly those, and every other flag exits 2
    command = name.split() if " " in name else ["verify", name]
    calls = []
    check = verify.CHECKS[name.replace(" ", "-")]
    for driver, _ in check.calls:
        monkeypatch.setattr(verify, driver, _recording(driver, calls))

    def run(*argv):
        calls.clear()
        assert main([*command, *argv]) == 0, argv
        return list(calls)

    bare = run()
    assert bare == [(driver, dict(sweep)) for driver, sweep in check.calls]
    assert _help_flags(command, capsys) == ACCEPTED[name]
    for flag, value in _VALUES.items():
        if flag not in ACCEPTED[name]:
            assert _refused(command, flag), flag
        else:
            value = "12" if flag == "--n" and "mc" in name else value
            assert run(flag, value) != bare, flag


@pytest.mark.parametrize("name", DUMPS)
def test_dump_takes_the_flags_its_function_reads(name, capsys):
    assert _help_flags([name], capsys) == DUMPS[name]
    for flag in set(_VALUES) - DUMPS[name]:
        assert _refused([name], flag), flag


def test_flag_values_reach_keywords(monkeypatch):
    # flag x sets x, or xs as a 1-tuple; --n sets ns as given or n as its only
    # value (the gap call's alone in mc gue); seed S is S + i at the i-th call;
    # the one of beta and kappa not given is derived from the other; --bits 0
    # is an unset --bits
    calls = []
    cases = [
        (["mc", "gue", "--n", "12", "--seed", "77", "--trials", "40"],
         [("check_mc_gue", {"n": 12, "seed": 77, "trials": 40}),
          ("check_mc_thinning", {"seed": 78, "trials": 40})]),
        (["mc", "plancherel", "--n", "12", "--t", "0.5", "--seed", "5"],
         [("check_mc_plancherel", {"n": 12, "ts": (0.5,), "seed": 5})]),
        (["verify", "thm1.2", "--kappa", "0.7", "--t", "0.5", "--n", "12,24"],
         [("check_edge_hankel", {"beta": beta_from_kappa(0.7), "ts": (0.5,), "ns": (12, 24)})]),
        (["verify", "tw-identity", "--beta-im", "0.4", "--t-min", "-3", "--tol", "1e-10"],
         [("check_tw_identity", {"kappas": (kappa_from_beta(0.4j),), "t_min": -3.0,
                                 "tol": 1e-10})]),
        (["verify", "finite-n-identity", "--kappa", "0.7", "--kappa-im", "0.2",
          "--lambda0", "0.25", "--n", "12", "--bits", "384"],
         [("check_finite_n_identity", {"betas": (beta_from_kappa(0.7 + 0.2j),),
                                       "lambda0s": (0.25,), "ns": (12,), "bits": 384})]),
        (["verify", "closed-form", "--n", "3,5"],
         [("check_gaussian_closed_form", {"ns": (3, 5)})]),
        (["verify", "finite-n-identity", "--n", "3", "--bits", "0"],
         [("check_finite_n_identity", {"ns": (3,)})]),
    ]
    for argv, want in cases:
        for driver, _ in want:
            monkeypatch.setattr(verify, driver, _recording(driver, calls))
        calls.clear()
        assert main(argv) == 0
        # repr tells a float from a complex and an int from a float
        assert ([(driver, sorted((k, repr(v)) for k, v in kwargs.items()))
                 for driver, kwargs in calls]
                == [(driver, sorted((k, repr(v)) for k, v in kwargs.items()))
                    for driver, kwargs in want]), argv
