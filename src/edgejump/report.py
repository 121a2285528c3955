"""Tagged comparison rows, their verdicts and their CSV/JSON serialization.

One row records a finite-size value against its asymptotic prediction plus
residuals, an optional empirical convergence order, and a PASS/FAIL verdict.
A :class:`Report` sets every verdict: :meth:`Report.add` judges one row,
:meth:`Report.judge` a gate over several.  Complex values are always split
re/im in serialized output.  Output is deterministic given the inputs; the
optional timestamp header line can be suppressed for byte-identical reruns.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone

#: Complex fields, written as a ``_re`` and an ``_im`` column.
_COMPLEX_FIELDS = ("beta", "kappa", "finite", "asym")


@dataclass
class ReportRow:
    label: str
    n: int | None = None
    t: float | None = None
    lambda0: float | None = None
    beta: complex | None = None
    kappa: complex | None = None
    finite: complex | None = None
    asym: complex | None = None
    abs_res: float | None = None
    rel_res: float | None = None
    order_est: float | None = None
    verdict: str = ""

    def finish(self, residuals: bool = True) -> "ReportRow":
        """Fill the residuals a driver left unset from ``finite`` and ``asym``.

        A residual the driver set is kept.  A driver that sets ``abs_res``
        has chosen its residual, so no ``rel_res`` is derived then.
        ``residuals=False`` leaves them empty: ``finite`` and ``asym`` then
        hold two values side by side, not a value and its prediction.
        """
        self.finite = None if self.finite is None else complex(self.finite)
        self.asym = None if self.asym is None else complex(self.asym)
        if (residuals and self.abs_res is None and self.finite is not None
                and self.asym is not None):
            try:
                self.abs_res = abs(self.finite - self.asym)
                if self.rel_res is None:
                    scale = abs(self.asym) or abs(self.finite)
                    self.rel_res = self.abs_res / scale if scale else math.inf
            except OverflowError:  # |.| of a complex past double range
                pass
        return self

    def sort_key(self):
        def k(x):
            return (x is None, x if x is not None else 0)
        b = complex(self.beta) if self.beta is not None else None
        return (self.label, k(self.n), k(self.t), k(self.lambda0),
                k(b.real if b else None), k(b.imag if b else None))

    def as_record(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name in _COMPLEX_FIELDS:
                v = None if v is None else complex(v)
                out[f.name + "_re"] = None if v is None else v.real
                out[f.name + "_im"] = None if v is None else v.imag
            else:
                out[f.name] = v
        return out


CSV_HEADER = list(ReportRow(label="").as_record())


@dataclass
class Report:
    """A verdicted collection of rows for one verification run.

    A dump (``compares=False``) lists computed values without predictions,
    so its rows get no residuals.  Verdicts come from :meth:`add` and
    :meth:`judge`; :meth:`fail` is the primitive behind them.
    """

    name: str
    rows: list = field(default_factory=list)
    passed: bool = True
    detail: str = ""
    compares: bool = True

    def add(self, row: ReportRow, ok=None, why: str | None = None):
        """Append ``row``; a given ``ok`` sets its verdict, and a false one with ``why`` fails."""
        if ok is not None:
            self.judge(ok, why, (row,))
        self.rows.append(row.finish(self.compares))

    def judge(self, ok, why: str | None, rows=()):
        """Give ``rows`` the verdict of ``ok``; a false ``ok`` fails the report with ``why``.

        A ``why`` of None judges the rows only: the gate is judged elsewhere.
        """
        for row in rows:
            row.verdict = "PASS" if ok else "FAIL"
        if not ok and why is not None:
            self.fail(why)

    def fail(self, detail: str):
        self.passed = False
        self.detail = (self.detail + "; " + detail).strip("; ")

    def note(self, detail: str):
        """Attach diagnostic text without failing the check."""
        self.detail = (self.detail + "; " + detail).strip("; ")

    def sorted_rows(self):
        return sorted(self.rows, key=ReportRow.sort_key)


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):  # a numpy.float64 too, which reprs as np.float64(...)
        return repr(float(v))
    return str(v)


def rows_to_csv(rows, timestamp: bool = False) -> str:
    buf = io.StringIO()
    if timestamp:
        buf.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in rows:
        rec = r.as_record()
        w.writerow([_fmt(rec[k]) for k in CSV_HEADER])
    return buf.getvalue()


def write_report(reports, path, fmt: str = "csv", timestamp: bool = False) -> None:
    """Serialize reports: rows in the chosen format plus a JSON summary.

    ``path`` is the row file; the machine-readable PASS/FAIL summary goes to
    ``path`` with a ``.summary.json`` suffix appended, each check's with the
    sha256 ``digest`` of its entry and the repr of its row records.
    """
    reports = list(reports)
    all_rows = [r for rep in reports for r in rep.sorted_rows()]
    if fmt == "csv":
        payload = rows_to_csv(all_rows, timestamp=timestamp)
    elif fmt == "json":
        payload = json.dumps([r.as_record() for r in all_rows], indent=1)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(payload)
    import hashlib  # here, so that importing the package loads no module for it
    checks = [{"name": rep.name, "passed": rep.passed, "detail": rep.detail} for rep in reports]
    for check, rep in zip(checks, reports):
        records = repr([r.as_record() for r in rep.sorted_rows()])
        check["digest"] = hashlib.sha256((repr(check) + records).encode()).hexdigest()
    summary = {"checks": checks, "all_passed": all(rep.passed for rep in reports)}
    with open(str(path) + ".summary.json", "w") as fh:
        json.dump(summary, fh, indent=1)
