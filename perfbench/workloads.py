"""The benchmark's workloads and the checks on their outputs.

Each workload runs single-process (``n_jobs=1``) and calls only public
``robustvario`` functions.  ``run_op(index)`` performs one timed operation
and returns an :class:`Op`; ``check(ops)`` returns the output problems found
across the run's operations (an empty list means correct).  See README.md
for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_CSV = BENCH_DIR / "reference" / "estimate_ndvi_seed0.csv"

# MCD rows may differ from the seed-0 reference by this relative amount: other
# seeds draw other MCD start subsets, which moved rows by well under 1% in the
# seeds tried, while a broken estimator is off by far more.
MCD_REL_TOL = 0.05
# Matheron and Genton do not depend on the seed and must equal the reference
# up to rounding.
EXACT_REL_TOL = 1e-12

PAPER_MODEL = "spherical:5:2:1.1780972450961724:2"


@dataclass
class Op:
    units: int  # estimate calls or replications done by this operation
    attempted: int  # estimates attempted: (estimator, direction, replication)
    failed: int
    output: object = None  # None when the operation failed as a whole
    error: str | None = None
    failure_classes: list[str] = field(default_factory=list)


class EstimateNdvi:
    """``robustvario estimate`` on the committed 60x60 fixture with its
    quality mask and the CLI defaults, called in-process."""

    name = "estimate_ndvi"
    root_layer = "cli"
    min_ops = 2  # the determinism check compares repetitions

    def __init__(self, rv, root: Path, seed: int, tiny: bool):
        self.rv = rv
        self.grid = root / "tests" / "data" / "ndvi_synthetic.asc"
        self.quality = root / "tests" / "data" / "ndvi_quality.asc"
        self.seed = seed
        self.directions = ["ew"] if tiny else ["ew", "sn", "swne", "senw"]
        self.estimators = ["matheron", "genton", "mcd.org.re", "mcd.diff.re"]

    def _argv(self, extra=()):
        return [
            "estimate", str(self.grid), "--quality", str(self.quality), "--clear-codes", "0",
            "--directions", ",".join(self.directions),
            "--estimators", ",".join(self.estimators),
            "--seed", str(self.seed), *extra,
        ]

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.rv.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def setup(self):
        for path in (self.grid, self.quality):
            if not path.is_file():
                raise FileNotFoundError(f"fixture {path} is missing")
        self.reference = _read_csv(REFERENCE_CSV.read_text())
        # warm-up: every estimator once, on one direction's shortest lag set
        code, _, err = self._call(self._argv(["--directions", "ew", "--hmax", "1"]))
        if code != 0:
            raise RuntimeError(f"warm-up estimate failed with exit {code}: {err.strip()}")

    def run_op(self, index: int) -> Op:
        code, out, err = self._call(self._argv())
        attempted = len(self.directions) * len(self.estimators)
        if code != 0:
            return Op(1, attempted, attempted, None, f"exit {code}: {err.strip()}", [f"exit{code}"])
        return Op(1, attempted, 0, out)

    def check(self, ops: list[Op]) -> list[str]:
        outputs = [op.output for op in ops if op.output is not None]
        if not outputs:
            return ["no estimate call succeeded"]
        problems = []
        if any(text != outputs[0] for text in outputs[1:]):
            problems.append("estimate CSV differs between repetitions of one run")
        rows = _read_csv(outputs[0])
        expected = {key: row for key, row in self.reference.items() if key[1] in self.directions}
        if set(rows) != set(expected):
            problems.append(f"estimate CSV rows {sorted(set(rows) ^ set(expected))[:4]} differ from the reference")
        mcd_dev = 0.0
        for key in sorted(set(rows) & set(expected)):
            (value, count), (ref_value, ref_count) = rows[key], expected[key]
            mcd = key[0].startswith("mcd")
            tol = MCD_REL_TOL if mcd else EXACT_REL_TOL
            dev = abs(value - ref_value) / abs(ref_value)
            if mcd:
                mcd_dev = max(mcd_dev, dev)
            if count != ref_count or not dev <= tol:
                problems.append(
                    f"{','.join(map(str, key))}: got ({value!r}, {count}), "
                    f"reference ({ref_value!r}, {ref_count}), tolerance {tol}"
                )
        print(f"largest relative deviation of an MCD row from the reference: {mcd_dev:.3g}")
        return problems


def _read_csv(text: str) -> dict:
    """estimator,direction,lag,variogram,count -> {(est, dir, lag): (value, count)}."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "estimator,direction,lag,variogram,count":
        raise ValueError("not an estimate CSV")
    rows = {}
    for line in lines[1:]:
        est, direction, lag, value, count = line.split(",")
        rows[(est, direction, int(lag))] = (float(value), int(count))
    return rows


class _Study:
    """One operation is one call of the study function with ``batch``
    replications on the 15x15 paper-style field; every call draws new fields
    from its own base seed."""

    root_layer = "study"
    min_ops = 3

    def __init__(self, rv, root: Path, seed: int, tiny: bool):
        self.rv = rv
        self.seed = seed
        self.field = rv.FieldSpec(rv.parse_model(PAPER_MODEL), 15, 15)
        D = rv.Direction
        self.directions = (D.EW,) if tiny else (D.EW, D.SN, D.SWNE, D.SENW)
        if tiny:
            self.batch = 2

    def _spec(self, base_seed: int, replications: int, field=None, lag_depths=None):
        rv = self.rv
        return rv.StudySpec(
            field=field or self.field,
            estimators=self.estimators,
            lag_depths=lag_depths or rv.default_lag_depths(7, 5),
            directions=self.directions,
            contamination=self.contamination,
            replications=replications,
            base_seed=base_seed,
            mod=self.mod,
            n_jobs=1,
        )

    def setup(self):
        # warm-up: two replications on a small field with short lags
        small = self.rv.FieldSpec(self.field.model, 8, 8)
        self.study(self._spec(2**62, 2, small, self.rv.default_lag_depths(2, 2)))

    def run_op(self, index: int) -> Op:
        spec = self._spec(self.seed * 100_000 + index, self.batch)
        attempted = self.batch * len(self.estimators) * len(self.directions)
        try:
            result = self.study(spec)
        except self.rv.TooManyFailuresError as exc:
            return Op(self.batch, attempted, attempted, None, str(exc), ["TooManyFailuresError"])
        failed = sum({(r.estimator, r.direction): r.n_fail for r in result.rows}.values())
        return Op(self.batch, attempted, failed, result.rows)


class StudyClean(_Study):
    """Correction-factor study on clean fields, all ten estimator ids."""

    name = "study_clean"
    batch = 2

    def __init__(self, rv, root, seed, tiny):
        super().__init__(rv, root, seed, tiny)
        self.estimators = rv.ESTIMATOR_IDS
        self.contamination = None
        self.mod = rv.ModConfig(0, 0)
        self.study = rv.run_correction_factor_study

    def check(self, ops: list[Op]) -> list[str]:
        rows = [row for op in ops if op.output is not None for row in op.output]
        if not rows:
            return ["no correction-factor study call succeeded"]
        return [
            f"{r.estimator}/{r.direction}: c_opt = {r.c_opt!r} is not finite and positive"
            for r in rows
            if not (math.isfinite(r.c_opt) and r.c_opt > 0.0)
        ]


class StudyBlock(_Study):
    """Bias/rMSE study under a 10% block of outliers (mu0=5, sigma0=1), the
    six estimator ids without partitions."""

    name = "study_block"
    batch = 4

    def __init__(self, rv, root, seed, tiny):
        super().__init__(rv, root, seed, tiny)
        self.estimators = tuple(e for e in rv.ESTIMATOR_IDS if ".mod" not in e)
        self.contamination = rv.ContaminationSpec("block", 0.1, mu0=5.0, sigma0=1.0)
        self.mod = None
        self.study = rv.run_bias_rmse_study

    def check(self, ops: list[Op]) -> list[str]:
        # pool lag-1 squared errors over every replication of the run
        sq_sum: dict = {}
        n_ok: dict = {}
        for op in ops:
            for r in op.output or ():
                if r.lag == 1:
                    key = (r.estimator, r.direction)
                    sq_sum[key] = sq_sum.get(key, 0.0) + r.n_ok * r.rmse**2
                    n_ok[key] = n_ok.get(key, 0) + r.n_ok
        if not n_ok:
            return ["no bias/rMSE study call succeeded"]
        rmse = {key: math.sqrt(sq_sum[key] / n_ok[key]) for key in n_ok if n_ok[key]}
        problems = []
        for direction in (d.value for d in self.directions):
            base = rmse.get(("matheron", direction))
            for eid in ("mcd.org.re", "mcd.diff.re"):
                value = rmse.get((eid, direction))
                if base is None or value is None or not value < base:
                    problems.append(
                        f"{eid}/{direction}: lag-1 rMSE {value!r} is not below Matheron's {base!r}"
                    )
        return problems


WORKLOADS = {w.name: w for w in (EstimateNdvi, StudyClean, StudyBlock)}
