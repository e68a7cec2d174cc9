"""Mutation check: each mutant is a text edit of the package that named test
files are expected to catch.

    python tests/mutants.py [NAME ...]

copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
applies one mutant at a time there and runs ``python -m pytest -x -q`` on
the mutant's test files.  A mutant is *killed* when the tests fail, and
*survived* when they pass, or *equivalent* when they pass and it is listed
with the reason it cannot change what the package does.  The repository
itself is only read.  Exits 1 if a mutant that is not equivalent survived,
or if a mutant's text is no longer found exactly once in its file.  The name
has no ``test_`` prefix, so pytest does not collect it; each mutant runs for
seconds to a minute.

Reference: DeMillo, Lipton & Sayward, "Hints on test data selection", IEEE
Computer 11(4), 1978.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # found exactly once in the file
    new: str
    tests: tuple  # test files, relative to the repository root
    equivalent: str | None = None  # why it cannot change behaviour


# the body of cmd_evaluate between its refusal of --out and its write
_EVALUATE = (
    "    model = read_model(args.model)\n"
    "    observations, _ = read_observations(args.observations)\n"
    "    if not observations:\n"
    '        raise FormatError(f"{args.observations}: no observation records")\n'
    "    try:\n"
    "        total = nll_dataset(model, observations)\n"
    "    except ValueError as e:\n"
    '        raise FormatError(f"model {args.model} does not fit observations "\n'
    '                          f"{args.observations}: {e}") from e\n'
    '    report = {"n": len(observations), "total_nll": total, '
    '"mean_nll": total / len(observations)}\n'
    "    if args.out is not None:\n"
)
_REFUSE_OUT = "    _refuse_overwrite(args.force, args.out)\n"

MUTANTS = (
    # the campaign's own rules on its planted paths
    Mutant("campaign: a repeated planted index passes", "src/tvhazard/datagen.py",
           "            if j in seen:\n", "            if False:\n",
           ("tests/test_datagen.py",)),
    Mutant("campaign: planted times past the horizon pass", "src/tvhazard/datagen.py",
           "if changes and changes[-1][0] > self.horizon:",
           "if changes and changes[-1][0] > 2 * self.horizon:",
           ("tests/test_datagen.py",)),
    Mutant("campaign: monotone_truth is not enforced", "src/tvhazard/datagen.py",
           "if self.monotone_truth and any(", "if False and any(",
           ("tests/test_datagen.py",)),
    # the step-path rule, for feature paths and planted paths alike
    Mutant("step path: a negative level passes", "src/tvhazard/timeline.py",
           "            if v < 0:\n", "            if v < -1.0:\n",
           ("tests/test_timeline.py", "tests/test_datagen.py")),
    Mutant("step path: a negative time passes", "src/tvhazard/timeline.py",
           "            if t < 0:\n", "            if t < -1.0:\n",
           ("tests/test_timeline.py", "tests/test_datagen.py")),
    Mutant("step path: a repeated change time passes", "src/tvhazard/timeline.py",
           "            if t <= prev:\n", "            if t < prev:\n",
           ("tests/test_timeline.py", "tests/test_datagen.py")),
    # the one record: its path rule and its rebuild
    Mutant("record: the constructor skips the step-path rule", "src/tvhazard/timeline.py",
           "for j, changes in _step_paths(self.entries.items(), self.d) if changes}",
           "for j, changes in self.entries.items() if changes}",
           ("tests/test_timeline.py", "tests/test_formats.py")),
    Mutant("record: a pickle or a copy drops the id", "src/tvhazard/timeline.py",
           "self.kind, self.left, self.right, self.id)", "self.kind, self.left, self.right)",
           ("tests/test_likelihood.py",)),
    # the one unchecked record, which only generate builds
    Mutant("timeline: the unchecked constructor stores an interval's left as 0.0",
           "src/tvhazard/timeline.py",
           'object.__setattr__(self, "left", left)',
           'object.__setattr__(self, "left", 0.0 if kind == "interval" else left)',
           ("tests/test_datagen.py",)),
    # the one rule for refused outside input
    Mutant("formats: RecursionError is not malformed input", "src/tvhazard/formats.py",
           "_MALFORMED = (KeyError, TypeError, ValueError, RecursionError)",
           "_MALFORMED = (KeyError, TypeError, ValueError)",
           ("tests/test_formats.py", "tests/test_cli.py")),
    Mutant("formats: a record's id is read as str() of any token", "src/tvhazard/formats.py",
           "str(uid) if type(uid) in (int, float) else uid", "str(uid)",
           ("tests/test_formats.py", "tests/test_cli.py")),
    # the prox reads its weight as every number the package takes in
    Mutant("penalty: fused_lasso_prox takes its weight unchecked", "src/tvhazard/penalty.py",
           '    weight = _real(weight, "weight")\n', "",
           ("tests/test_penalty.py",)),
    # every command refuses an existing output before it reads its inputs
    Mutant("cli: evaluate refuses its --out after evaluating", "src/tvhazard/cli.py",
           _REFUSE_OUT + _EVALUATE, _EVALUATE + "    " + _REFUSE_OUT,
           ("tests/test_cli.py",)),
    # the solver
    Mutant("solver: FISTA takes no tied step", "src/tvhazard/solver.py",
           "lower = FZ < FX or (at_x and FZ == FX and not np.array_equal(Z, X))",
           "lower = FZ < FX",
           ("tests/test_solver.py",)),
    Mutant("solver: _backtrack has no exact nll_change retest", "src/tvhazard/solver.py",
           "if excess <= 0.0 or (excess <= _ROUNDING * abs(f)",
           "if excess <= 0.0 or (False",
           ("tests/test_solver.py",)),
    # the certificate's one tolerance, for the proportional fit too
    Mutant("baseline: the proportional fit's tolerance is loosened to 1e-3",
           "src/tvhazard/baseline.py",
           "    tol = SolverConfig.tolerance\n", "    tol = 1e-3\n",
           ("tests/test_baseline.py",)),
    Mutant("likelihood: the monotone lift keeps no running maximum", "src/tvhazard/likelihood.py",
           "return np.maximum.accumulate(W, axis=1) if monotone else W",
           "return W",
           ("tests/test_solver.py", "tests/test_likelihood.py")),
)


def _copy(dest):
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run(mutant, copy):
    """``(outcome, seconds)`` of one mutant on the copy, which it leaves as
    it found it."""
    target = copy / mutant.path
    original = target.read_text(encoding="utf-8")
    if original.count(mutant.old) != 1:
        return "stale: text not found exactly once", 0.0
    target.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=1800,
        )
    finally:
        target.write_text(original, encoding="utf-8")
    seconds = time.perf_counter() - start
    if proc.returncode == 1:
        return "killed", seconds
    if proc.returncode != 0:
        return f"error: pytest exit {proc.returncode}", seconds
    return ("equivalent" if mutant.equivalent else "survived"), seconds


def main(names):
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {sorted(unknown)}")
    bad = 0
    with tempfile.TemporaryDirectory(prefix="tvhazard-mutants-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        for mutant in chosen:
            outcome, seconds = run(mutant, copy)
            bad += outcome != "killed" and outcome != "equivalent"
            note = f"  ({mutant.equivalent})" if mutant.equivalent else ""
            print(f"{outcome:10s} {seconds:6.1f} s  {mutant.name}{note}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
