"""Byte-for-byte CLI outputs on four fixed inputs, cross-check on four
matrices with some column sum not positive, and verify in JSON on larger
boxes and seeded matrices.

Each case runs one subcommand in one format and compares its stdout
bytes and exit code against a file recorded under ``golden/``.  The
outputs were recorded before the pipeline was simplified, so a change
that alters any printed byte fails here.  To re-record after an
intended change of output, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden/``.
"""

import io
import json
import os
import re
import sys
from contextlib import redirect_stdout

import pytest

from algval.cli import build_pipeline, load_problem, run
from algval.flock import default_box_radius

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
INPUTS = ("nonfano-matrix", "nonfano-ideal", "p3-matrix", "p3-ideal")
ALPHA = {"nonfano-matrix": "-1,-1,-1,0,0,0,-1", "nonfano-ideal": "-1,-1,-1,0,0,0,-1",
         "p3-matrix": "-1,0,1,0,-1,0", "p3-ideal": "-1,0,1,0,-1,0"}


def _commands(name):
    yield "circuits", ()
    yield "bases", ()
    yield "valuation", ()
    yield "cocircuits", ()
    yield "minor", ("--delete", "2", "--contract", "5")
    yield "flock", ("--alpha", ALPHA[name])
    yield "verify", ("--box", "1")
    if name.endswith("matrix"):
        yield "cross-check", ()


# cross-check on matrices whose column sums are not all positive: the
# mixed-sign matrix, one whose fifth column sums to 0, one with a zero
# column (a loop) and the all-zero matrix, where every column is a loop
EDGE_INPUTS = ("mixed-sign-matrix", "zero-sum-column-matrix", "loop-matrix",
               "zero-matrix")
CASES = [
    (name, command, extra, fmt)
    for name in INPUTS
    for command, extra in _commands(name)
    for fmt in ("json", "text")
] + [(name, "cross-check", (), fmt) for name in EDGE_INPUTS for fmt in ("json", "text")]


# verify in JSON beyond CASES: radius 2 and 3 boxes, the default box of
# the seeded 4x12 matrix, and --box 0 on seeded matrices up to 6x16
# (perfbench.workloads.random_matrix(random.Random(816), 6, 16, -3, 4),
# p = 2); the radius is in the name, and plain "verify" takes the
# default box
VERIFY_CASES = ("nonfano-matrix.verify-box2", "p3-matrix.verify-box3",
                "seeded-4x12-matrix.verify", "seeded-4x12-matrix.verify-box0",
                "seeded-5x14-matrix.verify-box0", "seeded-2x26-matrix.verify-box0",
                "seeded-6x16-matrix.verify-box0", "seeded-12x14-matrix.verify-box0")


def _verify_case(case):
    """(name, command, extra, fmt) of a VERIFY_CASES entry."""
    name, command = case.split(".")
    radius = command.removeprefix("verify-box")
    return name, "verify", () if radius == "verify" else ("--box", radius), "json"


def _case_id(name, command, fmt):
    return f"{name}.{command}.{fmt}"


def capture(name, command, extra, fmt, cache=None):
    """Exit code and UTF-8 stdout bytes of one CLI run."""
    argv = [command, os.path.join(GOLDEN, "inputs", f"{name}.json"), *extra,
            "--format", fmt]
    if cache is not None:
        argv += ["--cache", cache]
    buffer = io.BytesIO()
    stream = io.TextIOWrapper(buffer, encoding="utf-8", newline="")
    with redirect_stdout(stream):
        code = run(argv)
    stream.flush()
    return code, buffer.getvalue()


@pytest.fixture(scope="module")
def cache_dirs(tmp_path_factory):
    # one elimination cache per input keeps the ideal cases fast; a cache
    # hit must print the same bytes as a cold run
    return {name: str(tmp_path_factory.mktemp(name))
            for name in {name for name, _, _, _ in CASES}}


@pytest.fixture(scope="module")
def exit_codes():
    with open(os.path.join(GOLDEN, "exit_codes.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "name,command,extra,fmt", CASES,
    ids=[_case_id(n, c, f) for n, c, _, f in CASES],
)
def test_output_matches_golden(name, command, extra, fmt, cache_dirs, exit_codes):
    case = _case_id(name, command, fmt)
    code, out = capture(name, command, extra, fmt, cache=cache_dirs[name])
    with open(os.path.join(GOLDEN, "out", case), "rb") as fh:
        assert out == fh.read()
    assert code == exit_codes[case]


@pytest.mark.parametrize("case", VERIFY_CASES)
def test_verify_matches_golden(case):
    code, out = capture(*_verify_case(case))
    with open(os.path.join(GOLDEN, "out", f"{case}.json"), "rb") as fh:
        assert out == fh.read()
    assert code == 0


def _verify_goldens():
    return sorted(f for f in os.listdir(os.path.join(GOLDEN, "out")) if ".verify" in f)


@pytest.mark.parametrize("case", _verify_goldens())
def test_flock_count_is_one_per_direction(case):
    # the flock sweep checks exchange once per direction of its box,
    # (2R+1)^n, with R from --box in the file name, from the verify
    # command of CASES, or else the default
    name, command = case.rsplit(".", 1)[0].split(".")
    path = os.path.join(GOLDEN, "inputs", f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        problem = json.load(fh)
    n = problem["cols"] if problem["kind"] == "matrix" else len(problem["vars"])
    if command != "verify":
        radius = int(command.removeprefix("verify-box"))
    elif name in INPUTS:
        extra = dict(_commands(name))["verify"]
        radius = int(extra[extra.index("--box") + 1])
    else:
        radius = default_box_radius(build_pipeline(load_problem(path)).valuation)
    with open(os.path.join(GOLDEN, "out", case), encoding="utf-8") as fh:
        text = fh.read()
    if case.endswith(".json"):
        suite = json.loads(text)["suites"][-1]
        assert suite["name"] == "flock-axioms"
        checked = suite["checked"]
    else:
        checked = int(re.search(r"flock-axioms: \w+ \((\d+) checks\)", text).group(1))
    assert checked == (2 * radius + 1) ** n


def record():
    os.makedirs(os.path.join(GOLDEN, "out"), exist_ok=True)
    codes = {}
    for name, command, extra, fmt in CASES:
        case = _case_id(name, command, fmt)
        codes[case], out = capture(name, command, extra, fmt)
        with open(os.path.join(GOLDEN, "out", case), "wb") as fh:
            fh.write(out)
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(codes, indent=2) + "\n")
    for case in VERIFY_CASES:
        with open(os.path.join(GOLDEN, "out", f"{case}.json"), "wb") as fh:
            fh.write(capture(*_verify_case(case))[1])


if __name__ == "__main__":
    sys.exit(record())
