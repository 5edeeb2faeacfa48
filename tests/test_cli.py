import io
import json
import os
import random
import subprocess
import sys

import pytest

from algval import cli
from algval.cli import (
    DOCUMENT_KEYS,
    CliInputError,
    build_pipeline,
    cross_check,
    emit,
    flock_document,
    load_problem,
    minor_document,
    problem_fingerprint,
    run,
    valuation_document,
    verify_document,
)
from algval.ffpoly import CircuitVector
from algval.flock import FlockReport
from algval.toric import IntMatrix
from algval.valmat import (
    Valuation,
    check_circuit_axioms,
    check_exchange_consistency,
    check_orthogonality,
)

from conftest import NONFANO_A, NONFANO_GENERATORS, NONFANO_VARS
from test_golden import ALPHA, GOLDEN, INPUTS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

MATRIX_DOC = {
    "kind": "matrix",
    "p": 2,
    "rows": 3,
    "cols": 7,
    "entries": [list(r) for r in NONFANO_A],
}

IDEAL_DOC = {
    "kind": "ideal",
    "p": 2,
    "vars": list(NONFANO_VARS),
    "generators": list(NONFANO_GENERATORS),
}


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "nonfano-matrix.json"
    path.write_text(json.dumps(MATRIX_DOC))
    return str(path)


@pytest.fixture
def ideal_file(tmp_path):
    path = tmp_path / "nonfano-ideal.json"
    path.write_text(json.dumps(IDEAL_DOC))
    return str(path)


def run_json(capsys, *argv):
    code = run(list(argv) + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestLoadProblem:
    def test_missing_file(self):
        with pytest.raises(CliInputError):
            load_problem("/nonexistent/problem.json")

    def test_bad_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "graph", "p": 2}')
        with pytest.raises(CliInputError):
            load_problem(str(path))

    def test_ragged_entries(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"kind":"matrix","p":2,"rows":2,"cols":2,"entries":[[1,0],[1]]}'
        )
        with pytest.raises(CliInputError):
            load_problem(str(path))

    def test_duplicate_vars(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"kind":"ideal","p":2,"vars":["x","x"],"generators":[]}'
        )
        with pytest.raises(CliInputError):
            load_problem(str(path))

    @pytest.mark.parametrize("content", [
        b'\xff\xfe{"kind": "matrix"}',
        b"[" * 200_000 + b"]" * 200_000,
        b'{"kind":"matrix","p":2,"rows":1,"cols":1,"entries":[[' + b"7" * 5000 + b"]]}",
        b'{"kind":"matrix","p":' + b"3" * 5000 + b',"rows":1,"cols":1,"entries":[[1]]}',
    ], ids=["not-utf8", "nested-200000", "long-entry", "long-p"])
    def test_unreadable_file_is_one_error_line(self, tmp_path, content):
        # bytes that are not UTF-8, JSON too deep for the decoder and an
        # integer past the interpreter's digit limit end in one line
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-m", "algval.cli", "valuation", str(path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr

    def test_fingerprint_stable(self, matrix_file):
        problem = load_problem(matrix_file)
        assert problem_fingerprint(problem) == problem_fingerprint(problem)


class TestValuationCommand:
    def test_matrix_route_reports_special_basis(self, capsys, matrix_file):
        code, doc = run_json(capsys, "valuation", matrix_file)
        assert code == 0
        assert doc["n"] == 7 and doc["rank"] == 3 and doc["p"] == 2
        assert len(doc["bases"]) == 29
        assert {"set": [4, 5, 6], "value": 1} in doc["bases"]
        assert all(
            item["value"] == 0
            for item in doc["bases"]
            if item["set"] != [4, 5, 6]
        )

    def test_ideal_route_matches_matrix_route(self, capsys, matrix_file, ideal_file):
        _, from_matrix = run_json(capsys, "valuation", matrix_file)
        _, from_ideal = run_json(capsys, "valuation", ideal_file)
        for key in ("n", "rank", "bases", "circuits", "cocircuits"):
            assert from_matrix[key] == from_ideal[key]

    def test_infinity_serialized_as_string(self, capsys, matrix_file):
        _, doc = run_json(capsys, "valuation", matrix_file)
        entries = {e for c in doc["circuits"] for e in c["entries"]}
        assert "inf" in entries
        assert None not in entries

    def test_byte_identical_reruns(self, capsys, matrix_file):
        run(["valuation", matrix_file, "--format", "json"])
        first = capsys.readouterr().out
        run(["valuation", matrix_file, "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_text_format_mentions_special_basis(self, capsys, matrix_file):
        assert run(["valuation", matrix_file]) == 0
        out = capsys.readouterr().out
        assert "{4,5,6}  1" in out


class TestSectionCommands:
    def test_circuits_keys(self, capsys, matrix_file):
        code, doc = run_json(capsys, "circuits", matrix_file)
        assert code == 0
        assert set(doc) == {"input_sha256", "n", "p", "circuits"}
        assert len(doc["circuits"]) == 17

    def test_bases_keys(self, capsys, matrix_file):
        code, doc = run_json(capsys, "bases", matrix_file)
        assert code == 0
        assert set(doc) == {"input_sha256", "n", "rank", "p", "bases"}

    def test_cocircuits_supports(self, capsys, matrix_file):
        code, doc = run_json(capsys, "cocircuits", matrix_file)
        assert code == 0
        supports = {
            tuple(i + 1 for i, e in enumerate(c["entries"]) if e != "inf")
            for c in doc["cocircuits"]
        }
        assert (1, 2, 5, 6) in supports  # complement of the plane {3,4,7}

    @pytest.mark.parametrize("command", ["bases", "circuits"])
    def test_no_cocircuits_computed(self, capsys, matrix_file, monkeypatch,
                                    command):
        import algval.cli as cli_module

        def refuse(valuation):
            raise AssertionError(f"{command} computed cocircuits")

        monkeypatch.setattr(cli_module, "cocircuits", refuse)
        assert run([command, matrix_file]) == 0


class TestMinorCommand:
    def test_delete_seven(self, capsys, matrix_file):
        code, doc = run_json(capsys, "minor", matrix_file, "--delete", "7")
        assert code == 0
        assert doc["n"] == 6
        assert doc["elements"] == [1, 2, 3, 4, 5, 6]
        assert {"set": [4, 5, 6], "value": 1} in doc["bases"]

    def test_contract_one(self, capsys, matrix_file):
        code, doc = run_json(capsys, "minor", matrix_file, "--contract", "1")
        assert code == 0
        assert doc["rank"] == 2
        assert doc["elements"] == [2, 3, 4, 5, 6, 7]
        assert all(item["value"] == 0 for item in doc["bases"])

    def test_overlap_rejected(self, capsys, matrix_file):
        assert run(["minor", matrix_file, "--delete", "1", "--contract", "1"]) == 1

    def test_out_of_range_rejected(self, capsys, matrix_file):
        assert run(["minor", matrix_file, "--delete", "9"]) == 1

    @pytest.mark.parametrize("args,recorded", [
        (("--delete", "3,5,6,7"), "nonfano-matrix.minor-delete-3567.json"),
        (("--contract", "1,2,4"), "nonfano-matrix.minor-contract-124.json"),
    ])
    def test_output_matches_golden(self, capsys, args, recorded):
        # a deletion that drops the rank to 2 and the contraction of a
        # circuit, pinned byte for byte as the greedy completion printed
        # them
        golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
        code = run(["minor", os.path.join(golden, "inputs", "nonfano-matrix.json"),
                    *args, "--format", "json"])
        with open(os.path.join(golden, "out", recorded), encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()
        assert code == 0


class TestFlockCommand:
    def test_worked_direction(self, capsys, matrix_file):
        code, doc = run_json(
            capsys, "flock", matrix_file, "--alpha", "-1,-1,-1,0,0,0,-1"
        )
        assert code == 0
        assert doc["g"] == -1
        assert [4, 5, 6] in doc["bases"]
        assert [3, 5, 6] in doc["bases"]
        heavy = {1, 2, 3, 7}
        assert all(len(heavy & set(b)) < 2 for b in doc["bases"])

    def test_zero_direction_is_fano(self, capsys, matrix_file):
        code, doc = run_json(capsys, "flock", matrix_file, "--alpha", "0,0,0,0,0,0,0")
        assert code == 0
        assert doc["g"] == 0
        assert len(doc["bases"]) == 28
        assert [4, 5, 6] not in doc["bases"]

    def test_wrong_length(self, capsys, matrix_file):
        assert run(["flock", matrix_file, "--alpha", "1,2"]) == 1


class TestVerifyCommand:
    def test_matrix_input_passes(self, capsys, matrix_file):
        code, doc = run_json(capsys, "verify", matrix_file, "--box", "1")
        assert code == 0
        assert doc["ok"] is True
        names = [s["name"] for s in doc["suites"]]
        assert names == [
            "plucker-3term",
            "circuit-supports",
            "exchange-identity",
            "duality",
            "cocircuit-exchange",
            "flock-axioms",
        ]
        assert all(not s["violations"] for s in doc["suites"])

    def test_ideal_input_passes(self, capsys, ideal_file):
        code, doc = run_json(capsys, "verify", ideal_file, "--box", "1")
        assert code == 0
        assert doc["ok"] is True

    def test_exchange_suite_checks_once_on_both_routes(
            self, capsys, ideal_file, matrix_file, monkeypatch):
        # the elimination route's walk values the bases; verify checks
        # the identity again on the same circuits, as on a matrix input,
        # and once on the cocircuits against the dual's values
        check = cli.check_exchange_consistency
        calls = []
        monkeypatch.setattr(cli, "check_exchange_consistency",
                            lambda *args: calls.append(args) or check(*args))
        for path in (ideal_file, matrix_file):
            pipe = build_pipeline(load_problem(path))
            dual_values = cli.dual(pipe.valuation)
            cocircs = cli.cocircuits(pipe.valuation)
            expected = check(pipe.valuation, pipe.vcircuits)
            co_expected = check(dual_values, cocircs)
            calls.clear()
            suites = {s["name"]: s for s in verify_document(pipe, box_radius=0)["suites"]}
            assert calls == [(pipe.valuation, pipe.vcircuits), (dual_values, cocircs)]
            # 29 non-Fano bases, 4 outside elements each, rank 3, and on
            # the dual 3 outside elements each, rank 4
            assert expected.checked == 29 * 4 * 3
            assert co_expected.checked == 29 * 3 * 4
            assert suites["exchange-identity"] == {
                "name": "exchange-identity", "checked": expected.checked,
                "violations": expected.violations}
            assert suites["cocircuit-exchange"] == {
                "name": "cocircuit-exchange", "checked": co_expected.checked,
                "violations": co_expected.violations}

    def test_plucker_relations_evaluated_once(self, capsys, matrix_file, monkeypatch):
        # plucker-3term and the flock certificate share one report
        import algval.valmat as valmat

        check, calls = valmat.check_plucker_relations, []
        monkeypatch.setattr(valmat, "check_plucker_relations",
                            lambda v: calls.append(v) or check(v))
        code, doc = run_json(capsys, "verify", matrix_file, "--box", "1")
        assert code == 0 and len(calls) == 1
        # C(7, 1) sets S of one element, C(6, 4) relations each
        assert doc["suites"][0] == {"name": "plucker-3term", "checked": 7 * 15,
                                    "violations": []}

    def test_failure_exits_two(self, capsys, matrix_file, monkeypatch):
        import algval.cli as cli_module

        def broken(valuation, radius=None, alphas=None):
            return FlockReport(directions=1, checked=1, violations=["forced"])

        monkeypatch.setattr(cli_module, "check_flock_axioms", broken)
        assert run(["verify", matrix_file, "--box", "1"]) == 2

    def assert_duality_fails(self, capsys, matrix_file, messages, checked, co_checked):
        # the cocircuits are checked against the dual's values, so a
        # fault on the cocircuit side fails that identity as well
        assert run(["verify", matrix_file, "--box", "0", "--format", "text"]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "ok false"
        assert all(f"    {message}" in out for message in messages)
        assert [line for line in out if "FAIL" in line] == [
            f"  duality: FAIL ({checked} checks)",
            f"  cocircuit-exchange: FAIL ({co_checked} checks)"]

    def test_cocircuit_dropped_fails_duality(self, capsys, matrix_file, monkeypatch):
        # the cocircuit supports are held to the complements of the
        # hyperplanes, which come from the basis masks alone: one check
        # per cocircuit (8 left of 9) and per hyperplane (9), and the
        # double dual; the identity has no vector for the 5 (basis,
        # element) pairs of the dual whose circuit was dropped, 4 checks
        # each
        cocircuits = cli.cocircuits
        dropped = sorted(cocircuits(build_pipeline(load_problem(matrix_file)).valuation)[0].support)
        monkeypatch.setattr(cli, "cocircuits", lambda v: cocircuits(v)[1:])
        self.assert_duality_fails(
            capsys, matrix_file, [f"no vector on support {dropped}",
                                  f"no valuated circuit on support {dropped}"], 18, 348 - 5 * 4)

    def test_double_dual_moved_fails_duality(self, capsys, matrix_file, monkeypatch):
        dual = cli.dual

        def moved(valuation):
            d = dual(valuation)
            values = dict(d.values)
            values[d.matroid.bases[-1]] += 1
            return Valuation(d.matroid, values, labels=d.labels)

        monkeypatch.setattr(cli, "dual", moved)
        self.assert_duality_fails(capsys, matrix_file,
                                  ["double dual differs from the valuation"], 19, 348)


    def test_negative_box_is_input_error(self, capsys, matrix_file):
        # a negative radius leaves an empty box, which would pass by
        # checking nothing
        assert run(["verify", matrix_file, "--box", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --box must be at least 0, got -1\n"

    def test_box_too_large_to_index_is_input_error(self, capsys, monkeypatch):
        # 200001^7 directions overflow a list index; the box is refused
        # before any suite runs or the flock certificate is computed
        def refuse(*args, **kwargs):
            raise AssertionError("verify ran before refusing the box")

        monkeypatch.setattr(cli, "check_supports", refuse)
        monkeypatch.setattr(Valuation, "plucker", refuse)
        golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
        path = os.path.join(golden, "inputs", "nonfano-matrix.json")
        assert run(["verify", path, "--box", "100000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --box: box radius 100000 gives 200001^7 "
                                "directions, more than a list can index\n")

    def test_certified_box_scores_no_direction(self, capsys, monkeypatch):
        # the relations certify every slice, so a radius-100 box on the
        # non-Fano matrix, 201^7 directions, is counted without a scan
        def refuse(*args, **kwargs):
            raise AssertionError("direction scanned")

        monkeypatch.setattr("algval.flock._slice", refuse)
        golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
        path = os.path.join(golden, "inputs", "nonfano-matrix.json")
        code, doc = run_json(capsys, "verify", path, "--box", "100")
        assert code == 0 and doc["ok"]
        suite = next(s for s in doc["suites"] if s["name"] == "flock-axioms")
        assert suite["checked"] == 201**7 == 13_254_776_280_841_401

    def test_box_too_large_refused_before_eliminating(self, capsys, monkeypatch):
        # on an ideal input n is the length of the variable list, so the
        # box is refused before the elimination route runs
        def refuse(*args, **kwargs):
            raise AssertionError("eliminated before refusing the box")

        monkeypatch.setattr("algval.groebner.eliminate", refuse)
        monkeypatch.setattr("algval.algmat.eliminate", refuse)
        golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
        path = os.path.join(golden, "inputs", "nonfano-ideal.json")
        assert run(["verify", path, "--box", "100000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --box: box radius 100000 gives 200001^7 "
                                "directions, more than a list can index\n")

    def test_box_zero_checks_one_direction(self, capsys, matrix_file):
        code, doc = run_json(capsys, "verify", matrix_file, "--box", "0")
        assert code == 0
        flock = doc["suites"][-1]
        assert flock["name"] == "flock-axioms"
        # one exchange check for the one direction
        assert flock["checked"] == 1

    def test_box_two_matches_golden(self, capsys):
        # radius 2 on the non-Fano matrix: 5^7 = 78,125 directions,
        # pinned byte for byte
        golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
        code = run(["verify", os.path.join(golden, "inputs", "nonfano-matrix.json"),
                    "--box", "2", "--format", "json"])
        with open(os.path.join(golden, "out", "nonfano-matrix.verify-box2.json"),
                  encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()
        assert code == 0

    def test_box_three_matches_golden(self, capsys):
        # radius 3 on the p = 3 matrix: 7^6 = 117,649 directions, pinned
        # byte for byte
        golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
        code = run(["verify", os.path.join(golden, "inputs", "p3-matrix.json"),
                    "--box", "3", "--format", "json"])
        with open(os.path.join(golden, "out", "p3-matrix.verify-box3.json"),
                  encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()
        assert code == 0


def _raised(vector, at):
    """The vector with its entry at position at raised by 1."""
    entries = list(vector.entries)
    entries[at] += 1
    return CircuitVector(entries)


class TestTamperedVerify:
    """One value, circuit or cocircuit moved inside the CLI: verify exits
    2, and the suites that fail are exactly the ones that can see the
    change.  Each tamper is seen by one suite alone, so verify without
    that suite would exit 0."""

    @staticmethod
    def failing(capsys, tmp_path, rows, p=2):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"kind": "matrix", "p": p, "rows": len(rows),
                                    "cols": len(rows[0]), "entries": rows}))
        code, doc = run_json(capsys, "verify", str(path), "--box", "0")
        assert code == 2 and doc["ok"] is False
        return {s["name"]: s["violations"] for s in doc["suites"] if s["violations"]}

    def test_moved_value_fails_plucker(self, capsys, tmp_path, monkeypatch):
        # U(2,4) with the value of {0, 1} lowered by 1: on rank 2 every
        # circuit is a triangle, whose identities agree whatever the
        # values, and the slice at 0 is that one basis, a matroid; only
        # the relation on {0, 1, 2, 3} sees the move
        linear = cli.linear_valuated_matroid

        def moved(matrix, p):
            valuation = linear(matrix, p)
            values = dict(valuation.values)
            values[frozenset({0, 1})] -= 1
            return Valuation(valuation.matroid, values)

        monkeypatch.setattr(cli, "linear_valuated_matroid", moved)
        assert self.failing(capsys, tmp_path, [[1, 0, 1, 1], [0, 1, 1, 2]]) == {
            "plucker-3term": ["3-term relation at S=[], [0, 1, 2, 3]: the least "
                              "of 1, 2, 3 is attained once"]}

    def test_moved_circuit_entry_fails_exchange(self, capsys, tmp_path, monkeypatch):
        # the largest entry of the first non-Fano circuit raised: still
        # canonical and on its support, so only the identity sees it
        family = cli.valuated_circuit_family

        def moved(valuation):
            first, *rest = family(valuation)
            return [_raised(first, max(first.support, key=first.entries.__getitem__))] + rest

        monkeypatch.setattr(cli, "valuated_circuit_family", moved)
        failing = self.failing(capsys, tmp_path, [list(r) for r in NONFANO_A])
        assert list(failing) == ["exchange-identity"]
        assert all(v.startswith("exchange identity fails at basis ")
                   for v in failing["exchange-identity"])

    def test_moved_cocircuit_entry_fails_cocircuit_exchange(
            self, capsys, tmp_path, monkeypatch):
        cocircuits = cli.cocircuits

        def moved(valuation):
            first, *rest = cocircuits(valuation)
            return [_raised(first, max(first.support, key=first.entries.__getitem__))] + rest

        monkeypatch.setattr(cli, "cocircuits", moved)
        failing = self.failing(capsys, tmp_path, [list(r) for r in NONFANO_A])
        assert list(failing) == ["cocircuit-exchange"]
        assert all(v.startswith("exchange identity fails at basis ")
                   for v in failing["cocircuit-exchange"])

    def test_moved_loop_fails_circuit_supports(self, capsys, tmp_path, monkeypatch):
        # a loop's circuit has one entry, which no exchange reads; raised,
        # it is no longer canonical
        family = cli.valuated_circuit_family
        monkeypatch.setattr(cli, "valuated_circuit_family", lambda v: [
            _raised(c, 1) if c.support == {1} else c for c in family(v)])
        assert self.failing(capsys, tmp_path, [[1, 0, 2, -1], [0, 0, 1, 3]], p=3) == {
            "circuit-supports": ["(inf, 1, inf, inf) is not canonical"]}

    def test_moved_coloop_fails_duality(self, capsys, tmp_path, monkeypatch):
        # the cocircuit of a coloop, 0 here, meets no circuit and no
        # exchange of the dual reads it; raised, it is no longer canonical
        cocircuits = cli.cocircuits
        monkeypatch.setattr(cli, "cocircuits", lambda v: [
            _raised(d, 0) if d.support == {0} else d for d in cocircuits(v)])
        assert self.failing(capsys, tmp_path, [[1, 0, 0], [0, 1, 1]]) == {
            "duality": ["(1, inf, inf) is not canonical"]}


def _chain_cases():
    """300 seeded matrices, 2-4 x 4-9 with entries in [-3, 4] over
    p in {2, 3, 5}, chosen for the structures they hold, not for the
    verdicts: one in six has a zero column (a loop), one in six a row
    that is 0 off one column (a coloop), one in six rank 1, one in six is
    4 x 4 (rank n when nonsingular), and every 25th is zero (rank 0)."""
    rng = random.Random(3600)
    for i in range(300):
        d, n = rng.randint(2, 4), rng.randint(4, 9)
        rows = [[rng.randint(-3, 4) for _ in range(n)] for _ in range(d)]
        kind = i % 6
        if i % 25 == 0:
            rows = [[0] * n for _ in range(d)]
        elif kind == 1:
            e = rng.randrange(n)
            for row in rows:
                row[e] = 0
        elif kind == 2:
            e = rng.randrange(n)
            rows[0] = [rng.choice((1, 2, 3)) if x == e else 0 for x in range(n)]
        elif kind == 3:
            rows = [[k * x for x in rows[0]] for k in range(1, d + 1)]
        elif kind == 4:
            rows = [[rng.randint(-3, 4) for _ in range(4)] for _ in range(4)]
        yield rows, rng.choice((2, 3, 5)), rng


def _moved(family, rng):
    """The family with one entry of one vector moved by 1 or 2 either
    way, and the moved vector; the family as it is when it is empty."""
    if not family:
        return family, None
    k = rng.randrange(len(family))
    entries = list(family[k].entries)
    entries[rng.choice(sorted(family[k].support))] += rng.choice((-2, -1, 1, 2))
    moved = CircuitVector(entries)
    return family[:k] + [moved] + family[k + 1:], moved


def _pair_suite_verdict(valuation, circs, cocircs):
    """Whether the suites verify printed before the certificate chain
    pass, flock-axioms left out: the circuit axioms, the exchange
    identity, duality (the double dual and the set of cocircuit supports
    against the hyperplane complements) and orthogonality."""
    matroid, ground = valuation.matroid, frozenset(range(valuation.n))
    duality = cli.dual(cli.dual(valuation)) == valuation
    if matroid.rank >= 1:
        duality = duality and (
            {d.support for d in cocircs} == {ground - h for h in matroid.hyperplanes()})
    return (check_circuit_axioms(circs, matroid).ok
            and check_exchange_consistency(valuation, circs).ok
            and duality and check_orthogonality(circs, cocircs).ok)


class TestChainMatchesPairSuites:
    def test_same_verdict_as_the_pair_suites(self, monkeypatch):
        # five variants per matrix: as computed, one circuit entry moved,
        # one cocircuit entry moved, both, and one basis value moved; the
        # chain's verdict, flock-axioms left out, equals the pair suites'
        # on every case but one kind: a coloop's cocircuit, one entry,
        # meets no circuit, and the pair suites compared only the supports
        # of cocircuits, so they passed it moved and no longer canonical;
        # the chain fails it in duality
        seen, outcomes, mismatches, blind = set(), set(), 0, 0
        for rows, p, rng in _chain_cases():
            valuation = cli.linear_valuated_matroid(IntMatrix(rows), p)
            m = valuation.matroid
            seen.add(("rank", 0 if m.rank == 0 else 1 if m.rank == 1
                      else "n" if m.rank == m.n else "other"))
            seen.update(("loop",) for c in cli.valuated_circuit_family(valuation)
                        if len(c.support) == 1)
            seen.update(("coloop",) for d in cli.cocircuits(valuation) if len(d.support) == 1)
            values = dict(valuation.values)
            values[rng.choice(m.bases)] += rng.choice((-2, -1, 1, 2))
            bumped = Valuation(m, values)
            circs, cocircs = (cli.valuated_circuit_family(valuation),
                              cli.cocircuits(valuation))
            moved_circs, _ = _moved(circs, rng)
            moved_cocircs, moved = _moved(cocircs, rng)
            variants = [
                ("none", valuation, circs, cocircs),
                ("circuit", valuation, moved_circs, cocircs),
                ("cocircuit", valuation, circs, moved_cocircs),
                ("both", valuation, moved_circs, moved_cocircs),
                ("value", bumped, cli.valuated_circuit_family(bumped),
                 cli.cocircuits(bumped)),
            ]
            for name, val, cs, ds in variants:
                monkeypatch.setattr(cli, "cocircuits", lambda v, ds=ds: ds)
                doc = verify_document(cli.Pipeline(None, "", val, cs), box_radius=0)
                monkeypatch.undo()
                suites = {s["name"]: s["violations"] for s in doc["suites"]}
                chain = not any(v for k, v in suites.items() if k != "flock-axioms")
                old = _pair_suite_verdict(val, cs, ds)
                outcomes.add((name, chain))
                if chain != old:
                    # the only kind of difference: a moved coloop cocircuit,
                    # alone or with a circuit move where there is no circuit
                    assert name in ("cocircuit", "both") and old
                    assert len(moved.support) == 1
                    assert name == "cocircuit" or moved_circs == circs
                    assert {k for k, v in suites.items() if v} == {"duality"}
                    blind += 1
                assert doc["ok"] == (chain and not suites["flock-axioms"])
                mismatches += chain != old
        assert seen >= {("rank", 0), ("rank", 1), ("rank", "n"), ("rank", "other"),
                        ("loop",), ("coloop",)}
        assert {(name, ok) for name in ("circuit", "cocircuit", "both", "value")
                for ok in (True, False)} - {("circuit", True), ("both", True)} <= outcomes
        assert mismatches == blind and blind > 0


class TestSeeded4x12Golden:
    """valuation on a seeded 4x12 matrix (random.Random(4012), entries in
    [-3, 4], p = 2), pinned byte for byte in JSON and in text: its
    circuits and cocircuits come from the fundamental-circuit sweeps of a
    4x12 matroid and of its dual.  After an intended change of output,
    re-record with

        PYTHONPATH=src python -m algval.cli valuation \\
            tests/golden/inputs/seeded-4x12-matrix.json --format json \\
            > tests/golden/out/seeded-4x12-matrix.valuation.json

    and the same with --format text into seeded-4x12-matrix.valuation.text.
    """

    @staticmethod
    def assert_matches(capsys, fmt):
        golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
        code = run(["valuation", os.path.join(golden, "inputs", "seeded-4x12-matrix.json"),
                    "--format", fmt])
        with open(os.path.join(golden, "out", f"seeded-4x12-matrix.valuation.{fmt}"),
                  encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()
        assert code == 0

    def test_output_matches_golden(self, capsys):
        self.assert_matches(capsys, "json")

    def test_text_matches_golden(self, capsys):
        self.assert_matches(capsys, "text")


class TestNearSquareGoldens:
    """Seeded matrices of rank above n/2 (random.Random(1000 d + n),
    entries in [-3, 4], p = 2), valued on their kernel lattice's side:
    the outputs were recorded while a Bareiss elimination per column set
    computed their minors, and must not move.  Re-record after an
    intended change of output with, for example,

        PYTHONPATH=src python -m algval.cli bases \\
            tests/golden/inputs/seeded-20x22-matrix.json --format json \\
            > tests/golden/out/seeded-20x22-matrix.bases.json
    """

    CASES = {"seeded-12x14-matrix.valuation": ["valuation"],
             "seeded-12x14-matrix.verify-box0": ["verify", "--box", "0"],
             "seeded-20x22-matrix.bases": ["bases"]}

    @pytest.mark.parametrize("case", CASES)
    def test_output_matches_golden(self, capsys, case):
        golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
        command, *extra = self.CASES[case]
        name = case.split(".")[0]
        code = run([command, os.path.join(golden, "inputs", f"{name}.json"),
                    *extra, "--format", "json"])
        with open(os.path.join(golden, "out", f"{case}.json"),
                  encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()
        assert code == 0


class TestCrossCheckCommand:
    def test_nonfano_agrees(self, capsys, matrix_file):
        code, doc = run_json(capsys, "cross-check", matrix_file)
        assert code == 0
        assert doc["agree"] is True
        assert doc["valuations_match"] is True
        assert doc["circuits_match"] is True

    def test_rejects_ideal_input(self, capsys, ideal_file):
        assert run(["cross-check", ideal_file]) == 1

    def test_identity_matrix(self, capsys, tmp_path):
        path = tmp_path / "id.json"
        path.write_text(
            '{"kind":"matrix","p":2,"rows":2,"cols":2,"entries":[[1,0],[0,1]]}'
        )
        code, doc = run_json(capsys, "cross-check", str(path))
        assert code == 0
        assert doc["agree"] is True


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    @pytest.mark.parametrize("argv,message", [
        (["flock", "--alpha", "0,0"], "alpha needs 7 entries, got 2"),
        (["flock", "--alpha", "0,x"], "bad alpha entry 'x'"),
        (["minor", "--delete", "99"], "delete element 99 outside 1..7"),
        (["minor", "--contract", "0"], "contract element 0 outside 1..7"),
        (["minor", "--delete", "1", "--contract", "1,2"],
         "delete and contract sets overlap"),
    ])
    def test_bad_flags_refused_before_building(
            self, capsys, ideal_file, tmp_path, monkeypatch, argv, message):
        # on an ideal input n is the length of the variable list, so a
        # bad flag is refused before any elimination or cache file
        def refuse(*args, **kwargs):
            raise AssertionError("built the pipeline before refusing the flag")

        monkeypatch.setattr(cli, "build_pipeline", refuse)
        cache = tmp_path / "cache"
        assert run([argv[0], ideal_file, *argv[1:], "--cache", str(cache)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not cache.exists()

    def test_one_parser_answers_as_a_fresh_one(self, capsys, matrix_file):
        # run builds its parser once per process; a bad flag, --help and
        # valid commands in a row each answer as on a freshly built parser
        commands = [
            ["valuation", matrix_file, "--bogus"],
            ["--help"],
            ["verify", "--help"],
            ["flock", matrix_file, "--alpha", "-1,0,1,0,-1,0,0", "--format", "json"],
            ["verify", matrix_file, "--box", "-1"],
            ["bases", matrix_file],
        ]

        def answer(argv):
            code = run(argv)
            out, err = capsys.readouterr()
            return code, out, err

        fresh = []
        for argv in commands:
            cli._parser.cache_clear()
            fresh.append(answer(argv))
        assert [code for code, _, _ in fresh] == [1, 0, 0, 0, 1, 0]
        assert "unrecognized arguments: --bogus" in fresh[0][2]
        assert "usage: algval" in fresh[1][1]
        cli._parser.cache_clear()
        assert [answer(argv) for argv in commands] == fresh
        assert cli._parser.cache_info().misses == 1

    def test_input_error(self, capsys):
        assert run(["valuation", "/does/not/exist.json"]) == 1

    def test_unit_ideal_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "unit.json"
        path.write_text(
            '{"kind":"ideal","p":2,"vars":["x1","x2"],"generators":["1"]}'
        )
        assert run(["valuation", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_huge_p_cross_check_is_input_error(self, capsys, tmp_path):
        # the matrix route takes any prime; the elimination route works
        # in a field of word-sized characteristic only
        path = tmp_path / "huge-p.json"
        path.write_text('{"kind":"matrix","p":9223372036854775837,"rows":2,'
                        '"cols":3,"entries":[[1,0,1],[0,1,1]]}')
        assert run(["valuation", str(path)]) == 0
        capsys.readouterr()
        assert run(["cross-check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "9223372036854775837" in err

    def test_huge_p_ideal_is_elimination_route_error(self, capsys, tmp_path):
        # a well-formed generator over a characteristic past word size:
        # the message names the route, not the generators
        path = tmp_path / "huge-p-ideal.json"
        path.write_text('{"kind":"ideal","p":9223372036854775837,'
                        '"vars":["x1","x2"],"generators":["x1 - x2^2"]}')
        assert run(["valuation", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: elimination route: ")
        assert err.count("\n") == 1 and "9223372036854775837" in err

    def test_p_past_the_primality_bound_is_input_error(self, capsys, tmp_path):
        # 1287836182261 * 2575672364521 is a strong pseudoprime to every
        # Miller-Rabin witness the primality test uses
        path = tmp_path / "pseudoprime.json"
        path.write_text('{"kind":"matrix","p":3317044064679887385961981,'
                        '"rows":2,"cols":3,"entries":[[1,0,1],[0,1,1]]}')
        assert run(["valuation", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "3317044064679887385961981" in captured.err

    def test_non_principal_elimination_is_inconsistency(self, capsys, tmp_path):
        # (x1^2*x2, x1*x2^2) meets neither F_3[x1] nor F_3[x2], and its
        # elimination ideal on {x1, x2} needs both generators
        path = tmp_path / "nonprincipal.json"
        path.write_text('{"kind":"ideal","p":3,"vars":["x1","x2"],'
                        '"generators":["x1^2*x2","x1*x2^2"]}')
        assert run(["valuation", str(path)]) == 3
        assert capsys.readouterr().err.startswith("inconsistency: ")

    def test_reducible_ideal_is_inconsistency(self, capsys, tmp_path):
        # (x1*x3, x2*x3) is not prime: its only basis {x1, x2} makes x3 a
        # loop, but x3 alone has a zero elimination ideal
        path = tmp_path / "reducible.json"
        path.write_text('{"kind":"ideal","p":3,"vars":["x1","x2","x3"],'
                        '"generators":["x1*x3","x2*x3"]}')
        assert run(["valuation", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("inconsistency: circuit {x3} of the basis family")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n", [4, 9])
    def test_non_matroid_ideal_is_inconsistency(self, capsys, tmp_path, n):
        # two planes meeting in a point: {x1, x2} and {x3, x4} are the only
        # independent pairs, and they fail basis exchange at any n
        path = tmp_path / "planes.json"
        path.write_text(json.dumps({
            "kind": "ideal", "p": 3, "vars": [f"x{i}" for i in range(1, n + 1)],
            "generators": ["x1*x3", "x1*x4", "x2*x3", "x2*x4"]}))
        assert run(["valuation", str(path)]) == 3
        err = capsys.readouterr().err
        free = list(range(5, n + 1))
        assert err.startswith(
            "inconsistency: the independent sets are not a matroid (basis "
            f"exchange fails for {[1, 2, *free]}, {[3, 4, *free]} at 1)")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["valuation", "verify"])
    @pytest.mark.parametrize("p,generator", [(2, "x1^2"), (3, "x1^3 + x2^3")])
    def test_pth_power_circuit_is_inconsistency(self, capsys, tmp_path,
                                                command, p, generator):
        # x1^2 and (x1 + x2)^3 are p-th powers: the ideal is not radical
        path = tmp_path / "power.json"
        path.write_text(json.dumps({"kind": "ideal", "p": p, "vars": ["x1", "x2"],
                                    "generators": [generator]}))
        assert run([command, str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("inconsistency: ") and "th power" in err

    def test_bad_generator_text(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"kind":"ideal","p":2,"vars":["x1"],"generators":["x1 + y"]}'
        )
        assert run(["valuation", str(path)]) == 1

    def test_composite_characteristic(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"kind":"matrix","p":4,"rows":1,"cols":1,"entries":[[1]]}'
        )
        assert run(["valuation", str(path)]) == 1


    @pytest.mark.parametrize("shape", [
        '"rows":0,"cols":7,"entries":[]',
        '"rows":1,"cols":0,"entries":[[]]',
    ])
    def test_empty_matrix(self, capsys, tmp_path, shape):
        path = tmp_path / "bad.json"
        path.write_text('{"kind":"matrix","p":2,' + shape + '}')
        assert run(["valuation", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_boolean_entries(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"kind":"matrix","p":2,"rows":1,"cols":2,"entries":[[true,false]]}'
        )
        assert run(["valuation", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCache:
    def test_corrupt_entry_is_recomputed(self, capsys, ideal_file, tmp_path):
        cache = tmp_path / "cache"
        argv = ["bases", ideal_file, "--format", "json", "--cache", str(cache)]
        assert run(argv) == 0
        first = capsys.readouterr().out
        entry = sorted(cache.iterdir())[-1]
        intact = entry.read_text()
        entry.write_text(intact[: len(intact) // 2])
        assert run(argv) == 0
        assert capsys.readouterr().out == first
        assert json.loads(entry.read_text()) == json.loads(intact)
        assert not list(cache.glob("*.tmp"))

    def test_ideal_route_cache_reuse(self, capsys, ideal_file, tmp_path):
        cache = tmp_path / "cache"
        run(["valuation", ideal_file, "--format", "json", "--cache", str(cache)])
        first = capsys.readouterr().out
        files = sorted(p.name for p in cache.iterdir())
        assert files
        run(["valuation", ideal_file, "--format", "json", "--cache", str(cache)])
        second = capsys.readouterr().out
        assert first == second
        assert sorted(p.name for p in cache.iterdir()) == files

    @pytest.mark.parametrize("where", ["file", "below-file", "unwritable"])
    def test_unusable_directory_is_an_input_error(self, capsys, ideal_file,
                                                  tmp_path, monkeypatch, where):
        plain = tmp_path / "file"
        plain.write_text("")
        cache = {"file": plain, "below-file": plain / "sub",
                 "unwritable": tmp_path / "locked"}[where]
        if where == "unwritable":
            monkeypatch.setattr("algval.algmat.os.access", lambda path, mode: False)
        assert run(["bases", ideal_file, "--cache", str(cache)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot use cache directory {cache}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["bases", "cross-check"])
    def test_failed_write_is_an_input_error(self, capsys, command, ideal_file,
                                            matrix_file, tmp_path, monkeypatch):
        # a full disk fails the rename that puts an entry in place
        def full(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("algval.algmat.os.replace", full)
        cache = tmp_path / "cache"
        source = ideal_file if command == "bases" else matrix_file
        assert run([command, source, "--cache", str(cache)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot write cache directory {cache}: No space left on device\n")
        assert list(cache.iterdir()) == []

    def test_directory_in_an_entrys_place(self, capsys, ideal_file, tmp_path):
        cache = tmp_path / "cache"
        argv = ["bases", ideal_file, "--format", "json", "--cache", str(cache)]
        assert run(argv) == 0
        first = capsys.readouterr().out
        # a directory in an entry's place reads as a miss, and the
        # rename of the recomputed entry onto it fails
        entry = sorted(cache.iterdir())[-1]
        entry.unlink()
        entry.mkdir()
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write cache directory {cache}: ")
        assert not list(cache.glob("*.tmp"))
        entry.rmdir()
        assert run(argv) == 0
        assert capsys.readouterr().out == first


def counted_families(monkeypatch):
    """The sizes of the valuations the CLI reads a circuit family off."""
    built, real = [], cli.valuated_circuit_family

    def counted(valuation):
        built.append(valuation.n)
        return real(valuation)

    monkeypatch.setattr(cli, "valuated_circuit_family", counted)
    return built


class TestPipelineHelpers:
    def test_build_pipeline_matrix(self, matrix_file, monkeypatch):
        # the matrix route reads its circuits off the basis values on
        # first use, once
        built = counted_families(monkeypatch)
        pipe = build_pipeline(load_problem(matrix_file))
        assert pipe.valuation.matroid.rank == 3
        assert built == []
        assert len(pipe.vcircuits) == 17
        assert pipe.vcircuits is pipe.vcircuits
        assert len(built) == 1

    @pytest.mark.parametrize("command, extra, families", [
        ("bases", (), 0), ("cocircuits", (), 0),
        ("flock", ("--alpha", "0,0,0,0,0,0,0"), 0),
        ("valuation", (), 1), ("circuits", (), 1), ("verify", ("--box", "0"), 1),
        ("minor", ("--delete", "2", "--contract", "5"), 1), ("cross-check", (), 1),
    ])
    def test_matrix_circuits_built_when_printed(self, capsys, matrix_file, monkeypatch,
                                                 command, extra, families):
        # only documents that print or check the circuits build them, and
        # verify, which uses them three times, builds them once
        built = counted_families(monkeypatch)
        assert run([command, matrix_file, *extra]) == 0
        assert capsys.readouterr().out
        assert len(built) == families

    def test_cross_check_requires_matrix(self, ideal_file):
        with pytest.raises(CliInputError):
            cross_check(load_problem(ideal_file))

    def test_matrix_route_builds_no_kernel_vector(self, capsys, matrix_file,
                                                  monkeypatch):
        # the matrix route reads its circuits off the basis values
        def refuse(*args, **kwargs):
            raise AssertionError("a kernel circuit was built")

        monkeypatch.setattr("algval.toric.KernelCircuit", refuse)
        for command in ("valuation", "verify", "cross-check"):
            assert run([command, matrix_file, "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["input_sha256"]

    def test_matrix_route_stays_on_the_tables(self, capsys, matrix_file,
                                              monkeypatch):
        # these wide matrices have rank at most n/2, so the minors come
        # from their own row-expansion table and cocircuits from the
        # matroid's near sets: no kernel lattice and no dual is built
        golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
        big = os.path.join(golden, "inputs", "seeded-4x12-matrix.json")
        expected = {}
        for path in (matrix_file, big):
            for command in ("valuation", "cocircuits"):
                assert run([command, path, "--format", "json"]) == 0
                expected[path, command] = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise AssertionError("the matrix route left its tables")

        monkeypatch.setattr("algval.toric.kernel_basis", refuse)
        monkeypatch.setattr("algval.valmat.dual", refuse)
        monkeypatch.setattr("algval.algmat.Matroid.dual", refuse)
        for (path, command), out in expected.items():
            assert run([command, path, "--format", "json"]) == 0
            assert capsys.readouterr().out == out


@pytest.fixture(scope="module")
def golden_documents():
    """Every kind of document, built from the four golden inputs."""
    docs = []
    for name in INPUTS:
        problem = load_problem(os.path.join(GOLDEN, "inputs", f"{name}.json"))
        pipe = build_pipeline(problem)
        docs += [valuation_document(pipe, keys) for keys in DOCUMENT_KEYS.values()]
        docs.append(minor_document(pipe, frozenset({1}), frozenset({4})))
        docs.append(flock_document(pipe, tuple(map(int, ALPHA[name].split(",")))))
        docs.append(verify_document(pipe, box_radius=1))
        if problem.kind == "matrix":
            docs.append(cross_check(problem))
    return docs


def _random_text(rng):
    alphabet = ["a", "Z", "0", " ", "\u221e", "\u00e9", '"', "\\", "/", "\n",
                "\t", "\x00", "\x1f", "\x7f", "\U0001d53d"]
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))


def _random_value(rng, depth):
    """A JSON value of the kinds documents hold, nested at most depth deep."""
    kind = rng.randrange(7 if depth else 5)
    if kind == 0:
        return _random_text(rng)
    if kind == 1:
        return rng.choice((0, 1, -1, 2**64 + 1, -(2**64) - 1, 3**50,
                           rng.randint(-10**6, 10**6)))
    if kind == 2:
        return rng.choice((True, False))
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice(([], {}))
    if kind == 5:
        return [_random_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    return {_random_text(rng): _random_value(rng, depth - 1)
            for _ in range(rng.randint(0, 4))}


class TestJsonWriter:
    """emit writes json.dumps(doc, indent=2) and a newline, byte for byte."""

    @staticmethod
    def written(doc):
        stream = io.StringIO()
        emit(doc, "json", stream)
        return stream.getvalue()

    def test_golden_documents(self, golden_documents):
        assert len(golden_documents) == 4 * 8 + 2
        for doc in golden_documents:
            assert self.written(doc) == json.dumps(doc, indent=2) + "\n"

    def test_random_values(self):
        rng = random.Random(2021)
        for _ in range(500):
            value = _random_value(rng, 4)
            assert cli._json(value) == json.dumps(value, indent=2)
        for value in ({}, [], [[[{}]]], {"": {"": []}}, "\u221e", 2**64, -(2**64) - 1):
            assert cli._json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [1.5, (1, 2), {1, 2}, [0, (1,)], {"a": {0.5}},
                                       {"a": [[float("inf")]]}, {1: "int key"}])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            cli._json(value)


def _random_vector_item(rng):
    """{"entries": [...]} as the circuit sections hold it, or, one time in
    three, an item off that shape by one detail."""
    entries = [rng.choice((0, 1, 7, -3, 2**70, "inf", "∞")) for _ in range(rng.randint(1, 5))]
    kind = rng.randrange(12)
    if kind == 0:
        entries[rng.randrange(len(entries))] = rng.choice((True, False))
    elif kind == 1:
        entries = []
    elif kind == 2:
        entries[0] = rng.choice((None, [1], {"a": 1}, []))
    elif kind == 3:
        return {"entries": entries, "extra": 1}
    elif kind == 4:
        return {"entrie": entries}
    elif kind == 5:
        return rng.choice((entries, 3, "inf"))
    return {"entries": entries}


class TestVectorSections:
    """A list of {"entries": [...]} items is written in one join per item;
    the bytes stay those of json.dumps, and any item off that shape sends
    the whole list down the general path."""

    def test_random_sections(self):
        rng = random.Random(2027)
        for _ in range(1500):
            section = [_random_vector_item(rng) for _ in range(rng.randint(1, 6))]
            for value in (section, {"circuits": section}, [[section]]):
                assert cli._json(value) == json.dumps(value, indent=2)

    def test_bools_stay_apart_from_ints(self):
        # True == 1 and False == 0 as dict keys; the memo of atom texts
        # must never write one for the other
        value = [{"entries": [1, 0]}, {"entries": [True, False]}, {"entries": [1, True]}]
        assert cli._json(value) == json.dumps(value, indent=2)
        assert cli._json({"c": value[:1]}) == json.dumps({"c": value[:1]}, indent=2)

    @pytest.mark.parametrize("value", [[{"entries": [1.5]}], [{"entries": [0]}, {"entries": [0.5]}],
                                       [{"entries": [(1,)]}]])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            cli._json(value)
