"""Command-line front end.

Reads a problem file holding either a prime-ideal presentation
(variables plus generator strings) or an integer exponent matrix,
computes the requested valuated-matroid objects, and writes a text or
JSON document to standard output.  Matrix inputs run the determinant
route, whose valuated circuits are read off the basis values; ideal
inputs run the elimination route, whose basis values are walked from
its circuit polynomials; cross-check runs both on the same matrix and
compares.  verify checks a certificate chain (verify_document), one
check per Plucker relation and per vector, never a pair of vectors.

Exit codes: 0 success, 1 input error, 2 verification failure or
cross-check mismatch, 3 internal inconsistency (independent sets that
are not a matroid, a zero or non-principal elimination ideal of a
circuit, or inconsistent circuit data).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

from algval.algmat import EliminationOracle, bases, circuits
from algval.ffpoly import INF, PrimeField, is_prime
from algval.groebner import Ideal, NotPrincipalError
from algval.toric import IntMatrix, linear_valuated_matroid, toric_ideal
from algval.valmat import (
    InconsistentValuationError,
    Valuation,
    check_exchange_consistency,
    check_supports,
    cocircuits,
    dual,
    minor,
    valuated_circuit_family,
    valuated_circuits,
    valuation_from_circuits,
)
from algval.flock import check_box_radius, check_flock_axioms, flock_slice


class CliInputError(Exception):
    """Bad command line or problem file; exits with code 1."""


@dataclass
class ProblemInput:
    kind: str
    p: int
    variables: tuple = ()
    generators: tuple = ()
    matrix: IntMatrix = None


def load_problem(path) -> ProblemInput:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path} is not valid JSON: {exc}")
    except UnicodeDecodeError as exc:
        raise CliInputError(f"{path} is not UTF-8 text: {exc}")
    except RecursionError:
        raise CliInputError(f"{path} is nested too deeply to read")
    except ValueError as exc:
        # an integer literal longer than the interpreter converts; the
        # rest of the message names a Python setting
        raise CliInputError(f"{path} holds a number too long to read: "
                            f"{str(exc).split(':')[0]}")
    if not isinstance(raw, dict):
        raise CliInputError("problem file must hold a JSON object")
    kind = raw.get("kind")
    if kind not in ("ideal", "matrix"):
        raise CliInputError('problem "kind" must be "ideal" or "matrix"')
    p = raw.get("p")
    try:
        if not isinstance(p, int) or not is_prime(p):
            raise CliInputError('"p" must be a prime integer')
    except ValueError as exc:
        raise CliInputError(f'"p": {exc}')
    if kind == "ideal":
        variables = raw.get("vars")
        generators = raw.get("generators")
        if (not isinstance(variables, list) or not variables
                or not all(isinstance(v, str) for v in variables)):
            raise CliInputError('"vars" must be a nonempty list of names')
        if len(set(variables)) != len(variables):
            raise CliInputError("variable names must be unique")
        if not isinstance(generators, list) or not all(
            isinstance(t, str) for t in generators
        ):
            raise CliInputError('"generators" must be a list of strings')
        return ProblemInput("ideal", p, tuple(variables), tuple(generators))
    rows, cols = raw.get("rows"), raw.get("cols")
    entries = raw.get("entries")
    # exact type checks, since JSON true and false load as bool, an int
    if type(rows) is not int or type(cols) is not int or rows < 1 or cols < 1:
        raise CliInputError('"rows" and "cols" must be positive integers')
    if (not isinstance(entries, list) or len(entries) != rows
            or any(not isinstance(r, list) or len(r) != cols for r in entries)
            or any(type(e) is not int for r in entries for e in r)):
        raise CliInputError('"entries" must be a rows x cols integer array')
    return ProblemInput("matrix", p, matrix=IntMatrix(tuple(map(tuple, entries))))


def problem_fingerprint(problem: ProblemInput) -> str:
    if problem.kind == "ideal":
        payload = {
            "kind": "ideal",
            "p": problem.p,
            "vars": list(problem.variables),
            "generators": list(problem.generators),
        }
    else:
        payload = {
            "kind": "matrix",
            "p": problem.p,
            "entries": [list(r) for r in problem.matrix.rows],
        }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Pipeline:
    """Everything the subcommands consume, computed on one route.  The
    elimination route passes its circuits; otherwise the circuits are
    read off the basis values, as for cocircuits and minors, the first
    time a document asks for them."""

    problem: ProblemInput
    fingerprint: str
    valuation: Valuation
    _vcircuits: list = None

    @property
    def vcircuits(self) -> list:
        if self._vcircuits is None:
            self._vcircuits = valuated_circuit_family(self.valuation)
        return self._vcircuits


def _ideal_route(ideal, cache_dir, fingerprint):
    try:
        oracle = EliminationOracle(ideal, cache_dir, fingerprint[:16])
    except OSError as exc:
        raise CliInputError(
            f"cannot use cache directory {cache_dir}: {exc.strerror or exc}"
        )
    try:
        if not oracle.independent(frozenset()):
            raise CliInputError("the unit ideal carries no matroid")
        # the oracle keeps the matroid, so circuits() reuses this one
        matroid = bases(ideal, oracle=oracle)
        vcircs = valuated_circuits(circuits(ideal, oracle=oracle))
        oracle.save()
    except OSError as exc:
        # the oracle reads an unusable file as a miss, so only save() fails
        raise CliInputError(
            f"cannot write cache directory {cache_dir}: {exc.strerror or exc}"
        )
    return valuation_from_circuits(matroid, vcircs), vcircs


def _check_elimination_field(p):
    """The matrix route takes any prime p; the elimination route needs a
    word-sized one."""
    try:
        PrimeField(p)
    except ValueError as exc:
        raise CliInputError(f"elimination route: {exc}")


def build_pipeline(problem, cache_dir=None) -> Pipeline:
    fingerprint = problem_fingerprint(problem)
    if problem.kind == "matrix":
        valuation = linear_valuated_matroid(problem.matrix, problem.p)
        return Pipeline(problem, fingerprint, valuation)
    _check_elimination_field(problem.p)
    try:
        ideal = Ideal.from_strings(problem.p, problem.variables, problem.generators)
    except ValueError as exc:
        raise CliInputError(f"bad generator: {exc}")
    routed = _ideal_route(ideal, cache_dir, fingerprint)
    return Pipeline(problem, fingerprint, *routed)


# -- documents ---------------------------------------------------------------


def _vector_doc(vec):
    return {"entries": ["inf" if e == INF else e for e in vec.entries]}


def _bases_doc(valuation):
    labels = valuation.labels
    return [{"set": sorted(labels[i] + 1 for i in b), "value": v}
            for b, v in valuation.items()]


# the keys each subcommand prints, in order
DOCUMENT_KEYS = {
    "valuation": ("input_sha256", "n", "rank", "p", "bases", "circuits",
                  "cocircuits"),
    "minor": ("input_sha256", "n", "rank", "p", "elements", "bases",
              "circuits", "cocircuits"),
    "bases": ("input_sha256", "n", "rank", "p", "bases"),
    "circuits": ("input_sha256", "n", "p", "circuits"),
    "cocircuits": ("input_sha256", "n", "p", "cocircuits"),
}


def valuation_document(pipe: Pipeline, keys=DOCUMENT_KEYS["valuation"]) -> dict:
    """The requested keys of the valuation document; sections that are
    not asked for are not computed."""
    valuation = pipe.valuation
    build = {
        "input_sha256": lambda: pipe.fingerprint,
        "n": lambda: valuation.n,
        "rank": lambda: valuation.matroid.rank,
        "p": lambda: pipe.problem.p,
        "elements": lambda: [e + 1 for e in valuation.labels],
        "bases": lambda: _bases_doc(valuation),
        "circuits": lambda: [_vector_doc(c) for c in pipe.vcircuits],
        "cocircuits": lambda: [_vector_doc(c) for c in cocircuits(valuation)],
    }
    return {key: build[key]() for key in keys}


def minor_document(pipe: Pipeline, delete, contract) -> dict:
    sub = minor(pipe.valuation, delete=delete, contract=contract)
    subpipe = Pipeline(pipe.problem, pipe.fingerprint, sub)
    return valuation_document(subpipe, DOCUMENT_KEYS["minor"])


def flock_document(pipe: Pipeline, alpha) -> dict:
    s = flock_slice(pipe.valuation, alpha)
    return {
        "input_sha256": pipe.fingerprint,
        "n": pipe.valuation.n,
        "p": pipe.problem.p,
        "alpha": list(alpha),
        "g": s.g_value,
        "bases": [sorted(i + 1 for i in b) for b in s.matroid.bases],
    }


def verify_document(pipe: Pipeline, box_radius=None) -> dict:
    """The certificate chain, one check per relation or vector.  The
    3-term Plucker relations make the values a valuated matroid; one
    canonical circuit on each circuit of the matroid, each meeting the
    exchange identity, makes the circuits its valuated circuits; so for
    the cocircuits against the hyperplane complements and the dual.
    Those satisfy the circuit axioms and are orthogonal (Murota-Tamura,
    On circuit valuation of matroids, Adv. Appl. Math. 2001;
    Dress-Wenzel, Perfect matroids, Adv. Math. 1992)."""
    valuation = pipe.valuation
    matroid = valuation.matroid
    suites = [("plucker-3term", valuation.plucker()),
              ("circuit-supports", check_supports(pipe.vcircuits, matroid.circuits())),
              ("exchange-identity",
               check_exchange_consistency(valuation, pipe.vcircuits))]
    dualized = dual(valuation)
    cocircs = cocircuits(valuation)
    ground = frozenset(range(valuation.n))
    hyperplanes = matroid.hyperplanes() if matroid.rank else []
    duality = check_supports(cocircs, [ground - h for h in hyperplanes])
    duality.checked += 1
    if dual(dualized) != valuation:
        duality.violations.insert(0, "double dual differs from the valuation")
    suites += [("duality", duality),
               ("cocircuit-exchange", check_exchange_consistency(dualized, cocircs)),
               ("flock-axioms", check_flock_axioms(valuation, radius=box_radius))]
    return {
        "input_sha256": pipe.fingerprint,
        "ok": all(report.ok for _, report in suites),
        "suites": [
            {"name": name, "checked": report.checked, "violations": report.violations}
            for name, report in suites
        ],
    }


def cross_check(problem: ProblemInput, cache_dir=None) -> dict:
    """Run the determinant route and the elimination route on the same
    matrix and compare valuations and canonical circuit families."""
    if problem.kind != "matrix":
        raise CliInputError("cross-check needs a matrix input")
    fingerprint = problem_fingerprint(problem)
    p = problem.p
    _check_elimination_field(p)
    direct = linear_valuated_matroid(problem.matrix, p)
    ideal = toric_ideal(problem.matrix, p)
    derived, derived_circuits = _ideal_route(ideal, cache_dir, fingerprint)
    details = []
    valuations_match = True
    if set(direct.values) != set(derived.values):
        valuations_match = False
        details.append("basis families differ between the routes")
    else:
        for b in direct.matroid.bases:
            lhs, rhs = direct.values[b], derived.values[b]
            if lhs != rhs:
                valuations_match = False
                details.append(
                    f"value of basis {sorted(i + 1 for i in b)}: "
                    f"determinant route {lhs}, elimination route {rhs}"
                )
    circuits_match = valuated_circuit_family(direct) == derived_circuits
    if not circuits_match:
        details.append("canonical circuit families differ between the routes")
    return {
        "input_sha256": fingerprint,
        "n": problem.matrix.n,
        "p": p,
        "valuations_match": valuations_match,
        "circuits_match": circuits_match,
        "agree": valuations_match and circuits_match,
        "details": details,
    }


# -- rendering ---------------------------------------------------------------


def _infinity_symbol(stream):
    try:
        "∞".encode(stream.encoding or "ascii")
        return "∞"
    except (UnicodeEncodeError, LookupError):
        return "inf"


def _render_vector(entries, inf_symbol):
    return "(" + ", ".join(
        inf_symbol if e == "inf" else str(e) for e in entries
    ) + ")"


def render_text(doc: dict, stream) -> str:
    inf_symbol = _infinity_symbol(stream)
    lines = [f"input {doc['input_sha256'][:16]}"]
    scalars = [k for k in ("n", "rank", "p", "g") if k in doc]
    if scalars:
        lines.append("  ".join(f"{k} {doc[k]}" for k in scalars))
    if "alpha" in doc:
        lines.append("alpha (" + ", ".join(map(str, doc["alpha"])) + ")")
    if "elements" in doc:
        lines.append("elements {" + ",".join(map(str, doc["elements"])) + "}")
    if "agree" in doc:
        lines.append(f"agree {str(doc['agree']).lower()}")
        for d in doc["details"]:
            lines.append(f"  {d}")
    if "bases" in doc:
        lines.append(f"bases ({len(doc['bases'])}):")
        for item in doc["bases"]:
            if isinstance(item, dict):
                label = "{" + ",".join(map(str, item["set"])) + "}"
                lines.append(f"  {label}  {item['value']}")
            else:
                lines.append("  {" + ",".join(map(str, item)) + "}")
    for key in ("circuits", "cocircuits"):
        if key in doc:
            lines.append(f"{key} ({len(doc[key])}):")
            for item in doc[key]:
                lines.append("  " + _render_vector(item["entries"], inf_symbol))
    if "suites" in doc:
        lines.append(f"ok {str(doc['ok']).lower()}")
        for suite in doc["suites"]:
            status = "pass" if not suite["violations"] else "FAIL"
            lines.append(
                f"  {suite['name']}: {status} ({suite['checked']} checks)"
            )
            for v in suite["violations"]:
                lines.append(f"    {v}")
    return "\n".join(lines) + "\n"


# the encoders of the JSON atoms, by exact class
_ATOMS = {str: encode_basestring_ascii, int: int.__repr__,
          bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _vector_texts(items, indent):
    """The JSON texts of items, each written at indent, when every item
    is {"entries": [...]} over at least one atom, each an int or a str, as
    the circuit and cocircuit sections are; else None.  The wrapper is
    literal text and each entry list one join over a memo of atom texts;
    the memo is built only once every atom's type is known to be int or
    str, since True and 1 are one key."""
    if type(items[0]) is not dict or not all(
            type(x) is dict and len(x) == 1 and type(x.get("entries")) is list
            and x["entries"] for x in items):
        return None
    entries = [x["entries"] for x in items]
    if not set(map(type, chain.from_iterable(entries))) <= {int, str}:
        return None
    texts = {a: _ATOMS[type(a)](a) for a in set(chain.from_iterable(entries))}
    inner = indent + "  "
    head, sep = "{" + inner + '"entries": [' + inner + "  ", "," + inner + "  "
    tail = inner + "]" + indent + "}"
    return [head + sep.join(map(texts.__getitem__, e)) + tail for e in entries]


def _json(value, indent="\n") -> str:
    """json.dumps(value, indent=2), byte for byte, for a value built of
    dicts with str keys, lists, str, int, bool and None: each list's atoms
    are encoded in one pass and joined once, a list of circuit vectors is
    written by _vector_texts, and only other containers recurse."""
    atom = _ATOMS.get(type(value))
    if atom is not None:
        return atom(value)
    inner = indent + "  "
    if type(value) is list:
        if not value:
            return "[]"
        parts = _vector_texts(value, inner) or [
            _ATOMS[type(x)](x) if type(x) in _ATOMS else _json(x, inner)
            for x in value]
        return "[" + inner + ("," + inner).join(parts) + indent + "]"
    if type(value) is dict:
        if not value:
            return "{}"
        parts = [encode_basestring_ascii(k) + ": " + _json(v, inner)
                 for k, v in value.items()]
        return "{" + inner + ("," + inner).join(parts) + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def emit(doc: dict, fmt: str, stream) -> None:
    if fmt == "json":
        stream.write(_json(doc) + "\n")
    else:
        stream.write(render_text(doc, stream))


# -- argument handling -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)


def _parse_int_list(text, what):
    if not text:
        return ()
    out = []
    for chunk in text.split(","):
        try:
            out.append(int(chunk))
        except ValueError:
            raise CliInputError(f"bad {what} entry {chunk!r}")
    return tuple(out)


def _parse_elements(text, n, what):
    out = _parse_int_list(text, what)
    for e in out:
        if not 1 <= e <= n:
            raise CliInputError(f"{what} element {e} outside 1..{n}")
    return frozenset(e - 1 for e in out)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="algval", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, extra in (
        ("circuits", ()),
        ("bases", ()),
        ("valuation", ()),
        ("cocircuits", ()),
        ("minor", ("delete", "contract")),
        ("flock", ("alpha",)),
        ("verify", ("box",)),
        ("cross-check", ()),
    ):
        p = sub.add_parser(name)
        p.add_argument("input", help="problem file (JSON)")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--cache", metavar="DIR", default=None)
        if "delete" in extra:
            p.add_argument("--delete", default="", metavar="i,j,...")
            p.add_argument("--contract", default="", metavar="i,j,...")
        if "alpha" in extra:
            p.add_argument("--alpha", required=True, metavar="c1,...,cn")
        if "box" in extra:
            p.add_argument("--box", type=int, default=None, metavar="R")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first run in a process: parse_args
    keeps no state between calls, and building costs about 25 times
    what parsing does."""
    return build_parser()


def _merge_value_flags(argv):
    # lets "--alpha -1,0,..." survive argparse's option detection
    out = []
    skip = False
    for i, arg in enumerate(argv):
        if skip:
            skip = False
            continue
        if arg in ("--alpha", "--delete", "--contract") and i + 1 < len(argv):
            out.append(f"{arg}={argv[i + 1]}")
            skip = True
        else:
            out.append(arg)
    return out


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_value_flags(list(argv))
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:  # --help
            return exc.code or 0
        if args.command == "verify" and args.box is not None and args.box < 0:
            raise CliInputError(f"--box must be at least 0, got {args.box}")
        problem = load_problem(args.input)
        # flags are refused before the valuation is built, from the
        # ground set's size
        n = problem.matrix.n if problem.kind == "matrix" else len(problem.variables)
        if args.command == "verify" and args.box is not None:
            try:
                check_box_radius(n, args.box)
            except ValueError as exc:
                raise CliInputError(f"--box: {exc}")
        elif args.command == "minor":
            delete = _parse_elements(args.delete, n, "delete")
            contract = _parse_elements(args.contract, n, "contract")
            if delete & contract:
                raise CliInputError("delete and contract sets overlap")
        elif args.command == "flock":
            alpha = _parse_int_list(args.alpha, "alpha")
            if len(alpha) != n:
                raise CliInputError(f"alpha needs {n} entries, got {len(alpha)}")
        if args.command == "cross-check":
            doc = cross_check(problem, cache_dir=args.cache)
            emit(doc, args.format, sys.stdout)
            return 0 if doc["agree"] else 2
        pipe = build_pipeline(problem, cache_dir=args.cache)
        if args.command == "verify":
            doc = verify_document(pipe, box_radius=args.box)
            emit(doc, args.format, sys.stdout)
            return 0 if doc["ok"] else 2
        if args.command == "minor":
            doc = minor_document(pipe, delete, contract)
        elif args.command == "flock":
            doc = flock_document(pipe, alpha)
        else:
            doc = valuation_document(pipe, DOCUMENT_KEYS[args.command])
        emit(doc, args.format, sys.stdout)
        return 0
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NotPrincipalError, InconsistentValuationError) as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
