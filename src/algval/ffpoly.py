"""Sparse multivariate polynomials over a prime field.

A polynomial is a map from exponent vectors (tuples of nonnegative
integers, one slot per ambient variable) to nonzero coefficients in
[1, p).  The module also provides the text parser for polynomial
expressions and the exponent-valuation extractor that turns a circuit
polynomial into its vector of minimum p-adic exponent valuations.
"""

from __future__ import annotations

INF = float("inf")

# Miller-Rabin witnesses, exact below their least strong pseudoprime _MR_BOUND.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"primality is decided only below {_MR_BOUND}, got {n}")
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def p_adic_valuation(k: int, p: int) -> int:
    """Largest e with p**e dividing the positive integer k."""
    if k < 1:
        raise ValueError(f"p-adic valuation needs a positive integer, got {k}")
    if p < 2:
        raise ValueError(f"p-adic valuation needs p >= 2, got {p}")
    e = 0
    while k % p == 0:
        k //= p
        e += 1
    return e


class PrimeField:
    """The field of integers mod a word-sized prime p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"characteristic must be a prime, got {p!r}")
        if p >= 1 << 63:
            raise ValueError(f"characteristic {p} exceeds word size")
        self.p = p

    def inv(self, a: int) -> int:
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def _display_key(expo):
    # graded-lex: higher total degree first, ties broken lexicographically
    return (sum(expo), expo)


class Polynomial:
    """Immutable sparse polynomial over F_p in a fixed variable context."""

    __slots__ = ("field", "vars", "terms", "_hash")

    def __init__(self, field: PrimeField, vars: tuple, terms):
        self.field = field
        self.vars = tuple(vars)
        n = len(self.vars)
        clean = {}
        for expo, coeff in terms.items():
            expo = tuple(expo)
            if len(expo) != n or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent vector {expo} for {n} variables")
            c = coeff % field.p
            if c:
                if expo in clean:
                    raise ValueError(f"duplicate exponent vector {expo}")
                clean[expo] = c
        self.terms = clean
        self._hash = None

    @classmethod
    def zero(cls, field, vars):
        return cls(field, vars, {})

    @classmethod
    def constant(cls, field, vars, c):
        return cls(field, vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, field, vars, i):
        expo = [0] * len(vars)
        expo[i] = 1
        return cls(field, vars, {tuple(expo): 1})

    @classmethod
    def monomial(cls, field, vars, expo, coeff=1):
        return cls(field, vars, {tuple(expo): coeff})

    def is_zero(self):
        return not self.terms

    def support(self) -> frozenset:
        """Indices of the variables that occur in some term."""
        occ = set()
        for expo in self.terms:
            for i, e in enumerate(expo):
                if e:
                    occ.add(i)
        return frozenset(occ)

    def _compat(self, other):
        if self.field != other.field or self.vars != other.vars:
            raise ValueError("polynomials come from different contexts "
                             f"(p={self.field.p} vars={self.vars} vs "
                             f"p={other.field.p} vars={other.vars})")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._compat(other)
        out = dict(self.terms)
        for expo, c in other.terms.items():
            out[expo] = out.get(expo, 0) + c
        return Polynomial(self.field, self.vars, out)

    def __neg__(self):
        return Polynomial(self.field, self.vars,
                          {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._compat(other)
        out = dict(self.terms)
        for expo, c in other.terms.items():
            out[expo] = out.get(expo, 0) - c
        return Polynomial(self.field, self.vars, out)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(self.field, self.vars,
                              {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._compat(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = (out.get(key, 0) + c1 * c2) % self.field.p
        return Polynomial(self.field, self.vars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.field == other.field
                and self.vars == other.vars
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.p, self.vars,
                               frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, key=_display_key, reverse=True):
            c = self.terms[expo]
            factors = []
            for i, e in enumerate(expo):
                if e == 1:
                    factors.append(self.vars[i])
                elif e > 1:
                    factors.append(f"{self.vars[i]}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


class CircuitVector:
    """Element of (Z u {inf})^n, considered up to shifts by multiples of
    the all-ones vector.  The canonical representative of a shift class
    has minimum finite entry 0."""

    __slots__ = ("entries", "support")

    def __init__(self, entries):
        clean = []
        for e in entries:
            if e == INF:
                clean.append(INF)
            elif isinstance(e, int):
                clean.append(e)
            else:
                raise ValueError(f"entry must be an int or inf, got {e!r}")
        if not any(e != INF for e in clean):
            raise ValueError("all-infinite vector is not a circuit vector")
        self.entries = tuple(clean)
        self.support = frozenset(i for i, e in enumerate(clean) if e != INF)

    @classmethod
    def trusted(cls, entries, support):
        """A valid entries tuple and its support frozenset: no check runs."""
        out = cls.__new__(cls)
        out.entries, out.support = entries, support
        return out

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def shifted(self, lam: int) -> "CircuitVector":
        return CircuitVector(tuple(e if e == INF else e + lam
                                   for e in self.entries))

    def canonical(self) -> "CircuitVector":
        m = min(e for e in self.entries if e != INF)
        return self if m == 0 else self.shifted(-m)

    @property
    def is_canonical(self) -> bool:
        return min(e for e in self.entries if e != INF) == 0

    def sort_key(self):
        # deterministic global order: support lexicographically, then entries
        return (tuple(sorted(self.support)), self.entries)

    def __eq__(self, other):
        return isinstance(other, CircuitVector) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __str__(self):
        return "(" + ", ".join("inf" if e == INF else str(e)
                               for e in self.entries) + ")"

    __repr__ = __str__


def circuit_vector(f: Polynomial) -> CircuitVector:
    """Entry i is the minimum p-adic valuation of X_i's exponent over the
    terms of f where that exponent is nonzero; entries of absent
    variables are infinite.  The support equals the variable set of f."""
    if f.is_zero():
        raise ValueError("zero polynomial has no circuit vector")
    p = f.field.p
    best = [INF] * len(f.vars)
    for expo in f.terms:
        for i, e in enumerate(expo):
            if e:
                v = p_adic_valuation(e, p)
                if v < best[i]:
                    best[i] = v
    if not any(b != INF for b in best):
        raise ValueError("constant polynomial has empty support")
    return CircuitVector(best)


class ParseError(ValueError):
    """Malformed polynomial text; position is a 0-based character offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", int(text[i:j]), i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], i))
            i = j
        elif ch in "+-*^":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("EOF", None, n))
    return tokens


def parse_polynomial(text: str, variables, p: int) -> Polynomial:
    """Parse ``term (('+'|'-') term)*`` where a term is an optional integer
    coefficient and '*'-separated factors ``var['^'exponent]``.  A bare
    integer is a constant term; integer literals reduce mod p."""
    field = PrimeField(p)
    variables = tuple(variables)
    index = {name: i for i, name in enumerate(variables)}
    if len(index) != len(variables):
        raise ValueError(f"variable names are not unique: {variables}")
    toks = _tokenize(text)
    pos = 0

    def peek():
        return toks[pos]

    def take(kind):
        nonlocal pos
        tok = toks[pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        pos += 1
        return tok

    def factor(expo):
        kind, value, at = take("IDENT")
        if value not in index:
            raise ParseError(f"unknown variable {value!r}", at)
        e = 1
        if peek()[0] == "^":
            take("^")
            _, e, eat = take("INT")
            if e < 1:
                raise ParseError("exponent must be a positive integer", eat)
        expo[index[value]] += e

    def term():
        coeff = 1
        expo = [0] * len(variables)
        kind = peek()[0]
        if kind == "INT":
            coeff = take("INT")[1]
            if peek()[0] == "*":
                take("*")
                factor(expo)
            else:
                return coeff, tuple(expo)
        elif kind == "IDENT":
            factor(expo)
        else:
            raise ParseError(f"expected a term, found {peek()[1]!r}", peek()[2])
        while peek()[0] == "*":
            take("*")
            factor(expo)
        return coeff, tuple(expo)

    terms = {}
    sign = 1
    if peek()[0] in ("+", "-"):
        sign = -1 if take(peek()[0])[0] == "-" else 1
    while True:
        coeff, expo = term()
        terms[expo] = terms.get(expo, 0) + sign * coeff
        kind, _, at = peek()
        if kind == "EOF":
            break
        if kind == "+":
            sign = 1
        elif kind == "-":
            sign = -1
        else:
            raise ParseError(f"expected '+', '-' or end of input", at)
        pos += 1
    return Polynomial(field, variables, terms)
