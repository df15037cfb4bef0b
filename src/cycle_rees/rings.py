"""Exact sparse multivariate polynomials over the rationals.

Variables are organized in named blocks (e.g. an X block and a Y block) so
that block orders and block eliminations can be expressed uniformly.  A
monomial is a dense tuple of non-negative exponents, one per ring variable in
declaration order; a polynomial maps monomials to nonzero Fraction
coefficients.  Everything is immutable and safe to share between tasks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, le, sub
from types import MappingProxyType
from typing import Iterable, Mapping

Exponents = tuple[int, ...]


class RingError(ValueError):
    """Raised on ring/variable mismatches."""


class InvariantError(Exception):
    """An internal consistency check failed: a bug, not a bad input."""


@dataclass(frozen=True)
class RingSpec:
    """A polynomial ring described by ordered, named variable blocks."""

    blocks: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for _, names in self.blocks:
            for name in names:
                if name in seen:
                    raise RingError(f"duplicate variable {name!r}")
                seen.add(name)

    @cached_property
    def variables(self) -> tuple[str, ...]:
        return tuple(name for _, names in self.blocks for name in names)

    @cached_property
    def nvars(self) -> int:
        return len(self.variables)

    @cached_property
    def var_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.variables)}

    @cached_property
    def block_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.blocks)

    def block_vars(self, block: str) -> tuple[str, ...]:
        for name, names in self.blocks:
            if name == block:
                return names
        raise RingError(f"no block {block!r}")

    def block_indices(self, block: str) -> tuple[int, ...]:
        return tuple(self.var_index[v] for v in self.block_vars(block))

    def one_exps(self) -> Exponents:
        return (0,) * self.nvars

    @cached_property
    def display_indices(self) -> tuple[int, ...]:
        """Variable indices in printing order: X block, Y block, S, then rest.

        Within a block, variables print by ascending numeric suffix so that
        monomial text looks like ``x0*x1*y2``.
        """
        preference = {"X": 0, "Y": 1, "S": 2}

        def sort_key(item: tuple[int, str]) -> tuple[int, int, int, str]:
            idx, name = item
            block = next(b for b, names in self.blocks if name in names)
            pref = preference.get(block, 3 + self.block_names.index(block))
            m = re.fullmatch(r"[A-Za-z]+(\d+)", name)
            suffix = int(m.group(1)) if m else -1
            return (pref, suffix, idx, name)

        return tuple(i for i, _ in sorted(enumerate(self.variables), key=sort_key))

    def restrict(self, keep_blocks: Iterable[str]) -> tuple["RingSpec", tuple[int, ...]]:
        """Subring on the given blocks, plus the kept variable indices."""
        keep = tuple(keep_blocks)
        blocks = tuple((name, names) for name, names in self.blocks if name in keep)
        if len(blocks) != len(keep):
            missing = set(keep) - {name for name, _ in blocks}
            raise RingError(f"unknown blocks {sorted(missing)}")
        sub = RingSpec(blocks)
        indices = tuple(self.var_index[v] for v in sub.variables)
        return sub, indices


def cycle_ring(n: int, with_s: bool = False) -> RingSpec:
    """The ring K[y1..y0, x1..x0(, s)] attached to the n-cycle.

    Block-internal order is the priority order y1 > y2 > ... > y_{n-1} > y0
    (same pattern for x), so order keys can read exponents left to right.
    """
    if n < 3:
        raise RingError("cycle size must be at least 3")
    ys = tuple(f"y{i % n}" for i in range(1, n + 1))
    xs = tuple(f"x{i % n}" for i in range(1, n + 1))
    blocks: list[tuple[str, tuple[str, ...]]] = [("Y", ys), ("X", xs)]
    if with_s:
        blocks.append(("S", ("s",)))
    return RingSpec(tuple(blocks))


def x_ring(n: int) -> RingSpec:
    return cycle_ring(n).restrict(["X"])[0]


def y_ring(n: int) -> RingSpec:
    return cycle_ring(n).restrict(["Y"])[0]


# -- monomial helpers (monomials are plain exponent tuples) --

def mono_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


def mono_divides(a: Exponents, b: Exponents) -> bool:
    return all(map(le, a, b))


def mono_div(a: Exponents, b: Exponents) -> Exponents:
    """a / b, assuming divisibility."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: RingSpec, terms: Mapping[Exponents, Fraction]):
        if any(len(exps) != ring.nvars for exps in terms):
            raise RingError("exponent vector length does not match ring")
        self.ring = ring
        self._terms = {e: Fraction(c) for e, c in terms.items() if c}
        self._hash: int | None = None

    # -- constructors --

    @classmethod
    def zero(cls, ring: RingSpec) -> "Polynomial":
        return cls(ring, {})

    @classmethod
    def one(cls, ring: RingSpec) -> "Polynomial":
        return cls(ring, {ring.one_exps(): Fraction(1)})

    @classmethod
    def constant(cls, ring: RingSpec, value: int | Fraction) -> "Polynomial":
        return cls(ring, {ring.one_exps(): Fraction(value)})

    @classmethod
    def variable(cls, ring: RingSpec, name: str) -> "Polynomial":
        exps = [0] * ring.nvars
        try:
            exps[ring.var_index[name]] = 1
        except KeyError:
            raise RingError(f"no variable {name!r} in ring") from None
        return cls(ring, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, ring: RingSpec, exps: Exponents, coeff: int | Fraction = 1) -> "Polynomial":
        return cls(ring, {tuple(exps): Fraction(coeff)})

    # -- mapping access --

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        """Read-only view of the term dict, without a copy."""
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, exps: Exponents) -> Fraction:
        return self._terms.get(exps, Fraction(0))

    def monomials(self) -> list[Exponents]:
        return list(self._terms)

    def block_degrees(self, block: str) -> set[int]:
        """Set of per-term degrees in the given block (bihomogeneity probe)."""
        idxs = self.ring.block_indices(block)
        return {sum(e[i] for i in idxs) for e in self._terms}

    def involves(self, var_indices: Iterable[int]) -> bool:
        idxs = tuple(var_indices)
        return any(e[i] for e in self._terms for i in idxs)

    # -- arithmetic --

    def _require_same_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingError("polynomials live in different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_ring(other)
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            c = out.get(exps, Fraction(0)) + coeff
            if c:
                out[exps] = c
            else:
                out.pop(exps, None)
        return Polynomial(self.ring, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other: "Polynomial | int | Fraction") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(other))
        self._require_same_ring(other)
        out: dict[Exponents, Fraction] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                e = mono_mul(ea, eb)
                c = out.get(e, Fraction(0)) + ca * cb
                if c:
                    out[e] = c
                else:
                    out.pop(e, None)
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.one(self.ring)
        for _ in range(k):
            result = result * self
        return result

    def scale(self, c: Fraction) -> "Polynomial":
        if c == 0:
            return Polynomial.zero(self.ring)
        return Polynomial(self.ring, {e: k * c for e, k in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self._terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"

    # -- ring maps --

    def extend_to(self, ring: RingSpec) -> "Polynomial":
        """Reinterpret in a larger ring containing all our variables by name."""
        try:
            pos = [ring.var_index[v] for v in self.ring.variables]
        except KeyError as exc:
            raise RingError(f"target ring lacks variable {exc.args[0]!r}") from None
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self._terms.items():
            vec = [0] * ring.nvars
            for p, e in zip(pos, exps):
                vec[p] = e
            out[tuple(vec)] = coeff
        return Polynomial(ring, out)

    def project_to(self, ring: RingSpec, indices: tuple[int, ...]) -> "Polynomial":
        """Drop all variables outside ``indices`` (they must not occur)."""
        keep = set(indices)
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self._terms.items():
            if any(e and i not in keep for i, e in enumerate(exps)):
                raise RingError("polynomial involves a dropped variable")
            out[tuple(exps[i] for i in indices)] = coeff
        return Polynomial(ring, out)

    # -- text format --

    def sorted_terms(self, key=None) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending order; ``key`` maps exponents to order keys."""
        if key is None:
            from .orders import canonical_order  # local import to avoid a cycle

            key = canonical_order(self.ring).key_function(self.ring)
        return sorted(self._terms.items(), key=lambda t: key(t[0]), reverse=True)

    def to_text(self, key=None) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for pos, (exps, coeff) in enumerate(self.sorted_terms(key)):
            body = self._monomial_text(exps)
            mag = abs(coeff)
            if body == "1":
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if pos == 0:
                chunks.append(text if coeff > 0 else f"-{text}")
            else:
                chunks.append(f"{' + ' if coeff > 0 else ' - '}{text}")
        return "".join(chunks)

    def _monomial_text(self, exps: Exponents) -> str:
        parts = []
        names = self.ring.variables
        for i in self.ring.display_indices:
            e = exps[i]
            if e == 1:
                parts.append(names[i])
            elif e > 1:
                parts.append(f"{names[i]}^{e}")
        return "*".join(parts) if parts else "1"


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z]\w*)|(?P<op>[-+*^]))")


def parse_polynomial(ring: RingSpec, text: str) -> Polynomial:
    """Parse the canonical text format (plus arbitrary whitespace)."""
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise RingError(f"cannot parse {text[pos:]!r}")
            break
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))

    terms: dict[Exponents, Fraction] = {}
    i = 0

    def flush(sign: int, coeff: Fraction, exps: list[int]) -> None:
        e = tuple(exps)
        c = terms.get(e, Fraction(0)) + sign * coeff
        if c:
            terms[e] = c
        else:
            terms.pop(e, None)

    sign = 1
    first = True
    while i < len(tokens):
        if tokens[i] == ("op", "+"):
            sign, i = 1, i + 1
        elif tokens[i] == ("op", "-"):
            sign, i = -1, i + 1
        elif not first:
            raise RingError("missing '+' or '-' between terms")
        coeff = Fraction(1)
        exps = [0] * ring.nvars
        saw_factor = False
        while i < len(tokens):
            kind, value = tokens[i]
            if kind == "num":
                coeff *= Fraction(value)
            elif kind == "name":
                if value not in ring.var_index:
                    raise RingError(f"unknown variable {value!r}")
                power = 1
                if i + 2 < len(tokens) and tokens[i + 1] == ("op", "^") and tokens[i + 2][0] == "num":
                    power = int(tokens[i + 2][1])
                    i += 2
                exps[ring.var_index[value]] += power
            else:
                break
            saw_factor = True
            i += 1
            if i < len(tokens) and tokens[i] == ("op", "*"):
                i += 1
            else:
                break
        if not saw_factor:
            raise RingError("empty term")
        flush(sign, coeff, exps)
        first = False
    if first and tokens:
        raise RingError("no terms parsed")
    return Polynomial(ring, terms)
