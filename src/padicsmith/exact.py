"""Exact integer and p-adic primitives shared by the rest of the package.

Everything here is exact by contract: Python ints and fractions.Fraction
only.  No floating point, no numpy.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Sequence
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from operator import mul


class MatrixParseError(ValueError):
    """Malformed matrix input; the message carries line/entry diagnostics."""


class UnsupportedSizeError(ValueError):
    """An algorithm intended for small matrices was asked for a large one."""


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed its work budget."""


# Largest box, in matrices, that an exhaustive enumeration takes by default
DEFAULT_BUDGET = 2**30


class Convention(str, Enum):
    """Which matrices form the denominator of a density row."""

    ALL = "all"
    DET_FILTERED = "det-filtered"


_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: The least composite that passes Miller-Rabin to every base above
#: (Sorenson and Webster, 2015), so the test is exact below it.
_PRIME_LIMIT = 3317044064679887385961981


@lru_cache(maxsize=256)
def is_prime(p: int) -> bool:
    """Deterministic primality by Miller-Rabin on the bases 2, ..., 41.

    Exact below _PRIME_LIMIT (about 3.3e24); raises ValueError at or
    above it rather than guess.
    """
    if p >= _PRIME_LIMIT:
        raise ValueError(f"primality is decided only below {_PRIME_LIMIT}, got {p}")
    if p < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")


class _Infinity:
    """The valuation of zero.

    A dedicated type rather than a sentinel int so that accidental
    arithmetic comparisons against real valuations cannot go quietly
    wrong.  Compares strictly greater than every int and Fraction,
    equal only to itself.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITY"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Infinity)

    def __hash__(self) -> int:
        return hash("padicsmith.INFINITY")

    def _comparable(self, other: object) -> bool:
        return isinstance(other, (int, Fraction, _Infinity))

    def __lt__(self, other: object) -> bool:
        if not self._comparable(other):
            return NotImplemented
        return False

    def __le__(self, other: object) -> bool:
        if not self._comparable(other):
            return NotImplemented
        return isinstance(other, _Infinity)

    def __gt__(self, other: object) -> bool:
        if not self._comparable(other):
            return NotImplemented
        return not isinstance(other, _Infinity)

    def __ge__(self, other: object) -> bool:
        if not self._comparable(other):
            return NotImplemented
        return True

    def __add__(self, other: object):
        if not self._comparable(other):
            return NotImplemented
        return self

    __radd__ = __add__

    def __sub__(self, other: object):
        if isinstance(other, _Infinity):
            raise ArithmeticError("INFINITY - INFINITY is undefined")
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self

    def __reduce__(self):
        return (_infinity_instance, ())


def _infinity_instance() -> "_Infinity":
    return INFINITY


INFINITY = _Infinity()

#: A p-adic valuation: a plain int, or INFINITY for the valuation of zero.
Valuation = int | _Infinity


def val_p(a: int, p: int) -> Valuation:
    """Largest k with p**k dividing a, or INFINITY for a == 0.

    Examples:
        >>> val_p(40952, 2)
        3
        >>> val_p(-27, 3)
        3
        >>> val_p(0, 5)
        INFINITY
    """
    _require_prime(p)
    return _val(a, p)


def _val(a: int, p: int) -> Valuation:
    """val_p without the primality check, for callers that checked p once."""
    if a == 0:
        return INFINITY
    a = abs(a)
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


class _Frozen:
    """Base of an immutable value class that validates in its constructor.

    A subclass lists its fields in __slots__ and sets them in __init__
    with object.__setattr__.  Equality (same class only), the hash, the
    repr and pickling follow the fields in that order, and assigning or
    deleting an attribute afterwards raises AttributeError.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({args})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _check_entries(rows) -> None:
    """Raise ValueError naming the first entry of rows that is not an int (a bool included)."""
    for r in rows:
        for x in r:
            if type(x) is not int:
                raise ValueError(f"entries must be int, got {x!r}")


class IntMatrix(_Frozen):
    """A square integer matrix, immutable, entries stored row-major."""

    __slots__ = ("n", "rows")
    n: int
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, rows: tuple[tuple[int, ...], ...]) -> None:
        if n < 1:
            raise ValueError(f"matrix dimension must be >= 1, got {n}")
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"expected {n} rows of {n} entries")
        _check_entries(rows)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        """Build from any iterable of iterables of ints."""
        tup = tuple(tuple(r) for r in rows)
        return cls(len(tup), tup)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, n: int) -> "IntMatrix":
        return cls(n, tuple((0,) * n for _ in range(n)))

    @classmethod
    def diagonal(cls, entries) -> "IntMatrix":
        ent = tuple(int(x) for x in entries)
        n = len(ent)
        return cls(n, tuple(tuple(ent[i] if i == j else 0 for j in range(n)) for i in range(n)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        n = self.n
        cols = list(zip(*other.rows))
        return IntMatrix(
            n,
            tuple(
                tuple(sum(map(mul, row, col)) for col in cols)
                for row in self.rows
            ),
        )

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    def to_text(self) -> str:
        """Serialize to the plain text wire format (dimension line, then rows)."""
        lines = [str(self.n)]
        lines.extend(" ".join(str(x) for x in r) for r in self.rows)
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {"n": self.n, "entries": self.to_lists()}


MatrixLike = IntMatrix | Sequence[Sequence[int]]


def _trusted_matrix(n: int, rows: tuple[tuple[int, ...], ...]) -> IntMatrix:
    """An IntMatrix from rows its caller built and checked: n >= 1 tuples
    of n ints each.  The parsers check every entry as they read it, so
    this skips IntMatrix.__init__ and its second pass over them."""
    A = object.__new__(IntMatrix)
    object.__setattr__(A, "n", n)
    object.__setattr__(A, "rows", rows)
    return A


def _as_matrix(A: MatrixLike) -> IntMatrix:
    """Pass an IntMatrix through; build one from nested rows otherwise."""
    if isinstance(A, IntMatrix):
        return A
    if isinstance(A, str):
        raise ValueError("got a string where a matrix was expected; parse_matrix reads the wire formats")
    return IntMatrix.from_rows(A)


def parse_matrix(text: str) -> IntMatrix:
    """Parse a matrix from either wire format.

    Plain text: first non-blank line is the dimension n, followed by n
    lines of n whitespace-separated integers.  JSON: an object with keys
    "n" and "entries".  The format is auto-detected from the first
    non-whitespace character.  Raises MatrixParseError with line/entry
    diagnostics on malformed input.
    """
    stripped = text.lstrip()
    if not stripped:
        raise MatrixParseError("empty input")
    if stripped[0] in "{[":
        return _parse_matrix_json(text)
    return _parse_matrix_text(text)


def _int_error(token: str, where: str) -> MatrixParseError:
    """The error for a token at `where` that int() refused, saying why."""
    body = token.strip()
    if body[:1] in ("+", "-"):
        body = body[1:]
    if body.isdecimal():
        # int() takes any run of decimal digits up to its digit limit
        limit = sys.get_int_max_str_digits()
        return MatrixParseError(
            f"{where}: integer has {len(body)} digits, more than int()'s limit of {limit}"
        )
    return MatrixParseError(f"{where}: not an integer: {token!r}")


def _parse_int(token: str, where: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise _int_error(token, where) from None


class _IntLiteral(str):
    """A JSON integer literal kept as text, for _parse_int to convert."""


def _parse_matrix_json(text: str) -> IntMatrix:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError:
        # an integer literal past int()'s digit limit, which json reports
        # without a position: parse again with every integer literal kept as
        # text, so the checks below name the entry
        obj = json.loads(text, parse_int=_IntLiteral)
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise MatrixParseError('JSON matrix must be an object with keys "n" and "entries"')
    n, entries = obj["n"], obj["entries"]
    if type(n) is _IntLiteral:
        n = _parse_int(n, '"n"')
    if type(n) is not int or n < 1:
        raise MatrixParseError(f'"n" must be a positive integer, got {n!r}')
    if not isinstance(entries, list) or len(entries) != n:
        raise MatrixParseError(f'"entries" must be a list of {n} rows')
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise MatrixParseError(f"row {i + 1}: expected {n} entries")
    try:
        _check_entries(entries)
    except ValueError:
        # convert the integer literals kept as text, or name the entry
        # that is not an integer
        for i, row in enumerate(entries):
            for j, x in enumerate(row):
                if type(x) is _IntLiteral:
                    row[j] = _parse_int(x, f"row {i + 1}, entry {j + 1}")
                elif type(x) is not int:
                    raise MatrixParseError(f"row {i + 1}, entry {j + 1}: not an integer: {x!r}") from None
    return _trusted_matrix(n, tuple([tuple(row) for row in entries]))


def _parse_matrix_text(text: str) -> IntMatrix:
    # well-formed text in one pass; anything else takes the numbered path,
    # which finds the first fault and names its line
    try:
        dim, *body = filter(None, map(str.split, text.splitlines()))
        (n,) = map(int, dim)
        rows = tuple([tuple(map(int, toks)) for toks in body])
    except ValueError:
        pass
    else:
        if 0 < n == len(rows) and all(len(row) == n for row in rows):
            return _trusted_matrix(n, rows)
    return _parse_numbered_text(text)


def _parse_numbered_text(text: str) -> IntMatrix:
    """The text parser that reads line by line, for the diagnostics: it
    raises MatrixParseError naming the line and entry of the first fault."""
    numbered = [(i + 1, line) for i, line in enumerate(text.splitlines()) if line.strip()]
    if not numbered:
        raise MatrixParseError("empty input")
    header_no, header = numbered[0]
    tokens = header.split()
    if len(tokens) != 1:
        raise MatrixParseError(f"line {header_no}: expected a single dimension, found {len(tokens)} tokens")
    n = _parse_int(tokens[0], f"line {header_no}: dimension")
    if n < 1:
        raise MatrixParseError(f"line {header_no}: dimension must be >= 1, got {n}")
    body = numbered[1:]
    if len(body) != n:
        raise MatrixParseError(f"expected {n} matrix rows, found {len(body)}")
    rows = []
    for line_no, line in body:
        toks = line.split()
        if len(toks) != n:
            raise MatrixParseError(f"line {line_no}: expected {n} entries, found {len(toks)}")
        row = []
        for j, tok in enumerate(toks):
            try:
                row.append(int(tok))
            except ValueError:
                raise _int_error(tok, f"line {line_no}, entry {j + 1}") from None
        rows.append(tuple(row))
    return _trusted_matrix(n, tuple(rows))


def rem_pm(A: MatrixLike, p: int, m: int) -> IntMatrix:
    """Entrywise unique non-negative remainder modulo p**m."""
    A = _as_matrix(A)
    _require_prime(p)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    q = p**m
    return IntMatrix(A.n, tuple(tuple(x % q for x in r) for r in A.rows))


def det(A: MatrixLike) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    return _det_rows([list(r) for r in _as_matrix(A).rows])


def _det_rows(a: list[list[int]]) -> int:
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = None
        for i in range(k, n):
            if a[i][k]:
                piv = i
                break
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        akk = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1]


def rank(A: MatrixLike) -> int:
    """Rank over the rationals: the number of invariant factors at any prime.

    local_profile only multiplies rows by units of Z_(2) or divides the
    block by 2, and neither changes the rank.
    """
    from .smith import local_profile  # smith imports this module

    return local_profile(A, 2).rank


def valuation_to_json(v: Valuation) -> int | str:
    """JSON rendering of a valuation: plain int, or the string "inf"."""
    return "inf" if isinstance(v, _Infinity) else v
