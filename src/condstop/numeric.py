"""Exact rational arithmetic and tolerance-based comparison modes.

Every stop/continue classification in this package rests on an inequality
between a payoff and a continuation value, and several of the interesting
instances sit within 1e-3 of the decision boundary.  The default mode
therefore keeps all quantities as `fractions.Fraction` and compares exactly.
An alternate float mode runs the same algorithms on floats and routes each
classification through a configurable tolerance.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[Fraction, float]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_RATIONAL = frozenset({int, Fraction})


class NumericError(ValueError):
    """Malformed numeric input, such as a bad rational literal."""


class SingularSystemError(ArithmeticError):
    """A linear system required by a solver has no unique solution."""


# Fraction computes 10**exponent: "1e10000000" takes 12 s.  The bound is
# int()'s limit of 4300 digits on a literal.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\Z")  # Fraction's exponent form


def parse_rational(value: Union[str, int, Fraction]) -> Fraction:
    """Parse a rational literal such as ``"1/3"``, ``"0.4"`` or ``"-2"``.

    Decimal strings are read exactly: ``"0.4"`` becomes ``2/5``.  An exponent
    beyond `MAX_EXPONENT` in magnitude is refused.  Floats are rejected so
    that inexact values cannot slip into exact computations.
    """
    if isinstance(value, str):
        text = value.strip()
        try:
            # ASCII `-?[0-9]+` and `-?[0-9]+/[0-9]+` are built from their
            # integers.  Fraction's parse makes the same ints, so the values
            # and errors (a zero denominator, int()'s digit limit) are its own.
            # Every other literal goes to Fraction once its exponent is bounded.
            num, slash, den = text.partition("/")
            digits = num[1:] if num[:1] == "-" else num
            if digits.isascii() and digits.isdigit():
                if not slash:
                    return Fraction(int(num))
                if den.isascii() and den.isdigit():
                    return Fraction(int(num), int(den))
            exponent = _EXPONENT.search(text)
            if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
                raise ValueError(f"exponent beyond {MAX_EXPONENT} in magnitude")
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise NumericError(f"bad rational literal {value!r}: {exc}") from None
    if isinstance(value, bool):
        raise NumericError(f"not a number: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise NumericError(f"expected a rational string, got {type(value).__name__}")


def sum_in_order(values: Iterable[Scalar], start: Scalar = 0) -> Scalar:
    """`sum(values, start)`, added strictly left to right.

    Python 3.12's `sum` compensates float rounding, so a probability check
    made with it would accept on 3.12 a row it rejects on 3.10 and 3.11; this
    total is the same on every version, and equals `sum` before 3.12.
    """
    total = start
    for value in values:
        total += value
    return total


def total_unless_one(values: Sequence[Scalar], mode: NumericMode) -> Optional[Scalar]:
    """None if `values` sum to one under `mode`, else their sum.

    In exact mode ints and Fractions add as one integer ratio, made a Fraction
    only for a sum that is not one.  Other values go by `sum_in_order` and
    `mode.eq`, so float verdicts are those of a left-to-right sum.
    """
    if mode.exact:
        num, den = 0, 1
        for value in values:
            if type(value) not in _RATIONAL:
                break
            n, d = value.numerator, value.denominator
            if d == den:
                num += n
            else:
                num, den = num * d + n * den, den * d
        else:
            return None if num == den else Fraction(num, den)
    total = sum_in_order(values)
    return None if mode.eq(total, mode.one) else total


def format_scalar(value: Scalar) -> str:
    """Render a scalar as a rational string (``"2/5"``) or float repr.

    A rational whose numerator or denominator has more digits than `str()`
    of an int allows (4300 by default) raises NumericError.
    """
    try:
        if type(value) is Fraction:
            return str(value)
        if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
            return str(Fraction(value))
    except ValueError:
        raise NumericError(
            f"cannot write a number of more than {sys.get_int_max_str_digits()} digits"
        ) from None
    return repr(float(value))


def decimal_render(value: Scalar, digits: int = 12) -> str:
    """Decimal rendering to a fixed number of significant digits."""
    if isinstance(value, Fraction):
        with localcontext() as ctx:
            ctx.prec = digits
            quotient = Decimal(value.numerator) / Decimal(value.denominator)
        return str(quotient)
    return f"{float(value):.{digits}g}"


@dataclass(frozen=True)
class NumericMode:
    """Comparison policy: exact rational order, or float order with tolerance.

    ``scale`` lets callers widen the tolerance proportionally to the size of
    the quantities being compared (used when verifying value processes).
    """

    exact: bool = True
    eps: float = 1e-9

    def coerce(self, value: Scalar) -> Scalar:
        if self.exact:
            return parse_rational(value)
        if isinstance(value, str):
            return float(parse_rational(value))
        return float(value)

    @property
    def zero(self) -> Scalar:
        return _ZERO if self.exact else 0.0

    @property
    def one(self) -> Scalar:
        return _ONE if self.exact else 1.0

    def ratio(self, num: Scalar, den: Scalar) -> Scalar:
        """num / den, a Fraction in exact mode when both are ints or Fractions."""
        if self.exact and type(num) in _RATIONAL and type(den) in _RATIONAL:
            return Fraction(num, den)
        return num / den

    def tolerance(self, scale: Scalar = 1) -> float:
        if self.exact:
            return 0.0
        return self.eps * max(1.0, abs(float(scale)))

    def compare(self, a: Scalar, b: Scalar, scale: Scalar = 1) -> int:
        """Return -1, 0 or +1 for a < b, a == b, a > b under this mode."""
        if self.exact:
            # ints and Fractions by one cross-multiplication, not two Fraction comparisons
            if type(a) in _RATIONAL and type(b) in _RATIONAL:
                diff = a.numerator * b.denominator - b.numerator * a.denominator
                return (diff > 0) - (diff < 0)
            if a < b:
                return -1
            return 1 if a > b else 0
        diff = float(a) - float(b)
        tol = self.tolerance(scale)
        if diff > tol:
            return 1
        if diff < -tol:
            return -1
        return 0

    def eq(self, a: Scalar, b: Scalar, scale: Scalar = 1) -> bool:
        return self.compare(a, b, scale) == 0

    def le(self, a: Scalar, b: Scalar, scale: Scalar = 1) -> bool:
        return self.compare(a, b, scale) <= 0

    def gt(self, a: Scalar, b: Scalar, scale: Scalar = 1) -> bool:
        return self.compare(a, b, scale) > 0

    def ge(self, a: Scalar, b: Scalar, scale: Scalar = 1) -> bool:
        return self.compare(a, b, scale) >= 0


EXACT = NumericMode()


def float_mode(eps: float = 1e-9) -> NumericMode:
    return NumericMode(exact=False, eps=eps)


def solve_linear(matrix: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]) -> list[Scalar]:
    """Solve a small dense linear system by Gaussian elimination with pivoting.

    Works over Fractions (exactly) and floats alike; float mode solves with
    it, and it is the reference `solve_integer` is tested against.  Raises
    SingularSystemError when no unique solution exists.
    """
    n = len(rhs)
    rows = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    if any(len(row) != n + 1 for row in rows):
        raise ValueError("matrix shape does not match right-hand side")
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(rows[r][col]))
        if rows[pivot_row][col] == 0:
            raise SingularSystemError(f"singular at column {col}")
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col][col]
        for r in range(n):
            if r == col:
                continue
            factor = rows[r][col]
            if factor == 0:
                continue
            scale = factor / pivot
            for c in range(col, n + 1):
                rows[r][c] -= scale * rows[col][c]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def solve_integer(matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[list[int], int]:
    """Solve a square integer system by fraction-free Gauss-Jordan elimination.

    A row is updated by cross-multiplication with the pivot row and divided
    by the gcd of its entries, so every intermediate is an integer and no
    rational is made.  The solution comes back as numerators over one common
    positive denominator, the lcm of the final pivots.  It is the solution
    `solve_linear` returns, and SingularSystemError is raised exactly when it
    raises, at the same column.
    """
    n = len(rhs)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("matrix shape does not match right-hand side")
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            raise SingularSystemError(f"singular at column {col}")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivots = rows[col]
        pivot = pivots[col]
        for r in range(n):
            factor = rows[r][col]
            if r == col or not factor:
                continue
            row = [pivot * a - factor * b for a, b in zip(rows[r], pivots)]
            divisor = math.gcd(*row)
            rows[r] = [a // divisor for a in row] if divisor > 1 else row
    denominator = math.lcm(*(row[i] for i, row in enumerate(rows)))
    return [row[n] * (denominator // row[i]) for i, row in enumerate(rows)], denominator
