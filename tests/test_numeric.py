import math
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condstop.numeric import (
    EXACT,
    NumericError,
    SingularSystemError,
    decimal_render,
    float_mode,
    format_scalar,
    parse_rational,
    solve_integer,
    solve_linear,
    sum_in_order,
)


class TestSumInOrder:
    def test_adds_floats_left_to_right(self):
        # A compensated total (3.12's sum, math.fsum) gives 1.0 here.
        assert sum_in_order([0.3, 0.6, 0.1], 0.0) == (0.3 + 0.6) + 0.1 == 0.9999999999999999
        assert sum_in_order([0.3, 0.1, 0.6]) == 1.0

    def test_start_and_exact_values(self):
        empty = sum_in_order([], Fraction(0))
        assert empty == 0 and type(empty) is Fraction
        assert sum_in_order(iter([Fraction(1, 3)] * 3)) == 1


class TestParseRational:
    def test_literals(self):
        assert parse_rational("1/3") == Fraction(1, 3)
        assert parse_rational("0.4") == Fraction(2, 5)
        assert parse_rational("-2") == Fraction(-2)
        assert parse_rational(" 7/2 ") == Fraction(7, 2)
        assert parse_rational(5) == Fraction(5)
        assert parse_rational(Fraction(3, 7)) == Fraction(3, 7)

    @pytest.mark.parametrize("bad", ["", "x", "1/0", "1/2/3", None, 0.5, True, [1]])
    def test_rejects(self, bad):
        with pytest.raises(NumericError):
            parse_rational(bad)

    @given(st.fractions())
    def test_round_trip(self, q):
        assert parse_rational(format_scalar(q)) == q

    @pytest.mark.parametrize(
        "text", ["1e4301", "1E-99999999", "1e10000000", "-2.5e+4_301", "1e٤٣٠١", " 3e-04301 "]
    )
    def test_exponent_beyond_the_bound_is_refused_at_once(self, text):
        # Fraction would compute 10**exponent: 12 s for "1e10000000".
        start = time.perf_counter()
        with pytest.raises(NumericError, match=r"exponent beyond 4300 in magnitude$"):
            parse_rational(text)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("text", ["1e4300", "-2.5e-4300", "7e٤٣٠٠", "1e-0004300"])
    def test_exponent_at_the_bound_is_read(self, text):
        assert parse_rational(text) == Fraction(text)


def test_format_scalar():
    assert format_scalar(Fraction(2, 5)) == "2/5"
    assert format_scalar(Fraction(4)) == "4"
    assert format_scalar(3) == "3"
    assert format_scalar(0.25) == "0.25"


def test_decimal_render():
    assert decimal_render(Fraction(22, 3)) == "7.33333333333"
    assert decimal_render(Fraction(1, 2)) == "0.5"
    assert decimal_render(Fraction(99, 100)) == "0.99"
    assert decimal_render(Fraction(1, 3), digits=4) == "0.3333"


def fraction_oracle(text: str) -> Fraction:
    """`parse_rational` on a string as `Fraction` alone reads it."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise NumericError(f"bad rational literal {text!r}: {exc}") from None


def outcome(parse, text: str) -> tuple:
    try:
        value = parse(text)
    except NumericError as exc:
        return ("error", str(exc))
    return ("value", value, type(value))


# Digit runs at and past int()'s 4,300-digit limit on string conversion.
LONG_RUNS = st.builds(lambda digit, n: digit * n, st.sampled_from("0123456789"),
                      st.integers(4295, 4310))
# Fraction computes 10**exponent, so exponents keep to three digits.
LITERALS = st.lists(
    st.one_of(st.sampled_from(list("0123456789-+/._eE ٣²")), st.text("0123456789", min_size=1),
              LONG_RUNS),
    max_size=8,
).map("".join).filter(lambda text: not re.search(r"[eE][-+]?[0-9_٣²]{4}", text))


class TestParseRationalAgainstFraction:
    """`parse_rational`'s integer-ratio fast path against `Fraction(text)`."""

    @settings(max_examples=500, deadline=None)
    @given(LITERALS)
    def test_same_value_or_same_message(self, text):
        assert outcome(parse_rational, text) == outcome(fraction_oracle, text)

    @pytest.mark.parametrize(
        "text",
        ["7", "-0", " 007/010 ", "-3/6", "1/0", "-1/00", "1/-2", "+1", "--1", "1_0", "٣/4",
         "3/٤", "²", "1/²", "0.5", "1e-1", "", "-", "/", "1/", "/2", "1/2/3", "1" * 4301,
         "-" + "2" * 4300, "1/" + "3" * 4301, "5" * 4300,
         # exponents the bound leaves to Fraction: not its form, or past int()'s limit
         "1e 99999", "1e-+99999", "1e" + "9" * 4301],
    )
    def test_edges(self, text):
        assert outcome(parse_rational, text) == outcome(fraction_oracle, text)


class TestNumericMode:
    def test_exact_compare(self):
        assert EXACT.compare(Fraction(1, 3), Fraction(1, 3)) == 0
        assert EXACT.compare(Fraction(1, 3), Fraction(2, 3)) == -1
        assert EXACT.ge(Fraction(2, 3), Fraction(1, 3))
        # Exact mode distinguishes arbitrarily close rationals.
        assert not EXACT.eq(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30))

    @given(st.one_of(st.integers(), st.fractions()), st.one_of(st.integers(), st.fractions()))
    def test_exact_compare_against_rich_comparison(self, a, b):
        assert EXACT.compare(a, b) == (a > b) - (a < b)

    @pytest.mark.parametrize(
        "a, b, expected",
        [(0.5, Fraction(1, 2), 0), (Fraction(1, 3), 0.3, 1), (1, 1.5, -1), (0.25, 0.25, 0)],
    )
    def test_exact_compare_of_a_float(self, a, b, expected):
        assert EXACT.compare(a, b) == expected
        assert EXACT.compare(b, a) == -expected

    def test_zero_and_one_are_shared(self):
        assert EXACT.zero is EXACT.zero == 0 and type(EXACT.zero) is Fraction
        assert EXACT.one is EXACT.one == 1 and type(EXACT.one) is Fraction
        assert float_mode().zero == 0.0 and type(float_mode().one) is float

    def test_exact_coerce_normalizes(self):
        assert EXACT.coerce(3) == Fraction(3)
        assert isinstance(EXACT.coerce(3), Fraction)
        with pytest.raises(NumericError):
            EXACT.coerce(0.5)

    def test_float_coerce(self):
        mode = float_mode()
        assert mode.coerce(Fraction(1, 4)) == 0.25
        assert mode.coerce("2/5") == 0.4
        assert mode.coerce(3) == 3.0

    def test_float_tolerance(self):
        mode = float_mode(1e-9)
        assert mode.eq(1.0, 1.0 + 1e-12)
        assert not mode.eq(1.0, 1.0 + 1e-6)
        # The scale widens the tolerance for large quantities.
        assert mode.eq(1e6, 1e6 + 1e-4, scale=1e6)
        assert not mode.eq(1.0, 1.0 + 1e-4, scale=1.0)


class TestSolveLinear:
    def test_exact_2x2(self):
        # x + y = 3, x - y = 1  =>  x = 2, y = 1
        sol = solve_linear(
            [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]],
            [Fraction(3), Fraction(1)],
        )
        assert sol == [Fraction(2), Fraction(1)]

    def test_singular(self):
        with pytest.raises(SingularSystemError):
            solve_linear(
                [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]],
                [Fraction(1), Fraction(2)],
            )

    @given(
        st.lists(
            st.lists(st.fractions(min_value=-5, max_value=5), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        ),
        st.lists(st.fractions(min_value=-5, max_value=5), min_size=3, max_size=3),
    )
    def test_residual_is_zero(self, matrix, rhs):
        # Make the matrix strictly diagonally dominant, hence nonsingular.
        for i in range(3):
            off = sum(abs(matrix[i][j]) for j in range(3) if j != i)
            matrix[i][i] = off + 1
        sol = solve_linear(matrix, rhs)
        for i in range(3):
            assert sum(matrix[i][j] * sol[j] for j in range(3)) == rhs[i]


@st.composite
def linear_systems(draw):
    """A square rational system of size 1-8 and whether it was made singular:
    then one row is a combination of the others (all zero when n = 1)."""
    n = draw(st.integers(1, 8))
    entry = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))
    row = st.lists(entry, min_size=n, max_size=n)
    matrix = draw(st.lists(row, min_size=n, max_size=n))
    deficient = draw(st.booleans())
    if deficient:
        i, weights = draw(st.integers(0, n - 1)), draw(row)
        others = [(w, r) for k, (w, r) in enumerate(zip(weights, matrix)) if k != i]
        matrix[i] = [sum((w * r[c] for w, r in others), Fraction(0)) for c in range(n)]
    return matrix, draw(row), deficient


def _integer_system(matrix, rhs):
    """Each rational row and its right-hand side times the lcm of their denominators."""
    rows = []
    for row, b in zip(matrix, rhs):
        scale = math.lcm(*(a.denominator for a in [*row, b]))
        rows.append([int(a * scale) for a in [*row, b]])
    return [row[:-1] for row in rows], [row[-1] for row in rows]


def _solved(matrix, rhs):
    """`solve_integer` on the scaled system, as rationals; its denominator is positive."""
    numerators, denominator = solve_integer(*_integer_system(matrix, rhs))
    assert type(denominator) is int and denominator > 0
    return [Fraction(n, denominator) for n in numerators]


class TestSolveExact:
    """`solve_integer`, the exact solver, against its reference `solve_linear`."""

    @settings(max_examples=300, deadline=None)
    @given(linear_systems())
    def test_agrees_with_solve_linear(self, system):
        matrix, rhs, deficient = system
        try:
            expected = solve_linear(matrix, rhs)
        except SingularSystemError as exc:
            with pytest.raises(SingularSystemError) as raised:
                _solved(matrix, rhs)
            assert str(raised.value) == str(exc)
            return
        assert not deficient
        assert _solved(matrix, rhs) == expected

    def test_pivots_past_a_zero_diagonal(self):
        # x2 = 1/3, x1 + x2 = 1, as `solve_linear` solves it after a row swap.
        matrix = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]]
        rhs = [Fraction(1, 3), Fraction(1)]
        assert solve_integer([[0, 3], [1, 1]], [1, 1]) == ([2, 1], 3)
        assert _solved(matrix, rhs) == solve_linear(matrix, rhs) == [Fraction(2, 3), Fraction(1, 3)]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_integer([[1, 2]], [1])
