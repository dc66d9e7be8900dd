import decimal
import math

import numpy as np
import pytest

from quasiherm import EvalError, ParseError, parse_expression
from quasiherm.expressions import FUNCTIONS, Sampler


def test_polynomial():
    assert parse_expression("x^2 - 1")(2.0) == 3.0


def test_gaussian_times_cosine():
    assert parse_expression("exp(-x^2)*cos(x)")(0.0) == 1.0


def test_precedence_multiplication_binds_tighter():
    assert parse_expression("2+3*x")(1.0) == 5.0


def test_unary_minus_below_power():
    assert parse_expression("-x^2")(2.0) == -4.0


def test_power_right_associative():
    assert parse_expression("2^3^2")(0.0) == 512.0


@pytest.mark.parametrize("text,value", [("8-2-1", 5.0), ("2-3+4", 3.0),
                                        ("8/2/2", 2.0), ("3/4*2", 1.5),
                                        ("1-2*3-4/2", -7.0)])
def test_sums_and_products_associate_left(text, value):
    assert parse_expression(text)(0.0) == value
    assert parse_expression(text).sample(np.zeros(1))[0] == value


def test_power_with_negative_exponent():
    assert parse_expression("2^-3")(0.0) == 0.125


def test_division_and_parens():
    assert parse_expression("(1+3)/8")(0.0) == 0.5


def test_number_formats():
    assert parse_expression("1.5e-3")(0.0) == 1.5e-3
    assert parse_expression(".5")(0.0) == 0.5
    assert parse_expression("2e2")(0.0) == 200.0


@pytest.mark.parametrize("name,ref", [
    ("sin", math.sin), ("cos", math.cos), ("tan", math.tan),
    ("exp", math.exp), ("tanh", math.tanh), ("cosh", math.cosh),
    ("sinh", math.sinh), ("abs", abs),
])
def test_functions(name, ref):
    expr = parse_expression(f"{name}(x)")
    for x in (-1.3, 0.0, 0.7):
        assert expr(x) == pytest.approx(ref(x))


def test_domain_limited_functions():
    assert parse_expression("log(x)")(2.0) == pytest.approx(math.log(2.0))
    assert parse_expression("sqrt(x)")(4.0) == 2.0


@pytest.mark.parametrize("text,pos", [
    ("", 0),
    ("   ", 0),
    ("2 +", 3),
    ("foo(2)", 0),
    ("(1+2", 4),
    ("1 $ 2", 2),
    ("sin 3", 4),
    ("1 2", 2),
])
def test_parse_errors_carry_position(text, pos):
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert err.value.position == pos


def test_eval_errors_carry_sample_point():
    with pytest.raises(EvalError) as err:
        parse_expression("sqrt(x)")(-4.0)
    assert err.value.x == -4.0
    with pytest.raises(EvalError):
        parse_expression("log(x)")(0.0)
    with pytest.raises(EvalError):
        parse_expression("1/x")(0.0)
    with pytest.raises(EvalError):
        parse_expression("x^0.5")(-2.0)  # complex result rejected


@pytest.mark.parametrize("text", [
    "x^2 - 1",
    "exp(-x^2)*cos(3*x) + tanh(x/2)",
    "-(x - 1)^3 / (2 + x^2)",
    "sinh(x)*cosh(x) - 0.5*abs(x)",
    "2^-x + 1.5e-3*x",
])
def test_pretty_print_roundtrip(text):
    expr = parse_expression(text)
    reparsed = parse_expression(str(expr))
    rng = np.random.default_rng(42)
    xs = rng.uniform(-3.0, 3.0, size=1000)
    a = expr.sample(xs)
    b = reparsed.sample(xs)
    scale = np.maximum(np.abs(a), 1.0)
    assert (np.abs(a - b) / scale).max() <= 1e-15


@pytest.mark.parametrize("text", [
    "x*exp(-x^2)",
    "sin(3*x) + cos(x/7) - tan(x/3)",
    "exp(-x^2)*log(1 + x^2) - log(2.5 + x)",
    "tanh(2*x) + cosh(x)/sinh(1 + x^2)",
    "sqrt(2 + x)*abs(x - 0.3) - sqrt(x^2)",
    "abs(x)^1.5 + (1 + x^2)^-0.37 + 2^x + 0.7^(x/3)",
    "x^3 - (x - 3)^2 + (-1.5)^3*(x - 5)^-3 + (x - 2.5)^4",
    "-abs(x)^2^0.5 + 1e-3*x/(x^2 + 0.25)",
])
def test_sample_matches_scalar_calls(text):
    expr = parse_expression(text)
    rng = np.random.default_rng(3)
    xs = np.concatenate([np.linspace(-2, 2, 4801),
                         rng.uniform(-2, 2, 2000)])
    expected = np.array([expr(x) for x in xs])
    assert expr.sample(xs).tobytes() == expected.tobytes()


def test_sample_returns_a_fresh_array():
    xs = np.linspace(-1, 1, 5)
    out = parse_expression("x").sample(xs)
    out[0] = 7.0
    assert xs[0] == -1.0
    # equal texts through one memo: the second result is not the first
    sampler = Sampler(xs)
    first = parse_expression("exp(-x^2)").sample(sampler)
    second = parse_expression("exp(-x^2)").sample(sampler)
    assert not np.shares_memory(first, second)
    first[:] = 7.0
    assert second.tobytes() == parse_expression("exp(-x^2)").sample(
        xs).tobytes()
    assert parse_expression("x").sample(sampler)[0] == -1.0


def _scalar_loop(expr, xs):
    """The samples of scalar calls, or the EvalError the loop raises."""
    values = []
    for x in np.asarray(xs, dtype=float).tolist():
        try:
            value = expr(x)
        except EvalError as exc:
            return exc
        if not math.isfinite(value):
            return EvalError(f"non-finite value {value!r}", x)
        values.append(value)
    return np.array(values)


def assert_matches_scalar_loop(expr, xs, sampler=None):
    """expr sampled at xs (through sampler, if given) equals the scalar
    loop bit for bit, or raises its EvalError: same x, same message."""
    expected = _scalar_loop(expr, xs)
    if isinstance(expected, EvalError):
        with pytest.raises(EvalError) as err:
            expr.sample(xs if sampler is None else sampler)
        assert repr(err.value.x) == repr(expected.x)
        assert str(err.value) == str(expected)
    else:
        out = expr.sample(xs if sampler is None else sampler)
        assert out.tobytes() == expected.tobytes()
    return expected


@pytest.mark.parametrize("text", [
    "1/x",
    "exp(-1/abs(x))",
    "log(x)",
    "log(x - 0.5)",
    "sqrt(x - 1)",
    "x + sqrt(-x^2)",
    "exp(400*x)",
    "x^0.5",
    "(x - 1)^-2",
    "cosh(1000*x)",
])
def test_sample_errors_match_scalar_loop(text):
    expr = parse_expression(text)
    xs = np.linspace(2, -2, 41)
    assert isinstance(assert_matches_scalar_loop(expr, xs), EvalError)


@pytest.mark.parametrize("text,x_bad", [
    ("1e200*1e200*x^2", -2.0),
    ("1e200*1e200 + x^2", -2.0),
    ("exp(-1e200*1e200*x^2)", 0.0),
    ("1e400 - x", -2.0),
])
def test_sample_rejects_non_finite_values(text, x_bad):
    with pytest.raises(EvalError) as err:
        parse_expression(text).sample(np.linspace(-2, 2, 41))
    assert err.value.x == x_bad
    assert "non-finite" in str(err.value)


@pytest.mark.parametrize("text", ["x", "abs(x)", "tanh(x)"])
def test_sample_rejects_non_finite_points_as_the_scalar_loop(text):
    assert_matches_scalar_loop(parse_expression(text),
                               [0.5, math.inf, -math.inf, math.nan])


def test_sample_keeps_finite_values_after_overflow():
    # intermediate infinities that the scalar rules turn finite survive
    expr = parse_expression("exp(-1e200*1e200) + tanh(1e200*1e200*(1 + x^2))")
    xs = np.linspace(-1, 1, 11)
    assert expr.sample(xs).tobytes() == np.ones(11).tobytes()


def _expression_strategies(st, leaves):
    """Expression texts built from leaves, and a strategy of texts whose
    subtrees come from a given pool."""
    # 1e400 parses to inf; 0 and 1e200 make divisions by zero and overflow
    numbers = st.sampled_from(["0", "0.5", "1", "2", "3", "1.5", "0.25",
                               "1e-3", "1e200", "1e400"])

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(sorted(FUNCTIONS)), children).map(
                lambda t: f"{t[0]}({t[1]})"),
            children.map(lambda c: f"(-{c})"),
            st.tuples(children, st.sampled_from("+-*/^"), children).map(
                lambda t: f"({t[0]}{t[1]}{t[2]})"),
            st.tuples(children, numbers).map(lambda t: f"({t[0]})^{t[1]}"),
        )

    texts = st.recursive(st.one_of(st.sampled_from(leaves), numbers), extend,
                         max_leaves=8)

    def built_from(pool):
        """Texts whose subtrees come from pool, equal texts included."""
        parts = st.sampled_from(pool)
        return st.one_of(
            parts,
            st.tuples(st.sampled_from(sorted(FUNCTIONS)), parts).map(
                lambda t: f"{t[0]}({t[1]})"),
            st.tuples(parts, st.sampled_from("+-*/^"), parts).map(
                lambda t: f"({t[0]}{t[1]}{t[2]})"),
        )

    return texts, built_from


def test_shared_sampler_matches_scalar_calls_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    texts, built_from = _expression_strategies(st, ["x"])

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
    @hypothesis.given(data=st.data())
    def check(data):
        pool = data.draw(st.lists(texts, min_size=1, max_size=3))
        exprs = [parse_expression(t) for t in data.draw(
            st.lists(built_from(pool), min_size=2, max_size=4))]
        xs = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=1,
                                max_size=12))
        sampler = Sampler(xs)
        for expr in exprs:
            assert_matches_scalar_loop(expr, xs, sampler)

    check()


def test_shared_sampler_on_mirrored_points_matches_scalar_calls_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # even leaves make operands that read the same reversed
    texts, built_from = _expression_strategies(
        st, ["x", "(x*x)", "(x^2)", "abs(x)", "cos(x)"])
    coords = st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                       st.floats(-4.0, 4.0))

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
    @hypothesis.given(data=st.data())
    def check(data):
        pool = data.draw(st.lists(texts, min_size=1, max_size=3))
        exprs = [parse_expression(t) for t in data.draw(
            st.lists(built_from(pool), min_size=2, max_size=4))]
        # points x and -x at mirrored indices: an odd count has a middle
        # +-0.0, and a 0.0 beside the middle makes a +0.0, -0.0 pair
        half = data.draw(st.lists(coords, max_size=6))
        middle = data.draw(st.sampled_from([[], [0.0], [-0.0]]))
        hypothesis.assume(half or middle)
        xs = [-x for x in reversed(half)] + middle + half
        sampler = Sampler(xs)
        for expr in exprs:
            assert_matches_scalar_loop(expr, xs, sampler)

    check()


def _mirrored_points(n):
    """n points closed under x -> -x at mirrored indices, 0.0 in the
    middle of an odd count."""
    h = np.linspace(0.25, 2.0, n // 2)
    return np.concatenate((-h[::-1], [0.0] * (n % 2), h))


@pytest.mark.parametrize("text", [
    "log(x^2 - 1)",
    "1/(x^2 - 4)",
    "exp(400*x^2)",
    "(x^2 - 1)^0.5",
    "log(abs(x) - 0.5)^2",
])
def test_mirrored_points_fail_as_the_scalar_loop(text):
    # the samples fail at points on both sides of the middle
    xs = _mirrored_points(41)
    assert isinstance(assert_matches_scalar_loop(parse_expression(text), xs),
                      EvalError)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 201])
def test_libm_runs_once_per_point(monkeypatch, n):
    # cos stays on libm: one call on a Python float per point, whether or
    # not the points and the operand read the same reversed
    calls = []

    def cos(v):
        calls.append(v)
        return math.cos(v)

    monkeypatch.setitem(FUNCTIONS, "cos", cos)
    xs = _mirrored_points(n)
    assert_matches_scalar_loop(parse_expression("x*cos(-x^2)"), xs)
    for text, points in [("x*cos(-x^2)", xs), ("cos(x)", xs),
                         ("x*cos(-x^2)", np.linspace(-1.0, 2.0, n))]:
        calls.clear()
        parse_expression(text).sample(points)
        assert len(calls) == n
        assert all(type(v) is float for v in calls)


def test_squares_are_correctly_rounded():
    xs = np.linspace(-4, 4, 14000)
    # the exact square of a double in [-4, 4] has fewer than 200 digits
    with decimal.localcontext() as ctx:
        ctx.prec = 200
        expected = np.array([float(decimal.Decimal(x) * decimal.Decimal(x))
                             for x in xs.tolist()])
    expr = parse_expression("x^2")
    assert expr.sample(xs).tobytes() == expected.tobytes()
    assert_matches_scalar_loop(expr, xs)


def test_square_overflow_keeps_the_pow_error():
    expr = parse_expression("(1e200*x)^2")
    with pytest.raises(EvalError) as err:
        expr(1.0)
    assert str(err.value) == "overflow in 1e+200 ^ 2.0 (at x = 1.0)"
    err = assert_matches_scalar_loop(expr, np.linspace(-1, 1, 5))
    assert str(err) == "overflow in -1e+200 ^ 2.0 (at x = -1.0)"
    # an infinite base squares to inf as pow does, and is not an overflow
    assert parse_expression("(1e400*x)^2")(0.5) == math.inf


CONSTANT_TEXTS = ["0", "-2", "exp(1)", "2^0.5*3 - abs(-1.5)", "sqrt(2)/7",
                  "(-(3))^2"]


@pytest.mark.parametrize("text", CONSTANT_TEXTS)
def test_constant_expressions_sample_to_fresh_arrays(text):
    expr = parse_expression(text)
    xs = _mirrored_points(9)
    sampler = Sampler(xs)
    assert_matches_scalar_loop(expr, xs, sampler)
    # the memo holds one scalar; each sample is a writable array of its own
    first, second = expr.sample(sampler), expr.sample(sampler)
    assert first.shape == xs.shape and not np.shares_memory(first, second)
    first[:] = 7.0
    assert second.tobytes() == _scalar_loop(expr, xs).tobytes()
    assert np.ndim(sampler.memo[expr.ast]) == 0
    assert expr.sample(np.empty(0)).shape == (0,)


@pytest.mark.parametrize("text", ["log(-1)", "1/0", "1e200*1e200",
                                  "sqrt(-2)", "(-8)^(1/3)"])
def test_failing_constants_fail_as_the_scalar_loop(text):
    assert isinstance(assert_matches_scalar_loop(
        parse_expression(text), np.linspace(-1, 1, 5)), EvalError)


def test_numbers_are_scalars_not_filled_arrays():
    sampler = Sampler(np.linspace(-4, 4, 201))
    expr = parse_expression("1+0.5*exp(-x^2)")
    assert_matches_scalar_loop(expr, sampler.points, sampler)
    assert [np.ndim(sampler.memo[node]) for node in (
        ("num", 1.0), ("num", 0.5), expr.ast)] == [0, 0, 1]


@pytest.mark.parametrize("text,fn,calls", [
    # a "num" exponent, a constant exponent that is not a literal, and a
    # constant base: each a scalar broadcast beside an even operand
    ("abs(x)^1.5", "pow", 201),
    ("(x*x + 1)^(-1.5)", "pow", 201),
    ("2^(x*x)", "pow", 201),
    # an all-constant call is one call, then one per point
    ("cos(-(2))*cos(-x^2)", "cos", 202),
    # an odd operand beside a scalar
    ("(x + 5)^0.5", "pow", 201),
])
def test_libm_runs_once_per_point_beside_a_scalar_operand(monkeypatch, text,
                                                          fn, calls):
    from quasiherm import expressions
    counted = []
    original = FUNCTIONS.get(fn, pow)

    def count(*args):
        counted.append(args)
        return original(*args)
    if fn == "pow":
        monkeypatch.setattr(expressions, "pow", count, raising=False)
    else:
        monkeypatch.setitem(FUNCTIONS, fn, count)
    xs = _mirrored_points(201)
    expr = parse_expression(text)
    expr.sample(xs)
    assert len(counted) == calls
    monkeypatch.undo()
    assert_matches_scalar_loop(expr, xs)


# points of exp over [-700, 700] and of log over [1e-300, 1e300], with
# random points where exp is near 1 and log near 0
ORACLE_POINTS = {
    "exp": np.concatenate([np.linspace(-700.0, 700.0, 2001),
                           np.random.default_rng(5).uniform(-2, 2, 1000)]),
    "log": np.concatenate([np.geomspace(1e-300, 1e300, 2001),
                           np.random.default_rng(6).uniform(0.5, 2, 1000)]),
}


@pytest.mark.parametrize("name", sorted(ORACLE_POINTS))
def test_numpy_kernels_are_within_one_ulp(name):
    # exp and log are numpy's kernels, sampled and in scalar calls alike
    mpmath = pytest.importorskip("mpmath")
    xs = ORACLE_POINTS[name]
    expr = parse_expression(f"{name}(x)")
    out = expr.sample(xs)
    assert out.tobytes() == np.array([expr(x) for x in xs.tolist()]).tobytes()
    fn = getattr(mpmath, name)
    with mpmath.workdps(40):
        ulps = [abs((mpmath.mpf(v) - fn(mpmath.mpf(x))) / u) for x, v, u in
                zip(xs.tolist(), out.tolist(), np.spacing(out).tolist())]
    assert max(ulps) <= 1
