"""Parser, evaluator and symbolic derivative tests."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipdisc import expr as ex
from lipdisc.expr import (
    Binary,
    Const,
    ExprEvalError,
    ExprSyntaxError,
    Pow,
    Unary,
    Var,
    differentiate,
    evaluate,
    parse,
    unparse,
)

from lipdisc.system import _Template

from conftest import batch_column, central_diff, expr_points, expr_trees, float_bits


# ---------------------------------------------------------------------------
# parsing

def test_parse_constant_zero():
    assert parse("0") == Const(0.0)


def test_parse_neg_sin():
    assert parse("-sin(x1)") == Unary("neg", Unary("sin", Var("x", 1)))


def test_parse_precedence_example():
    got = parse("x2 + u1*x1^2")
    want = Binary("+", Var("x", 2), Binary("*", Var("u", 1), Pow(Var("x", 1), 2)))
    assert got == want


def test_parse_left_associativity():
    assert parse("1 - 2 - 3") == Binary("-", Binary("-", Const(1.0), Const(2.0)), Const(3.0))
    assert parse("8 / 4 / 2") == Binary("/", Binary("/", Const(8.0), Const(4.0)), Const(2.0))
    assert parse("x1^2^3") == Pow(Pow(Var("x", 1), 2), 3)


def test_parse_unary_minus_binds_below_power():
    assert parse("-x1^2") == Unary("neg", Pow(Var("x", 1), 2))
    assert parse("(-x1)^2") == Pow(Unary("neg", Var("x", 1)), 2)


def test_parse_parenthesized_integer_exponent():
    assert parse("x1^(2)") == Pow(Var("x", 1), 2)


@pytest.mark.parametrize(
    "text",
    ["x1^-1", "x1^2.5", "x1^x2", "x1 +", "sin()", "(x1", "foo(x1)", "y1", "x0", "", "  ", "1..2"],
)
def test_parse_rejects_invalid(text):
    with pytest.raises(ExprSyntaxError):
        parse(text)


def test_parse_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1 + @")
    assert err.value.offset == 5
    with pytest.raises(ExprSyntaxError) as err:
        parse("bogus(x1)")
    assert err.value.offset == 0
    assert "unknown function" in str(err.value)


@pytest.mark.parametrize(
    "text",
    [
        "0",
        "-sin(x1)",
        "x2 + u1*x1^2",
        "1 - 2 - 3",
        "x1*(x2 + 1)/(u1 - 2)",
        "tanh(exp(x1) - ln(x2 + 3))",
        "sqrt(abs(x1))^4",
        "-(-x1)",
        "cos(x1)^2 + sin(x1)^2",
        "2.5e-3 * x1 + .5",
    ],
)
def test_unparse_round_trip(text):
    tree = parse(text)
    assert parse(unparse(tree)) == tree


def test_unparse_non_finite_constants():
    # int(v) used to raise on them, also inside an evaluation error message
    assert evaluate(parse(unparse(Const(np.inf))), []) == np.inf
    assert evaluate(parse(unparse(Binary("*", Const(-np.inf), Var("x", 1)))), [1.0]) == -np.inf
    assert unparse(Const(np.nan)) == "nan"
    with pytest.raises(ExprEvalError, match="division by zero"):
        evaluate(Binary("/", Const(np.nan), Var("x", 1)), [0.0])


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        choice = rng.integers(3)
        if choice == 0:
            return Const(float(np.round(rng.uniform(0, 10), 3)))
        kind = "x" if choice == 1 else "u"
        return Var(kind, int(rng.integers(1, 4)))
    roll = rng.random()
    if roll < 0.25:
        op = ["neg", "sin", "cos", "exp", "tanh", "abs", "sqrt", "ln", "tan"][rng.integers(9)]
        return Unary(op, _random_tree(rng, depth - 1))
    if roll < 0.35:
        return Pow(_random_tree(rng, depth - 1), int(rng.integers(0, 4)))
    op = "+-*/"[rng.integers(4)]
    return Binary(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def test_fuzz_round_trip_random_trees():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        tree = _random_tree(rng, 4)
        assert parse(unparse(tree)) == tree


def test_fuzz_invalid_inputs_never_crash():
    rng = np.random.default_rng(99)
    alphabet = "x1u2+-*/^()sincoabs. eqz"
    for _ in range(500):
        length = int(rng.integers(1, 18))
        text = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), length))
        try:
            tree = parse(text)
            assert parse(unparse(tree)) == tree
        except ExprSyntaxError:
            pass


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_examples():
    assert evaluate(parse("x1+x2"), [1.0, 2.0]) == 3.0
    assert evaluate(parse("-sin(x1)"), [0.0, 123.0]) == 0.0
    assert evaluate(parse("exp(x1)*u1"), [0.0], [5.0]) == 5.0


def test_evaluate_domain_errors_name_the_node():
    with pytest.raises(ExprEvalError, match="ln"):
        evaluate(parse("ln(x1)"), [-1.0])
    with pytest.raises(ExprEvalError, match="sqrt"):
        evaluate(parse("sqrt(x1)"), [-4.0])
    with pytest.raises(ExprEvalError, match="division"):
        evaluate(parse("1/x1"), [0.0])


def test_evaluate_out_of_range_variable():
    with pytest.raises(ExprEvalError, match="x3"):
        evaluate(parse("x3"), [1.0, 2.0])
    with pytest.raises(ExprEvalError, match="u1"):
        evaluate(parse("u1"), [1.0], [])


def test_evaluate_batch_matches_scalar():
    rng = np.random.default_rng(5)
    tree = parse("x2*cos(x1) + u1*x1^3 - tanh(x2)/2")
    xs = rng.uniform(-2, 2, size=(50, 2))
    us = rng.uniform(-1, 1, size=(50, 1))
    batch = batch_column(tree, xs, us)
    pointwise = [evaluate(tree, xs[i], us[i]) for i in range(50)]
    np.testing.assert_allclose(batch, pointwise, rtol=1e-15, atol=1e-300)
    # random trees: a batch never raises a domain error, and agrees with
    # every point that evaluates to a finite value
    xs = rng.uniform(-2, 2, size=(20, 3))
    us = rng.uniform(-2, 2, size=(20, 3))
    for _ in range(300):
        tree = _random_tree(rng, 4)
        batch = batch_column(tree, xs, us)
        for i in range(20):
            try:
                want = evaluate(tree, xs[i], us[i])
            except ExprEvalError:
                continue
            if np.isfinite(want):
                assert abs(batch[i] - want) <= 1e-13 * abs(want), unparse(tree)


def test_evaluate_batch_domain_errors_become_nonfinite():
    tree = parse("ln(x1)")
    vals = batch_column(tree, np.array([[1.0], [-1.0], [0.0]]), np.zeros((3, 0)))
    assert np.isfinite(vals[0])
    assert not np.isfinite(vals[1])
    assert not np.isfinite(vals[2])


@pytest.mark.parametrize(
    "text, x1, want",
    [("1e200^2", 0.0, np.inf), ("x1^2", 1e200, np.inf), ("x1^3", -1e200, -np.inf)],
)
def test_power_overflow_saturates_in_both_modes(text, x1, want):
    tree = parse(text)
    assert evaluate(tree, [x1]) == want
    np.testing.assert_array_equal(batch_column(tree, [[x1], [x1]], np.zeros((2, 0))), want)


@settings(max_examples=300, deadline=None)
@given(st.lists(expr_trees, min_size=1, max_size=3), expr_points, expr_points)
def test_point_kernel_is_bit_equal_to_the_walk(trees, x, u):
    # a derivative shares subtrees with its tree, so some are computed once
    trees = trees + [differentiate(trees[0], "x1")]
    kernel = ex.point_kernel(list(zip(trees, range(len(trees)))))
    try:
        got = kernel(x, u, [None] * len(trees))
    except (ArithmeticError, ValueError, IndexError):
        return  # the caller reruns the walk: test_system checks that path
    want = [evaluate(tree, x, u) for tree in trees]
    assert float_bits(got) == float_bits(want)


def test_point_kernel_fills_every_slot_of_a_tree():
    # a tree listed twice fills both slots and is computed once
    tree = parse("sin(x1)*x1")
    kernel = ex.point_kernel([(tree, 3), (tree, 0), (parse("-0*x1"), 1)])
    out = kernel([0.5], (), [7.0] * 5)
    assert out == [math.sin(0.5) * 0.5, -0.0, 7.0, math.sin(0.5) * 0.5, 7.0]
    assert math.copysign(1.0, out[1]) == -1.0
    # the load of x1, sin, the product, -0 and its product
    assert len(kernel.__code__.co_varnames) == 3 + 5


def test_point_kernel_walks_a_shared_subtree_once():
    # s_{k+1} = s_k + s_k for 80 levels: 2^80 paths down to x1 but one
    # object per level, so only an emitter that stops at a node it has
    # seen builds this kernel
    tree = Var("x", 1)
    for _ in range(80):
        tree = Binary("+", tree, tree)
    kernel = ex.point_kernel([(tree, 0), (tree, 1)])
    # the load of x1 and one line per level
    assert kernel.__code__.co_varnames == ("x", "u", "out", *(f"t{i}" for i in range(81)))
    assert kernel([0.75], (), [None, None]) == [0.75 * 2.0**80] * 2


def test_template_trees_sharing_a_subtree_emit_its_line_once():
    shared = parse("sin(x1) * x2")
    template = _Template([Binary("+", shared, Var("x", 1)), Unary("neg", shared), shared], (3,))
    value = math.sin(0.5) * 2.0
    assert template.point([0.5, 2.0], ()) == [value + 0.5, -value, value]
    # the loads of x1 and x2, sin, the product, the sum and the negation
    assert len(template.kernel.__code__.co_varnames) == 3 + 6


def test_evaluate_batch_constant_expression_broadcasts():
    vals = batch_column(parse("3"), np.zeros((7, 2)), np.zeros((7, 0)))
    np.testing.assert_array_equal(vals, np.full(7, 3.0))
    # a tree that reads no variable is computed once, on scalars
    vals = batch_column(parse("sin(3)"), np.zeros((7, 2)), np.zeros((7, 0)))
    np.testing.assert_array_equal(vals, np.full(7, math.sin(3.0)))


# the batch walk that evaluated batches before the batch kernels: the
# reference whose ufunc calls and operands a batch kernel must repeat
_WALK_UFUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "ln": np.log,
    "sqrt": np.sqrt, "abs": np.abs, "tanh": np.tanh, "sign": np.sign, "neg": np.negative,
}


def _walk(e, x, u):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        vec = x if e.kind == "x" else u
        if e.index > len(vec):
            raise ExprEvalError(e, f"variable {e.name} is out of range for dimension {len(vec)}")
        return vec[e.index - 1]
    if isinstance(e, Unary):
        return _WALK_UFUNCS[e.op](_walk(e.arg, x, u))
    if isinstance(e, Pow):
        return np.power(_walk(e.base, x, u), e.exponent)
    lv, rv = _walk(e.left, x, u), _walk(e.right, x, u)
    if e.op == "+":
        return lv + rv
    if e.op == "-":
        return lv - rv
    if e.op == "*":
        return lv * rv
    return np.divide(lv, rv)


def _walk_batch(e, x, u):
    """One tree over the rows of (x, u), broadcast to N rows."""
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    with np.errstate(all="ignore"):
        out = _walk(e, x.T, u.T)
    return np.full(x.shape[0], float(out)) if np.ndim(out) == 0 else out


_batch_rows = st.lists(st.lists(
    st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0, 1e3, -1e3, 1e200]), min_size=4, max_size=4
), max_size=5)


@settings(max_examples=300, deadline=None)
@given(st.lists(expr_trees, min_size=1, max_size=4), _batch_rows)
def test_batch_kernels_keep_the_bits_of_the_batch_walk(trees, rows):
    # a derivative shares subtrees with its tree, so some are computed once
    trees = trees + [differentiate(trees[0], "x1")]
    points = np.array(rows, dtype=float).reshape(-1, 4)
    x, u = points[:, :2], points[:, 2:]
    want = [_walk_batch(tree, x, u) for tree in trees]
    for tree, w in zip(trees, want):
        got = batch_column(tree, x, u)
        assert got.shape == (len(rows),) and float_bits(got) == float_bits(w), unparse(tree)
    template = _Template(trees, (len(trees),))
    got = template.batch(x, u)
    assert got.shape == (len(rows), len(trees))
    assert float_bits(got) == float_bits(np.stack(want, axis=-1).reshape(got.shape))
    live = {j for _, j in template.live}
    for j, value in zip(template.support_flat, template.support_batch(x, u)):
        if j in live:  # a column, or a numpy scalar for a tree that reads no variable
            assert np.shape(value) in ((len(rows),), ())
            assert float_bits(np.broadcast_to(value, len(rows))) == float_bits(want[j])
        else:
            assert type(value) is float and float_bits(value) == float_bits(trees[j].value)


@pytest.mark.parametrize(
    "text, n, m, name", [("x1 + x3", 2, 0, "x3"), ("u2 * x3 + u2", 2, 1, "u2"), ("u1", 1, 0, "u1")]
)
def test_evaluate_batch_names_the_first_variable_out_of_range(text, n, m, name):
    tree = parse(text)
    with pytest.raises(ExprEvalError) as want:
        _walk_batch(tree, np.zeros((3, n)), np.zeros((3, m)))
    with pytest.raises(ExprEvalError) as got:
        batch_column(tree, np.zeros((3, n)), np.zeros((3, m)))
    assert str(got.value) == str(want.value) and got.value.node == Var(name[0], int(name[1]))


def test_template_over_a_shared_subtree_builds_and_evaluates_once_per_level():
    # the tree of test_point_kernel_walks_a_shared_subtree_once, 2^80 paths
    tree = Var("x", 1)
    for _ in range(80):
        tree = Binary("+", tree, tree)
    template = _Template([tree, Unary("neg", tree), Const(2.0)], (3,))
    value = 0.75 * 2.0**80
    assert template.point([0.75], ()) == [value, -value, 2.0]
    got = template.batch(np.array([[0.75], [-1.5]]), np.zeros((2, 0)))
    assert got.tolist() == [[value, -value, 2.0], [-2.0 * value, 2.0 * value, 2.0]]
    # the load of x1, one line per level and the negation
    names = ("x", "u", "out", *(f"t{i}" for i in range(82)))
    assert template.kernel.__code__.co_varnames == names
    assert template.batch_kernels[1, 0].__code__.co_varnames == names


def test_batch_kernel_frees_each_column_after_its_last_read():
    # 40 nested sines: a kernel that kept its temporaries to the end, not
    # freeing them as a walk of the tree does, would hold 40 columns
    tree = Var("x", 1)
    for _ in range(40):
        tree = Unary("sin", tree)
    template = _Template([tree, Unary("neg", tree)], (2,))
    x, u = np.full((10_000, 1), 0.5), np.zeros((10_000, 0))
    want = template.batch(x, u)  # builds the kernel
    tracemalloc.start()
    try:
        got = template.batch(x, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak < 6 * x.nbytes  # the two result columns and a few temporaries


def test_template_batch_names_a_variable_out_of_range_on_every_call():
    template = _Template([parse("x2 + u1")], (1,))
    assert template.batch(np.ones((2, 2)), np.ones((2, 1))).tolist() == [[2.0], [2.0]]
    for _ in range(2):
        with pytest.raises(ExprEvalError, match="variable x2 is out of range for dimension 1"):
            template.batch(np.ones((2, 1)), np.ones((2, 1)))


def test_template_entries_differing_in_the_sign_of_zero_stay_distinct():
    x1 = Var("x", 1)
    entries = [Binary("*", x1, Const(0.0)), Binary("*", x1, Const(-0.0)), Unary("sin", Const(-0.0))]
    template = _Template(entries, (3,))
    assert float_bits(template.point([1.0], ())) == float_bits([0.0, -0.0, -0.0])
    got = template.batch(np.ones((2, 1)), np.zeros((2, 0)))
    assert float_bits(got) == float_bits([[0.0, -0.0, -0.0]] * 2)
    support = template.support_batch(np.ones((2, 1)), np.zeros((2, 0)))
    assert [float_bits(v) for v in support] == [float_bits(v) for v in ([0.0] * 2, [-0.0] * 2, -0.0)]


@pytest.mark.parametrize("first", [0, 1])
def test_template_point_error_names_the_first_failing_entry_in_c_order(first):
    failing = [parse("sqrt(x1 - 2)"), parse("ln(x1)")]
    if first:
        failing.reverse()
    # the same trees again after the failing ones: the kernel computes them once
    template = _Template([parse("x1 + 1"), *failing, *failing], (5,))
    with pytest.raises(ExprEvalError) as err:
        template.point([-1.0], ())
    assert err.value.node == failing[0]
    assert np.isnan(template.batch(np.array([[-1.0]]), np.zeros((1, 0)))[0, 1:]).all()


# ---------------------------------------------------------------------------
# differentiation

def test_derivative_power_rule_structure():
    assert differentiate(parse("x1^2"), "x1") == parse("2*x1")


def test_derivative_examples():
    d = differentiate(parse("-sin(x1)"), "x1")
    assert evaluate(d, [0.0]) == -1.0
    assert differentiate(parse("sin(x1)"), "x2") == Const(0.0)


def test_derivative_abs_sign_convention():
    d = differentiate(parse("abs(x1)"), "x1")
    assert evaluate(d, [2.0]) == 1.0
    assert evaluate(d, [-2.0]) == -1.0
    assert evaluate(d, [0.0]) == 0.0


_DIFF_CASES = [
    "x1^3 - 2*x1 + 5",
    "sin(x1)*cos(x2)",
    "exp(x1*x2)",
    "ln(x1^2 + 1)",
    "sqrt(x1^2 + x2^2 + 1)",
    "tan(x1/4)",
    "tanh(x1 - x2)",
    "u1*x1^2 + u1^2*x2",
    "x1/(x2^2 + 2)",
    "-sin(x1) + x2",
]


@pytest.mark.parametrize("text", _DIFF_CASES)
def test_derivative_matches_central_differences(text):
    tree = parse(text)
    rng = np.random.default_rng(42)
    for var_idx, var in enumerate(["x1", "x2"]):
        deriv = differentiate(tree, var)
        for _ in range(100):
            x = rng.uniform(0.2, 1.8, size=2)
            u = rng.uniform(0.2, 1.8, size=1)
            sym = evaluate(deriv, x, u)
            fd = central_diff(lambda pt: evaluate(tree, pt, u), x, var_idx)
            assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym))


def test_derivative_is_linear():
    rng = np.random.default_rng(3)
    e1, e2 = parse("sin(x1)*x2"), parse("x1^3 + cos(x2)")
    d_sum = differentiate(Binary("+", e1, e2), "x1")
    d1 = differentiate(e1, "x1")
    d2 = differentiate(e2, "x1")
    for _ in range(50):
        x = rng.uniform(-2, 2, size=2)
        lhs = evaluate(d_sum, x)
        rhs = evaluate(d1, x) + evaluate(d2, x)
        assert abs(lhs - rhs) <= 1e-12


def test_second_derivative_by_repeated_differentiation():
    tree = parse("x1^3")
    second = differentiate(differentiate(tree, "x1"), "x1")
    assert evaluate(second, [2.0]) == 12.0


def test_derivative_of_a_constant_power_folds_as_evaluation_does():
    # a zero exponent used to fold 0^-1, and 1e300^2 used to raise
    assert differentiate(parse("0^0"), "x1") == Const(0.0)
    assert differentiate(parse("x1^0"), "x1") == Const(0.0)
    # 3 * 1e300^2 * 0 = inf * 0
    assert np.isnan(differentiate(parse("1e300^3"), "x1").value)


def test_differentiate_rejects_bad_variable_names():
    with pytest.raises(ValueError):
        differentiate(parse("x1"), "q1")
    with pytest.raises(ValueError):
        differentiate(parse("x1"), "x0")


def test_max_indices():
    assert ex.max_indices(parse("x2 + u1*x1^2")) == (2, 1)
    assert ex.max_indices(parse("42")) == (0, 0)
