"""Property-based tests (hypothesis) for the expression language.

Random expression ASTs are rendered to source and re-parsed; parsing
must invert rendering (same value, same free variables).  This checks
the tokenizer/parser against an independently-constructed ground truth
rather than hand-picked cases.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workflow.expr import compile_expr

VARS = ["a", "b", "c", "qty", "rate"]
ENV = {"a": 3, "b": -2, "c": 7, "qty": 10, "rate": 4}


@st.composite
def ast(draw, depth=0):
    """A random (source, expected_value) pair, always well-formed.

    Division/modulo are avoided so expected values are computable
    without zero-division cases; the rendered source uses explicit
    parentheses, so operator precedence is exercised on re-parse.
    """
    if depth >= 4 or draw(st.booleans()):
        kind = draw(st.sampled_from(["int", "var", "bool"]))
        if kind == "int":
            n = draw(st.integers(min_value=0, max_value=99))
            return str(n), n
        if kind == "var":
            name = draw(st.sampled_from(VARS))
            return name, ENV[name]
        lit = draw(st.sampled_from(["true", "false"]))
        return lit, 1 if lit == "true" else 0
    kind = draw(st.sampled_from(
        ["add", "sub", "mul", "neg", "min", "max", "abs",
         "lt", "eq", "and", "or", "not", "cond"]
    ))
    if kind in ("add", "sub", "mul", "lt", "eq", "and", "or"):
        ls, lv = draw(ast(depth=depth + 1))
        rs, rv = draw(ast(depth=depth + 1))
        if kind == "add":
            return f"({ls} + {rs})", lv + rv
        if kind == "sub":
            return f"({ls} - {rs})", lv - rv
        if kind == "mul":
            return f"({ls} * {rs})", lv * rv
        if kind == "lt":
            return f"({ls} < {rs})", 1 if lv < rv else 0
        if kind == "eq":
            return f"({ls} == {rs})", 1 if lv == rv else 0
        if kind == "and":
            return f"({ls} and {rs})", 1 if (lv and rv) else 0
        return f"({ls} or {rs})", 1 if (lv or rv) else 0
    if kind == "neg":
        s, v = draw(ast(depth=depth + 1))
        return f"(-{s})", -v
    if kind == "not":
        s, v = draw(ast(depth=depth + 1))
        return f"(not {s})", 0 if v else 1
    if kind == "abs":
        s, v = draw(ast(depth=depth + 1))
        return f"abs({s})", abs(v)
    if kind in ("min", "max"):
        ls, lv = draw(ast(depth=depth + 1))
        rs, rv = draw(ast(depth=depth + 1))
        fn = min if kind == "min" else max
        return f"{kind}({ls}, {rs})", fn(lv, rv)
    # cond
    ts, tv = draw(ast(depth=depth + 1))
    as_, av = draw(ast(depth=depth + 1))
    bs, bv = draw(ast(depth=depth + 1))
    return f"({ts} ? {as_} : {bs})", (av if tv else bv)


@settings(max_examples=200, deadline=None)
@given(ast())
def test_parse_evaluates_to_constructed_value(pair):
    source, expected = pair
    expr = compile_expr(source)
    assert expr(ENV) == expected


@settings(max_examples=100, deadline=None)
@given(ast())
def test_free_variables_sufficient_and_sound(pair):
    source, expected = pair
    expr = compile_expr(source)
    # Soundness: every reported name is syntactically present.
    assert expr.names <= set(VARS)
    for name in expr.names:
        assert name in source
    # Sufficiency: an env restricted to exactly the reported names
    # always evaluates (names is a conservative superset of what any
    # evaluation path can touch).
    env = {k: ENV[k] for k in expr.names}
    assert expr(env) == expected


@settings(max_examples=100, deadline=None)
@given(ast())
def test_reparse_of_source_is_stable(pair):
    source, __ = pair
    first = compile_expr(source)
    second = compile_expr(first.source)
    assert first(ENV) == second(ENV)
    assert first.names == second.names
