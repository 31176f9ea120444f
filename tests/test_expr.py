"""Tests for the expression language."""

import pytest

from repro.workflow.expr import ExprError, compile_expr


def ev(source, **env):
    return compile_expr(source)(env)


class TestArithmetic:
    def test_literals(self):
        assert ev("42") == 42
        assert ev("3.5") == 3.5
        assert ev("true") == 1
        assert ev("false") == 0

    def test_basic_ops(self):
        assert ev("2 + 3 * 4") == 14
        assert ev("(2 + 3) * 4") == 20
        assert ev("10 - 4 - 3") == 3          # left associative
        assert ev("7 // 2") == 3
        assert ev("7 / 2") == 3.5
        assert ev("7 % 3") == 1

    def test_unary_minus(self):
        assert ev("-5 + 3") == -2
        assert ev("--5") == 5
        assert ev("-(2 + 3)") == -5

    def test_variables(self):
        assert ev("a * b + c", a=2, b=3, c=4) == 10

    def test_functions(self):
        assert ev("min(3, 7)") == 3
        assert ev("max(3, 7, 2)") == 7
        assert ev("abs(-9)") == 9
        assert ev("min(a, 10) + max(b, 0)", a=42, b=-3) == 10

    def test_division_by_zero_wrapped(self):
        with pytest.raises(ExprError, match="division by zero"):
            ev("1 / 0")
        with pytest.raises(ExprError, match="division by zero"):
            ev("1 % n", n=0)


class TestComparisonAndBoolean:
    def test_comparisons_yield_01(self):
        assert ev("3 < 4") == 1
        assert ev("3 > 4") == 0
        assert ev("3 <= 3") == 1
        assert ev("3 >= 4") == 0
        assert ev("3 == 3") == 1
        assert ev("3 != 3") == 0

    def test_boolean_operators(self):
        assert ev("1 and 2") == 1
        assert ev("0 and 1") == 0
        assert ev("0 or 3") == 1
        assert ev("0 or 0") == 0
        assert ev("not 0") == 1
        assert ev("not 5") == 0

    def test_precedence_not_over_and_over_or(self):
        assert ev("not 0 and 0 or 1") == 1
        assert ev("1 or 0 and 0") == 1

    def test_short_circuit_avoids_errors(self):
        assert ev("0 and 1 / 0") == 0
        assert ev("1 or 1 / 0") == 1

    def test_conditional(self):
        assert ev("x > 5 ? 10 : 20", x=7) == 10
        assert ev("x > 5 ? 10 : 20", x=3) == 20
        assert ev("a ? b : c ? d : e", a=0, c=0, e=99, b=1, d=2) == 99


class TestNamesInference:
    def test_names_are_free_variables(self):
        e = compile_expr("qty * unit + (rush ? fee : 0)")
        assert e.names == frozenset({"qty", "unit", "rush", "fee"})

    def test_literals_have_no_names(self):
        assert compile_expr("1 + 2 * 3").names == frozenset()

    def test_function_args_counted(self):
        assert compile_expr("min(a, b)").names == frozenset({"a", "b"})

    def test_boolean_names_conservative(self):
        # Short-circuit may skip a side at runtime, but the dependence
        # analysis needs the full union.
        assert compile_expr("a and b").names == frozenset({"a", "b"})


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "", "   ", "1 +", "* 2", "(1", "1)", "a b", "min", "min(",
        "1 ? 2", "@", "1 ? 2 : ", "min(1,)",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(ExprError):
            compile_expr(bad)

    def test_unbound_variable(self):
        with pytest.raises(ExprError, match="unbound"):
            ev("ghost + 1")

    def test_no_attribute_access_possible(self):
        with pytest.raises(ExprError):
            compile_expr("a.b")

    def test_no_arbitrary_calls(self):
        with pytest.raises(ExprError):
            compile_expr("open(1)")("x")  # 'open(' parses as name+junk

    def test_repr_and_source(self):
        e = compile_expr("a + 1")
        assert e.source == "a + 1"
        assert "a + 1" in repr(e)
