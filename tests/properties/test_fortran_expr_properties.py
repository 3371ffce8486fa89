"""Property-based tests: Fortran expression translation correctness.

Random integer expression trees are rendered to Fortran source, pushed
through the lexer + parser + code generator, and the emitted Python is
evaluated against a reference interpreter that implements Fortran
semantics directly (notably: integer division truncates toward zero).
"""

from hypothesis import assume, given, settings, strategies as st

from repro.fortran import runtime as _rt
from repro.fortran.lexer import tokenize_line
from repro.fortran.expr import ExprParser
from repro.fortran.preprocessor import CodeGenerator, UnitInfo
from repro.fortran.ast_nodes import Program, ProgramUnit

# ---------------------------------------------------------------- trees --

@st.composite
def int_exprs(draw, depth=0):
    """(fortran_text, reference_value) pairs for integer expressions."""
    if depth >= 4 or draw(st.booleans()):
        n = draw(st.integers(min_value=0, max_value=99))
        return str(n), n
    op = draw(st.sampled_from(["+", "-", "*", "/"]))
    lt, lv = draw(int_exprs(depth=depth + 1))
    rt_, rv = draw(int_exprs(depth=depth + 1))
    if op == "/":
        assume(rv != 0)
        val = _rt.div(lv, rv)
    elif op == "+":
        val = lv + rv
    elif op == "-":
        val = lv - rv
    else:
        val = lv * rv
    return f"({lt} {op} {rt_})", val


def translate_and_eval(text: str):
    toks = tokenize_line(text, 1)
    ast = ExprParser(toks, 0, 1).parse()
    unit = ProgramUnit(kind="TASK", name="T", params=[])
    gen = CodeGenerator(Program(units=[unit]))
    info = UnitInfo.build(unit)
    py = gen._expr(ast, info)
    return eval(py, {"_rt": _rt})   # noqa: S307 - test-local eval


@given(int_exprs())
@settings(max_examples=300, deadline=None)
def test_integer_expression_translation_matches_reference(pair):
    text, expected = pair
    assert translate_and_eval(text) == expected


@given(st.integers(min_value=-99, max_value=99),
       st.integers(min_value=-99, max_value=99))
@settings(max_examples=200, deadline=None)
def test_division_truncates_toward_zero(a, b):
    assume(b != 0)
    got = translate_and_eval(f"({a}) / ({b})")
    import math
    expected = math.trunc(a / b)
    assert got == expected


@given(st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=4))
@settings(max_examples=100, deadline=None)
def test_power_matches_python(a, b):
    assert translate_and_eval(f"{a} ** {b}") == a ** b


@given(st.integers(min_value=-50, max_value=50),
       st.integers(min_value=-50, max_value=50))
@settings(max_examples=200, deadline=None)
def test_relational_operators(a, b):
    for fop, pyop in ((".EQ.", "=="), (".NE.", "!="), (".LT.", "<"),
                      (".LE.", "<="), (".GT.", ">"), (".GE.", ">=")):
        got = translate_and_eval(f"({a}) {fop} ({b})")
        assert got == eval(f"{a} {pyop} {b}")
