"""Unit tests: expression/statement translation and runtime shims."""

import inspect
from pathlib import Path

import pytest

from repro.apps.fortran_programs import PI_BY_FORCE
from repro.errors import TranslationError
from repro.fortran.preprocessor import generate_python, preprocess
from repro.fortran.runtime import FArray, Namespace, div, frange


def gen(stmts, decls=""):
    src = f"TASK T\n{decls}\n{stmts}\nEND TASK"
    py, _ = generate_python(src)
    return py


class TestExpressionTranslation:
    def test_fortran_division_semantics(self):
        assert div(7, 2) == 3
        assert div(-7, 2) == -3          # truncation toward zero
        assert div(7, -2) == -3
        assert div(7.0, 2) == 3.5

    def test_division_routed_through_helper(self):
        assert "_rt.div(" in gen("X = A / B")

    def test_relational_and_logical_ops(self):
        py = gen("F = A .GE. B .AND. .NOT. C")
        assert ">=" in py and " and " in py and "not " in py

    def test_power_right_associative(self):
        py = gen("X = 2 ** 3 ** 2")
        assert "(2 ** (3 ** 2))" in py

    def test_intrinsics(self):
        py = gen("X = SQRT(ABS(Y))")
        assert "_rt.intrinsic('SQRT')" in py
        assert "_rt.intrinsic('ABS')" in py

    def test_unknown_function_rejected(self):
        with pytest.raises(TranslationError, match="MYFUNC"):
            gen("X = MYFUNC(1)")

    def test_special_vars_translate_to_context(self):
        py = gen("T = SENDER\nP = PARENT\nM = MEMBER")
        assert "ctx.sender" in py and "ctx.parent" in py
        assert "(ctx.member + 1)" in py

    def test_declared_name_shadows_special_var(self):
        py = gen("SENDER = 1", decls="INTEGER SENDER")
        assert "V.SENDER = 1" in py

    def test_string_concat(self):
        py = gen("S = 'A' // 'B'")
        assert "('A' + 'B')" in py


class TestStatementTranslation:
    def test_call_of_undefined_subroutine_rejected(self):
        with pytest.raises(TranslationError, match="NOSUB"):
            gen("CALL NOSUB(1)")

    def test_handler_decl_without_unit_rejected(self):
        with pytest.raises(TranslationError, match="RESULT"):
            preprocess("TASK T\nHANDLER RESULT\nEND TASK")

    def test_array_dims_must_be_constant(self):
        with pytest.raises(TranslationError):
            gen("X = 1", decls="SHARED COMMON /G/ A(N)")

    def test_compute_translates_to_ctx(self):
        assert "yield from ctx.compute(int(" in gen("COMPUTE 100")

    def test_selfsched_rejects_return_in_its_body(self):
        with pytest.raises(TranslationError, match="SELFSCHED"):
            gen("FORCESPLIT\nSELFSCHED DO 10 I = 1, 4\n"
                "IF (I .EQ. 2) RETURN\n10 CONTINUE")

    def test_shared_scalar_uses_zero_d_access(self):
        py = gen("N = N + 1", decls="SHARED COMMON /G/ N\nINTEGER N")
        assert "V.N[()] = (V.N[()] + 1)" in py


def units(src):
    """Generated function name -> whether it is a generator function."""
    namespace = {}
    exec(generate_python(src)[0], namespace)
    return {k: inspect.isgeneratorfunction(v) for k, v in namespace.items()
            if k.startswith(("_task_", "_sub_", "_hnd_"))}


class TestCoroutineBodies:
    """Every TASK is a generator, so it runs as a coroutine process with
    no thread; a SUBROUTINE or HANDLER is one only when it can
    suspend, directly or through a CALL."""

    def test_every_task_is_a_generator(self):
        assert units("TASK T\nX = 1\nEND TASK\n"
                     "TASK U\nCOMPUTE 5\nEND TASK") == {
            "_task_T": True, "_task_U": True}

    def test_subroutines_suspend_through_calls(self):
        src = """
        TASK T
        CALL OUTER
        CALL PLAIN
        END TASK
        SUBROUTINE OUTER
        CALL INNER
        END
        SUBROUTINE INNER
        COMPUTE 5
        END
        SUBROUTINE PLAIN
        X = 1
        END
        """
        assert units(src) == {"_task_T": True, "_sub_OUTER": True,
                              "_sub_INNER": True, "_sub_PLAIN": False}
        py = generate_python(src)[0]
        assert "yield from _sub_OUTER(ctx)" in py
        assert "    _sub_PLAIN(ctx)" in py

    def test_handlers_are_generators_only_when_they_suspend(self):
        src = """
        TASK T
        HANDLER A, B
        ACCEPT 2 OF A, B
        END TASK
        HANDLER A(X)
        PRINT *, X
        END HANDLER
        HANDLER B(W)
        WINDOW W
        REAL R(2)
        CALL WREAD(R, W)
        END HANDLER
        """
        assert units(src) == {"_task_T": True, "_hnd_A": False,
                              "_hnd_B": True}

    def test_the_documented_example_is_current(self):
        doc = (Path(__file__).resolve().parents[2] / "docs"
               / "pisces_fortran.md").read_text()
        block = doc.split("```python\n# Generated by")[1].split("```")[0]
        assert "# Generated by" + block == generate_python(PI_BY_FORCE)[0]

    def test_force_region_is_a_generator_even_without_suspension(self):
        py = generate_python("TASK T\nFORCESPLIT\nX = MEMBER\nEND TASK")[0]
        assert "yield from ctx.forcesplit(_force_region" in py
        region = py[py.index("def _force_region"):]
        assert "        return\n        yield\n" in region


class TestRuntimeShims:
    def test_frange_inclusive(self):
        assert list(frange(1, 5)) == [1, 2, 3, 4, 5]
        assert list(frange(1, 10, 3)) == [1, 4, 7, 10]
        assert list(frange(5, 1, -2)) == [5, 3, 1]
        assert list(frange(5, 1)) == []

    def test_frange_zero_step_rejected(self):
        with pytest.raises(ValueError):
            frange(1, 5, 0)

    def test_farray_one_based(self):
        a = FArray("REAL", (3, 2))
        a[1, 1] = 5.0
        a[3, 2] = 7.0
        assert a.data[0, 0] == 5.0 and a.data[2, 1] == 7.0
        assert a[3, 2] == 7.0

    def test_farray_object_dtype_for_taskid(self):
        a = FArray("TASKID", (2,))
        assert a[2] is None
        a[1] = "anything"
        assert a[1] == "anything"

    def test_arrays_have_at_most_two_dimensions(self):
        with pytest.raises(TranslationError, match="at most 2"):
            preprocess("TASK T\nREAL A(2, 2, 2)\nEND TASK")

    def test_namespace_copy_duplicates_locals_keeps_shared(self):
        import numpy as np
        ns = Namespace()
        ns.local_arr = FArray("REAL", (2,))
        ns.shared_arr = FArray.wrap(np.zeros(2))
        ns.scalar = 5
        ns2 = ns.copy()
        ns2.local_arr[1] = 9.0
        ns2.shared_arr[1] = 9.0
        assert ns.local_arr[1] == 0.0          # copied
        assert ns.shared_arr[1] == 9.0         # same storage
        assert ns2.scalar == 5
