"""End-to-end tests: the window built-ins from Pisces Fortran."""

import numpy as np
import pytest

from repro.errors import TranslationError
from repro.fortran import generate_python


class TestWindowBuiltins:
    def test_export_create_read_between_tasks(self, run_fortran):
        """Owner exports and sends a window; reader WREADs it."""
        src = """
        TASK OWNER
        REAL A(8)
        INTEGER I
        DO 10 I = 1, 8
          A(I) = I * 1.0
        10 CONTINUE
        CALL WEXPORT('DATA', A)
        WINDOW W
        CALL WCREATE(W, 'DATA')
        ON SAME INITIATE READER
        ACCEPT 1 OF HELLO
        TO SENDER SEND WIN(W)
        ACCEPT 1 OF SUM
        END TASK

        TASK READER
        REAL B(8)
        REAL S
        INTEGER I
        HANDLER WIN
        TO PARENT SEND HELLO
        ACCEPT 1 OF WIN
        END TASK

        HANDLER WIN(W)
        WINDOW W
        REAL B(8)
        REAL S
        INTEGER I
        CALL WREAD(B, W)
        S = 0.0
        DO 20 I = 1, 8
          S = S + B(I)
        20 CONTINUE
        PRINT *, 'SUM', S
        TO SENDER SEND SUM(S)
        END HANDLER
        """
        (r, vm) = run_fortran(src, "OWNER")
        assert "SUM 36.0" in r.console
        assert vm.stats.window_bytes_read == 8 * 8

    def test_shrink_and_write(self, run_fortran):
        src = """
        TASK T
        REAL A(10)
        REAL B(4)
        INTEGER I
        WINDOW W, W2
        DO 10 I = 1, 10
          A(I) = 0.0
        10 CONTINUE
        DO 20 I = 1, 4
          B(I) = 9.0
        20 CONTINUE
        CALL WEXPORT('A', A)
        CALL WCREATE(W, 'A')
        CALL WSHRINK(W2, W, 3, 6)
        CALL WWRITE(W2, B)
        PRINT *, A(2), A(3), A(6), A(7)
        END TASK
        """
        (r, vm) = run_fortran(src, "T")
        assert "0.0 9.0 9.0 0.0" in r.console

    def test_file_window(self, run_fortran):
        src = """
        TASK T
        REAL B(6)
        WINDOW W
        CALL WFILE(W, 'INPUT')
        CALL WREAD(B, W)
        PRINT *, B(1), B(6)
        END TASK
        """
        (r, vm) = run_fortran(
            src, "T",
            setup=lambda vm: vm.export_file(
                "INPUT", np.arange(1.0, 7.0)))
        assert "1.0 6.0" in r.console

    def test_wexport_requires_declared_array(self):
        with pytest.raises(TranslationError):
            generate_python("TASK T\nCALL WEXPORT('A', X)\nEND TASK")

    def test_wshrink_requires_pairs(self):
        with pytest.raises(TranslationError):
            generate_python(
                "TASK T\nWINDOW W, W2\nCALL WSHRINK(W2, W, 1)\nEND TASK")

    def test_user_subroutine_still_callable(self, run_fortran):
        # Window built-ins must not shadow user subroutines of other names.
        src = """
        TASK T
        CALL HELPER(3)
        END TASK

        SUBROUTINE HELPER(K)
        INTEGER K
        PRINT *, 'K', K
        END
        """
        (r, _) = run_fortran(src, "T")
        assert "K 3" in r.console
