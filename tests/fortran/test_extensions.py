"""Tests: WRITE(*,*), PARAMETER and DATA statement support."""

import pytest

from repro.errors import ParseError
from repro.fortran.parser import parse_source


class TestWrite:
    def test_write_star_star_is_print(self, run_fortran):
        src = """
        TASK T
        INTEGER X
        X = 7
        WRITE (*, *) 'X IS', X
        END TASK
        """
        r, _ = run_fortran(src, "T")
        assert "X IS 7" in r.console

    def test_write_with_no_items(self, run_fortran):
        src = "TASK T\nWRITE (*, *)\nEND TASK"
        r, _ = run_fortran(src, "T")
        assert r.value is None

    def test_write_to_unit_number_rejected(self):
        with pytest.raises(ParseError, match="WRITE"):
            parse_source("TASK T\nWRITE (6, *) X\nEND TASK")


class TestParameter:
    def test_single_parameter(self, run_fortran):
        src = """
        TASK T
        INTEGER N
        PARAMETER (N = 12)
        PRINT *, 'N=', N
        END TASK
        """
        assert "N= 12" in run_fortran(src, "T")[0].console

    def test_multiple_parameters(self, run_fortran):
        src = """
        TASK T
        PARAMETER (A = 2, B = 3, C = A)
        PRINT *, A * B, C
        END TASK
        """
        assert "6 2" in run_fortran(src, "T")[0].console

    def test_parameter_expression(self, run_fortran):
        src = """
        TASK T
        PARAMETER (N = 4 * 8 + 1)
        PRINT *, N
        END TASK
        """
        assert "33" in run_fortran(src, "T")[0].console

    def test_malformed_parameter_rejected(self):
        with pytest.raises(ParseError):
            parse_source("TASK T\nPARAMETER N = 3\nEND TASK")


class TestData:
    def test_data_initialization(self, run_fortran):
        src = """
        TASK T
        REAL X
        INTEGER K
        DATA X /2.5/, K /7/
        PRINT *, X, K
        END TASK
        """
        assert "2.5 7" in run_fortran(src, "T")[0].console

    def test_data_single(self, run_fortran):
        src = "TASK T\nDATA Z /9/\nPRINT *, Z\nEND TASK"
        assert "9" in run_fortran(src, "T")[0].console

    def test_data_missing_slash_rejected(self):
        with pytest.raises(ParseError):
            parse_source("TASK T\nDATA X 3\nEND TASK")

    def test_data_used_as_loop_bound(self, run_fortran):
        src = """
        TASK T
        INTEGER N, I, S
        DATA N /5/, S /0/
        DO 10 I = 1, N
          S = S + I
        10 CONTINUE
        PRINT *, S
        END TASK
        """
        assert "15" in run_fortran(src, "T")[0].console
