"""End-to-end tests: preprocessed Pisces Fortran programs on the VM."""

from repro.config.configuration import ClusterSpec, Configuration


class TestSequentialPrograms:
    def test_arithmetic_and_loops(self, run_fortran):
        src = """
        TASK T
        INTEGER I, S
        S = 0
        DO 10 I = 1, 10
          S = S + I * I
        10 CONTINUE
        PRINT *, 'S=', S
        END TASK
        """
        r, _ = run_fortran(src, "T")
        assert "S= 385" in r.console

    def test_if_elseif_else_chain(self, run_fortran):
        src = """
        TASK T(N)
        INTEGER N
        IF (N .GT. 10) THEN
          PRINT *, 'BIG'
        ELSE IF (N .GT. 5) THEN
          PRINT *, 'MID'
        ELSE
          PRINT *, 'SMALL'
        END IF
        END TASK
        """
        for n, word in ((20, "BIG"), (7, "MID"), (1, "SMALL")):
            r, _ = run_fortran(src, "T", n)
            assert word in r.console

    def test_do_while_and_logical_if(self, run_fortran):
        src = """
        TASK T
        INTEGER X
        X = 0
        DO WHILE (X .LT. 5)
          X = X + 1
          IF (X .EQ. 3) PRINT *, 'THREE'
        END DO
        PRINT *, 'X=', X
        END TASK
        """
        r, _ = run_fortran(src, "T")
        assert "THREE" in r.console and "X= 5" in r.console

    def test_arrays_are_one_based(self, run_fortran):
        src = """
        TASK T
        INTEGER A(3), I
        DO 10 I = 1, 3
          A(I) = I * 10
        10 CONTINUE
        PRINT *, A(1), A(3)
        END TASK
        """
        r, _ = run_fortran(src, "T")
        assert "10 30" in r.console

    def test_subroutine_call(self, run_fortran):
        src = """
        TASK T
        CALL GREET('WORLD')
        END TASK

        SUBROUTINE GREET(WHO)
        PRINT *, 'HELLO', WHO
        END
        """
        r, _ = run_fortran(src, "T")
        assert "HELLO WORLD" in r.console

    def test_stop_ends_task(self, run_fortran):
        src = """
        TASK T
        PRINT *, 'BEFORE'
        STOP
        PRINT *, 'AFTER'
        END TASK
        """
        r, _ = run_fortran(src, "T")
        assert "BEFORE" in r.console and "AFTER" not in r.console


class TestMessagePrograms:
    def test_master_worker_with_taskid_array(self, run_fortran):
        src = """
        TASK MAIN
        INTEGER I, N
        TASKID KIDS(4)
        SIGNAL HELLO, DONE
        N = 4
        DO 10 I = 1, N
          ON ANY INITIATE WORKER(I)
        10 CONTINUE
        DO 20 I = 1, N
          ACCEPT 1 OF HELLO
          KIDS(I) = SENDER
        20 CONTINUE
        DO 30 I = 1, N
          TO KIDS(I) SEND GO(I)
        30 CONTINUE
        ACCEPT N OF DONE
        PRINT *, 'FINISHED'
        END TASK

        TASK WORKER(K)
        INTEGER K
        SIGNAL GO
        TO PARENT SEND HELLO(K)
        ACCEPT 1 OF GO
        COMPUTE 50 * K
        TO PARENT SEND DONE(K)
        END TASK
        """
        r, vm = run_fortran(src, "MAIN")
        assert "FINISHED" in r.console
        assert vm.stats.tasks_started == 5

    def test_handler_subroutine_same_name_as_type(self, run_fortran):
        src = """
        TASK MAIN
        HANDLER RESULT
        ON SAME INITIATE CHILD
        ACCEPT 1 OF RESULT
        END TASK

        TASK CHILD
        TO PARENT SEND RESULT(6, 7)
        END TASK

        HANDLER RESULT(A, B)
        INTEGER A, B
        PRINT *, 'PRODUCT', A * B
        END HANDLER
        """
        r, _ = run_fortran(src, "MAIN")
        assert "PRODUCT 42" in r.console

    def test_delay_clause_runs_on_timeout(self, run_fortran):
        src = """
        TASK T
        ACCEPT OF
          1 OF NEVER
        DELAY 200 THEN
          PRINT *, 'GAVE UP'
        END ACCEPT
        END TASK
        """
        r, _ = run_fortran(src, "T")
        assert "GAVE UP" in r.console

    def test_user_destination(self, run_fortran):
        src = """
        TASK T
        TO USER SEND STATUS('OK', 99)
        END TASK
        """
        r, vm = run_fortran(src, "T")
        assert vm.user_messages[0][0] == "STATUS"
        assert vm.user_messages[0][1] == ("OK", 99)


class TestForcePrograms:
    FORCE_CFG = Configuration(clusters=(
        ClusterSpec(1, 3, 2, secondary_pes=(4, 5, 6)),))

    def test_force_sum_with_critical(self, run_fortran):
        src = """
        TASK FSUM(N)
        INTEGER N, I
        SHARED COMMON /ACC/ TOTAL
        REAL TOTAL
        LOCK L
        FORCESPLIT
        PRESCHED DO 10 I = 1, N
          COMPUTE 10
          CRITICAL L
            TOTAL = TOTAL + I
          END CRITICAL
        10 CONTINUE
        BARRIER
          PRINT *, 'SUM', TOTAL
        END BARRIER
        END TASK
        """
        r, _ = run_fortran(src, "FSUM", 100, config=self.FORCE_CFG)
        assert "SUM 5050.0" in r.console

    def test_selfsched_covers_all(self, run_fortran):
        src = """
        TASK T(N)
        INTEGER N, I
        SHARED COMMON /S/ HITS(64)
        INTEGER HITS
        FORCESPLIT
        SELFSCHED DO 10 I = 1, N
          COMPUTE 5 * I
          HITS(I) = HITS(I) + 1
        10 CONTINUE
        BARRIER
          PRINT *, 'COVERED', HITS(1) + HITS(N)
        END BARRIER
        END TASK
        """
        r, _ = run_fortran(src, "T", 64, config=self.FORCE_CFG)
        assert "COVERED 2" in r.console

    def test_parseg_segments(self, run_fortran):
        src = """
        TASK T
        SHARED COMMON /S/ A, B, C
        INTEGER A, B, C
        FORCESPLIT
        PARSEG
          A = 1
        NEXTSEG
          B = 2
        NEXTSEG
          C = 3
        ENDSEG
        BARRIER
          PRINT *, 'SUM', A + B + C
        END BARRIER
        END TASK
        """
        r, _ = run_fortran(src, "T", config=self.FORCE_CFG)
        assert "SUM 6" in r.console

    def test_member_and_forcesize_specials(self, run_fortran):
        src = """
        TASK T
        SHARED COMMON /S/ SEEN(8)
        INTEGER SEEN
        FORCESPLIT
        SEEN(MEMBER) = FORCESIZE
        BARRIER
          PRINT *, 'M1', SEEN(1), 'M4', SEEN(4)
        END BARRIER
        END TASK
        """
        r, _ = run_fortran(src, "T", config=self.FORCE_CFG)
        assert "M1 4 M4 4" in r.console

    def test_shared_integer_divides_like_fortran(self, run_fortran):
        """A SHARED COMMON INTEGER reads as a Python int, so ``N / 2``
        truncates (numpy's int64 once made it true division, 3.5)."""
        src = """
        TASK T
        SHARED COMMON /S/ N
        INTEGER N
        INTEGER K
        N = 7
        K = N / 2
        PRINT *, 'K', K
        END TASK
        """
        r, _ = run_fortran(src, "T")
        assert "K 3" in r.console and "K 3.5" not in r.console

    def test_locals_are_per_member_after_split(self, run_fortran):
        src = """
        TASK T
        INTEGER X
        SHARED COMMON /S/ TOT
        INTEGER TOT
        LOCK L
        X = 100
        FORCESPLIT
        X = X + MEMBER
        CRITICAL L
          TOT = TOT + X
        END CRITICAL
        BARRIER
          PRINT *, 'TOT', TOT
        END BARRIER
        END TASK
        """
        # members get copies of X=100; X+m for m=1..4 -> 101+102+103+104
        r, _ = run_fortran(src, "T", config=self.FORCE_CFG)
        assert "TOT 410" in r.console


class TestSuspendingUnits:
    """Units and nested bodies that suspend, run on both vehicles."""

    FORCE_CFG = TestForcePrograms.FORCE_CFG

    def test_subroutine_suspends_through_a_call_chain(self, run_fortran):
        src = """
        TASK T
        CALL OUTER(30)
        PRINT *, 'BACK'
        END TASK

        SUBROUTINE OUTER(K)
        INTEGER K
        CALL INNER(K)
        COMPUTE K
        END

        SUBROUTINE INNER(K)
        INTEGER K
        COMPUTE 2 * K
        END
        """
        r, _ = run_fortran(src, "T")
        r2, _ = run_fortran(src.replace("COMPUTE", "X ="), "T")
        assert "BACK" in r.console
        assert r.elapsed >= r2.elapsed + 90      # 60 + 30 ticks charged

    def test_handler_that_computes(self, run_fortran):
        src = """
        TASK MAIN
        HANDLER WORK
        ON SAME INITIATE CHILD
        ACCEPT 1 OF WORK
        PRINT *, 'HANDLED'
        END TASK

        TASK CHILD
        TO PARENT SEND WORK(25)
        END TASK

        HANDLER WORK(N)
        INTEGER N
        COMPUTE N
        END HANDLER
        """
        r, _ = run_fortran(src, "MAIN")
        assert "HANDLED" in r.console

    def test_delay_statements_suspend_and_return(self, run_fortran):
        src = """
        TASK T
        ACCEPT OF
          1 OF NEVER
        DELAY 200 THEN
          COMPUTE 50
          PRINT *, 'GAVE UP'
          RETURN
        END ACCEPT
        PRINT *, 'NOT REACHED'
        END TASK
        """
        r, _ = run_fortran(src, "T")
        assert "GAVE UP" in r.console and "NOT REACHED" not in r.console

    def test_suspending_segments_and_barrier_body(self, run_fortran):
        src = """
        TASK T
        SHARED COMMON /S/ A, B
        INTEGER A, B
        FORCESPLIT
        PARSEG
          COMPUTE 10
          A = 1
        NEXTSEG
          B = 2
        ENDSEG
        BARRIER
          COMPUTE 5
          PRINT *, 'SUM', A + B
        END BARRIER
        END TASK
        """
        r, _ = run_fortran(src, "T", config=self.FORCE_CFG)
        assert "SUM 3" in r.console

    def test_region_that_never_suspends(self, run_fortran):
        src = """
        TASK T
        SHARED COMMON /S/ SEEN(8)
        INTEGER SEEN
        FORCESPLIT
        SEEN(MEMBER) = MEMBER
        END TASK
        """
        _, vm = run_fortran(src, "T", config=self.FORCE_CFG)
        assert vm.stats.forcesplits == 1
