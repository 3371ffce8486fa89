"""The two task-body vehicles as a test parametrization.

Ids keep the names these tests have long carried: callable bodies run
on their own worker threads ("threaded"); coroutine bodies run
cooperatively on the engine thread ("coop").
"""

import pytest

BOTH_VEHICLES = pytest.mark.parametrize("bodies", [
    pytest.param("callable", id="threaded"),
    pytest.param("auto", id="coop")])
