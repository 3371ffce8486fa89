"""Master/worker apps on one cluster.

A task-parallel app's master and its workers share the only cluster
when there is one, so that cluster needs a slot for each of them; a
run that would need more than ``MAX_SLOTS`` is refused before it boots.
Two or more clusters keep their ``max(2, n_workers)`` slots each.
"""

import numpy as np
import pytest

from repro.apps.integrate import default_integrand, integrate_plan, run_integrate
from repro.apps.matmul import make_inputs, run_matmul_tasks, tasks_plan
from repro.config.configuration import MAX_SLOTS, simple_configuration
from repro.errors import ConfigurationError, InvalidRunSpec
from repro.service import catalog, executor
from repro.service.spec import RunSpec


@pytest.mark.parametrize("pieces,points,n_workers",
                         [(8, 4, 2), (12, 6, 3), (6, 3, 1)])
def test_integrate_on_one_cluster_completes(pieces, points, n_workers):
    r = run_integrate(pieces, points, n_workers, n_clusters=1)
    two = run_integrate(pieces, points, n_workers, n_clusters=2)
    assert r.value == pytest.approx(two.value, rel=1e-12)
    assert sum(r.per_worker.values()) == pieces


@pytest.mark.parametrize("n,n_workers", [(8, 2), (8, 1), (12, 5)])
def test_matmul_tasks_on_one_cluster_completes(n, n_workers):
    r = run_matmul_tasks(n, n_workers, n_clusters=1)
    A, B = make_inputs(n)
    assert np.array_equal(r.C, np.asarray(A) @ np.asarray(B))


@pytest.mark.parametrize("app", ["integrate", "matmul"])
def test_catalog_one_cluster_run_completes(app):
    r = executor.standalone_run(RunSpec(app=app, params={"n_clusters": 1}))
    assert r.elapsed > 0
    (cluster,) = r.vm.config.clusters
    assert cluster.slots == 3 + 1          # the catalog's 3 workers + master


def test_more_workers_than_one_cluster_holds_refused():
    with pytest.raises(ConfigurationError, match="slots"):
        run_integrate(n_workers=MAX_SLOTS, n_clusters=1)
    with pytest.raises(ConfigurationError, match="slots"):
        run_matmul_tasks(n_workers=MAX_SLOTS, n_clusters=1)
    for app in ("integrate", "matmul"):
        with pytest.raises(InvalidRunSpec, match="slots"):
            catalog.build(RunSpec(app=app, params={
                "n_clusters": 1, "n_workers": MAX_SLOTS}))
    # The largest one-cluster run that fits still builds.
    plan = tasks_plan(8, MAX_SLOTS - 1, 1)
    assert plan.config.clusters[0].slots == MAX_SLOTS


@pytest.mark.parametrize("n_clusters", [2, 3, 4])
@pytest.mark.parametrize("n_workers", [1, 2, 3, 6, MAX_SLOTS])
def test_two_or_more_clusters_keep_their_slots(n_clusters, n_workers):
    slots = max(2, n_workers)
    assert tasks_plan(8, n_workers, n_clusters).config == \
        simple_configuration(n_clusters, slots, name="matmul-tasks")
    assert integrate_plan(8, 4, n_workers, n_clusters, default_integrand,
                          0.0, 3.0).config == \
        simple_configuration(n_clusters, slots, name="integrate")
