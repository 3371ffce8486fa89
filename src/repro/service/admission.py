"""Admission control: per-tenant quotas and fair-share scheduling.

Two gates stand between a submitted run and a worker:

* **Submission quota** -- a tenant may hold at most ``max_queued``
  QUEUED runs, and no run over its ``pe_budget``.  Checked
  synchronously at submit time; violation raises
  :class:`~repro.errors.QuotaExceeded` (HTTP 429 at the REST layer).
* **Admission quota** -- a tenant may have at most ``max_running``
  RUNNING runs at once, occupying at most ``pe_budget`` virtual PEs
  in total.  Checked whenever a worker frees up; an admission moves
  the run from QUEUED to RUNNING in one record write.

Among admissible tenants the scheduler is **deficit round-robin**
(classic DRR, Shreedhar & Varghese): tenants are visited in a fixed
rotation, and each visit adds ``quantum`` to the tenant's deficit
counter.  The visit admits the tenant's oldest queued runs, one per
:meth:`~AdmissionScheduler.select`, while the next one's PE cost fits
in what is left of the deficit, charging each admission its cost; then
the rotation moves on and the tenant keeps the remainder.  A tenant
with nothing queued banks nothing, and one held back by its own quota
gains no quantum while it waits.  When a whole round admits nothing
but some tenant is short only of deficit, selection goes round again.
Each backlogged tenant thus gets about ``quantum`` PEs per round:
cheap-run tenants get proportionally more runs than expensive-run
tenants, and no tenant can starve another by submitting first or
submitting a lot -- a burst of 50 runs from tenant A lets tenant B's
single run in once A has used one quantum.

A run's cost is the PEs its plan uses.  The scheduler holds each live
run's plan -- built at submit (:meth:`hold`), or at its first pricing
after a recovery -- and hands it to the worker that runs it.  A queued
run whose stored spec no longer builds, or whose plan is over its
tenant's ``pe_budget``, ends FAILED at that pricing, with the typed
error, and selection goes on to the next run.

Deficits, the rotation pointer and the held plans are in-memory only:
fairness state is advisory and restarts from zero after a service
restart, while the queue itself (the store) is what persists.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from ..errors import InvalidRunSpec, QuotaExceeded
from . import catalog
from .store import FAILED, QUEUED, RUNNING, RunRecord, RunStore

if TYPE_CHECKING:
    from ..core.vm import AppPlan


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's limits."""

    #: Concurrent RUNNING runs.
    max_running: int = 2
    #: QUEUED runs the tenant may hold.
    max_queued: int = 8
    #: Total virtual PEs the tenant's running runs may occupy.
    pe_budget: int = 16


#: The quota applied to tenants with no explicit entry.
DEFAULT_QUOTA = TenantQuota()


class AdmissionScheduler:
    """Quota enforcement + DRR selection over the store's queue."""

    def __init__(self, store: RunStore,
                 quotas: Optional[Dict[str, TenantQuota]] = None,
                 default_quota: TenantQuota = DEFAULT_QUOTA,
                 quantum: int = 8) -> None:
        if quantum < 1:
            raise ValueError(f"quantum must be at least 1 PE, not {quantum}")
        self.store = store
        self.quotas = dict(quotas or {})
        self.default_quota = default_quota
        self.quantum = quantum
        self._lock = threading.RLock()
        self._deficit: Dict[str, int] = {}
        self._rotation: List[str] = []       # fixed visit order, grown
        self._cursor = 0                     # next rotation position
        #: Whether the tenant at the cursor is mid-visit: the last
        #: select admitted its run, and the visit goes on, with no new
        #: quantum, while the leftover deficit covers its next run.
        self._continuing = False
        #: The plan of each live run id (pruned by :meth:`select`).
        self._plans: Dict[str, AppPlan] = {}

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    # ------------------------------------------------------------- plans --

    def hold(self, run_id: str, plan: AppPlan) -> None:
        """Hold the plan a submit built for its run until the run ends."""
        with self._lock:
            self._plans[run_id] = plan

    def plan(self, rec: RunRecord) -> AppPlan:
        """The run's held plan, built here if it has none."""
        with self._lock:
            if rec.run_id not in self._plans:
                self._plans[rec.run_id] = catalog.build(rec.spec)
            return self._plans[rec.run_id]

    def _viable(self, rec: RunRecord) -> bool:
        """Whether a queued run's plan builds and fits its tenant's
        ``pe_budget``.  A run that fails either ends FAILED with the
        typed error, in one write: if that write fails, the run stays
        QUEUED and the next pick retries it."""
        try:
            self._check_budget(rec.tenant, self.plan(rec))
        except (InvalidRunSpec, QuotaExceeded) as e:
            self.store.transition(
                rec.run_id, FAILED, finished_at=time.time(),
                exit={"outcome": "failed",
                      "error": f"{type(e).__name__}: {e}"})
            return False
        return True

    def run_cost(self, rec: RunRecord) -> int:
        """PE cost of a run: the PEs its plan's configuration uses."""
        return len(self.plan(rec).config.used_pes())

    # ----------------------------------------------------------- submit --

    def _check_budget(self, tenant: str, plan: AppPlan) -> None:
        """Refuse a plan no admission could ever fit (DRR would hold the
        tenant's queue behind it for good)."""
        cost, budget = len(plan.config.used_pes()), \
            self.quota_for(tenant).pe_budget
        if cost > budget:
            raise QuotaExceeded(
                tenant, f"run needs {cost} PEs, over pe_budget={budget}")

    def check_submit(self, tenant: str, plan: AppPlan) -> None:
        """Gate a submission; raises :class:`QuotaExceeded` over-quota."""
        self._check_budget(tenant, plan)
        q = self.quota_for(tenant)
        waiting = len(self.store.list(tenant=tenant, state=QUEUED))
        if waiting >= q.max_queued:
            raise QuotaExceeded(
                tenant, f"{waiting} runs already waiting "
                        f"(max_queued={q.max_queued})")

    # ------------------------------------------------------------ usage --

    def usage(self, tenant: str) -> Dict[str, int]:
        """Current consumption against the tenant's quota."""
        q = self.quota_for(tenant)
        with self._lock:        # no select drops a listed run's plan
            running = self.store.list(tenant=tenant, state=RUNNING)
            return {
                "running": len(running),
                "queued": len(self.store.list(tenant=tenant, state=QUEUED)),
                "pes_in_use": sum(self.run_cost(r) for r in running),
                "max_running": q.max_running,
                "max_queued": q.max_queued,
                "pe_budget": q.pe_budget,
            }

    # ------------------------------------------------------------ select --

    def _admissible(self, rec: RunRecord,
                    active_by_tenant: Dict[str, List[RunRecord]]) -> bool:
        q = self.quota_for(rec.tenant)
        active = active_by_tenant.get(rec.tenant, [])
        if len(active) >= q.max_running:
            return False
        in_use = sum(self.run_cost(r) for r in active)
        return in_use + self.run_cost(rec) <= q.pe_budget

    def select(self) -> Optional[RunRecord]:
        """Pick (and mark RUNNING, from now) the next run a freed worker
        should execute, or None if nothing is admissible right now."""
        with self._lock:
            queued: Dict[str, List[RunRecord]] = {}
            for rec in self.store.list(state=QUEUED):     # seq order
                queued.setdefault(rec.tenant, []).append(rec)
            active: Dict[str, List[RunRecord]] = {}
            for rec in self.store.list(state=RUNNING):
                active.setdefault(rec.tenant, []).append(rec)
            # Drop the plans of finished runs: memory follows the live
            # queue, not the history.
            live = {r.run_id for recs in (*queued.values(), *active.values())
                    for r in recs}
            for run_id in self._plans.keys() - live:
                del self._plans[run_id]
            if not queued:
                return None

            # Grow the rotation with newly seen tenants (sorted so the
            # visit order is independent of submission timing).
            for t in sorted(queued):
                if t not in self._rotation:
                    self._rotation.append(t)

            n = len(self._rotation)
            pos, visits, saving = self._cursor, 0, False
            continuing, self._continuing = self._continuing, False
            while True:
                if visits == n:
                    # A round admitted nothing: go round again only if
                    # some tenant is short of deficit alone.
                    if not saving:
                        return None
                    visits, saving = 0, False
                t = self._rotation[pos]
                backlog = queued.get(t)
                while backlog and not self._viable(backlog[0]):
                    backlog.pop(0)
                if not backlog:
                    self._deficit[t] = 0      # idle tenants bank nothing
                elif self._admissible(backlog[0], active):
                    head = backlog[0]
                    deficit = self._deficit.get(t, 0) \
                        + (0 if continuing else self.quantum)
                    cost = self.run_cost(head)
                    if cost <= deficit:
                        # Charge only an admission the store recorded.
                        rec = self.store.transition(
                            head.run_id, RUNNING, started_at=time.time())
                        self._deficit[t] = deficit - cost
                        self._cursor, self._continuing = pos, True
                        return rec
                    self._deficit[t] = deficit
                    saving = True
                continuing = False
                pos = (pos + 1) % n
                visits += 1
