"""Off-line trace analysis and measurement (section 12 'timing analyses')."""

from .metrics import (
    RunMetrics,
    ScalingPoint,
    collect_metrics,
    load_balance,
    lock_contention,
    speedup_table,
    traffic_matrix,
    traffic_table,
)
from .report import run_report
from .tuning import TuningResult, TuningTrial, force_size_sweep, sweep
from .storage import (
    PAPER_LOCAL_BOUND,
    PAPER_SHARED_TABLE_BOUND,
    StorageMeasurement,
    measure,
    storage_table,
)

__all__ = [
    "TuningResult",
    "TuningTrial",
    "force_size_sweep",
    "sweep",
    "PAPER_LOCAL_BOUND",
    "PAPER_SHARED_TABLE_BOUND",
    "RunMetrics",
    "ScalingPoint",
    "StorageMeasurement",
    "collect_metrics",
    "load_balance",
    "lock_contention",
    "measure",
    "run_report",
    "speedup_table",
    "storage_table",
    "traffic_matrix",
    "traffic_table",
]
