"""``python -m repro.service``: boot the run service and serve HTTP.

    python -m repro.service --root /var/lib/pisces --port 8737 \
        --workers 4 --quota alice=2,8,16 --quota bob=1,4,8

On boot the service rescans its store, re-queues runs a previous life
left unfinished (checkpoint-resuming where possible) and prints one
JSON line ``{"url": ..., "root": ..., "recovered": [...]}`` to stdout
so wrappers (CI, the example driver) can discover the bound port.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from .admission import DEFAULT_QUOTA, TenantQuota
from .rest import ServiceHTTPServer, _Handler
from .service import RunService


def parse_quota(text: str) -> TenantQuota:
    """``max_running,max_queued,pe_budget`` -> TenantQuota."""
    try:
        mr, mq, pb = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"quota {text!r}: want MAX_RUNNING,MAX_QUEUED,PE_BUDGET")
    return TenantQuota(max_running=mr, max_queued=mq, pe_budget=pb)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Multi-tenant PISCES run service (REST control plane).")
    ap.add_argument("--root", required=True,
                    help="run-store directory (created if missing)")
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=0,
                    help="0 binds an ephemeral port (printed on stdout)")
    ap.add_argument("--workers", type=int, default=4,
                    help="concurrent run executors (default 4)")
    ap.add_argument("--quota", action="append", default=[],
                    metavar="TENANT=R,Q,P",
                    help="per-tenant quota: max_running,max_queued,"
                         "pe_budget (repeatable)")
    ap.add_argument("--default-quota", type=parse_quota,
                    default=DEFAULT_QUOTA, metavar="R,Q,P")
    ap.add_argument("--quantum", type=int, default=8,
                    help="fair-share DRR quantum in PEs (default 8)")
    ap.add_argument("--log-requests", action="store_true")
    args = ap.parse_args(argv)

    quotas = {}
    for entry in args.quota:
        tenant, _, spec = entry.partition("=")
        if not tenant or not spec:
            ap.error(f"--quota {entry!r}: want TENANT=R,Q,P")
        quotas[tenant] = parse_quota(spec)

    service = RunService(args.root, n_workers=args.workers, quotas=quotas,
                         default_quota=args.default_quota,
                         quantum=args.quantum)
    service.start()
    _Handler.log_to_stderr = args.log_requests
    server = ServiceHTTPServer(service, host=args.host, port=args.port)

    print(json.dumps({"url": server.url, "root": str(service.root),
                      "recovered": [r.run_id for r in service.recovered]}),
          flush=True)

    def _stop(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _stop)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        service.stop(timeout=10.0, kill_live=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
