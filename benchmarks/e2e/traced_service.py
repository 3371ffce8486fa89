"""Boot the run service with its layers traced.

    python traced_service.py SPANS_FILE [python -m repro.service args]

Wraps the layers' public functions (see ``layers.py``), then runs the
service's own entry point, ``repro.service.__main__.main``, with the
remaining arguments.  When the service exits (SIGTERM), the spans are
written to SPANS_FILE.
"""

from __future__ import annotations

import sys

import layers


def main(argv) -> int:
    spans_path = argv[1]
    tracer = layers.install()
    from repro.service.__main__ import main as service_main
    try:
        return service_main(argv[2:])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
