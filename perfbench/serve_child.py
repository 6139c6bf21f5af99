"""Service launcher: ``tcast-serve run --port 0`` in this process.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  With ``--trace 1``
it installs the layer wrappers first.  It then calls the shipped entry
point ``repro.serve.cli.main``, which prints the bound port and serves
with its default configuration until SIGTERM, then drains.  After the
drain the spans (if any) and the number of executor lanes the service
ran with are written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import spans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args()

    tracer = spans.Tracer(enabled=bool(args.trace))
    from repro.serve import cli
    from repro.serve.server import ServeConfig

    if args.trace:
        spans.install_serve(tracer)
    lanes = []

    class Service(cli.ThresholdQueryService):
        """The shipped service, noting the executor lanes it was given."""

        def __init__(self, config: ServeConfig) -> None:
            lanes.append(config.workers)
            super().__init__(config)

    cli.ThresholdQueryService = Service
    rc = cli.main(["run", "--port", "0"])
    args.out.write_text(json.dumps(
        {"spans": tracer.spans, "counts": tracer.counts(), "lanes": lanes[0]}))
    return rc


if __name__ == "__main__":
    sys.exit(main())
