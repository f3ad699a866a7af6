"""Run ``repro-exp serve`` in its own process, optionally traced.

Usage (from the root of a checkout)::

    python3 perfbench/serve_launcher.py --ledger LEDGER.db [--spans SPANS.json]

With ``--spans``, the service-layer public functions are wrapped (see
``layers.instrument``) before ``repro.service.http.serve`` starts, and the
recorded spans are written to that file after the server drains on
SIGTERM. SIGUSR1 marks the start of the timed requests: the dump then
covers the spans opened after the mark and the leaf totals accumulated
since, and the launcher prints :data:`MARKED` once it has taken the mark.
The server listens on a free loopback port and prints its URL.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Printed on standard output once a SIGUSR1 mark is taken.
MARKED = "perfbench: marked"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ledger", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    from repro.service.http import serve

    rec = restore = None
    if args.spans:
        from harness import SpanRecorder, diff_leaves
        from layers import instrument

        rec = SpanRecorder()
        restore = instrument(rec, service=True)
        mark = {"first": 0, "leaves": {}}

        def on_mark(_signum, _frame) -> None:
            mark.update(first=len(rec.spans), leaves=rec.leaves())
            print(MARKED, flush=True)

        signal.signal(signal.SIGUSR1, on_mark)
    try:
        serve(host="127.0.0.1", port=0, ledger_path=args.ledger,
              executor="thread", log_level="error")
    finally:
        if restore is not None:
            restore()
    if rec is not None:
        tmp = args.spans + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"spans": rec.spans, "first": mark["first"],
                       "leaves": {k: list(v) for k, v in
                                  diff_leaves(rec.leaves(), mark["leaves"]).items()}},
                      fh)
        os.replace(tmp, args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
