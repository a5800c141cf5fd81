"""Traced tphi CLI child for the cli-files workload.

Installs the span recorder, runs ``tphi.cli.main`` on the remaining
arguments, and writes the spans and counts to SPANS_FILE when main
returns or raises.  The parent sets PYTHONPATH to the checkout's src/.

Usage: python3 perfbench/launch.py SPANS_FILE ITEM_ID SUBCOMMAND [ARGS...]
"""

import json
import sys
import time


def main() -> int:
    span_file, item, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import tphi.cli
    from spans import Recorder

    rec = Recorder()
    rec.install()
    rec.item = item
    ready = time.time()
    try:
        return tphi.cli.main(argv)
    finally:
        rec.item = None
        sys.stdout.flush()
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump({"ready": ready, "spans": rec.spans, "counts": rec.counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
