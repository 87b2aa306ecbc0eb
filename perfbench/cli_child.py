"""Run one `globkit` verb with spans installed; write them to a file.

    python3 perfbench/cli_child.py DUMP_FILE VERB [ARGS...]

The traced form of `python3 -m globkit.cli VERB [ARGS...]`: the same exit
code and output, plus a JSON file with the per-layer self times, exact
counts and spans of the whole verb.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main():
    dump, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    missing = spans.install(tracer)
    from globkit import cli
    tracer.op = 0
    tracer.active = True
    try:
        code = cli.run(argv)
    finally:
        tracer.active = False
        counts = dict(tracer.counts)
        counts.update(spans.cache_counts())
        with open(dump, "w") as fh:
            json.dump({"self_time": tracer.self_time, "counts": counts,
                       "spans": tracer.spans, "missing": missing}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
