"""``python -m topzeta`` with spans recorded around the calls into each layer.

    python bench/trace_child.py SPANS_FILE ARGS...

runs ``topzeta ARGS...`` and writes the spans, one JSON list a line, to
SPANS_FILE; the benchmark's cli-cold workload uses it for its traced run.
"""

import sys

import topzeta.cli
from tracer import Tracer


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return topzeta.cli.main(argv)
    finally:
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
