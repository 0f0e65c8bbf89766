"""Run one evoalg CLI invocation under the tracer and write its spans.

Usage: python3 bench/cli_child.py SPANS_FILE OP_ID ARG...

The traced ``cli_cold`` run starts this script in place of
``python -m evoalg.cli``; the parent benchmark merges the span files.
"""

import sys

from evoalg import cli
from tracer import Tracer


def main() -> int:
    path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(op_id)
    try:
        return cli.dispatch(argv)
    finally:
        tracer.end_op()
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
