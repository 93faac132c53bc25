"""Run the subband-nmf CLI with the benchmark's span tracer installed.

    python3 perfbench/trace_cli.py SPAN_DIR enhance --model m.snm --in a/ --out b/

The subband_nmf package must be importable (PYTHONPATH=src).  Spans of
this process and of the pool workers it forks are appended to
SPAN_DIR/spans-<pid>.jsonl.
"""

import sys

from tracer import Tracer


def main(argv) -> int:
    span_dir, cli_args = argv[0], argv[1:]
    Tracer(flush_dir=span_dir).install()
    from subband_nmf import cli

    return cli.main(cli_args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
