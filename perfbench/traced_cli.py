"""Run one `concert` command with span tracing and write its spans to a file.

Usage: traced_cli.py SPANS_JSON COMMAND [ARGS...]

The parent benchmark process reads SPANS_JSON and files the spans under the
call that started this process.
"""
import sys

import concert.cli

import tracing


def main() -> int:
    dump_path, args = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return concert.cli.main(args)
    finally:
        tracer.dump(dump_path)


if __name__ == "__main__":
    sys.exit(main())
