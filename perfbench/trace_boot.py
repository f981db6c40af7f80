"""Run one CLI command with spans around the package's public functions.

Usage: python trace_boot.py SPANS_JSON -- CLI_ARGS...

Wraps the functions in `layers.TARGETS`, calls `hyperdecomp.cli.main`
with CLI_ARGS and writes the recorded spans to SPANS_JSON when the command
ends, whatever its outcome. Exits with the command's status, or 3 when a
wrapped function no longer exists.
"""

import sys

import layers


def main() -> int:
    spans_path, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        print("usage: trace_boot.py SPANS_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    tracer = layers.Tracer()
    try:
        tracer.install()
    except layers.TargetMissing as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 3
    cli = sys.modules[f"{layers.PACKAGE}.cli"]
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
