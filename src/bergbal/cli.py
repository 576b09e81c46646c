"""Command line front-end.

    bergbal <command> --config <path> [--out <dir>] [--strict]

Exit codes: 0 all verdicts pass, 1 verdict failure, 2 usage or configuration
error, 3 internal error.  The default output directory is taken from
BERGBAL_OUT when --out and the config do not name one.
"""
import argparse
import functools
import os
import sys

from .config import COMMANDS, ConfigError, parse_config
from .runner import run_experiment
from .report import write_report, ReportWriteError

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


@functools.lru_cache(maxsize=1)
def _parser():
    """The argument parser, built once per process: main may run many
    times in one."""
    p = argparse.ArgumentParser(
        prog="bergbal",
        description="balanced-metric laboratory on the projective line",
        epilog=__doc__.split("\n\n")[2])
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", required=True, help="YAML experiment config")
    p.add_argument("--out", help="output directory (default: config, then "
                                 "BERGBAL_OUT, then ./bergbal-out)")
    p.add_argument("--strict", action="store_true",
                   help="reject unknown config keys")
    return p


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code else EXIT_PASS

    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as e:
        print("cannot read config %s: %s" % (args.config, e), file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = parse_config(text, strict=args.strict)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return EXIT_CONFIG

    if cfg.command != args.command:
        print("config names command %r but %r was requested"
              % (cfg.command, args.command), file=sys.stderr)
        return EXIT_CONFIG

    out_dir = args.out or cfg.output.get("directory") \
        or os.environ.get("BERGBAL_OUT") or "bergbal-out"
    tables = cfg.output.get("tables", True)

    try:
        report = run_experiment(cfg)
        paths = write_report(report, out_dir, tables=tables)
    except ReportWriteError as e:
        print(str(e), file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:
        print("internal error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return EXIT_INTERNAL

    for w in report["warnings"]:
        print("warning: %s" % w)
    for name, ok in sorted(report["verdicts"].items()):
        print("verdict %s: %s" % (name, "PASS" if ok else "FAIL"))
    print("report written to %s" % paths[0])

    if report["error"] is not None:
        print("error: %s: %s" % (report["error"]["type"],
                                 report["error"]["message"]), file=sys.stderr)
        return EXIT_INTERNAL
    if not all(report["verdicts"].values()):
        return EXIT_VERDICT
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
