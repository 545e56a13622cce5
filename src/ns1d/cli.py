"""Command-line entry point: ns1d {run, sweep, mms, validate-h}.

The config is the defaults or a --config file, with the --set overrides on
top; the preset is one more key (--set preset=two-bump).  A run plans it once,
before anything is written, and a sweep each of its values (the base config
only with a value) before its first run; validate-h builds only the gas model.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error or
memory exhausted (an input too large to allocate).
A run or mms study that fails numerically writes its summary.json with
exit_status "error" and the error, and prints one `numerical failure:` line.
A refused sweep value, or two that share a directory, exits 2 and nothing runs;
sweep_summary.json holds its runs' summaries, and it exits 3 if any run failed.
Each warning shown is one `warning: <message>` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings

from .errors import ConfigError
from .harness import (SWEEP_PARAMETERS, apply_overrides, default_config, load_config,
                      parse_list, run, sweep, validate_h_config)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ns1d",
        description="1D viscous heat-conducting gas in Lagrangian coordinates")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in (("run", "single simulation run"),
                          ("sweep", "parameter sweep of independent runs"),
                          ("mms", "manufactured-solution convergence study"),
                          ("validate-h", "exact admissibility check of h, a sup over all v > 0")):
        command = sub.add_parser(name, help=summary)
        command.add_argument("--config", help="path to a flat key=value config file")
        command.add_argument("--set", dest="overrides", action="append", default=[],
                             metavar="KEY=VALUE", help="override a config key")
        if name == "sweep":
            command.add_argument("--param", required=True, choices=tuple(SWEEP_PARAMETERS))
            command.add_argument("--values", required=True,
                                 help="comma-separated list of parameter values")
    return parser


def _load(args):
    config = load_config(args.config) if args.config else default_config()
    # the mms command runs the mms preset, so its keys are the ones checked
    mms = ["preset=mms"] if args.command == "mms" else []
    return apply_overrides(config, args.overrides + mms)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            config = _load(args)
            if args.command in ("run", "mms"):
                summary = run(config)
                if summary.exit_status != "ok":
                    print(f"numerical failure: {summary.error}", file=sys.stderr)
                    return EXIT_NUMERICAL
                if args.command == "mms":
                    print(json.dumps(summary.order_report, sort_keys=True, indent=2))
                else:
                    print(f"run finished: status=ok steps={summary.steps}")
                return EXIT_OK
            if args.command == "sweep":
                summaries = sweep(config, args.param, parse_list("--values", args.values, float))
                bad = [s for s in summaries if s.exit_status != "ok"]
                print(f"sweep finished: {len(summaries) - len(bad)}/{len(summaries)} runs ok")
                return EXIT_NUMERICAL if bad else EXIT_OK
            # validate-h: the required subcommand admits no other
            report = validate_h_config(config)
            print(json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2))
            return EXIT_OK
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return EXIT_IO
        except MemoryError as exc:
            print(f"out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
            return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
