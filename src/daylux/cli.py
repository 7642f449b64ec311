"""Command-line front end.

Two commands:

  daylux simulate   run the closed loop and write trajectory/panel/summary
                    artifacts (default when no command is named)
  daylux lut        generate or inspect command-to-illuminance tables

Exit codes: 0 success, 1 validation/usage error, a diverged run or a run too
large for memory, 2 I/O error.  A reader that closes stdout early (`daylux
lut inspect | head -1`) is not an error: the exit code is 0.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import (
    ALLOWED,
    FIELDS,
    SYNTHETIC_LUT_SCHEMA,
    SimConfig,
    apply_settings,
    convert,
    load_config_file,
    synthetic_lut,
)
from .loop import run_simulation
from .plant import (
    DEFAULT_LUT_E_MAX,
    DEFAULT_LUT_KNOTS,
    DEFAULT_LUT_SHAPE,
    load_lut_csv,
    lut_eval,
    lut_inverse,
    save_lut_csv,
    synth_default_lut,
)
from .report import write_run_artifacts
from .signals import check_d8bv

class UsageError(ValueError):
    """Bad flags or arguments; maps to exit code 1."""


class _SetOnce(argparse.Action):
    """Store a flag's value, or its const if it takes none; a repeated flag is an error."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given twice")
        given.add(self.dest)
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)


def _path(value: str) -> str:
    """A path argument: any string but the empty one, which names no file."""
    if not value:
        raise argparse.ArgumentTypeError("must not be empty")
    return value


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _SetOnce)  # the action of every plain flag

    def error(self, message):  # keep exit-code control in main()
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="daylux", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the closed-loop simulation")
    sim.add_argument("--config", type=_path, help="key = value config file; flags take precedence")
    # One flag per SimConfig field, dest = field name, no argparse default: an
    # omitted flag leaves None, so parse_config can tell it from a given one.
    for key, _, default, help_text in FIELDS:
        if key == "use_bias":
            sim.add_argument("--no-bias", dest=key, nargs=0, const="false", help=help_text)
            continue
        if key in ALLOWED:
            help_text += ": " + " or ".join(map(str, ALLOWED[key]))
        name = key.removesuffix("_source")
        sim.add_argument("--" + name.replace("_", "-"), dest=key, metavar=name.upper(),
                         help=f"{help_text} (default {default})")

    lut = sub.add_parser("lut", help="generate or inspect plant tables")
    lut_sub = lut.add_subparsers(dest="lut_command", required=True)
    gen = lut_sub.add_parser("generate", help="write a synthetic table CSV")
    gen.add_argument("--out", type=_path, default="lut.csv", help="output path (default lut.csv)")
    gen.add_argument("--e-max", help=f"illuminance at u=255 (default {DEFAULT_LUT_E_MAX})")
    gen.add_argument("--shape", help=f"power-law exponent (default {DEFAULT_LUT_SHAPE})")
    gen.add_argument("--knots", help=f"number of knots (default {DEFAULT_LUT_KNOTS})")
    ins = lut_sub.add_parser("inspect", help="print knots, monotonicity, inverse lookups")
    ins.add_argument("path", nargs="?", type=_path,
                     help="table CSV; omitted = default synthetic table")
    ins.add_argument("--query-e", help="print the brute-force inverse u* for this e")

    return parser


def parse_config(ns: argparse.Namespace) -> SimConfig:
    """SimConfig from defaults, then config file, then explicit flags."""
    cfg = SimConfig()
    if ns.config is not None:
        apply_settings(cfg, load_config_file(ns.config), origin=ns.config)
    # Given flags are strings and go through the same converter as config-file keys.
    flags = {key: v for key, *_ in FIELDS if (v := getattr(ns, key)) is not None}
    apply_settings(cfg, flags, "command line")
    cfg.validate()
    return cfg


def typed_flags(ns: argparse.Namespace, schema: dict[str, str]) -> dict:
    """The given flags named in schema, converted like config-file keys.

    Flags are declared without an argparse ``type``, so a bad value gets the
    same message here as in a config file or a source spec.
    """
    return {
        key: convert(key, value, schema, "command line")
        for key in schema
        if (value := getattr(ns, key)) is not None
    }


def cmd_simulate(cfg: SimConfig) -> int:
    records, _nets = run_simulation(cfg)
    artifacts = write_run_artifacts(records, cfg.warmup, cfg.out_dir)
    print(f"wrote {artifacts['trajectory']} ({len(records)} rows)")
    for p in artifacts["panels"] + artifacts["svgs"]:
        print(f"wrote {p}")
    print(f"wrote {artifacts['summary']}")
    sys.stdout.write(artifacts["summary_text"])
    return 0


def cmd_lut(ns: argparse.Namespace) -> int:
    if ns.lut_command == "generate":
        table = synthetic_lut(typed_flags(ns, SYNTHETIC_LUT_SCHEMA))
        save_lut_csv(table, ns.out)
        print(f"wrote {ns.out} ({len(table.knots)} knots)")
        return 0
    # Everything that can fail is checked before the first line is printed.
    query_e = typed_flags(ns, {"query_e": "int"}).get("query_e")
    if query_e is not None:
        check_d8bv(query_e, "query_e")
    table = synth_default_lut() if ns.path is None else load_lut_csv(ns.path)
    source = "synthetic defaults" if ns.path is None else ns.path
    print(f"table: {source}")
    print("  u    e")
    for u, e in table.knots:
        print(f"{u:5d} {e:4d}")
    # ProcessLut rejects a decreasing table, so every loaded table is monotone;
    # the verdict is printed next to the numbers.
    print("monotone: yes")
    if query_e is not None:
        u_star = lut_inverse(table, query_e)
        print(f"u*({query_e}) = {u_star}  (lut_eval -> {lut_eval(table, u_star)})")
    return 0


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0].startswith("-") and args[0] not in ("-h", "--help"):
        args.insert(0, "simulate")
    try:
        code = run_command(build_parser(), args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`daylux lut inspect | head -1`),
        # which is normal use.  Every command decides a nonzero exit before
        # its first stdout write, so 0 is the command's own code.  What is
        # still buffered goes to devnull, so the flush at exit is quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ValueError as exc:  # UsageError, ConfigError, TableFormatError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def run_command(parser: _Parser, args: list[str]) -> int:
    """Parse args and run the command they name; returns its exit code."""
    try:
        ns = parser.parse_args(args)
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code is None else int(exc.code)
    if ns.command == "simulate":
        return cmd_simulate(parse_config(ns))
    return cmd_lut(ns)  # argparse allows only simulate and lut


if __name__ == "__main__":
    raise SystemExit(main())
