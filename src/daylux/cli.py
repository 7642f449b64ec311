"""Command-line front end.

Two commands:

  daylux simulate   run the closed loop and write trajectory/panel/summary
                    artifacts (default when no command is named)
  daylux lut        generate or inspect command-to-illuminance tables

Exit codes: 0 success, 1 validation/usage error, a diverged run or a run too
large for memory, 2 I/O error, 130 interrupted (Ctrl-C).  A reader that closes
stdout early (`daylux lut inspect | head -1`) is not an error: the exit code is 0.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ALLOWED, FIELDS, SimConfig, apply_settings, build_lut, convert, load_config_file
from .loop import run_simulation
from .plant import lut_eval, lut_inverse, save_lut_csv
from .report import ARTIFACT_NAMES, write_run_artifacts
from .signals import check_d8bv


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

    def error(self, message):  # keep exit-code control in main(): a ValueError exits 1
        raise ValueError(message)


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
        flag = {"metavar": name.upper(), "help": f"{help_text} (default {default})"}
        sim.add_argument("--" + name.replace("_", "-"), dest=key, **flag)
        if key == "lut_source":  # the lut commands name their table the same way
            lut_flag = {**flag, "default": default}

    lut = sub.add_parser("lut", help="generate or inspect plant tables")
    lut_sub = lut.add_subparsers(dest="lut_command", required=True)
    gen = lut_sub.add_parser("generate", help="write a table CSV")
    gen.add_argument("--lut", **lut_flag)
    gen.add_argument("--out", type=_path, default="lut.csv", help="output path (default lut.csv)")
    ins = lut_sub.add_parser("inspect", help="print knots, monotonicity, inverse lookups")
    ins.add_argument("--lut", **lut_flag)
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


def cmd_simulate(cfg: SimConfig) -> int:
    records, _nets = run_simulation(cfg)
    report, text = write_run_artifacts(records, cfg.warmup, cfg.out_dir)
    paths = [os.path.join(cfg.out_dir, name) for name in ARTIFACT_NAMES]
    print(f"wrote {paths[0]} ({report.n_steps} rows)")
    for path in paths[1:]:
        print(f"wrote {path}")
    sys.stdout.write(text)
    return 0


def cmd_lut(ns: argparse.Namespace) -> int:
    # Everything that can fail is checked before the first line is printed.
    query_e = getattr(ns, "query_e", None)  # a flag of inspect only
    if query_e is not None:
        query_e = convert("query_e", query_e, {"query_e": "int"}, "command line")
        check_d8bv(query_e, "query_e")
    table = build_lut(SimConfig(lut_source=ns.lut))
    if ns.lut_command == "generate":
        save_lut_csv(table, ns.out)
        print(f"wrote {ns.out} ({len(table.knots)} knots)")
        return 0
    print(f"table: {ns.lut}")
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
        try:
            ns = build_parser().parse_args(args)
        except SystemExit as exc:  # argparse --help; _Parser.error raises ValueError instead
            code = exc.code
        else:  # argparse allows only simulate and lut
            code = cmd_simulate(parse_config(ns)) if ns.command == "simulate" else cmd_lut(ns)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`daylux lut inspect | head -1`),
        # which is normal use.  Every command decides a nonzero exit before
        # its first stdout write, so 0 is the command's own code.  What is
        # still buffered goes to devnull, so the flush at exit is quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ValueError as exc:  # bad flags, ConfigError, TableFormatError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt as exc:  # 128 + SIGINT, as a shell reports it
        print(f"error: interrupted {exc}".rstrip(), file=sys.stderr)  # run_loop names the step
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
