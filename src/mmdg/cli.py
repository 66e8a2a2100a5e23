"""Command-line front end: solve | converge | stability-scan | ap-limit.

Options may also come from a key=value config file (same keys as the long
flags).  File entries are turned into flags and parsed by the same parser,
ahead of the command line, so they pass the same checks and the command line
wins.  Exit code 0 covers completed runs including flagged instability demos;
bad arguments exit nonzero.
"""

import argparse
import sys

from .harness import MODELS, MODES, ExperimentSpec, run
from .operators import FLUXES

_BOOL_KEYS = {"no-bh", "force-dt", "continuum-moments"}


def _comma_list(cast):
    """argparse type: a comma-separated, non-empty list of cast values."""

    def parse(text):
        items = [s for s in text.replace(" ", "").split(",") if s]
        if not items:
            raise ValueError("empty list")
        return tuple(cast(s) for s in items)

    parse.__name__ = f"{cast.__name__} list"
    return parse


def _dt_or_auto(text):
    return None if text == "auto" else float(text)


def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def read_config_file(path):
    """Flat key = value file; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            values[key] = raw
    return values


def build_parser():
    """Parser whose dests are ExperimentSpec field names; unset options stay None."""
    parser = argparse.ArgumentParser(
        prog="mmdg",
        description="Kinetic transport solver (micro-macro DG) and experiment drivers",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", help="key=value file with these options")
    parser.add_argument("--model", choices=MODELS)
    parser.add_argument("--nv", type=int, help="velocity nodes: slab even, default 8; telegraph 2")
    parser.add_argument("--k", dest="degree", type=int, choices=range(5))
    parser.add_argument("--cells", type=_comma_list(int), help="comma list of cell counts")
    parser.add_argument("--eps", type=_comma_list(float), help="comma list of eps values")
    parser.add_argument("--dt", type=_dt_or_auto, help="time step, or 'auto'")
    parser.add_argument("--flux", choices=FLUXES)
    parser.add_argument("--no-bh", dest="include_bh", action="store_const", const=False)
    parser.add_argument("--safety", type=float, help="fraction of dt_stab")
    parser.add_argument("--c0", type=float)
    parser.add_argument("--tmax", type=float)
    parser.add_argument("--ic", help="initial condition name")
    parser.add_argument("--out", help="CSV output path")
    parser.add_argument(
        "--force-dt",
        action="store_const",
        const=True,
        help="run the given dt even beyond the stable step (instability demos)",
    )
    parser.add_argument("--continuum-moments", action="store_const", const=True)
    return parser


def _config_flags(parser, mode, path):
    """The file's entries as flags; keys the parser does not know raise ValueError."""
    flags = []
    for key, raw in read_config_file(path).items():
        if key not in _BOOL_KEYS:
            flags.append(f"--{key}={raw}")
        elif _parse_bool(raw):
            flags.append(f"--{key}")
    known, extra = parser.parse_known_args([mode] + flags)
    unknown = [flag[2:].split("=", 1)[0] for flag in extra]
    if known.config is not None:
        unknown.append("config")
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return flags


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            flags = _config_flags(parser, args.mode, args.config)
            args = parser.parse_args(flags + argv)
        values = {key: value for key, value in vars(args).items() if value is not None}
        values.pop("config", None)
        spec = ExperimentSpec(**values).validate()
        result = run(spec)
    except (ValueError, OSError) as exc:
        print(f"mmdg: error: {exc}", file=sys.stderr)
        return 2
    if result.diverged:
        at = "" if result.diverge_step is None else f" at step {result.diverge_step}"
        print(f"instability flagged{at}", file=sys.stderr)
    if spec.out:
        print(spec.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
