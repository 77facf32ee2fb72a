"""Command-line interface.

Exit codes: 0 success, 1 when an assertion-grade sweep found violations,
2 on usage or input errors, 3 when an enumeration cap was exceeded
(violations found before truncation take precedence), 130 when Ctrl-C
(SIGINT) interrupted the command.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys

from weylchar.diagrams import (
    CapExceeded,
    DEFAULT_CAP,
    count_below,
    diagram_from_text,
    diagram_to_json_obj,
    diagram_to_text,
    parse_composition,
    parse_diagram_inline,
    parse_pattern,
    parse_permutation,
    rank,
    rothe,
    skyline,
)
from weylchar.polynomials import principal_specialization, render, to_json_obj
from weylchar.schubert import key, schubert
from weylchar.verify import (
    all_diagrams,
    all_rothe,
    all_skyline,
    explicit_list,
    verify_equality_iff_unstable,
    verify_key_identities,
    verify_lower_bound,
    verify_schubert_identities,
    verify_upper_bound,
    verify_zero_one_characterization,
    verify_zero_one_implication,
)
from weylchar.weyl import dual_character


def _read_diagram(text: str):
    """Inline column lists, or a grid file via ``@path``."""
    if text.startswith("@"):
        with open(text[1:]) as handle:
            return diagram_from_text(handle.read())
    return parse_diagram_inline(text)


def _read_patterns(paths):
    patterns = []
    for path in paths:
        with open(path) as handle:
            patterns.append(parse_pattern(handle.read()))
    return patterns


def _explicit(diagram):
    return explicit_list(map(_read_diagram, diagram))


def _zero_one_patterns(family, patterns, **run):
    return verify_zero_one_characterization(family, _read_patterns(patterns), **run)


def _upper_bound(family, patterns=(), **run):
    if len(patterns) > 2:
        raise ValueError("upper-bound takes at most two pattern files")
    return verify_upper_bound(family, *_read_patterns(patterns), **run)


# Each sweep check and each family: the function it calls, the sweep
# arguments it needs and those it may take.  The function gets each of them
# that is set under the argument's own name; a check that needs ``family``
# gets the family built from its row.
_SWEEPS = {
    "lower-bound": (verify_lower_bound, ("family",), ("support_only",)),
    "equality-unstable": (verify_equality_iff_unstable, ("family",), ()),
    "zero-one-implication": (verify_zero_one_implication, ("family",), ()),
    "zero-one-patterns": (_zero_one_patterns, ("family", "patterns"), ()),
    "upper-bound": (_upper_bound, ("family",), ("patterns",)),
    "schubert": (verify_schubert_identities, ("n",), ()),
    "key": (verify_key_identities, ("max_part", "max_len"), ()),
}
_FAMILIES = {
    "all-diagrams": (all_diagrams, ("n",), ("max_boxes",)),
    "all-rothe": (all_rothe, ("n",), ()),
    "all-skyline": (all_skyline, ("max_part", "max_len"), ()),
    "explicit": (_explicit, ("diagram",), ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylchar",
        description="Exact characters of diagram modules, Schubert and key "
        "polynomials, and verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    capped = argparse.ArgumentParser(add_help=False, parents=[common])
    capped.add_argument("--cap", type=int, default=DEFAULT_CAP,
                        help="enumeration cap (default %(default)s)")

    p = sub.add_parser("chi", parents=[capped],
                       help="character of a diagram plus its all-ones value")
    p.add_argument("diagram", help='column list like "1,3;2,3;" or @gridfile')

    p = sub.add_parser("rank", parents=[common], help="rank statistic of a diagram")
    p.add_argument("diagram")

    p = sub.add_parser("count-below", parents=[common],
                       help="number of diagrams below in the componentwise order")
    p.add_argument("diagram")

    p = sub.add_parser("schubert", parents=[common], help="Schubert polynomial")
    p.add_argument("permutation", help='one-line notation like "31542" or "3,1,5,4,2"')

    p = sub.add_parser("key", parents=[common], help="key polynomial")
    p.add_argument("composition", help='comma-separated parts like "3,2,0,1,1"')

    p = sub.add_parser("rothe", parents=[common], help="Rothe diagram of a permutation")
    p.add_argument("permutation")

    p = sub.add_parser("skyline", parents=[common], help="skyline diagram of a composition")
    p.add_argument("composition")

    # every sweep argument that a row reads defaults to None, which means unset
    p = sub.add_parser("sweep", parents=[capped], help="run a verification sweep")
    p.add_argument("check", choices=_SWEEPS)
    p.add_argument("--family", choices=_FAMILIES,
                   help="instance family for diagram checks")
    p.add_argument("--n", type=int, help="grid size / symmetric group degree")
    p.add_argument("--max-boxes", type=int, help="box-count cap for all-diagrams")
    p.add_argument("--max-part", type=int, help="largest composition part")
    p.add_argument("--max-len", type=int, help="composition length")
    p.add_argument("--diagram", action="append",
                   help="member of an explicit family (repeatable)")
    p.add_argument("--support-only", action="store_true", default=None,
                   help="lower-bound check: skip the character; decide the weight count by the bound B(D)")
    p.add_argument("--patterns", nargs="+", metavar="FILE",
                   help="pattern files; for upper-bound: northwest then general")
    p.add_argument("--workers", type=int, default=1,
                   help="processes that check batches of consecutive runs (default %(default)s)")
    p.add_argument("--checkpoint", metavar="FILE",
                   help="resume file, written at any worker count and removed when the sweep ends")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="also write the JSON report here")

    return parser


def _reads(rows, name):
    return any(name in needs + takes for _, needs, takes in rows)


def _call(row, given, **run):
    function, needs, takes = row
    return function(**{name: given[name] for name in needs + takes if name in given}, **run)


def _cmd_sweep(args) -> int:
    chosen = {f"the {args.check} check": _SWEEPS[args.check]}
    if _reads(chosen.values(), "family") and args.family is not None:
        chosen[f"the {args.family} family"] = _FAMILIES[args.family]
    missing = [name for _, needs, _ in chosen.values() for name in needs if getattr(args, name) is None]
    if missing:
        flags = " and ".join(f"--{name.replace('_', '-')}" for name in missing)
        raise ValueError(f"{' on '.join(chosen)} needs {flags}")
    rows = [*_SWEEPS.values(), *_FAMILIES.values()]
    given = {name: value for name, value in vars(args).items() if value is not None and _reads(rows, name)}
    for name in given:
        if not _reads(chosen.values(), name):
            # the family refuses what some family reads, the check all else
            owner = list(chosen)[-1 if _reads(_FAMILIES.values(), name) else 0]
            raise ValueError(f"--{name.replace('_', '-')} does not apply to {owner}")
    if args.output and not os.path.isdir(os.path.dirname(os.path.abspath(args.output))):
        raise ValueError(f"output {args.output}: its directory does not exist")
    if "family" in given:
        given["family"] = _call(_FAMILIES[args.family], given)
    # opened before the sweep, so a path that cannot be written fails first;
    # "a" leaves a file that was there intact until the report replaces it
    created = args.output and not os.path.exists(args.output)
    with open(args.output, "a") if args.output else contextlib.nullcontext() as output:
        try:
            report = _call(
                _SWEEPS[args.check], given, workers=args.workers, checkpoint_path=args.checkpoint, cap=args.cap
            )
        except BaseException:
            if created:
                os.unlink(args.output)
            raise
        if args.json:
            print(json.dumps(report.to_json_obj(), indent=2))
        else:
            print(report.render())
        if output:
            output.truncate(0)
            json.dump(report.to_json_obj(), output, indent=2)
            output.write("\n")
    if report.violations:
        return 1
    if report.truncated:
        return 3
    return 0


def _print_diagram(d, as_json: bool):
    if as_json:
        print(json.dumps(diagram_to_json_obj(d)))
    else:
        print(diagram_to_text(d))


def _print_polynomial(f, as_json: bool):
    if as_json:
        print(json.dumps(to_json_obj(f)))
    else:
        print(render(f))


def _interrupt(signum, frame):
    """SIGINT's handler while a command runs: raise KeyboardInterrupt once, then ignore SIGINT.

    A second KeyboardInterrupt could cut short the shutdown of a sweep's
    worker pool, and leave the process waiting for its workers forever.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        previous = signal.signal(signal.SIGINT, _interrupt)
    except ValueError:  # not the main thread, which alone runs signal handlers
        previous = None
    try:
        if args.command == "chi":
            chi = dual_character(_read_diagram(args.diagram), cap=args.cap)
            total = principal_specialization(chi)
            if args.json:
                print(json.dumps({"character": to_json_obj(chi), "principal": total}))
            else:
                print(render(chi))
                print(f"principal: {total}")
        elif args.command == "rank":
            value = rank(_read_diagram(args.diagram))
            print(json.dumps({"rank": value}) if args.json else value)
        elif args.command == "count-below":
            value = count_below(_read_diagram(args.diagram))
            print(json.dumps({"count_below": value}) if args.json else value)
        elif args.command == "schubert":
            _print_polynomial(schubert(parse_permutation(args.permutation)), args.json)
        elif args.command == "key":
            _print_polynomial(key(parse_composition(args.composition)), args.json)
        elif args.command == "rothe":
            _print_diagram(rothe(parse_permutation(args.permutation)), args.json)
        elif args.command == "skyline":
            _print_diagram(skyline(parse_composition(args.composition)), args.json)
        else:
            return _cmd_sweep(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # one line, no traceback, and the exit code a shell gives a command that SIGINT ended
        checkpoint = getattr(args, "checkpoint", None)
        if checkpoint and os.path.exists(checkpoint):
            print(f"interrupted: resume with --checkpoint {checkpoint}", file=sys.stderr)
        else:
            print("interrupted", file=sys.stderr)
        return 130
    finally:
        if previous is not None:
            signal.signal(signal.SIGINT, previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())
