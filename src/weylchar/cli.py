"""Command-line interface.

Exit codes: 0 success, 1 when an assertion-grade sweep found violations,
2 on usage or input errors, 3 when an enumeration cap was exceeded
(violations found before truncation take precedence).
"""
from __future__ import annotations

import argparse
import json
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

_DIAGRAM_CHECKS = (
    "lower-bound",
    "equality-unstable",
    "zero-one-implication",
    "zero-one-patterns",
    "upper-bound",
)


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylchar",
        description="Exact characters of diagram modules, Schubert and key "
        "polynomials, and verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=int, default=DEFAULT_CAP,
                        help="enumeration cap (default %(default)s)")
    common.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("chi", parents=[common],
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

    p = sub.add_parser("sweep", parents=[common], help="run a verification sweep")
    p.add_argument("check", choices=_DIAGRAM_CHECKS + ("schubert", "key"))
    p.add_argument("--family",
                   choices=("all-diagrams", "all-rothe", "all-skyline", "explicit"),
                   help="instance family for diagram checks")
    p.add_argument("--n", type=int, help="grid size / symmetric group degree")
    p.add_argument("--max-boxes", type=int, help="box-count cap for all-diagrams")
    p.add_argument("--max-part", type=int, help="largest composition part")
    p.add_argument("--max-len", type=int, help="composition length")
    p.add_argument("--diagram", action="append", default=[],
                   help="member of an explicit family (repeatable)")
    p.add_argument("--support-only", action="store_true",
                   help="lower-bound check: count weights, skip the character")
    p.add_argument("--patterns", nargs="+", default=[], metavar="FILE",
                   help="pattern files; for upper-bound: northwest then general")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--checkpoint", metavar="FILE",
                   help="resume file for serial sweeps")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="also write the JSON report here")

    return parser


# the family arguments each diagram family reads, and those that the
# schubert and key sweeps read for their own families
_FAMILY_ARGS = {
    "all-diagrams": ("n", "max_boxes"),
    "all-rothe": ("n",),
    "all-skyline": ("max_part", "max_len"),
    "explicit": ("diagram",),
    "schubert": ("n",),
    "key": ("max_part", "max_len"),
}


def _reject_unread_family_args(args):
    """Exit-2 error for a family argument that the chosen family would ignore."""
    if args.check in _DIAGRAM_CHECKS:
        if args.family is None:
            return  # _family_from_args asks for --family
        owner, read = f"the {args.family} family", {"family", *_FAMILY_ARGS[args.family]}
    else:
        owner, read = f"the {args.check} sweep", set(_FAMILY_ARGS[args.check])
    for name in ("family", "n", "max_boxes", "max_part", "max_len", "diagram"):
        if name not in read and getattr(args, name) not in (None, []):
            raise ValueError(f"--{name.replace('_', '-')} does not apply to {owner}")


def _family_from_args(args):
    if args.family == "all-diagrams":
        if args.n is None:
            raise ValueError("all-diagrams needs --n")
        return all_diagrams(args.n, args.max_boxes)
    if args.family == "all-rothe":
        if args.n is None:
            raise ValueError("all-rothe needs --n")
        return all_rothe(args.n)
    if args.family == "all-skyline":
        if args.max_part is None or args.max_len is None:
            raise ValueError("all-skyline needs --max-part and --max-len")
        return all_skyline(args.max_part, args.max_len)
    if args.family == "explicit":
        if not args.diagram:
            raise ValueError("explicit family needs at least one --diagram")
        return explicit_list(_read_diagram(text) for text in args.diagram)
    raise ValueError("diagram checks need --family")


def _cmd_sweep(args) -> int:
    if args.support_only and args.check != "lower-bound":
        raise ValueError("--support-only applies only to the lower-bound check")
    if args.patterns and args.check not in ("zero-one-patterns", "upper-bound"):
        raise ValueError(f"--patterns does not apply to the {args.check} check")
    _reject_unread_family_args(args)
    run = {
        "workers": args.workers,
        "checkpoint_path": args.checkpoint,
        "cap": args.cap,
    }
    if args.check in _DIAGRAM_CHECKS:
        family = _family_from_args(args)
        if args.check == "lower-bound":
            report = verify_lower_bound(family, support_only=args.support_only, **run)
        elif args.check == "equality-unstable":
            report = verify_equality_iff_unstable(family, **run)
        elif args.check == "zero-one-implication":
            report = verify_zero_one_implication(family, **run)
        elif args.check == "zero-one-patterns":
            report = verify_zero_one_characterization(
                family, _read_patterns(args.patterns), **run
            )
        else:
            patterns = _read_patterns(args.patterns)
            if len(patterns) > 2:
                raise ValueError("upper-bound takes at most two pattern files")
            northwest = patterns[0] if patterns else None
            general = patterns[1] if len(patterns) > 1 else None
            report = verify_upper_bound(family, northwest, general, **run)
    elif args.check == "schubert":
        if args.n is None:
            raise ValueError("schubert sweep needs --n")
        report = verify_schubert_identities(args.n, **run)
    else:
        if args.max_part is None or args.max_len is None:
            raise ValueError("key sweep needs --max-part and --max-len")
        report = verify_key_identities(args.max_part, args.max_len, **run)

    if args.json:
        print(json.dumps(report.to_json_obj(), indent=2))
    else:
        print(report.render())
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report.to_json_obj(), handle, indent=2)
            handle.write("\n")
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
