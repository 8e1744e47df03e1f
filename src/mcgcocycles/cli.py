"""Command line front end.

Three subcommands:

* ``eval``     evaluate the cocycles on one group element
* ``builtin``  materialize a named element as an automorphism file
* ``verify``   run a named self-check suite

Exit codes: 0 success, 1 verification failure, 2 malformed input or
usage, 3 input outside the zeta-conjugating group N (the cyclically
reduced image of zeta is printed for debugging), 141 standard output
closed before all output was written, as by ``| head`` (no traceback;
141 is what a shell reports for a process ended by SIGPIPE).

Output is deterministic: the same request produces byte-identical text
in both formats.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .freegroup import FreeGroup
from .endomorphism import (
    Auto,
    Endo,
    MembershipError,
    load_automorphism,
    named_element,
    require_membership,
    save_automorphism,
    to_mapping,
)
from .morita import f_tilde, morita_f
from .earle import psi_numerators
from .verify import SUITE_ORDER, failures, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NOT_IN_N = 3
EXIT_BROKEN_PIPE = 141

COCYCLE_CHOICES = ("morita-f-tilde", "morita-f", "earle-psi", "rho")


def _genus_range(text: str) -> tuple[int, ...]:
    """Parse '3' or '2..5' into an inclusive genus tuple."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad genus range {text!r}")
    if lo < 2 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad genus range {text!r}")
    return tuple(range(lo, hi + 1))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="mcg-cocycles",
        description="Exact Morita and Earle twisted 1-cocycle values on "
        "mapping class group elements given as surface group automorphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval", help="evaluate cocycles on one element of the group N"
    )
    p_eval.add_argument(
        "--in",
        dest="source",
        required=True,
        metavar="PATH|builtin:NAME",
        help="automorphism file, or builtin:identity, builtin:iota, "
        "builtin:inner:<word>, builtin:twist:<k>:<A|B>",
    )
    p_eval.add_argument("--g", type=int, default=None, help="genus (required for builtins)")
    p_eval.add_argument(
        "--cocycle",
        choices=COCYCLE_CHOICES,
        default=None,
        help="report one value instead of all of them",
    )
    p_eval.add_argument("--format", choices=("text", "structured"), default="text")

    p_builtin = sub.add_parser(
        "builtin", help="write a named automorphism in the file format"
    )
    p_builtin.add_argument(
        "name", help="identity, iota, inner:<word>, or twist:<k>:<A|B>"
    )
    p_builtin.add_argument("--g", type=int, required=True, help="genus")
    p_builtin.add_argument("--out", default=None, help="output path (default stdout)")

    p_verify = sub.add_parser("verify", help="run a self-check suite")
    p_verify.add_argument(
        "suite",
        choices=SUITE_ORDER + ("all",),
    )
    p_verify.add_argument(
        "--g", type=_genus_range, default=(2, 3, 4, 5), help="genus or range like 2..5"
    )
    p_verify.add_argument("--samples", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=("text", "structured"), default="text")
    return parser


def _load_eval_input(args) -> Endo:
    source = args.source
    if source.startswith("builtin:"):
        if args.g is None:
            raise ValueError("builtins need --g to fix the genus")
        return named_element(FreeGroup(args.g), source[len("builtin:"):])
    phi = load_automorphism(source)
    if args.g is not None and args.g != phi.group.genus:
        raise ValueError(
            f"--g {args.g} contradicts genus {phi.group.genus} from {source}"
        )
    return phi


def _psi_payload(phi: Endo) -> dict:
    """Earle's psi as its integer numerators over 2g - 2, and in lowest terms."""
    nums, den = psi_numerators(phi), 2 * phi.group.genus - 2
    return {
        "lowest_terms": [str(Fraction(n, den)) for n in nums],
        "numerators": list(nums),
        "denominator": den,
    }


def _matrix_payload(m) -> dict:
    return {
        "size": len(m),
        "entries_row_major": [x for row in m for x in row],
    }


def cmd_eval(args) -> int:
    try:
        phi = _load_eval_input(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    try:
        witness = require_membership(phi)
    except MembershipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_IN_N

    genus = phi.group.genus
    selectors = COCYCLE_CHOICES if args.cocycle is None else (args.cocycle,)
    results: dict = {}
    for sel in selectors:
        if sel == "rho":
            results["rho"] = _matrix_payload(witness.rho)
        elif sel == "morita-f-tilde":
            results["morita_f_tilde"] = list(f_tilde(phi))
        elif sel == "morita-f":
            results["morita_f"] = list(morita_f(phi))
        elif sel == "earle-psi":
            results["earle_psi"] = _psi_payload(phi)

    if args.format == "structured":
        doc = {
            "command": "eval",
            "genus": genus,
            "source": args.source,
            "certified_automorphism": isinstance(phi, Auto),
            "witness": str(witness.conjugator),
            "results": results,
        }
        print(json.dumps(doc, indent=2))
        return EXIT_OK

    print(f"genus: {genus}")
    print(f"source: {args.source}")
    print(f"certified automorphism: {'yes' if isinstance(phi, Auto) else 'no'}")
    print(f"zeta conjugating witness u: {witness.conjugator}")
    if "rho" in results:
        print("homology action rho (rows):")
        m = witness.rho
        width = max(len(str(x)) for row in m for x in row)
        for row in m:
            print("  " + " ".join(str(x).rjust(width) for x in row))
    if "morita_f_tilde" in results:
        print(f"morita f-tilde: {tuple(results['morita_f_tilde'])}")
    if "morita_f" in results:
        print(f"morita f:       {tuple(results['morita_f'])}")
    if "earle_psi" in results:
        payload = results["earle_psi"]
        print(f"earle psi:      ({', '.join(payload['lowest_terms'])})")
        print(
            f"                = ({', '.join(str(n) for n in payload['numerators'])})"
            f" / {payload['denominator']}"
        )
    return EXIT_OK


def cmd_builtin(args) -> int:
    try:
        phi = named_element(FreeGroup(args.g), args.name)
        if args.out is not None:
            save_automorphism(phi, args.out)
            return EXIT_OK
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    print(json.dumps(to_mapping(phi), indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.samples < 1:
        # a suite run with no samples would report its sampled checks as passed
        print(f"error: --samples must be at least 1, got {args.samples}", file=sys.stderr)
        return EXIT_BAD_INPUT
    checks = run_suite(args.suite, args.g, args.samples, args.seed)
    failed = failures(checks)
    if args.format == "structured":
        doc = {
            "command": "verify",
            "suite": args.suite,
            "genera": list(args.g),
            "samples": args.samples,
            "seed": args.seed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in checks
            ],
            "passed": not failed,
        }
        print(json.dumps(doc, indent=2))
    else:
        for c in checks:
            if c.passed:
                print(f"PASS {c.name}")
            else:
                print(f"FAIL {c.name}: {c.detail}")
        print(
            f"{len(checks) - len(failed)}/{len(checks)} checks passed "
            f"(suite {args.suite}, genera {','.join(str(g) for g in args.g)}, "
            f"samples {args.samples}, seed {args.seed})"
        )
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


_COMMANDS = {"eval": cmd_eval, "builtin": cmd_builtin, "verify": cmd_verify}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed standard output early.  Point the descriptor at
        # devnull, so that the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return status


if __name__ == "__main__":
    sys.exit(main())
