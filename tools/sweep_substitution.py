"""Per-letter cost of phi(zeta) and of parsing word text, over genus and length.

    python3 tools/sweep_substitution.py [--out sweep.json] [--repeats 20]

Imports the package from ``src/`` of the checkout this file sits in and
uses only the standard library.  For each genus g and image length L,
phi is inner(x) after alternating A and B twists of handle g, twisted
until an image has L letters; x is a fixed-seed random word of 30
letters off that handle, so every image is conjugated and the seams of
zeta cancel across handles, as they do for a member of N.  ``letters``
is the number of image letters substituted into phi(zeta), the count
``bench/tracing.py`` reports for ``endomorphism.call``.  ``first_ns``
is the best time per letter of a first call, which builds the
substitution table; ``repeat_ns`` of a call that finds the table built.

The second table, ``parse_rows``, times ``FreeGroup.word`` on the text
``str(w)`` of a fixed-seed random reduced word w of ``letters`` letters,
over ``PARSE_GENERA``: ``ns`` is the best time per letter.  Up to genus
9 that text is decoded whole; from genus 10 it goes token by token, so
those rows show the token route.  Each time is the least of
``--repeats`` runs.  The whole sweep takes a few seconds.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mcgcocycles import Auto, Endo, FreeGroup, compose, identity_auto, inner, random_word  # noqa: E402

GENERA = (2, 5, 12, 64, 200)
PARSE_GENERA = (2, 5, 9, 12, 64)
LENGTHS = (100, 1_000, 10_000, 100_000)
SEED = 9


def handle_chain(group: FreeGroup, min_letters: int) -> Endo:
    """inner(x) after alternating twists of handle g until an image is long."""
    g = group.genus
    gens = group.generators()
    twists = []
    for k, partner in ((g - 1, 2 * g - 1), (2 * g - 1, g - 1)):
        images, inverse = list(gens), list(gens)
        images[k], inverse[k] = gens[k] * gens[partner], gens[k] * gens[partner].inverse()
        twists.append(Auto(group, images, inverse))
    phi, k = identity_auto(group), 0
    while max(map(len, phi.images)) < min_letters:
        phi, k = compose(phi, twists[k % 2]), k + 1
    rng = random.Random(SEED)
    others = [c for c in range(1, 2 * g + 1) if c not in (g, 2 * g)]
    x = group.from_letters(rng.choice((1, -1)) * rng.choice(others) for _ in range(30))
    return compose(inner(x), phi)


def best_ns(call, letters: int, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best / letters * 1e9


def sweep(repeats: int) -> list[dict]:
    rows = []
    for g in GENERA:
        group = FreeGroup(g)
        zeta = group.zeta()
        for length in LENGTHS:
            phi = handle_chain(group, length)
            letters = sum(len(phi.images[abs(c) - 1]) for c in zeta.letters)
            first = best_ns(lambda: Endo(group, phi.images)(zeta), letters, repeats)
            phi(zeta)
            repeat = best_ns(lambda: phi(zeta), letters, repeats)
            rows.append({"genus": g, "image_letters": max(map(len, phi.images)),
                         "letters": letters, "first_ns": round(first, 2),
                         "repeat_ns": round(repeat, 2)})
            print(json.dumps(rows[-1]), file=sys.stderr)
    return rows


def sweep_parse(repeats: int) -> list[dict]:
    rows = []
    for g in PARSE_GENERA:
        group = FreeGroup(g)
        for length in LENGTHS:
            text = str(random_word(group, length, random.Random(SEED)))
            ns = best_ns(lambda: group.word(text), length, repeats)
            rows.append({"genus": g, "letters": length, "ns": round(ns, 2)})
            print(json.dumps(rows[-1]), file=sys.stderr)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None, help="write the result here as well")
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args(argv)
    result = {
        "machine": {"python": platform.python_version(), "machine": platform.machine(),
                    "processor": platform.processor(), "system": platform.system()},
        "seed": SEED,
        "repeats": args.repeats,
        "rows": sweep(args.repeats),
        "parse_rows": sweep_parse(args.repeats),
    }
    text = json.dumps(result, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
