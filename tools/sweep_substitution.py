"""Per-letter cost of phi(zeta), of parsing word text and of word kernels, over genus and length.

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
substitution kernel (``freegroup.Substitution``); ``repeat_ns`` of a
call that finds the kernel built.

The second table, ``parse_rows``, times ``FreeGroup.word`` on the text
``str(w)`` of a fixed-seed random reduced word w of ``letters`` letters,
over ``PARSE_GENERA``: ``ns`` is the best time per letter.  Up to genus
9 that text is decoded whole; from genus 10 it goes token by token, so
those rows show the token route.

The third table, ``word_rows``, times the kernels of ``Word`` over
``GENERA`` on a fixed-seed random reduced word x of ``letters`` letters,
each as the best time per letter of x: ``mul_ns`` of x * y, where y
starts with the inverse of the second half of x, so about half of x
cancels at the seam; ``inverse_ns``; ``cyclic_reduce_ns``; ``conjugator_ns`` of the
core of x against its rotation by one letter; ``letters_ns`` of decoding
``x.letters`` from the packed bytes.  Genus 64 and above packs two bytes
per letter.  Each time is the least of ``--repeats`` runs.  The whole
sweep takes a few seconds.
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

from mcgcocycles import (  # noqa: E402
    Auto, Endo, FreeGroup, compose, conjugator, identity_auto, inner, random_word,
)

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


def sweep_words(repeats: int) -> list[dict]:
    rows = []
    for g in GENERA:
        group = FreeGroup(g)
        for length in LENGTHS:
            rng = random.Random(SEED)
            x = random_word(group, length, rng)
            half = group.from_letters(x.letters[length // 2:]).inverse()
            y = half * random_word(group, length - length // 2, rng)
            c1 = x.cyclic_reduce()[0]
            c2 = group.from_letters(c1.letters[1:] + c1.letters[:1])
            row = {"genus": g, "letters": length}
            for name, call in (("mul_ns", lambda: x * y), ("inverse_ns", x.inverse),
                               ("cyclic_reduce_ns", x.cyclic_reduce),
                               ("conjugator_ns", lambda: conjugator(c1, c2)),
                               ("letters_ns", lambda: x.letters)):
                row[name] = round(best_ns(call, length, repeats), 2)
            rows.append(row)
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
        "word_rows": sweep_words(args.repeats),
    }
    text = json.dumps(result, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
