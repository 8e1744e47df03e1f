"""The four benchmark workloads: inputs, the timed op, and the oracle check.

Every workload is a closed loop with one client: one op is sent when the
previous one returns.  ``setup`` builds all inputs from the seed alone,
computes the oracle's expected values and warms the package's caches;
``execute`` is the timed op; ``check`` runs after timing and returns
None or the reason the output is wrong.  ``perturb`` corrupts one value
of a real output so the self-test can show that the oracle catches it.

See README.md beside this file for why each workload exists.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import oracle


def _run_cli(mcg, argv: list[str]) -> tuple[int, str]:
    """``mcgcocycles.cli.main`` in process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = mcg.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


@dataclass
class State:
    ops: list
    sizes: dict


# -- cocycle-pairs -----------------------------------------------------------


@dataclass
class PairOp:
    genus: int
    p1: Any
    p2: Any
    rho1_inv: list
    rho2_inv: list


class CocyclePairs:
    """The criterion-08 op on pairs of ``random_element(F, 4, seed)``."""

    name = "cocycle-pairs"
    pairs = 160
    genera = (2, 3, 4, 5)

    def setup(self, mcg, seed: int, workdir: Path) -> State:
        rng = random.Random(seed)
        ops = []
        for i in range(self.pairs):
            group = mcg.FreeGroup(self.genera[i % len(self.genera)])
            p1 = mcg.random_element(group, 4, seed=rng.randrange(1 << 30))
            p2 = mcg.random_element(group, 4, seed=rng.randrange(1 << 30))
            mcg.in_N(p1)
            mcg.in_N(p2)
            g = group.genus
            ops.append(PairOp(
                g, p1, p2,
                oracle.matrix_of_images([im.letters for im in p1.backward.images], g),
                oracle.matrix_of_images([im.letters for im in p2.backward.images], g),
            ))
        letters = [sum(len(im) for im in p.images) for op in ops for p in (op.p1, op.p2)]
        return State(ops, {"genera": list(self.genera), "pairs": len(ops),
                           "image_letters_min": min(letters),
                           "image_letters_max": max(letters)})

    def execute(self, mcg, op: PairOp) -> dict:
        comp = mcg.compose(op.p1, op.p2)
        elems = (("p1", op.p1), ("p2", op.p2), ("comp", comp))
        return {
            name: {key: fn(elem) for key, elem in elems}
            for name, fn in (("f_tilde", mcg.f_tilde), ("morita_f", mcg.morita_f),
                             ("earle_psi", mcg.earle_psi))
        }

    def check(self, op: PairOp, output) -> Optional[str]:
        return oracle.check_pair_values(output, op.rho1_inv, op.rho2_inv, op.genus)

    def perturb(self, output):
        bad = copy.deepcopy(output)
        v = list(bad["morita_f"]["comp"])
        v[0] += 1
        bad["morita_f"]["comp"] = tuple(v)
        return bad


# -- long-images and certified-images ------------------------------------------


@dataclass
class DocOp:
    genus: int
    path: str
    letters: int
    expected: dict


class ImageDocuments:
    """``eval --in <doc> --format structured`` on built automorphism files.

    Doc i is inner(x) . jablow . T_1 . T_2 ... T_m, where the T_j
    alternate between the A and B twist of one handle, so the images of
    that handle grow like Fibonacci numbers, and the witness u is
    x B_g..B_1.  The genus, handle, twist sign, first twist and m are
    fixed by i (m is the first step count whose letter count reaches the
    doc's target); the seed picks the inner word x.  x moves the letter
    count by under 1%, so every seed does the same work and the run to
    run spread is the machine's, not the inputs'.  Docs on the top handle
    have x = 1 and so the bare witness B_g..B_1.
    """

    def __init__(self, name, certified, genera, per_genus, band, targets, fixed_handle):
        self.name = name
        self.certified = certified
        self.genera = genera
        self.per_genus = per_genus
        self.band = band
        self.targets = targets
        self.fixed_handle = fixed_handle

    def slots(self):
        count = len(self.genera) * self.per_genus
        lo, hi = self.targets
        for i in range(count):
            g = self.genera[i % len(self.genera)]
            j = i // len(self.genera)
            yield {
                "genus": g,
                "handle": self.fixed_handle or 1 + j % g,
                "sign": (1, -1)[j % 2],
                "a_first": (j // 2) % 2 == 0,
                "target": lo * (hi / lo) ** (i / max(1, count - 1)),
            }

    @staticmethod
    def inner_word(group, handle, rng):
        """1 to 3 random letters from handles above the twisted one, or none.

        jablow keeps such a word off the twisted handle, so the inverse
        images stay as short as the images; a letter of the twisted handle
        would be blown up by the inverse twist chain.
        """
        g = group.genus
        codes = [c for h in range(handle + 1, g + 1) for c in (h, g + h)]
        letters = []
        for _ in range(rng.randint(1, 3) if codes else 0):
            c = rng.choice(codes) * rng.choice((1, -1))
            if not letters or letters[-1] != -c:
                letters.append(c)
        return group.from_letters(letters)

    def build(self, mcg, slot, rng):
        genus, handle, sign = slot["genus"], slot["handle"], slot["sign"]
        group = mcg.FreeGroup(genus)
        catalog = mcg.twist_catalog(group)
        twists = {"twist-A": catalog[handle - 1], "twist-B": catalog[genus + handle - 1]}
        if sign < 0:
            twists = {kind: t.inverse() for kind, t in twists.items()}
        factors = [oracle.factor_values("jablow", genus)]
        elem = mcg.jablow(group)
        if not self.certified:
            elem = mcg.Endo(group, elem.images)  # skip composing the inverses
        while sum(len(im) for im in elem.images) < slot["target"]:
            kind = "twist-A" if (len(factors) % 2 == 1) == slot["a_first"] else "twist-B"
            elem = mcg.compose(elem, twists[kind])
            factors.append(oracle.factor_values(kind, genus, handle, sign))
        x = self.inner_word(group, handle, rng)
        elem = mcg.compose(mcg.inner(x), elem)
        factors.insert(0, oracle.factor_values("inner", genus, word=x.letters))
        letters = sum(len(im) for im in elem.images)
        if not self.band[0] <= letters <= self.band[1]:
            raise RuntimeError(f"{self.name}: {letters} letters, outside {self.band}")
        return elem, letters, oracle.fold(factors, genus)

    def document(self, elem) -> dict:
        """The automorphism file format, written by the oracle's own formatter."""
        g = elem.group.genus
        doc = {"genus": g, "images": {oracle.format_word((k,), g): oracle.format_word(im.letters, g)
                                      for k, im in enumerate(elem.images, 1)}}
        if self.certified:
            doc["inverse_images"] = {oracle.format_word((k,), g): oracle.format_word(im.letters, g)
                                     for k, im in enumerate(elem.backward.images, 1)}
        return doc

    def setup(self, mcg, seed: int, workdir: Path) -> State:
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        ops = []
        for i, slot in enumerate(self.slots()):
            elem, letters, expected = self.build(mcg, slot, rng)
            path = workdir / f"{self.name}-{i:02d}.json"
            path.write_text(json.dumps(self.document(elem)), encoding="utf-8")
            ops.append(DocOp(slot["genus"], str(path), letters, expected))
        letters = [op.letters for op in ops]
        return State(ops, {"genera": list(self.genera), "docs": len(ops),
                           "image_letters_min": min(letters),
                           "image_letters_max": max(letters),
                           "image_letters_total": sum(letters)})

    def execute(self, mcg, op: DocOp):
        return _run_cli(mcg, ["eval", "--in", op.path, "--format", "structured"])

    def check(self, op: DocOp, output) -> Optional[str]:
        rc, text = output
        return oracle.check_eval_output(rc, text, op.expected, op.genus, self.certified)

    def perturb(self, output):
        rc, text = output
        doc = json.loads(text)
        doc["results"]["morita_f"][0] += 1
        return rc, json.dumps(doc)


# -- verify-all ------------------------------------------------------------------


@dataclass
class VerifyOp:
    suite: str
    genus: int
    seed: int
    checks: int


class VerifyAll:
    """``verify <suite> --g <g> --samples 20`` for every suite and g in 2..5."""

    name = "verify-all"
    samples = 20
    genera = (2, 3, 4, 5)
    seeds_per_case = 2
    # checks each suite runs at one genus, read from the suites; a run that
    # reports fewer checks passed vacuously and counts as a failure
    suite_checks = {
        "words": 6,
        "d-function": 2 + 3,
        "cocycle-n": 5,
        "descent": 5,
        "earle": 4,
        "paper-vectors": 1 + 9,
    }

    def setup(self, mcg, seed: int, workdir: Path) -> State:
        rng = random.Random(seed)
        for g in self.genera:
            group = mcg.FreeGroup(g)
            mcg.jablow(group)
            mcg.twist_catalog(group)
        ops = [VerifyOp(suite, g, rng.randrange(1 << 30), checks)
               for _ in range(self.seeds_per_case)
               for suite, checks in self.suite_checks.items() for g in self.genera]
        return State(ops, {"genera": list(self.genera), "suites": list(self.suite_checks),
                           "samples": self.samples})

    def execute(self, mcg, op: VerifyOp):
        return _run_cli(mcg, ["verify", op.suite, "--g", str(op.genus),
                              "--samples", str(self.samples), "--seed", str(op.seed)])

    def check(self, op: VerifyOp, output) -> Optional[str]:
        rc, text = output
        return oracle.check_verify_output(rc, text, op.checks)

    def perturb(self, output):
        rc, text = output

        def fewer(m):
            n = int(m.group(1)) - 1
            return f"{n}/{n} checks passed"

        return rc, re.sub(r"(\d+)/\d+ checks passed", fewer, text, count=1)


WORKLOADS = {
    w.name: w
    for w in (
        CocyclePairs(),
        ImageDocuments("long-images", certified=False, genera=(3, 4, 5), per_genus=12,
                       band=(10_000, 35_000), targets=(10_000, 20_000), fixed_handle=None),
        # certification is about quadratic in the image length; the band
        # keeps one op near 0.03 to 0.5 s
        ImageDocuments("certified-images", certified=True, genera=(3, 4), per_genus=16,
                       band=(1_500, 6_000), targets=(1_500, 3_500), fixed_handle=1),
        VerifyAll(),
    )
}
