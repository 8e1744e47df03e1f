"""Named self-check suites behind the command line ``verify`` subcommand.

A suite is a table of families.  A family is named checks and the draw
``sampler(elements, **words)`` of its samples, whose count per genus
follows from what it draws (see ``Family``); a suite's ``head`` families
run once, at genus 2.  ``run_checks``, the one runner, evaluates every
check on every sample.  A check returns True when it holds; anything
else (False, the text of a mismatch, or an exception) fails it, and a
failed check keeps its first counterexample while the others run on.
The detail of a failure is the sample's index and text: the genus, the
seeds of ``random_element(FreeGroup(g), 4, seed=S)`` and the word text,
which rebuild the input.  Every suite draws from one generator in table
order, so a repeated run is byte-for-byte identical.  The checks call
the cocycles directly; each element's membership record (``in_N``) is
the one cache of its values.  Each cocycle property is one check:
``on_conjugation``, ``cocycle_rule``, and ``paper_value``, which compares
each of the paper's six values with its closed form in g from the table
``PAPER_VALUES``.  Earle's psi is checked on its numerators (2g - 2) psi
in the first two, so their failures show numerators.  The tests run the
same samplers, checks and runner with their own seeds and counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Any, Callable, Iterable, Optional

from .freegroup import FreeGroup, Word, conjugator, random_word
from .homology import abelianize, induced_matrix, intersection, mat_vec
from .endomorphism import (
    Auto,
    compose,
    in_M_g1,
    in_N,
    inner,
    jablow,
    random_element,
    twist_catalog,
    zeta_power_exponent,
)
from .morita import d, f_tilde, f_tilde_at, morita_f
from .earle import a0, coboundary_a0, earle_psi, psi_numerators


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


# -- samples and the runner --------------------------------------------------


class Sample:
    """One draw: a group, seeds of random elements, and named random words.

    ``p1`` and ``p2`` are ``random_element(group, 4, seed=S)`` of the
    seeds.  The sample builds its elements on first use and keeps only
    those; the cocycle values are cached in each element's record
    (``in_N``).  ``str()`` is the text that rebuilds it.
    """

    def __init__(self, group: FreeGroup, seeds: tuple[int, ...] = (),
                 words: Optional[dict[str, Word]] = None):
        self.group = group
        self.seeds = seeds
        self.words = dict(words or {})
        self.__dict__.update(self.words)

    def __str__(self) -> str:
        parts = [f"g={self.group.genus}"]
        parts += [f"p{i}_seed={seed}" for i, seed in enumerate(self.seeds, 1)]
        parts += [f"{name}={str(w)!r}" for name, w in self.words.items()]
        return " ".join(parts)

    @cached_property
    def p1(self) -> Auto:
        return random_element(self.group, 4, seed=self.seeds[0])

    @cached_property
    def p2(self) -> Auto:
        return random_element(self.group, 4, seed=self.seeds[1])

    @cached_property
    def comp(self) -> Auto:
        """p1 p2, acting p2 first."""
        return compose(self.p1, self.p2)

    @cached_property
    def io(self) -> Auto:
        """The involution of the paper."""
        return jablow(self.group)

    @cached_property
    def composite(self) -> Auto:
        """inner(B_g..B_1)^-1 composed with the involution."""
        return compose(inner(_descending_bs(self.group).inverse()), self.io)


def _descending_bs(group: FreeGroup) -> Word:
    """B_g B_(g-1) ... B_1, the involution's witness."""
    return Word(group, range(group.rank, group.genus, -1))


def sampler(elements: int = 0, **words: int) -> Callable[[FreeGroup, random.Random], Sample]:
    """Draw ``elements`` seeds, then each named word with 0..bound letters, in order."""

    def draw(group: FreeGroup, rng: random.Random) -> Sample:
        seeds = tuple(rng.randrange(1 << 30) for _ in range(elements))
        drawn = {name: random_word(group, rng.randint(0, n), rng) for name, n in words.items()}
        return Sample(group, seeds, drawn)

    return draw


Check = Callable[[Any], Any]


def run_checks(checks: dict[str, Check], samples: Iterable, prefix: str = "") -> list[CheckResult]:
    """Every check on every sample; a failed check keeps its first counterexample.

    A check that raises fails with ``raised <Type>: <message>`` and the
    others run on.  A check that saw no sample fails rather than passing
    vacuously.
    """
    first: dict[str, str] = {}
    k = -1
    for k, sample in enumerate(samples):
        for name, check in checks.items():
            try:
                verdict = check(sample)
            except Exception as exc:
                verdict = f"raised {type(exc).__name__}: {exc}"
            if verdict is not True and name not in first:
                found = "" if verdict is False else f"; {verdict}"
                first[name] = f"sample #{k}: {sample}{found}"
    if k < 0:
        first = dict.fromkeys(checks, "no sample drawn")
    return [CheckResult(prefix + name, name not in first, first.get(name, "")) for name in checks]


def failures(results: Iterable[CheckResult]) -> list[CheckResult]:
    return [r for r in results if not r.passed]


# Family and Suite are plain classes: a frozen dataclass costs about a
# millisecond of import time each, which every fresh process pays.


class Family:
    """The named checks every sample of ``sampler(elements, **words)`` must pass.

    Per genus it draws one sample when it draws nothing, a quarter of
    ``samples`` (at least one) when it builds elements, else ``samples``.
    """

    def __init__(self, checks: dict[str, Check], elements: int = 0, **words: int):
        self.checks, self.draw = checks, sampler(elements, **words)
        self.elements, self.words = elements, words

    def run(self, group: FreeGroup, samples: int, rng: random.Random,
            prefix: str = "") -> list[CheckResult]:
        count = max(1, samples // 4) if self.elements else samples if self.words else 1
        draws = (self.draw(group, rng) for _ in range(count))
        return run_checks(self.checks, draws, prefix)


class Suite:
    """The ``head`` families once at genus 2, then ``families`` at each genus, on one RNG."""

    def __init__(self, families: tuple[Family, ...], head: tuple[Family, ...] = ()):
        self.families, self.head = families, head

    def __call__(self, genera, samples: int, seed: int) -> list[CheckResult]:
        rng = random.Random(seed)
        out = [r for family in self.head for r in family.run(FreeGroup(2), samples, rng)]
        for g in genera:
            group = FreeGroup(g)
            for family in self.families:
                out += family.run(group, samples, rng, f"g={g} ")
        return out


# -- checks: each takes a sample and returns True when it holds ---------------
#
# Checks look the cocycles up in this module's globals when they run, as
# do the suite table's lambdas that pass one to ``cocycle_rule`` or
# ``on_conjugation`` and the readers of ``PAPER_VALUES``, so a wrapper
# rebound over those names (as bench/tracing.py does) sees every call.


def _equal(got, want):
    return True if got == want else f"got {got!r}, want {want!r}"


def group_laws(s: Sample) -> bool:
    x, y, z = s.x, s.y, s.z
    return (x * y) * z == x * (y * z) and (x * x.inverse()).is_identity()


def text_round_trip(s: Sample) -> bool:
    return s.group.word(str(s.x)) == s.x


def cyclic_reduction_contract(s: Sample) -> bool:
    core, prefix = s.x.cyclic_reduce()
    reduced = len(core) < 2 or core.view[0] != -core.view[-1]
    return prefix * core * prefix.inverse() == s.x and reduced


def conjugator_soundness(s: Sample) -> bool:
    target = s.w.conjugated_by(s.u)
    found = conjugator(target, s.w)
    return found is not None and s.w.conjugated_by(found) == target


def turning_values(table: dict[str, int], s: Sample) -> Any:
    """``d`` of each word text of the table, read in the sample's group, against its value."""
    return _equal({text: d(s.group.word(text)) for text in table}, table)


def d_product_rule(s: Sample) -> bool:
    return d(s.x * s.y) == d(s.x) + d(s.y) + intersection(abelianize(s.x), abelianize(s.y))


def d_inversion_rule(s: Sample) -> bool:
    return d(s.x.inverse()) == -d(s.x)


def d_vanishes_on_generators(s: Sample) -> bool:
    return all(d(gen) == 0 for gen in s.group.generators())


def on_conjugation(cocycle: Callable, scale: int, x: Word) -> bool:
    """cocycle(inner(x)) = scale [x]: 2 for f_tilde, 2 - 2g for f, 2g - 2 for psi's numerators."""
    return cocycle(inner(x)) == tuple(scale * v for v in abelianize(x))


def cocycle_rule(cocycle: Callable, s: Sample) -> Any:
    """The twisted cocycle rule c(p1 p2) = rho(p2)^-1 c(p1) + c(p2), times rho(p2).

    rho(p2) (c(p1 p2) - c(p2)) = c(p1), with rho(p2) read off p2's images:
    the oracle shares no inverse with the cocycles.  The rule is linear
    in c, so Earle's psi, which ``earle`` computes as integer numerators
    over 2g - 2 and returns as fractions, is checked on the numerators
    (``psi_numerators``); every c here is an integer vector.
    """
    c1, c2 = cocycle(s.p1), cocycle(s.p2)
    moved = mat_vec(induced_matrix(s.p2), tuple(a - b for a, b in zip(cocycle(s.comp), c2)))
    return _equal(moved, c1)


def f_tilde_at_additive(s: Sample) -> bool:
    return f_tilde_at(s.p1, s.x * s.y) == f_tilde_at(s.p1, s.x) + f_tilde_at(s.p1, s.y)


def f_tilde_at_is_pairing(s: Sample) -> bool:
    return f_tilde_at(s.p1, s.x) == intersection(f_tilde(s.p1), abelianize(s.x))


def witness_free(element: str = "p1", shifts: tuple[int, ...] = (-2, -1, 1, 2)) -> Check:
    """f of the element is the same with every witness u zeta^m.

    Each u zeta^m conjugates zeta to the element's image of it, as u does.
    Checked multiplied through by the record's forward rho, as in
    ``cocycle_rule``: rho (f - f_tilde) = -2g [u zeta^m]; no inverse is read.
    """

    def check(s: Sample) -> bool:
        member = in_N(getattr(s, element))
        u, zeta, rank = member.conjugator, s.group.zeta(), s.group.rank
        moved = mat_vec(member.rho, tuple(a - b for a, b in zip(member.f, member.f_tilde)))
        return all(moved == tuple(-rank * c for c in abelianize(u * zeta**m)) for m in shifts)

    return check


def boundary_fixing_agreement(s: Sample) -> bool:
    fixed = compose(inner(in_N(s.p1).conjugator.inverse()), s.p1)
    return morita_f(fixed) == f_tilde(fixed)


def vanishes_on_zeta_conjugation(s: Sample) -> bool:
    zeta, scale = s.group.zeta(), 2 - 2 * s.group.genus
    return all(on_conjugation(morita_f, scale, zeta**m) for m in (-2, -1, 0, 1, 2))


def psi_integral(s: Sample) -> Any:
    """(2g-2) psi of p1 p2 is an integer vector: each denominator divides 2g - 2."""
    den = 2 * s.group.genus - 2
    bad = next((q for q in earle_psi(s.comp) if den % q.denominator), None)
    return True if bad is None else f"entry {bad} is not a multiple of 1/{den}"


# -- the paper's values (frozen) -----------------------------------------------

# the turning function on the handle words that the involution's images
# project to, written on the first handle
REFERENCE_TURNING = {
    "B1 A1 B1 a1 b1 a1 b1": 4,
    "B1 A1 B1 a1 b1 b1": 2,
    "B1 A1 b1 a1 b1": -2,
}


def psi_is_not_bare_coboundary(s: Sample) -> bool:
    return earle_psi(s.io) != coboundary_a0(s.io)


def involution_squares(s: Sample) -> bool:
    return all(s.io(s.io(gen)) == gen for gen in s.group.generators())


def involution_negates_homology(s: Sample) -> Any:
    n = s.group.rank
    minus_one = tuple(tuple(-1 if i == j else 0 for j in range(n)) for i in range(n))
    return _equal(induced_matrix(s.io), minus_one)


def boundary_witness(s: Sample) -> bool:
    """The witness of the involution is B_g..B_1 up to a power of zeta."""
    u = in_N(s.io).conjugator
    return zeta_power_exponent(_descending_bs(s.group).inverse() * u) is not None


# check name -> (the value read off a sample, its closed form at genus g)
PAPER_VALUES: dict[str, tuple[Callable[[Sample], tuple], Callable[[int], tuple]]] = {
    "f_tilde on the involution": (
        lambda s: f_tilde(s.io),
        lambda g: (-2,) * g + tuple(2 * k - 2 * g - 4 for k in range(1, g + 1))),
    "f_tilde on the composite with inner B_g..B_1 inverse": (
        lambda s: f_tilde(s.composite),
        lambda g: (-2,) * g + tuple(2 * k - 2 * g - 2 for k in range(1, g + 1))),
    "integral cocycle on the involution": (
        lambda s: morita_f(s.io),
        lambda g: (-2,) * g + tuple(2 * k - 4 for k in range(1, g + 1))),
    "rational cocycle on the involution": (
        lambda s: earle_psi(s.io),
        lambda g: tuple(Fraction(v, g - 1) for v in (1,) * g + tuple(-k for k in range(1, g + 1)))),
    "rational cocycle on the composite": (
        lambda s: earle_psi(s.composite),
        lambda g: tuple(Fraction(v, g - 1)
                        for v in (1,) * g + tuple(g - 1 - k for k in range(1, g + 1)))),
    "base point shift on the involution": (
        lambda s: coboundary_a0(s.io),
        lambda g: tuple(-2 * q for q in a0(g))),
}


def paper_value(name: str, s: Sample) -> Any:
    """The value ``PAPER_VALUES[name]`` reads off the sample against its closed form."""
    read, closed_form = PAPER_VALUES[name]
    return _equal(read(s), closed_form(s.group.genus))


# -- the suites ---------------------------------------------------------------

_TURNING = Family({
    "turning values on the three reference handle words":
        lambda s: turning_values(REFERENCE_TURNING, s),
})

SUITES = {
    "words": Suite((
        Family({
            "group laws and reduction": group_laws,
            "text round trip": text_round_trip,
            "cyclic reduction contract": cyclic_reduction_contract,
            "conjugator soundness": conjugator_soundness,
        }, x=50, y=50, z=50, u=10, w=20),
        Family({
            "zeta has 4g letters": lambda s: _equal(len(s.group.zeta()), 4 * s.group.genus),
            "conjugacy rejects shorter core":
                lambda s: conjugator(s.group.a(1), s.group.zeta()) is None,
        }),
    )),
    "d-function": Suite((
        Family({
            "product rule d(xy) = d(x) + d(y) + [x].[y]": d_product_rule,
            "inversion rule d(x^-1) = -d(x)": d_inversion_rule,
        }, x=50, y=50),
        Family({"d vanishes on generators": d_vanishes_on_generators}),
    ), head=(_TURNING, Family({
        "normalization d(alpha beta) = 1": lambda s: turning_values({"A1 B1": 1}, s),
    }))),
    "cocycle-n": Suite((
        Family({
            "f_tilde on conjugations is 2[x]": lambda s: on_conjugation(f_tilde, 2, s.x),
        }, x=50),
        Family({
            "twisted cocycle identity for f_tilde": lambda s: cocycle_rule(f_tilde, s),
            "f_tilde_at additive in the argument": f_tilde_at_additive,
            "f_tilde_at equals pairing with dual class": f_tilde_at_is_pairing,
        }, elements=2, x=20, y=20),
        Family({
            "twist catalog fixes the boundary word":
                lambda s: all(in_M_g1(t) for t in twist_catalog(s.group)),
        }),
    )),
    "descent": Suite((
        Family({
            "restriction to conjugations is (2-2g)[x]":
                lambda s: on_conjugation(morita_f, 2 - 2 * s.group.genus, s.x),
        }, x=30),
        Family({
            "value independent of witness choice": witness_free(),
            "twisted cocycle identity for f": lambda s: cocycle_rule(morita_f, s),
            "agrees with f_tilde on boundary-fixing elements": boundary_fixing_agreement,
        }, elements=2),
        Family({"vanishes on conjugation by zeta": vanishes_on_zeta_conjugation}),
    )),
    "earle": Suite((
        Family({
            "restriction to conjugations is [x]":
                lambda s: on_conjugation(psi_numerators, 2 * s.group.genus - 2, s.x),
        }, x=30),
        Family({
            "twisted cocycle identity for psi": lambda s: cocycle_rule(psi_numerators, s),
            "(2g-2) psi is integral": psi_integral,
        }, elements=2),
        Family({
            "psi is not the bare base point coboundary": psi_is_not_bare_coboundary,
        }),
    )),
    "paper-vectors": Suite((
        Family({
            "involution squares to the identity": involution_squares,
            "involution negates homology": involution_negates_homology,
            "boundary witness is B_g..B_1 up to a zeta power": boundary_witness,
            **{name: partial(paper_value, name) for name in PAPER_VALUES},
        }),
    ), head=(_TURNING,)),
}

SUITE_ORDER = tuple(SUITES)


def run_suite(name: str, genera, samples: int, seed: int) -> list[CheckResult]:
    """Run one named suite, or all of them in a fixed order, at one genus or more."""
    genera = tuple(genera)
    if not genera:
        raise ValueError("no genus to check")
    for g in genera:
        FreeGroup(g)  # validates
    if name == "all":
        out: list[CheckResult] = []
        for key in SUITE_ORDER:
            out.extend(SUITES[key](genera, samples, seed))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](genera, samples, seed)
