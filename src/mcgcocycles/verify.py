"""Named self-check suites behind the command line ``verify`` subcommand.

A suite is a table of families.  A family is one seeded sampler and the
named checks that each of its samples must pass, and ``run_checks``, the
one runner, evaluates every check on every sample.  A check returns True
when it holds; anything else (False, the text of a mismatch, or an
exception) fails it, and a failed check keeps its first counterexample
while the others run on.  The detail of a failure is the sample's index
and text: the genus, the seeds of ``random_element(FreeGroup(g), 4,
seed=S)`` and the word text, which rebuild the input.  Every suite draws
from one generator in table order, so a repeated run is byte-for-byte
identical.  The checks call the cocycles directly; each element's
membership record (``in_N``) is the one cache of its values.  The tests
run the same samplers, checks and runner with their own seeds and counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
from .earle import a0, coboundary_a0, earle_psi, over_canonical_denominator, psi_numerators


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


def _once(samples: int) -> int:
    return 1


def _quarter(samples: int) -> int:
    """Pair families draw fewer samples: each one builds two elements."""
    return max(1, samples // 4)


# Family and Suite are plain classes: a frozen dataclass costs about a
# millisecond of import time each, which every fresh process pays.


class Family:
    """One sampler and the named checks every one of its samples must pass.

    ``count`` maps the suite's ``samples`` to the samples drawn per genus.
    """

    def __init__(self, draw: Callable[[Optional[FreeGroup], random.Random], Any],
                 checks: dict[str, Check], count: Callable[[int], int] = lambda n: n):
        self.draw, self.checks, self.count = draw, checks, count

    def run(self, group, samples: int, rng: random.Random, prefix: str = "") -> list[CheckResult]:
        draws = (self.draw(group, rng) for _ in range(self.count(samples)))
        return run_checks(self.checks, draws, prefix)


class Suite:
    """The ``head`` families once, then ``families`` at each genus, on one RNG."""

    def __init__(self, families: tuple[Family, ...], head: tuple[Family, ...] = ()):
        self.families, self.head = families, head

    def __call__(self, genera, samples: int, seed: int) -> list[CheckResult]:
        rng = random.Random(seed)
        out = [r for family in self.head for r in family.run(None, samples, rng)]
        for g in genera:
            group = FreeGroup(g)
            for family in self.families:
                out += family.run(group, samples, rng, f"g={g} ")
        return out


# -- checks: each takes a sample and returns True when it holds ---------------
#
# Checks look the cocycles up in this module's globals when they run and
# never bind them at import, so a wrapper rebound over those names (as
# bench/tracing.py does) sees every call.


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


def turning_values(words: dict) -> Any:
    """``d`` of each word text, read at genus 2, against its stated value."""
    group = FreeGroup(2)
    return _equal(tuple(d(group.word(text)) for text in words), tuple(words.values()))


def d_product_rule(s: Sample) -> bool:
    return d(s.x * s.y) == d(s.x) + d(s.y) + intersection(abelianize(s.x), abelianize(s.y))


def d_inversion_rule(s: Sample) -> bool:
    return d(s.x.inverse()) == -d(s.x)


def d_vanishes_on_generators(s: Sample) -> bool:
    return all(d(gen) == 0 for gen in s.group.generators())


def cocycle_rule(cocycle: Callable, s: Sample) -> Any:
    """The twisted cocycle rule c(p1 p2) = rho(p2)^-1 c(p1) + c(p2), times rho(p2).

    rho(p2) (c(p1 p2) - c(p2)) = c(p1), with rho(p2) read off p2's images:
    the oracle shares no inverse with the cocycles.  The rule is linear
    in c, so Earle's psi, which ``earle`` computes as integer numerators
    over 2g - 2 and returns as fractions, is checked on the numerators
    (``psi_cocycle_rule``); every c here is an integer vector.
    """
    c1, c2 = cocycle(s.p1), cocycle(s.p2)
    moved = mat_vec(induced_matrix(s.p2), tuple(a - b for a, b in zip(cocycle(s.comp), c2)))
    return _equal(moved, c1)


def psi_cocycle_rule(s: Sample) -> Any:
    """``cocycle_rule`` for psi, run on its numerators; a failure shows psi's fractions.

    The numerators are psi times 2g - 2 exactly, so the rule holds for
    them just when it holds for psi.  A failure is reported as the same
    rule on ``earle_psi`` reports it, unless that one holds, which keeps
    the numerators' mismatch.
    """
    verdict = cocycle_rule(psi_numerators, s)
    if verdict is True:
        return True
    shown = cocycle_rule(earle_psi, s)
    return verdict if shown is True else shown


def f_tilde_on_conjugation(s: Sample) -> bool:
    return f_tilde(inner(s.x)) == tuple(2 * v for v in abelianize(s.x))


def f_tilde_at_additive(s: Sample) -> bool:
    return f_tilde_at(s.p1, s.x * s.y) == f_tilde_at(s.p1, s.x) + f_tilde_at(s.p1, s.y)


def f_tilde_at_is_pairing(s: Sample) -> bool:
    return f_tilde_at(s.p1, s.x) == intersection(f_tilde(s.p1), abelianize(s.x))


def morita_f_on_conjugation(s: Sample) -> bool:
    return morita_f(inner(s.x)) == tuple((2 - 2 * s.group.genus) * v for v in abelianize(s.x))


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
    zeta = s.group.zeta()
    return all(morita_f(inner(zeta**m)) == (0,) * s.group.rank for m in (-2, -1, 0, 1, 2))


def psi_on_conjugation(s: Sample) -> bool:
    """psi(inner(x)) = [x], checked as its numerators: (2g - 2) [x]."""
    scale = 2 * s.group.genus - 2
    return psi_numerators(inner(s.x)) == tuple(scale * v for v in abelianize(s.x))


def psi_integral(element: str = "comp") -> Check:
    """(2g-2) psi of the element is an integer vector."""

    def check(s: Sample) -> bool:
        # raises unless every entry is an integer over 2g - 2
        over_canonical_denominator(earle_psi(getattr(s, element)), s.group.genus)
        return True

    return check


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


def f_tilde_on_involution(s: Sample) -> Any:
    g = s.group.genus
    return _equal(f_tilde(s.io), (-2,) * g + tuple(2 * k - 2 * g - 4 for k in range(1, g + 1)))


def f_tilde_on_composite(s: Sample) -> Any:
    g = s.group.genus
    want = (-2,) * g + tuple(2 * k - 2 * g - 2 for k in range(1, g + 1))
    return _equal(f_tilde(s.composite), want)


def morita_f_on_involution(s: Sample) -> Any:
    g = s.group.genus
    return _equal(morita_f(s.io), (-2,) * g + tuple(2 * k - 4 for k in range(1, g + 1)))


def psi_on_involution(s: Sample) -> Any:
    g, q = s.group.genus, Fraction(1, s.group.genus - 1)
    return _equal(earle_psi(s.io), (q,) * g + tuple(-k * q for k in range(1, g + 1)))


def psi_on_composite(s: Sample) -> Any:
    g, q = s.group.genus, Fraction(1, s.group.genus - 1)
    want = (q,) * g + tuple((g - 1 - k) * q for k in range(1, g + 1))
    return _equal(earle_psi(s.composite), want)


def coboundary_on_involution(s: Sample) -> Any:
    return _equal(coboundary_a0(s.io), tuple(-2 * q for q in a0(s.group.genus)))


# -- the suites ---------------------------------------------------------------

_TURNING = Family(lambda group, rng: REFERENCE_TURNING, {
    "turning values on the three reference handle words": turning_values,
}, _once)

SUITES = {
    "words": Suite((
        Family(sampler(x=50, y=50, z=50, u=10, w=20), {
            "group laws and reduction": group_laws,
            "text round trip": text_round_trip,
            "cyclic reduction contract": cyclic_reduction_contract,
            "conjugator soundness": conjugator_soundness,
        }),
        Family(sampler(), {
            "zeta has 4g letters": lambda s: _equal(len(s.group.zeta()), 4 * s.group.genus),
            "conjugacy rejects shorter core":
                lambda s: conjugator(s.group.a(1), s.group.zeta()) is None,
        }, _once),
    )),
    "d-function": Suite((
        Family(sampler(x=50, y=50), {
            "product rule d(xy) = d(x) + d(y) + [x].[y]": d_product_rule,
            "inversion rule d(x^-1) = -d(x)": d_inversion_rule,
        }),
        Family(sampler(), {"d vanishes on generators": d_vanishes_on_generators}, _once),
    ), head=(_TURNING, Family(lambda group, rng: {"A1 B1": 1}, {
        "normalization d(alpha beta) = 1": turning_values,
    }, _once))),
    "cocycle-n": Suite((
        Family(sampler(x=50), {"f_tilde on conjugations is 2[x]": f_tilde_on_conjugation}),
        Family(sampler(elements=2, x=20, y=20), {
            "twisted cocycle identity for f_tilde": lambda s: cocycle_rule(f_tilde, s),
            "f_tilde_at additive in the argument": f_tilde_at_additive,
            "f_tilde_at equals pairing with dual class": f_tilde_at_is_pairing,
        }, _quarter),
        Family(sampler(), {
            "twist catalog fixes the boundary word":
                lambda s: all(in_M_g1(t) for t in twist_catalog(s.group)),
        }, _once),
    )),
    "descent": Suite((
        Family(sampler(x=30), {
            "restriction to conjugations is (2-2g)[x]": morita_f_on_conjugation,
        }),
        Family(sampler(elements=2), {
            "value independent of witness choice": witness_free(),
            "twisted cocycle identity for f": lambda s: cocycle_rule(morita_f, s),
            "agrees with f_tilde on boundary-fixing elements": boundary_fixing_agreement,
        }, _quarter),
        Family(sampler(), {"vanishes on conjugation by zeta": vanishes_on_zeta_conjugation}, _once),
    )),
    "earle": Suite((
        Family(sampler(x=30), {"restriction to conjugations is [x]": psi_on_conjugation}),
        Family(sampler(elements=2), {
            "twisted cocycle identity for psi": psi_cocycle_rule,
            "(2g-2) psi is integral": psi_integral(),
        }, _quarter),
        Family(sampler(), {
            "psi is not the bare base point coboundary": psi_is_not_bare_coboundary,
        }, _once),
    )),
    "paper-vectors": Suite((
        Family(sampler(), {
            "involution squares to the identity": involution_squares,
            "involution negates homology": involution_negates_homology,
            "boundary witness is B_g..B_1 up to a zeta power": boundary_witness,
            "f_tilde on the involution": f_tilde_on_involution,
            "f_tilde on the composite with inner B_g..B_1 inverse": f_tilde_on_composite,
            "integral cocycle on the involution": morita_f_on_involution,
            "rational cocycle on the involution": psi_on_involution,
            "rational cocycle on the composite": psi_on_composite,
            "base point shift on the involution": coboundary_on_involution,
        }, _once),
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
