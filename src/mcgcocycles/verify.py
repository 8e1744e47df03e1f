"""Named self-check suites behind the command line ``verify`` subcommand.

Each suite is a function from (genera, samples, seed) to a list of check
results.  Randomized checks draw from a seeded generator, so a repeated
run is byte-for-byte identical.  Failures carry a counterexample in the
detail field.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .freegroup import FreeGroup, Word, conjugator, random_word
from .homology import (
    abelianize,
    induced_matrix,
    intersection,
    mat_vec,
)
from .endomorphism import (
    compose,
    in_M_g1,
    in_N,
    inner,
    jablow,
    random_element,
    twist_catalog,
    zeta_power_exponent,
)
from .morita import ALPHA, BETA, d, d_two_gen, f_tilde, f_tilde_at, morita_f
from .earle import a0, coboundary_a0, earle_psi, over_canonical_denominator


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class _Recorder:
    checks: list[CheckResult] = field(default_factory=list)

    def record(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, passed, detail if not passed else ""))

    def all_equal(self, name: str, got, want) -> None:
        self.record(name, got == want, f"got {got!r}, want {want!r}")


# -- expected value formulas (frozen) ---------------------------------------


def expected_f_tilde_jablow(g: int) -> tuple[int, ...]:
    return (-2,) * g + tuple(2 * k - 2 * g - 4 for k in range(1, g + 1))


def expected_f_tilde_composite(g: int) -> tuple[int, ...]:
    return (-2,) * g + tuple(2 * k - 2 * g - 2 for k in range(1, g + 1))


def expected_morita_f_jablow(g: int) -> tuple[int, ...]:
    return (-2,) * g + tuple(2 * k - 4 for k in range(1, g + 1))


def expected_psi_jablow(g: int) -> tuple[Fraction, ...]:
    q = Fraction(1, g - 1)
    return (q,) * g + tuple(-k * q for k in range(1, g + 1))


def expected_psi_composite(g: int) -> tuple[Fraction, ...]:
    q = Fraction(1, g - 1)
    return (q,) * g + tuple((g - 1 - k) * q for k in range(1, g + 1))


def _b_descending(group: FreeGroup) -> Word:
    w = group.identity()
    for ell in range(group.genus, 0, -1):
        w = w * group.b(ell)
    return w


# -- suites -----------------------------------------------------------------


def suite_words(genera, samples, seed) -> list[CheckResult]:
    rec = _Recorder()
    rng = random.Random(seed)
    for g in genera:
        group = FreeGroup(g)
        ok_laws = True
        ok_parse = True
        ok_cyc = True
        ok_conj = True
        detail = ""
        for _ in range(samples):
            x = random_word(group, rng.randint(0, 50), rng)
            y = random_word(group, rng.randint(0, 50), rng)
            z = random_word(group, rng.randint(0, 50), rng)
            if (x * y) * z != x * (y * z) or not (x * x.inverse()).is_identity():
                ok_laws = False
                detail = f"x={x} y={y} z={z}"
                break
            if group.word(str(x)) != x:
                ok_parse = False
                detail = f"x={x}"
                break
            core, prefix = x.cyclic_reduce()
            if prefix * core * prefix.inverse() != x:
                ok_cyc = False
                detail = f"x={x}"
                break
            if len(core) >= 2 and core.letters[0] == -core.letters[-1]:
                ok_cyc = False
                detail = f"core {core} not cyclically reduced"
                break
            u = random_word(group, rng.randint(0, 10), rng)
            w = random_word(group, rng.randint(0, 20), rng)
            found = conjugator(w.conjugated_by(u), w)
            if found is None or w.conjugated_by(found) != w.conjugated_by(u):
                ok_conj = False
                detail = f"u={u} w={w}"
                break
        rec.record(f"g={g} group laws and reduction", ok_laws, detail)
        rec.record(f"g={g} text round trip", ok_parse, detail)
        rec.record(f"g={g} cyclic reduction contract", ok_cyc, detail)
        rec.record(f"g={g} conjugator soundness", ok_conj, detail)
        rec.all_equal(
            f"g={g} zeta has 4g letters", len(group.zeta()), 4 * g
        )
        rec.record(
            f"g={g} conjugacy rejects shorter core",
            conjugator(group.a(1), group.zeta()) is None,
            "conjugator accepted words with different core lengths",
        )
    return rec.checks


def suite_d_function(genera, samples, seed) -> list[CheckResult]:
    rec = _Recorder()
    rng = random.Random(seed)
    rec.all_equal(
        "turning values on the three reference handle words",
        (
            d_two_gen((BETA, ALPHA, BETA, -ALPHA, -BETA, -ALPHA, -BETA)),
            d_two_gen((BETA, ALPHA, BETA, -ALPHA, -BETA, -BETA)),
            d_two_gen((BETA, ALPHA, -BETA, -ALPHA, -BETA)),
        ),
        (4, 2, -2),
    )
    rec.all_equal("normalization d(alpha beta) = 1", d_two_gen((ALPHA, BETA)), 1)
    for g in genera:
        group = FreeGroup(g)
        ok_prod = True
        ok_inv = True
        detail = ""
        for _ in range(samples):
            x = random_word(group, rng.randint(0, 50), rng)
            y = random_word(group, rng.randint(0, 50), rng)
            want = d(x) + d(y) + intersection(abelianize(x), abelianize(y))
            if d(x * y) != want:
                ok_prod = False
                detail = f"x={x} y={y}"
                break
            if d(x.inverse()) != -d(x):
                ok_inv = False
                detail = f"x={x}"
                break
        rec.record(f"g={g} product rule d(xy) = d(x) + d(y) + [x].[y]", ok_prod, detail)
        rec.record(f"g={g} inversion rule d(x^-1) = -d(x)", ok_inv, detail)
        rec.record(
            f"g={g} d vanishes on generators",
            all(d(gen) == 0 for gen in group.generators()),
            "nonzero d on a generator",
        )
    return rec.checks


def suite_cocycle_n(genera, samples, seed) -> list[CheckResult]:
    rec = _Recorder()
    rng = random.Random(seed)
    for g in genera:
        group = FreeGroup(g)
        ok_inner = True
        detail = ""
        for _ in range(samples):
            x = random_word(group, rng.randint(0, 50), rng)
            if f_tilde(inner(x)) != tuple(2 * v for v in abelianize(x)):
                ok_inner = False
                detail = f"x={x}"
                break
        rec.record(f"g={g} f_tilde on conjugations is 2[x]", ok_inner, detail)

        ok_id = True
        ok_lin = True
        ok_pair = True
        detail = ""
        pair_samples = max(1, samples // 4)
        for k in range(pair_samples):
            p1 = random_element(group, 4, seed=rng.randrange(1 << 30))
            p2 = random_element(group, 4, seed=rng.randrange(1 << 30))
            comp = compose(p1, p2)
            rho2_inv = induced_matrix(p2.backward)
            lhs = f_tilde(comp)
            rhs = tuple(
                a + b for a, b in zip(mat_vec(rho2_inv, f_tilde(p1)), f_tilde(p2))
            )
            if lhs != rhs:
                ok_id = False
                detail = f"pair #{k}"
                break
            x = random_word(group, rng.randint(0, 20), rng)
            y = random_word(group, rng.randint(0, 20), rng)
            if f_tilde_at(p1, x * y) != f_tilde_at(p1, x) + f_tilde_at(p1, y):
                ok_lin = False
                detail = f"pair #{k} x={x} y={y}"
                break
            if f_tilde_at(p1, x) != intersection(f_tilde(p1), abelianize(x)):
                ok_pair = False
                detail = f"pair #{k} x={x}"
                break
        rec.record(f"g={g} twisted cocycle identity for f_tilde", ok_id, detail)
        rec.record(f"g={g} f_tilde_at additive in the argument", ok_lin, detail)
        rec.record(f"g={g} f_tilde_at equals pairing with dual class", ok_pair, detail)

        rec.record(
            f"g={g} twist catalog fixes the boundary word",
            all(in_M_g1(t) for t in twist_catalog(group)),
            "catalog entry moved zeta",
        )
    return rec.checks


def suite_descent(genera, samples, seed) -> list[CheckResult]:
    rec = _Recorder()
    rng = random.Random(seed)
    for g in genera:
        group = FreeGroup(g)
        zeta = group.zeta()

        ok_restrict = True
        detail = ""
        for _ in range(samples):
            x = random_word(group, rng.randint(0, 30), rng)
            if morita_f(inner(x)) != tuple((2 - 2 * g) * v for v in abelianize(x)):
                ok_restrict = False
                detail = f"x={x}"
                break
        rec.record(
            f"g={g} restriction to conjugations is (2-2g)[x]", ok_restrict, detail
        )

        ok_witness = True
        ok_id = True
        ok_agree = True
        detail = ""
        pair_samples = max(1, samples // 4)
        for k in range(pair_samples):
            p1 = random_element(group, 4, seed=rng.randrange(1 << 30))
            p2 = random_element(group, 4, seed=rng.randrange(1 << 30))
            base = morita_f(p1)
            u = in_N(p1).conjugator
            for m in (-2, -1, 1, 2):
                if morita_f(p1, witness=u * zeta**m) != base:
                    ok_witness = False
                    detail = f"pair #{k} m={m}"
                    break
            comp = compose(p1, p2)
            rho2_inv = induced_matrix(p2.backward)
            rhs = tuple(
                a + b for a, b in zip(mat_vec(rho2_inv, base), morita_f(p2))
            )
            if morita_f(comp) != rhs:
                ok_id = False
                detail = f"pair #{k}"
            boundary_fixing = compose(inner(u.inverse()), p1)
            if morita_f(boundary_fixing) != f_tilde(boundary_fixing):
                ok_agree = False
                detail = f"pair #{k}"
        rec.record(f"g={g} value independent of witness choice", ok_witness, detail)
        rec.record(f"g={g} twisted cocycle identity for f", ok_id, detail)
        rec.record(
            f"g={g} agrees with f_tilde on boundary-fixing elements", ok_agree, detail
        )

        rec.record(
            f"g={g} vanishes on conjugation by zeta",
            all(morita_f(inner(zeta**m)) == (0,) * (2 * g) for m in (-2, -1, 0, 1, 2)),
            "nonzero on a zeta power",
        )
    return rec.checks


def suite_earle(genera, samples, seed) -> list[CheckResult]:
    rec = _Recorder()
    rng = random.Random(seed)
    for g in genera:
        group = FreeGroup(g)

        ok_restrict = True
        detail = ""
        for _ in range(samples):
            x = random_word(group, rng.randint(0, 30), rng)
            if earle_psi(inner(x)) != tuple(Fraction(v) for v in abelianize(x)):
                ok_restrict = False
                detail = f"x={x}"
                break
        rec.record(f"g={g} restriction to conjugations is [x]", ok_restrict, detail)

        ok_id = True
        ok_den = True
        detail = ""
        pair_samples = max(1, samples // 4)
        for k in range(pair_samples):
            p1 = random_element(group, 4, seed=rng.randrange(1 << 30))
            p2 = random_element(group, 4, seed=rng.randrange(1 << 30))
            comp = compose(p1, p2)
            rho2_inv = induced_matrix(p2.backward)
            v1 = earle_psi(p1)
            moved = tuple(
                sum(Fraction(row[j]) * v1[j] for j in range(2 * g))
                for row in rho2_inv
            )
            rhs = tuple(a + b for a, b in zip(moved, earle_psi(p2)))
            if earle_psi(comp) != rhs:
                ok_id = False
                detail = f"pair #{k}"
                break
            try:
                over_canonical_denominator(earle_psi(comp), g)
            except ValueError:
                ok_den = False
                detail = f"pair #{k}"
                break
        rec.record(f"g={g} twisted cocycle identity for psi", ok_id, detail)
        rec.record(f"g={g} (2g-2) psi is integral", ok_den, detail)

        rec.record(
            f"g={g} psi is not the bare base point coboundary",
            earle_psi(jablow(group)) != coboundary_a0(jablow(group)),
            "the integral cocycle term dropped out",
        )
    return rec.checks


def suite_paper_vectors(genera, samples, seed) -> list[CheckResult]:
    rec = _Recorder()
    rec.all_equal(
        "turning values on the three reference handle words",
        (
            d_two_gen((BETA, ALPHA, BETA, -ALPHA, -BETA, -ALPHA, -BETA)),
            d_two_gen((BETA, ALPHA, BETA, -ALPHA, -BETA, -BETA)),
            d_two_gen((BETA, ALPHA, -BETA, -ALPHA, -BETA)),
        ),
        (4, 2, -2),
    )
    for g in genera:
        group = FreeGroup(g)
        io = jablow(group)
        rec.record(
            f"g={g} involution squares to the identity",
            all(io(io(gen)) == gen for gen in group.generators()),
            "square is not the identity",
        )
        rec.all_equal(
            f"g={g} involution negates homology",
            induced_matrix(io),
            tuple(
                tuple(-1 if i == j else 0 for j in range(2 * g))
                for i in range(2 * g)
            ),
        )
        xb = _b_descending(group)
        u = in_N(io).conjugator
        rec.record(
            f"g={g} boundary witness is B_g..B_1 up to a zeta power",
            zeta_power_exponent(xb.inverse() * u) is not None,
            f"witness {u}",
        )
        rec.all_equal(
            f"g={g} f_tilde on the involution", f_tilde(io), expected_f_tilde_jablow(g)
        )
        comp = compose(inner(xb.inverse()), io)
        rec.all_equal(
            f"g={g} f_tilde on the composite with inner B_g..B_1 inverse",
            f_tilde(comp),
            expected_f_tilde_composite(g),
        )
        rec.all_equal(
            f"g={g} integral cocycle on the involution",
            morita_f(io),
            expected_morita_f_jablow(g),
        )
        rec.all_equal(
            f"g={g} rational cocycle on the involution",
            earle_psi(io),
            expected_psi_jablow(g),
        )
        rec.all_equal(
            f"g={g} rational cocycle on the composite",
            earle_psi(comp),
            expected_psi_composite(g),
        )
        rec.all_equal(
            f"g={g} base point shift on the involution",
            coboundary_a0(io),
            tuple(-2 * q for q in a0(g)),
        )
    return rec.checks


SUITES = {
    "words": suite_words,
    "d-function": suite_d_function,
    "cocycle-n": suite_cocycle_n,
    "descent": suite_descent,
    "earle": suite_earle,
    "paper-vectors": suite_paper_vectors,
}

SUITE_ORDER = tuple(SUITES)


def run_suite(name: str, genera, samples: int, seed: int) -> list[CheckResult]:
    """Run one named suite, or all of them in a fixed order."""
    genera = tuple(genera)
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
