"""Acceptance gate: the ten contract-level checks, one test per criterion.

Every run ends with one ACCEPTANCE PASS/FAIL line per criterion in the
terminal summary (see conftest.py). All comparisons are exact; there are
no tolerances anywhere.
"""

import random
from fractions import Fraction

from mcgcocycles import (
    ALPHA,
    BETA,
    FreeGroup,
    abelianize,
    compose,
    d,
    d_two_gen,
    earle_psi,
    f_tilde,
    in_N,
    induced_matrix,
    inner,
    intersection,
    jablow,
    mat_vec,
    morita_f,
    random_element,
    random_word,
    zeta_power_exponent,
)

A, B = ALPHA, BETA


def _descending_b(group: FreeGroup):
    w = group.identity()
    for ell in range(group.genus, 0, -1):
        w = w * group.b(ell)
    return w


def _rational_mat_vec(m, v):
    return tuple(
        sum(Fraction(row[j]) * v[j] for j in range(len(v))) for row in m
    )


def test_criterion_01_turning_reference_values(report_criterion):
    got = (
        d_two_gen((B, A, B, -A, -B, -A, -B)),
        d_two_gen((B, A, B, -A, -B, -B)),
        d_two_gen((B, A, -B, -A, -B)),
    )
    failures = [] if got == (4, 2, -2) else [got]
    report_criterion(1, "turning function reference values (4, 2, -2)", failures)


def test_criterion_02_f_tilde_on_the_involution(report_criterion):
    failures = []
    for g in range(2, 7):
        got = f_tilde(jablow(FreeGroup(g)))
        want = (-2,) * g + tuple(2 * k - 2 * g - 4 for k in range(1, g + 1))
        if got != want:
            failures.append((g, got, want))
    report_criterion(2, "f-tilde of the involution for genus 2..6", failures)


def test_criterion_03_f_tilde_on_the_inner_composite(report_criterion):
    failures = []
    for g in range(2, 7):
        F = FreeGroup(g)
        comp = compose(inner(_descending_b(F).inverse()), jablow(F))
        got = f_tilde(comp)
        want = (-2,) * g + tuple(2 * k - 2 * g - 2 for k in range(1, g + 1))
        if got != want:
            failures.append((g, got, want))
    report_criterion(3, "f-tilde of inner(B_g..B_1 inverse) composed with the involution", failures)


def test_criterion_04_earle_psi_on_the_involution(report_criterion):
    failures = []
    for g in range(2, 7):
        got = earle_psi(jablow(FreeGroup(g)))
        q = Fraction(1, g - 1)
        want = (q,) * g + tuple(-k * q for k in range(1, g + 1))
        if got != want:
            failures.append((g, got, want))
    report_criterion(4, "earle psi of the involution equals (1,..,1,-1,-2,..,-g)/(g-1)", failures)


def test_criterion_05_earle_psi_on_the_inner_composite(report_criterion):
    failures = []
    for g in range(2, 7):
        F = FreeGroup(g)
        comp = compose(inner(_descending_b(F).inverse()), jablow(F))
        got = earle_psi(comp)
        q = Fraction(1, g - 1)
        want = (q,) * g + tuple((g - 1 - k) * q for k in range(1, g + 1))
        if got != want:
            failures.append((g, got, want))
    report_criterion(5, "earle psi of the composite equals (1,..,1,g-2,..,-1)/(g-1)", failures)


def test_criterion_06_f_tilde_on_conjugations(report_criterion):
    failures = []
    rng = random.Random(2024_06)
    for g in range(2, 6):
        F = FreeGroup(g)
        for _ in range(200):
            x = random_word(F, rng.randint(0, 50), rng)
            got = f_tilde(inner(x))
            want = tuple(2 * v for v in abelianize(x))
            if got != want:
                failures.append((g, str(x), got, want))
    report_criterion(6, "f-tilde on 200 random conjugations per genus is 2[x]", failures)


def test_criterion_07_turning_product_rule(report_criterion):
    failures = []
    rng = random.Random(2024_07)
    for _ in range(1000):
        F = FreeGroup(rng.randint(2, 5))
        x = random_word(F, rng.randint(0, 50), rng)
        y = random_word(F, rng.randint(0, 50), rng)
        want = d(x) + d(y) + intersection(abelianize(x), abelianize(y))
        if d(x * y) != want:
            failures.append((F.genus, str(x), str(y)))
    report_criterion(7, "d(xy) = d(x) + d(y) + [x].[y] on 1000 random pairs", failures)


def test_criterion_08_twisted_cocycle_identities(report_criterion):
    failures = []
    rng = random.Random(2024_08)
    for g in range(2, 6):
        F = FreeGroup(g)
        n = 2 * g
        for k in range(200):
            p1 = random_element(F, 4, seed=rng.randrange(1 << 30))
            p2 = random_element(F, 4, seed=rng.randrange(1 << 30))
            comp = compose(p1, p2)
            rho2_inv = induced_matrix(p2.backward)
            for name, fn in (("f-tilde", f_tilde), ("morita-f", morita_f)):
                want = tuple(
                    a + b for a, b in zip(mat_vec(rho2_inv, fn(p1)), fn(p2))
                )
                if fn(comp) != want:
                    failures.append((g, k, name))
            want_psi = tuple(
                a + b
                for a, b in zip(
                    _rational_mat_vec(rho2_inv, earle_psi(p1)), earle_psi(p2)
                )
            )
            if earle_psi(comp) != want_psi:
                failures.append((g, k, "earle-psi"))
    report_criterion(
        8,
        "twisted cocycle identity for f-tilde, morita f, earle psi "
        "on 200 random pairs per genus",
        failures,
    )


def test_criterion_09_restrictions_to_conjugations(report_criterion):
    failures = []
    rng = random.Random(2024_09)
    for g in range(2, 6):
        F = FreeGroup(g)
        for _ in range(200):
            x = random_word(F, rng.randint(0, 40), rng)
            theta = abelianize(x)
            if morita_f(inner(x)) != tuple((2 - 2 * g) * v for v in theta):
                failures.append((g, str(x), "morita-f"))
            if earle_psi(inner(x)) != tuple(Fraction(v) for v in theta):
                failures.append((g, str(x), "earle-psi"))
    report_criterion(
        9,
        "morita f is (2-2g)[x] and earle psi is [x] on 200 random "
        "conjugations per genus",
        failures,
    )


def test_criterion_10_involution_and_witness_stability(report_criterion):
    failures = []
    rng = random.Random(2024_10)
    for g in range(2, 7):
        F = FreeGroup(g)
        io = jablow(F)
        z = F.zeta()
        for gen in F.generators():
            if io(io(gen)) != gen:
                failures.append((g, "square", str(gen)))
        u = in_N(io).conjugator
        if zeta_power_exponent(_descending_b(F).inverse() * u) is None:
            failures.append((g, "witness", str(u)))
        base = morita_f(io)
        for m in (-2, -1, 0, 1, 2):
            if morita_f(io, witness=u * z**m) != base:
                failures.append((g, "witness shift", m))
    # witness shifts on random elements as well
    F = FreeGroup(3)
    z = F.zeta()
    for k in range(20):
        phi = random_element(F, 4, seed=rng.randrange(1 << 30))
        base = morita_f(phi)
        u = in_N(phi).conjugator
        for m in (-2, -1, 0, 1, 2):
            if morita_f(phi, witness=u * z**m) != base:
                failures.append((3, "random witness shift", (k, m)))
    report_criterion(
        10,
        "involution squares to one, boundary witness is B_g..B_1 up to "
        "zeta powers, and witness shifts leave morita f unchanged",
        failures,
    )
