"""Acceptance gate: the ten contract-level checks, one test per criterion.

Every run ends with one ACCEPTANCE PASS/FAIL line per criterion in the
terminal summary (see conftest.py). All comparisons are exact; there are
no tolerances anywhere. The checks, samplers and runner are the ones
``verify`` runs; each criterion keeps its own seed, sample count and
draw order.
"""

import random
from functools import partial

from mcgcocycles import FreeGroup, earle_psi, f_tilde, morita_f, psi_numerators
from mcgcocycles import verify
from mcgcocycles.verify import Sample, failures, run_checks, sampler


def _on_paper_elements(checks):
    """The failures of checks on the paper's fixed elements at genus 2..6."""
    return failures(run_checks(checks, [Sample(FreeGroup(g)) for g in range(2, 7)]))


def test_criterion_01_turning_reference_values(report_criterion):
    failed = failures(run_checks({"d": verify.turning_values}, [verify.REFERENCE_TURNING]))
    report_criterion(1, "turning function reference values (4, 2, -2)", failed)


def test_criterion_02_f_tilde_on_the_involution(report_criterion):
    failed = _on_paper_elements({"f-tilde": verify.f_tilde_on_involution})
    report_criterion(2, "f-tilde of the involution for genus 2..6", failed)


def test_criterion_03_f_tilde_on_the_inner_composite(report_criterion):
    failed = _on_paper_elements({"f-tilde": verify.f_tilde_on_composite})
    report_criterion(3, "f-tilde of inner(B_g..B_1 inverse) composed with the involution", failed)


def test_criterion_04_earle_psi_on_the_involution(report_criterion):
    failed = _on_paper_elements({"earle-psi": verify.psi_on_involution})
    report_criterion(4, "earle psi of the involution equals (1,..,1,-1,-2,..,-g)/(g-1)", failed)


def test_criterion_05_earle_psi_on_the_inner_composite(report_criterion):
    failed = _on_paper_elements({"earle-psi": verify.psi_on_composite})
    report_criterion(5, "earle psi of the composite equals (1,..,1,g-2,..,-1)/(g-1)", failed)


def test_criterion_06_f_tilde_on_conjugations(report_criterion):
    rng = random.Random(2024_06)
    draw = sampler(x=50)
    samples = (draw(FreeGroup(g), rng) for g in range(2, 6) for _ in range(200))
    checks = {"2[x]": lambda s: verify.on_conjugation(f_tilde, 2, s.x)}
    failed = failures(run_checks(checks, samples))
    report_criterion(6, "f-tilde on 200 random conjugations per genus is 2[x]", failed)


def test_criterion_07_turning_product_rule(report_criterion):
    rng = random.Random(2024_07)
    draw = sampler(x=50, y=50)
    samples = (draw(FreeGroup(rng.randint(2, 5)), rng) for _ in range(1000))
    failed = failures(run_checks({"product rule": verify.d_product_rule}, samples))
    report_criterion(7, "d(xy) = d(x) + d(y) + [x].[y] on 1000 random pairs", failed)


def test_criterion_08_twisted_cocycle_identities(report_criterion):
    rng = random.Random(2024_08)
    draw = sampler(elements=2)
    samples = (draw(FreeGroup(g), rng) for g in range(2, 6) for _ in range(200))
    cocycles = {"f-tilde": f_tilde, "morita-f": morita_f, "earle-psi": earle_psi}
    checks = {name: partial(verify.cocycle_rule, c) for name, c in cocycles.items()}
    report_criterion(
        8,
        "twisted cocycle identity for f-tilde, morita f, earle psi "
        "on 200 random pairs per genus",
        failures(run_checks(checks, samples)),
    )


def test_criterion_09_restrictions_to_conjugations(report_criterion):
    rng = random.Random(2024_09)
    draw = sampler(x=40)
    samples = (draw(FreeGroup(g), rng) for g in range(2, 6) for _ in range(200))
    checks = {
        "morita-f": lambda s: verify.on_conjugation(morita_f, 2 - 2 * s.group.genus, s.x),
        "earle-psi": lambda s: verify.on_conjugation(psi_numerators, 2 * s.group.genus - 2, s.x),
    }
    report_criterion(
        9,
        "morita f is (2-2g)[x] and earle psi is [x] on 200 random "
        "conjugations per genus",
        failures(run_checks(checks, samples)),
    )


def test_criterion_10_involution_and_witness_stability(report_criterion):
    rng = random.Random(2024_10)
    shifts = (-2, -1, 0, 1, 2)
    failed = _on_paper_elements({
        "square": verify.involution_squares,
        "witness": verify.boundary_witness,
        "witness shift": verify.witness_free("io", shifts),
    })
    # witness shifts on random elements as well
    draw = sampler(elements=1)
    samples = (draw(FreeGroup(3), rng) for _ in range(20))
    failed += failures(run_checks({"random shift": verify.witness_free("p1", shifts)}, samples))
    report_criterion(
        10,
        "involution squares to one, boundary witness is B_g..B_1 up to "
        "zeta powers, and witness shifts leave morita f unchanged",
        failed,
    )
