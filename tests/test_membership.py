"""The membership record that ``in_N`` caches on an element.

Its ``rho`` and ``f_tilde`` come from one walk per image and are checked
against ``induced_matrix`` and ``d``; the evaluation path must not walk
an image a second time, and an evaluated element must not be left as
cyclic garbage.  The handle-mixing elements check ``rho^-1`` where a
rho^-1 that is right only within handles fails.
"""

import contextlib
import gc
import io
import json
import random
import sys
from functools import partial

import pytest

import matrix_oracle
from sample_elements import handle_mixing, twist_chain
from mcgcocycles import (
    Endo,
    FreeGroup,
    abelianize,
    compose,
    d,
    dual,
    earle_psi,
    f_tilde,
    homology,
    in_N,
    induced_matrix,
    inner,
    mat_vec,
    morita_f,
    random_element,
    save_automorphism,
    symplectic_inverse,
)
from mcgcocycles import verify
from mcgcocycles.cli import main
from mcgcocycles.freegroup import d_and_class
from mcgcocycles.verify import Sample, failures, run_checks


def _long_chains():
    return [twist_chain(FreeGroup(3), 2, 20_000), twist_chain(FreeGroup(5), 5, 5_000)]


def _random_elements():
    return [random_element(FreeGroup(g), 6, seed=seed) for g in range(2, 7) for seed in range(8)]


@pytest.mark.parametrize("pool", [_random_elements, _long_chains, handle_mixing])
def test_record_matches_induced_matrix_and_d(pool):
    for phi in pool():
        member = in_N(phi)
        assert member.rho == induced_matrix(phi)
        assert member.f_tilde == dual(tuple(d(im) for im in phi.images))
        for im in phi.images:
            assert d_and_class(im) == (d(im), abelianize(im))


def _composite(F, read_backward):
    phi = compose(random_element(F, 6, seed=11), inner(F.word("A1 b2")))
    if read_backward:
        phi.backward
    return phi


def test_evaluated_element_leaves_no_cyclic_garbage():
    F = FreeGroup(3)
    images = random_element(F, 6, seed=11).images
    gc.collect()
    gc.disable()
    try:
        # each element is built here, so that nothing else holds it
        builds = (lambda: Endo(F, images), lambda: random_element(F, 6, seed=11),
                  partial(_composite, F, False), partial(_composite, F, True))
        for build in builds:
            phi = build()
            member = in_N(phi)
            values = (member.rho, member.rho_inv, f_tilde(phi), morita_f(phi), earle_psi(phi))
            del phi, member, values
            assert gc.collect() == 0
    finally:
        gc.enable()


def _record_calls(monkeypatch, fn, calls):
    """Rebind ``fn`` in every package module to a wrapper that logs its argument."""

    def logged(arg):
        calls.append(arg)
        return fn(arg)

    for name, module in list(sys.modules.items()):
        if name == "mcgcocycles" or name.startswith("mcgcocycles."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, logged)


def test_eval_walks_each_image_once(monkeypatch, tmp_path):
    F = FreeGroup(4)
    phi = Endo(F, twist_chain(F, 2, 20_000).images)
    assert max(map(len, phi.images)) >= 20_000
    path = tmp_path / "chain.json"
    save_automorphism(phi, str(path))
    matrices, classes = [], []
    _record_calls(monkeypatch, homology.induced_matrix, matrices)
    _record_calls(monkeypatch, homology.abelianize, classes)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["eval", "--in", str(path), "--format", "structured"]) == 0
    assert matrices == []
    # only the witness is abelianized, once, for the morita_f correction
    doc = json.loads(out.getvalue())
    assert classes == [F.word(doc["witness"])]
    assert doc["results"]["morita_f_tilde"] == list(dual(tuple(d(im) for im in phi.images)))


def test_morita_f_is_computed_once_per_element(monkeypatch):
    F = FreeGroup(3)
    phi = random_element(F, 6, seed=3)
    classes = []
    _record_calls(monkeypatch, homology.abelianize, classes)
    f = morita_f(phi)
    assert morita_f(phi) is f is in_N(phi).f
    earle_psi(phi)
    assert len(classes) == 1
    # another witness u zeta gives the same value: rho (f - f_tilde) = -2g [u zeta],
    # whose class here is the one further abelianization
    member = in_N(phi)
    moved = mat_vec(member.rho, tuple(a - b for a, b in zip(f, member.f_tilde)))
    assert moved == tuple(-F.rank * c for c in homology.abelianize(member.conjugator * F.zeta()))
    assert len(classes) == 2


def test_verify_pair_family_builds_one_record_per_element(monkeypatch):
    """The earle pair checks share one record each for p1, p2 and comp."""
    walks = []
    _record_calls(monkeypatch, d_and_class, walks)
    family, group, rng = verify.SUITES["earle"].families[1], FreeGroup(3), random.Random(0)
    samples = 4
    results = run_checks(family.checks, [family.draw(group, rng) for _ in range(samples)])
    assert [r.passed for r in results] == [True, True]
    assert len(walks) == 3 * group.rank * samples


def test_handle_mixing_rho_inverse_three_ways():
    for phi in handle_mixing():
        rho = in_N(phi).rho
        assert rho == induced_matrix(phi)
        assert in_N(phi).rho_inv == symplectic_inverse(rho) == induced_matrix(phi.backward)
        assert symplectic_inverse(rho) == matrix_oracle.invert_unimodular(rho)


def _pairs(phi, seeds):
    """The element against random elements, on either side of the product."""
    for seed in seeds:
        for side in ("p1", "p2"):
            sample = Sample(phi.group, (seed, seed))
            setattr(sample, side, phi)
            yield sample


def test_cocycle_rules_on_handle_mixing_pairs():
    rng = random.Random(2024_11)
    cocycles = {"f-tilde": f_tilde, "morita-f": morita_f, "earle-psi": earle_psi}
    checks = {name: partial(verify.cocycle_rule, c) for name, c in cocycles.items()}
    for phi in handle_mixing():
        seeds = [rng.randrange(1 << 30) for _ in range(6)]
        assert not failures(run_checks(checks, _pairs(phi, seeds)))
