"""Independent oracles for the benchmark's outputs.

Nothing here imports ``mcgcocycles``.  Words are plain tuples of signed
letter codes in the package's encoding (``+i`` is A_i, ``+(g+i)`` is
B_i, negation is inversion) or word text (``A3``, ``b2``, ``1``).
Matrices are lists of integer rows acting on column vectors, so column
j of rho(phi) is the exponent-sum vector of phi's image of generator j.

Two identities carry every check:

* the twisted cocycle rule ``c(phi1 phi2) = rho(phi2)^-1 c(phi1) + c(phi2)``
  for ``phi1 phi2 = x -> phi1(phi2(x))``;
* ``f = f_tilde - 2g rho^-1 [u]`` and
  ``psi = -(1/(2g-2)) f + (rho^-1 a0 - a0)``.

``rho^-1`` is always taken from inverse images or from closed forms,
never from a matrix inversion, so a broken inverse in the package cannot
confirm itself.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Optional, Sequence

_TOKEN_RE = re.compile(r"([ABab])([1-9][0-9]*)\Z")


# -- words and matrices --------------------------------------------------


def parse_word(text: str, genus: int) -> tuple[int, ...]:
    """Letter codes of word text, without reduction."""
    codes = []
    for token in text.split():
        if token == "1":
            continue
        m = _TOKEN_RE.match(token)
        if m is None:
            raise ValueError(f"bad token {token!r}")
        index = int(m.group(2))
        if not 1 <= index <= genus:
            raise ValueError(f"index out of range in {token!r}")
        code = index if m.group(1) in "Aa" else genus + index
        codes.append(code if m.group(1).isupper() else -code)
    return tuple(codes)


def format_word(letters: Sequence[int], genus: int) -> str:
    """Word text of letter codes; ``1`` for the empty word."""
    if not letters:
        return "1"
    names = {}
    for i in range(1, genus + 1):
        names.update({i: f"A{i}", -i: f"a{i}", genus + i: f"B{i}", -genus - i: f"b{i}"})
    return " ".join(names[c] for c in letters)


def exponent_sums(letters: Sequence[int], genus: int) -> list[int]:
    out = [0] * (2 * genus)
    for c in letters:
        out[abs(c) - 1] += 1 if c > 0 else -1
    return out


def matrix_of_images(images: Sequence[Sequence[int]], genus: int) -> list[list[int]]:
    """rho of the endomorphism with these generator images (letter codes)."""
    cols = [exponent_sums(im, genus) for im in images]
    n = 2 * genus
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def mat_vec(m, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in m]


def a0(genus: int) -> list[Fraction]:
    q = Fraction(1, genus - 1)
    return [Fraction(0)] * genus + [q] * genus


def psi_from_f(f: Sequence[int], rho_inv, genus: int) -> list[Fraction]:
    """Earle's psi from Morita's f and rho^-1."""
    base = a0(genus)
    moved = mat_vec(rho_inv, base)
    scale = Fraction(-1, 2 * genus - 2)
    return [scale * f[k] + moved[k] - base[k] for k in range(2 * genus)]


def cocycle_step(c1, c2, rho2_inv):
    """c(phi1 phi2) from c(phi1), c(phi2) and rho(phi2)^-1."""
    return [a + b for a, b in zip(mat_vec(rho2_inv, c1), c2)]


# -- closed forms for the building blocks of the image documents -----------


def factor_values(kind: str, genus: int, handle: int = 0, sign: int = 1,
                  word: Sequence[int] = ()) -> dict:
    """rho, rho^-1, f and psi of one factor, from closed forms.

    kinds: ``twist-A`` / ``twist-B`` (A_k -> A_k B_k^s, resp.
    B_k -> B_k A_k^s), ``jablow`` (the involution) and ``inner``
    (conjugation by ``word``).
    """
    g, n = genus, 2 * genus
    rho, rho_inv, f = identity(n), identity(n), [0] * n
    if kind in ("twist-A", "twist-B"):
        a, b = handle - 1, g + handle - 1
        moved, other = (a, b) if kind == "twist-A" else (b, a)
        rho[other][moved] = sign
        rho_inv[other][moved] = -sign
        f[other] = -sign
    elif kind == "jablow":
        rho = [[-x for x in row] for row in rho]
        rho_inv = [[-x for x in row] for row in rho_inv]
        f = [-2] * g + [2 * k - 4 for k in range(1, g + 1)]
    elif kind == "inner":
        f = [(2 - 2 * g) * v for v in exponent_sums(word, g)]
    else:
        raise ValueError(f"unknown factor kind {kind!r}")
    return {"rho": rho, "rho_inv": rho_inv, "f": f, "psi": psi_from_f(f, rho_inv, g)}


def fold(factors: Sequence[dict], genus: int) -> dict:
    """Values of the product factors[0] factors[1] ... (rightmost acts first)."""
    acc = dict(factors[0])
    for nxt in factors[1:]:
        acc = {
            "rho": mat_mul(acc["rho"], nxt["rho"]),
            "rho_inv": mat_mul(nxt["rho_inv"], acc["rho_inv"]),
            "f": cocycle_step(acc["f"], nxt["f"], nxt["rho_inv"]),
            "psi": cocycle_step(acc["psi"], nxt["psi"], nxt["rho_inv"]),
        }
    return acc


# -- checks; each returns None when the output is right, else a reason ------


def check_eval_output(rc: int, stdout: str, expected: dict, genus: int,
                      certified: bool) -> Optional[str]:
    """An ``eval --format structured`` document against folded values."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(stdout)
        res = doc["results"]
        u = parse_word(doc["witness"], genus)
        f_tilde = res["morita_f_tilde"]
        f = res["morita_f"]
        psi = [Fraction(t) for t in res["earle_psi"]["lowest_terms"]]
        nums = res["earle_psi"]["numerators"]
        den = res["earle_psi"]["denominator"]
        rho = res["rho"]["entries_row_major"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if doc.get("genus") != genus or doc.get("certified_automorphism") is not certified:
        return "wrong genus or certification flag"
    n = 2 * genus
    if rho != [x for row in expected["rho"] for x in row]:
        return "rho differs from the product of the factors' matrices"
    if f != expected["f"]:
        return "morita_f differs from the folded factor values"
    if psi != expected["psi"]:
        return "earle_psi differs from the folded factor values"
    if den != 2 * genus - 2 or [Fraction(x, den) for x in nums] != psi:
        return "earle_psi numerators disagree with its lowest terms"
    corr = mat_vec(expected["rho_inv"], exponent_sums(u, genus))
    if f_tilde != [f[k] + 2 * genus * corr[k] for k in range(n)]:
        return "f_tilde != f + 2g rho^-1 [u] for the reported witness u"
    return None


def check_pair_values(values: dict, rho1_inv, rho2_inv, genus: int) -> Optional[str]:
    """The twisted cocycle identities on (p1, p2, p1 p2).

    ``values[name][elem]`` for name in f_tilde, morita_f, earle_psi and
    elem in p1, p2, comp.  Also ties psi to f through rho^-1.
    """
    rho_comp_inv = mat_mul(rho2_inv, rho1_inv)
    for name in ("f_tilde", "morita_f", "earle_psi"):
        v = values[name]
        if list(v["comp"]) != cocycle_step(v["p1"], v["p2"], rho2_inv):
            return f"twisted cocycle identity fails for {name}"
    for elem, rho_inv in (("p1", rho1_inv), ("p2", rho2_inv), ("comp", rho_comp_inv)):
        want = psi_from_f(values["morita_f"][elem], rho_inv, genus)
        if list(values["earle_psi"][elem]) != want:
            return f"earle_psi != -f/(2g-2) + rho^-1 a0 - a0 on {elem}"
    return None


_SUMMARY_RE = re.compile(r"^(\d+)/(\d+) checks passed", re.MULTILINE)


def check_verify_output(rc: int, stdout: str, want_checks: int) -> Optional[str]:
    """A ``verify`` run passed and ran the suite's known number of checks."""
    if rc != 0:
        return f"exit code {rc}"
    m = _SUMMARY_RE.search(stdout)
    if m is None:
        return "no summary line"
    passed, total = int(m.group(1)), int(m.group(2))
    if passed != total or total != want_checks:
        return f"{passed}/{total} checks passed, want {want_checks}/{want_checks}"
    return None
