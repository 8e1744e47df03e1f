"""Morita's integral twisted cocycle, from the turning function up.

Run:  python demos/03_morita_cocycle.py
"""

from mcgcocycles import (
    FreeGroup,
    abelianize,
    compose,
    d,
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
)

print("Stage 1: the turning function d on one handle.")
H = FreeGroup(2)
print(f"  d(A1 B1) = {d(H.word('A1 B1'))}, the normalization")
print("  the words the involution's images project to on a handle:")
for text in ("B1 A1 B1 a1 b1 a1 b1", "B1 A1 B1 a1 b1 b1", "B1 A1 b1 a1 b1"):
    print(f"  d({text}) = {d(H.word(text))}")

F = FreeGroup(3)
import random
rng = random.Random(0)
x = random_word(F, 14, rng)
y = random_word(F, 14, rng)
print(f"\nStage 2: d on the full group obeys the product rule.")
print(f"  x = {x}")
print(f"  y = {y}")
print(f"  d(xy) = {d(x * y)}")
print(f"  d(x) + d(y) + [x].[y] = {d(x)} + {d(y)} + "
      f"{intersection(abelianize(x), abelianize(y))}")

print(f"\nStage 3: the coboundary of d is a homology class.")
io = jablow(F)
print(f"  f_tilde(involution) at genus 3: {f_tilde(io)}")
print(f"  on a conjugation it doubles the class: "
      f"f_tilde(inner A1 B2) = {f_tilde(inner(F.word('A1 B2')))}")

print(f"\nDescent: remove the inner part using the boundary witness.")
witness = in_N(io).conjugator
print(f"  the involution conjugates zeta by u = {witness}")
print(f"  f(involution) = f_tilde - 2g rho^-1[u] = {morita_f(io)}")
print(f"  on conjugations f is (2 - 2g)[x]: "
      f"f(inner A1) = {morita_f(inner(F.a(1)))}")

p1 = random_element(F, 4, seed=7)
p2 = random_element(F, 4, seed=8)
comp = compose(p1, p2)
rho2_inv = induced_matrix(p2.backward)
lhs = morita_f(comp)
rhs = tuple(a + b for a, b in zip(mat_vec(rho2_inv, morita_f(p1)), morita_f(p2)))
print(f"\nTwisted cocycle identity on a random pair:")
print(f"  f(p1 p2)                      = {lhs}")
print(f"  rho(p2)^-1 f(p1) + f(p2)      = {rhs}")
