"""Earle's rational twisted cocycle and its values on the involution.

Run:  python demos/04_earle_cocycle.py
"""

from fractions import Fraction

from mcgcocycles import (
    FreeGroup,
    a0,
    abelianize,
    coboundary_a0,
    compose,
    earle_psi,
    inner,
    jablow,
    psi_numerators,
    random_word,
)

print("Earle's cocycle is -(1/(2g-2)) f plus the coboundary of the")
print("base point vector a0 = (0,..,0, 1/(g-1),..,1/(g-1)).\n")

for g in (2, 3):
    print(f"  a0 at genus {g}: {tuple(str(q) for q in a0(g))}")

print("\nValues on the involution, genus 2 through 6:")
for g in range(2, 7):
    F = FreeGroup(g)
    io = jablow(F)
    pretty = ", ".join(str(q) for q in earle_psi(io))
    print(f"  g={g}:  ({pretty})  =  {psi_numerators(io)} / {2 * g - 2}")

print("\nThe same values against the closed form (1,..,1,-1,-2,..,-g)/(g-1):")
for g in range(2, 7):
    q = Fraction(1, g - 1)
    want = (q,) * g + tuple(-k * q for k in range(1, g + 1))
    got = earle_psi(jablow(FreeGroup(g)))
    print(f"  g={g}: match = {got == want}")

print("\nComposing with inner((B_g..B_1)^-1) shifts by the witness class:")
for g in (2, 3, 4):
    F = FreeGroup(g)
    xb = F.identity()
    for ell in range(g, 0, -1):
        xb = xb * F.b(ell)
    comp = compose(inner(xb.inverse()), jablow(F))
    print(f"  g={g}: psi = ({', '.join(str(q) for q in earle_psi(comp))})")

F = FreeGroup(3)
import random
x = random_word(F, 9, random.Random(5))
print(f"\nOn a conjugation psi returns the homology class itself:")
print(f"  x = {x}, [x] = {abelianize(x)}")
print(f"  psi(inner x) = ({', '.join(str(q) for q in earle_psi(inner(x)))})")

io = jablow(F)
print(f"\nAnd the base point coboundary alone would miss the integral part:")
print(f"  delta a0 (involution) = ({', '.join(str(q) for q in coboundary_a0(io))})")
print(f"  psi (involution)      = ({', '.join(str(q) for q in earle_psi(io))})")
