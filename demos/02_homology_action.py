"""The symplectic action on first homology, in exact integer arithmetic.

Run:  python demos/02_homology_action.py
"""

from mcgcocycles import (
    FreeGroup,
    abelianize,
    compose,
    induced_matrix,
    intersection,
    is_symplectic,
    jablow,
    mat_mul,
    random_element,
    symplectic_inverse,
    twist_catalog,
)

F = FreeGroup(2)

w = F.word("A1 A1 b2 B1")
print(f"Abelianization sends a word to its exponent sums:")
print(f"  [{w}] = {abelianize(w)}   (basis A1 A2 B1 B2)")
print(f"  [zeta] = {abelianize(F.zeta())}")

print(f"\nThe intersection form pairs the basis symplectically:")
print(f"  [A1].[B1] = {intersection(abelianize(F.a(1)), abelianize(F.b(1)))}")
print(f"  [B1].[A1] = {intersection(abelianize(F.b(1)), abelianize(F.a(1)))}")

t = twist_catalog(F)[0]
print(f"\nA boundary-fixing twist A1 -> A1 B1 acts on homology by:")
for row in induced_matrix(t):
    print(f"  {row}")
print(f"  symplectic: {is_symplectic(induced_matrix(t))}")

io = jablow(F)
print(f"\nThe involution negates homology:")
for row in induced_matrix(io):
    print(f"  {row}")

phi = random_element(F, 5, seed=11)
psi = random_element(F, 5, seed=22)
lhs = induced_matrix(compose(phi, psi))
rhs = mat_mul(induced_matrix(phi), induced_matrix(psi))
print(f"\nThe matrix assignment is functorial on a random pair: {lhs == rhs}")

m = induced_matrix(phi)
inv = symplectic_inverse(m)
print(f"Symplectic inverse -J M^T J: M * M^-1 is the identity:",
      mat_mul(m, inv) == tuple(tuple(int(i == j) for j in range(4)) for i in range(4)))
print(f"  and it is the action of the inverse automorphism:",
      inv == induced_matrix(phi.backward))
try:
    # the shear A2 -> A1 + A2 has determinant 1 but is not symplectic
    symplectic_inverse(((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
except ValueError as exc:
    print(f"Non-symplectic input is rejected, not mis-inverted: {exc}")
