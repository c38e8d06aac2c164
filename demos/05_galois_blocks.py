"""Finite block models of Galois images and the monodromy classification.

The Galois action on a torsion basis of a semi-abelian quotient is a block
matrix [[D, W], [0, I]] over Z/p^n.  Its derived subgroup is I*W, where I
is the ideal generated by {u - 1 : u a unit}: the whole unipotent block for
odd p (as in the cases below), 2W for p = 2.  That the derived subgroup lies
in the unipotent block is the group-theoretic reason the inertia action in
the ordinary case is unipotent.
"""

from monodromy_lab.monodromy import (
    AbelianPartDescriptor,
    UniformizationData,
    classify_monodromy,
    commutator_closure,
    elementary_generators,
    mulclose,
    unipotent_index,
    unipotent_subgroup,
)

for p, n, d in ((3, 1, 2), (3, 1, 4)):
    generators = elementary_generators(p, n, d)
    group = mulclose(generators)
    derived = commutator_closure(generators)
    unipotent = unipotent_subgroup(p, n, d)
    print("(p, n, d) = (%d, %d, %d)" % (p, n, d))
    print("  full block group order:", len(group))
    print("  derived subgroup order:", len(derived))
    print("  derived == unipotent block:", derived == frozenset(unipotent))
    print("  unipotent index (diagonal choices):", unipotent_index(p, n, d))

print("\nreduction-type classification:")
cases = (
    ("abelian surface, ordinary elliptic part",
     UniformizationData(1, AbelianPartDescriptor("elliptic", "ordinary"), 2)),
    ("abelian surface, supersingular elliptic part",
     UniformizationData(1, AbelianPartDescriptor("elliptic", "supersingular"), 2)),
    ("abelian surface, total degeneration",
     UniformizationData(2, None, 2)),
    ("dimension-8 quotient, ordinary product part",
     UniformizationData(4, AbelianPartDescriptor("product_of_elliptic", "ordinary", 4), 8)),
    ("dimension-8 quotient, supersingular product part",
     UniformizationData(4, AbelianPartDescriptor("product_of_elliptic", "supersingular", 4), 8)),
)
for label, data in cases:
    out = classify_monodromy(data)
    print("  %-48s -> %s" % (label, out.kind))
