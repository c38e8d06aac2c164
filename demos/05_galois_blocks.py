"""Finite block models of Galois images and the monodromy classification.

The Galois action on a torsion basis of a semi-abelian quotient is a block
matrix [[D, W], [0, I]] over Z/p^n.  Its derived subgroup is I*W, where I
is the ideal generated by {u - 1 : u a unit}: the whole unipotent block for
odd p (as in the cases below), 2W for p = 2.  That the derived subgroup lies
in the unipotent block is the group-theoretic reason the inertia action in
the ordinary case is unipotent.

The orders come from module arithmetic over Z/p^n, without listing a single
element: the group order is the size of the diagonal image times the order
of the group's intersection with W, and the derived subgroup is a span of
commutators inside W, so it is the whole unipotent block exactly when the
orders agree.
"""

from monodromy_lab.monodromy import (
    AbelianPartDescriptor,
    UniformizationData,
    classify_monodromy,
    derived_span,
    elementary_generators,
    kernel_by_transversal,
    unipotent_index,
)

for p, n, d in ((3, 1, 2), (3, 1, 4)):
    generators = elementary_generators(p, n, d)
    diagonal_order, kernel = kernel_by_transversal(generators)
    derived = derived_span(generators)
    unipotent_order = (p ** n) ** ((d // 2) ** 2)
    print("(p, n, d) = (%d, %d, %d)" % (p, n, d))
    print("  full block group order:", diagonal_order * kernel.order)
    print("  derived subgroup order:", derived.order)
    print("  derived == unipotent block:", derived.order == unipotent_order)
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
