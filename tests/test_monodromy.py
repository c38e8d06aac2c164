import json
import random
from fractions import Fraction
from importlib import resources

import pytest

from monodromy_lab import ComputationError, FiniteField, PuiseuxSeries, monodromy, scenarios
from monodromy_lab.monodromy import (
    AbelianPartDescriptor,
    BlockGaloisElement,
    BlockSpan,
    FINITE_INDEX_INERTIA,
    TRIVIAL_IMAGE,
    UNIPOTENT_INERTIA,
    TateLattice,
    UniformizationData,
    classify_monodromy,
    commutator_closure,
    derived_span,
    elementary_generators,
    full_block_group,
    kernel_by_transversal,
    mulclose,
    tate_torsion_tower,
    unipotent_index,
    unipotent_subgroup,
    unit_difference_span,
)

F2 = FiniteField(2)
F3 = FiniteField(3)


def t(field, e=1, c=1):
    return PuiseuxSeries.t_power(field, Fraction(e), c)


# -- Tate towers ---------------------------------------------------------------


def test_tate_tower_rank_one():
    lattice = TateLattice(periods=(t(F2),), p=2)
    tower = tate_torsion_tower(lattice, 1)
    assert tower.separable_degree == 1
    assert tower.inseparable_degree == 2
    assert tower.generators[0] == t(F2, Fraction(1, 2))
    assert tower.galois_image == "trivial"


def test_tate_tower_level_zero_is_trivial():
    lattice = TateLattice(periods=(t(F2),), p=2)
    tower = tate_torsion_tower(lattice, 0)
    assert tower.inseparable_degree == 1
    assert tower.generators[0] == t(F2)


def test_tate_tower_rank_two_level_two():
    q2 = t(F2, 3) * PuiseuxSeries.from_terms(F2, {0: 1, 1: 1})  # t^3 (1+t)
    lattice = TateLattice(periods=(t(F2), q2), p=2)
    tower = tate_torsion_tower(lattice, 2)
    assert tower.inseparable_degree == 16
    for root, q in zip(tower.generators, lattice.periods):
        assert (root ** 4).agrees_with(q)


def test_tate_tower_degrees_sweep():
    cases = [
        (p, tuple(t(field, i + 1) for i in range(g)))
        for p, field in ((2, F2), (3, F3))
        for g in (1, 2)
    ]
    # p = 3 over the truncated period t^3 (1 + t) + O(t^64)
    q2 = t(F3, 3) * PuiseuxSeries.from_terms(F3, {0: 1, 1: 1})
    cases.append((3, (t(F3).truncate(64), q2.truncate(64))))
    for p, periods in cases:
        lattice = TateLattice(periods=periods, p=p)
        for n in range(4):
            tower = tate_torsion_tower(lattice, n)
            assert tower.separable_degree == 1
            assert tower.inseparable_degree == p ** (n * len(periods))
            assert tower.verify_generators(lattice)


def test_tate_lattice_rejects_bad_periods():
    with pytest.raises(ComputationError):
        TateLattice(periods=(PuiseuxSeries.one(F2),), p=2)  # valuation 0
    with pytest.raises(ComputationError):
        TateLattice(periods=(PuiseuxSeries.zero_at_precision(F2, 4),), p=2)


# -- block elements --------------------------------------------------------------


def test_block_identity():
    e = BlockGaloisElement.identity(3, 1, 2)
    a = BlockGaloisElement(3, 1, 2, (2,), ((1,),))
    assert a * e == a
    assert e * a == a


def test_block_product_block_shapes():
    # [[D,0],[0,I]] * [[I,W],[0,I]] = [[D, DW],[0,I]]
    d_only = BlockGaloisElement(3, 1, 4, (2, 2), ((0, 0), (0, 0)))
    w_only = BlockGaloisElement(3, 1, 4, (1, 1), ((1, 2), (0, 1)))
    prod = d_only * w_only
    assert prod.diag == (2, 2)
    assert prod.w == ((2, 4 % 3), (0, 2))


def test_block_square_example():
    a = BlockGaloisElement(3, 1, 2, (2,), ((1,),))
    sq = a * a
    assert sq.diag == (1,)
    assert sq.w == ((0,),)


def test_block_inverse():
    a = BlockGaloisElement(5, 2, 4, (2, 7), ((3, 1), (0, 4)))
    e = BlockGaloisElement.identity(5, 2, 4)
    assert a * a.inverse() == e
    assert a.inverse() * a == e


def test_from_matrix_roundtrip_and_rejection():
    a = BlockGaloisElement(3, 2, 4, (2, 4), ((1, 2), (3, 0)))
    again = BlockGaloisElement.from_matrix(3, 2, 4, a.matrix())
    assert again == a
    bad = a.matrix()
    bad[2][0] = 1  # break the lower-left zero block
    with pytest.raises(ComputationError):
        BlockGaloisElement.from_matrix(3, 2, 4, bad)
    with pytest.raises(ComputationError):
        BlockGaloisElement(3, 1, 2, (3,), ((0,),))  # 3 is not a unit mod 3


def test_modulus_mismatch():
    a = BlockGaloisElement.identity(3, 1, 2)
    b = BlockGaloisElement.identity(3, 2, 2)
    with pytest.raises(ComputationError):
        a * b


# -- commutator closure ------------------------------------------------------------


def test_full_group_order_p3_n1_d2():
    group = full_block_group(3, 1, 2)
    assert len(group) == 6
    assert len(mulclose(group)) == 6


def test_derived_subgroup_p3_n1_d2():
    group = full_block_group(3, 1, 2)
    derived = commutator_closure(group)
    assert len(derived) == 3
    assert derived == frozenset(unipotent_subgroup(3, 1, 2))


def test_derived_subgroup_abelian_generators_trivial():
    gens = [
        BlockGaloisElement(5, 1, 2, (2,), ((0,),)),
        BlockGaloisElement(5, 1, 2, (3,), ((0,),)),
    ]
    derived = commutator_closure(gens)
    assert derived == frozenset({BlockGaloisElement.identity(5, 1, 2)})


def test_derived_subgroup_single_generator_trivial():
    gen = BlockGaloisElement(3, 2, 4, (2, 5), ((1, 2), (3, 4)))
    derived = commutator_closure([gen])
    assert derived == frozenset({BlockGaloisElement.identity(3, 2, 4)})


def test_derived_subgroup_p3_n1_d4_is_full_unipotent():
    derived = commutator_closure(elementary_generators(3, 1, 4))
    assert derived == frozenset(unipotent_subgroup(3, 1, 4))
    assert len(derived) == 81


def test_derived_always_unipotent_randomised():
    rng = random.Random(17)
    for _ in range(20):
        p, n, d = rng.choice(((2, 1, 2), (3, 1, 2), (2, 2, 2), (3, 1, 4)))
        half = d // 2
        mod = p ** n
        units = [u for u in range(1, mod) if u % p]
        gens = []
        for _ in range(rng.randrange(1, 4)):
            diag = tuple(rng.choice(units) for _ in range(half))
            w = tuple(
                tuple(rng.randrange(mod) for _ in range(half)) for _ in range(half)
            )
            gens.append(BlockGaloisElement(p, n, d, diag, w))
        derived = commutator_closure(gens)
        assert all(x.is_unipotent for x in derived)


# -- elementary generators ---------------------------------------------------------

# (p, n, d) -> order of the derived subgroup I*W: all of W for odd p, 2W at p = 2
_DERIVED_ORDERS = {
    (2, 1, 2): 1,
    (2, 2, 2): 2,
    (2, 3, 2): 4,
    (2, 1, 4): 1,
    (3, 1, 2): 3,
    (3, 1, 4): 81,
    (5, 1, 2): 5,
}


@pytest.mark.parametrize("pnd", sorted(_DERIVED_ORDERS))
def test_elementary_generators_generate_the_full_group(pnd):
    gens = elementary_generators(*pnd)
    half = pnd[2] // 2
    phi = (pnd[0] - 1) * pnd[0] ** (pnd[1] - 1)
    assert len(gens) == half * (phi - 1) + half * half
    assert mulclose(gens) == frozenset(full_block_group(*pnd))


@pytest.mark.parametrize("pnd", sorted(_DERIVED_ORDERS))
def test_derived_order_from_elementary_generators(pnd):
    derived = commutator_closure(elementary_generators(*pnd))
    assert len(derived) == _DERIVED_ORDERS[pnd]


def test_commutator_closure_of_a_seed_that_is_not_normal():
    # [a, b] generates 5 elements; conjugating by a adds the rest of diagonal W
    a = BlockGaloisElement(5, 1, 4, (2, 3), ((0, 0), (0, 0)))
    b = BlockGaloisElement(5, 1, 4, (1, 1), ((1, 0), (0, 1)))
    assert len(mulclose([a.commutator(b)])) == 5
    derived = commutator_closure([a, b])
    assert len(derived) == 25
    assert derived == commutator_closure(list(mulclose([a, b])))


# -- module arithmetic against the enumeration oracles ------------------------------


def _module_orders(generators):
    diagonal_order, kernel = kernel_by_transversal(generators)
    derived = derived_span(generators)
    return diagonal_order * kernel.order, derived.order, derived.issubset(kernel)


def _oracle_orders(generators):
    group = mulclose(generators)
    derived = commutator_closure(generators)
    return len(group), len(derived), derived <= group


def test_block_span_keeps_the_howell_row():
    # over Z/4 the span of (2, 1, 0, 0) also holds 2 * (2, 1, 0, 0) = (0, 2, 0, 0)
    span = BlockSpan(2, 2, 2)
    assert span.add([2, 1, 0, 0])
    assert span.order == 4
    assert span.contains([0, 2, 0, 0])
    assert not span.contains([0, 1, 0, 0])
    assert not span.add([2, 3, 0, 0])


@pytest.mark.parametrize("pnd", sorted(_DERIVED_ORDERS))
def test_module_orders_match_the_oracles_on_elementary_generators(pnd):
    gens = elementary_generators(*pnd)
    orders = _module_orders(gens)
    assert orders == _oracle_orders(gens)
    assert orders[1] == _DERIVED_ORDERS[pnd]
    assert unit_difference_span(*pnd).order == _DERIVED_ORDERS[pnd]


def test_module_orders_match_the_oracles_on_a_seed_that_is_not_normal():
    a = BlockGaloisElement(5, 1, 4, (2, 3), ((0, 0), (0, 0)))
    b = BlockGaloisElement(5, 1, 4, (1, 1), ((1, 0), (0, 1)))
    assert _module_orders([a, b]) == _oracle_orders([a, b]) == (100, 25, True)
    assert _module_orders([b, a]) == (100, 25, True)


@pytest.mark.parametrize("pnd", [(2, 3, 2), (2, 2, 4), (3, 1, 4), (5, 1, 4), (3, 1, 6)])
def test_module_orders_match_the_oracles_on_seeded_generator_lists(pnd):
    p, n, d = pnd
    half = d // 2
    mod = p ** n
    units = [u for u in range(1, mod) if u % p]
    rng = random.Random(8119 + 100 * p + 10 * n + d)
    for _ in range(8):
        gens = []
        for _ in range(rng.randrange(2, 4)):
            diag = tuple(rng.choice(units) for _ in range(half))
            w = tuple(
                tuple(rng.randrange(mod) if rng.random() < 0.5 else 0 for _ in range(half))
                for _ in range(half)
            )
            gens.append(BlockGaloisElement(p, n, d, diag, w))
        assert _module_orders(gens) == _oracle_orders(gens), gens


def test_full_group_p3_n2_d4_by_module_arithmetic():
    gens = elementary_generators(3, 2, 4)
    diagonal_order, kernel = kernel_by_transversal(gens)
    assert diagonal_order * kernel.order == 236196
    assert derived_span(gens).order == 3 ** 8 == 6561


def test_derived_span_refuses_too_many_generator_pairs():
    # 4473^2 > 2 * 10^7 pairs, refused before any commutator is formed
    gens = [BlockGaloisElement(4481, 1, 2, (1,), ((k,),)) for k in range(4473)]
    with pytest.raises(ComputationError, match="too many generators for pairwise"):
        derived_span(gens)


def test_galois_scenarios_never_enumerate(monkeypatch):
    def refuse(*_args):
        raise AssertionError("a galois scenario listed group elements")

    for module in (monodromy, scenarios):
        for name in ("mulclose", "commutator_closure", "full_block_group", "unipotent_subgroup"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    shipped = resources.files("monodromy_lab") / "data" / "scenarios"
    docs = [
        json.loads((shipped / name).read_text())
        for name in ("galois_p3_n1_d2.json", "galois_p3_n1_d4.json")
    ]
    docs.append({
        "kind": "galois", "p": 5, "n": 1, "d": 4,
        "generators": [
            {"diag": [2, 3], "w": [[1, 4], [0, 2]]},
            {"diag": [1, 1], "w": [[1, 0], [3, 1]]},
        ],
    })
    for doc in docs:
        report = scenarios.run_scenario(doc)
        assert report.ok


# -- unipotent index -------------------------------------------------------------


def test_unipotent_index_examples():
    assert unipotent_index(3, 1, 2) == 2
    assert unipotent_index(2, 1, 2) == 1
    assert unipotent_index(3, 2, 4) == 36


def test_unipotent_index_matches_enumeration():
    for p, n, d in ((2, 1, 2), (3, 1, 2), (3, 1, 4), (2, 2, 2)):
        full = len(full_block_group(p, n, d))
        uni = len(unipotent_subgroup(p, n, d))
        assert full % uni == 0
        assert full // uni == unipotent_index(p, n, d)


def test_unipotent_index_rejects_odd_d():
    with pytest.raises(ComputationError):
        unipotent_index(3, 1, 3)


# -- classification ---------------------------------------------------------------


def test_classify_ordinary_semiabelian():
    data = UniformizationData(
        torus_rank=1,
        abelian_part=AbelianPartDescriptor("elliptic", "ordinary"),
        dimension=2,
    )
    out = classify_monodromy(data)
    assert out.kind == UNIPOTENT_INERTIA
    assert out.citation


def test_classify_supersingular_product():
    data = UniformizationData(
        torus_rank=4,
        abelian_part=AbelianPartDescriptor("product_of_elliptic", "supersingular", 4),
        dimension=8,
    )
    assert classify_monodromy(data).kind == FINITE_INDEX_INERTIA


def test_classify_total_degeneration():
    data = UniformizationData(torus_rank=2, abelian_part=None, dimension=2)
    assert classify_monodromy(data).kind == TRIVIAL_IMAGE


def test_classification_is_deterministic():
    data = UniformizationData(torus_rank=2, abelian_part=None, dimension=2)
    assert classify_monodromy(data) == classify_monodromy(data)


def test_uniformization_data_validation():
    with pytest.raises(ComputationError):
        UniformizationData(torus_rank=2, abelian_part=None, dimension=3)
    with pytest.raises(ComputationError):
        UniformizationData(
            torus_rank=2,
            abelian_part=AbelianPartDescriptor("elliptic", "ordinary"),
            dimension=2,
        )
    with pytest.raises(ComputationError):
        UniformizationData(
            torus_rank=1, abelian_part=None, dimension=1, lattice_rank=2
        )
