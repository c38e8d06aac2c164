"""Declarative scenarios: validation and dispatch.

A scenario is a JSON document with a ``kind`` discriminator; parameters are
validated against the kind's schema before any computation starts.  Rational
parameters are written as integers or "num/den" strings ("inf" where an
exact zero coefficient is meant).  Series literals are maps from exponent
strings to coefficients (an integer for prime fields, a coordinate list for
extension fields).
"""

from fractions import Fraction

from .clifford import (
    GramLattice,
    cocharacter_conjugation_check,
    filtration_type2,
    filtration_type3,
    graded_splitting,
    parity_preserved,
)
from .errors import ComputationError, SchemaError
from .fields import FiniteField
from .formal_groups import (
    WeierstrassModel,
    multiplication_series,
    p_series_decomposition,
    valuation_ladder,
    verify_tower,
)
from .monodromy import (
    ENUMERATION_BOUND,
    FULL_WORK_BOUND,
    AbelianPartDescriptor,
    BlockGaloisElement,
    TateLattice,
    UniformizationData,
    classify_monodromy,
    derived_span,
    elementary_generators,
    kernel_by_transversal,
    tate_torsion_tower,
    unipotent_index,
    unit_difference_span,
)
from .polynomials import newton_polygon, root_valuations
from .reports import Report, make_provenance
from .series import DEFAULT_TRUNCATION, INFINITY, PuiseuxSeries

SCENARIO_KINDS = (
    "ladder",
    "polygon",
    "formal-group",
    "tate",
    "galois",
    "clifford",
    "classify",
)


# ---------------------------------------------------------------------------
# parsing helpers


def _require(doc, key, types, path):
    if key not in doc:
        raise SchemaError("%s: missing required key %r" % (path, key))
    value = doc[key]
    if not isinstance(value, types):
        raise SchemaError(
            "%s.%s: expected %s, got %r"
            % (path, key, getattr(types, "__name__", types), value)
        )
    return value


def _reject_unknown(doc, allowed, path):
    extra = set(doc) - set(allowed)
    if extra:
        raise SchemaError("%s: unknown keys %s" % (path, sorted(extra)))


def _parse_rational(value, path, allow_inf=False):
    if isinstance(value, bool):
        raise SchemaError("%s: expected a rational, got a bool" % path)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if value == "inf":
            if allow_inf:
                return INFINITY
            raise SchemaError("%s: 'inf' not allowed here" % path)
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise SchemaError("%s: bad rational %r" % (path, value))
    raise SchemaError("%s: expected int or 'num/den' string, got %r" % (path, value))


def _parse_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError("%s: expected an integer, got %r" % (path, value))
    if minimum is not None and value < minimum:
        raise SchemaError("%s: must be >= %d" % (path, minimum))
    return value


def _parse_field(spec, path):
    if not isinstance(spec, dict):
        raise SchemaError("%s: field spec must be an object" % path)
    _reject_unknown(spec, ("p", "modulus"), path)
    p = _parse_int(_require(spec, "p", int, path), path + ".p", 2)
    modulus = spec.get("modulus")
    if modulus is not None:
        if not isinstance(modulus, list) or not all(
            isinstance(x, int) for x in modulus
        ):
            raise SchemaError("%s.modulus: expected a list of integers" % path)
    try:
        return FiniteField(p, modulus)
    except ComputationError as exc:
        raise SchemaError("%s: %s" % (path, exc))


def _parse_series(field, spec, path, trunc=None):
    if isinstance(spec, int):
        return PuiseuxSeries.constant(field, spec)
    if not isinstance(spec, dict):
        raise SchemaError("%s: series spec must be an object or int" % path)
    terms = {}
    for key, coeff in spec.items():
        exp = _parse_rational(key, "%s[%r]" % (path, key))
        if isinstance(coeff, list):
            if not all(isinstance(x, int) for x in coeff):
                raise SchemaError("%s[%s]: bad coordinate list" % (path, key))
            value = field.element(coeff)
        elif isinstance(coeff, int) and not isinstance(coeff, bool):
            value = field.element(coeff)
        else:
            raise SchemaError("%s[%s]: bad coefficient %r" % (path, key, coeff))
        terms[exp] = value
    try:
        return PuiseuxSeries.from_terms(field, terms, trunc=trunc)
    except ComputationError as exc:
        raise SchemaError("%s: %s" % (path, exc))


def _parse_precision(doc, path):
    spec = doc.get("precision", {})
    if not isinstance(spec, dict):
        raise SchemaError("%s.precision: must be an object" % path)
    _reject_unknown(spec, ("t", "x", "n_cap"), path + ".precision")
    out = {
        "t": _parse_rational(spec.get("t", int(DEFAULT_TRUNCATION)), path + ".precision.t"),
        "x": spec.get("x"),
        "n_cap": _parse_int(spec.get("n_cap", 64), path + ".precision.n_cap", 1),
    }
    if out["x"] is not None:
        out["x"] = _parse_int(out["x"], path + ".precision.x", 1)
    return out


# ---------------------------------------------------------------------------
# runners


def _ladder_result(ladder):
    levels = []
    for level in ladder.levels:
        levels.append(
            {
                "n": level.n,
                "valuation": level.valuation,
                "denominator": level.denominator,
                "multiset": [[v, m] for v, m in level.multiset],
                "certified_regime": ladder.n0 is not None and level.n > ladder.n0,
            }
        )
    return {"levels": levels, "n0": ladder.n0}


def _run_ladder(doc):
    _reject_unknown(doc, ("kind", "p", "interior", "n_max"), "ladder")
    p = _parse_int(_require(doc, "p", int, "ladder"), "ladder.p", 2)
    n_max = _parse_int(_require(doc, "n_max", int, "ladder"), "ladder.n_max", 1)
    interior_spec = _require(doc, "interior", dict, "ladder")
    interior = {}
    for key, value in interior_spec.items():
        idx = _parse_int(int(key) if key.isdigit() else key, "ladder.interior", 1)
        interior[idx] = _parse_rational(
            value, "ladder.interior[%s]" % key, allow_inf=True
        )
    ladder = valuation_ladder(p, interior, n_max)
    vs = ladder.valuations()
    assertions = {
        "valuations_strictly_decreasing": all(a > b for a, b in zip(vs, vs[1:])),
        "regime_certified": ladder.n0 is not None,
    }
    return _ladder_result(ladder), assertions, {}


def _run_polygon(doc):
    _reject_unknown(doc, ("kind", "points", "unknown_bounds"), "polygon")
    pts_spec = _require(doc, "points", list, "polygon")
    points = []
    for i, pair in enumerate(pts_spec):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError("polygon.points[%d]: expected [index, valuation]" % i)
        points.append(
            (
                _parse_int(pair[0], "polygon.points[%d].index" % i),
                _parse_rational(pair[1], "polygon.points[%d].valuation" % i),
            )
        )
    bounds = []
    for i, pair in enumerate(doc.get("unknown_bounds", [])):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError("polygon.unknown_bounds[%d]: expected [index, bound]" % i)
        bounds.append(
            (
                _parse_int(pair[0], "polygon.unknown_bounds[%d].index" % i),
                _parse_rational(pair[1], "polygon.unknown_bounds[%d].bound" % i),
            )
        )
    polygon = newton_polygon(points, bounds)
    result = {
        "vertices": [[i, v] for i, v in polygon.vertices],
        "segments": [
            {"slope": seg.slope, "length": seg.length} for seg in polygon.segments
        ],
        "collinear": [[i, v] for i, v in polygon.collinear],
        "root_valuations": []
        if polygon.is_degenerate
        else [[v, m] for v, m in root_valuations(polygon)],
    }
    return result, {"hull_verified": polygon.verify()}, {}


def _run_formal_group(doc):
    _reject_unknown(
        doc,
        ("kind", "field", "model", "n_max", "verify_levels", "precision"),
        "formal-group",
    )
    field = _parse_field(_require(doc, "field", dict, "formal-group"), "formal-group.field")
    precision = _parse_precision(doc, "formal-group")
    model_spec = _require(doc, "model", dict, "formal-group")
    _reject_unknown(model_spec, ("a1", "a2", "a3", "a4", "a6"), "formal-group.model")
    coeffs = {}
    for name in ("a1", "a2", "a3", "a4", "a6"):
        spec = model_spec.get(name, 0)
        coeffs[name] = _parse_series(field, spec, "formal-group.model.%s" % name)
    n_max = _parse_int(doc.get("n_max", 4), "formal-group.n_max", 1)
    verify_levels = _parse_int(doc.get("verify_levels", 2), "formal-group.verify_levels", 0)
    model = WeierstrassModel(**coeffs)
    p = field.p
    p_series = multiplication_series(model, p, x_trunc=precision["x"])
    if model.discriminant().is_exact_zero:
        raise ComputationError("singular model: the discriminant is exactly zero")
    if p_series.x_trunc < p * p:
        raise ComputationError(
            "formal group known to degree %d < p^2 = %d" % (p_series.x_trunc, p * p)
        )
    h2 = p_series_decomposition(p_series, p, precision=precision["t"])
    ladder = h2.ladder(n_max)
    result = {
        "p": field.p,
        "m": h2.m,
        "interior_valuations": {str(i): v for i, v in h2.interior.items()},
        "ladder": _ladder_result(ladder),
    }
    assertions = {"ladder_certified": ladder.n0 is not None}
    if verify_levels:
        report = verify_tower(h2, ladder, levels=verify_levels, n_cap=precision["n_cap"])
        result["verification"] = {
            "levels": report.levels,
            "multisets": [[[v, m] for v, m in ms] for ms in report.multisets],
        }
        assertions["oracle_matches_ladder"] = True
    used = {"t": precision["t"], "x": p_series.x_trunc, "n_cap": precision["n_cap"]}
    return result, assertions, used


def _run_tate(doc):
    _reject_unknown(doc, ("kind", "field", "periods", "n", "precision"), "tate")
    field = _parse_field(_require(doc, "field", dict, "tate"), "tate.field")
    precision = _parse_precision(doc, "tate")
    period_specs = _require(doc, "periods", list, "tate")
    if not period_specs:
        raise SchemaError("tate.periods: need at least one period")
    periods = tuple(
        _parse_series(field, spec, "tate.periods[%d]" % i, trunc=precision["t"])
        for i, spec in enumerate(period_specs)
    )
    n = _parse_int(_require(doc, "n", int, "tate"), "tate.n", 0)
    lattice = TateLattice(periods=periods, p=field.p)
    tower = tate_torsion_tower(lattice, n)
    result = {
        "p": field.p,
        "g": tower.g,
        "n": n,
        "separable_degree": tower.separable_degree,
        "inseparable_degree": tower.inseparable_degree,
        "galois_image": tower.galois_image,
        "period_valuations": list(lattice.valuation_vector()),
        "generators": [
            {"terms": [[e, list(c.coords)] for e, c in g.terms()]}
            for g in tower.generators
        ],
    }
    assertions = {
        "separable_degree_one": tower.separable_degree == 1,
        "roots_power_back_to_periods": tower.verify_generators(lattice),
    }
    return result, assertions, {"t": precision["t"]}


def _parse_generators(doc, p, n, d):
    spec = doc.get("generators", "full")
    if spec == "full":
        # refuse in closed form, before any generator is built
        half = d // 2
        phi = (p - 1) * p ** (n - 1)
        if phi ** half > ENUMERATION_BOUND:
            raise ComputationError(
                "full block group diagonal image order %d exceeds bound %d"
                % (phi ** half, ENUMERATION_BOUND)
            )
        # |S| products per diagonal and |S|^2 commutators, each costing about
        # h^2 + 9 entry operations (h^2 W entries plus a fixed overhead)
        count = half * (phi - 1) + half * half  # |S| = len(elementary_generators)
        work = (phi ** half + count) * count * (half * half + 9)
        if work > FULL_WORK_BOUND:
            raise ComputationError(
                "full block group needs work %d for %d generators, over bound %d"
                % (work, count, FULL_WORK_BOUND)
            )
        return elementary_generators(p, n, d), True
    if not isinstance(spec, list) or not spec:
        raise SchemaError("galois.generators: expected 'full' or a nonempty list")
    gens = []
    for i, g in enumerate(spec):
        if not isinstance(g, dict):
            raise SchemaError("galois.generators[%d]: expected an object" % i)
        _reject_unknown(g, ("diag", "w"), "galois.generators[%d]" % i)
        diag = _require(g, "diag", list, "galois.generators[%d]" % i)
        w = _require(g, "w", list, "galois.generators[%d]" % i)
        try:
            gens.append(BlockGaloisElement(p, n, d, diag, w))
        except ComputationError as exc:
            raise SchemaError("galois.generators[%d]: %s" % (i, exc))
    return gens, False


def _run_galois(doc):
    _reject_unknown(doc, ("kind", "p", "n", "d", "generators"), "galois")
    p = _parse_int(_require(doc, "p", int, "galois"), "galois.p", 2)
    n = _parse_int(_require(doc, "n", int, "galois"), "galois.n", 1)
    d = _parse_int(_require(doc, "d", int, "galois"), "galois.d", 2)
    generators, is_full = _parse_generators(doc, p, n, d)
    diagonal_order, kernel = kernel_by_transversal(generators)
    derived = derived_span(generators)
    unipotent_order = (p ** n) ** ((d // 2) ** 2)
    index_formula = unipotent_index(p, n, d)
    group_order = diagonal_order * kernel.order
    result = {
        "p": p,
        "n": n,
        "d": d,
        "generators": "full" if is_full else len(generators),
        "group_order": group_order,
        "derived_order": derived.order,
        "unipotent_order": unipotent_order,
        "unipotent_index": index_formula,
        "derived_equals_full_unipotent": derived.order == unipotent_order,
    }
    assertions = {
        # derived_span refuses a commutator outside W, and a span of W
        # blocks stays in W
        "derived_subgroup_is_unipotent": True,
        "derived_inside_group": derived.issubset(kernel),
    }
    if is_full:
        assertions["index_matches_enumeration"] = (
            group_order == index_formula * unipotent_order
        )
        assertions["derived_equals_I_W"] = (
            derived.order == unit_difference_span(p, n, d).order
        )
    return result, assertions, {}


def _standard_clifford_vectors(lattice, kind):
    if kind == "II":
        return tuple(lattice.basis_vector(i) for i in range(4))
    return (lattice.basis_vector(0),)


def _run_clifford(doc):
    _reject_unknown(
        doc,
        ("kind", "n", "filtration", "lattice", "vectors", "with_splitting", "with_cocharacter"),
        "clifford",
    )
    n = _parse_int(_require(doc, "n", int, "clifford"), "clifford.n", 1)
    ftype = _require(doc, "filtration", str, "clifford")
    if ftype not in ("II", "III"):
        raise SchemaError("clifford.filtration: expected 'II' or 'III'")
    lattice_spec = doc.get("lattice", "split" if ftype == "II" else "one-hyperbolic")
    if lattice_spec == "split":
        lattice = GramLattice.split(n)
    elif lattice_spec == "one-hyperbolic":
        lattice = GramLattice.one_hyperbolic(n)
    elif isinstance(lattice_spec, list):
        rows = [
            [_parse_rational(x, "clifford.lattice") for x in row]
            for row in lattice_spec
        ]
        lattice = GramLattice(rows)
        if lattice.n != n:
            raise SchemaError("clifford.lattice: Gram matrix has n=%d" % lattice.n)
    else:
        raise SchemaError("clifford.lattice: expected 'split', 'one-hyperbolic' or a matrix")
    vec_spec = doc.get("vectors")
    if vec_spec is None:
        vecs = _standard_clifford_vectors(lattice, ftype)
    else:
        names = ("e1", "e2", "e3", "e4") if ftype == "II" else ("e1",)
        _reject_unknown(vec_spec, names, "clifford.vectors")
        vecs = tuple(
            lattice.vector(
                [
                    _parse_rational(x, "clifford.vectors.%s" % name)
                    for x in _require(vec_spec, name, list, "clifford.vectors")
                ]
            )
            for name in names
        )
    with_splitting = bool(doc.get("with_splitting", ftype == "II"))
    with_cocharacter = bool(doc.get("with_cocharacter", False))
    if ftype == "II":
        filtration = filtration_type2(lattice, vecs[0], vecs[1])
    else:
        filtration = filtration_type3(lattice, vecs[0])
    d2, d1, d0 = filtration.dims()
    result = {
        "n": n,
        "filtration": ftype,
        "dims": [d2, d1, d0],
        "graded_dims": list(filtration.graded_dims()),
        "kuga_satake_dimension": 1 << (n + 1),
    }
    assertions = {
        "w2_is_half_kuga_satake_dim": (ftype != "II") or (2 * d2 == 1 << (n + 1)),
        "gr1_trivial_iff_type3": (filtration.graded_dims()[1] == 0) == (ftype == "III"),
    }
    if ftype == "II" and with_splitting:
        splitting = graded_splitting(filtration, vecs[2], vecs[3])
        result["splitting_dims"] = list(splitting.dims())
        assertions["splitting_fills_algebra"] = True  # verified on construction
        if with_cocharacter:
            table = []
            reps = (
                [("I_-1", splitting.i_minus1[0])]
                + ([("I_0", splitting.i_0_basis[0])] if splitting.i_0_basis else [])
                + [("I_1", splitting.i_1[0])]
            )
            all_ok = True
            parity_ok = parity_preserved(splitting)
            for label, v in reps:
                chk = cocharacter_conjugation_check(splitting, v, parity_ok)
                table.append(
                    {
                        "slot": label,
                        "shift": chk.shift,
                        "containments": [[i, ok] for i, ok in chk.containments],
                        "parity_preserved": chk.parity_preserved,
                    }
                )
                all_ok = all_ok and chk.ok
            result["cocharacter_table"] = table
            assertions["cocharacter_containments"] = all_ok
    return result, assertions, {}


def _run_classify(doc):
    _reject_unknown(doc, ("kind", "torus_rank", "abelian_part", "dimension"), "classify")
    torus_rank = _parse_int(
        _require(doc, "torus_rank", int, "classify"), "classify.torus_rank", 1
    )
    dimension = _parse_int(
        _require(doc, "dimension", int, "classify"), "classify.dimension", 1
    )
    ab_spec = doc.get("abelian_part")
    if ab_spec is None:
        abelian = None
    else:
        if not isinstance(ab_spec, dict):
            raise SchemaError("classify.abelian_part: expected object or null")
        _reject_unknown(ab_spec, ("kind", "reduction", "copies"), "classify.abelian_part")
        kind = _require(ab_spec, "kind", str, "classify.abelian_part")
        reduction = _require(ab_spec, "reduction", str, "classify.abelian_part")
        copies = _parse_int(ab_spec.get("copies", 1), "classify.abelian_part.copies", 1)
        try:
            abelian = AbelianPartDescriptor(kind, reduction, copies)
        except ComputationError as exc:
            raise SchemaError("classify.abelian_part: %s" % exc)
    try:
        data = UniformizationData(
            torus_rank=torus_rank, abelian_part=abelian, dimension=dimension
        )
    except ComputationError as exc:
        raise SchemaError("classify: %s" % exc)
    out = classify_monodromy(data)
    result = {
        "classification": out.kind,
        "citation": out.citation,
        "torus_rank": torus_rank,
        "dimension": dimension,
    }
    return result, {"classified": True}, {}


_RUNNERS = {
    "ladder": _run_ladder,
    "polygon": _run_polygon,
    "formal-group": _run_formal_group,
    "tate": _run_tate,
    "galois": _run_galois,
    "clifford": _run_clifford,
    "classify": _run_classify,
}


def scenario_format(doc):
    """The output format a scenario asks for (the CLI flag overrides it)."""
    fmt = doc.get("format", "json") if isinstance(doc, dict) else "json"
    if fmt not in ("json", "text"):
        raise SchemaError("scenario.format: expected 'json' or 'text'")
    return fmt


def run_scenario(doc):
    """Validate and execute one scenario document, returning a Report.

    Schema violations raise ``SchemaError`` before any computation; module
    errors and precision exhaustion propagate for the caller to map onto
    exit codes.
    """
    if not isinstance(doc, dict):
        raise SchemaError("scenario: expected a JSON object")
    kind = doc.get("kind")
    if kind not in SCENARIO_KINDS:
        raise SchemaError(
            "scenario.kind: expected one of %s, got %r" % (list(SCENARIO_KINDS), kind)
        )
    scenario_format(doc)
    work = {k: v for k, v in doc.items() if k != "format"}
    result, assertions, precision = _RUNNERS[kind](work)
    return Report(
        scenario=doc,
        result=result,
        assertions=assertions,
        provenance=make_provenance(precision),
    )
