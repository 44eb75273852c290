import inspect
import random
from dataclasses import replace
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddlex import (
    BOT_BOUND,
    TOP_BOUND,
    Countermodel,
    FormulaSyntaxError,
    PreconditionViolation,
    RepresentationSpec,
    ShapeError,
    UnassignedVariable,
    adjoin_bounds,
    build_representation,
    build_standard_target,
    chains,
    check_consequence,
    eval_formula,
    format_formula,
    holds,
    make_qj,
    make_zj,
    parse_formula,
    parse_theory,
    unit_interval_render,
    z_chain,
    zelem,
)
from oddlex.logic import (And, Const, Fuse, Imp, Neg, Or, Var, _assignment_stream, _eval,
                          _Plan, iff, rendered, variables)
from oddlex.sampling import sample_elem, window_elements
from oddlex.towers import MODE_I_II, MODE_III_IV
from conftest import rng

BZ = adjoin_bounds(z_chain())


# -- parsing -------------------------------------------------------------------

def test_parse_examples():
    assert parse_formula("p -> p") == Imp(Var("p"), Var("p"))
    assert parse_formula("~p * q -> r") == Imp(Fuse(Neg(Var("p")), Var("q")), Var("r"))
    assert parse_formula("t <-> f") == And(Imp(Const.T, Const.F), Imp(Const.F, Const.T))


def test_precedence_chain():
    f = parse_formula("a | b & c * ~d -> e")
    assert f == Imp(Or(Var("a"), And(Var("b"), Fuse(Var("c"), Neg(Var("d"))))), Var("e"))


def test_imp_is_right_associative():
    assert parse_formula("a -> b -> c") == Imp(Var("a"), Imp(Var("b"), Var("c")))


def test_parse_errors_carry_positions():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("p -> ")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(p -> q")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("p q")
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("p -> P")
    assert exc.value.position == 5


def test_print_parse_round_trip():
    texts = ["p -> p", "~p * q -> r", "t <-> f", "a | b & c * ~d -> e",
             "((a -> b) -> c) -> d", "~(p | q) & ~~r", "top -> bot | t"]
    for text in texts:
        f = parse_formula(text)
        assert parse_formula(format_formula(f)) == f


def test_theory_files_skip_comments():
    theory = parse_theory("# premises\np\n\nq -> p  # trailing\n")
    assert theory == [Var("p"), Imp(Var("q"), Var("p"))]


# -- evaluation ----------------------------------------------------------------

def test_eval_contraction_counterexample():
    value = eval_formula(BZ, parse_formula("(p*p)->p"), {"p": zelem(1)})
    assert value == zelem(-1)
    assert not holds(BZ, value)


def test_eval_tau_positivity_sampled(named_algebras):
    r = rng("eval-tau")
    f = parse_formula("p -> p")
    for A in named_algebras.values():
        for _ in range(200):
            assert holds(A, eval_formula(A, f, {"p": sample_elem(A, r)}))


def test_unit_constants_coincide(named_algebras):
    f = parse_formula("t <-> f")
    for A in named_algebras.values():
        assert eval_formula(A, f, {}) == A.unit()


def test_bound_constants_need_a_bounded_algebra():
    assert eval_formula(BZ, parse_formula("top"), {}) is TOP_BOUND
    with pytest.raises(PreconditionViolation):
        eval_formula(z_chain(), parse_formula("top"), {})


def test_unassigned_variable_is_reported():
    with pytest.raises(UnassignedVariable):
        eval_formula(BZ, parse_formula("p -> q"), {"p": zelem(0)})


VALID_IN_ALL_CHAINS = [
    "p -> p",
    "t <-> f",
    "(p * q) -> (q * p)",
    "(p & q) -> p",
    "p -> (p | q)",
    "(p -> q) | (q -> p)",
    "~~p <-> p",
    "(p * (q * r)) <-> ((p * q) * r)",
    "(p * q -> r) <-> (p -> (q -> r))",
]


def test_soundness_smoke(named_algebras):
    r = rng("soundness")
    for A in named_algebras.values():
        for text in VALID_IN_ALL_CHAINS:
            f = parse_formula(text)
            names = sorted(variables(f))
            for _ in range(150):
                assignment = {v: sample_elem(A, r) for v in names}
                assert holds(A, eval_formula(A, f, assignment)), (str(A), text)


def test_eval_monotone_in_lattice_and_fusion_contexts(named_algebras):
    r = rng("monotone-eval")
    f = parse_formula("(p & q) | (p * p * q)")
    for A in named_algebras.values():
        for _ in range(150):
            q_val = sample_elem(A, r)
            lo, hi = sample_elem(A, r), sample_elem(A, r)
            if A.lt(hi, lo):
                lo, hi = hi, lo
            v_lo = eval_formula(A, f, {"p": lo, "q": q_val})
            v_hi = eval_formula(A, f, {"p": hi, "q": q_val})
            assert A.leq(v_lo, v_hi)


# -- countermodel search ---------------------------------------------------------

def test_contraction_fails_in_the_bounded_integers():
    cm = check_consequence(BZ, [], parse_formula("(p*p)->p"), budget=10000, seed=0)
    assert cm is not None
    assert cm.assignment["p"] == zelem(1)
    assert cm.goal_value == zelem(-1)
    cm.validate()


def test_valid_formulas_yield_not_found():
    assert check_consequence(BZ, [], parse_formula("p->p"), budget=2000, seed=0) is None
    assert check_consequence(BZ, [], parse_formula("t<->f"), budget=2000, seed=0) is None


def test_theory_threshold_blocks_falsification():
    cm = check_consequence(BZ, [parse_formula("p")], parse_formula("p*p"),
                           budget=4000, seed=0)
    assert cm is None


def test_theory_constrained_countermodel():
    cm = check_consequence(BZ, [parse_formula("~p")], parse_formula("p"),
                           budget=4000, seed=0)
    assert cm is not None
    assert holds(BZ, cm.theory_values[0])
    assert not holds(BZ, cm.goal_value)
    cm.validate()


def test_search_is_reproducible():
    goal = parse_formula("(p * q) -> (p & q)")
    a = check_consequence(BZ, [], goal, budget=3000, seed=42)
    b = check_consequence(BZ, [], goal, budget=3000, seed=42)
    assert a is not None and b is not None
    assert a.assignment == b.assignment and a.goal_value == b.goal_value
    assert rendered(a).to_json() == rendered(b).to_json()


def test_search_works_in_a_product_algebra():
    A = adjoin_bounds(make_zj(2))
    cm = check_consequence(A, [], parse_formula("(p*p)->p"), budget=8000, seed=0)
    assert cm is not None
    cm.validate()


def test_budget_must_be_positive():
    with pytest.raises(PreconditionViolation):
        check_consequence(BZ, [], parse_formula("p"), budget=0, seed=0)


# -- unit interval rendering -------------------------------------------------------

def test_midpoint_insertion_examples():
    A = z_chain()
    m = unit_interval_render(A, [zelem(0)])
    assert m[zelem(0)] == Fraction(1, 2)
    m = unit_interval_render(A, [zelem(0), zelem(5)])
    assert m[zelem(5)] == Fraction(3, 4)
    m = unit_interval_render(A, [zelem(0), zelem(5), zelem(2)])
    assert m[zelem(2)] == Fraction(5, 8)
    m = unit_interval_render(A, [zelem(0), zelem(-7)])
    assert m[zelem(-7)] == Fraction(1, 4)


def test_rendering_is_strictly_order_preserving():
    r = rng("render")
    A = make_qj(2)
    elems = []
    seen = set()
    while len(elems) < 40:
        e = sample_elem(A, r)
        if e not in seen:
            seen.add(e)
            elems.append(e)
    m = unit_interval_render(A, elems)
    for e1 in elems:
        assert Fraction(0) < m[e1] < Fraction(1)
        for e2 in elems:
            if A.lt(e1, e2):
                assert m[e1] < m[e2]


def test_bounds_render_to_the_endpoints():
    m = unit_interval_render(BZ, [zelem(0), TOP_BOUND, BOT_BOUND, zelem(3)])
    assert m[TOP_BOUND] == 1 and m[BOT_BOUND] == 0
    assert m[zelem(0)] == Fraction(1, 2) and m[zelem(3)] == Fraction(3, 4)


def test_duplicate_elements_are_rejected():
    with pytest.raises(ShapeError):
        unit_interval_render(z_chain(), [zelem(1), zelem(1)])


def test_rendered_countermodel_orders_all_values():
    cm = check_consequence(BZ, [], parse_formula("(p*p)->p"), budget=5000, seed=0)
    cm = rendered(cm)
    cm.validate()
    assert cm.rendering[BOT_BOUND] == 0 and cm.rendering[TOP_BOUND] == 1
    assert all(Fraction(0) <= v <= Fraction(1) for v in cm.rendering.values())
    doc = cm.to_json()
    assert doc["assignment"] == {"p": "1"}
    assert doc["goal_value"] == "-1"



@pytest.mark.parametrize("i,j", [(0, 1), (1, -2), (-2, -1)],
                         ids=["bottom-bound", "inner", "top-bound"])
def test_validate_rejects_a_tampered_rendering(i, j):
    cm = rendered(check_consequence(BZ, [], parse_formula("(p*p)->p"), budget=5000, seed=0))
    by_value = sorted(cm.rendering, key=cm.rendering.get)
    a, b = by_value[i], by_value[j]
    swapped = {**cm.rendering, a: cm.rendering[b], b: cm.rendering[a]}
    with pytest.raises(ShapeError, match="rendering is not order-preserving"):
        replace(cm, rendering=swapped).validate()


@pytest.mark.parametrize("tamper", [
    lambda doc: doc["theory"].append("~p"),  # false under the assignment
    lambda doc: doc.update(theory_values=[]),
], ids=["extra-premise", "no-theory-values"])
def test_validate_rejects_theory_values_that_do_not_match_the_theory(tamper):
    doc = check_consequence(BZ, [parse_formula("~p")], parse_formula("p"),
                            budget=4000, seed=0).to_json()
    Countermodel.from_json(doc).validate()
    tamper(doc)
    with pytest.raises(ShapeError, match="theory formulas but"):
        Countermodel.from_json(doc).validate()


@pytest.mark.parametrize("place", [
    lambda i, n: 5 + Fraction(5 * i, n - 1),  # BOT..TOP -> 5..10
    lambda i, n: Fraction(i + 1, n + 1),  # all inside (0, 1), the bounds too
], ids=["outside-the-unit-interval", "bounds-not-at-0-and-1"])
def test_validate_rejects_a_rendering_off_the_unit_interval(place):
    cm = rendered(check_consequence(BZ, [], parse_formula("(p*p)->p"), budget=5000, seed=0))
    order = sorted(cm.rendering, key=BZ._key)
    moved = {e: place(i, len(order)) for i, e in enumerate(order)}
    with pytest.raises(ShapeError, match="rendering sends"):
        replace(cm, rendering=moved).validate()


# -- the compiled search against the per-assignment tree walk ----------------------

def reference_search(algebra, theory, goal, budget, seed):
    """The search as a tree walk per assignment: the systematic sweep of the
    window in ``itertools.product`` order, then seeded random draws."""
    names = sorted(set().union(variables(goal), *map(variables, theory)))

    def stream():
        window = window_elements(algebra, radius=3, cap=60)
        for combo in product(window, repeat=len(names)):
            yield dict(zip(names, combo))
        draws = random.Random(seed)
        while True:
            yield {name: sample_elem(algebra, draws) for name in names}

    for tried, assignment in enumerate(stream()):
        if tried >= budget:
            return None
        values = [_eval(algebra, phi, assignment) for phi in theory]
        if not all(holds(algebra, v) for v in values):
            continue
        goal_value = _eval(algebra, goal, assignment)
        if not holds(algebra, goal_value):
            return assignment, goal_value, tuple(values)


def _spec_top(doc, mode):
    return build_representation(RepresentationSpec.from_json(doc), mode).top


SEARCH_ALGEBRAS = {name: adjoin_bounds(A) for name, A in {
    "Z": z_chain(),
    "Z^2": z_chain(2),
    "readme": _spec_top({"ranks": [1, 1, 1], "iota": ["III", "IV"],
                         "zdescs": [["*"], ["2", "*"]], "vdescs": [["2"], ["2", "3"]]},
                        MODE_I_II),
    "iii-iv-4": _spec_top({"ranks": [1] * 4, "iota": ["III", "IV", "III"]}, MODE_III_IV),
    "q12-std": build_standard_target(
        RepresentationSpec.from_json({"ranks": [1, 2], "iota": ["III"]})).top,
    # the shape of perfbench's alt12-std, with Q coordinates at every level
    "alt6-std": build_standard_target(RepresentationSpec.from_json(
        {"ranks": [1] * 6, "iota": ["III", "IV", "III", "IV", "III"]})).top,
}.items()}
WINDOW_SIZES = {name: len(window_elements(A, radius=3, cap=60))
                for name, A in SEARCH_ALGEBRAS.items()}


def assert_same_search(algebra, theory, goal, budget, seed=7):
    expected = reference_search(algebra, theory, goal, budget, seed)
    cm = check_consequence(algebra, theory, goal, budget=budget, seed=seed)
    if expected is None:
        assert cm is None
    else:
        assert cm is not None
        assert (cm.assignment, cm.goal_value, cm.theory_values) == expected
        cm.validate()


@st.composite
def formula_trees(draw, depth=4):
    """Formulas over p, q, r of surface depth <= ``depth``, with constants and
    ``<->``, that often reuse a subterm drawn earlier in the same formula."""
    pool = []  # (depth, formula) of each subterm drawn so far

    def build(d):
        reusable = [f for fd, f in pool if fd <= d]
        kind = draw(st.sampled_from(("leaf", "reuse", "neg", "binary", "binary")
                                    if d else ("leaf", "reuse")))
        if kind == "reuse" and reusable:
            return draw(st.sampled_from(reusable))
        if kind == "neg":
            f, fd = Neg(build(d - 1)), d
        elif kind == "binary":
            op = draw(st.sampled_from((And, Or, Fuse, Imp, iff)))
            f, fd = op(build(d - 1), build(d - 1)), d
        else:
            f, fd = draw(st.sampled_from([Var("p"), Var("q"), Var("r")] * 2 + [*Const])), 0
        pool.append((fd, f))
        return f

    return build(depth)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_compiled_search_matches_the_tree_walk(data):
    name = data.draw(st.sampled_from(sorted(SEARCH_ALGEBRAS)), label="algebra")
    A = SEARCH_ALGEBRAS[name]
    goal = data.draw(formula_trees(), label="goal")
    theory = data.draw(st.lists(formula_trees(depth=2), max_size=2), label="theory")
    names = set().union(variables(goal), *map(variables, theory))
    total = WINDOW_SIZES[name] ** len(names)
    # below, at and past the end of the sweep (the random phase), within reason
    budget = data.draw(st.sampled_from(sorted({1, min(total - 1, 150) or 1,
                                               min(total, 150), min(total + 9, 160)})),
                       label="budget")
    assert_same_search(A, theory, goal, budget, seed=data.draw(st.integers(0, 99)))


BOUNDARY_CASES = [  # (goal, theory): variable-free, one and two variables
    ("t <-> f", ()),
    ("top -> bot", ()),
    ("~~(t * bot) | f", ("t",)),
    ("p -> p", ()),
    ("(p * p) -> p", ("~p",)),
    ("~~p <-> p", ("p | ~p", "p -> p")),
    ("(p -> q) | (q -> p)", ()),
    ("(p * q) -> (p & q)", ("~q",)),
    # the theory holds only at q = bot: the goal is evaluated only once the theory holds
    ("~p", ("q -> bot",)),
    # valid, with a constant each random draw must evaluate afresh (its tables start empty)
    ("(p & bot) -> f", ()),
]


def _sweep_length(name, goal, theory):
    return WINDOW_SIZES[name] ** len(set().union(variables(goal), *map(variables, theory)))


@pytest.mark.parametrize("name,goal,theory", [
    (name, goal, theory) for name in sorted(SEARCH_ALGEBRAS) for goal, theory in BOUNDARY_CASES
    # the per-assignment reference is slow, so only sweeps of at most 100
    if _sweep_length(name, parse_formula(goal), [parse_formula(t) for t in theory]) <= 100])
def test_compiled_search_matches_the_tree_walk_at_the_sweep_boundary(name, goal, theory):
    A, goal = SEARCH_ALGEBRAS[name], parse_formula(goal)
    theory = [parse_formula(phi) for phi in theory]
    total = _sweep_length(name, goal, theory)
    for budget in (max(total - 1, 1), total, total + 6):
        assert_same_search(A, theory, goal, budget)


def test_a_bound_constant_fails_as_in_the_tree_walk():
    # At the first assignment every variable is the unit, so the theory holds
    # and the goal, with its bound, is evaluated at once.
    with pytest.raises(PreconditionViolation):
        check_consequence(z_chain(), [parse_formula("p")], parse_formula("q -> top"))


def test_lowering_preconditions_hold():
    """``a -> b`` is compiled as ``~(a * ~b)`` and ``~~a`` as ``a``: valid only
    while no algebra overrides the one residuum and negation is an involution."""
    classes = {cls for _, cls in inspect.getmembers(chains, inspect.isclass)
               if issubclass(cls, chains.Algebra)}
    todo = list(chains.Algebra.__subclasses__())
    while todo:
        cls = todo.pop()
        classes.add(cls)
        todo.extend(cls.__subclasses__())
    assert len(classes) >= 6
    for cls in classes - {chains.Algebra}:
        assert "_residuum" not in vars(cls), cls
    for name, A in SEARCH_ALGEBRAS.items():
        for a in window_elements(A, radius=3, cap=60):
            assert A._neg(A._neg(a)) == a, (name, a)


def test_memo_preconditions_hold():
    """The search interns values by order key and memoizes ``*`` on unordered pairs:
    valid only while distinct elements have distinct keys and ``*`` is commutative."""
    for name, A in SEARCH_ALGEBRAS.items():
        window = window_elements(A, radius=3, cap=60)
        assert len({A._key(a) for a in window}) == len(set(window)), name
        for a, b in product(window, repeat=2):
            assert A._mult(a, b) == A._mult(b, a), (name, a, b)


def test_random_draws_keep_no_values_of_earlier_draws():
    A, names = SEARCH_ALGEBRAS["q12-std"], ["p"]
    goal = parse_formula("((p & ~p) * t) -> (p | ~p)")  # valid: the search never stops
    plan = _Plan(A, names, [], goal)
    stream = _assignment_stream(A, names, seed=3)
    for at, values in islice(stream, WINDOW_SIZES["q12-std"] + 2000):
        assert not plan.falsified(at, values)
    # the unit, and the last draw's values of the subterms and their negations
    # (a -> b is evaluated as ~(a * ~b)); the constant t is one of them
    assert at is None and plan.elems[plan.values[0]] == values[0]
    last = [_eval(A, f, {"p": values[0]}) for f in _subterms(goal)]
    assert set(plan.keys) <= {A._key(e) for e in [A.unit(), *last, *map(A._neg, last)]}
    assert len(plan.keys) == len(set(plan.keys)) == len(plan.index)


def test_the_sweep_keys_each_window_position_once(monkeypatch):
    A, names = SEARCH_ALGEBRAS["readme"], ["p", "q"]
    goal = parse_formula("(p | ~p) & (q | ~q)")  # valid
    calls = []
    key = chains.Algebra._key
    monkeypatch.setattr(chains.Algebra, "_key", lambda self, e: calls.append(e) or key(self, e))
    plan = _Plan(A, names, [], goal)
    window = WINDOW_SIZES["readme"]
    for at, values in islice(_assignment_stream(A, names, seed=0), window ** len(names)):
        assert at is not None and not plan.falsified(at, values)
    # 2 * 60^2 keys if every move interned its variables' values afresh
    assert len(calls) <= window + len(plan.keys)


def _subterms(f):
    if isinstance(f, (Var, Const)):
        return [f]
    if isinstance(f, Neg):
        return [f, *_subterms(f.operand)]
    return [f, *_subterms(f.left), *_subterms(f.right)]
