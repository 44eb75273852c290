from fractions import Fraction

import pytest

from oddlex import (
    BOT_BOUND,
    LiteralSyntaxError,
    Bound,
    MembershipError,
    Pair,
    TOP_BOUND,
    adjoin_bounds,
    build_plp,
    format_elem,
    make_qj,
    make_zj,
    parse_elem,
    q_chain,
    qelem,
    trivial_chain,
    z_chain,
    zelem,
)
from oddlex.groups import SubgroupDescriptor
from oddlex.sampling import window_elements


def test_base_chain_elements_are_group_values():
    assert parse_elem(z_chain(), "3") == (3,)
    assert parse_elem(q_chain(), "1/2") == Fraction(1, 2)
    assert parse_elem(trivial_chain(), "<>") == ()
    assert zelem(1, -2) == (1, -2)
    assert qelem(1, 2) == Fraction(1, 2)
    assert isinstance(qelem(3), Fraction)


def test_parse_examples():
    assert parse_elem(z_chain(), "-3") == zelem(-3)
    assert parse_elem(q_chain(), "1/2") == qelem(1, 2)
    assert parse_elem(z_chain(3), "<1,-2,0>") == zelem(1, -2, 0)
    assert parse_elem(make_zj(2), "(1, T)") == Pair(zelem(1), Bound.TOP)
    assert parse_elem(make_qj(2), "(1/2, B)") == Pair(qelem(1, 2), Bound.BOT)
    assert parse_elem(adjoin_bounds(z_chain()), "BOT") is BOT_BOUND
    assert parse_elem(trivial_chain(), "<>") == zelem()


def test_round_trip_over_windows():
    algebras = [z_chain(), z_chain(2), q_chain(), make_zj(3), make_qj(2),
                adjoin_bounds(make_zj(2)),
                build_plp("IV", z_chain(), vdesc=SubgroupDescriptor.from_strings(["2"]),
                          second=q_chain())]
    for A in algebras:
        for e in window_elements(A, radius=2, cap=400):
            assert parse_elem(A, format_elem(e)) == e


def test_syntax_errors():
    for bad in ["(1,", "<1,)", "1/0", "(1 2)", "", "1 2"]:
        with pytest.raises(LiteralSyntaxError):
            parse_elem(z_chain(), bad)


def test_membership_errors():
    with pytest.raises(MembershipError):
        parse_elem(z_chain(), "1/2")
    with pytest.raises(MembershipError):
        parse_elem(make_qj(2), "(1/2, 3)")
    with pytest.raises(MembershipError):
        parse_elem(make_zj(2), "(1, B)")  # no bottom markers in a type II product
    with pytest.raises(MembershipError):
        parse_elem(z_chain(), "TOP")
    # Markers and bounds share one enum but not one spelling: T/B only in a
    # pair's second place, TOP/BOT only outside a pair.
    with pytest.raises(MembershipError):
        parse_elem(adjoin_bounds(make_zj(2)), "(1, TOP)")
    with pytest.raises(MembershipError):
        parse_elem(adjoin_bounds(z_chain()), "T")
    assert format_elem(Pair(zelem(1), TOP_BOUND)) == "(1, T)"
