"""Exact constructions of odd involutive residuated chains.

The package builds chains from linearly ordered abelian groups by partial
lexicographic products, verifies their laws by seeded sampling, and searches
for countermodels of formulas over the bound-adjoined results, rendering
witnesses into the rational unit interval.
"""

from .chains import (
    Algebra,
    BaseAlgebra,
    BoundedAlgebra,
    PlpAlgebra,
    PlpKind,
    QChain,
    Trivial,
    ZLex,
    adjoin_bounds,
    q_chain,
    qelem,
    trivial_chain,
    z_chain,
    zelem,
)
from .elements import BOT_BOUND, TOP_BOUND, Bound, Elem, Pair, format_elem
from .errors import (
    ClosureBudgetExceeded,
    FormulaSyntaxError,
    LiteralSyntaxError,
    MembershipError,
    NotDense,
    OddlexError,
    PreconditionViolation,
    ShapeError,
    UnassignedVariable,
    UndefinedCover,
)
from .groups import SubgroupDescriptor
from .literals import parse_elem
from .logic import (
    Countermodel,
    check_consequence,
    eval_formula,
    format_formula,
    holds,
    parse_formula,
    parse_theory,
    unit_interval_render,
)
from .plp import build_plp
from .towers import (
    Countertower,
    INT_IN_Q,
    RepresentationSpec,
    StandardTarget,
    between,
    build_representation,
    build_standard_target,
    closure_tau_count,
    closure_tau_values,
    fuse_type2_iso,
    make_qj,
    make_zj,
    normalize_spec,
    zjk_iso,
    zjk_iso_inverse,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
