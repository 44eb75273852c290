"""Construction and validation of partial lexicographic products.

Well-definedness is checked eagerly here, before any element is touched:
descriptor shapes and refinements (``V <= Z <= X_gr``), the discrete
embedding of the group part for type II/IV, and the ban on bound-adjoined
operands.  Failures raise :class:`PreconditionViolation` naming the clause.
"""

from __future__ import annotations

from typing import Optional

from .chains import Algebra, BoundedAlgebra, PlpAlgebra, PlpKind
from .errors import PreconditionViolation, ShapeError
from .groups import SubgroupDescriptor

_KINDS = ("I", "II", "III", "IV")


def build_plp(kind: str,
              first: Algebra,
              zdesc: Optional[SubgroupDescriptor] = None,
              vdesc: Optional[SubgroupDescriptor] = None,
              second: Algebra = None) -> PlpAlgebra:
    """Build a validated type I/II/III/IV partial lexicographic product.

    Type I is type III with ``V = Z`` and takes only ``zdesc``;
    type II is type IV with ``V`` the whole group part and takes neither.
    """
    if kind not in _KINDS:
        raise PreconditionViolation(f"unknown product kind {kind!r}")
    if second is None:
        raise PreconditionViolation("missing second component")
    for name, operand in (("first", first), ("second", second)):
        if isinstance(operand, BoundedAlgebra):
            raise PreconditionViolation(
                f"{name} operand is bound-adjoined; products take unbounded chains")
        if operand.rank() != 0:
            raise PreconditionViolation(f"{name} operand is not odd (t != f)")

    gdesc = first.group_part_descriptor

    def checked(desc: SubgroupDescriptor, name: str) -> SubgroupDescriptor:
        if desc is None:
            raise PreconditionViolation(f"kind {kind} requires descriptor {name}")
        if len(desc) != len(gdesc):
            raise ShapeError(
                f"descriptor {name} has {len(desc)} coordinates, group part has {len(gdesc)}")
        if not desc.refines(gdesc):
            raise PreconditionViolation(
                f"descriptor not a refinement: {name} is not a subgroup of the group part")
        return desc

    if kind in ("I", "III"):
        z = checked(zdesc, "Z")
        if kind == "I":
            if vdesc is not None and vdesc != z:
                raise PreconditionViolation("type I requires V = Z")
            v = z
        else:
            v = checked(vdesc, "V")
            if not v.refines(z):
                raise PreconditionViolation("descriptor not a refinement: V is not a subgroup of Z")
        return PlpAlgebra(PlpKind.III, first, z, v, second)

    # kind II / IV
    if zdesc is not None:
        raise PreconditionViolation(f"type {kind} takes no Z descriptor")
    if not first.grpart_discretely_embedded:
        raise PreconditionViolation("group part not discretely embedded")
    if kind == "II":
        if vdesc is not None and vdesc != gdesc:
            raise PreconditionViolation("type II requires V to be the whole group part")
        v = gdesc
    else:
        v = checked(vdesc, "V")
    return PlpAlgebra(PlpKind.IV, first, None, v, second)
