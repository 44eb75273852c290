"""JSON round-trips for algebra descriptors and tower files.

Descriptors rebuild through the validating constructors, so a hand-edited
file that violates a construction hypothesis is rejected on load.

A tower file is ``json.dumps(tower_to_json(tower), indent=2)``.  Each stage
nests the whole algebra below it, so the text grows about n^3 with the
stage count n.  ``write_tower_json`` writes that same text one stage at a
time: stage k's ``"first"`` is stage k-1, whose text it re-indents (one
``str.replace``, in C) instead of encoding again, and it keeps only the
previous stage's text.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Optional, TextIO

from .chains import Algebra, BoundedAlgebra, QChain, Trivial, ZLex, adjoin_bounds
from .errors import ShapeError
from .groups import SubgroupDescriptor
from .plp import build_plp
from .towers import Countertower, RepresentationSpec


def algebra_to_json(algebra: Algebra, memo: Optional[dict] = None) -> dict:
    """The algebra's document.  With ``memo`` (algebra id -> document), a
    sub-algebra already converted is shared, not built again, so a tower's
    documents hold O(stages) nodes."""
    if memo is not None and id(algebra) in memo:
        return memo[id(algebra)]
    doc = _algebra_doc(algebra, memo)
    if memo is not None:
        memo[id(algebra)] = doc
    return doc


def _algebra_doc(algebra: Algebra, memo: Optional[dict]) -> dict:
    if isinstance(algebra, ZLex):
        return {"base": "Z", "rank": algebra.dim}
    if isinstance(algebra, QChain):
        return {"base": "Q"}
    if isinstance(algebra, Trivial):
        return {"base": "1"}
    if isinstance(algebra, BoundedAlgebra):
        return {"bounded": algebra_to_json(algebra.inner, memo)}
    doc = {
        "plp": algebra.kind.value,
        "first": algebra_to_json(algebra.first, memo),
        "vdesc": algebra.vdesc.to_strings(),
        "second": algebra_to_json(algebra.second, memo),
    }
    if algebra.zdesc is not None:
        doc["zdesc"] = algebra.zdesc.to_strings()
    return doc


def algebra_from_json(doc: dict) -> Algebra:
    if not isinstance(doc, dict):
        raise ShapeError("algebra document must be a JSON object")
    if "base" in doc:
        kind = doc["base"]
        if kind == "Z":
            return ZLex(int(doc.get("rank", 1)))
        if kind == "Q":
            return QChain()
        if kind == "1":
            return Trivial()
        raise ShapeError(f"unknown base chain {kind!r}")
    if "bounded" in doc:
        return adjoin_bounds(algebra_from_json(doc["bounded"]))
    if "plp" in doc:
        kind = doc["plp"]
        first = algebra_from_json(doc["first"])
        second = algebra_from_json(doc["second"])
        vdesc = SubgroupDescriptor.from_strings(doc["vdesc"])
        zdesc: Optional[SubgroupDescriptor] = None
        if "zdesc" in doc:
            zdesc = SubgroupDescriptor.from_strings(doc["zdesc"])
        if kind == "III":
            return build_plp("III", first, zdesc=zdesc, vdesc=vdesc, second=second)
        if kind == "IV":
            return build_plp("IV", first, vdesc=vdesc, second=second)
        raise ShapeError(f"unknown product kind {kind!r}")
    raise ShapeError("algebra document has no recognised shape")


def tower_to_json(tower: Countertower) -> dict:
    memo: dict = {}
    return {
        "mode": tower.mode,
        "spec": tower.spec.to_json(),
        "stages": [algebra_to_json(stage, memo) for stage in tower.stages],
    }


def write_tower_json(tower: Countertower, *files: TextIO) -> None:
    """Write ``json.dumps(tower_to_json(tower), indent=2)`` to each file,
    one stage at a time, with no trailing newline."""
    def write(*parts: str) -> None:
        for fh in files:
            fh.writelines(parts)

    write('{\n  "mode": ', _indented(tower.mode, {}, "  "),
          ',\n  "spec": ', _indented(tower.spec.to_json(), {}, "  "),
          ',\n  "stages": [')
    memo: dict = {}
    known: dict = {}
    for i, stage in enumerate(tower.stages):
        doc = algebra_to_json(stage, memo)
        text = _indented(doc, known, "    ")
        # Stage i+1 nests this stage as its "first"; nothing older is reused.
        known = {id(doc): (text, "    ")}
        write(",\n    " if i else "\n    ", text)
    write("\n  ]\n}" if tower.stages else "]\n}")


def _indented(value, known: dict, indent: str) -> str:
    """``json.dumps(value, indent=2)`` with each line after the first
    indented by ``indent`` more.  ``known`` maps a dict's id to the text
    already written for it and the indent it was written at; that text is
    re-indented, not encoded again."""
    if isinstance(value, dict):
        if id(value) in known:
            text, at = known[id(value)]
            return text.replace("\n", "\n" + indent[len(at):])
        if not value:
            return "{}"
        inner = indent + "  "
        items = [f"{encode_basestring_ascii(k)}: {_indented(v, known, inner)}"
                 for k, v in value.items()]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        items = [_indented(v, known, inner) for v in value]
        brackets = "[]"
    elif isinstance(value, str):
        return encode_basestring_ascii(value)
    elif type(value) is int:
        return repr(value)
    elif value is None:
        return "null"
    else:
        return json.dumps(value)
    return (brackets[0] + "\n" + inner + (",\n" + inner).join(items)
            + "\n" + indent + brackets[1])


def tower_from_json(doc: dict) -> Countertower:
    spec = RepresentationSpec.from_json(doc["spec"])
    stages = tuple(algebra_from_json(stage) for stage in doc["stages"])
    return Countertower(spec, doc["mode"], stages)
