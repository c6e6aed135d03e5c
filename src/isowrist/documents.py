"""Every artifact's text: JSON (json_text), CSV, tables and obj-lines.

Numbers serialize as shortest round-trip decimals (Python repr), so a
JSON document re-parsed with the standard library reproduces every
float bit-identically.  Catalog components additionally carry their
exact-radical spellings, e.g. "-2*sqrt(2)/3", so downstream tools can
choose their own precision.  Angles are degrees at this surface and
radians inside the library.
"""

from __future__ import annotations

import dataclasses
import json
import math

from .classify import WristClass, antipodal_map_table, reflection_map_table
from .solver import CATALOG_RADICALS, RESIDUAL_TOL, SolutionRecord
from .spheregeom import PlatonicSolid, isotropy_of, platonic_vertices, second_moment

SCHEMA_VERSION = "1"
GENERATOR = "isowrist"

COMPONENT_NAMES = SolutionRecord._fields[:8]
CSV_HEADER = ("#",) + COMPONENT_NAMES

PLATONIC_FOOTNOTE = (
    "The tabulated constant for each solid is sigma^2 = n/3, the factor by which the "
    "second-moment tensor multiplies the identity; the common singular value itself is "
    "sigma = sqrt(n/3)."
)


_quote = json.encoder.encode_basestring_ascii
_SCALARS = {  # json's text of each scalar type
    str: _quote, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__, type(None): {None: "null"}.get,
    float: lambda x: float.__repr__(x) if math.isfinite(x) else json.dumps(x),  # json's NaN, Infinity, -Infinity
}
_BRACKETS = {dict: "{}", list: "[]", tuple: "[]"}
_KINDS = (str, int, float, list, tuple, dict)  # a subclass is written as the first of these it is, as json does


def _json_chunks(value, pad: str, out: list) -> None:
    kind = type(value)
    if kind not in _SCALARS and kind not in _BRACKETS:
        kind = next((k for k in _KINDS if isinstance(value, k)), None)
        if kind is None:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if kind in _SCALARS or not value:
        return out.append(_SCALARS[kind](value) if kind in _SCALARS else _BRACKETS[kind])
    inner, (start, end) = pad + "  ", _BRACKETS[kind]
    lead, sep = f"{start}\n{inner}", ",\n" + inner
    for key, item in value.items() if kind is dict else enumerate(value):
        write = _SCALARS.get(type(item))
        label = f"{lead}{_quote(key)}: " if kind is dict else lead
        out.append(label + write(item) if write else label)
        if not write:
            _json_chunks(item, inner, out)
        lead = sep
    out.append(f"\n{pad}{end}")


def json_text(doc: dict) -> str:
    """doc as JSON text: exactly the bytes of json.dumps(doc, indent=2) + "\\n", without json's pure-Python encoder.

    Keys must be str: any other key raises TypeError, where json.dumps would convert it.  Any other value
    json cannot write raises TypeError, as in json.dumps.  Cyclic documents are out of scope.
    """
    out = []
    _json_chunks(doc, "", out)
    return "".join(out) + "\n"


def solution_document(solutions) -> dict:
    """Document carrying all 32 solutions with exact-radical spellings."""
    entries = []
    for rec in solutions:
        entry = {"index": rec.index}
        entry.update({name: value for name, value in zip(COMPONENT_NAMES, rec.components)})
        spelled = zip(COMPONENT_NAMES, rec.components, CATALOG_RADICALS)
        entry["radicals"] = {name: "-" + radical if value < 0 else radical for name, value, radical in spelled}
        entries.append(entry)
    metadata = {"generator": GENERATOR, "tolerance": RESIDUAL_TOL}
    return {"schema_version": SCHEMA_VERSION, "metadata": metadata, "solutions": entries}


def solution_csv(solutions) -> str:
    """RFC-4180 CSV of the catalog: header row plus 32 data rows; no field holds a comma, quote or newline."""
    rows = [CSV_HEADER] + [(str(rec.index), *map(repr, rec.components)) for rec in solutions]
    return "".join(",".join(row) + "\r\n" for row in rows)


def solution_table(solutions) -> str:
    """Human-readable fixed-width table of the catalog."""
    lines = ["  # " + "".join(f"{name:>14}" for name in COMPONENT_NAMES)]
    for rec in solutions:
        lines.append(f"{rec.index:>3} " + "".join(f"{v:>14.9f}" for v in rec.components))
    return "\n".join(lines) + "\n"


def _class_entry(w: WristClass) -> dict:
    twists_deg = [math.degrees(a) for a in w.twists]
    joints = [{"joint": 1, "theta_deg": None, "free": True}]
    for k, t in enumerate(w.interior_joints, start=2):
        joints.append({"joint": k, "theta_deg": math.degrees(t), "free": False})
    joints.append({"joint": 4, "theta_deg": None, "free": True})
    return {
        "label": w.label,
        "twists_deg": twists_deg,
        "twists_display": [f"{d:.1f}" for d in twists_deg],
        "joints": joints,
        "alpha_4": "undefined",
        "mirror_couplings": [list(p) for p in w.couplings],
        "member_count": len(w.members),
        "members": [
            {"solution": m.solution_index, "ordering": list(m.ordering), "joint_signs": list(m.joint_signs)}
            for m in w.members
        ],
    }


def wrist_catalog_document(wrists) -> dict:
    """Document with the eight wrist classes and both symmetry-map tables."""
    return {
        "schema_version": SCHEMA_VERSION,
        "metadata": {"generator": GENERATOR},
        "classes": [_class_entry(w) for w in wrists],
        "antipodal_maps": [
            {"source": m.source_index, "subset": list(m.subset), "target": m.target_index}
            for m in antipodal_map_table()
        ],
        "reflection_maps": [
            {"source": m.source_index, "operation": m.operation, "target": m.target_index}
            for m in reflection_map_table()
        ],
    }


def wrist_catalog_table(wrists) -> str:
    """Human-readable summary of the eight wrist classes."""
    lines = ["label  alpha_1  alpha_2  alpha_3  theta_2  theta_3   members"]
    for w in wrists:
        tw = [f"{math.degrees(a):7.1f}" for a in w.twists]
        jj = [f"{math.degrees(t):7.1f}" for t in w.interior_joints]
        lines.append(f"  {w.label}   " + " ".join(tw) + "  " + " ".join(jj) + f"   {len(w.members):4d}")
    lines.append("alpha_4 undefined; theta_1 and theta_4 free (isotropy holds for all their values)")
    return "\n".join(lines) + "\n"


def posture_document(label: str, theta_1_deg: float, theta_4_deg: float, geometry) -> dict:
    """Document with axes, link frames and isotropy data at a posture."""
    axes = geometry.axes.array
    dots = [float(axes[k] @ axes[k + 1]) for k in range(len(axes) - 1)]
    return {
        "schema_version": SCHEMA_VERSION,
        "metadata": {"generator": GENERATOR},
        "class": label,
        "theta_1_deg": theta_1_deg,
        "theta_4_deg": theta_4_deg,
        "axes": [list(map(float, a)) for a in axes],
        "frames": [[list(map(float, row)) for row in f] for f in geometry.frames],
        "consecutive_dot_products": dots,
        "isotropy": dataclasses.asdict(geometry.report),
    }


def posture_obj_lines(geometry) -> str:
    """Plain line-segment geometry: 'v x y z' vertices, 'l i j' segments.

    One segment per joint axis, from the wrist center to the axis tip on
    the unit sphere, for consumption by external 3-D viewers.
    """
    lines = ["v 0 0 0"]
    for a in geometry.axes.array:
        lines.append("v " + " ".join(repr(float(v)) for v in a))
    for k in range(geometry.axes.n):
        lines.append(f"l 1 {k + 2}")
    return "\n".join(lines) + "\n"


def platonic_document(kind: PlatonicSolid) -> dict:
    """n, sigma^2 = n/3, sigma and the vertex list for one Platonic solid."""
    ps = platonic_vertices(kind)
    iso = isotropy_of(second_moment(ps))
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind.name,
        "n": kind.n,
        "sigma_sq": iso.sigma_sq,
        "sigma": math.sqrt(iso.sigma_sq),
        "isotropic": iso.isotropic,
        "vertices": [list(map(float, v)) for v in ps.array],
        "footnote": PLATONIC_FOOTNOTE,
    }


def platonic_table(kind: PlatonicSolid) -> str:
    doc = platonic_document(kind)
    lines = [
        f"{doc['kind']}: n = {doc['n']}, sigma^2 = n/3 = {doc['sigma_sq']:.12g}, sigma = {doc['sigma']:.12g}",
        "vertices:",
    ]
    for v in doc["vertices"]:
        lines.append("  [" + ", ".join(f"{c: .15f}" for c in v) + "]")
    lines.append("note: " + doc["footnote"])
    return "\n".join(lines) + "\n"
