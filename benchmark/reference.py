"""Independent reference for checking isowrist's outputs.

Nothing here is imported from isowrist.  The eight isotropy equations
are written out once, evaluated either exactly in Q(sqrt 2, sqrt 3) or in
floats, and the 32 real roots are found by a search over the signed
radical magnitudes 1/3, sqrt(2)/3, sqrt(6)/3 and 2 sqrt(2)/3.  Each
output checker raises OutputError when a command's output breaks a
property the method must have: axis dot products +-1/3, twist cosines
+-1/3, interior-joint cosines +-1/2, J J^T = (4/3) I at every posture,
and sigma^2 = n/3 for each Platonic solid.  CORRUPTIONS holds one
corrupting edit per output kind for the self-test.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction

VARIABLES = ("c", "s", "x", "y", "z", "u", "v", "w")
CLASS_LABELS = tuple("abcdefgh")
CHAINS_PER_SOLUTION = 6  # orderings that keep e_1 first
PLATONIC_COUNTS = {"tetrahedron": 4, "cube": 8, "octahedron": 6, "icosahedron": 12, "dodecahedron": 20}
ORACLE_LINE = re.compile(r"(\d+) clusters from (\d+)/(\d+) converged starts \((\d+) discarded\)")

ROOT_TOL = 1e-12  # printed shortest round-trip decimals of exact radicals
TABLE_TOL = 1e-8  # fixed-width tables with 9 decimals
GEOMETRY_TOL = 1e-9  # postures and DH angles computed through trigonometry


class OutputError(ValueError):
    """A command's output violates a reference property."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OutputError(message)


# ---------------------------------------------------------------- exact field


def _squarefree(n: int) -> tuple:
    """n = k^2 m with m squarefree; returns (k, m)."""
    k, m, p = 1, 1, 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
            k *= p
        if n % p == 0:
            n //= p
            m *= p
        p += 1
    return k, m * n


class Surd:
    """An element sum_m q_m sqrt(m) of Q(sqrt 2, sqrt 3), m squarefree."""

    def __init__(self, terms=None):
        self.terms = {m: q for m, q in (terms or {}).items() if q != 0}

    @classmethod
    def lift(cls, value) -> "Surd":
        return value if isinstance(value, Surd) else cls({1: Fraction(value)})

    @classmethod
    def radical(cls, sign: int, square: Fraction) -> "Surd":
        """sign * sqrt(square) for a non-negative rational square."""
        square = Fraction(square)
        k, m = _squarefree(square.numerator * square.denominator)
        return cls({m: sign * Fraction(k, square.denominator)})

    def __add__(self, other):
        other = Surd.lift(other)
        terms = dict(self.terms)
        for m, q in other.terms.items():
            terms[m] = terms.get(m, 0) + q
        return Surd(terms)

    __radd__ = __add__

    def __neg__(self):
        return Surd({m: -q for m, q in self.terms.items()})

    def __sub__(self, other):
        return self + (-Surd.lift(other))

    def __mul__(self, other):
        other = Surd.lift(other)
        terms: dict = {}
        for m1, q1 in self.terms.items():
            for m2, q2 in other.terms.items():
                k, m = _squarefree(m1 * m2)
                terms[m] = terms.get(m, 0) + q1 * q2 * k
        return Surd(terms)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def __float__(self) -> float:
        return float(sum(float(q) * math.sqrt(m) for m, q in self.terms.items()))


# ---------------------------------------------------------------- the system

_FOUR_THIRDS = Fraction(4, 3)

#: The eight quadratics of sum_k e_k e_k^T = (4/3) I with e_1 = [1, 0, 0],
#: e_2 = [c, s, 0], e_3 = [x, y, z], e_4 = [u, v, w], plus |e_2| = |e_3| = 1.
#: Each entry names the unknowns it reads, so a search can test it as soon
#: as they are assigned.
EQUATIONS = (
    ("cxu", lambda c, x, u: 1 + c * c + x * x + u * u - _FOUR_THIRDS),
    ("syv", lambda s, y, v: s * s + y * y + v * v - _FOUR_THIRDS),
    ("zw", lambda z, w: z * z + w * w - _FOUR_THIRDS),
    ("csxyuv", lambda c, s, x, y, u, v: c * s + x * y + u * v),
    ("yzvw", lambda y, z, v, w: y * z + v * w),
    ("xzuw", lambda x, z, u, w: x * z + u * w),
    ("cs", lambda c, s: c * c + s * s - 1),
    ("xyz", lambda x, y, z: x * x + y * y + z * z - 1),
)

#: Squares of the radical magnitudes 1/3, sqrt(2)/3, sqrt(6)/3, 2 sqrt(2)/3.
MAGNITUDE_SQUARES = (Fraction(1, 9), Fraction(2, 9), Fraction(6, 9), Fraction(8, 9))


def residuals(point) -> list:
    """The eight equation values at a point given in VARIABLES order."""
    named = dict(zip(VARIABLES, point))
    return [f(*(named[v] for v in names)) for names, f in EQUATIONS]


def exact_roots() -> list:
    """Every root whose components are signed radical magnitudes, exactly.

    Depth-first over the unknowns in VARIABLES order; an equation is
    tested as soon as all its unknowns are assigned.
    """
    candidates = [Surd.radical(sign, sq) for sq in MAGNITUDE_SQUARES for sign in (1, -1)]
    ready = {}
    for names, f in EQUATIONS:
        ready.setdefault(max(VARIABLES.index(v) for v in names), []).append((names, f))
    roots = []

    def extend(assigned: dict) -> None:
        depth = len(assigned)
        if depth == len(VARIABLES):
            roots.append(tuple(assigned[v] for v in VARIABLES))
            return
        for value in candidates:
            assigned[VARIABLES[depth]] = value
            if all(f(*(assigned[v] for v in names)).is_zero() for names, f in ready.get(depth, ())):
                extend(assigned)
            del assigned[VARIABLES[depth]]

    extend({})
    return roots


ROOTS = tuple(tuple(float(t) for t in root) for root in exact_roots())


def root_axes(point) -> list:
    c, s, x, y, z, u, v, w = point
    return [(1.0, 0.0, 0.0), (c, s, 0.0), (x, y, z), (u, v, w)]


# ---------------------------------------------------------------- geometry


def _dot(a, b) -> float:
    return sum(p * q for p, q in zip(a, b))


def _cross(a, b) -> tuple:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _unit(a) -> tuple:
    n = math.sqrt(_dot(a, a))
    return tuple(t / n for t in a)


def moment_deviation(points, sigma_sq: float) -> float:
    """max |sum_k p_k p_k^T - sigma_sq I| over the nine entries."""
    return max(
        abs(sum(p[i] * p[j] for p in points) - (sigma_sq if i == j else 0.0)) for i in range(3) for j in range(3)
    )


def interior_joint_angles(axes) -> list:
    """Signed dihedral angles at the interior axes of an ordered chain."""
    normals = [_unit(_cross(a, b)) for a, b in zip(axes, axes[1:])]
    return [
        math.atan2(_dot(_cross(normals[i - 1], normals[i]), axes[i]), _dot(normals[i - 1], normals[i]))
        for i in range(1, len(axes) - 1)
    ]


def _require_unit_vectors(points, tol: float, what: str) -> None:
    for k, p in enumerate(points):
        _require(len(p) == 3, f"{what} {k + 1} is not a 3-vector")
        _require(abs(math.sqrt(_dot(p, p)) - 1.0) <= tol, f"{what} {k + 1} is not a unit vector")


def _require_isotropic_chain(axes, tol: float) -> None:
    _require(len(axes) == 4, f"expected 4 axes, got {len(axes)}")
    _require_unit_vectors(axes, tol, "axis")
    _require(moment_deviation(axes, 4.0 / 3.0) <= tol, "J J^T differs from (4/3) I")
    for a, b in zip(axes, axes[1:]):
        _require(abs(abs(_dot(a, b)) - 1.0 / 3.0) <= tol, "a twist cosine is not +-1/3")
    for t in interior_joint_angles(axes):
        _require(abs(abs(math.cos(t)) - 0.5) <= tol, "an interior-joint cosine is not +-1/2")


# ---------------------------------------------------------------- enumerate


def _match_catalog(rows: dict, tol: float) -> dict:
    """Check indexed rows against the reference roots; returns index -> point."""
    _require(sorted(rows) == list(range(1, 33)), f"indices are not 1..32: {sorted(rows)}")
    matched = set()
    for index, point in rows.items():
        _require(len(point) == 8, f"row {index} has {len(point)} components")
        worst = max(abs(r) for r in residuals(point))
        _require(worst <= tol, f"row {index} violates the system by {worst:.3e}")
        hits = [k for k, root in enumerate(ROOTS) if max(abs(p - q) for p, q in zip(point, root)) <= tol]
        _require(len(hits) == 1, f"row {index} matches {len(hits)} reference roots")
        matched.add(hits[0])
    _require(len(matched) == 32, f"rows cover {len(matched)} of the 32 roots")
    return rows


def check_enumerate_csv(text: str) -> dict:
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows and rows[0] == ["#", *VARIABLES], "bad CSV header")
    _require(len(rows) == 33, f"expected 32 CSV rows, got {len(rows) - 1}")
    return _match_catalog({int(r[0]): tuple(float(t) for t in r[1:]) for r in rows[1:]}, ROOT_TOL)


_RADICAL = re.compile(r"(-?)(?:(\d+)\*)?(?:sqrt\((\d+)\)|(\d+))/(\d+)")


def radical_value(text: str) -> float:
    """Value of an exact-radical spelling such as '-2*sqrt(2)/3'."""
    m = _RADICAL.fullmatch(text)
    _require(m is not None, f"not a radical spelling: {text!r}")
    sign, coef, root, whole, den = m.groups()
    value = int(coef or 1) * (math.sqrt(int(root)) if root else int(whole)) / int(den)
    return -value if sign else value


def check_enumerate_json(text: str) -> dict:
    doc = json.loads(text)
    rows = {}
    for entry in doc["solutions"]:
        point = tuple(float(entry[v]) for v in VARIABLES)
        for v, value in zip(VARIABLES, point):
            _require(abs(radical_value(entry["radicals"][v]) - value) <= ROOT_TOL, f"radical of {v} disagrees")
        rows[int(entry["index"])] = point
    _require(len(rows) == len(doc["solutions"]), "duplicate solution index")
    return _match_catalog(rows, ROOT_TOL)


def check_enumerate_table(text: str) -> dict:
    lines = text.splitlines()
    _require(lines and lines[0].split() == ["#", *VARIABLES], "bad table header")
    _require(len(lines) == 33, f"expected 32 table rows, got {len(lines) - 1}")
    rows = {int(ln.split()[0]): tuple(float(t) for t in ln.split()[1:]) for ln in lines[1:]}
    return _match_catalog(rows, TABLE_TOL)


# ---------------------------------------------------------------- classify


def _member_axes(catalog: dict, member: dict) -> list:
    axes = root_axes(catalog[member["solution"]])
    ordering = member["ordering"]
    _require(sorted(ordering) == [1, 2, 3, 4] and ordering[0] == 1, f"bad ordering {ordering}")
    return [axes[k - 1] for k in ordering]


def _check_class_entry(entry: dict, catalog: dict) -> None:
    label = entry["label"]
    cos_twists = [math.cos(math.radians(d)) for d in entry["twists_deg"]]
    _require(len(cos_twists) == 3, f"class {label} has {len(cos_twists)} twists")
    _require(
        all(abs(abs(ct) - 1.0 / 3.0) <= GEOMETRY_TOL for ct in cos_twists), f"class {label}: twist cosine not +-1/3"
    )
    _require(entry["alpha_4"] == "undefined", f"class {label} defines alpha_4")
    joints = [j["theta_deg"] for j in entry["joints"] if not j["free"]]
    _require(len(joints) == 2 and [j["free"] for j in entry["joints"]] == [True, False, False, True], "bad joints")
    _require(all(abs(abs(math.cos(math.radians(t))) - 0.5) <= GEOMETRY_TOL for t in joints), "joint cosine not +-1/2")
    _require(joints[0] > 0.0, f"class {label}: representative's first interior joint is not positive")
    _require(entry["member_count"] == len(entry["members"]), f"class {label}: member count disagrees")
    for member in entry["members"]:
        axes = _member_axes(catalog, member)
        for (a, b), ct in zip(zip(axes, axes[1:]), cos_twists):
            _require(abs(_dot(a, b) - ct) <= GEOMETRY_TOL, f"class {label}: member twist differs")
        for t, sign, ref in zip(interior_joint_angles(axes), member["joint_signs"], joints):
            _require(
                abs(math.cos(t) - math.cos(math.radians(ref))) <= GEOMETRY_TOL and (t > 0) == (sign > 0),
                f"class {label}: member interior joint differs",
            )


def _reflect(axes, flip) -> list:
    return [tuple(-t if k in flip else t for k, t in enumerate(a)) for a in axes]


_REFLECTIONS = {"reflect_xy": (2,), "reflect_xz": (1,), "reflect_xz_then_xy": (1, 2)}


def _same_axes(a, b, tol: float = ROOT_TOL) -> bool:
    return max(abs(p - q) for pa, pb in zip(a, b) for p, q in zip(pa, pb)) <= tol


def check_classify_json(text: str, catalog: dict) -> dict:
    """Check the class catalog against an already checked enumerate catalog."""
    doc = json.loads(text)
    labels = [c["label"] for c in doc["classes"]]
    _require(labels == list(CLASS_LABELS), f"expected classes a..h, got {labels}")
    chains = set()
    for entry in doc["classes"]:
        _check_class_entry(entry, catalog)
        chains.update((m["solution"], tuple(m["ordering"])) for m in entry["members"])
    total = sum(c["member_count"] for c in doc["classes"])
    _require(total == len(chains) == 32 * CHAINS_PER_SOLUTION, f"{len(chains)} distinct chains in {total} members")
    antipodal = doc["antipodal_maps"]
    _require(sorted(tuple(m["subset"]) for m in antipodal) == sorted(
        tuple(k for k in (2, 3, 4) if bits >> (k - 2) & 1) for bits in range(8)
    ), "antipodal maps do not cover the subsets of {2, 3, 4}")
    for m in antipodal:
        axes = root_axes(catalog[m["source"]])
        image = [tuple(-t for t in a) if k + 1 in m["subset"] else a for k, a in enumerate(axes)]
        _require(_same_axes(image, root_axes(catalog[m["target"]])), f"antipodal map {m} is wrong")
    _require(len(doc["reflection_maps"]) == 24, "expected 24 reflection maps")
    for m in doc["reflection_maps"]:
        image = _reflect(root_axes(catalog[m["source"]]), _REFLECTIONS[m["operation"]])
        _require(_same_axes(image, root_axes(catalog[m["target"]])), f"reflection map {m} is wrong")
    return {c["label"]: c for c in doc["classes"]}


def check_classify_table(text: str) -> None:
    lines = text.splitlines()
    _require(len(lines) == 10, f"expected 8 class rows, got {len(lines) - 2}")
    rows = [ln.split() for ln in lines[1:-1]]
    _require([r[0] for r in rows] == list(CLASS_LABELS), "class labels are not a..h")
    for r in rows:
        _require(all(t in ("70.5", "109.5") for t in r[1:4]), f"class {r[0]}: twists {r[1:4]}")
        _require(all(abs(float(t)) in (60.0, 120.0) for t in r[4:6]), f"class {r[0]}: joints {r[4:6]}")
    _require(sum(int(r[6]) for r in rows) == 32 * CHAINS_PER_SOLUTION, "member counts do not sum to 192")


# ---------------------------------------------------------------- posture


def _angle_about(a, b, axis) -> float:
    return math.atan2(_dot(_cross(a, b), axis), _dot(a, b))


def _same_angle(a: float, b: float, tol: float = GEOMETRY_TOL) -> bool:
    return abs(math.remainder(a - b, 2.0 * math.pi)) <= tol


def check_posture_json(text: str, label: str, theta1: float, theta4: float, classes: dict | None = None) -> list:
    """Check one posture document; returns its axes for the obj-lines check."""
    doc = json.loads(text)
    _require(doc["class"] == label, f"posture of class {doc['class']}, asked for {label}")
    axes = [tuple(a) for a in doc["axes"]]
    _require_isotropic_chain(axes, GEOMETRY_TOL)
    _require(_same_axes(axes[:1], [(1.0, 0.0, 0.0)]), "first axis is not e_1")
    if classes is not None:
        ref = classes[label]
        for (a, b), d in zip(zip(axes, axes[1:]), ref["twists_deg"]):
            _require(abs(_dot(a, b) - math.cos(math.radians(d))) <= GEOMETRY_TOL, "twist differs from its class")
        for t, j in zip(interior_joint_angles(axes), [j["theta_deg"] for j in ref["joints"] if not j["free"]]):
            _require(_same_angle(t, math.radians(j)), "interior joint differs from its class")
    frames = doc["frames"]
    _require(len(frames) == 4, "expected four link frames")
    cols = [[tuple(row[c] for row in f) for c in range(3)] for f in frames]
    for k, (x, y, z) in enumerate(cols):
        _require_unit_vectors((x, y, z), GEOMETRY_TOL, f"frame {k + 1} column")
        worst = max(abs(_dot(x, y)), abs(_dot(y, z)), abs(_dot(z, x)))
        _require(worst <= GEOMETRY_TOL, f"frame {k + 1} not orthogonal")
        _require(_same_axes([z], [axes[k]], GEOMETRY_TOL), f"frame {k + 1} z is not its joint axis")
    t1 = math.radians(theta1)
    _require(_same_axes([cols[0][0]], [(0.0, -math.sin(t1), math.cos(t1))], GEOMETRY_TOL), "theta_1 not applied")
    _require(_same_angle(_angle_about(cols[2][0], cols[3][0], axes[3]), math.radians(theta4)), "theta_4 not applied")
    iso = doc["isotropy"]
    sigma = math.sqrt(4.0 / 3.0)
    _require(all(abs(sv - sigma) <= GEOMETRY_TOL for sv in iso["singular_values"]), "singular values not sqrt(4/3)")
    _require(abs(iso["condition_number"] - 1.0) <= GEOMETRY_TOL and iso["is_isotropic"] is True, "not isotropic")
    return axes


def check_posture_obj_lines(text: str, axes: list | None = None) -> None:
    lines = text.splitlines()
    _require(len(lines) == 9 and lines[0] == "v 0 0 0", "expected the centre, 4 axis tips and 4 segments")
    tips = []
    for ln in lines[1:5]:
        tag, *xyz = ln.split()
        _require(tag == "v" and len(xyz) == 3, f"bad vertex record {ln!r}")
        tips.append(tuple(float(t) for t in xyz))
    _require(lines[5:] == [f"l 1 {k}" for k in range(2, 6)], "segments do not join the centre to each tip")
    _require_isotropic_chain(tips, GEOMETRY_TOL)
    if axes is not None:
        _require(_same_axes(tips, axes, ROOT_TOL), "obj-lines tips differ from the JSON axes")


# ---------------------------------------------------------------- platonic


def _check_solid(kind: str, n: int, vertices: list, sigma_sq: float, tol: float) -> None:
    _require(PLATONIC_COUNTS.get(kind) == n == len(vertices), f"{kind}: {len(vertices)} vertices, n = {n}")
    _require_unit_vectors(vertices, tol, "vertex")
    gap = min(math.dist(a, b) for i, a in enumerate(vertices) for b in vertices[i + 1 :])
    _require(gap > 0.1, f"{kind}: two vertices coincide")
    _require(moment_deviation(vertices, n / 3.0) <= tol, f"{kind}: second moment is not (n/3) I")
    _require(abs(sigma_sq - n / 3.0) <= tol, f"{kind}: sigma^2 = {sigma_sq} is not n/3")


def check_platonic_json(text: str, kind: str) -> None:
    doc = json.loads(text)
    _require(doc["kind"] == kind, f"asked for {kind}, got {doc['kind']}")
    _check_solid(kind, doc["n"], [tuple(v) for v in doc["vertices"]], doc["sigma_sq"], ROOT_TOL)
    _require(abs(doc["sigma"] - math.sqrt(doc["n"] / 3.0)) <= ROOT_TOL and doc["isotropic"] is True, "bad sigma")


_PLATONIC_HEAD = re.compile(r"(\w+): n = (\d+), sigma\^2 = n/3 = (\S+), sigma = (\S+)")


def check_platonic_table(text: str, kind: str) -> None:
    lines = text.splitlines()
    m = _PLATONIC_HEAD.fullmatch(lines[0]) if lines else None
    _require(m is not None and m.group(1) == kind, "bad platonic header")
    n = int(m.group(2))
    vertices = [tuple(float(t) for t in ln.strip(" []").split(",")) for ln in lines[2 : 2 + n]]
    _check_solid(kind, n, vertices, float(m.group(3)), TABLE_TOL)


# ---------------------------------------------------------------- verify


def check_verify(text: str, exit_code: int, oracle_starts: int) -> dict:
    """Exit code 0, no FAIL line, and a 32-root oracle line when it ran."""
    _require(exit_code == 0, f"verify exited with {exit_code}")
    statuses = {}
    for ln in text.splitlines():
        m = re.match(r"\[(PASS|FAIL|SKIP)\] (\S+)", ln)
        if m:
            statuses[m.group(2)] = (m.group(1), ln)
    _require(statuses, "no check lines")
    _require(not [n for n, (st, _) in statuses.items() if st == "FAIL"], "a check failed")
    _require("failed:" not in text, "verify lists failures")
    status, line = statuses.get("oracle-root-hunt", ("missing", ""))
    if oracle_starts == 0:
        _require(status == "SKIP", "oracle ran although it was skipped")
        return {}
    _require(status == "PASS", "oracle line missing")
    m = ORACLE_LINE.search(line)
    _require(m is not None, "oracle line has no counts")
    clusters, converged, starts, discarded = (int(g) for g in m.groups())
    _require(clusters == 32, f"oracle found {clusters} clusters")
    _require(starts == oracle_starts and converged + discarded == starts, "oracle counts do not add up")
    return {"converged": converged, "discarded": discarded}


# ---------------------------------------------------------------- self-test


def _flip_first_sign(text: str, pattern: str) -> str:
    """Negate the first number matched by pattern (a regex with one group)."""
    m = re.search(pattern, text)
    start = m.start(1)
    number = m.group(1)
    flipped = number[1:] if number.startswith("-") else "-" + number
    return text[:start] + flipped + text[m.end(1) :]


def _drop_class_json(text: str) -> str:
    doc = json.loads(text)
    del doc["classes"][3]
    return json.dumps(doc)


def _drop_class_row(text: str) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines[:4] + lines[5:])


def _perturb_axis_json(text: str) -> str:
    doc = json.loads(text)
    doc["axes"][2][1] += 1e-6
    return json.dumps(doc)


def _perturb_axis_obj(text: str) -> str:
    lines = text.splitlines()
    tag, x, y, z = lines[3].split()
    lines[3] = f"{tag} {x} {float(y) + 1e-6!r} {z}"
    return "\n".join(lines) + "\n"


def _perturb_vertex_json(text: str) -> str:
    doc = json.loads(text)
    doc["vertices"][1][0] += 1e-6
    return json.dumps(doc)


def _perturb_vertex_table(text: str) -> str:
    lines = text.splitlines()
    v = [float(t) for t in lines[3].strip(" []").split(",")]
    v[0] += 1e-6
    lines[3] = "  [" + ", ".join(f"{c: .15f}" for c in v) + "]"
    return "\n".join(lines) + "\n"


def _drop_oracle_root(text: str) -> str:
    return text.replace("32 clusters", "31 clusters")


def _fail_a_check(text: str) -> str:
    return text.replace("[PASS] posture-isotropy", "[FAIL] posture-isotropy")


#: One corrupting edit per output kind: one sign flipped, one class
#: dropped, one posture axis or solid vertex perturbed, one oracle root
#: dropped, one check turned to FAIL.
CORRUPTIONS = {
    "enumerate-csv": lambda t: _flip_first_sign(t, r"\r\n5,(?:[^,]*,){3}([^,]+)"),
    "enumerate-json": lambda t: _flip_first_sign(t, r'"y": (-?[0-9.e-]+)'),
    "enumerate-table": lambda t: _flip_first_sign(t, r"\n +7 +\S+ +\S+ +(\S+)"),
    "classify-json": _drop_class_json,
    "classify-table": _drop_class_row,
    "posture-json": _perturb_axis_json,
    "posture-obj-lines": _perturb_axis_obj,
    "platonic-json": _perturb_vertex_json,
    "platonic-table": _perturb_vertex_table,
    "verify-full": _drop_oracle_root,
    "verify-quick": _fail_a_check,
}
