"""Bundled demonstration spaces and stratification refinement recipes.

Each demo returns (SimplicialComplex, levels-doc) for the minimal
stratification.  Vertex labels are small integers; the wedge models glue
two spheres at a shared vertex, the pinched torus is an identified-pole
icosahedron, and the 4-dimensional examples are suspensions of a
staircase-triangulated product.
"""

import random
from itertools import combinations

from .simplicial import SimplicialComplex, canonical_simplex
from .stratify import validate_stratification, StratificationError

DEMO_NAMES = ("wedge", "pinched-torus", "susp-s1xs2", "nonpure-wedge", "fake-surface")


def boundary_simplex_faces(vertices):
    """Facets of the simplex on the given vertices (a triangulated sphere)."""
    vs = list(vertices)
    return [list(c) for c in combinations(vs, len(vs) - 1)]


def staircase_product(simplices_a, simplices_b):
    """Maximal cells of the ordered staircase triangulation of a product.

    For each pair of maximal simplices, the product cell is triangulated by
    monotone shuffles of the two vertex sequences; global vertex orders make
    the triangulations agree on shared faces.  Vertices are pairs (u, w).
    """
    cells = []
    for sa in simplices_a:
        for sb in simplices_b:
            a = sorted(sa)
            b = sorted(sb)
            p, q = len(a) - 1, len(b) - 1
            for pattern in combinations(range(p + q), p):
                path = [(a[0], b[0])]
                i = j = 0
                for step in range(p + q):
                    if step in pattern:
                        i += 1
                    else:
                        j += 1
                    path.append((a[i], b[j]))
                cells.append(path)
    return cells


def icosahedron_faces():
    up = [1, 2, 3, 4, 5]
    low = [6, 7, 8, 9, 10]
    faces = []
    for i in range(5):
        faces.append([0, up[i], up[(i + 1) % 5]])
        faces.append([11, low[i], low[(i + 1) % 5]])
        faces.append([up[i], up[(i + 1) % 5], low[i]])
        faces.append([up[(i + 1) % 5], low[i], low[(i + 1) % 5]])
    return faces


def demo_wedge():
    """∂Δ⁵ (an S⁴) and ∂Δ³ (an S²) glued at vertex 0."""
    s4 = boundary_simplex_faces(range(6))
    s2 = boundary_simplex_faces([0, 6, 7, 8])
    K = SimplicialComplex(range(9), s4 + s2)
    levels = {"2": [list(s) for s in sorted(map(tuple, s4 + s2))],
              "1": [list(s) for s in sorted(map(tuple, s2))],
              "0": [[0]]}
    return K, {"levels": levels}


def demo_pinched_torus():
    """Icosahedral sphere with both poles identified to vertex 0.

    The poles have disjoint closed stars and no common neighbors, so the
    vertex identification stays simplicial; the image vertex has a link of
    two disjoint circles.
    """
    faces = [[0 if v == 11 else v for v in f] for f in icosahedron_faces()]
    K = SimplicialComplex(range(11), faces)
    levels = {"1": [list(s) for s in sorted(map(tuple, map(canonical_simplex, faces)))],
              "0": [[0]]}
    return K, {"levels": levels}


def _s1xs2_cells():
    circle = [[0, 1], [1, 2], [0, 2]]
    sphere = boundary_simplex_faces(range(4))
    return staircase_product(circle, sphere)


def _product_label(u, w):
    return 4 * u + w


def demo_susp_s1xs2():
    """Suspension of a staircase-triangulated S¹ × S²; apexes 12 and 13."""
    cells = _s1xs2_cells()
    relabeled = [[_product_label(u, w) for (u, w) in cell] for cell in cells]
    top = [c + [12] for c in relabeled] + [c + [13] for c in relabeled]
    K = SimplicialComplex(range(14), top)
    levels = {"2": [sorted(c) for c in sorted(map(tuple, map(canonical_simplex, top)))],
              "1": [[12], [13]],
              "0": [[12], [13]]}
    return K, {"levels": levels}


def demo_nonpure_wedge():
    """The suspension demo wedged with an S² (∂Δ³) at cone point 12."""
    top = demo_susp_s1xs2()[1]["levels"]["2"]
    s2 = boundary_simplex_faces([12, 14, 15, 16])
    K = SimplicialComplex(range(17), top + s2)
    levels = {"2": [sorted(c) for c in sorted(map(tuple, map(canonical_simplex, top + s2)))],
              "1": [sorted(c) for c in sorted(map(tuple, s2))] + [[13]],
              "0": [[12], [13]]}
    return K, {"levels": levels}


def demo_fake_surface():
    """The wedge complex with the ∂Δ³ on {1,2,3,4} ⊂ ∂Δ⁵ declared a stratum.

    The extra level-1 piece is a smoothly embedded sphere inside the
    4-sphere part, so the refined stratification is admissible but the
    stepwise-simultaneous open filtration built from it is not canonical.
    """
    K, doc = demo_wedge()
    fake = boundary_simplex_faces([1, 2, 3, 4])
    levels = dict(doc["levels"])
    levels["1"] = levels["1"] + [sorted(f) for f in fake]
    return K, {"levels": levels}


_BUILDERS = {
    "wedge": demo_wedge,
    "pinched-torus": demo_pinched_torus,
    "susp-s1xs2": demo_susp_s1xs2,
    "nonpure-wedge": demo_nonpure_wedge,
    "fake-surface": demo_fake_surface,
}


def demo_space(name):
    if name not in _BUILDERS:
        raise KeyError("unknown demo %r (available: %s)" % (name, ", ".join(DEMO_NAMES)))
    return _BUILDERS[name]()


# -- refinement recipes -------------------------------------------------------


def _candidate_fake_points(strat):
    K = strat.complex
    x0 = strat.level(0)
    out = []
    for v in K.vertices:
        sid = K.id_of([v])
        if sid not in x0:
            out.append(v)
    return out


def _candidate_fake_surfaces(strat):
    """Vertex 4-subsets whose ∂Δ³ is a subcomplex: fake closed surfaces."""
    K = strat.complex
    if strat.n < 2:
        return []
    out = []
    for quad in combinations(K.vertices, 4):
        tris = [canonical_simplex(t) for t in combinations(quad, 3)]
        if all(t in K.index for t in tris):
            out.append([list(t) for t in tris])
    return out


def _refined_doc(strat, extra_points=(), extra_surface=None):
    doc = strat.levels_doc()["levels"]
    levels = {k: [list(s) for s in v] for k, v in doc.items()}
    for v in extra_points:
        for k in levels:
            levels[k] = levels[k] + [[v]]
    if extra_surface is not None:
        for k in levels:
            if int(k) >= 1:
                levels[k] = levels[k] + [list(s) for s in extra_surface]
    return levels


def refine_stratification(strat, recipe):
    """Apply a refinement recipe; returns a validated Stratification.

    Recipes: "extra-point[:i]" adds the first admissible fake point
    stratum among the candidates from index i on, "extra-surface[:i]" the
    first admissible fake closed surface from index i on (i >= 0, default
    0), "random:<seed>" a seeded random admissible combination (any
    integer seed).
    """
    K = strat.complex
    name, _, arg = recipe.partition(":")
    try:
        num = int(arg) if arg else 0
    except ValueError:
        raise StratificationError(
            "refinement recipe %r: %r is not an integer" % (recipe, arg))
    if num < 0 and name in ("extra-point", "extra-surface"):
        raise StratificationError(
            "refinement recipe %r: the candidate index must be nonnegative" % recipe)
    if name == "extra-point":
        for v in _candidate_fake_points(strat)[num:]:
            try:
                return validate_stratification(K, _refined_doc(strat, extra_points=[v]))
            except StratificationError:
                continue
        raise StratificationError("no admissible fake point stratum found")
    if name == "extra-surface":
        for surf in _candidate_fake_surfaces(strat)[num:]:
            try:
                return validate_stratification(K, _refined_doc(strat, extra_surface=surf))
            except StratificationError:
                continue
        raise StratificationError("no admissible fake surface stratum found")
    if name == "random":
        rng = random.Random(num)
        return random_refinement(strat, rng)
    raise StratificationError("unknown refinement recipe %r" % recipe)


def random_refinement(strat, rng):
    """A random admissible refinement by fake even-dimensional strata."""
    K = strat.complex
    points = _candidate_fake_points(strat)
    surfaces = _candidate_fake_surfaces(strat)
    for _ in range(64):
        pts = rng.sample(points, k=min(len(points), rng.randint(1, 2))) if points else []
        surf = rng.choice(surfaces) if surfaces and rng.random() < 0.6 else None
        try:
            return validate_stratification(K, _refined_doc(strat, pts, surf))
        except StratificationError:
            continue
    raise StratificationError("could not find an admissible random refinement")
