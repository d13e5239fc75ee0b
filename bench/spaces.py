"""Frozen benchmark inputs: the five demo spaces and generated suspensions.

Every space is written by this file as a directory holding `complex.json`
and `stratification.json`, so the inputs do not change when the package's
own demo module does.  The generated suspensions of S^1 x S^2 take the
circle length as a parameter (3 gives 506 simplices, 4 gives 674).
"""

import json
from itertools import combinations


def _sphere(vertices):
    """Facets of the simplex on the given vertices: a triangulated sphere."""
    vs = list(vertices)
    return [list(c) for c in combinations(vs, len(vs) - 1)]


def _staircase(cells_a, cells_b):
    """Ordered staircase triangulation of a product of simplicial complexes."""
    out = []
    for sa in cells_a:
        for sb in cells_b:
            a, b = sorted(sa), sorted(sb)
            p, q = len(a) - 1, len(b) - 1
            for pattern in combinations(range(p + q), p):
                i = j = 0
                path = [(a[0], b[0])]
                for step in range(p + q):
                    if step in pattern:
                        i += 1
                    else:
                        j += 1
                    path.append((a[i], b[j]))
                out.append(path)
    return out


def _sorted_cells(cells):
    return sorted(sorted(c) for c in cells)


def _space(vertices, maximal, levels):
    return ({"vertices": list(vertices), "maximal_simplices": _sorted_cells(maximal)},
            {"levels": {str(k): _sorted_cells(v) for k, v in sorted(levels.items())}})


def wedge():
    """A 4-sphere and a 2-sphere glued at vertex 0."""
    s4 = _sphere(range(6))
    s2 = _sphere([0, 6, 7, 8])
    return _space(range(9), s4 + s2, {2: s4 + s2, 1: s2, 0: [[0]]})


def fake_surface():
    """The wedge with a smoothly embedded 2-sphere declared a stratum."""
    s4 = _sphere(range(6))
    s2 = _sphere([0, 6, 7, 8])
    fake = _sphere([1, 2, 3, 4])
    return _space(range(9), s4 + s2, {2: s4 + s2, 1: s2 + fake, 0: [[0]]})


def pinched_torus():
    """An icosahedral sphere with both poles identified to vertex 0."""
    up, low = [1, 2, 3, 4, 5], [6, 7, 8, 9, 10]
    faces = []
    for i in range(5):
        j = (i + 1) % 5
        faces += [[0, up[i], up[j]], [0, low[i], low[j]],
                  [up[i], up[j], low[i]], [up[j], low[i], low[j]]]
    return _space(range(11), faces, {1: faces, 0: [[0]]})


def _suspended_product(circle_len):
    """Top cells of the suspension of S^1 x S^2, and the two apexes."""
    circle = [[u, (u + 1) % circle_len] for u in range(circle_len)]
    cells = _staircase(circle, _sphere(range(4)))
    relabeled = [[4 * u + w for (u, w) in c] for c in cells]
    a, b = 4 * circle_len, 4 * circle_len + 1
    return [c + [a] for c in relabeled] + [c + [b] for c in relabeled], a, b


def suspension(circle_len):
    """Suspension of S^1 x S^2 with the two cone points as point strata."""
    top, a, b = _suspended_product(circle_len)
    return _space(range(b + 1), top, {2: top, 1: [[a], [b]], 0: [[a], [b]]})


def nonpure_wedge():
    """The length-3 suspension wedged with a 2-sphere at cone point 12."""
    top, a, b = _suspended_product(3)
    s2 = _sphere([a, 14, 15, 16])
    return _space(range(17), top + s2, {2: top + s2, 1: s2 + [[b]], 0: [[a], [b]]})


def _write(path, doc):
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def stage(root, circle_len):
    """Write every benchmark space under root.

    Returns {name: (directory, levels)}; `gen-susp` has the given circle
    length, `susp-l4` always has length 4.
    """
    builders = {
        "wedge": wedge,
        "pinched-torus": pinched_torus,
        "fake-surface": fake_surface,
        "susp-s1xs2": lambda: suspension(3),
        "nonpure-wedge": nonpure_wedge,
        "susp-l4": lambda: suspension(4),
        "gen-susp": lambda: suspension(circle_len),
    }
    dirs = {}
    for name, build in builders.items():
        d = root / name
        d.mkdir(parents=True, exist_ok=True)
        cdoc, sdoc = build()
        _write(d / "complex.json", cdoc)
        _write(d / "stratification.json", sdoc)
        dirs[name] = (d, sdoc["levels"])
    return dirs
