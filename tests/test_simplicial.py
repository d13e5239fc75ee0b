import gc
import random

import pytest

from icsheaf import demos
from icsheaf.simplicial import ComplexError, SimplicialComplex, all_chains, load_complex
from icsheaf.stratify import compute_open_filtration, validate_stratification

import oracles


def tuples(K, ids):
    """The simplices of a set of ids, as vertex tuples in id order."""
    return [K.simplices[i] for i in sorted(ids)]


def boundary(vertices):
    from itertools import combinations
    vs = list(vertices)
    return [list(c) for c in combinations(vs, len(vs) - 1)]


def test_load_triangle_closure():
    K = load_complex({"vertices": [0, 1, 2], "maximal_simplices": [[0, 1, 2]]})
    assert len(K) == 7
    by_dim = {}
    for s in K.simplices:
        by_dim[len(s) - 1] = by_dim.get(len(s) - 1, 0) + 1
    assert by_dim == {0: 3, 1: 3, 2: 1}


def test_load_boundary_delta5_counts():
    K = load_complex({"vertices": list(range(6)),
                      "maximal_simplices": [list(s) for s in boundary(range(6))]})
    # enumeration oracle: all nonempty subsets of a 6-set of size <= 5
    assert len(K) == oracles.count_subsets(6, range(1, 6)) == 62
    for d, expect in [(0, 6), (1, 15), (2, 20), (3, 15), (4, 6)]:
        assert sum(1 for s in K.simplices if len(s) == d + 1) == expect


def test_duplicate_vertex_rejected():
    with pytest.raises(ComplexError, match="duplicate vertex"):
        load_complex({"vertices": [0, 1], "maximal_simplices": [[0, 0, 1]]})


def test_unknown_vertex_rejected():
    with pytest.raises(ComplexError, match="unknown vertex"):
        load_complex({"vertices": [0, 1], "maximal_simplices": [[0, 2]]})


def test_json_text_is_not_a_document():
    # the caller parses the file; the text itself is not a second input form
    with pytest.raises(ComplexError, match="must have 'vertices'"):
        load_complex('{"vertices": [0, 1], "maximal_simplices": [[0, 1]]}')


def test_empty_complex_rejected():
    with pytest.raises(ComplexError):
        load_complex({"vertices": [], "maximal_simplices": []})


def test_open_star_cone_apex():
    K = SimplicialComplex(range(4), [[0, 1, 2], [0, 2, 3], [0, 1, 3]])
    star = K.open_star([0])
    assert len(star) == 7
    assert K.is_up_closed(star)
    assert not K.is_down_closed(star)


def test_open_star_top_simplex():
    K = SimplicialComplex(range(3), [[0, 1, 2]])
    star = K.open_star([0, 1, 2])
    assert star == {K.id_of([0, 1, 2])}


def test_open_star_vertex_of_tetra_boundary():
    K = SimplicialComplex(range(4), boundary(range(4)))
    star = K.open_star([0])
    brute = oracles.star_by_bruteforce([list(s) for s in K.simplices], [0])
    assert len(star) == len(brute) == 7


def test_down_closure():
    K = SimplicialComplex(range(4), [[0, 1, 2], [0, 2, 3], [0, 1, 3]])
    assert K.walk(K.open_star([0]), K.facets) == K.full_set()
    assert len(K.walk((), K.facets)) == 0
    e = {K.id_of([1, 2])}
    assert set(tuples(K, K.walk(e, K.facets))) == {(1,), (2,), (1, 2)}


def test_closure_operators_idempotent_and_dual(spaces):
    for name, (K, _) in spaces.items():
        star = K.open_star([K.vertices[0]])
        assert K.is_up_closed(star)
        cl = frozenset(K.walk(star, K.facets))
        assert K.is_down_closed(cl) and K.walk(cl, K.facets) == cl
        # Alexandrov duality
        assert K.is_down_closed(K.full_set() - star)
        assert K.is_up_closed(K.full_set() - cl)


def test_link_triangle_in_delta5_is_circle():
    K = SimplicialComplex(range(6), boundary(range(6)))
    link = K.link_of([1, 2, 3], K.full_set())
    brute = oracles.link_by_bruteforce([list(s) for s in K.simplices], [1, 2, 3])
    assert len(link) == len(brute) == 6
    assert oracles.cochain_cohomology_dims([list(s) for s in link.simplices]) \
        == oracles.sphere_cohomology(1)


def test_link_of_facet_is_empty():
    K = SimplicialComplex(range(4), boundary(range(4)))
    assert K.link_of([1, 2, 3], K.full_set()) is None


def test_link_of_sphere_vertex_is_cycle():
    K = SimplicialComplex(range(4), boundary(range(4)))
    link = K.link_of([0], K.full_set())
    dims = {d: sum(1 for s in link.simplices if len(s) == d + 1) for d in (0, 1)}
    assert dims == {0: 3, 1: 3}
    assert oracles.cochain_cohomology_dims([list(s) for s in link.simplices]) \
        == oracles.sphere_cohomology(1)


def test_components():
    K = SimplicialComplex(range(6), [[0, 1, 2], [3, 4, 5]])
    comps = K.components(K.full_set())
    assert len(comps) == 2
    brute = oracles.components_by_bfs([list(s) for s in K.simplices])
    assert sorted(len(c) for c in comps) == sorted(len(c) for c in brute)
    assert K.components(frozenset()) == []


def test_components_sphere_minus_star_connected():
    K = SimplicialComplex(range(4), boundary(range(4)))
    rest = K.full_set() - K.open_star([0])
    comps = K.components(rest)
    assert len(comps) == 1
    brute = oracles.components_by_bfs([list(K.simplices[i]) for i in rest])
    assert len(brute) == 1
    # maximality: merging the two components of a disconnected set reconnects
    K2 = SimplicialComplex(range(6), [[0, 1, 2], [3, 4, 5]])
    a, b = K2.components(K2.full_set())
    assert len(K2.components(a | b)) == 2


@pytest.mark.parametrize("name", demos.DEMO_NAMES)
def test_face_poset_walk_matches_oracles(name):
    K, doc = demos.demo_space(name)
    for sid, s in enumerate(K.simplices):
        assert [K.simplices[i] for i in K.up_set(sid)] == \
            oracles.star_by_bruteforce(K.simplices, s)
        assert tuple(sorted(K.walk((sid,), K.facets))) == oracles.down_set_by_subsets(K, sid)
        link = K.link_of(s, K.full_set())
        brute = oracles.link_by_bruteforce(K.simplices, s)
        assert (set(link.simplices) if link else set()) == set(brute), s
    strat = validate_stratification(K, doc["levels"])
    for sset in strat.levels + [st.simplex_set for st in strat.strata]:
        assert set(tuples(K, K.walk(sset, K.facets))) == \
            set(oracles.close_downward(tuples(K, sset)))
        comps = K.components(sset)
        assert [min(c) for c in comps] == sorted(min(c) for c in comps)
        assert {frozenset(tuples(K, c)) for c in comps} == \
            {frozenset(c) for c in oracles.components_by_bfs(tuples(K, sset))}


@pytest.mark.parametrize("name", demos.DEMO_NAMES)
def test_link_within_a_closure_is_the_link_in_its_subcomplex(name, spaces):
    # the link inside X^m equals the link taken in X^m as a complex of its own
    K, strat = spaces[name]
    for m, xm in sorted(compute_open_filtration(strat).X_m.items()):
        if not len(xm):
            continue
        sub = oracles.subcomplex(K, xm)[0]
        for sid in sorted(xm):
            s = K.simplices[sid]
            got, want = K.link_of(s, xm), sub.link_of(s, sub.full_set())
            assert (got and got.simplices) == (want and want.simplices), (m, s)


@pytest.mark.parametrize("name", demos.DEMO_NAMES)
def test_relative_closedness_matches_bruteforce(name, spaces):
    # is_up_closed / is_down_closed within an ambient set: no cover pair
    # leaves the subset inside the ambient set, checked on vertex tuples
    K, _ = spaces[name]
    rng = random.Random(name)
    n = len(K)

    def cofacets(s):
        return [tuple(sorted(s + (v,))) for v in K.vertices if v not in s]

    def facets(s):
        return [s[:i] + s[i + 1:] for i in range(len(s))] if len(s) > 1 else []

    def closed(sub, amb, step):
        return all(t in sub for s in sub for t in step(s) if t in amb)

    seen = set()
    for _ in range(200):
        amb_ids = K.walk(rng.sample(range(n), rng.randint(1, 3)), K.cofacets) \
            if rng.random() < 0.5 else set(rng.sample(range(n), rng.randint(0, n)))
        ambient = frozenset(amb_ids)
        pick = rng.random()
        if pick < 0.3:
            ids = K.walk(rng.sample(range(n), 2), K.cofacets) & amb_ids
        elif pick < 0.6:
            ids = K.walk(rng.sample(range(n), 2), K.facets) & amb_ids
        else:
            ids = set(rng.sample(sorted(amb_ids), rng.randint(0, len(amb_ids))))
        subset = frozenset(ids)
        sub, amb = set(tuples(K, subset)), set(tuples(K, ambient))
        up, down = closed(sub, amb, cofacets), closed(sub, amb, facets)
        assert K.is_up_closed(subset, within=ambient) == up
        assert K.is_down_closed(subset, within=ambient) == down
        seen.add((up, down))
    # both verdicts of both checks occur
    assert {u for u, _ in seen} == {d for _, d in seen} == {True, False}


def test_order_chains_triangle_flags():
    K = SimplicialComplex(range(3), [[0, 1, 2]])
    P = K.full_set()
    chains = oracles.order_chains(K, P, 2)
    assert len(chains) == 6 == len(oracles.chains_by_bruteforce(
        [list(s) for s in K.simplices], 2))
    assert oracles.order_chains(K, P, 5) == []
    single = frozenset({K.id_of([0])})
    assert oracles.order_chains(K, single, 0) == [(K.id_of([0]),)]


def test_all_chains_count_matches_bruteforce():
    K = SimplicialComplex(range(4), boundary(range(4)))
    members = sorted(K.full_set())
    got = all_chains(K, members)
    total = sum(len(oracles.chains_by_bruteforce(
        [list(s) for s in K.simplices], ln)) for ln in range(0, 4))
    assert len(got) == total
    assert len(set(got)) == len(got)


def test_incidence_signs_square_identity(spaces):
    # the two intermediate paths between a codim-2 pair carry opposite signs
    for name, (K, _) in spaces.items():
        checked = 0
        for i, s in enumerate(K.simplices):
            if len(s) < 3:
                continue
            for f1, sg1 in K.facets[i]:
                for f2, sg2 in K.facets[f1]:
                    paths = []
                    for mid, sgm in K.cofacets[f2]:
                        for top, sgt in K.cofacets[mid]:
                            if top == i:
                                paths.append(sgm * sgt)
                    assert len(paths) == 2 and paths[0] == -paths[1]
                    checked += 1
                    break
                break
            if checked > 10:
                break


def test_deterministic_ids():
    K1 = SimplicialComplex(range(4), [[0, 1, 2], [1, 2, 3]])
    K2 = SimplicialComplex(range(4), [[1, 2, 3], [0, 1, 2]])
    assert K1.simplices == K2.simplices


def test_all_chains_order_matches_recursive_walk(spaces):
    # the pinned tower hashes depend on the chain order
    for name, (K, _) in spaces.items():
        members = set(K.up_set(0))
        assert all_chains(K, members) == oracles.chains_recursively(K, members), name


def test_all_chains_leaves_no_garbage():
    K = SimplicialComplex(range(5), boundary(range(5)))
    members = sorted(K.full_set())
    all_chains(K, members)  # fill the up-set cache
    gc.collect()
    gc.disable()
    try:
        chains = all_chains(K, members)
        assert len(chains) > len(members)
        del chains
        assert gc.collect() == 0
    finally:
        gc.enable()
