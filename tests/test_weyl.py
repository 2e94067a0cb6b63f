"""Finite Weyl group: actions, words, supports, enumeration, the sigma-action."""

import ast
import random
import re
from itertools import combinations
from pathlib import Path
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adlv import _linalg, audit
from adlv.alcove import AlcoveProfile
from adlv.cartan import RootSystem
from adlv.errors import CapExceeded
from adlv.iwahori import enumerate_affine
from adlv.notation import parse_sigma
from adlv.weyl import (
    DiagramAutomorphism,
    FiniteWeylElement,
    embedding_order,
    enumerate_w0,
    longest_element,
    reduced_word,
    sigma_support,
    simple_reflections,
    support,
)


@pytest.mark.parametrize("descriptor", ["A2", "B3", "G2", "D4", "A1+B2"])
def test_simple_reflections_built_once_per_system(descriptor):
    system = RootSystem.from_descriptor(descriptor)
    identity = FiniteWeylElement.identity(system)
    simples = simple_reflections(system)
    assert system.memo[(simple_reflections.__wrapped__,)] is simples
    for i, s in enumerate(simples):
        assert FiniteWeylElement.simple(system, i) is s
        assert s.right_descents() == [i]
        assert s.length == 1 == sum(1 for img in s.positive_images() if sum(img) < 0)
        assert s * s is identity


def test_simple_reflection_action(a2):
    s1 = FiniteWeylElement.simple(a2, 0)
    assert s1.act_on_root((0, 1)) == (1, 1)  # s_1(alpha_2) = alpha_1 + alpha_2
    assert s1.act_on_root((1, 0)) == (-1, 0)
    identity = FiniteWeylElement.identity(a2)
    for a in a2.all_roots:
        assert identity.act_on_root(a) == a


def test_coweight_action_fixed_point(a2):
    s1 = FiniteWeylElement.simple(a2, 0)
    assert s1.act_on_coweight((0, 1)) == (0, 1)  # orthogonal fundamental coweight
    assert s1.act_on_coweight((1, 0)) == (-1, 1)


def test_pairing_compatibility(b2):
    mus = [(1, 0), (0, 1), (2, -1), (-1, 3)]
    for w in enumerate_w0(b2):
        for a in b2.all_roots:
            for mu in mus:
                assert b2.pair(w.act_on_root(a), w.act_on_coweight(mu)) == \
                    b2.pair(a, mu)


def test_action_permutes_roots(a3):
    roots = set(a3.all_roots)
    for w in enumerate_w0(a3):
        assert {w.act_on_root(a) for a in roots} == roots


def test_reduced_word_examples(a2):
    identity = FiniteWeylElement.identity(a2)
    assert reduced_word(identity) == ()
    w0 = longest_element(a2)
    assert len(reduced_word(w0)) == 3 == w0.length
    s1 = FiniteWeylElement.simple(a2, 0)
    s2 = FiniteWeylElement.simple(a2, 1)
    w = s1 * s2 * s1
    word = reduced_word(w)
    assert word == (0, 1, 0)
    product = identity
    for i in word:
        product = product * FiniteWeylElement.simple(a2, i)
    assert product == w
    assert w.length == len(word)


def test_reduced_word_product_and_length(b2):
    identity = FiniteWeylElement.identity(b2)
    for w in enumerate_w0(b2):
        word = reduced_word(w)
        assert len(word) == w.length
        product = identity
        for i in word:
            product = product * FiniteWeylElement.simple(b2, i)
        assert product == w


def test_support_examples(a2, a3):
    identity = FiniteWeylElement.identity(a3)
    flip = DiagramAutomorphism(a3, (2, 1, 0))
    assert support(identity) == frozenset()
    assert sigma_support(identity, flip) == frozenset()
    s1 = FiniteWeylElement.simple(a3, 0)
    assert support(s1) == {0}
    assert sigma_support(s1, flip) == {0, 2}
    s1_a2 = FiniteWeylElement.simple(a2, 0)
    s2_a2 = FiniteWeylElement.simple(a2, 1)
    w = s1_a2 * s2_a2 * s1_a2
    assert support(w) == {0, 1}


def test_enumerate_counts(a2, b2, a3):
    assert len(list(enumerate_w0(a2))) == 6
    assert len(list(enumerate_w0(b2))) == 8
    assert len(list(enumerate_w0(a3))) == 24


def test_enumerate_cap():
    e8 = RootSystem.from_descriptor("E8")
    with pytest.raises(CapExceeded) as info:
        enumerate_w0(e8)
    assert info.value.estimate == 696729600


@pytest.mark.parametrize("descriptor", [
    "A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4", "A1+A2"])
def test_enumerate_w0_is_the_closure_of_the_simple_reflections(descriptor):
    system = RootSystem.from_descriptor(descriptor)
    simples = [FiniteWeylElement.simple(system, i) for i in range(system.rank)]
    closure = {FiniteWeylElement.identity(system)}
    frontier = list(closure)
    while frontier:
        frontier = {w * s for w in frontier for s in simples} - closure
        closure |= frontier
    elements = enumerate_w0(system)
    assert set(elements) == closure
    assert len(elements) == len(closure) == system.weyl_order()
    assert list(elements) == sorted(elements, key=FiniteWeylElement.sort_key)


@pytest.mark.parametrize("descriptor", ["A3", "B3", "C3", "D4", "G2", "F4", "A1+A2"])
def test_embedding_set_lists_minimal_coset_representatives(descriptor):
    """W^J, the w with no right descent in J, is the walk over Phi+ minus Phi_J+."""
    system = RootSystem.from_descriptor(descriptor)
    w0 = enumerate_w0(system)
    for size in range(system.rank + 1):
        for j_set in map(set, combinations(range(system.rank), size)):
            outside_j = frozenset(a for a in system.positive_roots
                                  if any(a[i] for i in range(system.rank) if i not in j_set))
            expected = tuple(w for w in w0 if not j_set & set(w.right_descents()))
            assert embedding_order(system, outside_j) == expected


@pytest.mark.parametrize("descriptor,sigma_text,bound", [
    ("A3", "(1 3)", 4), ("B3", "id", 4), ("D4", "id", 2), ("G2", "id", 8),
])
def test_walk_lists_the_w0_filter_in_sort_key_order(descriptor, sigma_text, bound):
    """For every Phi_x met up to the bound and every Phi+ minus Phi_J+, the
    walk's tuple is the W0 filter sorted by ``sort_key``: a level out of
    order shows, and the walk runs afresh (a new system's memo is empty)."""
    system = RootSystem.from_descriptor(descriptor)
    sigma = parse_sigma(system, sigma_text)
    root_sets = {AlcoveProfile.build(x, sigma).phi_x for x in enumerate_affine(system, bound)}
    for size in range(system.rank + 1):
        for j_set in combinations(range(system.rank), size):
            root_sets.add(frozenset(a for a in system.positive_roots
                                    if any(a[i] for i in range(system.rank) if i not in j_set)))
    for roots in root_sets:
        expected = sorted(audit.w_x_set_bruteforce(system, roots), key=FiniteWeylElement.sort_key)
        assert embedding_order(system, roots) == tuple(expected)


def test_largest_descent_word_is_reduced(a3):
    for w in enumerate_w0(a3):
        word = audit._largest_descent_word(w)
        assert len(word) == w.length
        product = FiniteWeylElement.identity(a3)
        for i in word:
            product = product * FiniteWeylElement.simple(a3, i)
        assert product is w


def test_only_weyl_knows_the_root_permutation_format():
    private = {"_intern", "_table", "_inverted", "_index"}
    package = Path(audit.__file__).parent
    for path in package.glob("*.py"):
        if path.name == "weyl.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("weyl"):
                assert not private & {alias.name for alias in node.names}, path.name
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert not (node.value.id == "weyl" and node.attr in private), path.name


def test_only_the_audit_lists_w0():
    """W0 is listed only by ``weyl`` itself and the audit's references (the
    package re-exports the name), and ``cartan`` imports nothing lazily."""
    package = Path(audit.__file__).parent
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        if path.name not in ("weyl.py", "audit.py", "__init__.py"):
            names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            names |= {alias.name for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) for alias in node.names}
            assert "enumerate_w0" not in names, path.name
        if path.name == "cartan.py":
            assert not [node for function in ast.walk(tree)
                        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for node in ast.walk(function)
                        if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_apply_sigma_examples(a3, a3_flip):
    identity_sigma = DiagramAutomorphism.identity(a3)
    s1 = FiniteWeylElement.simple(a3, 0)
    s3 = FiniteWeylElement.simple(a3, 2)
    assert identity_sigma.weyl(s1) == s1
    assert a3_flip.weyl(s1) == s3
    for w in enumerate_w0(a3):
        assert a3_flip.weyl(w).length == w.length


def test_sigma_must_preserve_cartan(a3, b2):
    with pytest.raises(ValueError):
        DiagramAutomorphism(a3, (1, 0, 2))
    with pytest.raises(ValueError):
        DiagramAutomorphism(b2, (1, 0))


def test_longest_element_flips_positives(g2):
    w0 = longest_element(g2)
    assert w0.length == len(g2.positive_roots)
    for a in g2.positive_roots:
        assert sum(w0.act_on_root(a)) < 0


@pytest.mark.parametrize("descriptor", ["A2", "B2", "A3"])
def test_group_laws_battery(descriptor):
    system = RootSystem.from_descriptor(descriptor)
    sigma = DiagramAutomorphism.identity(system)
    result = audit.check_weyl_group_laws(system, sigma)
    assert result.passed, result.counterexample


def test_group_laws_twisted(a3, a3_flip):
    result = audit.check_weyl_group_laws(a3, a3_flip)
    assert result.passed, result.counterexample


def test_inverse_and_interning(a3):
    for w in enumerate_w0(a3):
        assert (w * w.inverse()).is_identity()
        assert w.inverse().inverse() is w


def test_component_image_swap():
    system = RootSystem.from_descriptor("A2+A2")
    swap = DiagramAutomorphism(system, (2, 3, 0, 1))
    assert swap.component_image(0) == 1
    assert swap.component_image(1) == 0
    assert swap.order == 2


@pytest.mark.parametrize("descriptor", ["A3", "B3", "C3", "G2", "D4", "A1+A2"])
def test_root_permutation_inverse_matches_matrix_inverse(descriptor):
    system = RootSystem.from_descriptor(descriptor)
    for w in enumerate_w0(system):
        assert w.inverse() == audit._inverse_by_linalg(w)


@pytest.mark.parametrize("descriptor,indices", [
    ("A3", None), ("A3", (0, 2)), ("B3", (1, 2)), ("D4", (0, 1, 3)), ("A2+A2", (2, 3)),
])
def test_parabolic_longest_element(descriptor, indices):
    system = RootSystem.from_descriptor(descriptor)
    span = range(system.rank) if indices is None else indices
    in_j = [a for a in system.positive_roots
            if all(c == 0 for k, c in enumerate(a) if k not in span)]
    w0_j = longest_element(system, indices)
    assert support(w0_j) <= frozenset(span)
    assert w0_j.length == len(in_j)
    assert all(sum(w0_j.act_on_root(a)) < 0 for a in in_j)


def _word_by_stripping(w):
    """The smallest-descent word by the plain loop, without any cached word."""
    letters = []
    current = w
    while current.right_descents():
        i = min(current.right_descents())
        letters.append(i)
        current = current * FiniteWeylElement.simple(w.system, i)
    return tuple(reversed(letters))


@pytest.mark.parametrize("descriptor", ["B3", "D4"])
def test_reduced_word_reuses_cached_words_in_any_order(descriptor):
    reference = {w.images: _word_by_stripping(w)
                 for w in enumerate_w0(RootSystem.from_descriptor(descriptor))}
    system = RootSystem.from_descriptor(descriptor)
    elements = list(enumerate_w0(system))
    random.Random(7).shuffle(elements)
    for w in elements:
        word = reduced_word(w)
        assert word == reference[w.images]
        assert len(word) == w.length
        product = FiniteWeylElement.identity(system)
        for i in word:
            product = product * FiniteWeylElement.simple(system, i)
        assert product is w


@pytest.mark.parametrize("descriptor", ["A3", "B3", "G2", "D4"])
def test_closed_form_support_matches_reduced_word(descriptor):
    system = RootSystem.from_descriptor(descriptor)
    for w in enumerate_w0(system):
        assert support(w) == frozenset(reduced_word(w))


# -- root permutations against the literal matrix route -----------------------------

def _with_sigma(descriptor, sigma_text):
    system = RootSystem.from_descriptor(descriptor)
    return system, parse_sigma(system, sigma_text)


# built once, shared by every hypothesis example
MATRIX_ROUTE_CASES = {
    "A2": _with_sigma("A2", "id"), "G2": _with_sigma("G2", "id"),
    "B3": _with_sigma("B3", "id"), "D4": _with_sigma("D4", "(1 3 4)"),
    "F4": _with_sigma("F4", "id"), "E6": _with_sigma("E6", "(1 6)(3 5)"),
}


def _matrix_act(images, root):
    """The root-action matrix (columns: simple-root images) applied to ``root``."""
    return tuple(sum(c * images[j][k] for j, c in enumerate(root)) for k in range(len(images)))


def _matrix_of_word(system, word):
    """Simple-root images of s_{word[0]} ... s_{word[-1]} by integer matrix products."""
    n = system.rank
    images = tuple(tuple(int(k == j) for k in range(n)) for j in range(n))
    for i in word:
        s_i = tuple(tuple(int(k == j) - (k == i) * system.cartan_matrix[i][j] for k in range(n))
                    for j in range(n))
        images = tuple(_matrix_act(images, col) for col in s_i)
    return images


def _element_of_word(system, word):
    w = FiniteWeylElement.identity(system)
    for i in word:
        w = w * FiniteWeylElement.simple(system, i)
    return w


@pytest.mark.parametrize("descriptor", list(MATRIX_ROUTE_CASES))
@given(left=st.lists(st.integers(0, 7), max_size=16),
       right=st.lists(st.integers(0, 7), max_size=16))
def test_root_permutations_match_the_matrix_route(descriptor, left, right):
    system, sigma = MATRIX_ROUTE_CASES[descriptor]
    n = system.rank
    left = [i % n for i in left]
    right = [i % n for i in right]
    u, v = _element_of_word(system, left), _element_of_word(system, right)
    mu, mv = _matrix_of_word(system, left), _matrix_of_word(system, right)
    assert u.images == mu and v.images == mv
    assert (u * v).images == tuple(_matrix_act(mu, col) for col in mv)
    inverse = _linalg.invert(tuple(tuple(mu[j][k] for j in range(n)) for k in range(n)))
    assert u.inverse().images == tuple(tuple(inverse[k][j] for k in range(n)) for j in range(n))
    assert u.length == sum(1 for a in system.positive_roots if sum(_matrix_act(mu, a)) < 0)
    for a in system.all_roots:
        assert u.act_on_root(a) == _matrix_act(mu, a)
    # sigma(w)(alpha_{sigma(i)}) = sigma(w(alpha_i)), and sigma moves coordinate k to sigma(k)
    back = [sigma.perm.index(k) for k in range(n)]
    twisted = tuple(tuple(mu[back[i]][back[k]] for k in range(n)) for i in range(n))
    assert sigma.weyl(u).images == twisted
    assert sigma.weyl(u).length == u.length


def test_act_on_root_refuses_a_non_root(a2):
    s1 = FiniteWeylElement.simple(a2, 0)
    for vector in [(1, -1), (2, 0), (0, 0), (1, 0, 0)]:
        with pytest.raises(ValueError, match=re.escape(f"{vector} is not a root")):
            s1.act_on_root(vector)


def test_root_permutations_refuse_more_than_256_roots():
    system = RootSystem.from_descriptor("E8+E6")
    assert len(system.all_roots) == 312
    with pytest.raises(CapExceeded, match="312 roots exceed the root-permutation limit of 256"):
        FiniteWeylElement.identity(system)
    e8 = RootSystem.from_descriptor("E8")  # 240 roots fit
    s1 = FiniteWeylElement.simple(e8, 0)
    assert len(s1.root_perm) == 240 and (s1 * s1).is_identity()
