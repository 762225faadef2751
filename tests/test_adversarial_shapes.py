"""Staircase join on adversarial tree shapes.

Random trees rarely produce the extreme shapes where off-by-one bugs in
partition boundaries and skip hops live: pure chains (height = n−1,
Equation (1)'s level term at its maximum), pure stars (h = 1, maximal
fan-out), combs, and full binary trees.  Each shape runs all modes of
both staircase axes against the tree-walk reference.
"""

import numpy as np
import pytest

from repro.core.staircase import SkipMode, staircase_join
from repro.counters import JoinStatistics
from repro.encoding.prepost import encode
from repro.xmltree.model import element

from _reference import axis_pres

ALL_MODES = [SkipMode.NONE, SkipMode.SKIP, SkipMode.ESTIMATE, SkipMode.EXACT]


def chain(n):
    """a0 > a1 > ... > a(n-1): one path, height n−1."""
    root = element("n0")
    node = root
    for i in range(1, n):
        node = node.append(element(f"n{i}"))
    return root


def star(n):
    """One root, n−1 leaf children: height 1."""
    return element("hub", *[element(f"leaf{i}") for i in range(n - 1)])


def comb(n):
    """Spine with a tooth at every level: worst case for subtree hops."""
    root = element("s0")
    node = root
    for i in range(1, n // 2):
        node.append(element(f"tooth{i}"))
        node = node.append(element(f"s{i}"))
    return root


def binary(depth):
    """Full binary tree of the given depth."""

    def build(level):
        node = element(f"b{level}")
        if level < depth:
            node.append(build(level + 1))
            node.append(build(level + 1))
        return node

    return build(0)


SHAPES = {
    "chain": chain(60),
    "star": star(60),
    "comb": comb(60),
    "binary": binary(5),
}


@pytest.mark.parametrize("shape", list(SHAPES), ids=list(SHAPES))
@pytest.mark.parametrize("axis", ["descendant", "ancestor", "following", "preceding"])
@pytest.mark.parametrize("mode", ALL_MODES, ids=[m.value for m in ALL_MODES])
class TestShapes:
    def test_matches_reference(self, shape, axis, mode):
        tree = SHAPES[shape]
        doc = encode(tree)
        n = len(doc)
        rng = np.random.default_rng(hash((shape, axis)) % 2**32)
        for k in (1, 3, n // 2):
            context = np.sort(rng.choice(n, size=min(k, n), replace=False))
            got = staircase_join(doc, context, axis, mode)
            expected = axis_pres(tree, context, axis)
            assert got.tolist() == expected.tolist()


class TestShapeSpecificBounds:
    def test_chain_ancestor_from_leaf_touches_whole_path(self):
        """On a chain every prefix node is an ancestor: touched == result."""
        doc = encode(chain(100))
        stats = JoinStatistics()
        result = staircase_join(
            doc, np.array([99]), "ancestor", SkipMode.SKIP, stats
        )
        assert len(result) == 99
        assert stats.nodes_touched == 99
        assert stats.nodes_skipped == 0  # nothing to skip on a pure path

    def test_chain_level_equals_height(self):
        doc = encode(chain(50))
        assert doc.height == 49
        assert doc.level_of(49) == 49

    def test_star_descendant_is_pure_copy_phase(self):
        """post(root) − pre(root) equals the child count: the whole step
        is the Equation (1) copy phase, zero comparisons."""
        doc = encode(star(80))
        stats = JoinStatistics()
        result = staircase_join(
            doc, np.array([0]), "descendant", SkipMode.ESTIMATE, stats
        )
        assert len(result) == 79
        assert stats.nodes_copied == 79
        assert stats.nodes_scanned == 0

    def test_comb_ancestor_skips_teeth(self):
        """Teeth (and their absence of subtrees) must not break the
        hop-ahead logic; ancestors of the deepest spine node are exactly
        the spine."""
        tree = comb(60)
        doc = encode(tree)
        deepest = int(np.argmax(doc.level))
        stats = JoinStatistics()
        result = staircase_join(
            doc, np.array([deepest]), "ancestor", SkipMode.ESTIMATE, stats
        )
        assert len(result) == int(doc.level[deepest])
        expected = axis_pres(tree, np.array([deepest]), "ancestor")
        assert result.tolist() == expected.tolist()

    def test_binary_tree_full_context(self):
        """Every node as context: pruning must collapse to the root for
        descendant and to the leaves for ancestor."""
        from repro.core.pruning import prune

        doc = encode(binary(6))
        everything = np.arange(len(doc))
        assert prune(doc, everything, "descendant").tolist() == [0]
        leaves = prune(doc, everything, "ancestor")
        assert all(doc.subtree_size_exact(int(p)) == 0 for p in leaves)
        assert len(leaves) == 2 ** 6


class TestEncoderOnExtremeShapes:
    """The single-pass encoder is linear in n whatever the height or the
    fan-out, and text stays coded whatever the characters."""

    @staticmethod
    def spine(depth):
        root = node = element("x")
        for _ in range(depth - 1):
            node = node.append(element("x"))
        return root

    @staticmethod
    def best_of(tree, runs=5):
        import gc
        import time

        best = float("inf")
        gc.collect()
        gc.disable()  # a collection scanning the other fixture must not pick the loser
        try:
            for _ in range(runs):
                started = time.perf_counter()
                doc = encode(tree)
                best = min(best, time.perf_counter() - started)
        finally:
            gc.enable()
        return doc, best

    def test_a_30000_level_spine_costs_what_a_flat_tree_does(self):
        flat = element("x", *[element("x") for _ in range(29_999)])
        flat_doc, flat_s = self.best_of(flat)
        spine_doc, spine_s = self.best_of(self.spine(30_000))
        assert len(flat_doc) == len(spine_doc) == 30_000
        assert spine_doc.height == 29_999 and flat_doc.height == 1
        # post of a spine counts down, of a star counts up then the hub.
        assert spine_doc.post.tolist() == list(range(29_999, -1, -1))
        assert flat_doc.post.tolist() == [29_999] + list(range(29_999))
        assert spine_doc.parent.tolist() == list(range(-1, 29_999))
        assert spine_s <= 5 * flat_s, (spine_s, flat_s)  # no per-level quadratic

    @pytest.mark.parametrize("compression", ["none", "packed"])
    def test_loading_a_30000_level_spine_costs_what_a_flat_tree_does(
        self, compression, tmp_path
    ):
        """``load`` derives ``post`` / ``parent`` from the level column:
        a handful of passes whatever the height, never one per level."""
        import time

        from repro.encoding.persist import load, save

        def best_load(tree, name, runs=5):
            path = str(tmp_path / f"{name}.npz")
            save(encode(tree), path, compression=compression)
            best = float("inf")
            for _ in range(runs):
                started = time.perf_counter()
                doc = load(path)
                best = min(best, time.perf_counter() - started)
            return doc, best

        flat_doc, flat_s = best_load(
            element("x", *[element("x") for _ in range(29_999)]), "flat"
        )
        spine_doc, spine_s = best_load(self.spine(30_000), "spine")
        assert spine_doc.height == 29_999 and flat_doc.height == 1
        assert spine_doc.post.tolist() == list(range(29_999, -1, -1))
        assert flat_doc.post.tolist() == [29_999] + list(range(29_999))
        assert spine_doc.parent.tolist() == list(range(-1, 29_999))
        assert flat_doc.parent.tolist() == [-1] + [0] * 29_999
        assert spine_s <= 5 * flat_s, (spine_s, flat_s)

    def test_a_100000_child_flat_element(self):
        from repro.xmltree.model import text

        hub = element("hub", *[element("leaf", text(str(i % 7))) for i in range(100_000)])
        doc = encode(hub)
        assert len(doc) == 200_001 and doc.height == 2
        assert int(doc.post[0]) == 200_000
        assert doc.subtree_size_exact(0) == 200_000
        assert doc.parent[1::2].tolist() == [0] * 100_000
        assert doc.values.dictionary_size == 7
        assert doc.value_of(2) == "0" and doc.value_of(200_000) == str(99_999 % 7)

    def test_a_32768_deep_spine_is_still_the_height_error(self):
        from repro.errors import EncodingError

        with pytest.raises(EncodingError, match="level"):
            encode(self.spine(2**15 + 1))
        assert encode(self.spine(2**15)).height == 2**15 - 1

    def test_non_bmp_and_combining_values_sort_as_utf8_bytes(self):
        """Python orders ``str`` by code point, the dictionary by UTF-8
        byte: the same order (what ``encode_dictionary`` asserts), also
        past the BMP, where UTF-16 order would differ."""
        from repro.xmltree.model import text

        texts = [
            "\U0001F600",  # 4-byte UTF-8, above...
            "\uFFFD",  # ...this 3-byte one in both orders (UTF-16 disagrees)
            "e\u0301",  # combining acute: two code points, not U+00E9
            "\u00e9",
            "e",
            "",
            "\U00010000",
            "\uD7FF",
            "z",
        ]
        doc = encode(element("r", *[element("v", text(t)) for t in texts]))
        values = doc.values
        assert [doc.value_of(2 + 2 * i) for i in range(len(texts))] == texts
        entries = [values.entry(code) for code in range(values.dictionary_size)]
        assert entries == sorted(texts)
        assert [e.encode("utf-8") for e in entries] == sorted(
            t.encode("utf-8") for t in texts
        )
        for t in texts:
            assert values.entry(values.find(t)) == t
        assert values.find("e\u0301") != values.find("\u00e9")
