"""Alg. 2 on bit strings agrees with the paper's statement over labels.

:func:`repro.core.lookup.lookup_plan` runs the binary search on μ's bit
string and builds a :class:`Label` only for the name it converges on.
The reference below is Alg. 2 written with the ``Label`` API over
``Label`` prefixes of :func:`mu_path`, with ``f_n`` and ``f_nn`` spelled
out from Definitions 1 and 2 here — not through the library's
:func:`naming` / :func:`next_naming`, which now wrap the very bit
kernels under test.  The properties check that both probe the identical
name sequence and return the same answer, over random trees (some
entries missing, so unconverged searches are covered too), probe keys
and maximum depths.  The same holds for the cache-fronted plan and the
linear ablation walk.  A last test guards the saving: a lookup
constructs at most one ``Label``.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

import pytest
from hypothesis import given, strategies as st

from repro.cache import LeafCache, cached_plan
from repro.core import IndexConfig, LHTIndex, lht_lookup_linear
from repro.core.bucket import LeafBucket
from repro.core.keys import label_for_key, mu_path
from repro.core.label import ROOT, Label
from repro.core.lookup import lookup_plan
from repro.core.naming import naming, naming_bits, next_naming, next_naming_depth
from repro.dht import LocalDHT
from repro.dht.metrics import MetricsRecorder
from repro.errors import LabelError

#: (bucket, name, DHT-gets) — what a lookup answers.
Answer = tuple[LeafBucket | None, Label | None, int]


def paper_naming(label: Label) -> Label:
    """Def. 1: drop the trailing run of the label's final bit."""
    bits = label.bits
    end = len(bits)
    while end and bits[end - 1] == bits[-1]:
        end -= 1
    return Label(bits[:end])


def paper_next_naming(x: Label, mu: Label) -> Label:
    """Def. 2: the shortest prefix of ``mu`` extending ``x`` whose final
    bit differs from ``x``'s (from ``0`` for the virtual root)."""
    if not x.is_proper_prefix_of(mu):
        raise LabelError(f"{x} is not a proper prefix of {mu}")
    last = x.last_bit if x.bits else "0"
    for end in range(x.depth + 1, mu.depth + 1):
        if mu.bits[end - 1] != last:
            return Label(mu.bits[:end])
    raise LabelError(f"no next name: {mu} continues {x} with identical bits")


def reference_plan(max_depth: int, key: float) -> Generator[Label, Any, Answer]:
    """Alg. 2 over ``Label`` objects, as the paper states it."""
    mu = mu_path(key, max_depth)
    shorter, longer = 2, max_depth + 1
    lookups = 0
    while shorter <= longer:
        mid = (shorter + longer) // 2
        x = mu.prefix(mid)
        name = paper_naming(x)
        bucket = yield name
        lookups += 1
        if bucket is None:
            longer = name.length
        elif isinstance(bucket, LeafBucket) and bucket.contains_key(key):
            return bucket, name, lookups
        else:
            try:
                shorter = paper_next_naming(x, mu).length
            except LabelError:
                break
    return None, None, lookups


def reference_linear(
    get: Callable[[str], Any], max_depth: int, key: float
) -> tuple[list[str], Answer]:
    """The top-down ablation walk over ``Label`` objects."""
    mu = mu_path(key, max_depth)
    x = mu.prefix(2)
    names: list[str] = []
    while True:
        name = paper_naming(x)
        bucket = get(str(name))
        names.append(str(name))
        if isinstance(bucket, LeafBucket) and bucket.contains_key(key):
            return names, (bucket, name, len(names))
        if bucket is None:
            return names, (None, None, len(names))
        try:
            x = paper_next_naming(x, mu)
        except LabelError:
            return names, (None, None, len(names))


def drive(
    plan: Generator[Any, Any, Any], store: dict[str, Any]
) -> tuple[list[str], Any]:
    """Run a plan against a name → bucket map; return (names, result)."""
    names: list[str] = []
    try:
        name = next(plan)
        while True:
            names.append(str(name))
            name = plan.send(store.get(str(name)))
    except StopIteration as stop:
        return names, stop.value


def grow_tree(splits: list[int]) -> list[Label]:
    """The leaves of a tree grown by splitting the drawn leaf each time."""
    leaves = [ROOT]
    for draw in splits:
        victim = leaves.pop(draw % len(leaves))
        if victim.depth >= 24:
            leaves.append(victim)
            continue
        leaves.extend((victim.left_child, victim.right_child))
    return leaves


def stored_tree(splits: list[int], dropped: set[int]) -> dict[str, LeafBucket]:
    """Each leaf's bucket under its name, minus the ``dropped`` leaves."""
    return {
        str(paper_naming(leaf)): LeafBucket(leaf)
        for i, leaf in enumerate(grow_tree(splits))
        if i not in dropped
    }


BOUNDARY_KEYS = [0.0, 0.5, 0.25, 0.75, 0.9, 1 - 2**-53]

probe_keys = st.one_of(
    st.sampled_from(BOUNDARY_KEYS),
    st.integers(min_value=0, max_value=2**20 - 1).map(lambda n: n / 2**20),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
#: Past 65, ``key_bits`` takes its exact ``Fraction`` path.
max_depths = st.one_of(
    st.integers(min_value=1, max_value=30), st.integers(min_value=60, max_value=90)
)
trees = st.lists(st.integers(min_value=0, max_value=2**30), max_size=60)
drops = st.sets(st.integers(min_value=0, max_value=60), max_size=3)


class TestKernels:
    """``f_n``/``f_nn`` on bits agree with the ``Label`` API."""

    def test_paper_examples(self):
        assert naming_bits("01100") == "011"  # f_n(#01100) = #011
        assert naming(Label.parse("#01100")) == Label.parse("#011")
        # f_nn(#0011, #0011100) = #001110
        assert next_naming_depth("0011100", 4) == len("001110")
        assert next_naming(
            Label.parse("#0011"), Label.parse("#0011100")
        ) == Label.parse("#001110")

    def test_edge_cases(self):
        assert naming_bits("0000") == "" and naming_bits("01111") == "0"
        assert next_naming_depth("0011", 0) == 3  # from #, the first 1
        assert next_naming_depth("0101", 2) == 3  # the very next bit
        assert next_naming_depth("01111", 2) == 0  # no next name
        assert next_naming_depth("0110", 4) == 0  # x is all of μ

    @given(
        st.text(alphabet="01", max_size=30).map(lambda tail: "0" + tail),
        st.integers(min_value=0, max_value=31),
    )
    def test_agree_with_the_definitions(self, mu, depth):
        depth = min(depth, len(mu))
        x = Label(mu[:depth])
        if depth:
            assert naming_bits(x.bits) == paper_naming(x).bits
            assert naming(x) == paper_naming(x)
        try:
            expected = paper_next_naming(x, Label(mu))
        except LabelError:
            assert next_naming_depth(mu, depth) == 0
            with pytest.raises(LabelError):
                next_naming(x, Label(mu))
        else:
            assert next_naming_depth(mu, depth) == expected.depth
            assert next_naming(x, Label(mu)) == expected


class TestEquivalence:
    @given(trees, drops, probe_keys, max_depths)
    def test_lookup_plan(self, splits, dropped, key, max_depth):
        store = stored_tree(splits, dropped)
        config = IndexConfig(max_depth=max_depth)
        names, result = drive(lookup_plan(config, key), store)
        ref_names, ref = drive(reference_plan(max_depth, key), store)
        assert names == ref_names
        assert result.probed == tuple(names)
        assert (result.bucket, result.name, result.dht_lookups) == ref
        if result.name is not None:
            assert type(result.name) is Label

    @given(
        trees,
        drops,
        probe_keys,
        max_depths,
        st.one_of(st.none(), st.integers(min_value=1, max_value=26)),
    )
    def test_cached_plan(self, splits, dropped, key, max_depth, depth):
        """A hit (the cached label is the covering leaf) and a stale
        entry (any other label covering ``key``) alike."""
        store = stored_tree(splits, dropped)
        leaf = next(leaf for leaf in grow_tree(splits) if leaf.contains(key))
        candidate = leaf if depth is None else label_for_key(key, depth)
        cache = LeafCache()
        cache.store(candidate)
        config = IndexConfig(max_depth=max_depth)
        names, result = drive(
            cached_plan(config, cache, MetricsRecorder(), key), store
        )
        if candidate.depth > max_depth:
            # Not on μ(δ, D): the cache cannot offer it; a plain search.
            ref_names, ref = drive(reference_plan(max_depth, key), store)
        else:
            probe = str(paper_naming(candidate))
            bucket = store.get(probe)
            if isinstance(bucket, LeafBucket) and bucket.contains_key(key):
                ref_names, ref = [probe], (bucket, paper_naming(candidate), 1)
            else:
                ref_names, (found, name, lookups) = drive(
                    reference_plan(max_depth, key), store
                )
                ref_names, ref = [probe, *ref_names], (found, name, lookups + 1)
        assert names == ref_names
        assert (result.bucket, result.name, result.dht_lookups) == ref

    @given(trees, drops, probe_keys, max_depths)
    def test_linear_walk(self, splits, dropped, key, max_depth):
        dht = LocalDHT(4, 0)
        for name, bucket in stored_tree(splits, dropped).items():
            dht.put(name, bucket)
        result = lht_lookup_linear(dht, IndexConfig(max_depth=max_depth), key)
        names, ref = reference_linear(dht.peek, max_depth, key)
        assert result.probed == tuple(names)
        assert (result.bucket, result.name, result.dht_lookups) == ref


class TestNoLabelPerProbe:
    """A lookup builds at most one ``Label``: its converged name."""

    @pytest.fixture
    def index(self):
        index = LHTIndex(LocalDHT(16, 0), IndexConfig(theta_split=4, max_depth=20))
        for i in range(200):
            index.insert((i * 0.618034) % 1.0)
        return index

    @pytest.fixture
    def labels_built(self, monkeypatch):
        count = [0]
        init = Label.__init__

        def counting_init(self, bits):
            count[0] += 1
            init(self, bits)

        monkeypatch.setattr(Label, "__init__", counting_init)
        return count

    def test_converged_lookup(self, index, labels_built):
        for key in (0.0, 0.1234, 0.5, 0.9, 1 - 2**-53):
            before = labels_built[0]
            result = index.lookup(key)
            assert result.found
            assert labels_built[0] - before <= 1

    def test_unconverged_lookup(self, index, labels_built):
        index.dht.remove(str(index.lookup(0.3).name))  # lose the leaf
        before = labels_built[0]
        assert not index.lookup(0.3).found
        assert labels_built[0] == before
