"""Unit tests for the shared traversal kernel itself.

The differential suite (``tests/property/test_kernel_unification.py``)
pins the three engine adapters to each other; this module tests the
kernel's own contracts directly: arrival-log overlay injection, the
scalar/vector cutover, the unified out-of-range seed validation, the
weighted bit-plane fold, the leveled sweep's hop histograms, the sweep
sampler's records, the per-plane bit counter, and the transpose helper.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    PLANE_WIDTH,
    ArrivalLog,
    LogOverlay,
    TraversalKernel,
    build_transpose,
    dense_weight_sum,
    seed_range_error,
)
from repro.kernels import traversal
from repro.kernels.folds import HopDiscountFold
from repro.kernels.traversal import plane_popcounts, set_sweep_sampler


def chain_arrays(num_nodes=5, expiry=10.0):
    """A simple path 0 -> 1 -> ... -> num_nodes-1 in CSR form."""
    indptr = np.minimum(np.arange(num_nodes + 1, dtype=np.int64), num_nodes - 1)
    indices = np.arange(1, num_nodes, dtype=np.int64)
    expiries = np.full(num_nodes - 1, expiry, dtype=np.float64)
    return indptr, indices, expiries


def log_overlay(rows, reverse=False):
    """A :class:`LogOverlay` over an arrival log holding ``rows``."""
    log = ArrivalLog()
    log.extend(
        [u for u, _, _ in rows], [v for _, v, _ in rows], [e for _, _, e in rows]
    )
    return LogOverlay(log, reverse)


def merge_arrays():
    """Base pairs 0->1, 0->2, 1->3, 3->4 (expiry 10) and 4->5 (expiry 2),
    plus log rows 2->3 (expiry 9) and 4->5 (expiry 3).  At horizon 5 the
    frontier {1, 2} reaches 3 twice in one round, through 1's base slot
    and through 2's log row, and node 5 stays out of reach."""
    indptr = np.array([0, 2, 3, 3, 4, 5, 5], dtype=np.int64)
    indices = np.array([1, 2, 3, 4, 5], dtype=np.int64)
    expiries = np.array([10.0, 10.0, 10.0, 10.0, 2.0])
    return indptr, indices, expiries, [(2, 3, 9.0), (4, 5, 3.0)]


def merge_kernel(scalar_limit=None):
    indptr, indices, expiries, rows = merge_arrays()
    return TraversalKernel(
        indptr,
        indices,
        expiries,
        num_nodes=6,
        overlay=log_overlay(rows),
        scalar_limit=scalar_limit,
    )


class TestOverlayInjection:
    def test_dict_overlay_extends_base_reach(self):
        indptr, indices, expiries = chain_arrays(4)
        kernel = TraversalKernel(
            indptr,
            indices,
            expiries,
            num_nodes=6,  # ids 4 and 5 exist only through the overlay
            overlay=log_overlay([(3, 4, 9.0), (4, 5, 9.0)]),
        )
        assert kernel.reachable_ids([0], None) == {0, 1, 2, 3, 4, 5}
        assert kernel.reachable_count([0], None) == 6
        assert kernel.spread_counts([[0], [4], []], None) == [6, 2, 0]

    def test_overlay_entries_respect_horizon(self):
        indptr, indices, expiries = chain_arrays(3)
        kernel = TraversalKernel(
            indptr,
            indices,
            expiries,
            num_nodes=4,
            overlay=log_overlay([(2, 3, 5.0)]),
        )
        assert 3 in kernel.reachable_ids([0], 5.0)
        assert 3 not in kernel.reachable_ids([0], 5.5)
        assert kernel.spread_counts([[0]], 5.5) == [3]

    def test_custom_overlay_object_plugs_in(self):
        """Anything with size/rows/since works — the injection is the log
        protocol, not a class check."""

        class EveryNodeLoopsTo(object):
            def __init__(self, target, num_nodes):
                self.target = target
                self.size = num_nodes

            def rows(self):
                heads = np.arange(self.size, dtype=np.int64)
                tails = np.full(self.size, self.target, dtype=np.int64)
                return heads, tails, np.full(self.size, np.inf)

            def since(self, start):
                return [(node, self.target, np.inf) for node in range(start, self.size)]

        indptr, indices, expiries = chain_arrays(3)
        kernel = TraversalKernel(
            indptr, indices, expiries, overlay=EveryNodeLoopsTo(0, 3)
        )
        # Every node reaches back to 0, so 2 reaches {2, 0, 1}.
        assert kernel.reachable_ids([2], None) == {0, 1, 2}
        # Scalar path honors the same overlay protocol.
        kernel.scalar_limit = 10**9
        assert kernel.reach_scalar([2], None) == {0, 1, 2}

    def test_overlay_serves_ids_past_the_base_arrays(self):
        indptr, indices, expiries = chain_arrays(3)
        kernel = TraversalKernel(
            indptr,
            indices,
            expiries,
            num_nodes=5,
            overlay=log_overlay([(4, 0, 9.0)]),
        )
        # Seed 4 has no base adjacency slice at all; only the overlay
        # knows it, and the sweep must not index past the base arrays.
        assert kernel.reachable_ids([4], None) == {4, 0, 1, 2}
        assert kernel.spread_counts([[4]], None) == [4]


class TestScalarVectorCutover:
    def test_resolver_none_means_always_vectorized(self):
        indptr, indices, expiries = chain_arrays(4)
        kernel = TraversalKernel(indptr, indices, expiries)
        assert kernel.scalar_limit == -1
        assert not kernel._use_scalar()  # noqa: SLF001 - the cutover itself
        kernel.entry_count = 0
        assert not kernel._use_scalar()  # noqa: SLF001

    def test_resolver_flips_the_path_per_query(self):
        indptr, indices, expiries = chain_arrays(6)
        kernel = TraversalKernel(indptr, indices, expiries, scalar_limit=0)
        assert not kernel._use_scalar()  # noqa: SLF001
        kernel.scalar_limit = 10**9
        assert kernel._use_scalar()  # noqa: SLF001
        kernel.entry_count = 10**9 + 1
        assert not kernel._use_scalar()  # noqa: SLF001

    def test_both_paths_are_result_identical(self):
        rng = np.random.default_rng(5)
        num_nodes, num_pairs = 40, 160
        sources = np.sort(rng.integers(0, num_nodes, num_pairs))
        indices = rng.integers(0, num_nodes, num_pairs)
        expiries = rng.uniform(1.0, 20.0, num_pairs)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=num_nodes), out=indptr[1:])
        kernel = TraversalKernel(indptr, indices.astype(np.int64), expiries)
        weights = rng.uniform(0.0, 3.0, num_nodes)
        for eff in (None, 5.0, 15.0):
            seeds = [0, 3, 7]
            assert kernel.reach_scalar(seeds, eff) == kernel.reach_vector(seeds, eff)
            id_sets = [[i] for i in range(num_nodes)] + [[0, 1, 2]]
            vector_counts = kernel.spread_counts(id_sets, eff)
            vector_sums = kernel.weighted_spread_sums(id_sets, eff, weights)
            kernel.scalar_limit = 10**9  # force scalar
            assert kernel.spread_counts(id_sets, eff) == vector_counts
            assert kernel.weighted_spread_sums(id_sets, eff, weights) == vector_sums
            kernel.scalar_limit = -1


class TestUnifiedSeedValidation:
    """Every path raises the one shared out-of-range message."""

    def expected(self, bad, num_nodes):
        return str(seed_range_error(bad, num_nodes))

    @pytest.mark.parametrize("bad", [-1, 99])
    def test_vector_scalar_and_bitplane_agree(self, bad):
        indptr, indices, expiries = chain_arrays(4)
        kernel = TraversalKernel(indptr, indices, expiries)
        messages = set()
        for call in (
            lambda: kernel.reach_vector([bad], None),
            lambda: kernel.reach_scalar([bad], None),
            lambda: kernel.reachable_count([bad], None),
            lambda: kernel.spread_counts([[bad]], None),
            lambda: kernel.weighted_spread_sums(
                [[bad]], None, np.ones(4, dtype=np.float64)
            ),
        ):
            with pytest.raises(IndexError) as excinfo:
                call()
            messages.add(str(excinfo.value))
        assert messages == {self.expected(bad, 4)}

    def test_valid_seeds_before_the_bad_one_do_not_mask_it(self):
        indptr, indices, expiries = chain_arrays(4)
        kernel = TraversalKernel(indptr, indices, expiries)
        with pytest.raises(IndexError):
            kernel.reachable_ids([0, 1, 4], None)


class TestWeightedFold:
    def test_weighted_sums_match_per_set_reachable_fold(self):
        rng = np.random.default_rng(11)
        num_nodes, num_pairs = 30, 90
        sources = np.sort(rng.integers(0, num_nodes, num_pairs))
        indices = rng.integers(0, num_nodes, num_pairs).astype(np.int64)
        expiries = rng.uniform(1.0, 12.0, num_pairs)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=num_nodes), out=indptr[1:])
        kernel = TraversalKernel(indptr, indices, expiries)
        weights = rng.uniform(0.0, 5.0, num_nodes)
        id_sets = [[i] for i in range(num_nodes)] + [[0, 5, 9], []]
        for eff in (None, 6.0):
            sums = kernel.weighted_spread_sums(id_sets, eff, weights)
            expected = [
                dense_weight_sum(weights, kernel.reachable_ids(ids, eff))
                for ids in id_sets
            ]
            assert sums == expected  # bit-identical, not approx

    def test_more_than_one_plane_chunk(self):
        num_nodes = PLANE_WIDTH + 20
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)  # edgeless graph
        kernel = TraversalKernel(
            indptr, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        )
        weights = np.arange(num_nodes, dtype=np.float64)
        id_sets = [[i] for i in range(num_nodes)]
        assert kernel.spread_counts(id_sets, None) == [1] * num_nodes
        assert kernel.weighted_spread_sums(id_sets, None, weights) == [
            float(i) for i in range(num_nodes)
        ]

    def test_dense_weight_sum_is_order_canonical(self):
        weights = np.array([0.1, 0.2, 0.3, 0.4])
        a = dense_weight_sum(weights, {3, 0, 2})
        b = dense_weight_sum(weights, [2, 3, 0])
        c = dense_weight_sum(weights, (0, 2, 3))
        assert a == b == c
        assert dense_weight_sum(weights, []) == 0.0


class TestPlanePopcounts:
    @staticmethod
    def per_plane_loop(masks, planes):
        """The one-``count_nonzero``-per-plane reference."""
        return [
            int(np.count_nonzero(masks & np.uint64(1 << plane)))
            for plane in range(planes)
        ]

    @pytest.mark.parametrize("planes", [1, 7, 8, 9, 33, PLANE_WIDTH])
    def test_matches_the_per_plane_loop(self, planes):
        rng = np.random.default_rng(planes)
        masks = rng.integers(0, 2**63, size=300, dtype=np.uint64)
        masks[::5] |= np.uint64(1 << 63)
        assert plane_popcounts(masks, planes) == self.per_plane_loop(masks, planes)

    def test_bit_columns_do_not_depend_on_byte_order(self):
        masks = np.array([1, 1 << 9, (1 << 63) | 1], dtype=np.uint64)
        big_endian = masks.astype(">u8")
        expected = [2] + [0] * 8 + [1] + [0] * 53 + [1]
        assert plane_popcounts(masks, PLANE_WIDTH) == expected
        assert plane_popcounts(big_endian, PLANE_WIDTH) == expected

    def test_empty_masks_count_zero(self):
        assert plane_popcounts(np.empty(0, dtype=np.uint64), 3) == [0, 0, 0]


class TestTransposeAndCapacity:
    def test_build_transpose_round_trips_edges(self):
        rng = np.random.default_rng(3)
        num_nodes, num_pairs = 12, 40
        sources = np.sort(rng.integers(0, num_nodes, num_pairs))
        indices = rng.integers(0, num_nodes, num_pairs).astype(np.int64)
        expiries = rng.uniform(1.0, 9.0, num_pairs)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=num_nodes), out=indptr[1:])
        tindptr, tindices, texpiries = build_transpose(
            indptr, indices, expiries
        )
        forward = set()
        for u in range(num_nodes):
            for slot in range(indptr[u], indptr[u + 1]):
                forward.add((u, int(indices[slot]), float(expiries[slot])))
        backward = set()
        for v in range(num_nodes):
            for slot in range(tindptr[v], tindptr[v + 1]):
                backward.add((int(tindices[slot]), v, float(texpiries[slot])))
        assert forward == backward

    @settings(max_examples=80, deadline=None)
    @given(
        num_nodes=st.integers(1, 40),
        data=st.data(),
    )
    def test_build_transpose_matches_stable_target_sort(self, num_nodes, data):
        """On unique (source, target) rows, the combined-key sort gives
        the arrays a stable argsort of the targets gives."""
        pairs = sorted(
            data.draw(
                st.sets(
                    st.tuples(
                        st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)
                    ),
                    max_size=120,
                )
            )
        )
        sources = np.asarray([u for u, _ in pairs], dtype=np.int64)
        indices = np.asarray([v for _, v in pairs], dtype=np.int64)
        expiries = np.asarray(
            data.draw(
                st.lists(
                    st.floats(1.0, 50.0), min_size=len(pairs), max_size=len(pairs)
                )
            ),
            dtype=np.float64,
        )
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=num_nodes), out=indptr[1:])

        tindptr, tindices, texpiries = build_transpose(indptr, indices, expiries)

        order = np.argsort(indices, kind="stable")
        counts = np.bincount(indices, minlength=num_nodes)
        np.testing.assert_array_equal(tindptr[1:], np.cumsum(counts))
        assert tindptr[0] == 0
        np.testing.assert_array_equal(tindices, sources[order])
        np.testing.assert_array_equal(texpiries, expiries[order])

    def test_build_transpose_empty(self):
        tindptr, tindices, texpiries = build_transpose(
            np.zeros(5, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
        assert tindptr.tolist() == [0] * 5
        assert tindices.size == 0 and texpiries.size == 0

    def test_ensure_capacity_grows_the_id_space(self):
        indptr, indices, expiries = chain_arrays(3)
        kernel = TraversalKernel(indptr, indices, expiries)
        with pytest.raises(IndexError):
            kernel.reachable_ids([5], None)
        kernel.ensure_capacity(8)
        assert kernel.num_nodes == 8
        assert kernel.reachable_ids([5], None) == {5}  # isolated id
        kernel.ensure_capacity(4)  # shrinking is a no-op
        assert kernel.num_nodes == 8


class TestLeveledSweep:
    """One chunk: set {0} reaches 3 through a base slot and a log row in
    the same round; plane {3} already holds bits when the first plane's
    bits arrive and stops two rounds early; plane {1, 2} has both copies
    of node 3 in its first round; the empty set's plane never flips."""

    ID_SETS = [[0], [], [3], [1, 2]]
    LEVELS = [
        {0: 0, 1: 1, 2: 1, 3: 2, 4: 3},
        {},
        {3: 0, 4: 1},
        {1: 0, 2: 0, 3: 1, 4: 2},
    ]
    HISTOGRAMS = [[1, 2, 1, 1], [], [1, 1], [2, 1, 1]]
    EFF = 5.0

    def test_vector_histograms_equal_the_scalar_walk_and_the_reference(self):
        vector = merge_kernel()
        scalar = merge_kernel(scalar_limit=10**9)
        assert not vector._use_scalar() and scalar._use_scalar()  # noqa: SLF001
        assert vector.spread_level_counts(self.ID_SETS, self.EFF) == self.HISTOGRAMS
        assert scalar.spread_level_counts(self.ID_SETS, self.EFF) == self.HISTOGRAMS
        fold = HopDiscountFold(alpha=0.5)
        expected = [fold.reference(levels) for levels in self.LEVELS]
        assert fold.batch(vector, self.ID_SETS, self.EFF) == expected
        assert fold.batch(scalar, self.ID_SETS, self.EFF) == expected
        assert vector.spread_counts(self.ID_SETS, self.EFF) == [
            sum(levels) for levels in self.HISTOGRAMS
        ]

    def test_levels_do_not_depend_on_the_chunk(self):
        kernel = merge_kernel()
        for id_sets in (self.ID_SETS[::-1], [[]] * 63 + self.ID_SETS):
            expected = {
                tuple(ids): levels
                for ids, levels in zip(self.ID_SETS, self.HISTOGRAMS)
            }
            assert kernel.spread_level_counts(id_sets, self.EFF) == [
                expected[tuple(ids)] for ids in id_sets
            ]


class RecordingSampler:
    def __init__(self):
        self.records = []

    def record(self, kind, sets, reached):
        self.records.append((kind, sets, reached))


@pytest.fixture
def recorded():
    previous = traversal._SWEEP_SAMPLER  # noqa: SLF001 - restored below
    sampler = RecordingSampler()
    set_sweep_sampler(sampler)
    yield sampler.records
    set_sweep_sampler(previous)


class TestSweepRecords:
    def test_one_record_per_swept_chunk(self, recorded):
        kernel = merge_kernel()
        id_sets = [[0]] * PLANE_WIDTH + [[]] * 3  # the second chunk is empty
        kernel.spread_counts(id_sets, 5.0)
        kernel.weighted_spread_sums(id_sets, 5.0, np.ones(6))
        kernel.spread_level_counts(id_sets, 5.0)
        assert recorded == [
            ("spread", PLANE_WIDTH, 5),
            ("wspread", PLANE_WIDTH, 5),
            ("spread_levels", PLANE_WIDTH, 5 * PLANE_WIDTH),
        ]

    def test_an_all_empty_request_records_nothing(self, recorded):
        kernel = merge_kernel()
        assert kernel.spread_counts([[], []], None) == [0, 0]
        assert kernel.weighted_spread_sums([[]], None, np.ones(6)) == [0.0]
        assert kernel.spread_level_counts([[], [], []], None) == [[], [], []]
        assert kernel.reachable_count([], None) == 0
        assert kernel.reach_vector([], None) == set()
        assert recorded == []

    def test_reach_records_once(self, recorded):
        kernel = merge_kernel()
        assert kernel.reachable_count([0], 5.0) == 5
        assert kernel.reach_vector([0, 1], 5.0) == {0, 1, 2, 3, 4}
        assert recorded == [("reach", 1, 5), ("reach", 1, 5)]
