"""Int-bitmask coverage bookkeeping at n=130 controllers.

Signer and coverage sets are Python ints with bit j standing for
controller j.  130 controllers put the masks across a 64-bit word
boundary with a partial top word, where a packed-array encoding would be
most likely to drop or misplace a bit.  The layer is driven directly with
a stub crypto handle that accepts every aggregate, so only the set
algebra is under test.
"""

import pytest

from repro.core.config import ReboundConfig
from repro.core.forwarding import ForwardingLayer, _AggregateState
from repro.core.heartbeat import AggregateHeartbeat, CoverageCalculator, mask_members
from repro.net.topology import Topology

N = 130
HUB = 0
LEAF = 1
ALL = (1 << N) - 1
D_MAX = 2


def _star(n: int = N) -> Topology:
    topo = Topology()
    for node in range(n):
        topo.add_node(node)
    for leaf in range(1, n):
        topo.add_link(HUB, leaf)
    return topo


class _AcceptAllCrypto:
    """Every aggregate verifies; combining just adds the values."""

    def ms_verify_batch(self, entries):
        return [True] * len(entries)

    def ms_combine(self, a, b):
        return a + b


@pytest.fixture(scope="module")
def topo():
    return _star()


def _layer(topo, node_id=LEAF) -> ForwardingLayer:
    config = ReboundConfig(
        fmax=0, fconc=0, variant="multi", d_max=D_MAX, quotas_enabled=False
    )
    layer = ForwardingLayer(
        node_id=node_id, topology=topo, config=config,
        crypto=_AcceptAllCrypto(), verifier=None,
        on_new_evidence=lambda items: None, on_packet=lambda *a: None,
    )
    layer.start(0)
    return layer


class TestCoverageMasks:
    def test_support_mask_matches_support_set(self, topo):
        calc = CoverageCalculator(
            {n: topo.neighbors(n) for n in topo.nodes}, max_age=D_MAX
        )
        assert calc.support_mask(LEAF, 0) == 1 << LEAF
        assert calc.support_mask(LEAF, 1) == (1 << LEAF) | (1 << HUB)
        assert calc.support_mask(LEAF, D_MAX) == ALL
        assert calc.support_mask(HUB, 1) == ALL
        for node in (0, 63, 64, 129):
            for age in range(D_MAX + 1):
                assert mask_members(calc.support_mask(node, age)) == calc.support(
                    node, age
                )
        assert calc.full_support(129) == frozenset(range(N))

    @pytest.mark.parametrize("missing", [0, 63, 64, 129])
    def test_missing_origin_is_a_shortfall(self, topo, missing):
        layer = _layer(topo)
        layer._mark_delivered(HUB, 5, ALL & ~(1 << missing))
        assert layer._coverage_shortfall(HUB, 5)

    def test_complete_delivery_is_not_a_shortfall(self, topo):
        layer = _layer(topo)
        # Delivered in pieces, split across the word boundary.
        layer._mark_delivered(HUB, 5, (1 << 64) - 1)
        layer._mark_delivered(HUB, 5, ALL >> 64 << 64)
        assert not layer._coverage_shortfall(HUB, 5)

    def test_nothing_delivered_is_a_shortfall(self, topo):
        layer = _layer(topo)
        assert layer._coverage_shortfall(HUB, 5)


class TestAggregateGrowth:
    def _deliver(self, layer, age, r_origin=3):
        """Hand the layer one aggregate of ``r_origin`` from the hub at
        ``age`` (the layer's round is set to match)."""
        layer.begin_round(r_origin + 1 + age)
        agg = AggregateHeartbeat(
            round_no=r_origin, sig_value=1, epoch_digest=layer.epoch_digest
        )
        assert layer._process_aggregates(HUB, (agg,))

    def test_grew_set_exactly_when_new_bits_appear(self, topo):
        layer = _layer(topo)
        state = _AggregateState(value=1, support=1 << LEAF, grew=False)
        layer._aggregates[3] = state
        self._deliver(layer, age=0)  # adds the hub (bit 0)
        assert state.grew and state.support == (1 << LEAF) | 1
        assert state.value == 2

        state.grew = False
        self._deliver(layer, age=0)  # same signers again: no new bits
        assert not state.grew
        assert state.value == 3  # still combined (multiplicities change)

        self._deliver(layer, age=1)  # the hub's full star, bits 0..129
        assert state.grew and state.support == ALL

        state.grew = False
        self._deliver(layer, age=1)
        assert not state.grew

    def test_growth_across_the_word_boundary_only(self, topo):
        """A support holding every bit below 64 still grows on bit 64."""
        layer = _layer(topo)
        state = _AggregateState(
            value=1, support=((1 << 64) - 1) & ~1, grew=False
        )
        layer._aggregates[3] = state
        self._deliver(layer, age=1)
        assert state.grew and state.support == ALL

    def test_delivered_map_folds_aggregate_support(self, topo):
        layer = _layer(topo)
        self._deliver(layer, age=1)
        assert layer._delivered[HUB][3] == ALL
        assert not layer._coverage_shortfall(HUB, 3)
