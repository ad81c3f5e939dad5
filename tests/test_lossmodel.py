"""Burst/loss model: slacks, train volumes, drop attribution."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.lossmodel import (
    BurstModel,
    COPY_MODE_SLACK,
    IN_PLACE_LANES,
    TRAIN_FRACTION,
    concentrate_drops,
)


def model(seed=0) -> BurstModel:
    return BurstModel(rng=np.random.default_rng(seed))


def trains(m: BurstModel, slacks, cwnd) -> np.ndarray:
    """One tick's packet-train volumes (unit persistent weights)."""
    return m.tick_draw(np.ones(slacks.size), slacks, cwnd)[2]


class TestSlack:
    def test_fq_paced_flows_have_no_slack(self):
        m = model()
        assert m.slack_for(paced_smooth=True, pacing_enabled=True, zerocopy=True) == 0.0

    def test_unpaced_zerocopy_is_burstiest(self):
        m = model()
        zc = m.slack_for(False, False, True)
        copy = m.slack_for(False, False, False)
        assert zc == 1.0 and copy == COPY_MODE_SLACK < zc

    def test_coarse_pacing_partial_slack(self):
        m = model()
        coarse = m.slack_for(paced_smooth=False, pacing_enabled=True, zerocopy=False)
        assert 0 < coarse < 1


class TestTrainVolumes:
    def test_scale_with_cwnd_and_slack(self):
        m = model()
        cwnd = np.array([1e8, 1e8])
        slacks = np.array([1.0, 0.3])
        vols = np.array([trains(m, slacks, cwnd) for _ in range(500)]).mean(axis=0)
        assert vols[0] == pytest.approx(TRAIN_FRACTION * 1e8, rel=0.1)
        assert vols[1] == pytest.approx(0.3 * TRAIN_FRACTION * 1e8, rel=0.1)

    def test_paced_flows_emit_nothing(self):
        m = model()
        vols = trains(m, np.zeros(4), np.full(4, 1e9))
        assert np.all(vols == 0)

    def test_empty(self):
        assert trains(model(), np.zeros(0), np.zeros(0)).size == 0

    def test_deterministic_per_seed(self):
        a = trains(model(7), np.ones(3), np.full(3, 1e8))
        b = trains(model(7), np.ones(3), np.full(3, 1e8))
        assert np.array_equal(a, b)

    def test_tick_draw_is_tick_volumes_of_its_normals(self):
        """Both engines share tick_volumes: the fused draw is z[0] for
        the rx noise, then the weight and train normals, bit for bit."""
        persistent = model(3).persistent_weights(np.ones(5))
        slacks = np.array([1.0, 0.3, 0.0, 0.35, 1.0])
        cwnd = np.array([1e8, 2e7, 5e8, 3e6, 1e9])
        z_noise, w, t = model(9).tick_draw(persistent, slacks, cwnd)
        z = np.random.default_rng(9).standard_normal(11)
        w2, t2 = model().tick_volumes(persistent, slacks, cwnd, z[1:])
        assert z_noise == z[0]
        assert w.tobytes() == w2.tobytes() and t.tobytes() == t2.tobytes()
        # ...and the one fused exp keeps the bits of one per half.
        sigma, tw = BurstModel.sigma, BurstModel.TICK_WEIGHT_SIGMA
        w_ref = persistent * (1.0 + slacks * (np.exp(tw * z[1:6]) - 1.0))
        x_ref = np.exp(-sigma**2 / 2.0 + sigma * z[6:])
        t_ref = slacks * x_ref * TRAIN_FRACTION * cwnd
        assert w.tobytes() == w_ref.tobytes() and t.tobytes() == t_ref.tobytes()

    def test_in_place_tick_volumes_keep_the_bits(self):
        """Wide lane sets compute in place; the factors and their order,
        hence every bit, are those of the expression form."""
        n = IN_PLACE_LANES + 3
        rng = np.random.default_rng(4)
        persistent = 1.0 + rng.random(n)
        slacks = rng.choice([0.0, 0.3, 0.35, 1.0], size=n)
        cwnd = 10.0 ** rng.uniform(5, 9, size=n)
        z = rng.standard_normal(2 * n)
        w, t = model().tick_volumes(persistent, slacks, cwnd, z)
        sigma, tw = BurstModel.sigma, BurstModel.TICK_WEIGHT_SIGMA
        w_ref = persistent * (1.0 + slacks * (np.exp(tw * z[:n]) - 1.0))
        t_ref = slacks * np.exp(-sigma**2 / 2.0 + sigma * z[n:]) * TRAIN_FRACTION * cwnd
        assert w.tobytes() == w_ref.tobytes() and t.tobytes() == t_ref.tobytes()


class TestWeights:
    def test_paced_weights_are_uniform(self):
        m = model()
        w = m.persistent_weights(np.zeros(8))
        assert np.allclose(w, 1.0)

    def test_unpaced_weights_spread(self):
        m = model()
        w = m.persistent_weights(np.ones(8))
        assert w.max() / w.min() > 1.1

    def test_tick_weights_jitter_around_persistent(self):
        m = model()
        persistent = m.persistent_weights(np.ones(8))
        ticks = np.array([
            m.tick_draw(persistent, np.ones(8), np.full(8, 1e8))[1]
            for _ in range(200)
        ])
        assert np.allclose(ticks.mean(axis=0), persistent, rtol=0.1)


class TestDropAttribution:
    def test_concentrate_conserves_volume(self):
        rng = np.random.default_rng(0)
        arrivals = np.array([1.0, 2.0, 3.0, 4.0])
        drops = concentrate_drops(rng, arrivals, 10.0)
        assert drops.sum() == pytest.approx(10.0)

    def test_concentrate_hits_few_flows(self):
        rng = np.random.default_rng(0)
        drops = concentrate_drops(rng, np.ones(8), 8.0, spread=2)
        assert np.count_nonzero(drops) == 2

    def test_concentrate_single_flow(self):
        rng = np.random.default_rng(0)
        drops = concentrate_drops(rng, np.array([5.0]), 2.0)
        assert drops[0] == pytest.approx(2.0)

    def test_concentrate_prefers_big_flows(self):
        rng = np.random.default_rng(0)
        arrivals = np.array([100.0, 1.0, 1.0, 1.0])
        hit_big = sum(
            concentrate_drops(rng, arrivals, 1.0, spread=1)[0] > 0
            for _ in range(200)
        )
        assert hit_big > 150  # ~97% expected

    @settings(max_examples=50)
    @given(
        st.lists(st.floats(min_value=0.1, max_value=1e9), min_size=1, max_size=12),
        st.floats(min_value=0, max_value=1e9),
    )
    def test_concentrate_conservation_property(self, arrivals, dropped):
        rng = np.random.default_rng(1)
        drops = concentrate_drops(rng, np.array(arrivals), dropped)
        assert drops.sum() == pytest.approx(dropped, rel=1e-9, abs=1e-9)
        assert np.all(drops >= 0)
