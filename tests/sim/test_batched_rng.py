"""Draw-sequence equivalence for the block-filled samplers.

The batched samplers in :mod:`repro.sim.randomness` exist purely as a
performance device: a block fill must consume the generator's bitstream
exactly as the scalar calls it replaced did, so switching a stream to a
batcher changes no experiment output.  Each test here drives a batched
sampler and an identically seeded scalar generator well past several
refill boundaries and asserts bit-exact equality — including the
end-to-end delay/loss models, compared against the formulas the
pre-batching code used verbatim.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.net.delay import ParetoDelay, pareto_shape_for_cv
from repro.net.loss import LossConfig, LossModel
from repro.net.topology import Topology
from repro.sim.randomness import (
    BatchedGeometric,
    BatchedStandardExponential,
    BatchedUniform,
)

SEEDS = (0, 1, 42, 20220527)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# ----------------------------------------------------------------------
# Raw sampler equivalence, across refill boundaries


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("block_size", (1, 2, 7, 64))
def test_batched_uniform_matches_scalar_sequence(seed, block_size):
    scalar = _rng(seed)
    batched = BatchedUniform(_rng(seed), block_size=block_size)
    # 5x the block size: several refills, plus a partial final block.
    draws = 5 * block_size + 3
    for _ in range(draws):
        assert batched.random() == float(scalar.random())


def test_batched_uniform_default_block_crosses_refill():
    scalar = _rng(9)
    batched = BatchedUniform(_rng(9))  # default block size
    for _ in range(2 * 4096 + 17):
        assert batched.random() == float(scalar.random())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("block_size", (1, 3, 16))
def test_batched_standard_exponential_matches_scalar_sequence(
    seed, block_size
):
    scalar = _rng(seed)
    batched = BatchedStandardExponential(_rng(seed), block_size=block_size)
    for _ in range(5 * block_size + 2):
        assert batched.next() == float(scalar.standard_exponential())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", (0.5, 0.95, 0.999))
def test_batched_geometric_matches_scalar_sequence(seed, p):
    scalar = _rng(seed)
    batched = BatchedGeometric(_rng(seed), p, block_size=5)
    for _ in range(23):
        assert batched.next() == int(scalar.geometric(p))


# ----------------------------------------------------------------------
# The numpy identities the batchers lean on: derived distributions are
# exact transforms of the raw stream, not independently sampled.


@pytest.mark.parametrize("seed", SEEDS)
def test_exponential_is_scale_times_standard_exponential(seed):
    """``rng.exponential(scale)`` == ``scale * standard_exponential()``
    bit-for-bit — what lets the client's open loop batch its gaps."""
    direct = _rng(seed)
    batched = BatchedStandardExponential(_rng(seed), block_size=8)
    for scale in (0.001, 0.25, 1.0, 40.0) * 5:
        assert batched.next() * scale == float(direct.exponential(scale))


@pytest.mark.parametrize("seed", SEEDS)
def test_pareto_is_expm1_of_standard_exponential(seed):
    """``rng.pareto(a)`` == ``expm1(standard_exponential() / a)`` —
    what lets one exponential block serve every Pareto shape."""
    direct = _rng(seed)
    batched = BatchedStandardExponential(_rng(seed), block_size=8)
    for alpha in (1.5, 2.3, 3.8, 7.0) * 5:
        assert math.expm1(batched.next() / alpha) == float(
            direct.pareto(alpha)
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_zero_to_high_is_high_times_random(seed):
    """``rng.uniform(0, h)`` == ``h * rng.random()`` bit-for-bit."""
    direct = _rng(seed)
    batched = BatchedUniform(_rng(seed), block_size=8)
    for high in (0.02, 0.5, 3.0) * 7:
        assert high * batched.random() == float(direct.uniform(0.0, high))


# ----------------------------------------------------------------------
# End-to-end models vs the exact pre-batching formulas


def _topology() -> Topology:
    return Topology(
        "three-dc",
        datacenters=("dc-a", "dc-b", "dc-c"),
        rtt_ms={
            ("dc-a", "dc-b"): 40.0,
            ("dc-a", "dc-c"): 90.0,
            ("dc-b", "dc-c"): 60.0,
        },
        jitter_scale={("dc-a", "dc-c"): 2.0},
    )


PAIRS = (("dc-a", "dc-b"), ("dc-a", "dc-c"), ("dc-b", "dc-c"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cv", (0.15, 0.5))
def test_pareto_delay_matches_pre_batching_formula(seed, cv):
    topology = _topology()
    model = ParetoDelay(topology, _rng(seed), cv)
    reference = _rng(seed)
    base_alpha = pareto_shape_for_cv(cv)
    for _ in range(900):
        for src, dst in PAIRS:
            base = topology.one_way(src, dst)
            scale_cv = topology.jitter_multiplier(src, dst)
            alpha = (
                base_alpha
                if scale_cv == 1.0
                else pareto_shape_for_cv(cv * scale_cv)
            )
            x_m = base * (alpha - 1.0) / alpha
            expected = x_m * (1.0 + float(reference.pareto(alpha)))
            assert model.sample(src, dst) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_loss_model_matches_pre_batching_formula(seed):
    config = LossConfig(loss_rate=0.05)
    model = LossModel(config, _rng(seed))
    reference = _rng(seed)
    for _ in range(2100):  # > 2 geometric blocks
        attempts = int(reference.geometric(1.0 - 0.05))
        assert model.retransmission_delay() == (attempts - 1) * config.rto


def test_loss_model_zero_rate_draws_nothing():
    rng = _rng(3)
    before = rng.bit_generator.state["state"]["state"]
    model = LossModel(LossConfig(loss_rate=0.0), rng)
    for _ in range(10):
        assert model.retransmission_delay() == 0.0
    assert rng.bit_generator.state["state"]["state"] == before
