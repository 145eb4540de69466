"""Frozen golden values for the structural losses.

The literals below were produced by tests/oracles.py (an independent,
loop-based implementation of the formulas) before the package itself was
written, and must never be regenerated from package output.  Each case draws
p, q ~ N(0, 1) of shape (n, d) from np.random.default_rng(seed).
"""

import numpy as np
import pytest

from fedstruct.losses import (
    loss_contrastive,
    loss_gcsa,
    loss_rcsa,
    pairwise_loss,
    procrustes_decompose,
)

# (seed, n, d) -> gcsa, rcsa, mse, cosine, l_coord, l_shape, l_rigid
GOLDEN = {
    (101, 4, 3): (
        0.7831547144732407,
        0.43235156402699826,
        6.1420741371838075,
        1.065862550338012,
        8.526900402704094,
        5.0208632357522704,
        3.506037166951823,
    ),
    (102, 5, 4): (
        0.17142949484663006,
        0.06980270288753365,
        18.52753075272296,
        1.5880890878147473,
        15.880890878147476,
        1.5000407938168772,
        14.380850084330595,
    ),
    (103, 6, 5): (
        0.43341214870876954,
        0.12342080042976389,
        10.383657531906417,
        1.0449586903368049,
        12.539504284041657,
        2.913392462426483,
        9.626111821615181,
    ),
    (104, 3, 3): (
        0.13913126858413816,
        0.03515302931524844,
        5.7615661165037375,
        0.816883925765978,
        4.901303554595867,
        1.1875801008797937,
        3.7137234537160717,
    ),
    (105, 8, 6): (
        0.34617622618995525,
        0.14083197452602436,
        13.2155211471031,
        1.0297481126927814,
        16.475969803084503,
        4.942001319223752,
        11.533968483860749,
    ),
}

CONTRASTIVE_GOLDEN = {
    "total": 1.3346965181283288,
    "align": 0.12131831377977664,
    "unif": 1.2133782043485521,
}

TOL = 1e-9


def golden_inputs(seed, n, d):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)), rng.standard_normal((n, d))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_structural_losses_match_frozen_oracle(case):
    seed, n, d = case
    p, q = golden_inputs(seed, n, d)
    gcsa, rcsa, mse, cosine, l_coord, l_shape, l_rigid = GOLDEN[case]
    assert abs(loss_gcsa(p, q).value - gcsa) < TOL
    assert abs(loss_rcsa(p, q).value - rcsa) < TOL
    assert abs(pairwise_loss("mse", p, q).value - mse) < TOL
    assert abs(pairwise_loss("cosine", p, q).value - cosine) < TOL
    dec = procrustes_decompose(p, q)
    assert abs(dec.l_coord - l_coord) < TOL
    assert abs(dec.l_shape - l_shape) < TOL
    assert abs(dec.l_rigid - l_rigid) < TOL


def test_contrastive_matches_frozen_oracle():
    rng = np.random.default_rng(107)
    z = rng.standard_normal((4, 3))
    protos = rng.standard_normal((4, 3))[:3]
    labels = np.array([0, 1, 2, 0])
    parts = loss_contrastive(z, protos, labels, temperature=0.5)
    assert abs(parts.total.value - CONTRASTIVE_GOLDEN["total"]) < TOL
    assert abs(parts.alignment.value - CONTRASTIVE_GOLDEN["align"]) < TOL
    assert abs(parts.uniformity.value - CONTRASTIVE_GOLDEN["unif"]) < TOL
