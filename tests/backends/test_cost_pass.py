"""The FeFET cost pass is the unfused delay/energy composition, bit for bit.

:meth:`FeFETBackend.inference_cost_batch` computes delay and energy in
one pass (row sums once, geometry terms once per engine, no checks of
values its own clamps keep positive).  The reference below is the
composition it replaced, kept verbatim: the top-two gap with the
one-LSB tie fallback, ``DelayModel``'s checked batch delay, and the
energy model's checked per-sample batch arithmetic.  Hypothesis draws
current batches with exact top-two ties, all-zero rows (the 1e-12 A
clamp), one-row arrays and magnitudes from 1e-12 to 1e-3 A.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import FeFETBackend
from repro.crossbar.drivers import bitline_switch_energy, wordline_bias_energy

_BACKENDS = {}


def backend(rows: int, cols: int) -> FeFETBackend:
    if (rows, cols) not in _BACKENDS:
        _BACKENDS[rows, cols] = FeFETBackend(rows, cols, seed=0)
    return _BACKENDS[rows, cols]


def reference_delay(params, rows, cols, i_total, delta_i):
    """``DelayModel.inference_delay_batch`` as the engine called it."""
    i_total = np.asarray(i_total, dtype=float)
    delta_i = np.asarray(delta_i, dtype=float)
    if np.any(i_total <= 0):
        raise ValueError("i_total must be positive")
    if np.any(delta_i <= 0):
        raise ValueError("delta_i must be positive")
    ratio = np.maximum(i_total / delta_i, 1.0)
    gap = params.t_gap_coeff * np.log(ratio)
    return (
        params.t_base
        + params.t_per_col * cols
        + params.t_per_row * rows
        + gap
    )


def reference_energy(params, rows, cols, n_active_bls, currents, delay):
    """``EnergyModel.inference_energy_batch`` with the delay given."""
    currents = np.asarray(currents, dtype=float)
    if currents.ndim != 2 or currents.shape[1] != rows:
        raise ValueError("bad shape")
    if np.any(currents < 0):
        raise ValueError("wordline currents must be non-negative")
    n = currents.shape[0]
    sums = currents.sum(axis=1)
    delay = np.asarray(delay, dtype=float)
    if np.any(delay <= 0):
        raise ValueError("delay must be positive")
    mirrors = rows * params.e_mirror_per_row + (
        2.0 * params.mirror_ratio * sums * params.v_dd * delay
    )
    conduction = sums * params.v_wl_read * delay
    fields = {
        "bitline": np.full(n, bitline_switch_energy(params, rows, n_active_bls)),
        "wordline": np.full(n, wordline_bias_energy(params, rows, cols)),
        "conduction": conduction,
        "mirrors": mirrors,
        "wta": np.full(n, rows * params.e_wta_per_row),
    }
    fields["total"] = (
        fields["bitline"] + fields["wordline"] + fields["conduction"]
    ) + (fields["mirrors"] + fields["wta"])
    return fields


def reference_cost(array, currents, n_active_bls):
    """The engine's cost computation before the fused pass."""
    currents = np.asarray(currents, dtype=float)
    rows, cols = array.rows, array.cols
    n = currents.shape[0]
    separation = array.spec.level_separation()
    if rows > 1:
        top_two = np.partition(currents, rows - 2, axis=1)[:, rows - 2:]
        gaps = top_two[:, 1] - top_two[:, 0]
        gaps = np.where(gaps == 0.0, separation, gaps)
    else:
        gaps = np.full(n, separation)
    min_gaps = np.maximum(gaps, 1e-9 * array.spec.i_min)
    delay = reference_delay(
        array.params, rows, cols,
        i_total=np.maximum(currents.sum(axis=1), 1e-12),
        delta_i=min_gaps,
    )
    return delay, reference_energy(
        array.params, rows, cols, n_active_bls, currents, delay
    )


magnitudes = st.one_of(
    st.just(0.0),
    st.floats(1e-12, 1e-3, allow_nan=False, allow_infinity=False),
)


@st.composite
def batches(draw):
    rows = draw(st.sampled_from((1, 2, 3, 5, 8)))
    cols = draw(st.integers(2, 64))
    n = draw(st.integers(0, 12))
    currents = np.array(
        draw(st.lists(magnitudes, min_size=n * rows, max_size=n * rows)),
        dtype=float,
    ).reshape(n, rows)
    for i in range(n):
        shape = draw(st.sampled_from(("free", "tie", "zero")))
        if shape == "zero":
            currents[i] = 0.0
        elif shape == "tie" and rows > 1:
            # An exact top-two tie: the one-LSB gap fallback.
            top = int(np.argmax(currents[i]))
            other = draw(st.integers(0, rows - 2))
            currents[i, other + (other >= top)] = currents[i, top]
    n_active = draw(st.integers(1, cols))
    return backend(rows, cols), currents, n_active


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=batches())
def test_cost_pass_equals_the_unfused_composition(case):
    array, currents, n_active = case
    delay, energy = array.inference_cost_batch(currents, n_active)
    expected_delay, expected = reference_cost(array, currents, n_active)
    assert same_bits(delay, expected_delay)
    for name, values in expected.items():
        assert same_bits(getattr(energy, name), values), name
    # The total is computed once and kept.
    assert energy.total is energy.total


@settings(max_examples=50, deadline=None, derandomize=True)
@given(case=batches(), data=st.data())
def test_a_negative_current_raises(case, data):
    array, currents, n_active = case
    if not currents.size:
        currents = np.zeros((1, array.rows))
    currents = currents.copy()
    i = data.draw(st.integers(0, currents.shape[0] - 1))
    j = data.draw(st.integers(0, array.rows - 1))
    currents[i, j] = -data.draw(st.floats(1e-15, 1e-3))
    with pytest.raises(ValueError):
        reference_cost(array, currents, n_active)
    with pytest.raises(ValueError, match="non-negative"):
        array.inference_cost_batch(currents, n_active)
