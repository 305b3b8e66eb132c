"""The batch WCDE solver against a brute-force oracle, row by row.

``solve_wcde_batch`` — the only WCDE solver; scalar ``solve_wcde`` is a
batch of one — pads every narrow bracket to the batch's widest row and
runs the wide rows' bisections in masked lockstep; neither transform may
change any answer.  These properties check every row against the linear
scan of ``tests/oracles.py`` across random PMF batches, thetas and
deltas — including the degenerate single-bin reference and deliberately
mixed-length batches where the padding actually kicks in — plus
batch-composition invariance (a row's answer is a function of that row
alone).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wcde import (_SCAN_WIDTH, WcdeCache, solve_wcde_batch,
                             worst_case_demand)
from repro.errors import ConfigurationError
from repro.estimation.pmf import Pmf

from .oracles import linear_scan_eta, mixed_path_rows

raw_weights = st.lists(st.floats(min_value=0.01, max_value=10.0,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=40)

pmf_batches = st.lists(raw_weights, min_size=1, max_size=8)

thetas = st.one_of(st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0]),
                   st.floats(min_value=0.0, max_value=1.0,
                             allow_nan=False))

deltas = st.one_of(st.sampled_from([0.0, 0.05, 0.7, 5.0]),
                   st.floats(min_value=0.0, max_value=10.0,
                             allow_nan=False))


def _assert_matches_oracle(references, theta, delta):
    batch = solve_wcde_batch(references, theta, delta)
    assert len(batch) == len(references)
    for reference, got in zip(references, batch):
        assert got.eta_bin == linear_scan_eta(reference, theta, delta)
        assert got.reference_quantile == reference.quantile(theta)


class TestBatchEqualsScalar:
    @settings(max_examples=150, deadline=None)
    @given(pmf_batches, thetas, deltas)
    def test_random_batches(self, raws, theta, delta):
        """Random short rows interleaved with one row per solver path."""
        references = [Pmf(raw, normalize=True) for raw in raws]
        _assert_matches_oracle(references + mixed_path_rows(), theta, delta)

    def test_mixed_rows_take_all_three_paths(self):
        """The fixed rows really are shortcut / narrow / wide (by their
        iteration counts: 0, one sweep, a real bisection)."""
        rows = mixed_path_rows()
        shortcut, narrow, wide = solve_wcde_batch(rows, 0.9, 0.7)
        assert shortcut.iterations == 0
        assert narrow.iterations == 1
        assert wide.iterations > 1
        assert rows[2].support_max() - rows[2].quantile(0.9) > _SCAN_WIDTH
        _assert_matches_oracle(rows, 0.9, 0.7)

    def test_single_bin_reference(self):
        """Impulse support: anchor == ceiling, the shortcut path."""
        impulse = Pmf.impulse(0, tau_max=0)
        _assert_matches_oracle([impulse, impulse], 0.9, 0.7)

    def test_mixed_length_padding(self):
        """Wildly different supports force real padding of narrow rows."""
        references = [
            Pmf([1.0], normalize=True),
            Pmf([0.5, 0.5], normalize=True),
            Pmf([0.1] * 40, normalize=True),
            Pmf([2.0, 0.01, 0.01, 3.0], normalize=True),
        ]
        for theta in (0.0, 0.5, 0.9, 1.0):
            for delta in (0.0, 0.05, 0.7, 5.0):
                _assert_matches_oracle(references, theta, delta)

    @settings(max_examples=40, deadline=None)
    @given(pmf_batches, st.integers(min_value=1, max_value=4),
           thetas, deltas)
    def test_batch_composition_invariance(self, raws, chunks, theta, delta):
        """Splitting a batch never changes any row — answer or iterations."""
        references = [Pmf(raw, normalize=True) for raw in raws]
        whole = solve_wcde_batch(references, theta, delta)
        size = -(-len(references) // chunks)
        split = []
        for i in range(0, len(references), size):
            split.extend(solve_wcde_batch(references[i:i + size],
                                          theta, delta))
        assert [(r.eta_bin, r.reference_quantile, r.iterations)
                for r in whole] == \
               [(r.eta_bin, r.reference_quantile, r.iterations)
                for r in split]


class TestBatchValidationAndEdges:
    def test_empty_batch(self):
        assert solve_wcde_batch([], 0.9, 0.7) == []

    def test_bad_theta(self, gaussian_pmf):
        with pytest.raises(ConfigurationError):
            solve_wcde_batch([gaussian_pmf], 1.2, 0.5)

    def test_bad_delta(self, gaussian_pmf):
        with pytest.raises(ConfigurationError):
            solve_wcde_batch([gaussian_pmf], 0.9, -0.5)


class TestCacheBatchAccounting:
    def test_matches_sequential_scalar_loop(self, gaussian_pmf, skewed_pmf):
        """solve_batch counters replay a one-at-a-time solve() loop exactly
        (duplicates inside a batch count as hits, as the loop would)."""
        refs = [gaussian_pmf, skewed_pmf, gaussian_pmf, gaussian_pmf]
        batched = WcdeCache(maxsize=16)
        results = batched.solve_batch(refs, 0.9, 0.7)
        sequential = WcdeCache(maxsize=16)
        expected = [sequential.solve(r, 0.9, 0.7) for r in refs]
        assert (batched.hits, batched.misses) == \
               (sequential.hits, sequential.misses) == (2, 2)
        assert [r.eta_bin for r in results] == \
               [r.eta_bin for r in expected]

    def test_worst_case_demand_unchanged(self, gaussian_pmf):
        """The convenience wrapper returns the oracle's robust bin."""
        assert worst_case_demand(gaussian_pmf, 0.9, 0.7) == \
            linear_scan_eta(gaussian_pmf, 0.9, 0.7)
