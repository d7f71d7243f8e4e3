"""Differential tests: the numpy erf against ``scipy.special.erf``.

:func:`repro.stats.special.erf` ports scipy's Cephes algorithm so the
quadrature runs without scipy.  Its contract is scipy's exact bits, on
any host, so every comparison here is of bit patterns, never a
tolerance.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf as scipy_erf

from repro import obs
from repro.perf.profiler import Profiler
from repro.stats import special
from repro.stats.special import erf
from repro.workloads import emerging, spec2000, spec2006, spec2017
from repro.workloads.calibration import calibrate_spec
from repro.workloads.spec import all_workloads


def assert_bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    """Equal float64 bit patterns: ``-0.0 != 0.0`` and ``nan == nan``."""
    assert got.shape == want.shape
    mismatched = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert mismatched.size == 0, (
        f"{mismatched.size} results differ, first at "
        f"erf({want.ravel()[mismatched[0]]!r})"
    )


class TestBitIdentity:
    def test_dense_probe(self):
        x = np.linspace(-7.0, 7.0, 3_000_001)
        assert_bits_equal(erf(x), scipy_erf(x))

    def test_special_values(self):
        tiny = np.finfo(float).tiny
        x = np.array(
            [
                0.0, -0.0, 1.0, -1.0,
                np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0),
                -np.nextafter(1.0, 2.0), -np.nextafter(1.0, 0.0),
                5.9216, -5.9216, 6.0, -6.0,
                np.nextafter(6.0, 0.0), -np.nextafter(6.0, 0.0),
                8.0, -8.0, 27.0, -27.0, 1e300, -1e300,
                np.inf, -np.inf, np.nan,
                5e-324, -5e-324, tiny / 3, -tiny / 3, tiny, -tiny,
            ]
        )
        assert_bits_equal(erf(x), scipy_erf(x))
        assert math.copysign(1.0, erf(np.array([-0.0]))[0]) == -1.0

    def test_every_argument_of_setup_and_a_cold_report(self, monkeypatch, tmp_path):
        import repro.workloads.profiles as profiles
        from repro.reporting.report import generate_report

        real = profiles.erf
        arguments = []

        def spy(x, out=None):
            arguments.append(x.copy())
            return real(x, out=out)

        all_workloads()
        monkeypatch.setattr(profiles, "erf", spy)
        table = {}
        for module in (spec2017, spec2006, spec2000, emerging):
            for spec in module.SPECS:
                calibrate_spec(spec, table)
        generate_report(tmp_path / "REPORT.md", profiler=Profiler())
        x = np.concatenate([block.ravel() for block in arguments])
        assert x.size > 1_000_000
        assert_bits_equal(erf(x), scipy_erf(x))

    def test_out_may_alias_the_input(self):
        x = np.linspace(-7.0, 7.0, 10_001).reshape(73, 137)
        want = scipy_erf(x)
        assert erf(x, out=x) is x
        assert_bits_equal(x, want)

    def test_shapes_are_kept(self):
        for x in (np.array(0.5), np.array([]), np.full((2, 0, 3), 2.0)):
            assert_bits_equal(erf(x), scipy_erf(x))


def one_ulp_off(x: np.ndarray) -> np.ndarray:
    """numpy's exp moved 1 ulp, up and down on alternate elements."""
    exact = np.exp(x)
    toward = np.where(np.arange(exact.size) % 2 == 0, np.inf, 0.0)
    return np.nextafter(exact, toward.reshape(exact.shape))


class TestRoundingTest:
    """The C library's exp wins wherever the vectorised one could move a bit."""

    MIDDLE = np.linspace(1.0, 6.0, 1_000_001)[1:-1]

    def test_a_1_ulp_vector_exp_still_gives_scipys_bits(self, monkeypatch):
        monkeypatch.setattr(special, "_vector_exp", one_ulp_off)
        x = np.concatenate([self.MIDDLE, -self.MIDDLE])
        assert_bits_equal(erf(x), scipy_erf(x))

    def test_recomputes_are_counted(self, monkeypatch, counters):
        erf(self.MIDDLE)
        exact = counters().get("analytic.erf_recomputes", 0)
        assert 0 < exact < self.MIDDLE.size // 4
        obs.metrics.reset()
        monkeypatch.setattr(special, "_vector_exp", one_ulp_off)
        erf(self.MIDDLE)
        assert counters()["analytic.erf_recomputes"] > 0

    def test_outer_range_needs_no_exp(self, monkeypatch, counters):
        exponents = []

        def spy(x):
            exponents.append(x.copy())
            return np.exp(x)

        monkeypatch.setattr(special, "_vector_exp", spy)
        x = np.concatenate(
            [np.linspace(-1.0, 1.0, 1001), np.linspace(6.0, 40.0, 1001)]
        )
        x = np.concatenate([x, -x, [np.inf, -np.inf, np.nan]])
        assert_bits_equal(erf(x), scipy_erf(x))
        assert sum(e.size for e in exponents) == 0
        assert "analytic.erf_recomputes" not in counters()
