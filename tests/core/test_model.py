"""Cross-validation: analytic alpha-beta model vs the DES on the ideal
machine — the simulator's strongest correctness anchor."""

import pytest

from repro.core import (
    predict,
    simulate_bcast,
    t_binomial_bcast,
    t_binomial_scatter,
    t_ring_allgather,
    t_scatter_ring_bcast,
)
from repro.errors import ConfigurationError
from repro.machine import hornet, ideal

GIB = 1 << 30
SPEC = ideal(nodes=8, cores_per_node=8)


class TestFormulas:
    def test_binomial_single_rank(self):
        assert t_binomial_bcast(SPEC, 1, 1000) == 0.0

    def test_binomial_two_ranks(self):
        # One hop: alpha + n * beta.
        t = t_binomial_bcast(SPEC, 2, GIB)
        assert t == pytest.approx(1e-6 + 1.0)

    def test_ring_p_minus_1_steps(self):
        t = t_ring_allgather(SPEC, 4, 4 * GIB // 4)
        # 3 steps, chunk = GiB/4, duplex factor 2.
        assert t == pytest.approx(3 * (1e-6 + 2 * (GIB // 4) / GIB))

    def test_scatter_formula(self):
        t = t_binomial_scatter(SPEC, 4, 400)
        assert t == pytest.approx(2 * 1e-6 + 300 / GIB)

    def test_total_is_sum(self):
        assert t_scatter_ring_bcast(SPEC, 8, 8000) == pytest.approx(
            t_binomial_scatter(SPEC, 8, 8000) + t_ring_allgather(SPEC, 8, 8000)
        )

    def test_predict_dispatch(self):
        assert predict(SPEC, "binomial", 8, 100) == t_binomial_bcast(SPEC, 8, 100)
        assert predict(SPEC, "scatter_ring_opt", 8, 100) == t_scatter_ring_bcast(
            SPEC, 8, 100
        )
        with pytest.raises(ConfigurationError):
            predict(SPEC, "smp", 8, 100)

    def test_rejects_non_ideal_spec(self):
        with pytest.raises(ConfigurationError):
            t_binomial_bcast(hornet(), 8, 100)


class TestDesAgreement:
    """The DES must land on the analytic prediction on the ideal machine."""

    @pytest.mark.parametrize("P", [2, 4, 8, 16, 32])
    @pytest.mark.parametrize("nbytes", [2**16, 2**20])
    def test_binomial(self, P, nbytes):
        rec = simulate_bcast(SPEC, P, nbytes, algorithm="binomial")
        assert rec.time == pytest.approx(
            t_binomial_bcast(SPEC, P, nbytes), rel=0.02
        )

    @pytest.mark.parametrize("P", [4, 8, 16])
    @pytest.mark.parametrize("nbytes", [2**16, 2**20, 2**22])
    def test_scatter_ring_native(self, P, nbytes):
        rec = simulate_bcast(SPEC, P, nbytes, algorithm="scatter_ring_native")
        assert rec.time == pytest.approx(
            t_scatter_ring_bcast(SPEC, P, nbytes), rel=0.05
        )

    @pytest.mark.parametrize("P", [4, 8, 16])
    def test_model_upper_bounds_tuned_ring(self, P):
        """Even on the ideal machine, send and receive share each rank's
        copy engine, so the half-duplex endpoints give the tuned ring a
        small edge; the analytic time is its exact value for native and
        an upper bound (within ~15%) for tuned."""
        nbytes = 2**20
        t_native = simulate_bcast(SPEC, P, nbytes, algorithm="scatter_ring_native").time
        t_opt = simulate_bcast(SPEC, P, nbytes, algorithm="scatter_ring_opt").time
        model = t_scatter_ring_bcast(SPEC, P, nbytes)
        assert t_native == pytest.approx(model, rel=0.02)
        assert t_opt <= t_native * (1 + 1e-9)
        assert t_opt >= 0.8 * model

    def test_npof2_ring(self):
        rec = simulate_bcast(SPEC, 10, 2**20, algorithm="scatter_ring_opt")
        assert rec.time == pytest.approx(
            t_scatter_ring_bcast(SPEC, 10, 2**20), rel=0.05
        )
