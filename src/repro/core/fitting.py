"""Fit Hockney alpha-beta parameters from microbenchmark measurements.

Closes the calibration loop: run :func:`repro.bench.micro.pingpong` on a
machine, fit ``t(m) = alpha + m * beta`` by least squares, and compare
the *effective* latency/bandwidth the transport delivers against the
spec's nominal constants. Tests pin the fit to the known ground truth on
the ideal machine; example scripts use it to characterise the presets
the way one would characterise real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

from ..errors import ConfigurationError
from ..machine import Machine, MachineSpec

__all__ = ["FittedModel", "fit_alpha_beta", "characterize"]


@dataclass(frozen=True)
class FittedModel:
    """Least-squares Hockney model ``t = alpha + m * beta``."""

    alpha: float  # seconds
    beta: float  # seconds per byte
    r_squared: float
    npoints: int

    @property
    def bandwidth(self) -> float:
        """Asymptotic bandwidth in bytes/s (1/beta)."""
        return 1.0 / self.beta if self.beta > 0 else float("inf")

    def predict(self, nbytes: float) -> float:
        return self.alpha + nbytes * self.beta

    def describe(self) -> str:
        return (
            f"alpha={self.alpha * 1e6:.3f}us, "
            f"bw={self.bandwidth / 2**30:.2f}GiB/s, "
            f"R^2={self.r_squared:.4f} ({self.npoints} points)"
        )


def fit_alpha_beta(points: Sequence[Tuple[float, float]]) -> FittedModel:
    """Fit ``(nbytes, seconds)`` samples; needs >= 2 distinct sizes."""
    pts = [(float(m), float(t)) for m, t in points]
    if len(pts) < 2:
        raise ConfigurationError("fit needs at least two measurements")
    import numpy as np

    sizes = np.array([m for m, _ in pts])
    times = np.array([t for _, t in pts])
    if np.unique(sizes).size < 2:
        raise ConfigurationError("fit needs at least two distinct sizes")
    design = np.column_stack([np.ones_like(sizes), sizes])
    coeffs, *_ = np.linalg.lstsq(design, times, rcond=None)
    alpha, beta = float(coeffs[0]), float(coeffs[1])
    predicted = design @ coeffs
    ss_res = float(np.sum((times - predicted) ** 2))
    ss_tot = float(np.sum((times - times.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FittedModel(alpha=alpha, beta=beta, r_squared=r2, npoints=len(pts))


def characterize(
    spec_or_machine: Union[MachineSpec, Machine],
    sizes: Sequence = (4096, 65536, 262144, 1048576, 4194304),
    src: int = 0,
    dst: int = 1,
) -> FittedModel:
    """Ping-pong the pair and fit the effective alpha-beta model.

    Pick an intra-node or inter-node (src, dst) pair to characterise the
    corresponding communication level.
    """
    from ..bench.micro import pingpong

    points = pingpong(spec_or_machine, sizes, src=src, dst=dst, iterations=4)
    return fit_alpha_beta([(p.nbytes, p.latency) for p in points])
