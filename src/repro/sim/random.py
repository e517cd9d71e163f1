"""Seeded random streams for controlled non-determinism.

The simulator is deterministic by default. When experiments opt into
jitter (e.g. per-message latency noise, modelling OS interference), they
draw it from named :class:`RngStreams` substreams so that

* the same seed reproduces the same run bit-for-bit, and
* adding a new consumer of randomness does not perturb existing streams.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import ConfigurationError

if TYPE_CHECKING:  # numpy loads on first draw, off the start-up path
    import numpy as np

__all__ = ["RngStreams"]


class RngStreams:
    """A family of independent, named ``numpy`` Generator substreams."""

    def __init__(self, seed: int = 0):
        if seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {seed}")
        self.seed = int(seed)
        self._streams: dict = {}

    def stream(self, name: str) -> np.random.Generator:
        """The substream for *name* (created deterministically on demand)."""
        gen = self._streams.get(name)
        if gen is None:
            import numpy as np

            # Derive a child seed from (seed, name) via SeedSequence spawn
            # keyed on a stable hash of the name.
            digest = np.frombuffer(
                name.encode("utf-8").ljust(8, b"\0")[:8], dtype=np.uint64
            )[0]
            seq = np.random.SeedSequence([self.seed, int(digest)])
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def jitter_factor(self, name: str, relative_sigma: float) -> float:
        """Multiplicative log-normal jitter with E[x] ~= 1.

        ``relative_sigma = 0`` returns exactly 1.0 so the deterministic
        path stays float-identical.
        """
        if relative_sigma < 0:
            raise ConfigurationError("relative_sigma must be >= 0")
        if relative_sigma == 0.0:
            return 1.0
        import numpy as np

        draw = self.stream(name).normal(0.0, relative_sigma)
        return float(np.exp(draw - relative_sigma**2 / 2.0))
