"""Alternative executors for the same rank programs."""

from .._lazy import lazy_hub

__all__, __getattr__ = lazy_hub(
    __name__, {"threads": ["ThreadBackend", "run_threaded"]}
)
