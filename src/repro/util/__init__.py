"""Small shared helpers: deterministic RNG, stats, and ASCII tables."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DeterministicRng": ".rng",
    "RunningStats": ".stats",
    "mean": ".stats",
    "population_std": ".stats",
    "format_table": ".tables",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "DeterministicRng",
    "RunningStats",
    "mean",
    "population_std",
    "format_table",
]
