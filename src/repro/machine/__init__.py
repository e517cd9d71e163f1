"""Cluster machine model: specs, topologies, placement, cache effects."""

from .._lazy import lazy_hub

__all__, __getattr__ = lazy_hub(
    __name__,
    {
        "spec": ["MachineSpec"],
        "cache": ["copy_effectiveness", "working_set_bytes"],
        "placement": [
            "Placement",
            "blocked",
            "round_robin",
            "custom",
            "make_placement",
        ],
        "topology": ["Route", "Topology", "CrossbarTopology"],
        "fattree": ["FatTreeTopology"],
        "dragonfly": ["DragonflyTopology"],
        "machine": ["Machine", "TransferPlan", "build_topology"],
        "presets": ["hornet", "laki", "ideal"],
    },
)
