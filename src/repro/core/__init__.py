"""Chip-level topology-aware QoS architecture (Sections 1-2 of the paper).

This package models the paper's *system proposal* around the shared
region that :mod:`repro.network` simulates at cycle level:

* a 256-tile CMP reduced to an 8x8 grid of network nodes by 4-way
  concentration, interconnected by MECS;
* one or more *shared columns* holding memory controllers with full
  hardware QoS support (the rest of the chip has none);
* *domains* — convex regions of nodes allocated to an application or
  virtual machine so intra-domain cache traffic never leaves them;
* the hypervisor services the paper requires from the OS: friendly
  co-scheduling of threads onto nodes, convex domain allocation, and
  programming flow rates into the QoS routers' memory-mapped registers;
* chip-level MECS routing (single-hop per dimension) with inter-VM
  transfers forced through the QoS-protected shared columns, and an
  isolation verifier that proves the physical-isolation property;
* a QoS-aware memory-controller endpoint model.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DomainAllocator": ".allocator",
    "CacheOrganisation": ".cache",
    "domain_cache_analysis": ".cache",
    "miss_ratio": ".cache",
    "shared_wins": ".cache",
    "Chip": ".chip",
    "ChipConfig": ".chip",
    "NodeKind": ".chip",
    "Domain": ".domain",
    "is_convex": ".domain",
    "xy_path": ".domain",
    "Hypervisor": ".hypervisor",
    "VirtualMachine": ".hypervisor",
    "IsolationViolation": ".isolation",
    "verify_isolation": ".isolation",
    "MemoryController": ".memctrl",
    "RouterPath": ".routing",
    "route_inter_vm": ".routing",
    "route_intra_domain": ".routing",
    "route_to_shared": ".routing",
    "TopologyAwareSystem": ".system",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "CacheOrganisation",
    "Chip",
    "ChipConfig",
    "Domain",
    "DomainAllocator",
    "Hypervisor",
    "IsolationViolation",
    "MemoryController",
    "NodeKind",
    "RouterPath",
    "TopologyAwareSystem",
    "VirtualMachine",
    "domain_cache_analysis",
    "is_convex",
    "miss_ratio",
    "shared_wins",
    "route_inter_vm",
    "route_intra_domain",
    "route_to_shared",
    "verify_isolation",
    "xy_path",
]
