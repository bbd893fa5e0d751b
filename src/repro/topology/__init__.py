"""The one topology layer: generated graphs and the physical path model.

See :mod:`repro.topology.generators` for the generator registry and the
individual graph families (scale-free, clustered, CDN tiers, random,
ring).  The spec layer exposes these through ``TopologySpec`` on
``SwarmSpec``; scenarios consume the resulting
:class:`~repro.topology.generators.GeneratedTopology`.

:mod:`repro.topology.paths` lays a physical network over such a graph:
a :class:`~repro.topology.paths.PathModel` gives every link a bandwidth
and a loss rate and every virtual connection the characteristics of its
shortest path (``random_overlay`` draws its router core from the
``scale_free`` generator).
"""

from repro.topology.generators import (
    GeneratedTopology,
    GeneratorEntry,
    TopologyError,
    generate,
    generator_entry,
    generator_names,
    register_generator,
)
from repro.topology.paths import UNIT_PATH, PathCharacteristics, PathModel

__all__ = [
    "GeneratedTopology",
    "GeneratorEntry",
    "PathCharacteristics",
    "PathModel",
    "TopologyError",
    "UNIT_PATH",
    "generate",
    "generator_entry",
    "generator_names",
    "register_generator",
]
