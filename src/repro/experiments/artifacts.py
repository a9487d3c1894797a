"""The eight paper artefacts as canonical, comparable data structures.

``fig4``-``fig7`` and ``table1``-``table4`` each map to the ``*_data``
function behind the rendered artefact.  :func:`artifact_data` evaluates
one and :func:`canonicalise` converts it to a JSON-stable form (string
keys, lists for tuples, native scalars) -- the representation the golden
regression fixtures under ``tests/goldens/`` pin byte-for-byte.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List

import numpy as np

from repro.experiments.extended import (
    fig4v_data,
    fig4v_points,
    fig4x_data,
    fig4x_points,
    fig5v_data,
    fig5v_points,
    fig5x_data,
    fig5x_points,
)
from repro.experiments.figures import fig4_data, fig5_data, fig6_data, fig7_data
from repro.sweep.points import (
    SweepPoint,
    fig4_points,
    fig5_points,
    fig6_points,
    fig7_points,
)
from repro.experiments.tables import (
    table1_data,
    table2_data,
    table3_data,
    table4_data,
)

#: The artefacts pinned byte-for-byte by ``tests/goldens/*.json``.
PAPER_ARTIFACTS = (
    "table1", "table2", "table3", "table4", "fig4", "fig5", "fig6", "fig7",
)

#: Every artefact's raw-data producer, keyed by its CLI/golden name.
#: ``fig4x``/``fig5x`` extend the paper figures along the machine axis
#: and are *not* golden-pinned (their columns grow with the registry);
#: ``fig4v``/``fig5v`` answer the 1-D-vs-2-D question on the fixed
#: runtime-VL/tile column set and *are* golden-pinned.
ARTIFACT_DATA: Dict[str, Callable[[], Any]] = {
    "table1": table1_data,
    "table2": table2_data,
    "table3": table3_data,
    "table4": table4_data,
    "fig4": fig4_data,
    "fig5": fig5_data,
    "fig6": fig6_data,
    "fig7": fig7_data,
    "fig4x": fig4x_data,
    "fig5x": fig5x_data,
    "fig4v": fig4v_data,
    "fig5v": fig5v_data,
}

#: The kernel-timing grid each figure's data function prefetches, keyed
#: like :data:`ARTIFACT_DATA`; the tables read no kernel timings.
ARTIFACT_POINTS: Dict[str, Callable[[], List[SweepPoint]]] = {
    "fig4": fig4_points,
    "fig5": fig5_points,
    "fig6": fig6_points,
    "fig7": fig7_points,
    "fig4x": fig4x_points,
    "fig5x": fig5x_points,
    "fig4v": fig4v_points,
    "fig5v": fig5v_points,
}


def canonicalise(obj: Any) -> Any:
    """JSON-stable form: string keys, lists, native Python scalars."""
    if isinstance(obj, dict):
        return {str(key): canonicalise(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalise(value) for value in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def artifact_data(name: str) -> Any:
    """Evaluate one artefact's data function (raises KeyError if unknown)."""
    return ARTIFACT_DATA[name]()


def artifact_json(name: str) -> str:
    """Canonical pretty JSON of one artefact (the golden fixture format)."""
    return json.dumps(
        canonicalise(artifact_data(name)), sort_keys=True, indent=2
    ) + "\n"
