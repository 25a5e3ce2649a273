"""Seeded inputs every workload shares: models, tool, octrees, paths, pivots.

The program only ever sees the generated inputs; the seed stays here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import benchmark_models, build_from_sdf, expand_top, offset_path, sample_pivots
from repro.tool import Tool

# The slender finishing tool of the ``am_overlap`` experiment.  The
# paper's roughing tool collides at almost every orientation at a 1 mm
# standoff, so every map would be all-blocked and the accessible
# threads -- the ones that traverse deepest -- would never run.
FINISHING_SEGMENTS = ((1.5, 20.0), (2.5, 60.0), (8.0, 40.0))

# 64^3 keeps every workload above 100 computed requests per run on a
# 2-core host; below 64^3 the top-level expansion dominates and a
# request gets no cheaper (measured: AICA 16^2 costs ~130 ms at both
# 32^3 and 64^3).
RESOLUTION = 64
START_LEVEL = 5  # the standard top-level expansion, also repro-serve's default

PIVOTS_PER_MODEL = 256


def finishing_tool() -> Tool:
    return Tool.from_segments(list(FINISHING_SEGMENTS), name="finishing")


def model_seed(seed: int, index: int) -> int:
    """The ``sample_pivots`` seed of model ``index`` under benchmark ``seed``."""
    return seed * 16 + index


@dataclass
class ModelInputs:
    name: str
    model: object  # repro.solids.models.BenchmarkModel
    path: np.ndarray  # (n, 3) 1 mm offset path, in path order
    pivots: np.ndarray  # (PIVOTS_PER_MODEL, 3) seeded sample of ``path``
    tree: object | None = None  # expanded LinearOctree, when built


@dataclass
class Inputs:
    models: list[ModelInputs]
    octree_build_s: float
    octree_nodes: int
    path_offset_s: float
    path_points: int


def build_tree(model):
    return expand_top(build_from_sdf(model.sdf, model.domain, RESOLUTION), START_LEVEL)


def build_inputs(seed: int, *, with_trees: bool = True) -> Inputs:
    """Octrees (optional), offset paths and seeded pivots of all four models."""
    models = []
    build_s = path_s = 0.0
    nodes = points = 0
    for i, model in enumerate(benchmark_models()):
        tree = None
        if with_trees:
            t0 = time.perf_counter()
            tree = build_tree(model)
            build_s += time.perf_counter() - t0
            nodes += int(sum(lev.n for lev in tree.levels))
        t0 = time.perf_counter()
        path = offset_path(model, RESOLUTION)
        path_s += time.perf_counter() - t0
        points += len(path)
        pivots = sample_pivots(path, PIVOTS_PER_MODEL, seed=model_seed(seed, i))
        models.append(ModelInputs(model.name, model, path, pivots, tree))
    return Inputs(models, build_s, nodes, path_s, points)


def window_starts(path: np.ndarray, window: int, n: int, seed: int) -> np.ndarray:
    """Start indices of ``n`` windows of ``window`` consecutive path points.

    The starts are drawn with ``sample_pivots`` over the points that
    begin a full window, then located in the path.
    """
    heads = path[: len(path) - window + 1]
    index = {tuple(p): i for i, p in enumerate(heads)}
    return np.array([index[tuple(p)] for p in sample_pivots(heads, n, seed=seed)])
