"""Benchmark workloads: the scene each one runs (why each exists is in README.md).

Each workload is a scene configuration plus the closed-form shape it
depicts and the surface bound its touch-branch render must meet. The scene
seed is the benchmark's --seed; everything else is fixed here.
"""

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    shape: tuple              # (kind, size) of the simulated object
    surface_bound: tuple      # (median m, 95th percentile m, min hit pixels)
    config: str = ""          # shipped config, relative to the checkout root
    text: str = ""            # or generated config text


SCENE_HEAD = """[scene]
dataset = data
out = out
seed = {seed}
"""

TORUS = """
[sim]
shape = torus
size = 1.0 0.35
views = 1
touches = 300

[kernel]
rho_grid = 0.2 0.3 0.4

[conditioning]
voxel = 0.083

[train]
iters = 20
"""

# Small enough to run every code path of the harness in a few seconds.
TINY = """
[sim]
shape = sphere
size = 1.0
views = 2
width = 40
height = 40
focal = 32.0
touches = 120
points_per_touch = 16
sparse_fraction = 0.01

[conditioning]
voxel = 0.2

[train]
iters = 3
max_points = 200

[eval]
gt_points = 100
"""

WORKLOADS = {w.name: w for w in (
    Workload(
        "sphere-bundled",
        ("sphere", (1.0,)), (0.01, 0.05, 1000),
        config=os.path.join("configs", "sphere_scene.cfg"),
    ),
    Workload(
        "torus-gp-dense",
        ("torus", (1.0, 0.35)), (0.01, 0.05, 500),
        text=TORUS,
    ),
    Workload(
        "tiny",
        ("sphere", (1.0,)), (0.05, 0.2, 50),
        text=TINY,
    ),
)}


def config_path(workload, root, work, seed):
    """Path of the config file the workload validates; a generated config
    is written into `work` first."""
    if workload.config:
        return os.path.join(root, workload.config)
    path = os.path.join(work, "scene.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SCENE_HEAD.format(seed=seed) + workload.text)
    return path
