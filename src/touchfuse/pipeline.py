"""Pipeline stages chaining simulate -> fit -> render -> align -> fuse ->
init -> train -> eval over one scene configuration.

One table, `STAGES`, names each stage once: its function, the config
sections its parameters come from, and the names of the files it makes
(`dataset:` or `out:` plus a path under that directory), each of which
one stage alone makes. A stage reads and writes every file by name through
its `StageIO`, which records the names, raises the missing-input error
(naming the stage that makes the file; an `out:` file counts as missing
unless its maker's record lists its hash), and refuses writes outside the
stage's patterns; once the stage has run, a file of its patterns that it
did not write is removed. The manifest stores each stage's recorded inputs
and outputs with their content hashes. A rerun skips a stage when its
parameters are unchanged and every recorded input and output still hashes
the same; each file is hashed at most once per run.

Artifacts are written atomically and never embed absolute paths, so two
runs of the same scene in different directories are byte-identical.
"""

import contextlib
import fcntl
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import align as align_mod
from . import fileio, fuse, geometry, gpis, metrics, sdfrender, splat, touchsim
from .config import SCHEMA, SceneConfig, _check_size, _parse_value
from .errors import ConfigError, DependencyError, FormatError, LockedError, reads_format

MANIFEST_VERSION = 6
MONO_SCALE = 2.5
MONO_OFFSET = 0.3
# The simulated rig and sensors, in m (SPARSE_NOISE in 1/m, as make_sparse_depth takes it).
DOME_RADIUS = 8.0
ORBIT_RADIUS = 3.0
ORBIT_HEIGHT = 0.5
TOUCH_NOISE = 0.001
SPARSE_NOISE = 0.003
VISION_BIAS = 0.4
LIGHT_DIR = np.array([0.4, -0.3, 0.9]) / np.linalg.norm([0.4, -0.3, 0.9])
OBJECT_COLOR = np.array([0.8, 0.4, 0.2])
BACKGROUND_COLOR = np.array([0.2, 0.2, 0.2])


def _path(cfg, name):
    """File path of a `dataset:` or `out:` name."""
    tag, rel = name.split(":", 1)
    return os.path.join(cfg.dataset if tag == "dataset" else cfg.out, rel)


def _matching(cfg, pattern):
    """Sorted names of the files in a pattern's directory that match it."""
    directory, base = os.path.split(_path(cfg, pattern))
    if not os.path.isdir(directory):
        return []
    head = pattern[:len(pattern) - len(base)]
    rule = _RULES[pattern]
    return [head + f for f in sorted(os.listdir(directory)) if rule.fullmatch(head + f)]


def _hash_bytes(blob):
    return hashlib.sha256(blob).hexdigest()[:16]


def _hash_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class Stage:
    """One row of the stage table. `makes` holds the name patterns
    (`dataset:` or `out:` plus a path whose `*` matches any run of
    characters but `/`) the stage may write."""

    name: str
    func: Callable
    param_sections: tuple
    makes: tuple

    def produces(self, name):
        return any(_RULES[pattern].fullmatch(name) for pattern in self.makes)


def _producer(name):
    return next(stage.name for stage in STAGES if stage.produces(name))


class StageIO:
    """The files one stage reads and writes, by the names `STAGES` uses.

    `read` records inputs and `write` outputs. `digests` memoizes content
    hashes by name and is shared by every stage of one run_pipeline call.
    `recorded` is that call's live map of manifest stage records: an
    `out:` input counts as missing unless its producing stage's record
    there lists its content hash. A hand-edited file, one a crashed rerun
    of the producer left, and one of a producer with no record (say, left
    by a run of another manifest version) all fail that. So every `out:` file a stage reads holds the
    bytes its producer wrote, and no stage checks the values in it again.
    """

    def __init__(self, cfg, stage, digests, recorded):
        self.cfg = cfg
        self.stage = stage
        self.digests = digests
        self.recorded = recorded
        self.inputs = set()
        self.outputs = set()

    def read(self, reader, name):
        path = _path(self.cfg, name)
        self._record_input(name, os.path.exists(path))
        return reader(path)

    def write(self, writer, name, *args):
        if not self.stage.produces(name):
            raise ValueError(f"stage {self.stage.name} does not make {name}")
        writer(_path(self.cfg, name), *args)
        self.outputs.add(name)

    def remove_unwritten(self):
        """Remove every file of the stage's patterns that it did not write
        this time, such as the views of an earlier, larger scene: a later
        stage would read a stale view, and a clean run makes none of them."""
        for pattern in self.stage.makes:
            for name in _matching(self.cfg, pattern):
                if name not in self.outputs:
                    os.unlink(_path(self.cfg, name))

    def _record_input(self, name, found):
        if not found:
            # A dataset file missing beside a camera list is missing from a
            # dataset that is there, which simulate would overwrite: the
            # touch file, the scene record, which a sensor dataset may not
            # bring, or a file of a view the list names (each in a
            # directory of its kind).
            cameras = _path(self.cfg, "dataset:cameras.txt")
            if name.startswith("dataset:") and os.path.exists(cameras):
                path = _path(self.cfg, name)
                if "/" not in name:
                    raise FormatError(f"{path} missing, but {cameras} is there")
                view = os.path.splitext(os.path.basename(name))[0]
                raise FormatError(f"{path} missing, but {cameras} names view {view}")
            raise DependencyError(f"{name} missing; run the {_producer(name)} stage first")
        if name.startswith("out:"):
            producer = _producer(name)
            record = self.recorded.get(producer, {"outputs": {}})
            if record["outputs"].get(name) != self.digest(name):
                raise DependencyError(f"{name} is not the file the {producer} stage wrote; "
                                      f"run the {producer} stage first")
        self.inputs.add(name)

    def digest(self, name):
        """Content hash of a file, or None when it is missing."""
        if name not in self.digests:
            path = _path(self.cfg, name)
            self.digests[name] = _hash_file(path) if os.path.exists(path) else None
        return self.digests[name]

    def params(self):
        payload = {"seed": self.cfg.seed, "stage": self.stage.name}
        for section in self.stage.param_sections:
            payload[section] = {k: repr(v) for k, v in self.cfg.section(section).items()}
        return _hash_bytes(json.dumps(payload, sort_keys=True).encode())

    def can_skip(self, record):
        if record is None or record["params"] != self.params() or not record["outputs"]:
            return False
        recorded = {**record["inputs"], **record["outputs"]}
        return all(self.digest(name) == digest for name, digest in recorded.items())

    def record(self):
        """Manifest entry of the stage that just ran; forgets the digests of
        every file it may have written or removed."""
        for name in [n for n in self.digests if self.stage.produces(n)]:
            del self.digests[name]
        return {
            "params": self.params(),
            "inputs": {name: self.digest(name) for name in self.inputs},
            "outputs": {name: self.digest(name) for name in self.outputs},
        }


def _camera_views(io):
    """The camera list's (name, camera) pairs; each file a view gives has one maker."""
    return io.read(fileio.read_cameras, "dataset:cameras.txt")


@reads_format
def _read_scene(path):
    """The analytic shape of a scene record (`dataset:scene.cfg`), which
    eval scores against. Each key is parsed as the config's is: a missing
    key, a shape of no known kind or a size that does not fit the shape
    makes the file malformed. Any other key, such as the background color
    an older run recorded or a key a real dataset brings, is ignored."""
    record = fileio.read_keyvalues(path)
    sim = {}
    for key in ("shape", "size"):
        if key not in record:
            raise ValueError(f"key '{key}' is missing")
        kind, _, validator = SCHEMA["sim"][key]
        sim[key] = _parse_value(kind, record[key], key, validator)
    _check_size(sim, {})
    return touchsim.AnalyticShape(sim["shape"], sim["size"])


def _median(values):
    """np.median along axis 0 of finite values, to the bit: the middle value,
    or the mean of the two middle ones. np.median's NaN check imports numpy.ma."""
    half = len(values) // 2
    if len(values) % 2:
        return np.partition(values, half, axis=0)[half]
    part = np.partition(values, (half - 1, half), axis=0)
    return (part[half - 1] + part[half]) / 2.0


def _background_color(rgbs, gpis_depths):
    """The background init-points stores in the cloud: per channel, the median
    of the `rgbs` pixels no GPIS ray hit (`gpis_depths` 0), or black if none."""
    missed = np.concatenate([rgb[depth == 0.0] for rgb, depth in zip(rgbs, gpis_depths)])
    return _median(missed) if len(missed) else np.zeros(3)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage_simulate(cfg: SceneConfig, io: StageIO):
    sim = cfg.section("sim")
    shape = touchsim.AnalyticShape(sim["shape"], sim["size"])
    seed = cfg.seed
    for directory in {os.path.dirname(_path(cfg, pattern)) for pattern in io.stage.makes}:
        os.makedirs(directory, exist_ok=True)
        _remove_temp_files(directory)

    touches = touchsim.sample_touches(
        shape, sim["touches"], sim["patch_radius"], sim["points_per_touch"],
        TOUCH_NOISE, seed=seed
    )
    io.write(fileio.write_touch_ply, "dataset:touches.ply",
             np.concatenate([t.points for t in touches]),
             np.concatenate([t.normals for t in touches]))

    width, height = sim["width"], sim["height"]
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    cameras = []
    for i in range(sim["views"]):
        angle = 2.0 * math.pi * i / sim["views"]
        eye = np.array([ORBIT_RADIUS * math.cos(angle), ORBIT_RADIUS * math.sin(angle),
                        ORBIT_HEIGHT])
        pose = geometry.look_at(eye, np.zeros(3))
        cameras.append((f"view{i:03d}", sdfrender.CameraModel(
            sim["focal"], sim["focal"], cx, cy, width, height, pose)))
    io.write(fileio.write_cameras, "dataset:cameras.txt", cameras)

    for i, (name, cam) in enumerate(cameras):
        object_depth = touchsim.render_gt_depth(shape, cam)
        scene_depth, rgb = _compose_scene(shape, cam, object_depth)
        io.write(fileio.write_pfm, f"dataset:gt_depth/{name}.pfm", scene_depth)
        io.write(fileio.write_ppm, f"dataset:rgb/{name}.ppm", rgb)

        # Synthetic monocular stand-in: the affine-inverted scene depth with
        # the object pushed back, mimicking a metrically wrong estimator.
        vision_depth = scene_depth + VISION_BIAS * (object_depth > 0.0)
        raw = (vision_depth - MONO_OFFSET) / MONO_SCALE
        io.write(fileio.write_pfm, f"dataset:mono_depth/{name}.pfm", raw)

        try:
            sparse = touchsim.make_sparse_depth(
                scene_depth, sim["sparse_fraction"], SPARSE_NOISE, seed=seed + 1000 + i
            )
        except ValueError as exc:
            raise cfg.error("sim", "sparse_fraction", f"{name}: {exc}") from None
        io.write(fileio.write_sparse_depth, f"dataset:sparse/{name}.txt", sparse)

    io.write(fileio.write_keyvalues, "dataset:scene.cfg", {
        "shape": sim["shape"],
        "size": " ".join(f"{s:.17g}" for s in shape.size),
    })


def _compose_scene(shape, camera, object_depth):
    """Scene depth = object where hit else enclosing dome; flat-shaded RGB."""
    h, w = camera.height, camera.width
    dirs, axis_cos = camera.pixel_rays()

    # The dome is centred at the origin: the camera's offset from it is its position.
    _, t_dome, _ = sdfrender.sphere_entry_exit(camera.position, dirs, DOME_RADIUS)
    dome_depth = (t_dome * axis_cos).reshape(h, w)

    hit = object_depth > 0.0
    depth = np.where(hit, object_depth, dome_depth)

    rgb = np.full((h, w, 3), BACKGROUND_COLOR)
    ys, xs = np.nonzero(hit)
    if xs.size:
        pts = camera.backproject(xs, ys, object_depth[ys, xs])
        normals = touchsim.sdf_gradient(shape, pts)
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        shade = 0.25 + 0.75 * np.maximum(normals @ LIGHT_DIR, 0.0)
        rgb[ys, xs] = OBJECT_COLOR[None, :] * shade[:, None]
    return depth, rgb


def stage_gpis_fit(cfg: SceneConfig, io: StageIO):
    touches = io.read(fileio.read_touch_ply, "dataset:touches.ply")
    cond = cfg.section("conditioning")
    # The fit's surface is the thinned set, which may hold one point where
    # the touch file holds more; the normal offsets scale with them all.
    thinned = gpis.TouchReading(*gpis.voxel_downsample(touches.points, touches.normals,
                                                       cond["voxel"]))
    if not (thinned.points != thinned.points[:1]).any():
        raise FormatError(f"{_path(cfg, 'dataset:touches.ply')}: {len(touches.points)} touch "
                          f"points, thinned at voxel pitch {cond['voxel']:g}, leave "
                          f"{len(thinned.points)} and no two distinct ones; "
                          "a surface needs at least 2")
    _, radius = geometry.centroid_spread(touches.points)
    cset = gpis.build_conditioning_set([thinned], 0.02 * radius)
    k = cfg.section("kernel")
    # A one-value grid is a fixed length scale. A grid worth the forks is
    # scored on every usable CPU (workers.Split); the model is the same at
    # any CPU count. save_model leaves the fitted model for gpis-render in
    # this process, which takes it while gpis.model still holds the bytes
    # written here and refits the file otherwise.
    model = gpis.optimize_hyperparameters(cset, k["rho_grid"], k["output_scale"], k["noise"],
                                          prior_mean=0.5 * radius, cap=cond["cap"])
    io.write(gpis.save_model, "out:gpis.model", model)


def stage_gpis_render(cfg: SceneConfig, io: StageIO):
    model = io.read(gpis.load_model, "out:gpis.model")
    _, radius = geometry.centroid_spread(model.conditioning.surface_points())
    params = sdfrender.MarchParams(0.9, 1e-3 * radius, 1e-4 * radius,
                                   cfg.get("march", "max_steps"))
    sphere = sdfrender.bounding_sphere(model.conditioning)
    for name, cam in _camera_views(io):
        _save_depth_var(io, name, "gpis",
                        *sdfrender.render_depth_variance(model, cam, params, sphere=sphere))


def _read_view(io, reader, name, cam):
    """A view's image, read by name; its height and width must be the camera's."""
    image = io.read(reader, name)
    if image.shape[:2] != (cam.height, cam.width):
        raise FormatError(f"{_path(io.cfg, name)}: {image.shape[1]}x{image.shape[0]} image, "
                          f"but its camera is {cam.width}x{cam.height}")
    return image


def _load_depth_var(io, name, prefix, cam):
    """A view's depth and variance images."""
    return tuple(_read_view(io, fileio.read_pfm, f"out:{name}_{prefix}_{kind}.pfm", cam)
                 for kind in ("depth", "var"))


def _save_depth_var(io, name, prefix, depth, variance):
    io.write(fileio.write_pfm, f"out:{name}_{prefix}_depth.pfm", depth)
    io.write(fileio.write_pfm, f"out:{name}_{prefix}_var.pfm", variance)


def _read_sparse(io, view, cam, raw):
    """A view's sparse samples. Scale alignment needs two of them, each on
    one of the camera's pixels; a file that gives fewer is malformed. The
    raw mono depth `raw` must be finite under each sample and take two
    values under them, or the scale is unobservable."""
    name = f"dataset:sparse/{view}.txt"
    sparse = io.read(fileio.read_sparse_depth, name)
    if len(sparse) < 2:
        raise FormatError(f"{_path(io.cfg, name)}: {len(sparse)} depth row; "
                          "scale alignment needs at least 2")
    u, v = sparse.pixels[:, 0], sparse.pixels[:, 1]
    outside = np.flatnonzero((u < 0) | (u >= cam.width) | (v < 0) | (v >= cam.height))
    if outside.size:
        i = outside[0]
        raise FormatError(f"{_path(io.cfg, name)}: sample {i} at (u, v) = ({u[i]}, {v[i]}) "
                          f"lies outside the {cam.width}x{cam.height} image")
    under = raw[v, u]
    bad = np.flatnonzero(~np.isfinite(under))
    if bad.size:
        i = bad[0]
        raise FormatError(f"{_path(io.cfg, f'dataset:mono_depth/{view}.pfm')}: depth "
                          f"{under[i]} under sparse sample {i} at (u, v) = "
                          f"({u[i]}, {v[i]}) is not finite")
    if np.all(under == under[0]):
        raise FormatError(f"{_path(io.cfg, name)}: every sample lies on one raw mono depth, "
                          f"{under[0]}; scale alignment needs two")
    return sparse


def stage_align(cfg: SceneConfig, io: StageIO):
    for name, cam in _camera_views(io):
        raw = _read_view(io, fileio.read_pfm, f"dataset:mono_depth/{name}.pfm", cam)
        sparse = _read_sparse(io, name, cam, raw)
        g_depth = _read_view(io, fileio.read_pfm, f"out:{name}_gpis_depth.pfm", cam)
        aligned = align_mod.align_vision(raw, sparse, g_depth)
        _save_depth_var(io, name, "vision", aligned.depth, aligned.variance)
        io.write(fileio.write_keyvalues, f"out:{name}_align.txt", {
            "s_star": f"{aligned.s_star:.17g}",
            "t_star": f"{aligned.t_star:.17g}",
            "t_gpis": f"{aligned.t_object:.17g}",
        })


def stage_fuse(cfg: SceneConfig, io: StageIO):
    for name, cam in _camera_views(io):
        v_depth, v_var = _load_depth_var(io, name, "vision", cam)
        g_depth, g_var = _load_depth_var(io, name, "gpis", cam)
        f_depth, f_var, provenance = fuse.fuse_images(v_depth, v_var, g_depth, g_var)
        _save_depth_var(io, name, "fused", f_depth, f_var)
        # No stage reads the provenance masks: they are for inspection and the benchmark.
        io.write(fileio.write_pgm, f"out:{name}_provenance.pgm", provenance)


def _read_rgb(io, name, cam):
    return _read_view(io, fileio.read_ppm, f"dataset:rgb/{name}.ppm", cam)


def stage_init_points(cfg: SceneConfig, io: StageIO):
    views = _camera_views(io)
    depths = [_read_view(io, fileio.read_pfm, f"out:{n}_gpis_depth.pfm", cam) for n, cam in views]
    rgbs = [_read_rgb(io, name, cam) for name, cam in views]
    points = splat.backproject_init([(depth, cam) for depth, (_, cam) in zip(depths, views)])
    colors = np.concatenate([rgb[depth > 0.0] for rgb, depth in zip(rgbs, depths)])

    train = cfg.section("train")
    rng = np.random.default_rng(cfg.seed)
    if points.shape[0] > train["max_points"]:
        keep = np.sort(rng.choice(points.shape[0], size=train["max_points"], replace=False))
        points, colors = points[keep], colors[keep]

    # Each splat covers about 1.5 pixels at the median depth and starts at
    # opacity 0.7.
    median_depth = float(_median(np.concatenate([d[d > 0.0] for d in depths])))
    radius = 1.5 * median_depth / views[0][1].fx
    opacity = 0.7
    logit = math.log(opacity / (1.0 - opacity))
    cloud = splat.SplatCloud(
        points, colors, np.full(points.shape[0], logit), np.full(points.shape[0], radius),
        _background_color(rgbs, depths),
    )
    io.write(fileio.write_splat_ply, "out:init.ply", cloud)


def stage_train(cfg: SceneConfig, io: StageIO):
    views = [(_read_rgb(io, name, cam), *_load_depth_var(io, name, "fused", cam), cam)
             for name, cam in _camera_views(io)]
    cloud = io.read(fileio.read_splat_ply, "out:init.ply")
    log_rows = []
    trained = splat.optimize(
        cloud, views, splat.LossConfig(**cfg.section("loss")), cfg.get("train", "iters"),
        step=cfg.get("train", "step"), callback=log_rows.append,
    )
    io.write(fileio.write_splat_ply, "out:splats.ply", trained)
    lines = ["iter,color_loss,depth_loss,lambda"] + [
        f"{row['iter']},{row['color_loss']:.12g},{row['depth_loss']:.12g},{row['lam']:.12g}"
        for row in log_rows]
    io.write(fileio.atomic_write_text, "out:train_log.csv", "\n".join(lines) + "\n")


def stage_eval(cfg: SceneConfig, io: StageIO):
    shape = io.read(_read_scene, "dataset:scene.cfg")
    cloud = io.read(fileio.read_splat_ply, "out:splats.ply")

    def mse(sq_errors):
        return float(np.mean(sq_errors)) if sq_errors.size else math.nan

    view_lines = []
    sq_err_all = []
    sq_err_obj = []
    psnrs = []
    for name, cam in _camera_views(io):
        gt_rgb = _read_rgb(io, name, cam)
        gt_depth = _read_view(io, fileio.read_pfm, f"dataset:gt_depth/{name}.pfm", cam)
        object_mask = touchsim.render_gt_depth(shape, cam) > 0.0

        rgb, depth = splat.render(cloud, cam)
        psnrs.append(metrics.psnr(np.clip(rgb, 0.0, 1.0), gt_rgb))
        sq_err_all.append(metrics.depth_sq_errors(depth, gt_depth))
        sq_err_obj.append(metrics.depth_sq_errors(depth, gt_depth, mask=object_mask))
        view_lines.append(f"{name},{psnrs[-1]:.12g},{mse(sq_err_all[-1]):.12g},"
                          f"{mse(sq_err_obj[-1]):.12g},,")

    gt_cloud = touchsim.surface_points(shape, cfg.get("eval", "gt_points"), seed=cfg.seed)
    transform = metrics.align_clouds(cloud.positions, gt_cloud)
    chamfer, hausdorff = metrics.cloud_distances(
        geometry.transform_points(transform, cloud.positions), gt_cloud)
    lines = ["view,psnr_db,d_mse,d_mse_o,chamfer,hausdorff",
             f"all,{float(np.mean(psnrs)):.12g},{mse(np.concatenate(sq_err_all)):.12g},"
             f"{mse(np.concatenate(sq_err_obj)):.12g},{chamfer:.12g},{hausdorff:.12g}",
             *view_lines]
    io.write(fileio.atomic_write_text, "out:eval_report.csv", "\n".join(lines) + "\n")


# One maker per file, whatever the view names: a `*` matches no `/`, each `*`
# pattern lies in a directory of its own or ends in a suffix (`_gpis_var.pfm`,
# `_align.txt`) that ends no other suffix and no literal name.
STAGES = (
    Stage("simulate", stage_simulate, ("sim",), (
        "dataset:cameras.txt", "dataset:scene.cfg", "dataset:touches.ply",
        "dataset:sparse/*.txt", "dataset:gt_depth/*.pfm", "dataset:rgb/*.ppm",
        "dataset:mono_depth/*.pfm")),
    Stage("gpis-fit", stage_gpis_fit, ("kernel", "conditioning"), ("out:gpis.model",)),
    Stage("gpis-render", stage_gpis_render, ("march",),
          ("out:*_gpis_depth.pfm", "out:*_gpis_var.pfm")),
    Stage("align", stage_align, (),
          ("out:*_vision_depth.pfm", "out:*_vision_var.pfm", "out:*_align.txt")),
    Stage("fuse", stage_fuse, (),
          ("out:*_fused_depth.pfm", "out:*_fused_var.pfm", "out:*_provenance.pgm")),
    Stage("init-points", stage_init_points, ("train",), ("out:init.ply",)),
    Stage("train", stage_train, ("loss", "train"), ("out:splats.ply", "out:train_log.csv")),
    Stage("eval", stage_eval, ("eval",), ("out:eval_report.csv",)),
)
STAGE_ORDER = tuple(stage.name for stage in STAGES)
# run_pipeline looks each function up here at call time, so a caller may
# replace an entry (for example to trace the stage).
STAGE_FUNCS = {stage.name: stage.func for stage in STAGES}
# Each name pattern compiled once: a `*` stays within one file-name part.
_RULES = {p: re.compile("[^/]*".join(map(re.escape, p.split("*"))))
          for stage in STAGES for p in stage.makes}
_STAGE_FILE = re.compile("|".join(rule.pattern for rule in _RULES.values()))
_DIGEST = re.compile("[0-9a-f]{16}")


# ---------------------------------------------------------------------------
# manifest, locking, orchestration
# ---------------------------------------------------------------------------

def _remove_temp_files(directory):
    """Remove the temp files that atomic writers killed before their rename
    left in `directory`."""
    for name in os.listdir(directory):
        if name.startswith(".tmp-"):
            os.unlink(os.path.join(directory, name))


def _unique_keys(pairs):
    if len({key for key, _ in pairs}) < len(pairs):
        raise ValueError("an object repeats a key")
    return dict(pairs)


def _well_formed(manifest):
    """Whether a manifest has the shape `run_pipeline` writes: a record per
    stage, of a string `params` and `inputs` and `outputs` that map names
    of the files a stage makes (`_STAGE_FILE`) to digests (`_DIGEST`)."""
    def files(mapping):
        return isinstance(mapping, dict) and all(map(_STAGE_FILE.fullmatch, mapping)) and all(
            isinstance(digest, str) and _DIGEST.fullmatch(digest) for digest in mapping.values())

    return (isinstance(manifest, dict) and set(manifest) == {"version", "stages"}
            and isinstance(manifest["stages"], dict)
            and all(name in STAGE_ORDER and isinstance(record, dict)
                    and set(record) == {"params", "inputs", "outputs"}
                    and isinstance(record["params"], str)
                    and files(record["inputs"]) and files(record["outputs"])
                    for name, record in manifest["stages"].items()))


def _load_manifest(cfg):
    """The run's manifest; an empty one when there is none or it is of another version."""
    path = _path(cfg, "out:manifest.json")
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh, object_pairs_hook=_unique_keys)
            # Records of another version may lack inputs this one checks, or
            # vouch for files (such as gpis.model) in a format this one cannot read.
            if not isinstance(manifest, dict) or manifest.get("version") == MANIFEST_VERSION:
                if not _well_formed(manifest):
                    raise ValueError("not of the shape this version writes")
                return manifest
        except ValueError as exc:
            raise FormatError(f"{path}: corrupt manifest ({exc}); "
                              "delete it to rerun every stage") from exc
    return {"version": MANIFEST_VERSION, "stages": {}}


def _save_manifest(cfg, manifest):
    fileio.atomic_write_text(
        _path(cfg, "out:manifest.json"),
        json.dumps(manifest, sort_keys=True, indent=1) + "\n",
    )


@contextlib.contextmanager
def _locked(out_dir):
    """One pipeline process per output directory: an exclusive flock on the
    directory itself, which the OS drops when the holder exits or dies."""
    fd = os.open(out_dir, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise LockedError(f"output directory {out_dir} is locked by another run")
        yield
    finally:
        os.close(fd)


def wanted_stages(stages=None):
    """The stage names in `stages` (all when None); an empty list or an
    unknown name is a ConfigError."""
    wanted = set(STAGE_ORDER if stages is None else stages)
    if not wanted:
        raise ConfigError("no stage named; pick from " + ", ".join(STAGE_ORDER))
    unknown = wanted - set(STAGE_ORDER)
    if unknown:
        raise ConfigError(f"unknown stages: {sorted(unknown)}")
    return wanted


def run_pipeline(cfg: SceneConfig, stages=None):
    """Execute the requested stages in dependency order with hash skipping.

    Returns {stage: "ran" | "skipped"} for the requested stages.
    """
    wanted = wanted_stages(stages)
    for key in ("dataset", "out"):
        if os.path.isfile(cfg.get("scene", key)):
            raise cfg.error("scene", key, f"{cfg.get('scene', key)} is a file, not a directory")
    os.makedirs(cfg.out, exist_ok=True)
    status = {}
    with _locked(cfg.out):
        _remove_temp_files(cfg.out)
        manifest = _load_manifest(cfg)
        digests = {}
        for stage in STAGES:
            if stage.name not in wanted:
                continue
            io = StageIO(cfg, stage, digests, manifest["stages"])
            if io.can_skip(manifest["stages"].get(stage.name)):
                status[stage.name] = "skipped"
                continue
            STAGE_FUNCS[stage.name](cfg, io)
            io.remove_unwritten()
            manifest["stages"][stage.name] = io.record()
            _save_manifest(cfg, manifest)
            status[stage.name] = "ran"
    return status
