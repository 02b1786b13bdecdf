"""Pipeline stages chaining simulate -> fit -> render -> align -> fuse ->
init -> train -> eval over one scene configuration.

One table, `STAGES`, names each stage once: its function, the config
sections its parameters come from, and the names of the files it makes
(`dataset:` or `out:` plus a path under that directory). A stage reads and
writes every file by name through its `StageIO`, which records the names,
raises the missing-input error (naming the stage that makes the file), and
refuses writes outside the stage's patterns. The manifest stores each
stage's recorded inputs and outputs with their content hashes. A rerun
skips a stage when its parameters are unchanged and every recorded input
and output still hashes the same; each file is hashed at most once per run.

Artifacts are written atomically and never embed absolute paths, so two
runs of the same scene in different directories are byte-identical.
"""

import fcntl
import fnmatch
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import align as align_mod
from . import fileio, fuse, geometry, gpis, metrics, sdfrender, splat, touchsim
from .config import AUTO, SceneConfig
from .errors import ConfigError, DependencyError, FormatError, LockedError

MANIFEST_VERSION = 3
MONO_SCALE = 2.5
MONO_OFFSET = 0.3
LIGHT_DIR = np.array([0.4, -0.3, 0.9]) / np.linalg.norm([0.4, -0.3, 0.9])


def _path(cfg, name):
    """File path of a `dataset:` or `out:` name."""
    tag, rel = name.split(":", 1)
    return os.path.join(cfg.dataset if tag == "dataset" else cfg.out, rel)


def _matching(cfg, pattern):
    """Sorted names in a directory whose basenames match the pattern's."""
    head, base = os.path.split(pattern)
    directory = _path(cfg, head)
    if not os.path.isdir(directory):
        return []
    return [f"{head}/{f}" for f in sorted(os.listdir(directory)) if fnmatch.fnmatchcase(f, base)]


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
    (`dataset:` or `out:` plus an fnmatch pattern) the stage may write."""

    name: str
    func: Callable
    param_sections: tuple
    makes: tuple

    def produces(self, name):
        return any(fnmatch.fnmatchcase(name, pattern) for pattern in self.makes)


def _producer(name):
    return next(stage.name for stage in STAGES if stage.produces(name))


class StageIO:
    """The files one stage reads and writes, by the names `STAGES` uses.

    `read` and `glob` record inputs (a glob records its sorted match list,
    so adding or removing a matching file changes it); `write` records
    outputs. `digests` memoizes content hashes by name and is shared by
    every stage of one run_pipeline call. `recorded` is that call's live
    map of manifest stage records: an `out:` input whose producing stage
    has no record there (say, a file left by a run of another manifest
    version) counts as missing.
    """

    def __init__(self, cfg, stage, digests, recorded):
        self.cfg = cfg
        self.stage = stage
        self.digests = digests
        self.recorded = recorded
        self.inputs = set()
        self.outputs = set()

    def read(self, reader, name, *args, **kwargs):
        path = _path(self.cfg, name)
        self._record_input(name, os.path.exists(path))
        return reader(path, *args, **kwargs)

    def glob(self, pattern):
        names = _matching(self.cfg, pattern)
        self._record_input(pattern, names)
        return names

    def write(self, writer, name, *args):
        if not self.stage.produces(name):
            raise ValueError(f"stage {self.stage.name} does not make {name}")
        writer(_path(self.cfg, name), *args)
        self.outputs.add(name)

    def _record_input(self, name, found):
        if not found:
            raise DependencyError(f"{name} missing; run the {_producer(name)} stage first")
        if name.startswith("out:"):
            producer = _producer(name)
            if producer not in self.recorded:
                raise DependencyError(f"{name} has no manifest record of the {producer} "
                                      f"stage; run the {producer} stage first")
        self.inputs.add(name)

    def digest(self, name):
        """Content hash of a file (of the match names for a pattern), or
        None when it is missing."""
        if name not in self.digests:
            if "*" in name:
                matches = "\n".join(os.path.basename(m) for m in _matching(self.cfg, name))
                self.digests[name] = _hash_bytes(matches.encode())
            else:
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
    return io.read(fileio.read_cameras, "dataset:cameras.txt")


def _scene_record(io):
    return io.read(fileio.read_keyvalues, "dataset:scene.cfg")


def _shape_from_record(record):
    size = tuple(float(tok) for tok in record["size"].split())
    return touchsim.AnalyticShape(record["shape"], size)


def _background(record):
    return tuple(float(t) for t in record["background_color"].split())


def _resolve(value, auto_value):
    return auto_value if value == AUTO else value


def _march_params(cfg, radius):
    m = cfg.section("march")
    return sdfrender.MarchParams(
        m["step_fraction"],
        _resolve(m["min_step"], 1e-3 * radius),
        _resolve(m["hit_tol"], 1e-4 * radius),
        m["max_steps"],
    )


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage_simulate(cfg: SceneConfig, io: StageIO):
    sim = cfg.section("sim")
    shape = touchsim.AnalyticShape(sim["shape"], sim["size"])
    seed = cfg.seed
    subdirs = [_path(cfg, f"dataset:{sub}")
               for sub in ("touches", "sparse", "gt_depth", "rgb", "mono_depth")]
    for directory in subdirs:
        os.makedirs(directory, exist_ok=True)
    # Touch files from an earlier run with more touches would otherwise
    # stay behind and be fitted too.
    for stale in _matching(cfg, "dataset:touches/*.ply"):
        os.unlink(_path(cfg, stale))
    for directory in (cfg.dataset, *subdirs):
        _remove_temp_files(directory)

    noise = touchsim.NoiseModel(sim["touch_noise"], sim["normal_noise"], sim["sparse_noise"])
    touches = touchsim.sample_touches(
        shape, sim["touches"], sim["patch_radius"], sim["points_per_touch"], noise, seed=seed
    )
    for i, touch in enumerate(touches):
        io.write(fileio.write_touch_ply, f"dataset:touches/touch{i:03d}.ply",
                 touch.points, touch.normals)

    width, height = sim["width"], sim["height"]
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    cameras = []
    for i in range(sim["views"]):
        angle = 2.0 * math.pi * i / sim["views"]
        eye = np.array([
            sim["orbit_radius"] * math.cos(angle),
            sim["orbit_radius"] * math.sin(angle),
            sim["orbit_height"],
        ])
        pose = geometry.look_at(eye, np.zeros(3))
        cameras.append((f"view{i:03d}", sdfrender.CameraModel(
            sim["focal"], sim["focal"], cx, cy, width, height, pose)))
    io.write(fileio.write_cameras, "dataset:cameras.txt", cameras)

    object_color = np.asarray(sim["object_color"])
    background_color = np.asarray(sim["background_color"])
    for i, (name, cam) in enumerate(cameras):
        gt_object = touchsim.render_gt_depth(shape, cam)
        scene_depth, rgb = _compose_scene(shape, cam, gt_object, sim["dome_radius"],
                                          object_color, background_color)
        io.write(fileio.write_pfm, f"dataset:gt_depth/{name}.pfm", scene_depth)
        io.write(fileio.write_ppm, f"dataset:rgb/{name}.ppm", rgb)

        # Synthetic monocular stand-in: the affine-inverted scene depth with
        # the object pushed back, mimicking a metrically wrong estimator.
        vision_depth = scene_depth + sim["vision_bias"] * gt_object.hit_mask
        raw = (vision_depth - MONO_OFFSET) / MONO_SCALE
        io.write(fileio.write_pfm, f"dataset:mono_depth/{name}.pfm", raw)

        scene_image = sdfrender.DepthVarImage(scene_depth, np.zeros_like(scene_depth), cam)
        try:
            sparse = touchsim.make_sparse_depth(
                scene_image, sim["sparse_fraction"], noise, seed=seed + 1000 + i
            )
        except ValueError as exc:
            raise cfg.error("sim", "sparse_fraction", f"{name}: {exc}") from None
        io.write(fileio.write_sparse_depth, f"dataset:sparse/{name}.txt", sparse)

    record = {
        "shape": sim["shape"],
        "size": " ".join(f"{s:.17g}" for s in shape.size),
        "dome_radius": f"{sim['dome_radius']:.17g}",
        "seed": str(seed),
        "touch_noise": f"{sim['touch_noise']:.17g}",
        "normal_noise": f"{sim['normal_noise']:.17g}",
        "sparse_noise": f"{sim['sparse_noise']:.17g}",
        "vision_bias": f"{sim['vision_bias']:.17g}",
        "mono_scale": f"{MONO_SCALE:.17g}",
        "mono_offset": f"{MONO_OFFSET:.17g}",
        "object_color": " ".join(f"{c:.17g}" for c in object_color),
        "background_color": " ".join(f"{c:.17g}" for c in background_color),
    }
    io.write(fileio.write_keyvalues, "dataset:scene.cfg", record)


def _compose_scene(shape, camera, gt_object, dome_radius, object_color, background_color):
    """Scene depth = object where hit else enclosing dome; flat-shaded RGB."""
    h, w = camera.height, camera.width
    dirs, axis_cos = camera.pixel_rays()

    # The dome is centred at the origin: the camera's offset from it is its position.
    _, t_dome, _ = sdfrender.sphere_entry_exit(camera.position, dirs, dome_radius)
    dome_depth = (t_dome * axis_cos).reshape(h, w)

    hit = gt_object.hit_mask
    depth = np.where(hit, gt_object.depth, dome_depth)

    rgb = np.empty((h, w, 3))
    rgb[:] = background_color
    ys, xs = np.nonzero(hit)
    if xs.size:
        pts = camera.backproject(xs, ys, gt_object.depth[ys, xs])
        normals = touchsim.sdf_gradient(shape, pts)
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        shade = 0.25 + 0.75 * np.maximum(normals @ LIGHT_DIR, 0.0)
        rgb[ys, xs] = object_color[None, :] * shade[:, None]
    return depth, rgb


def stage_gpis_fit(cfg: SceneConfig, io: StageIO):
    touches = [io.read(fileio.read_touch_ply, name) for name in io.glob("dataset:touches/*.ply")]
    all_points = np.concatenate([t.points for t in touches])
    _, radius = geometry.centroid_spread(all_points)
    cond = cfg.section("conditioning")
    cset = gpis.build_conditioning_set(
        touches,
        _resolve(cond["surface_offset"], 0.02 * radius),
        _resolve(cond["interior_offset"], 0.01 * radius),
        n_slices=cond["slices"],
        voxel=_resolve(cond["voxel"], radius / 50.0),
    )
    k = cfg.section("kernel")
    # Without a grid the configured length scale is the one candidate. A set
    # over the cap or a matrix that will not factorize fails here (exit 4).
    # A grid worth the forks is scored on every usable CPU, this process
    # taking its tail; the model is the same at any CPU count. save_model
    # leaves the fitted model for gpis-render in this process, which takes
    # it while gpis.model still holds the bytes written here and refits the
    # file otherwise.
    model = gpis.optimize_hyperparameters(
        cset,
        [(rho, k["output_scale"]) for rho in k["rho_grid"] or (k["length_scale"],)],
        noise=k["noise"],
        prior_mean=_resolve(k["prior_mean"], 0.5 * radius),
        cap=cond["cap"],
    )
    io.write(gpis.save_model, "out:gpis.model", model)


def stage_gpis_render(cfg: SceneConfig, io: StageIO):
    model = io.read(gpis.load_model, "out:gpis.model")
    surface = model.conditioning.surface_points()
    if not len(surface):
        raise FormatError(f"{_path(cfg, 'out:gpis.model')}: GPIS model has no surface point")
    _, radius = geometry.centroid_spread(surface)
    params = _march_params(cfg, radius)
    sphere = sdfrender.bounding_sphere(
        model.conditioning, cfg.get("march", "margin"), min_radius=params.min_step
    )
    for name, cam in _camera_views(io):
        image = sdfrender.render_depth_variance(model, cam, params, sphere=sphere)
        _save_depth_var(io, name, "gpis", image.depth, image.variance)


def _read_view(io, reader, name, cam):
    """A view's image, read by name; its height and width must be the camera's."""
    image = io.read(reader, name)
    if image.shape[:2] != (cam.height, cam.width):
        raise FormatError(f"{_path(io.cfg, name)}: {image.shape[1]}x{image.shape[0]} image, "
                          f"but its camera is {cam.width}x{cam.height}")
    return image


def _load_depth_var(io, name, prefix, cam):
    return (_read_view(io, fileio.read_pfm, f"out:{name}_{prefix}_depth.pfm", cam),
            _read_view(io, fileio.read_pfm, f"out:{name}_{prefix}_var.pfm", cam))


def _save_depth_var(io, name, prefix, depth, variance):
    io.write(fileio.write_pfm, f"out:{name}_{prefix}_depth.pfm", depth)
    io.write(fileio.write_pfm, f"out:{name}_{prefix}_var.pfm", variance)


def _read_sparse(io, view, cam, raw):
    """A view's sparse samples. Scale alignment needs two of them, each on
    one of the camera's pixels; a file that gives fewer is malformed. The
    raw mono depth `raw` must be finite under each sample."""
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
    bad = np.flatnonzero(~np.isfinite(raw[v, u]))
    if bad.size:
        i = bad[0]
        raise FormatError(f"{_path(io.cfg, f'dataset:mono_depth/{view}.pfm')}: depth "
                          f"{raw[v[i], u[i]]} under sparse sample {i} at (u, v) = "
                          f"({u[i]}, {v[i]}) is not finite")
    return sparse


def stage_align(cfg: SceneConfig, io: StageIO):
    params = cfg.section("align")
    for name, cam in _camera_views(io):
        raw = _read_view(io, fileio.read_pfm, f"dataset:mono_depth/{name}.pfm", cam)
        sparse = _read_sparse(io, name, cam, raw)
        g_depth, g_var = _load_depth_var(io, name, "gpis", cam)
        touch_img = sdfrender.DepthVarImage(g_depth, g_var, cam)
        aligned = align_mod.align_vision(
            raw, sparse, touch_img,
            max_gap=params["max_gap"],
            slope=params["uncertainty_slope"],
            floor=params["uncertainty_floor"],
        )
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
        vision = align_mod.AlignedVision(v_depth, v_var, 1.0, 0.0)
        touch_img = sdfrender.DepthVarImage(g_depth, g_var, cam)
        fused = fuse.fuse_images(vision, touch_img)
        _save_depth_var(io, name, "fused", fused.depth, fused.variance)
        io.write(fileio.write_pgm, f"out:{name}_provenance.pgm", fused.provenance)


def _read_rgb(io, name, cam):
    return _read_view(io, fileio.read_ppm, f"dataset:rgb/{name}.ppm", cam)


def stage_init_points(cfg: SceneConfig, io: StageIO):
    views = _camera_views(io)
    images = []
    colors = []
    for name, cam in views:
        g_depth, g_var = _load_depth_var(io, name, "gpis", cam)
        image = sdfrender.DepthVarImage(g_depth, g_var, cam)
        images.append(image)
        colors.append(_read_rgb(io, name, cam)[image.hit_mask])
    points = splat.backproject_init(images)
    colors = np.concatenate(colors, axis=0)

    train = cfg.section("train")
    rng = np.random.default_rng(cfg.seed)
    if points.shape[0] > train["max_points"]:
        keep = np.sort(rng.choice(points.shape[0], size=train["max_points"], replace=False))
        points, colors = points[keep], colors[keep]

    cam0 = views[0][1]
    median_depth = float(np.median(np.concatenate([img.depth[img.hit_mask] for img in images])))
    radius = _resolve(train["splat_radius"], 1.5 * median_depth / cam0.fx)
    logit = math.log(train["opacity"] / (1.0 - train["opacity"]))
    cloud = splat.SplatCloud(
        points, colors, np.full(points.shape[0], logit), np.full(points.shape[0], radius),
    )
    io.write(fileio.write_splat_ply, "out:init.ply", cloud)


def stage_train(cfg: SceneConfig, io: StageIO):
    cloud = io.read(fileio.read_splat_ply, "out:init.ply",
                    background=_background(_scene_record(io)))
    views = []
    for name, cam in _camera_views(io):
        rgb = _read_rgb(io, name, cam)
        f_depth, f_var = _load_depth_var(io, name, "fused", cam)
        provenance = _read_view(io, fileio.read_pgm, f"out:{name}_provenance.pgm", cam)
        views.append((rgb, fuse.FusedSupervision(f_depth, f_var, provenance), cam))
    loss_cfg = splat.LossConfig(
        cfg.get("loss", "depth_weight"),
        cfg.get("loss", "sharpness"),
        cfg.get("loss", "decay"),
    )
    log_rows = []
    trained = splat.optimize(
        cloud, views, loss_cfg, cfg.get("train", "iters"),
        step=cfg.get("train", "step"),
        callback=lambda row: log_rows.append(row),
    )
    io.write(fileio.write_splat_ply, "out:splats.ply", trained)
    lines = ["iter,color_loss,depth_loss,lambda"]
    for row in log_rows:
        lines.append(f"{row['iter']},{row['color_loss']:.12g},"
                     f"{row['depth_loss']:.12g},{row['lam']:.12g}")
    io.write(fileio.atomic_write_text, "out:train_log.csv", "\n".join(lines) + "\n")


def evaluate_scene(cfg: SceneConfig, io: StageIO):
    """Compute the full metric report for the trained cloud."""
    record = _scene_record(io)
    shape = _shape_from_record(record)
    cloud = io.read(fileio.read_splat_ply, "out:splats.ply",
                    background=_background(record))

    def mse(sq_errors):
        return float(np.mean(sq_errors)) if sq_errors.size else math.nan

    per_view = []
    sq_err_all = []
    sq_err_obj = []
    psnrs = []
    for name, cam in _camera_views(io):
        gt_depth = _read_view(io, fileio.read_pfm, f"dataset:gt_depth/{name}.pfm", cam)
        gt_rgb = _read_rgb(io, name, cam)
        object_mask = touchsim.render_gt_depth(shape, cam).hit_mask

        rgb, depth = splat.render(cloud, cam)
        view_psnr = metrics.psnr(np.clip(rgb, 0.0, 1.0), gt_rgb)
        psnrs.append(view_psnr)
        sq_err_all.append(metrics.depth_sq_errors(depth, gt_depth))
        sq_err_obj.append(metrics.depth_sq_errors(depth, gt_depth, mask=object_mask))
        per_view.append((name, view_psnr, mse(sq_err_all[-1]), mse(sq_err_obj[-1])))

    gt_cloud = touchsim.surface_points(shape, cfg.get("eval", "gt_points"), seed=cfg.seed)
    pred = cloud.positions
    transform = metrics.align_clouds(pred, gt_cloud, iters=cfg.get("eval", "icp_iters"))
    moved = pred @ transform[:3, :3].T + transform[:3, 3]
    return metrics.EvalReport(
        psnr=float(np.mean(psnrs)),
        d_mse=mse(np.concatenate(sq_err_all)),
        d_mse_o=mse(np.concatenate(sq_err_obj)),
        chamfer=metrics.chamfer(moved, gt_cloud),
        hausdorff=metrics.hausdorff(moved, gt_cloud),
        per_view=per_view,
    )


def stage_eval(cfg: SceneConfig, io: StageIO):
    report = evaluate_scene(cfg, io)
    io.write(fileio.atomic_write_text, "out:eval_report.txt", report.to_text())
    io.write(fileio.atomic_write_text, "out:eval_report.csv", report.to_csv())


STAGES = (
    Stage("simulate", stage_simulate, ("sim",), (
        "dataset:cameras.txt", "dataset:scene.cfg", "dataset:touches/*.ply",
        "dataset:sparse/*.txt", "dataset:gt_depth/*.pfm", "dataset:rgb/*.ppm",
        "dataset:mono_depth/*.pfm")),
    Stage("gpis-fit", stage_gpis_fit, ("kernel", "conditioning"), ("out:gpis.model",)),
    Stage("gpis-render", stage_gpis_render, ("march",), ("out:*_gpis_*.pfm",)),
    Stage("align", stage_align, ("align",), ("out:*_vision_*.pfm", "out:*_align.txt")),
    Stage("fuse", stage_fuse, (), ("out:*_fused_*.pfm", "out:*_provenance.pgm")),
    Stage("init-points", stage_init_points, ("train",), ("out:init.ply",)),
    Stage("train", stage_train, ("loss", "train"), ("out:splats.ply", "out:train_log.csv")),
    Stage("eval", stage_eval, ("eval",), ("out:eval_report.*",)),
)
STAGE_ORDER = tuple(stage.name for stage in STAGES)
# run_pipeline looks each function up here at call time, so a caller may
# replace an entry (for example to trace the stage).
STAGE_FUNCS = {stage.name: stage.func for stage in STAGES}


# ---------------------------------------------------------------------------
# manifest, locking, orchestration
# ---------------------------------------------------------------------------

def _remove_temp_files(directory):
    """Remove the temp files that atomic writers killed before their rename
    left in `directory`."""
    for name in os.listdir(directory):
        if name.startswith(".tmp-"):
            os.unlink(os.path.join(directory, name))


def _load_manifest(cfg):
    path = _path(cfg, "out:manifest.json")
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except ValueError as exc:
            raise FormatError(f"{path}: corrupt manifest ({exc}); "
                              "delete it to rerun every stage") from exc
        # Records of another version may lack inputs this one checks, or
        # vouch for files (such as gpis.model) in a format this one cannot read.
        if manifest.get("version") == MANIFEST_VERSION:
            return manifest
    return {"version": MANIFEST_VERSION, "stages": {}}


def _save_manifest(cfg, manifest):
    fileio.atomic_write_text(
        _path(cfg, "out:manifest.json"),
        json.dumps(manifest, sort_keys=True, indent=1) + "\n",
    )


class PipelineLock:
    """One pipeline process per output directory: an exclusive flock on the
    directory itself, which the OS drops when the holder exits or dies."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.fd = None

    def __enter__(self):
        self.fd = os.open(self.out_dir, os.O_RDONLY)
        try:
            fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(self.fd)
            raise LockedError(f"output directory {self.out_dir} is locked by another run")
        return self

    def __exit__(self, *exc):
        os.close(self.fd)
        return False


def wanted_stages(stages=None):
    """The stage names in `stages` (all when None); an unknown one is a ConfigError."""
    wanted = set(STAGE_ORDER if stages is None else stages)
    unknown = wanted - set(STAGE_ORDER)
    if unknown:
        raise ConfigError(f"unknown stages: {sorted(unknown)}")
    return wanted


def run_pipeline(cfg: SceneConfig, stages=None):
    """Execute the requested stages in dependency order with hash skipping.

    Returns {stage: "ran" | "skipped"} for the requested stages.
    """
    wanted = wanted_stages(stages)
    os.makedirs(cfg.out, exist_ok=True)
    status = {}
    with PipelineLock(cfg.out):
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
            manifest["stages"][stage.name] = io.record()
            _save_manifest(cfg, manifest)
            status[stage.name] = "ran"
    return status
