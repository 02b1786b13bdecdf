"""Pipeline stages chaining simulate -> fit -> render -> align -> fuse ->
init -> train -> eval over one scene configuration.

One table, `STAGES`, names each stage once: its function, the config
sections its parameters come from, and the path patterns it makes. A stage
reads and writes every file through its `StageIO`, which records the paths,
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
from .errors import DependencyError, FormatError, LockedError

MANIFEST_VERSION = 3
MONO_SCALE = 2.5
MONO_OFFSET = 0.3
LIGHT_DIR = np.array([0.4, -0.3, 0.9]) / np.linalg.norm([0.4, -0.3, 0.9])


def _view_names(n):
    return [f"view{i:03d}" for i in range(n)]


def _dataset_path(cfg, *parts):
    return os.path.join(cfg.dataset, *parts)


def _out_path(cfg, *parts):
    return os.path.join(cfg.out, *parts)


def _tagged(cfg, path):
    for tag, root in (("dataset", cfg.dataset), ("out", cfg.out)):
        root = os.path.abspath(root)
        ap = os.path.abspath(path)
        if ap.startswith(root + os.sep):
            return f"{tag}:{os.path.relpath(ap, root)}"
    return os.path.abspath(path)


def _untagged(cfg, tagged):
    tag, rel = tagged.split(":", 1)
    return os.path.join(cfg.dataset if tag == "dataset" else cfg.out, rel)


def _matching(pattern):
    """Sorted paths in a directory whose names match the pattern's basename."""
    directory, name = os.path.split(pattern)
    if not os.path.isdir(directory):
        return []
    return [os.path.join(directory, f) for f in sorted(os.listdir(directory))
            if fnmatch.fnmatchcase(f, name)]


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
    """One row of the stage table. `makes` holds the tagged path patterns
    (`dataset:` or `out:` plus an fnmatch pattern) the stage may write."""

    name: str
    func: Callable
    param_sections: tuple
    makes: tuple

    def produces(self, tagged):
        return any(fnmatch.fnmatchcase(tagged, pattern) for pattern in self.makes)


def _producer(tagged):
    return next(stage.name for stage in STAGES if stage.produces(tagged))


class StageIO:
    """The files one stage reads and writes.

    `read` and `glob` record inputs (a glob records its sorted match list,
    so adding or removing a matching file changes it); `write` records
    outputs. `digests` memoizes content hashes by tagged path and is shared
    by every stage of one run_pipeline call. `recorded` is that call's live
    map of manifest stage records: an `out:` input whose producing stage
    has no record there (say, a file left by a run of another manifest
    version) counts as missing. Without a stage, the context only reads,
    for callers outside a run.
    """

    def __init__(self, cfg, stage=None, digests=None, recorded=None):
        self.cfg = cfg
        self.stage = stage
        self.digests = {} if digests is None else digests
        self.recorded = recorded
        self.inputs = set()
        self.outputs = set()

    def read(self, reader, path, *args, **kwargs):
        self._record_input(path, os.path.exists(path))
        return reader(path, *args, **kwargs)

    def glob(self, pattern):
        paths = _matching(pattern)
        self._record_input(pattern, paths)
        return paths

    def write(self, writer, path, *args):
        tagged = _tagged(self.cfg, path)
        if not self.stage.produces(tagged):
            raise ValueError(f"stage {self.stage.name} does not make {tagged}")
        writer(path, *args)
        self.outputs.add(tagged)

    def _record_input(self, path, found):
        tagged = _tagged(self.cfg, path)
        if not found:
            raise DependencyError(f"{tagged} missing; run the {_producer(tagged)} stage first")
        if self.recorded is not None and tagged.startswith("out:"):
            producer = _producer(tagged)
            if producer not in self.recorded:
                raise DependencyError(f"{tagged} has no manifest record of the {producer} "
                                      f"stage; run the {producer} stage first")
        self.inputs.add(tagged)

    def digest(self, tagged):
        """Content hash of a tagged file (of the match names for a pattern),
        or None when it is missing."""
        if tagged not in self.digests:
            path = _untagged(self.cfg, tagged)
            if "*" in tagged:
                names = "\n".join(os.path.basename(p) for p in _matching(path))
                self.digests[tagged] = _hash_bytes(names.encode())
            else:
                self.digests[tagged] = _hash_file(path) if os.path.exists(path) else None
        return self.digests[tagged]

    def params(self):
        payload = {"seed": self.cfg.seed, "stage": self.stage.name}
        for section in self.stage.param_sections:
            payload[section] = {k: repr(v) for k, v in self.cfg.section(section).items()}
        return _hash_bytes(json.dumps(payload, sort_keys=True).encode())

    def can_skip(self, record):
        if record is None or record["params"] != self.params() or not record["outputs"]:
            return False
        recorded = {**record["inputs"], **record["outputs"]}
        return all(self.digest(tagged) == digest for tagged, digest in recorded.items())

    def record(self):
        """Manifest entry of the stage that just ran; forgets the digests of
        every path it may have written or removed."""
        for tagged in [t for t in self.digests if self.stage.produces(t)]:
            del self.digests[tagged]
        return {
            "params": self.params(),
            "inputs": {tagged: self.digest(tagged) for tagged in self.inputs},
            "outputs": {tagged: self.digest(tagged) for tagged in self.outputs},
        }


def _camera_views(cfg, io):
    return io.read(fileio.read_cameras, _dataset_path(cfg, "cameras.txt"))


def _scene_record(cfg, io=None):
    return (io or StageIO(cfg)).read(fileio.read_keyvalues, _dataset_path(cfg, "scene.cfg"))


def _shape_from_record(record):
    size = tuple(float(tok) for tok in record["size"].split())
    return touchsim.AnalyticShape(record["shape"], size)


def _background(record):
    return tuple(float(t) for t in record["background_color"].split())


def _bounding_radius(points):
    center = points.mean(axis=0)
    return float(np.max(np.linalg.norm(points - center, axis=1)))


def _resolve(value, auto_value):
    return auto_value if value == AUTO else value


def _kernel_params(cfg, radius):
    k = cfg.section("kernel")
    return gpis.KernelParams(
        k["length_scale"],
        k["output_scale"],
        k["noise"],
        _resolve(k["prior_mean"], 0.5 * radius),
    )


def _march_params(cfg, radius):
    m = cfg.section("march")
    return sdfrender.MarchParams(
        m["step_fraction"],
        _resolve(m["min_step"], 1e-3 * radius),
        _resolve(m["hit_tol"], 1e-4 * radius),
        m["max_steps"],
        m["t_max"],
    )


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage_simulate(cfg: SceneConfig, io: StageIO):
    sim = cfg.section("sim")
    shape = touchsim.AnalyticShape(sim["shape"], sim["size"])
    seed = cfg.seed
    for sub in ("touches", "sparse", "gt_depth", "rgb", "mono_depth"):
        os.makedirs(_dataset_path(cfg, sub), exist_ok=True)
    # Touch files from an earlier run with more touches would otherwise
    # stay behind and be fitted too.
    for stale in _matching(_dataset_path(cfg, "touches", "*.ply")):
        os.unlink(stale)

    noise = touchsim.NoiseModel(sim["touch_noise"], sim["normal_noise"], sim["sparse_noise"])
    touches = touchsim.sample_touches(
        shape, sim["touches"], sim["patch_radius"], sim["points_per_touch"], noise, seed=seed
    )
    for i, touch in enumerate(touches):
        io.write(fileio.write_touch_ply, _dataset_path(cfg, "touches", f"touch{i:03d}.ply"),
                 touch.points, touch.normals)

    width, height = sim["width"], sim["height"]
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    names = _view_names(sim["views"])
    cameras = []
    for i, name in enumerate(names):
        angle = 2.0 * math.pi * i / sim["views"]
        eye = np.array([
            sim["orbit_radius"] * math.cos(angle),
            sim["orbit_radius"] * math.sin(angle),
            sim["orbit_height"],
        ])
        pose = geometry.look_at(eye, np.zeros(3))
        cameras.append((name, sdfrender.CameraModel(
            sim["focal"], sim["focal"], cx, cy, width, height, pose)))
    io.write(fileio.write_cameras, _dataset_path(cfg, "cameras.txt"), cameras)

    object_color = np.asarray(sim["object_color"])
    background_color = np.asarray(sim["background_color"])
    for i, (name, cam) in enumerate(cameras):
        gt_object = touchsim.render_gt_depth(shape, cam)
        scene_depth, rgb = _compose_scene(shape, cam, gt_object, sim["dome_radius"],
                                          object_color, background_color)
        io.write(fileio.write_pfm, _dataset_path(cfg, "gt_depth", f"{name}.pfm"), scene_depth)
        io.write(fileio.write_ppm, _dataset_path(cfg, "rgb", f"{name}.ppm"), rgb)

        # Synthetic monocular stand-in: the affine-inverted scene depth with
        # the object pushed back, mimicking a metrically wrong estimator.
        vision_depth = scene_depth + sim["vision_bias"] * gt_object.hit_mask
        raw = (vision_depth - MONO_OFFSET) / MONO_SCALE
        io.write(fileio.write_pfm, _dataset_path(cfg, "mono_depth", f"{name}.pfm"), raw)

        scene_image = sdfrender.DepthVarImage(scene_depth, np.zeros_like(scene_depth), cam)
        sparse = touchsim.make_sparse_depth(
            scene_image, sim["sparse_fraction"], noise, seed=seed + 1000 + i
        )
        io.write(fileio.write_sparse_depth, _dataset_path(cfg, "sparse", f"{name}.txt"), sparse)

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
    io.write(fileio.write_keyvalues, _dataset_path(cfg, "scene.cfg"), record)


def _compose_scene(shape, camera, gt_object, dome_radius, object_color, background_color):
    """Scene depth = object where hit else enclosing dome; flat-shaded RGB."""
    h, w = camera.height, camera.width
    dirs, axis_cos = camera.pixel_rays()

    origin = camera.position
    b = dirs @ origin
    c = float(origin @ origin) - dome_radius ** 2
    t_dome = -b + np.sqrt(b * b - c)
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
    touches = [gpis.TouchReading(*io.read(fileio.read_touch_ply, path))
               for path in io.glob(_dataset_path(cfg, "touches", "*.ply"))]
    all_points = np.concatenate([t.points for t in touches])
    radius = _bounding_radius(all_points)
    cond = cfg.section("conditioning")
    cset = gpis.build_conditioning_set(
        touches,
        _resolve(cond["surface_offset"], 0.02 * radius),
        _resolve(cond["interior_offset"], 0.01 * radius),
        n_slices=cond["slices"],
        voxel=_resolve(cond["voxel"], radius / 50.0),
    )
    params = _kernel_params(cfg, radius)
    grid = cfg.get("kernel", "rho_grid")
    if grid:
        params = gpis.optimize_hyperparameters(
            cset,
            [(rho, params.output_scale) for rho in grid],
            noise=params.noise,
            prior_mean=params.prior_mean,
            cap=cond["cap"],
        )
    else:
        # The file holds only the set and the parameters, and gpis-render
        # refits them. Fitting once here anyway makes a set over the cap or
        # a matrix that will not factorize fail at this stage (exit 4).
        gpis.fit(cset, params, cap=cond["cap"])
    io.write(gpis.save_model, _out_path(cfg, "gpis.model"), cset, params)


def stage_gpis_render(cfg: SceneConfig, io: StageIO):
    model = io.read(gpis.load_model, _out_path(cfg, "gpis.model"))
    radius = _bounding_radius(model.conditioning.surface_points())
    params = _march_params(cfg, radius)
    sphere = sdfrender.bounding_sphere(
        model.conditioning, cfg.get("march", "margin"), min_radius=params.min_step
    )
    for name, cam in _camera_views(cfg, io):
        image = sdfrender.render_depth_variance(model, cam, params, sphere=sphere)
        io.write(fileio.write_pfm, _out_path(cfg, f"{name}_gpis_depth.pfm"), image.depth)
        io.write(fileio.write_pfm, _out_path(cfg, f"{name}_gpis_var.pfm"), image.variance)


def _load_depth_var(cfg, io, name, prefix):
    return (io.read(fileio.read_pfm, _out_path(cfg, f"{name}_{prefix}_depth.pfm")),
            io.read(fileio.read_pfm, _out_path(cfg, f"{name}_{prefix}_var.pfm")))


def stage_align(cfg: SceneConfig, io: StageIO):
    params = cfg.section("align")
    for name, cam in _camera_views(cfg, io):
        raw = io.read(fileio.read_pfm, _dataset_path(cfg, "mono_depth", f"{name}.pfm"))
        sparse = io.read(fileio.read_sparse_depth, _dataset_path(cfg, "sparse", f"{name}.txt"),
                         source="synthetic")
        g_depth, g_var = _load_depth_var(cfg, io, name, "gpis")
        touch_img = sdfrender.DepthVarImage(g_depth, g_var, cam)
        aligned = align_mod.align_vision(
            raw, sparse, touch_img,
            max_gap=params["max_gap"],
            slope=params["uncertainty_slope"],
            floor=params["uncertainty_floor"],
        )
        io.write(fileio.write_pfm, _out_path(cfg, f"{name}_vision_depth.pfm"), aligned.depth)
        io.write(fileio.write_pfm, _out_path(cfg, f"{name}_vision_var.pfm"), aligned.variance)
        io.write(fileio.write_keyvalues, _out_path(cfg, f"{name}_align.txt"), {
            "s_star": f"{aligned.s_star:.17g}",
            "t_star": f"{aligned.t_star:.17g}",
            "t_gpis": f"{aligned.t_object:.17g}",
        })


def stage_fuse(cfg: SceneConfig, io: StageIO):
    for name, cam in _camera_views(cfg, io):
        v_depth, v_var = _load_depth_var(cfg, io, name, "vision")
        g_depth, g_var = _load_depth_var(cfg, io, name, "gpis")
        vision = align_mod.AlignedVision(v_depth, v_var, 1.0, 0.0)
        touch_img = sdfrender.DepthVarImage(g_depth, g_var, cam)
        fused = fuse.fuse_images(vision, touch_img)
        io.write(fileio.write_pfm, _out_path(cfg, f"{name}_fused_depth.pfm"), fused.depth)
        io.write(fileio.write_pfm, _out_path(cfg, f"{name}_fused_var.pfm"), fused.variance)
        io.write(fileio.write_pgm, _out_path(cfg, f"{name}_provenance.pgm"), fused.provenance)


def _read_rgb(cfg, io, name):
    return io.read(fileio.read_ppm, _dataset_path(cfg, "rgb", f"{name}.ppm"))


def stage_init_points(cfg: SceneConfig, io: StageIO):
    views = _camera_views(cfg, io)
    images = []
    colors = []
    for name, cam in views:
        g_depth, g_var = _load_depth_var(cfg, io, name, "gpis")
        image = sdfrender.DepthVarImage(g_depth, g_var, cam)
        images.append(image)
        rgb = _read_rgb(cfg, io, name)
        ys, xs = np.nonzero(image.hit_mask)
        colors.append(rgb[ys, xs])
    points = splat.backproject_init(images)
    colors = np.concatenate(colors, axis=0) if colors else np.empty((0, 3))

    train = cfg.section("train")
    rng = np.random.default_rng(cfg.seed)
    if points.shape[0] > train["max_points"]:
        keep = np.sort(rng.choice(points.shape[0], size=train["max_points"], replace=False))
        points, colors = points[keep], colors[keep]

    cam0 = views[0][1]
    hit_depths = np.concatenate([img.depth[img.hit_mask] for img in images if img.hit_mask.any()])
    median_depth = float(np.median(hit_depths)) if hit_depths.size else 1.0
    radius = _resolve(train["splat_radius"], 1.5 * median_depth / cam0.fx)
    logit = math.log(train["opacity"] / (1.0 - train["opacity"]))
    background = np.array(_background(_scene_record(cfg, io)))
    cloud = splat.SplatCloud(
        points, colors, np.full(points.shape[0], logit), np.full(points.shape[0], radius),
        background,
    )
    io.write(fileio.write_splat_ply, _out_path(cfg, "init.ply"), cloud)


def stage_train(cfg: SceneConfig, io: StageIO):
    cloud = io.read(fileio.read_splat_ply, _out_path(cfg, "init.ply"),
                    background=_background(_scene_record(cfg, io)))
    views = []
    for name, cam in _camera_views(cfg, io):
        rgb = _read_rgb(cfg, io, name)
        f_depth, f_var = _load_depth_var(cfg, io, name, "fused")
        provenance = io.read(fileio.read_pgm, _out_path(cfg, f"{name}_provenance.pgm"))
        views.append((rgb, fuse.FusedSupervision(f_depth, f_var, provenance), cam))
    loss_cfg = splat.LossConfig(
        cfg.get("loss", "depth_weight"),
        cfg.get("loss", "sharpness"),
        cfg.get("loss", "decay"),
        cfg.get("loss", "base_weight"),
    )
    log_rows = []
    trained = splat.optimize(
        cloud, views, loss_cfg, cfg.get("train", "iters"),
        step=cfg.get("train", "step"),
        callback=lambda row: log_rows.append(row),
    )
    io.write(fileio.write_splat_ply, _out_path(cfg, "splats.ply"), trained)
    lines = ["iter,color_loss,depth_loss,lambda"]
    for row in log_rows:
        lines.append(f"{row['iter']},{row['color_loss']:.12g},"
                     f"{row['depth_loss']:.12g},{row['lam']:.12g}")
    io.write(fileio.atomic_write_text, _out_path(cfg, "train_log.csv"), "\n".join(lines) + "\n")


def evaluate_scene(cfg: SceneConfig, cloud=None, io=None):
    """Compute the full metric report for the trained cloud."""
    io = io or StageIO(cfg)
    record = _scene_record(cfg, io)
    shape = _shape_from_record(record)
    if cloud is None:
        cloud = io.read(fileio.read_splat_ply, _out_path(cfg, "splats.ply"),
                        background=_background(record))

    per_view = []
    sq_err_all = []
    sq_err_obj = []
    psnrs = []
    for name, cam in _camera_views(cfg, io):
        gt_depth = io.read(fileio.read_pfm, _dataset_path(cfg, "gt_depth", f"{name}.pfm"))
        gt_rgb = _read_rgb(cfg, io, name)
        gt_image = sdfrender.DepthVarImage(gt_depth, np.zeros_like(gt_depth), cam)
        object_mask = touchsim.render_gt_depth(shape, cam).hit_mask

        rgb, depth = splat.render(cloud, cam)
        view_psnr = metrics.psnr(np.clip(rgb, 0.0, 1.0), gt_rgb)
        valid = gt_image.hit_mask & (depth > 0.0)
        view_mse = float(np.mean((depth[valid] - gt_depth[valid]) ** 2)) if valid.any() else math.nan
        obj_valid = valid & object_mask
        view_mse_o = (float(np.mean((depth[obj_valid] - gt_depth[obj_valid]) ** 2))
                      if obj_valid.any() else math.nan)
        psnrs.append(view_psnr)
        sq_err_all.append((depth[valid] - gt_depth[valid]) ** 2)
        sq_err_obj.append((depth[obj_valid] - gt_depth[obj_valid]) ** 2)
        per_view.append((name, view_psnr, view_mse, view_mse_o))

    gt_cloud = touchsim.surface_points(shape, cfg.get("eval", "gt_points"), seed=cfg.seed)
    pred = cloud.positions
    transform = metrics.align_clouds(pred, gt_cloud, iters=cfg.get("eval", "icp_iters"))
    moved = pred @ transform[:3, :3].T + transform[:3, 3]
    report = metrics.EvalReport(
        psnr=float(np.mean(psnrs)),
        d_mse=float(np.mean(np.concatenate(sq_err_all))),
        d_mse_o=float(np.mean(np.concatenate(sq_err_obj))),
        chamfer=metrics.chamfer(moved, gt_cloud),
        hausdorff=metrics.hausdorff(moved, gt_cloud),
        per_view=per_view,
    )
    return report


def stage_eval(cfg: SceneConfig, io: StageIO):
    report = evaluate_scene(cfg, io=io)
    io.write(fileio.atomic_write_text, _out_path(cfg, "eval_report.txt"), report.to_text())
    io.write(fileio.atomic_write_text, _out_path(cfg, "eval_report.csv"), report.to_csv())


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

def _load_manifest(cfg):
    path = _out_path(cfg, "manifest.json")
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
        _out_path(cfg, "manifest.json"),
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


def run_pipeline(cfg: SceneConfig, stages=None):
    """Execute the requested stages in dependency order with hash skipping.

    Returns {stage: "ran" | "skipped"} for the requested stages.
    """
    wanted = set(STAGE_ORDER if stages is None else stages)
    unknown = wanted - set(STAGE_ORDER)
    if unknown:
        raise ValueError(f"unknown stages: {sorted(unknown)}")
    os.makedirs(cfg.out, exist_ok=True)
    status = {}
    with PipelineLock(cfg.out):
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
