"""Output checks for one benchmark round, written apart from touchfuse.

Every check reads the artifacts with its own small parsers and compares them
against a closed-form reference (the shape's exact SDF, a numpy.polyfit line,
the inverse-variance fusion rule) or against a property the method must have
(provenance follows input validity, a rerun changes no byte). Nothing here
imports touchfuse, so a fault in the program's readers or math cannot hide a
fault in its outputs.

Each check returns a list of failure messages; an empty list means it passed.
"""

import hashlib
import math
import os

import numpy as np

MISS_VAR = 1e10

PROVENANCE_NONE = 0
PROVENANCE_VISION = 85
PROVENANCE_TOUCH = 170
PROVENANCE_FUSED = 255

# Artifacts are float32 rasters, so identities between them hold to float32
# rounding of float64 results computed from float32 inputs.
F32_REL_TOL = 1e-6
ALIGN_REL_TOL = 1e-6


# ---------------------------------------------------------------------------
# closed-form signed distances (shapes centred at the origin)
# ---------------------------------------------------------------------------

def shape_sdf(kind, size, points):
    """Exact signed distance of (N, 3) points to a sphere, box or torus."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if kind == "sphere":
        return np.sqrt(np.sum(p * p, axis=1)) - size[0]
    if kind == "box":
        half = np.broadcast_to(np.asarray(size, dtype=np.float64), (3,))
        q = np.abs(p) - half
        outside = np.sqrt(np.sum(np.maximum(q, 0.0) ** 2, axis=1))
        return outside + np.minimum(np.max(q, axis=1), 0.0)
    if kind == "torus":
        major, minor = size
        ring = np.sqrt(p[:, 0] ** 2 + p[:, 1] ** 2) - major
        return np.sqrt(ring * ring + p[:, 2] ** 2) - minor
    raise ValueError(f"unknown shape kind {kind!r}")


# ---------------------------------------------------------------------------
# artifact readers
# ---------------------------------------------------------------------------

def read_pfm(path):
    """Greyscale PFM as float64, rows top-down."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, dims, scale, data = blob.split(b"\n", 3)
    if magic.strip() != b"Pf":
        raise ValueError(f"{path}: not a greyscale PFM")
    width, height = (int(tok) for tok in dims.split())
    dtype = "<f4" if float(scale) < 0 else ">f4"
    pixels = np.frombuffer(data, dtype=dtype, count=width * height)
    return pixels.reshape(height, width)[::-1].astype(np.float64)


def read_pgm(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, dims, _, data = blob.split(b"\n", 3)
    if magic.strip() != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    width, height = (int(tok) for tok in dims.split())
    return np.frombuffer(data, dtype=np.uint8, count=width * height).reshape(height, width)


def read_ply_vertices(path):
    """Vertex rows of an ASCII PLY as an (N, k) float64 array."""
    with open(path, "r", encoding="ascii") as fh:
        count = None
        for line in fh:
            if line.startswith("element vertex"):
                count = int(line.split()[-1])
            if line.strip() == "end_header":
                break
        rows = np.loadtxt(fh, dtype=np.float64, ndmin=2)
    if count is None or rows.shape[0] != count:
        raise ValueError(f"{path}: vertex count does not match its rows")
    return rows


def read_cameras(path):
    """[(name, fx, fy, cx, cy, 4x4 world-from-camera pose)] in file order."""
    views = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            tok = raw.split()
            if not tok:
                continue
            if tok[0] == "view":
                views.append({"name": tok[1], "pose": []})
            elif tok[0] == "intrinsics":
                views[-1]["intr"] = [float(x) for x in tok[1:5]]
            elif tok[0] == "pose":
                views[-1]["pose"].append([float(x) for x in tok[1:5]])
    return [(v["name"], *v["intr"], np.array(v["pose"])) for v in views]


def read_keyvalues(path):
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            if "=" in raw:
                key, value = raw.split("=", 1)
                out[key.strip()] = value.strip()
    return out


def backproject(depth, fx, fy, cx, cy, pose):
    """World points of every pixel with positive z-depth."""
    ys, xs = np.nonzero(depth > 0.0)
    d = depth[ys, xs]
    cam = np.stack([(xs - cx) / fx * d, (ys - cy) / fy * d, d], axis=1)
    return cam @ pose[:3, :3].T + pose[:3, 3]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def touch_surface_errors(dataset, out, shape):
    """|SDF| of every backprojected GPIS hit pixel, all views concatenated."""
    errors = []
    for name, fx, fy, cx, cy, pose in read_cameras(os.path.join(dataset, "cameras.txt")):
        depth = read_pfm(os.path.join(out, f"{name}_gpis_depth.pfm"))
        errors.append(np.abs(shape_sdf(shape[0], shape[1], backproject(depth, fx, fy, cx, cy, pose))))
    return np.concatenate(errors) if errors else np.empty(0)


def check_touch_surface(dataset, out, shape, bound):
    """GPIS hit pixels lie near the true surface.

    `bound` = (median_max, p95_max, hit_min): the median and the 95th
    percentile of |SDF| over all hit pixels, in meters, and the fewest hit
    pixels a render may produce. Grazing rays on a smoothed GP surface
    leave a thin tail, so the bound is on percentiles, not the maximum.
    """
    errors = touch_surface_errors(dataset, out, shape)
    median_max, p95_max, hit_min = bound
    if errors.size < hit_min:
        return [f"touch surface: {errors.size} hit pixels, expected at least {hit_min}"]
    failures = []
    median, p95 = float(np.median(errors)), float(np.percentile(errors, 95))
    if not median <= median_max:
        failures.append(f"touch surface: median |sdf| {median:.4g} m above {median_max} m")
    if not p95 <= p95_max:
        failures.append(f"touch surface: 95th percentile |sdf| {p95:.4g} m above {p95_max} m")
    return failures


def check_alignment(dataset, out):
    """s*, t* in each *_align.txt equal a polyfit of sparse vs mono depth."""
    failures = []
    for name, *_ in read_cameras(os.path.join(dataset, "cameras.txt")):
        rows = np.loadtxt(os.path.join(dataset, "sparse", f"{name}.txt"), ndmin=2)
        raw = read_pfm(os.path.join(dataset, "mono_depth", f"{name}.pfm"))
        u, v = rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64)
        scale, offset = np.polyfit(raw[v, u], rows[:, 2], 1)
        record = read_keyvalues(os.path.join(out, f"{name}_align.txt"))
        s_star, t_star = float(record["s_star"]), float(record["t_star"])
        if not abs(s_star - scale) <= ALIGN_REL_TOL * max(1.0, abs(scale)):
            failures.append(f"align {name}: s* {s_star!r} but polyfit gives {scale!r}")
        if not abs(t_star - offset) <= ALIGN_REL_TOL * max(1.0, abs(offset)):
            failures.append(f"align {name}: t* {t_star!r} but polyfit gives {offset!r}")
    return failures


def _close(a, b, rel=F32_REL_TOL):
    return np.abs(a - b) <= rel * np.maximum(np.abs(a), np.abs(b))


def check_fusion_view(vision, touch, fused, provenance):
    """Fusion identities for one view; each argument is (depth, variance)
    except `provenance`, the uint8 mask."""
    (dv, vv), (dt, vt), (df, vf) = vision, touch, fused
    vision_ok = np.isfinite(dv) & (dv > 0.0)
    touch_ok = dt > 0.0
    expected = np.full(dv.shape, PROVENANCE_NONE, dtype=np.uint8)
    expected[vision_ok & ~touch_ok] = PROVENANCE_VISION
    expected[~vision_ok & touch_ok] = PROVENANCE_TOUCH
    expected[vision_ok & touch_ok] = PROVENANCE_FUSED
    failures = []
    wrong = int(np.count_nonzero(provenance != expected))
    if wrong:
        failures.append(f"{wrong} provenance pixels disagree with input validity")

    both = (provenance == PROVENANCE_FUSED) & vision_ok & touch_ok
    precision = 1.0 / vv[both] + 1.0 / vt[both]
    if not np.all(_close(1.0 / vf[both], precision)):
        failures.append("FUSED pixels break precision additivity 1/var_f = 1/var_v + 1/var_t")
    mean = (dv[both] / vv[both] + dt[both] / vt[both]) / precision
    if not np.all(_close(df[both], mean)):
        failures.append("FUSED depth is not the inverse-variance weighted mean")
    lo = np.minimum(dv[both], dt[both]) * (1.0 - F32_REL_TOL)
    hi = np.maximum(dv[both], dt[both]) * (1.0 + F32_REL_TOL)
    if not np.all((df[both] >= lo) & (df[both] <= hi)):
        failures.append("FUSED depth lies outside its two inputs")

    for code, label, depth, var in ((PROVENANCE_TOUCH, "TOUCH", dt, vt),
                                    (PROVENANCE_VISION, "VISION", dv, vv)):
        sel = (provenance == code) & (expected == code)
        if not (np.all(_close(df[sel], depth[sel])) and np.all(_close(vf[sel], var[sel]))):
            failures.append(f"{label} pixels differ from their single source")
    none = provenance == PROVENANCE_NONE
    if not (np.all(df[none] == 0.0) and np.all(vf[none] == MISS_VAR)):
        failures.append("NONE pixels are not depth 0 with the miss variance")
    return failures


def check_fusion(dataset, out):
    failures = []
    for name, *_ in read_cameras(os.path.join(dataset, "cameras.txt")):
        def pair(prefix):
            return (read_pfm(os.path.join(out, f"{name}_{prefix}_depth.pfm")),
                    read_pfm(os.path.join(out, f"{name}_{prefix}_var.pfm")))
        provenance = read_pgm(os.path.join(out, f"{name}_provenance.pgm"))
        failures += [f"fuse {name}: {msg}" for msg in
                     check_fusion_view(pair("vision"), pair("gpis"), pair("fused"), provenance)]
    return failures


def cloud_surface_error(path, shape):
    """Mean |SDF| of the splat centres stored in a splat PLY."""
    rows = read_ply_vertices(path)
    return float(np.mean(np.abs(shape_sdf(shape[0], shape[1], rows[:, :3]))))


def check_train_log(out, iters):
    """train_log.csv has its header and one finite row per iteration."""
    with open(os.path.join(out, "train_log.csv"), "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line]
    if lines[:1] != ["iter,color_loss,depth_loss,lambda"] or len(lines) - 1 != iters:
        return [f"train_log.csv has {len(lines) - 1} rows, expected {iters}"]
    if not all(math.isfinite(float(x)) for line in lines[1:] for x in line.split(",")):
        return ["train_log.csv holds a non-finite value"]
    return []


def check_train_surface(out, shape):
    """Training did not move the splat centres away from the true surface."""
    init = cloud_surface_error(os.path.join(out, "init.ply"), shape)
    trained = cloud_surface_error(os.path.join(out, "splats.ply"), shape)
    if not trained <= init:
        return [f"trained cloud mean |sdf| {trained:.6g} m exceeds init {init:.6g} m"]
    return []


def read_eval(out):
    """The `all` row of eval_report.csv as {column: float}."""
    with open(os.path.join(out, "eval_report.csv"), "r", encoding="utf-8") as fh:
        header, row = fh.read().splitlines()[:2]
    values = dict(zip(header.split(","), row.split(",")))
    return {key: float(value) for key, value in values.items() if key != "view"}


def check_eval(report):
    bad = [k for k in ("d_mse_o", "chamfer") if not (math.isfinite(report[k]) and report[k] > 0.0)]
    return [f"eval report: {k} = {report[k]} is not a positive finite number" for k in bad]


def snapshot(*roots):
    """{relative path: sha256} of every file under the given directories."""
    digests = {}
    for root in roots:
        for dirpath, _, files in os.walk(root):
            for name in files:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    digests[os.path.relpath(path, os.path.dirname(root))] = (
                        hashlib.sha256(fh.read()).hexdigest())
    return digests


def check_rerun(statuses, before, after):
    """Every rerun (a list of run_pipeline status dicts) skipped every
    stage, and the artifacts hash the same after them as before."""
    failures = []
    ran = sorted({stage for status in statuses for stage, state in status.items()
                  if state != "skipped"})
    if ran:
        failures.append(f"rerun did not skip stages {ran}")
    changed = sorted(p for p in set(before) | set(after) if before.get(p) != after.get(p))
    if changed:
        failures.append(f"rerun changed {len(changed)} artifacts, first {changed[0]}")
    return failures


def tree_bytes(*roots):
    return sum(os.path.getsize(os.path.join(d, f))
               for root in roots for d, _, files in os.walk(root) for f in files)
