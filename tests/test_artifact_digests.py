"""The bytes of every artifact, pinned: each file under data/ and out/ of the
bundled sphere (seed 7) and of the benchmark's torus (seed 1, built from
perfbench/scenes.py as CI builds it) against its digest in
artifact_digests.json.

The bytes depend on numpy's reduction order, on the SIMD targets numpy
dispatches to on the CPU at run time (NPY_DISABLE_CPU_FEATURES can turn
them off) and on the kernels OpenBLAS picks for the CPU (its wheels are
built with DYNAMIC_ARCH). So the list holds one set of digests per
environment key, and under a key it does not hold the test skips, naming
this key and the keys it holds. The key leaves out the BLAS thread count:
the bytes are the same at 1, 2 and 4 threads, and CI's rows at 1 and 2
threads check the one entry, so a thread count that changed a byte fails
the test. A change that alters bytes on purpose rewrites this
environment's entry:

    TOUCHFUSE_WRITE_DIGESTS=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \\
        python -m pytest tests/test_artifact_digests.py
"""

import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy

from touchfuse import fileio, gpis, pipeline, workers
from touchfuse.config import validate_config
from touchfuse.pipeline import STAGE_ORDER, run_pipeline

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "artifact_digests.json")


def openblas_core(package, symbol):
    """The kernel set that the OpenBLAS bundled with `package`'s wheel runs
    on this CPU, or "unknown" where the package ships no such library."""
    site = os.path.dirname(os.path.dirname(package.__file__))
    libs = glob.glob(os.path.join(site, f"{package.__name__}.libs", "libscipy_openblas*"))
    try:
        corename = getattr(ctypes.CDLL(libs[0]), symbol)
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def simd_targets():
    """The SIMD targets numpy was built to dispatch to that it runs on this
    CPU: those of __cpu_dispatch__ that the CPU has and the environment
    leaves enabled."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    return [target for target in _multiarray_umath.__cpu_dispatch__
            if _multiarray_umath.__cpu_features__.get(target)]


def environment_key():
    return (f"numpy {np.__version__}, scipy {scipy.__version__}, "
            f"numpy SIMD {' '.join(simd_targets()) or 'baseline'}, "
            f"numpy OpenBLAS core {openblas_core(np, 'scipy_openblas_get_corename64_')}, "
            f"scipy OpenBLAS core {openblas_core(scipy, 'scipy_openblas_get_corename')}")


def in_python(code, disable=()):
    """The output of `code` run in a Python process of this environment
    whose NPY_DISABLE_CPU_FEATURES also names the SIMD targets `disable`."""
    disabled = [os.environ.get("NPY_DISABLE_CPU_FEATURES", ""), *disable]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled).strip(),
               PYTHONPATH=os.pathsep.join([os.path.join(REPO, "src"), HERE]))
    run = subprocess.run([sys.executable, "-c", "import test_artifact_digests as t; " + code],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def check_key_names_the_simd_targets():
    """The key of a process with every SIMD target of this one disabled
    as well is this one's, its targets read `baseline`."""
    targets = simd_targets()
    found = in_python("print(t.environment_key())", targets)
    key = environment_key()
    assert found != key
    assert found == key.replace(f"numpy SIMD {' '.join(targets)}", "numpy SIMD baseline")


def test_environment_key_names_the_simd_targets():
    """With numpy's dispatch targets disabled, the same numpy, scipy and
    BLAS write other bytes (out/splats.ply and out/manifest.json of both
    scenes differ), so the key must change with them."""
    if not simd_targets():
        pytest.skip("numpy dispatches to no SIMD target on this CPU, so none can be disabled")
    check_key_names_the_simd_targets()


def test_environment_key_names_the_simd_targets_left_by_an_outer_setting():
    """The check above holds in a process whose NPY_DISABLE_CPU_FEATURES
    already disables a target, as when the whole run is under such a
    setting: its child disables the targets left as well, not instead."""
    targets = simd_targets()
    if len(targets) < 2:
        pytest.skip(f"numpy dispatches to {len(targets)} SIMD targets on this CPU; the check "
                    "needs one left once the highest is disabled")
    in_python("t.check_key_names_the_simd_targets()", targets[-1:])


def tree_digests(root):
    """Digest of each file under root's data/ and out/, by its path from root."""
    digests = {}
    for top in ("data", "out"):
        for dirpath, _, names in os.walk(os.path.join(root, top)):
            for name in names:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    digests[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()[:16]
    return digests


def differing(pinned, found):
    """"scene: path" of each file whose digest in `found` is not the one
    `pinned` holds, both {scene: {path: digest}}."""
    return [f"{scene}: {path}" for scene in sorted(set(pinned) | set(found))
            for path in sorted(set(pinned.get(scene, {})) | set(found.get(scene, {})))
            if pinned.get(scene, {}).get(path) != found.get(scene, {}).get(path)]


def test_artifact_bytes_match_the_pinned_digests(bundled_run, torus_run):
    found = {"sphere": tree_digests(os.path.dirname(bundled_run["config_path"])),
             "torus": tree_digests(torus_run)}
    with open(DIGESTS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    key = environment_key()
    if os.environ.get("TOUCHFUSE_WRITE_DIGESTS"):
        changed = differing(pinned.get(key, {}), found)
        pinned[key] = found
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"wrote the digests of {key}; {len(changed)} changed: {changed}")
    if key not in pinned:
        pytest.skip(f"no digests for this environment ({key}); "
                    f"artifact_digests.json holds: {'; '.join(sorted(pinned))}")
    differ = differing(pinned[key], found)
    assert not differ, f"{len(differ)} files differ from their pinned digests: {differ}"


@pytest.mark.parametrize("scene", ["sphere", "torus"])
@pytest.mark.parametrize("run", ["stage-by-stage", "one-cpu"])
def test_refit_and_one_cpu_write_the_reference_bytes(bundled_run, torus_run, tmp_path, monkeypatch,
                                                     scene, run):
    """The reference runs each scene in one run_pipeline call, so
    gpis-render takes the model gpis-fit fitted, and the rho grid, a view's
    rays and train's views split across the usable CPUs where the work pays
    for the forks. One call per stage, with the model handoff emptied
    before gpis-render as a process of its own finds it, refits gpis.model
    (the torus's 4,283 points and 3-value grid take the refit to a size the
    sphere's one candidate does not); one usable CPU, which `taskset -c 0`
    gives, scores every candidate, marches every ray and trains every view
    in one process. Either way every file under data/ and out/ is the
    reference's, byte for byte."""
    reference = os.path.dirname(bundled_run["config_path"]) if scene == "sphere" else torus_run
    with open(os.path.join(reference, "scene.cfg"), encoding="utf-8") as fh:
        (tmp_path / "scene.cfg").write_text(fh.read())
    cfg = validate_config(str(tmp_path / "scene.cfg"), require_dataset=False)
    if run == "stage-by-stage":
        for stage in STAGE_ORDER:
            if stage == "gpis-render":
                gpis._saved = None
            assert run_pipeline(cfg, [stage]) == {stage: "ran"}
    else:
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)
        assert set(run_pipeline(cfg).values()) == {"ran"}
    assert tree_digests(str(tmp_path)) == tree_digests(reference)


def test_text_files_read_through_the_number_grammar(bundled_run, torus_run):
    """Every number the pipeline writes into a text file, and every number
    of the shipped configs, is ASCII decimal: the readers take each through
    fileio.number."""
    for root in (os.path.dirname(bundled_run["config_path"]), torus_run):
        data = os.path.join(root, "data")
        for name, _ in fileio.read_cameras(os.path.join(data, "cameras.txt")):
            fileio.read_sparse_depth(os.path.join(data, "sparse", f"{name}.txt"))
        pipeline._read_scene(os.path.join(data, "scene.cfg"))
        validate_config(os.path.join(root, "scene.cfg"))
    configs = glob.glob(os.path.join(REPO, "configs", "*.cfg"))
    assert configs
    for path in configs:
        validate_config(path, require_dataset=False)
