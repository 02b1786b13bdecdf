"""touchfuse: visual-tactile depth supervision toolkit.

Turns discrete tactile contact measurements plus monocular depth maps into
fused per-view depth and variance supervision images, and demonstrates them
with an uncertainty-weighted depth loss on a small point-blend renderer.
"""

__version__ = "0.1.0"

from .align import AlignedVision, SparseDepth, align_object_offset, align_scale_offset, align_vision, vision_uncertainty
from .errors import ConfigError, DependencyError, FormatError, LockedError, NumericalError
from .fuse import FusedSupervision, fuse_images, fuse_pixel
from .gpis import (
    ConditioningSet,
    GPISModel,
    KernelParams,
    TouchReading,
    build_conditioning_set,
    fit,
    load_model,
    matern32,
    optimize_hyperparameters,
    save_model,
)
from .metrics import EvalReport, align_clouds, chamfer, depth_mse, hausdorff, psnr
from .sdfrender import (
    MISS_VAR,
    BoundingSphere,
    CameraModel,
    DepthVarImage,
    MarchParams,
    Ray,
    bounding_sphere,
    generate_ray,
    march,
    render_depth_variance,
    sphere_prefilter,
)
from .splat import (
    LossConfig,
    SplatCloud,
    backproject_init,
    color_loss,
    composite_ray,
    decay_weight,
    depth_loss,
    grad_check,
    optimize,
    render,
)
from .touchsim import AnalyticShape, NoiseModel, analytic_sdf, make_sparse_depth, render_gt_depth, sample_touches
