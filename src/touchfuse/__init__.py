"""touchfuse: visual-tactile depth supervision toolkit.

Turns discrete tactile contact measurements plus monocular depth maps into
fused per-view depth and variance supervision images, and demonstrates them
with an uncertainty-weighted depth loss on a small point-blend renderer.
"""

__version__ = "0.1.0"
