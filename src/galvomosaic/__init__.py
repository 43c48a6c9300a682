"""Calibration-based mosaicking of galvo-scanned image tiles.

Pipeline stages, one module each:

- :mod:`~galvomosaic.geometry` — scan indices to global pixel offsets
  for linear and sinusoidal trajectories, with tilt correction.
- :mod:`~galvomosaic.correction` — per-frame brightness correction via a
  fitted linear response model inside fixed ROIs, feathered back in.
- :mod:`~galvomosaic.compose` — raw-overwrite and seam-feathered canvas
  composition plus geometric seam derivation.
- :mod:`~galvomosaic.metrics` — overlap MAE (affine-normalized), CNR,
  region uniformity, and mean seam jump.
- :mod:`~galvomosaic.simulate` — deterministic synthetic datasets used as
  the verification oracle for everything above.
- :mod:`~galvomosaic.cli` — ``simulate`` / ``stitch`` / ``evaluate``
  commands tying the stages together.
"""

from .compose import compose_feathered, compute_overlaps
from .correction import correct_roi, fit_two_point
from .errors import GalvoMosaicError
from .geometry import ScanConfig, placement_table
from .metrics import mean_seam_jump

__version__ = "0.1.0"

__all__ = [
    "GalvoMosaicError",
    "ScanConfig",
    "compose_feathered",
    "compute_overlaps",
    "correct_roi",
    "fit_two_point",
    "mean_seam_jump",
    "placement_table",
]
