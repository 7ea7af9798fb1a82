"""Toolkit for evaluating and fusing lesion-segmentation probability maps.

The package operates on exported per-pixel probability maps, binary masks,
and feature stacks rather than on trained backbone networks. It covers:

* ``imageio``   - PGM/PNG mask and probability-map codecs, the FST binary
  tensor container, the resampler augmentation uses, and dataset
  manifests.
* ``augment``   - offline affine augmentation (mirror, rotate, zoom).
* ``morpho``    - grayscale/binary dilation and erosion plus the
  boundary-uncertainty soft-label transform.
* ``losses``    - soft Dice and Tversky scores, focal Tversky with soft
  boundary labels, and the mixed MS-SSIM + MAE loss.
* ``metrics``   - confusion counts, scalar metrics, PR/ROC curves,
  11-point mAP, AUROC, and the evaluation report with its whole-mask
  match tallies.
* ``ensemble``  - bitwise AND/OR/MAX fusion and the five-layer
  fully-convolutional stacking meta-learner.
* ``ndtensor``  - the dense-tensor kernel (conv2d with backprop, Adam)
  behind the meta-learner.
* ``stats``     - Wald and Clopper-Pearson intervals, p-values from CIs.
* ``cli``       - the ``segens`` command-line surface.
"""

__version__ = "0.1.0"
