"""Masked convolution filter banks.

A small numpy library in which one stored "primary" convolution filter
spawns several "secondary" filters through binary masks: nested
centered-square spatial pyramids, sliding channel windows, random fixed
bit patterns, or masks learned jointly with the filters through a
straight-through estimator.  Includes the cached-product cost model,
whose multiplication count drops by the mask-sharing factor, exact
parameter/operation accounting, and a small training stack with
checkpointing and a command line front end.

The package re-exports nothing: each name comes from the module that
defines it, e.g. ``maskconv.layers.LayerSpec``.
"""

__version__ = "0.1.0"
