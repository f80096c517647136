"""Desk-scale extreme multi-label text classification.

Pipeline: balanced label clustering over sparse features, a miniature
transformer text encoder, a cluster-recall head with dynamic candidate
sampling, and a label-rank head over learned label embeddings, trained
jointly and evaluated with P@k.
"""

__version__ = "0.1.0"

from .tensor import Tensor, set_verify_mode  # noqa: F401
