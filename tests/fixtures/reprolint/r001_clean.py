"""R001 fixture: upcasts and annotated sites (no violations)."""

import numpy as np


def upcast(x):
    return x.astype(np.float64)


def annotated_downcast(x):
    return x.astype(np.float32)  # reprolint: disable=R001
