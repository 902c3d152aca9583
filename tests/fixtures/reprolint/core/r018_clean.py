"""R018 clean fixture: block choices threaded through options, not literals."""

from repro.core.orthonorm import cholesky_orthonormalize
from repro.core.rayleigh_ritz import rayleigh_ritz


def threaded_blocks(op, X, opts):
    Y = cholesky_orthonormalize(X, block_size=opts.block_size)
    return rayleigh_ritz(op, Y, block_size=opts.block_size)


def declared_default_is_not_a_call_site(X, block_size=64):
    # a signature default is a declaration, not a hard-wired call site
    return cholesky_orthonormalize(X, block_size=block_size)
