"""Every size limit cimset refuses work over, and the one check that applies them."""

from __future__ import annotations

import os

from .errors import FormatError, ResourceError

ENUM_LIMIT = 1 << 24         # family members enumerated (CIMSET_ENUM_LIMIT overrides)
LATTICE_BITS = 22            # bits of a subset lattice laid out or walked
MASK_BITS = 63               # bits of a coordinate block's int64 subset masks
DENSE_MATRIX_MAX = 12        # facet ground set written out as a dense matrix
NEIGHBOR_LIMIT = 1 << 24     # polytope neighbors listed for one vertex
LP_MAX = 4096                # rows, and columns, of an exact LP
RANK_MAX = 1 << 16           # vectors, and coordinates, of an exact affine rank
ADJACENCY_CLOUD_MAX = 4096   # vertices in an adjacency-oracle cloud
BRUTEFORCE_MAX = 1 << 20     # family members scored by brute-force learning
TABLE_CHILD_LIMIT = 1 << 20  # admissible parent sets scored for one child


def default_enum_limit() -> int:
    """ENUM_LIMIT, or the nonnegative integer in CIMSET_ENUM_LIMIT when that is set."""
    raw = os.environ.get("CIMSET_ENUM_LIMIT", str(ENUM_LIMIT))
    try:
        value = int(raw)
    except ValueError:
        value = -1  # refused below, with the negative values
    if value < 0:
        raise FormatError(f"CIMSET_ENUM_LIMIT must be a nonnegative integer, got {raw!r}")
    return value


def check(name: str, size: int, what: str, limit: int | None = None) -> None:
    """Refuse `what` if `size` is over `limit`, else over the limit `name` as read at this call."""
    given = limit is not None
    if not given:
        limit = default_enum_limit() if name == "ENUM_LIMIT" else globals()[name]
    if size > limit and name == "ENUM_LIMIT":
        # the variable is named only where it set the limit, never over the caller's own
        knob = "" if given else f" (ENUM_LIMIT = {ENUM_LIMIT}; CIMSET_ENUM_LIMIT overrides it)"
        raise ResourceError(f"{what}, over the enumeration limit {limit}{knob}")
    if size > limit:
        raise ResourceError(f"{what}, over the limit {name} = {limit}")
