"""Truth-table algebra over small supports (up to 6 variables).

Truth tables are plain Python integers: bit ``m`` is the function value on
minterm ``m`` where bit ``j`` of ``m`` is the value of variable ``j``.  The
synthesis engine uses these for cut functions, NPN-lite matching and the
Minato-Morreale irredundant sum-of-products (ISOP) used by the rewriting
pass.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

__all__ = [
    "full_mask",
    "var_table",
    "cofactor0",
    "cofactor1",
    "depends_on",
    "support",
    "expand_table",
    "flip_var",
    "isop",
    "cube_cover",
    "Cube",
]

#: Per-variable positive-cofactor masks for up to 6 variables: bit m set
#: iff bit j of m is 1.
_VAR_MASKS = [
    0xAAAAAAAAAAAAAAAA,
    0xCCCCCCCCCCCCCCCC,
    0xF0F0F0F0F0F0F0F0,
    0xFF00FF00FF00FF00,
    0xFFFF0000FFFF0000,
    0xFFFFFFFF00000000,
]

MAX_VARS = 6


#: ``full_mask`` by variable count; a lookup, since the cut enumerator and
#: the mapper ask for it hundreds of thousands of times per flow.
_FULL_MASKS = {n: (1 << (1 << n)) - 1 for n in range(MAX_VARS + 1)}


def full_mask(nvars: int) -> int:
    """All-ones truth table over ``nvars`` variables."""
    try:
        return _FULL_MASKS[nvars]
    except KeyError:
        raise ValueError(f"nvars must be in [0, {MAX_VARS}]") from None


def var_table(var: int, nvars: int) -> int:
    """Truth table of the projection function ``x_var``."""
    if not 0 <= var < nvars:
        raise ValueError("var out of range")
    return _VAR_MASKS[var] & full_mask(nvars)


def cofactor1(table: int, var: int, nvars: int) -> int:
    """Positive cofactor: substitute ``x_var = 1`` (result over same vars)."""
    mask = var_table(var, nvars)
    shift = 1 << var
    high = table & mask
    return high | (high >> shift)


def cofactor0(table: int, var: int, nvars: int) -> int:
    """Negative cofactor: substitute ``x_var = 0``."""
    mask = var_table(var, nvars)
    shift = 1 << var
    low = table & ~mask & full_mask(nvars)
    return low | (low << shift)


def flip_var(table: int, var: int, nvars: int) -> int:
    """Substitute ``x_var -> ~x_var``: swap the two cofactor halves."""
    mask = var_table(var, nvars)
    shift = 1 << var
    high = table & mask
    low = table & ~mask & full_mask(nvars)
    return (high >> shift) | (low << shift)


def depends_on(table: int, var: int, nvars: int) -> bool:
    """Whether the function actually depends on ``x_var``."""
    return cofactor0(table, var, nvars) != cofactor1(table, var, nvars)


def support(table: int, nvars: int) -> List[int]:
    """Variables the function depends on."""
    return [v for v in range(nvars) if depends_on(table, v, nvars)]


def expand_table(
    table: int, old_vars: Sequence[int], new_nvars: int
) -> int:
    """Re-express a table over a larger variable set.

    ``old_vars[j]`` gives the position, in the new variable order, of the
    function's original variable ``j``.  Used when merging cuts: each fanin
    cut's function is lifted onto the union leaf set.
    """
    out = 0
    for old_minterm, mask in enumerate(_minterm_masks(tuple(old_vars), new_nvars)):
        if (table >> old_minterm) & 1:
            out |= mask
    return out


@lru_cache(maxsize=None)
def _minterm_masks(old_vars: Tuple[int, ...], new_nvars: int) -> Tuple[int, ...]:
    """For each old minterm, the set of new minterms that project onto it.

    A pure function of its key, so the table is built once per placement
    of old variables and every later lift just ORs the masks of the old
    minterms the function is true on.
    """
    masks = [0] * (1 << len(old_vars))
    for new_minterm in range(1 << new_nvars):
        old_minterm = 0
        for j, pos in enumerate(old_vars):
            if (new_minterm >> pos) & 1:
                old_minterm |= 1 << j
        masks[old_minterm] |= 1 << new_minterm
    return tuple(masks)


#: A product term: (care_mask, value_mask).  Variable ``j`` appears in the
#: cube iff bit j of care_mask is set; its required polarity is bit j of
#: value_mask.  The empty cube (0, 0) is the constant-one product.
Cube = Tuple[int, int]


def _cube_table(cube: Cube, nvars: int) -> int:
    """Truth table of a single cube."""
    care, value = cube
    table = full_mask(nvars)
    for v in range(nvars):
        if (care >> v) & 1:
            vmask = var_table(v, nvars)
            table &= vmask if (value >> v) & 1 else ~vmask & full_mask(nvars)
    return table


def cube_cover(cubes: Sequence[Cube], nvars: int) -> int:
    """Truth table of the OR of a list of cubes."""
    out = 0
    for cube in cubes:
        out |= _cube_table(cube, nvars)
    return out


def isop(lower: int, upper: int, nvars: int) -> List[Cube]:
    """Minato-Morreale irredundant sum-of-products.

    Returns cubes whose union ``F`` satisfies ``lower <= F <= upper``
    (as sets of minterms).  For plain SOP synthesis call
    ``isop(f, f, nvars)``.
    """
    mask = full_mask(nvars)
    lower &= mask
    upper &= mask
    if lower & ~upper & mask:
        raise ValueError("lower set is not contained in upper set")
    return _isop_rec(lower, upper, nvars, nvars - 1)


def _isop_rec(lower: int, upper: int, nvars: int, var: int) -> List[Cube]:
    if lower == 0:
        return []
    if upper == full_mask(nvars):
        return [(0, 0)]
    # Find the top variable either set depends on.
    while var >= 0 and not (
        depends_on(lower, var, nvars) or depends_on(upper, var, nvars)
    ):
        var -= 1
    if var < 0:
        # Constant non-zero lower with non-tautology upper cannot happen:
        # lower != 0 and independent of all vars means lower is all-ones,
        # hence upper is all-ones too and we returned above.
        return [(0, 0)]
    l0 = cofactor0(lower, var, nvars)
    l1 = cofactor1(lower, var, nvars)
    u0 = cofactor0(upper, var, nvars)
    u1 = cofactor1(upper, var, nvars)
    mask = full_mask(nvars)
    # Cubes that must contain literal ~x_var / x_var.
    p0 = _isop_rec(l0 & ~u1 & mask, u0, nvars, var - 1)
    p1 = _isop_rec(l1 & ~u0 & mask, u1, nvars, var - 1)
    cover0 = cube_cover(p0, nvars)
    cover1 = cube_cover(p1, nvars)
    # Remaining minterms handled by cubes independent of x_var.
    l0_rest = l0 & ~cover0 & mask
    l1_rest = l1 & ~cover1 & mask
    p2 = _isop_rec(l0_rest | l1_rest, u0 & u1, nvars, var - 1)
    bit = 1 << var
    out: List[Cube] = []
    out.extend((care | bit, value) for care, value in p0)  # literal ~x_var
    out.extend((care | bit, value | bit) for care, value in p1)  # literal x_var
    out.extend(p2)
    return out
