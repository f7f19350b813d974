"""Symbolic overlap reasoning shared by stages 1, 2, and 4.

Given two accesses whose *bases are known to be identical*, decide whether
their byte ranges can / must overlap.  With offsets ``oa`` and ``ob`` and
widths ``wa`` and ``wb``, the ranges ``[oa, oa+wa)`` and ``[ob, ob+wb)``
intersect exactly when ``oa < ob + wb`` and ``ob < oa + wa``, i.e.::

    -wa < oa - ob < wb

so the whole question reduces to the value set of the affine difference
``d = oa - ob`` over the iteration domain:

* ``d`` contains opaque symbols               -> MAY (runtime-only)
* value set disjoint from the overlap window  -> NO
* value set inside the window for *every*     -> MUST
  point of the domain
* otherwise                                   -> MAY

Stage 1 restricts itself to differences affine in at most one induction
variable (LLVM SCEV's comfort zone); stage 4 (polyhedral) handles the
multi-variable case with a gcd test plus bounded enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.compiler.labels import AliasLabel
from repro.ir.address import AddressExpr, AffineExpr

#: Do not enumerate joint iteration domains larger than this; fall back to
#: the conservative (gcd + interval) answer instead.
DEFAULT_ENUMERATION_LIMIT = 1 << 16


@dataclass(frozen=True)
class OffsetRelation:
    """Result of an overlap query between two same-base accesses.

    ``exact`` is True only when the two accesses are provably the *same*
    address with the same width in every invocation — the precondition for
    turning a ST->LD MUST pair into a FORWARD edge rather than an ORDER
    edge (partial overlaps cannot forward).
    """

    label: AliasLabel
    exact: bool = False


def _window(wa: int, wb: int) -> Tuple[int, int]:
    """Inclusive integer window of differences that mean 'overlap'."""
    return (-wa + 1, wb - 1)


def _interval_intersects(lo: int, hi: int, wlo: int, whi: int) -> bool:
    return max(lo, wlo) <= min(hi, whi)


def _gcd_hits_window(diff: AffineExpr, wlo: int, whi: int) -> bool:
    """Can ``diff`` land in [wlo, whi] according to the gcd lattice test?

    The reachable values of ``sum(c_k * x_k) + const`` lie on the lattice
    ``const + gcd(c_k) * Z`` intersected with the interval bounds.  If the
    lattice misses the window, overlap is impossible.
    """
    lo, hi = diff.bounds()
    if not _interval_intersects(lo, hi, wlo, whi):
        return False
    coeffs = [c for _, c in diff.iv_terms]
    if not coeffs:
        return wlo <= diff.const <= whi
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    if g == 0:
        return wlo <= diff.const <= whi
    # Window clipped to the reachable interval.
    wlo = max(wlo, lo)
    whi = min(whi, hi)
    # Does any value == const (mod g) fall in [wlo, whi]?  The first
    # lattice point >= wlo, with ceil((wlo - const) / g) in exact integer
    # arithmetic (a float quotient rounds wrongly beyond 2**53).
    first = diff.const - ((diff.const - wlo) // g) * g
    return first <= whi


def _enumerate(diff: AffineExpr, wlo: int, whi: int, limit: int) -> Optional[Tuple[bool, bool]]:
    """Exact (can_overlap, always_overlaps) by sweeping the joint domain.

    Returns ``None`` when the domain is larger than *limit*.
    """
    ivars = diff.ivars
    size = 1
    for iv in ivars:
        size *= iv.trip_count
        if size > limit:
            return None
    can = False
    always = True
    values = [0] * len(ivars)

    def rec(k: int, acc: int) -> None:
        nonlocal can, always
        if k == len(ivars):
            if wlo <= acc <= whi:
                can = True
            else:
                always = False
            return
        iv, coeff = diff.iv_terms[k]
        for v in iv.domain:
            rec(k + 1, acc + coeff * v)

    rec(0, diff.const)
    return can, always


def compare_offsets(
    a: AddressExpr,
    b: AddressExpr,
    single_iv_only: bool,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> OffsetRelation:
    """Overlap relation of two accesses with provably identical bases."""
    diff = a.offset - b.offset
    if diff.has_syms:
        return OffsetRelation(AliasLabel.MAY)

    wlo, whi = _window(a.width, b.width)

    if diff.is_constant:
        if wlo <= diff.const <= whi:
            exact = diff.const == 0 and a.width == b.width
            return OffsetRelation(AliasLabel.MUST, exact=exact)
        return OffsetRelation(AliasLabel.NO)

    if single_iv_only and len(diff.iv_terms) > 1:
        return OffsetRelation(AliasLabel.MAY)

    # Cheap interval/lattice refutation first.
    if not _gcd_hits_window(diff, wlo, whi):
        return OffsetRelation(AliasLabel.NO)

    exact_result = _enumerate(diff, wlo, whi, enumeration_limit)
    if exact_result is None:
        return OffsetRelation(AliasLabel.MAY)
    can, always = exact_result
    if not can:
        return OffsetRelation(AliasLabel.NO)
    if always:
        # Overlaps at every domain point; exact only if the difference is
        # identically zero, which the constant case already handled.
        return OffsetRelation(AliasLabel.MUST, exact=False)
    return OffsetRelation(AliasLabel.MAY)
