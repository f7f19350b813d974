"""Unit tests for the symbolic overlap engine (compare_offsets)."""

import pytest

from repro.compiler.aliasing.symbolic import compare_offsets
from repro.compiler.labels import AliasLabel
from repro.ir.address import AddressExpr, AffineExpr, IVar, MemObject, Sym

OBJ = MemObject("base", 1 << 20)


def addr(offset, width=8):
    return AddressExpr(OBJ, offset, width=width)


def rel(a, b, single_iv_only=True, limit=1 << 16):
    return compare_offsets(a, b, single_iv_only=single_iv_only, enumeration_limit=limit)


class TestConstantOffsets:
    def test_identical_is_must_exact(self):
        r = rel(addr(AffineExpr.constant(16)), addr(AffineExpr.constant(16)))
        assert r.label is AliasLabel.MUST
        assert r.exact

    def test_disjoint_is_no(self):
        r = rel(addr(AffineExpr.constant(0)), addr(AffineExpr.constant(8)))
        assert r.label is AliasLabel.NO

    def test_partial_overlap_is_must_not_exact(self):
        r = rel(addr(AffineExpr.constant(0)), addr(AffineExpr.constant(4)))
        assert r.label is AliasLabel.MUST
        assert not r.exact

    def test_width_matters_for_exactness(self):
        r = rel(addr(AffineExpr.constant(0), width=8), addr(AffineExpr.constant(0), width=4))
        assert r.label is AliasLabel.MUST
        assert not r.exact

    def test_adjacent_ranges_do_not_overlap(self):
        # [0, 8) and [8, 12) share no byte.
        r = rel(addr(AffineExpr.constant(0), 8), addr(AffineExpr.constant(8), 4))
        assert r.label is AliasLabel.NO


class TestSingleIV:
    def test_same_stride_distinct_lanes_is_no(self):
        i = IVar("i", 128)
        a = addr(AffineExpr.of(const=0, ivs={i: 64}))
        b = addr(AffineExpr.of(const=8, ivs={i: 64}))
        assert rel(a, b).label is AliasLabel.NO

    def test_same_expression_is_must_exact(self):
        i = IVar("i", 128)
        a = addr(AffineExpr.of(ivs={i: 8}))
        b = addr(AffineExpr.of(ivs={i: 8}))
        r = rel(a, b)
        assert r.label is AliasLabel.MUST and r.exact

    def test_different_strides_may_collide(self):
        # 8i vs 16i: equal at i=0 -> overlap possible but not always.
        i = IVar("i", 16)
        a = addr(AffineExpr.of(ivs={i: 8}))
        b = addr(AffineExpr.of(ivs={i: 16}))
        assert rel(a, b).label is AliasLabel.MAY

    def test_different_strides_never_colliding(self):
        # diff = 8i + 1000, i in [0,16): always >= 1000.
        i = IVar("i", 16)
        a = addr(AffineExpr.of(const=1000, ivs={i: 16}))
        b = addr(AffineExpr.of(ivs={i: 8}))
        assert rel(a, b).label is AliasLabel.NO

    def test_gcd_refutation(self):
        # diff = 16i + 4 with width-1 accesses: 16i+4 can never be 0;
        # window is [0, 0] and the lattice 4 + 16Z misses it.
        i = IVar("i", 1 << 20)  # too big to enumerate
        a = addr(AffineExpr.of(const=4, ivs={i: 16}), width=1)
        b = addr(AffineExpr.of(ivs={}), width=1)
        assert rel(a, b, limit=4).label is AliasLabel.NO

    def test_gcd_test_is_exact_beyond_float_precision(self):
        # diff = 1552553102207215608 - 24i is 0 at i = 64689712591967317,
        # so the accesses coincide there.  A float ceil in the lattice
        # test lands on the wrong lattice point and proves NO.
        i = IVar("i", 2**61)
        a = addr(AffineExpr.constant(0))
        b = addr(AffineExpr.of(const=1552553102207215608, ivs={i: -24}))
        assert 1552553102207215608 - 24 * 64689712591967317 == 0
        assert rel(a, b).label is AliasLabel.MAY


class TestMultiIV:
    def test_single_iv_mode_punts(self):
        i, j = IVar("i", 8), IVar("j", 8)
        a = addr(AffineExpr.of(ivs={i: 8}))
        b = addr(AffineExpr.of(ivs={j: 8}))
        assert rel(a, b, single_iv_only=True).label is AliasLabel.MAY

    def test_polyhedral_mode_resolves_disjoint_blocks(self):
        i, j = IVar("i", 8), IVar("j", 8)
        a = addr(AffineExpr.of(const=1024, ivs={i: 8}))
        b = addr(AffineExpr.of(ivs={j: 8}))  # max 56+8 < 1024
        assert rel(a, b, single_iv_only=False).label is AliasLabel.NO

    def test_polyhedral_mode_detects_possible_overlap(self):
        i, j = IVar("i", 8), IVar("j", 8)
        a = addr(AffineExpr.of(ivs={i: 8}))
        b = addr(AffineExpr.of(ivs={j: 8}))
        assert rel(a, b, single_iv_only=False).label is AliasLabel.MAY

    def test_enumeration_limit_falls_back_to_may(self):
        i, j = IVar("i", 1024), IVar("j", 1024)
        a = addr(AffineExpr.of(ivs={i: 8}))
        b = addr(AffineExpr.of(ivs={j: 8}))
        r = rel(a, b, single_iv_only=False, limit=16)
        assert r.label is AliasLabel.MAY  # conservative, not wrong

    def test_always_overlap_is_must(self):
        # diff = 8i - 8i = 0 via two IVs with identical terms.
        i = IVar("i", 8)
        j = IVar("j", 4)
        a = addr(AffineExpr.of(ivs={i: 8, j: 16}))
        b = addr(AffineExpr.of(ivs={i: 8, j: 16}))
        r = rel(a, b, single_iv_only=False)
        assert r.label is AliasLabel.MUST
        assert r.exact  # constant zero difference


class TestSyms:
    def test_sym_difference_is_may(self):
        s = Sym("s")
        a = addr(AffineExpr.of(syms={s: 8}))
        b = addr(AffineExpr.constant(0))
        assert rel(a, b).label is AliasLabel.MAY

    def test_same_sym_cancels_to_must(self):
        s = Sym("s")
        a = addr(AffineExpr.of(syms={s: 8}))
        b = addr(AffineExpr.of(syms={s: 8}))
        r = rel(a, b)
        assert r.label is AliasLabel.MUST and r.exact
