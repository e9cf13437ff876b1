"""Packed kernels: each packing site against the list code it replaced.

Three builders hold their Z[λ] values packed, one int per value
(``algebra._pack``): the ``gf-recursion`` Eulerian route, the residual
taps of the generating-function check and ``worpitzky_lhs``. Each sizes
its slot from a bound, and a slot too small for what is unpacked corrupts
values silently. So each site is compared with its former list code, kept
here as the reference model, each bound is checked against what the
models and the sites actually reach, and a slot a byte short of the
unpacked values is shown to change them.
"""

from fractions import Fraction as F
from itertools import zip_longest
from math import comb, factorial, lcm

import pytest

from degenpoly import algebra, egf, sequences
from degenpoly.algebra import LAM, LambdaPoly, _add_linear, _make, _negate_lambda, _x_falling, _xl
from degenpoly.egf import _residual_bound, _residual_taps
from degenpoly.sequences import _gf_bound, _worpitzky_bound, eulerian_table, worpitzky_lhs


#: A perturbation over a denominator, with a λ^3 term and a large constant.
BIG = LambdaPoly((10**30, 0, 0, F(-7, 12)))


def _times_x_minus_one(acc: list, s: int) -> list:
    """(1 + sλ)(x - 1)·acc on int numerator lists, one per x-coefficient."""
    out, prev = [], []
    for c in acc + [[]]:
        d, last = [], 0
        for a, b in zip_longest(prev, c, fillvalue=0):
            v = a - b
            d.append(v + s * last)
            last = v
        if s and last:
            d.append(s * last)
        out.append(d)
        prev = c
    return out


def _peak(lists) -> int:
    return max((abs(c) for num in lists for c in num), default=0)


def _gf_rows_by_lists(max_n: int):
    """Rows 0..max_n of the gf-recursion route on numerator lists, and per
    row the largest |numerator| any step of its Horner scheme reaches."""
    rows, peaks = [(LambdaPoly((1,)),)], [1]
    for n in range(1, max_n + 1):
        acc, peak = [[1]], 1
        for i in range(1, n):
            acc = _times_x_minus_one(acc, n - i)
            peak = max(peak, _peak(acc))
            c = comb(n, i)
            for a, entry in zip(acc, rows[i]):
                _add_linear(a, entry._num, c)
            peak = max(peak, _peak(acc))
        rows.append(tuple(_make(a, 1) for a in acc) + (_make([], 1),))
        peaks.append(peak)
    return rows, peaks


def _residual_by_lists(rows):
    """The residual taps on numerator lists over the lcm D of the row
    denominators, D, and per tap the largest |numerator| any step reaches."""
    den = lcm(*[c._den for row in rows for c in row])
    taps, peaks = [], []
    for n, row in enumerate(rows):
        acc, peak = [[]], 0
        for k in range(n + 1):
            if k:
                acc = _times_x_minus_one(acc, n - k)
                peak = max(peak, _peak(acc))
            c = comb(n, k)
            for a, entry in zip(acc, rows[k]):
                _add_linear(a, entry._num, c * (den // entry._den))
            peak = max(peak, _peak(acc))
        out = [[-v for v in a] for a in acc] + [[]]
        for a, entry in zip(out[1:], row):  # x·A_n
            _add_linear(a, entry._num, den // entry._den)
        if not n:  # -(x - 1)
            _add_linear(out[0], (1,), den)
            _add_linear(out[1], (1,), -den)
        taps.append(_xl([_make(a, den) for a in out]))
        peaks.append(max(peak, _peak(out)))
    return taps, den, peaks


def _worpitzky_by_lists(n: int):
    """worpitzky_lhs(n) on numerator lists, and the largest |numerator| of
    its sums before they are divided by n!."""
    row = eulerian_table(n).row(n)
    accs = [[] for _ in range(n + 1)]
    cs = _x_falling(0, n)
    for k, entry in enumerate(row):
        if k:
            q, carry = [0] * n, 0
            for j in range(n, 0, -1):
                carry = q[j - 1] = cs[j] - (k - n) * carry
            cs = _add_linear([], q, k, 1)
        for acc, c in zip(accs, cs):
            _add_linear(acc, entry._num, c)
    return _xl([_make(_negate_lambda(acc), factorial(n)) for acc in accs]), _peak(accs)


def _stored(rows):
    return [[(c._num, c._den) for c in row] for row in rows]


def _xl_stored(taps):
    return [[(c._num, c._den) for c in tap.coeffs] for tap in taps]


def _norm(row) -> int:
    return max((max(map(abs, c._num), default=0) for c in row), default=0)


def _perturbed_rows(max_n: int, perturbation):
    rows = [list(row) for row in eulerian_table(max_n).rows]
    rows[5][2] = rows[5][2] + perturbation
    return rows


def _scaled_norms(rows, den: int) -> list:
    return [max((max(map(abs, c._num), default=0) * (den // c._den) for c in row[:k + 1]), default=0)
            for k, row in enumerate(rows)]


def _unpacked(value, den: int) -> list:
    """The numerators a site unpacked for ``value`` over den, before
    ``_make`` divided out their gcd with den."""
    return [c * (den // value._den) for c in value._num]


# ---------------------------------------------------------------------------
# each packed site equals its list model
# ---------------------------------------------------------------------------


def test_gf_recursion_matches_the_list_model():
    model, _ = _gf_rows_by_lists(24)
    assert _stored(eulerian_table(24, "gf-recursion").rows) == _stored(model)
    # a later call packs the rows already built into its own, wider slot
    sequences._clear_memos()
    for n in (0, 3, 4, 11, 24):
        assert _stored(eulerian_table(n, "gf-recursion").rows) == _stored(model[:n + 1]), n


@pytest.mark.parametrize("perturbation", [0, 1, F(1, 3) * LAM, BIG])
def test_residual_taps_match_the_list_model(perturbation):
    rows = _perturbed_rows(24, perturbation)
    model, _, _ = _residual_by_lists(rows)
    assert _xl_stored(_residual_taps(rows)) == _xl_stored(model)


def test_residual_taps_of_short_and_long_rows_match_the_list_model():
    # a row enters with its entries 0..k only, as in the list code
    rows = [list(row) for row in eulerian_table(8).rows]
    rows[3] = rows[3][:2]
    rows[6] = rows[6] + [LambdaPoly((5, 1))]
    model, _, _ = _residual_by_lists(rows)
    assert _xl_stored(_residual_taps(rows)) == _xl_stored(model)


def test_worpitzky_matches_the_list_model():
    for n in range(25):
        model, _ = _worpitzky_by_lists(n)
        assert _xl_stored([worpitzky_lhs(n)]) == _xl_stored([model]), n


# ---------------------------------------------------------------------------
# each bound covers what its site reaches
# ---------------------------------------------------------------------------


def test_each_bound_covers_every_step_of_the_list_model():
    rows, peaks = _gf_rows_by_lists(24)
    norms = [_norm(row) for row in rows]
    for n in range(1, 25):
        assert _gf_bound(norms, n) >= peaks[n], n
    for perturbation in (0, BIG):
        rows = _perturbed_rows(24, perturbation)
        _, den, peaks = _residual_by_lists(rows)
        norms = _scaled_norms(rows, den)
        for n in range(25):
            assert _residual_bound(norms, n, den) >= peaks[n], (perturbation, n)
    for n in range(25):
        _, peak = _worpitzky_by_lists(n)
        row = eulerian_table(n).row(n)
        columns = list(zip(*[_x_falling(k, n) for k in range(n + 1)]))
        assert _worpitzky_bound(columns, row) >= peak, n


def test_each_bound_covers_what_its_site_unpacks_up_to_the_cap():
    rows = eulerian_table(64, "gf-recursion").rows
    norms = [_norm(row) for row in rows]
    for n in range(1, 65):
        bound, true = _gf_bound(norms, n), norms[n]
        # from the rows' own norms the bound is a few bits above the values
        assert true <= bound and bound.bit_length() <= true.bit_length() + 8, n
    rows = _perturbed_rows(64, BIG)
    den = lcm(*[c._den for row in rows for c in row])
    norms = _scaled_norms(rows, den)
    for n, tap in enumerate(_residual_taps(rows)):
        unpacked = max((abs(c) for v in tap.coeffs for c in _unpacked(v, den)), default=0)
        assert (unpacked > 0) == (n >= 5), n  # the perturbation enters from tap 5 on
        assert _residual_bound(norms, n, den) >= unpacked, n
    for n in range(65):
        row = eulerian_table(n).row(n)
        columns = list(zip(*[_x_falling(k, n) for k in range(n + 1)]))
        unpacked = max(abs(c) for v in worpitzky_lhs(n).coeffs for c in _unpacked(v, factorial(n)))
        assert _worpitzky_bound(columns, row) >= unpacked, n


# ---------------------------------------------------------------------------
# a slot a byte short of the unpacked values changes them
# ---------------------------------------------------------------------------


def _short_by_a_byte(bound: int) -> int:
    return algebra._slot(bound) - 8


def test_an_undersized_slot_changes_the_gf_recursion_rows(monkeypatch):
    model, _ = _gf_rows_by_lists(24)
    true = [_norm(row) for row in model]
    # sized from the values themselves, the slot still holds them
    monkeypatch.setattr(sequences, "_gf_bound", lambda norms, n: true[n])
    assert _stored(eulerian_table(24, "gf-recursion").rows) == _stored(model)
    sequences._clear_memos()
    monkeypatch.setattr(sequences, "_slot", _short_by_a_byte)
    assert _stored(eulerian_table(24, "gf-recursion").rows) != _stored(model)


def test_an_undersized_slot_changes_the_residual_taps(monkeypatch):
    # a perturbed row makes the taps nonzero and far larger than the rows
    rows = _perturbed_rows(24, BIG)
    model, den, _ = _residual_by_lists(rows)
    true = [max((abs(c) for v in tap.coeffs for c in _unpacked(v, den)), default=0) for tap in model]
    inputs = max(_scaled_norms(rows, den))
    assert algebra._slot(max(true)) - 8 > inputs.bit_length()  # the rows still pack
    monkeypatch.setattr(egf, "_residual_bound", lambda norms, n, den: true[n])
    assert _xl_stored(_residual_taps(rows)) == _xl_stored(model)
    monkeypatch.setattr(egf, "_slot", _short_by_a_byte)
    assert _xl_stored(_residual_taps(rows)) != _xl_stored(model)


def test_an_undersized_slot_changes_the_worpitzky_sum(monkeypatch):
    n = 20
    model, peak = _worpitzky_by_lists(n)
    true = max(abs(c) for v in model.coeffs for c in _unpacked(v, factorial(n)))
    assert true == peak
    assert algebra._slot(true) - 8 > _norm(eulerian_table(n).row(n)).bit_length()
    monkeypatch.setattr(sequences, "_worpitzky_bound", lambda columns, row: true)
    assert _xl_stored([worpitzky_lhs(n)]) == _xl_stored([model])
    monkeypatch.setattr(sequences, "_slot", _short_by_a_byte)
    assert _xl_stored([worpitzky_lhs(n)]) != _xl_stored([model])
