"""Packed kernels: each packing site against the list code it replaced.

Five builders hold their Z[λ] values packed, one int per value
(``algebra._pack``): the ``gf-recursion`` Eulerian route and the residual
taps of the generating-function check, both on the Horner kernel
``algebra._horner_x_minus_one``, ``worpitzky_lhs``, on
``algebra._packed_sums``, and the ``explicit`` routes of ``eulerian`` and
``stirling2``, on ``algebra._falling_sums``, which carries the falling
factorials packed from row to row. Each slot is sized from a bound, and a
slot too small for what is unpacked corrupts values silently. So each
site is compared with its former list code, kept here as the reference
model, each kernel's bound is checked against what the models and the
sites actually reach, and a slot a byte short of the unpacked values is
shown to change them.
"""

from itertools import zip_longest
from math import comb, factorial
from operator import sub

import pytest

from degenpoly import algebra, egf, sequences
from degenpoly.algebra import (LAM, LambdaPoly, _add_linear, _horner_bound, _make, _negate_lambda, _norm,
                               _x_falling, _xl, falling_factorial_degenerate)
from degenpoly.egf import _residual_taps
from degenpoly.sequences import _explicit_sums, eulerian_explicit, eulerian_table, route_rows, worpitzky_lhs
from degenpoly.verify import run_suite


#: A perturbation with a λ^3 term and a large constant.
BIG = LambdaPoly((10**30, 0, 0, -7))


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


def _horner_by_lists(rows, n: int, stop: int):
    """Σ_{k<stop} C(n,k)·(1)_{n-k,-λ}·A_k(x)·(x-1)^{stop-1-k}, for stop = n
    or n + 1, as a Horner scheme on numerator lists, and the largest
    |numerator| any step of it reaches."""
    acc, peak = [[]], 0
    for k in range(stop):
        if k:
            acc = _times_x_minus_one(acc, n - k)
            peak = max(peak, _peak(acc))
        c = comb(n, k)
        for a, entry in zip(acc, rows[k]):
            _add_linear(a, entry._num, c)
        peak = max(peak, _peak(acc))
    return acc, peak


def _gf_rows_by_lists(max_n: int):
    """Rows 0..max_n of the gf-recursion route on numerator lists, and per
    row the largest |numerator| any step of its Horner scheme reaches."""
    rows, peaks = [(LambdaPoly((1,)),)], [1]
    for n in range(1, max_n + 1):
        acc, peak = _horner_by_lists(rows, n, n)
        rows.append(tuple(_make(a, 1) for a in acc) + (_make([], 1),))
        peaks.append(peak)
    return rows, peaks


def _residual_by_lists(rows):
    """The residual taps in the paper's form,

        x·A_n(x) - Σ_{k≤n} C(n,k)·(1)_{n-k,-λ}·A_k(x)·(x-1)^{n-k} - [n=0]·(x-1),

    the sum a Horner scheme to term n on numerator lists, and per tap its
    largest |numerator|."""
    taps, tap_peaks = [], []
    for n, row in enumerate(rows):
        acc, _ = _horner_by_lists(rows, n, n + 1)
        out = [[-v for v in a] for a in acc] + [[]]
        for a, entry in zip(out[1:], row):  # x·A_n
            _add_linear(a, entry._num, 1)
        if not n:  # -(x - 1)
            _add_linear(out[0], (1,), 1)
            _add_linear(out[1], (1,), -1)
        taps.append(_xl([_make(a, 1) for a in out]))
        tap_peaks.append(_peak(out))
    return taps, tap_peaks


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


def _eulerian_explicit_by_lists(max_n: int):
    """Rows 0..max_n of the eulerian ``explicit`` route on numerator lists,
    over the memoized falling factorials, and the largest |numerator| of
    any of its sums."""
    rows, peak = [], 0
    for n in range(max_n + 1):
        falling, row = [falling_factorial_degenerate(j, n)._num for j in range(n + 2)], []
        for k in range(n + 1):
            acc = []
            for i in range(k + 1):
                c = comb(n + 1, i)
                _add_linear(acc, falling[k - i + 1], -c if i % 2 else c)
            peak = max(peak, _peak([acc]))
            row.append(_make(acc, 1))
        rows.append(tuple(row))
    return rows, peak


def _stirling2_explicit_by_lists(max_n: int):
    """Rows 0..max_n of the stirling2 ``explicit`` route on numerator lists,
    over the memoized falling factorials, and the largest |numerator| of
    any of its sums k!·{n k}."""
    rows, peak = [], 0
    for n in range(max_n + 1):
        falling, row = [falling_factorial_degenerate(j, n)._num for j in range(n + 1)], []
        for k in range(n + 1):
            acc = []
            for j in range(k + 1):
                c = comb(k, j)
                _add_linear(acc, falling[j], -c if (k - j) % 2 else c)
            peak = max(peak, _peak([acc]))
            row.append(_make(acc, factorial(k)))
        rows.append(tuple(row))
    return rows, peak


#: The families whose ``explicit`` route sums on ``algebra._falling_sums``,
#: with their list models.
EXPLICIT_MODELS = {"eulerian": _eulerian_explicit_by_lists, "stirling2": _stirling2_explicit_by_lists}


def _stored(rows):
    return [[(c._num, c._den) for c in row] for row in rows]


def _xl_stored(taps):
    return [[(c._num, c._den) for c in tap.coeffs] for tap in taps]


def _perturbed_rows(max_n: int, perturbation):
    rows = [list(row) for row in eulerian_table(max_n).rows]
    rows[5][2] = rows[5][2] + perturbation
    return rows


_SLOT = algebra._slot


def _slot_bounds(monkeypatch, module, build) -> list:
    """The bounds ``build()`` sizes its slots from, at ``module._slot``."""
    bounds = []
    monkeypatch.setattr(module, "_slot", lambda bound: bounds.append(bound) or _SLOT(bound))
    build()
    return bounds


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


@pytest.mark.parametrize("perturbation", [0, 1, LAM, BIG])
def test_residual_taps_match_the_list_model(perturbation):
    rows = _perturbed_rows(24, perturbation)
    model, _ = _residual_by_lists(rows)
    assert _xl_stored(_residual_taps(rows)) == _xl_stored(model)


@pytest.mark.parametrize("family", EXPLICIT_MODELS)
def test_explicit_routes_match_the_list_models(family):
    model, _ = EXPLICIT_MODELS[family](24)
    sequences._clear_memos()
    assert _stored(route_rows(family, 24, "explicit")) == _stored(model)


@pytest.mark.parametrize("family", EXPLICIT_MODELS)
def test_explicit_rows_continued_equal_the_rows_of_one_call(family):
    # rows 0..a, then a..b, equal rows 0..b built in one call, each call
    # stepping the falling factorials up from (j)_{0,λ} = 1 in its own slot
    model, _ = EXPLICIT_MODELS[family](24)
    for a, b in ((0, 1), (0, 24), (3, 4), (7, 24), (11, 17), (23, 24)):
        sequences._clear_memos()
        route_rows(family, a, "explicit")
        assert _stored(route_rows(family, b, "explicit")) == _stored(model[:b + 1]), (a, b)
    sequences._clear_memos()
    for n in range(25):  # one row per call
        route_rows(family, n, "explicit")
    assert _stored(route_rows(family, 24, "explicit")) == _stored(model)


def test_falling_sums_over_columns_of_different_lengths_equal_the_list_sums():
    # the kernel carries the falling factorials as far as its longest
    # column reaches, here one of the last n, and sums each column as long
    # as it is, an empty one to zero
    start, columns = 3, [[[1], [0, 2, -3], [5, 0, 0, 0, 7]],
                         [[], [1, -1]],
                         [[4, -1, 2, 0, 0, 0, 0, 9], [0, 0, 1]]]
    sums = algebra._falling_sums(start, columns)
    assert len(sums) == len(columns)
    for n, (row, got) in enumerate(zip(columns, sums), start):
        assert len(got) == len(row), n
        for column, num in zip(row, got):
            acc = []
            for j, c in enumerate(column):
                _add_linear(acc, falling_factorial_degenerate(j, n)._num, c)
            assert _make(num, 1)._num == _make(acc, 1)._num, (n, column)


def _eulerian_cell_by_lists(n: int, k: int) -> LambdaPoly:
    """A(n,k) by the explicit sum on numerator lists, over the memoized
    falling factorials, for any k (zero for k > n)."""
    acc = []
    for i in range(k + 1):
        c = comb(n + 1, i)
        _add_linear(acc, falling_factorial_degenerate(k - i + 1, n)._num, -c if i % 2 else c)
    return _make(acc, 1)


def test_explicit_cells_and_vanishing_cells_match_the_list_model():
    # one cell and the vanishing check's cells beyond the triangle, all from
    # the column rule of the rows
    beyond = _explicit_sums(0, [range(n + 1, n + 5) for n in range(25)])
    for n in range(25):
        for k in range(n + 5):
            model = _stored([[_eulerian_cell_by_lists(n, k)]])
            assert _stored([[eulerian_explicit(n, k)]]) == model, (n, k)
            if k > n:
                assert _stored([[_make(beyond[n][k - n - 1], 1)]]) == model, (n, k)


def test_one_eulerian_cell_equals_its_explicit_row():
    # eulerian_explicit(n, k) is one _explicit_sums call, stepping the
    # falling factorials up to n in a slot of its own, not the rows' slot
    sequences._clear_memos()
    rows = route_rows("eulerian", 24, "explicit")
    for n in range(25):
        for k in range(n + 1):
            assert _stored([[eulerian_explicit(n, k)]]) == _stored([[rows[n][k]]]), (n, k)


def test_worpitzky_matches_the_list_model():
    for n in range(25):
        model, _ = _worpitzky_by_lists(n)
        assert _xl_stored([worpitzky_lhs(n)]) == _xl_stored([model]), n


# ---------------------------------------------------------------------------
# each bound covers what its site reaches
# ---------------------------------------------------------------------------


def test_each_bound_covers_every_step_of_the_list_model(monkeypatch):
    # the Horner kernel's bound covers every step of its scheme, on the
    # route's rows and on perturbed rows
    rows, peaks = _gf_rows_by_lists(24)
    norms = [_norm(row) for row in rows]
    for n in range(1, 25):
        assert _horner_bound(norms, n) >= peaks[n], n
    for perturbation in (0, BIG):
        rows = _perturbed_rows(24, perturbation)
        _, tap_peaks = _residual_by_lists(rows)
        norms = [_norm(row) for row in rows]
        for n in range(25):
            _, peak = _horner_by_lists(rows, n, n)
            assert _horner_bound(norms, n) >= peak, (perturbation, n)
        # the residual's slot covers every numerator of every tap
        [bound] = _slot_bounds(monkeypatch, egf, lambda: _residual_taps(rows))
        assert bound >= max(tap_peaks), perturbation
    # the packed sums size their slot from a bound on every sum
    for n in range(25):
        _, peak = _worpitzky_by_lists(n)
        [bound] = _slot_bounds(monkeypatch, algebra, lambda: worpitzky_lhs(n))
        assert bound >= peak, n


@pytest.mark.parametrize("family", EXPLICIT_MODELS)
def test_the_falling_sums_bound_covers_every_sum_of_the_list_model(monkeypatch, family):
    # one slot per call, from one bound over every sum it returns
    for max_n in (0, 1, 5, 24):
        _, peak = EXPLICIT_MODELS[family](max_n)
        sequences._clear_memos()
        [bound] = _slot_bounds(monkeypatch, algebra, lambda: route_rows(family, max_n, "explicit"))
        assert bound >= peak, max_n
    # a call that continues the rows bounds the sums of its own rows
    _, peak = EXPLICIT_MODELS[family](30)
    [bound] = _slot_bounds(monkeypatch, algebra, lambda: route_rows(family, 30, "explicit"))
    assert bound >= peak


def test_each_bound_covers_what_its_site_unpacks_up_to_the_cap(monkeypatch):
    rows = eulerian_table(64, "gf-recursion").rows
    norms = [_norm(row) for row in rows]
    for n in range(1, 65):
        bound, true = _horner_bound(norms, n), norms[n]
        # from the rows' own norms the bound is a few bits above the values
        assert true <= bound and bound.bit_length() <= true.bit_length() + 8, n
    rows = _perturbed_rows(64, BIG)
    [bound] = _slot_bounds(monkeypatch, egf, lambda: _residual_taps(rows))
    peaks = []
    for n, tap in enumerate(_residual_taps(rows)):
        peaks.append(max((abs(c) for v in tap.coeffs for c in v._num), default=0))
        assert (peaks[n] > 0) == (n >= 5), n  # the perturbation enters from tap 5 on
        assert bound >= peaks[n], n
    # 2·(G_n's bound + ‖A_n‖) is a few bits above the largest tap
    assert bound.bit_length() <= max(peaks).bit_length() + 8
    for n in range(65):
        unpacked = max(abs(c) for v in worpitzky_lhs(n).coeffs for c in _unpacked(v, factorial(n)))
        [bound] = _slot_bounds(monkeypatch, algebra, lambda: worpitzky_lhs(n))
        assert bound >= unpacked, n
    for family, den in (("eulerian", lambda k: 1), ("stirling2", factorial)):
        sequences._clear_memos()
        [bound] = _slot_bounds(monkeypatch, algebra, lambda: route_rows(family, 64, "explicit"))
        rows = route_rows(family, 64, "explicit")
        unpacked = max(abs(c) for row in rows for k, v in enumerate(row) for c in _unpacked(v, den(k)))
        # the bound ignores the cancellation of the alternating sums, ~100 bits at n = 64
        assert unpacked <= bound and bound.bit_length() <= unpacked.bit_length() + 128, family


# ---------------------------------------------------------------------------
# a slot a byte short of the unpacked values changes them
# ---------------------------------------------------------------------------


def _slot_of(true: int, short: int = 0):
    """A slot function that ignores its bound and holds |numerators| up to
    ``true``, less ``short`` bits."""
    return lambda bound: _SLOT(true) - short


def test_an_undersized_slot_changes_the_gf_recursion_rows(monkeypatch):
    model, _ = _gf_rows_by_lists(24)
    true = max(_norm(row) for row in model)
    # sized from the values themselves, the slot still holds them
    monkeypatch.setattr(sequences, "_slot", _slot_of(true))
    assert _stored(eulerian_table(24, "gf-recursion").rows) == _stored(model)
    sequences._clear_memos()
    monkeypatch.setattr(sequences, "_slot", _slot_of(true, 8))
    assert _stored(eulerian_table(24, "gf-recursion").rows) != _stored(model)


def test_an_undersized_slot_changes_the_residual_taps(monkeypatch):
    # a perturbed row makes the taps nonzero and far larger than the rows
    rows = _perturbed_rows(24, BIG)
    model, tap_peaks = _residual_by_lists(rows)
    true = max(abs(c) for tap in model for v in tap.coeffs for c in v._num)
    assert true == max(tap_peaks)
    inputs = max(_norm(row) for row in rows)
    assert _SLOT(true) - 8 > inputs.bit_length()  # the rows still pack
    monkeypatch.setattr(egf, "_slot", _slot_of(true))
    assert _xl_stored(_residual_taps(rows)) == _xl_stored(model)
    monkeypatch.setattr(egf, "_slot", _slot_of(true, 8))
    assert _xl_stored(_residual_taps(rows)) != _xl_stored(model)


def test_an_undersized_slot_changes_the_worpitzky_sum(monkeypatch):
    n = 20
    model, peak = _worpitzky_by_lists(n)
    true = max(abs(c) for v in model.coeffs for c in _unpacked(v, factorial(n)))
    assert true == peak
    assert _SLOT(true) - 8 > _norm(eulerian_table(n).row(n)).bit_length()
    # the packed sums take their slot in algebra
    monkeypatch.setattr(algebra, "_slot", _slot_of(true))
    assert _xl_stored([worpitzky_lhs(n)]) == _xl_stored([model])
    monkeypatch.setattr(algebra, "_slot", _slot_of(true, 8))
    assert _xl_stored([worpitzky_lhs(n)]) != _xl_stored([model])


@pytest.mark.parametrize("family", EXPLICIT_MODELS)
def test_an_undersized_slot_changes_the_explicit_rows(monkeypatch, family):
    model, true = EXPLICIT_MODELS[family](24)
    # sized from the sums themselves, the slot still holds them
    monkeypatch.setattr(algebra, "_slot", _slot_of(true))
    sequences._clear_memos()
    assert _stored(route_rows(family, 24, "explicit")) == _stored(model)
    monkeypatch.setattr(algebra, "_slot", _slot_of(true, 8))
    sequences._clear_memos()
    assert _stored(route_rows(family, 24, "explicit")) != _stored(model)


# ---------------------------------------------------------------------------
# the suite guards each kernel at each binding its callers use
# ---------------------------------------------------------------------------


def _horner_with_one_wrong_s(packed, n, S):
    """``algebra._horner_x_minus_one`` with s one too large at step i = 1;
    a packed value is its polynomial at λ = 2^S."""
    lam, acc = 2 ** S, []
    for i in range(n):
        s, c = n - i + (i == 1), comb(n, i)
        acc = [d + s * d * lam + c * a for d, a in zip(map(sub, [0] + acc, acc + [0]), packed[i])]
    return acc


def _sums_with_the_first_value_twice(columns, nums):
    """``algebra._packed_sums`` with the first value counted twice in every sum."""
    return algebra._packed_sums([(column[0] + 1, *column[1:]) for column in columns], nums)


def _falling_sums_with_one_wrong_step(start, columns):
    """``algebra._falling_sums`` on numerator lists, with the factor j - 0·λ
    of the step to n = 1 taken as j - λ."""
    falling, sums = [[1]] * max(len(c) for row in columns for c in row), []
    for n in range(start + len(columns)):
        if n:
            falling = [_add_linear([], f, j, -max(n - 1, 1)) for j, f in enumerate(falling)]
        if n >= start:
            row = []
            for column in columns[n - start]:
                acc = []
                for c, f in zip(column, falling):
                    _add_linear(acc, f, c)
                row.append(acc)
            sums.append(row)
    return sums


def _failing_checks() -> set:
    sequences._clear_memos()
    return {spec.id for spec in run_suite() if spec.status != "pass"}


def test_the_suite_fails_a_faulty_kernel_at_each_binding(monkeypatch):
    assert _failing_checks() == set()
    monkeypatch.setattr(sequences, "_horner_x_minus_one", _horner_with_one_wrong_s)
    assert _failing_checks() == {"thm-2.3-poly-recursion"}
    monkeypatch.undo()
    monkeypatch.setattr(egf, "_horner_x_minus_one", _horner_with_one_wrong_s)
    assert _failing_checks() == {"prop-2.1-gf-residual"}
    monkeypatch.undo()
    monkeypatch.setattr(sequences, "_packed_sums", _sums_with_the_first_value_twice)
    assert _failing_checks() == {"thm-2.7-worpitzky"}
    monkeypatch.undo()
    # both explicit routes: each check that reads one of them against another
    # route. thm-2.2-vanishing sums on the same kernel and still passes: each
    # faulty (j)_{n,λ} is still of degree n in j, so its (n+1)-th differences
    # beyond the triangle still vanish
    monkeypatch.setattr(sequences, "_falling_sums", _falling_sums_with_one_wrong_step)
    assert _failing_checks() == {"thm-2.6-recursion", "thm-2.8-stirling2-from-eulerian",
                                 "thm-2.11-eulerian-from-stirling2", "eq-38-stirling2-binomial-expansion"}
