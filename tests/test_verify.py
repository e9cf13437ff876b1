"""Harness behavior: reports, counterexamples, range limits, selection."""

from fractions import Fraction as F

import pytest

from degenpoly import sequences
from degenpoly.algebra import LambdaPoly
from degenpoly.oracles import MAX_ENUMERATION_N
from degenpoly.sequences import eulerian_explicit, eulerian_table
from degenpoly.verify import (
    REGISTRY,
    Check,
    RangeOverrideError,
    UnknownCheckError,
    check_ids,
    get_check,
    run_check,
    run_suite,
)

TINY = {"n_max": 5, "m_max": 4, "k_max": 4}


def test_registry_size_and_unique_ids():
    ids = check_ids()
    assert len(ids) >= 16
    assert len(set(ids)) == len(ids)


def test_single_check_passes():
    (spec,) = run_suite(["thm-2.2-vanishing"], ranges={"n_max": 10})
    assert spec.status == "pass"
    assert spec.counterexample is None
    assert spec.ranges == {"n_max": 10}


def test_unknown_id_lists_valid_ids():
    with pytest.raises(UnknownCheckError) as excinfo:
        run_suite(["thm-9.9-imaginary"])
    message = str(excinfo.value)
    assert "thm-9.9-imaginary" in message
    for cid in check_ids():
        assert cid in message
    with pytest.raises(UnknownCheckError):
        get_check("nope")


def test_full_suite_passes_at_small_ranges():
    results = run_suite(ranges=TINY)
    assert len(results) == len(REGISTRY)
    assert all(spec.status == "pass" for spec in results)


def test_report_is_order_independent():
    a = run_suite(["thm-2.7-worpitzky", "eulerian-row-sum"], ranges=TINY)
    b = run_suite(["eulerian-row-sum", "thm-2.7-worpitzky"], ranges=TINY)
    assert a == b


def test_range_override_ignores_irrelevant_keys():
    (spec,) = run_suite(["eulerian-row-sum"], ranges={"n_max": 4, "m_max": 99})
    assert spec.ranges == {"n_max": 4}
    assert spec.status == "pass"


def _perturbed_check(mutations):
    """A copy of the recursion-agreement check with chosen entries broken."""

    def cases(r):
        table = eulerian_table(r["n_max"])
        for n in range(r["n_max"] + 1):
            for k in range(n + 1):
                lhs = table.entry(n, k)
                if (n, k) in mutations:
                    lhs = lhs + mutations[(n, k)]
                yield {"n": n, "k": k}, lhs, eulerian_explicit(n, k)

    return Check("self-test-perturbed", "harness self-test", {"n_max": 5}, cases)


def test_range_limits_default_to_an_immutable_empty_mapping():
    check = _perturbed_check({})
    assert check.max_ranges == {} and check.min_ranges == {}
    with pytest.raises(TypeError):  # the default is shared by every Check
        check.max_ranges["n_max"] = 3


def test_perturbed_check_reports_smallest_counterexample():
    lam = LambdaPoly((0, 1))
    check = _perturbed_check({(3, 1): lam, (2, 0): lam})
    spec = run_check(check)
    assert spec.status == "fail"
    assert spec.counterexample is not None
    assert spec.counterexample.parameters == {"n": 2, "k": 0}
    assert spec.counterexample.lhs == "1"  # (1 - λ) + λ
    assert spec.counterexample.rhs == "1 - λ"


def test_pass_never_carries_counterexample():
    for spec in run_suite(["eulerian-top-entry", "lambda0-bernoulli"], ranges=TINY):
        assert spec.status == "pass" and spec.counterexample is None


def test_exact_comparison_catches_sampling_blind_spot():
    # a perturbation that vanishes at five rational λ values would pass any
    # comparison sampling only those points; exact equality must catch it
    blind_spot = LambdaPoly((1,))
    for root in (F(0), F(1), F(-1), F(1, 2), F(2, 3)):
        blind_spot = blind_spot * LambdaPoly((-root, 1))
    spec = run_check(_perturbed_check({(1, 0): blind_spot}))
    assert spec.status == "fail"
    assert spec.counterexample.parameters == {"n": 1, "k": 0}


def test_enumeration_range_limit():
    for cid in ("lambda0-descent-oracle", "lambda0-excedance-oracle"):
        with pytest.raises(RangeOverrideError, match=cid):
            run_suite([cid], ranges={"n_max": MAX_ENUMERATION_N + 1})
        (spec,) = run_suite([cid], ranges={"n_max": 8})
        assert spec.status == "pass"
    # the whole selection is checked before any check runs
    with pytest.raises(RangeOverrideError):
        run_suite(ranges={"n_max": MAX_ENUMERATION_N + 1})


def test_smallest_ranges_scan_a_case():
    for check in REGISTRY:
        lowest = {key: check.min_ranges.get(key, 0) for key in check.default_ranges}
        assert next(check.cases(lowest), None) is not None, check.id
        for key, value in lowest.items():
            with pytest.raises(RangeOverrideError, match=check.id):
                run_suite([check.id], ranges={key: value - 1})


def test_classical_triangle_checks_take_any_n():
    (spec,) = run_suite(["lambda0-eulerian-triangle"], ranges={"n_max": 21})
    assert spec.status == "pass"


def test_deterministic_repeat():
    first = run_suite(["prop-2.1-gf-residual"], ranges={"n_max": 5})
    second = run_suite(["prop-2.1-gf-residual"], ranges={"n_max": 5})
    assert first == second


def test_any_order_gives_the_per_check_results_of_empty_memos():
    # the checks share the memos, so each must report what it reports alone
    alone = {}
    for check in REGISTRY:
        sequences._clear_memos()
        alone[check.id] = run_check(check)
    sequences._clear_memos()
    reverse = [run_check(check) for check in reversed(REGISTRY)]
    assert {spec.id: spec for spec in reverse} == alone
    assert {spec.status for spec in reverse} == {"pass"}
