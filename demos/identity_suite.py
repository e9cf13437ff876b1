"""
Running the identity suite from Python
======================================

Every identity the library implements is registered as a named check
with a default parameter range. The suite is the same one behind
``degenpoly verify``; here it runs in-process at reduced ranges so the
whole demo finishes in a couple of seconds.
"""

from degenpoly import check_ids, run_suite

###############################################################################
# What is registered
# ------------------

ids = check_ids()
print(f"{len(ids)} registered checks:")
for check_id in ids:
    print("  -", check_id)

###############################################################################
# A fast pass over every check
# ----------------------------

results = run_suite(ranges={"n_max": 8, "m_max": 8, "k_max": 8})
print("\nresults at n_max=8:")
for spec in results:
    print(f"  {spec.status.upper():4s} {spec.id}")

failed = [spec for spec in results if spec.status != "pass"]
print(f"\n{len(results) - len(failed)} passed, {len(failed)} failed")

###############################################################################
# Exact comparison
# ----------------
# Both sides of every case are compared as polynomials in λ, so a pass
# covers every value of λ at once. Sampling λ at a few points would not:
# a check at n_max = 20 compares polynomials of λ-degree up to 19.

(worpitzky,) = run_suite(["thm-2.7-worpitzky"], ranges={"n_max": 10})
print("\nexact over Q[λ][x]:", worpitzky.id, worpitzky.status, worpitzky.ranges)
