"""
Central-difference verification of every gradient
=================================================

Each differentiable op gets a tiny random problem; the tape's analytic
gradient is compared against a two-sided finite difference computed with
a re-evaluated forward pass. Relative errors near machine-precision
levels mean the backward rules are right. A deliberately corrupted
gradient shows the harness actually discriminates.
"""

from asymfuse.gradcheck import gradient_check_suite

results = gradient_check_suite(seed=0, eps=1e-2, tol=1e-2)

print(f"{'op':<16} {'parameter':<12} {'rel. error':>12}")
for r in results:
    print(f"{r.op:<16} {r.param:<12} {r.rel_error:>12.3e}")

worst = max(results, key=lambda r: r.rel_error)
print(f"\n{len(results)} comparisons, all passed: {all(r.passed for r in results)}")
print(f"worst case: {worst.op}/{worst.param} at {worst.rel_error:.3e}")

# Negative control: corrupt one analytic gradient and watch it get caught.
corrupted = gradient_check_suite(seed=0, inject_error=True)
caught = [r for r in corrupted if not r.passed]
print(f"\nwith an injected error, {len(caught)} comparison(s) fail "
      f"(first: {caught[0].op}/{caught[0].param} at {caught[0].rel_error:.3e})")
