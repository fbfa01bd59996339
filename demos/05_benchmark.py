"""
Why the decomposition is fast
=============================

The naive concatenation form redoes a full convolution for every sliding
window; the decomposed form runs one convolution over the whole search
map, and caching the template term removes even that side entirely.
Before timing, each problem passes one gate: the naive form plus the
cached prior term must match the cached decomposed path, so the numbers
below are for implementations known to agree.
"""

from asymfuse import bench, bench_compare, naive_scaling_slope, write_json

configs = bench.default_configs()[:3]  # the 64-channel fourth config takes seconds

print("timing (median ns per call, 20 reps after warm-up)...")
results = bench_compare(configs, reps=20, seed=0)

print(f"{'size':<22} {'naive':>12} {'decomposed':>12} {'cached':>12} {'speedup':>8}")
for r in results:
    c = r.config
    label = f"C={c.channels} {c.eta}x{c.omega} on {c.height}x{c.width}"
    print(f"{label:<22} {r.naive.median_ns:>12.0f} {r.acm.median_ns:>12.0f} "
          f"{r.cached.median_ns:>12.0f} {r.speedup:>8.2f}x")

path = write_json(results, "bench_results.json")
print(f"\nwrote {path}")

# The naive path's cost grows with the number of window positions; on a
# log-log plot of time against positions the slope should be near 1. The
# sweep is fixed: C=8, 3x3 kernels, P=8 on square maps of side 7 to 28.
slope = naive_scaling_slope()
print(f"log-log slope of naive time vs. window positions: {slope:.2f}")
