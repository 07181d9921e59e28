"""Monte Carlo complexity of weighted order-k Voronoi diagrams.

Random sites give linearly many non-empty regions (in the total weight W)
across dimensions, norms, and orders; a crafted two-line configuration
shows the quadratic worst case that random positions avoid.

Run:  python demos/06_voronoi_scaling.py   (about a minute)
"""

import numpy as np

import geoksat as gk

print("=== random sites: counts grow linearly in n ===")
print(f"{'(d, p, k)':>14} | {'n=250':>7} {'n=500':>7} {'n=1000':>7} | slope")
for d, p, k in ((1, 2, 2), (2, 2, 2), (2, gk.INFINITY, 3), (3, 1, 2)):
    g = gk.GeometrySpec(d=d, p_norm=p)
    counts = []
    for n in (250, 500, 1000):
        sites = gk.random_sites(n, g, (n, 0))
        counts.append(gk.count_regions_monte_carlo(sites, k, 200 * n, 1, g).count)
    slope = np.polyfit(np.log([250, 500, 1000]), np.log(counts), 1)[0]
    print(f"{str((d, str(p), k)):>14} | {counts[0]:>7} {counts[1]:>7} "
          f"{counts[2]:>7} | {slope:.3f}")

print("\n=== weighted sites: counts track total weight W, not n^2 ===")
g2 = gk.GeometrySpec(d=2, p_norm=2)
for n in (250, 500, 1000):
    w = gk.power_law_weights(n, 2.5)
    sites = gk.random_sites(n, g2, (n, 1), weights=w)
    res = gk.count_regions_monte_carlo(sites, 2, 200 * n, 1, g2)
    print(f"  n={n:>5}: W={sites.total:>8.1f}  count={res.count:>6}  "
          f"count/W={res.count / sites.total:.3f}")

print("\n=== the adversarial configuration: superlinear growth ===")
for n in (10, 20, 40):
    sites = gk.generate_worst_case_sites(n)
    res = gk.count_regions_monte_carlo(sites, 3, 50 * n**3, 1, g2)
    print(f"  n={n:>3}: order-3 regions discovered {res.count:>5}")
print("half heavy sites on a vertical line, half light on a horizontal one:")
print("every light disk splits into ~n/2 bands, one per adjacent heavy pair")

print("\n=== relevance certificates for discovered regions ===")
sites = gk.random_sites(50, g2, 3)
res = gk.count_regions_monte_carlo(sites, 2, 5000, 4, g2)
key, point = next(iter(res.witnesses.items()))
cert = gk.relevance_certificate(key, sites, g2, seed_point=point)
print(f"region {key}: witness point {np.round(cert.point, 4)}, "
      f"radius {cert.radius:.4f} >= R_A = {gk.compute_R_A(key, sites, g2):.4f}")
