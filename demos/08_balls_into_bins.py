"""Balls-into-bins: the max load stays superconstant.

Clauses landing in Voronoi regions are balls landing in (non-uniform)
bins; with n bins and about n balls the fullest bin holds
Omega(log n / log log n) balls, which is what makes some region collect
all 2^k sign patterns.

Run:  python demos/08_balls_into_bins.py
"""

import math

import numpy as np

import geoksat as gk

print("=== uniform bins, m = n ===")
print(f"{'n':>9} {'threshold':>10} {'min':>5} {'median':>7} {'max':>5}   (20 seeds)")
for n in (10**3, 10**4, 10**5):
    loads = [gk.balls_into_bins(n, np.full(n, 1.0 / n), s) for s in range(20)]
    thr = math.ceil(math.log(n) / (2 * math.log(math.log(n))))
    print(f"{n:>9} {thr:>10} {min(loads):>5} {int(np.median(loads)):>7} "
          f"{max(loads):>5}")
print("the observed max load clears ceil(ln n / (2 ln ln n)) with room")

print("\n=== non-uniform bins only help ===")
n = 10**4
uniform = np.full(n, 1.0 / n)
skewed = gk.power_law_weights(n, 2.5)
skewed = skewed / skewed.sum()
u_loads = [gk.balls_into_bins(n, uniform, s) for s in range(20)]
s_loads = [gk.balls_into_bins(n, skewed, s) for s in range(20)]
print(f"  uniform bins: median max load {int(np.median(u_loads))}")
print(f"  power-law bins: median max load {int(np.median(s_loads))}")
print("skewing bin probabilities concentrates balls even harder")
