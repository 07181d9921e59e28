"""Power-law weight sequences and their moment regimes.

The second moment of the sampling probabilities switches regime at
exponent 3: ~n^(-2(beta-2)/(beta-1)) below, ~ln(n)/n at 3, ~1/n above.

Run:  python demos/02_power_law_weights.py
"""

import math

import geoksat as gk
from geoksat.weights import power_law_total_asymptotic

print("=== the sequence w_i = i^(-1/(beta-1)) ===")
w = gk.power_law_weights(8, 3.0)
print("beta=3, n=8:", [round(x, 4) for x in w])

print("\n=== total weight vs closed-form leading term ===")
for beta in (2.5, 3.0, 3.5):
    total = math.fsum(gk.power_law_weights(10**6, beta))
    lead = power_law_total_asymptotic(10**6, beta)
    print(f"  beta={beta}: exact {total:12.2f}   leading term {lead:12.2f}"
          f"   rel.err {abs(total / lead - 1):.4%}")

print("\n=== second-moment regimes ===")
print(f"{'n':>9} | {'b=2.5: sm*n^(2/3)':>18} | {'b=3: sm*n/ln n':>15} | {'b=3.5: sm*n':>12}")
for n in (10**3, 10**4, 10**5, 10**6):
    row = []
    for beta, scale in ((2.5, n ** (2 * 0.5 / 1.5)), (3.0, n / math.log(n)), (3.5, n)):
        sm = gk.second_moment(gk.power_law_weights(n, beta))
        row.append(sm * scale)
    print(f"{n:>9} | {row[0]:>18.4f} | {row[1]:>15.4f} | {row[2]:>12.4f}")
print("each column is flat: the exact sums sit in their predicted regimes")

print("\n=== prefix mass: how much probability the heavy head carries ===")
w = gk.power_law_weights(10**5, 2.5)
for i in (10, 100, 1000, 10_000):
    print(f"  top {i:>6} of 100000 variables carry {gk.prefix_mass(w, i):.3f}"
          " of the draw probability")
