"""Optimal-tap key rate versus distance, and where each scheme dies.

For every distance the tap transmittance is re-optimized, because the
best tap drifts toward 1 (weaker conditioning) as the channel shortens.
The plain source wins below a crossover distance; the conditioned
schemes hold on far past the point where the plain rate has collapsed.
"""

from psqkd import SourceSpec, TGrid, max_distance, optimize_t, scheme_label
from psqkd.gaussian import ChannelSpec

V = 20.0
BETA = 0.95
EPSILON = 0.01

sources = [SourceSpec.tmsv(V), SourceSpec.k_photon(V, 0.5, 1),
           SourceSpec.k_photon(V, 0.5, 2)]
distances = [0.0, 10.0, 20.0, 50.0, 100.0, 150.0, 200.0]

print(f"V = {V:g}, epsilon = {EPSILON:g}, beta = {BETA:g}; "
      "rate re-optimized over the tap at every distance\n")
labels = [scheme_label(s) for s in sources]
print(f"{'km':>5} " + " ".join(f"{lbl:>13} {'t_opt':>6}" for lbl in labels))
# one optimize_t call per source covers every distance of the channel at once
ch = ChannelSpec(distance_km=distances, loss_db_per_km=0.2, epsilon=EPSILON)
optima = [optimize_t(src, ch, BETA, with_bands=False) for src in sources]
for i, d in enumerate(distances):
    cells = []
    for rec in optima:
        rate = rec.key_rate_opt[i] if rec.has_key[i] else 0.0
        cells.append(f"{rate:>13.3e} {rec.t_opt[i]:>6.3f}")
    print(f"{d:>5.0f} " + " ".join(cells))

print("\nlargest distance with rate above 1e-6 bits per symbol:")
grid = TGrid()
for src, lbl in zip(sources, labels):
    t_grid = None if lbl == "none" else grid
    d_max = max_distance(src, BETA, EPSILON, t_grid=t_grid)
    print(f"  {lbl:<6} {d_max:6.1f} km")
