"""Noise tolerance and counter imperfection: where conditioning pays.

Two stress axes.  First, the largest excess noise each scheme survives
at a given distance: conditioning buys headroom at long range.  Second,
counter loss: an inefficient counter softens the conditioning and pulls
the maximum distance back below the plain source, so the hardware has to
be good for the scheme to be worth it.
"""

from psqkd import SourceSpec, max_distance, pipeline_key_rate, scheme_label
from psqkd.analysis import tolerable_excess_noise
from psqkd.gaussian import ChannelSpec

V = 20.0
BETA = 0.95

print(f"largest tolerable excess noise (V = {V:g}, t = 0.8)\n")
sources = [SourceSpec.tmsv(V), SourceSpec.k_photon(V, 0.8, 1),
           SourceSpec.k_photon(V, 0.8, 2)]
print(f"{'km':>5} " + " ".join(f"{scheme_label(s):>9}" for s in sources))
distances = [10.0, 40.0, 80.0, 120.0]
# one search per scheme covers every distance at once
columns = [tolerable_excess_noise(src, distances, BETA) for src in sources]
for i, d in enumerate(distances):
    cells = [f"{eps[i]:>9.4f}" if alive[i] else f"{'dead':>9}" for eps, alive in columns]
    print(f"{d:>5.0f} " + " ".join(cells))

print("\ncounter efficiency sweep, single-click scheme at 40 km:")
ch = ChannelSpec(distance_km=40.0, loss_db_per_km=0.2, epsilon=0.01)
for eta in (1.0, 0.9, 0.8, 0.65, 0.5):
    src = SourceSpec.k_photon(V, 0.8, 1, eta)
    kr = pipeline_key_rate(src, ch, BETA)
    d_max = max_distance(src, BETA)
    print(f"  eta_d = {eta:4.2f}: rate = {kr.key_rate:.3e}, "
          f"click P = {kr.success_prob:.4f}, max distance = {d_max:6.1f} km")

d_plain = max_distance(SourceSpec.tmsv(V), BETA)
print(f"\nplain source reaches {d_plain:.1f} km at the same fixed settings;")
print("a 50% counter hands that advantage back")
