"""
Correlating diversity with downstream scores, and filtering impact
==================================================================

Two closing analyses: Pearson correlation (with two-tailed p-values)
between aligned series such as text diversity, motion diversity, and a
downstream quality score; and the before/after change in absolute
diversity when a set is filtered.
"""

import math

import numpy as np

from divsat import (
    GaussianSpec,
    PairedSeries,
    aggregate_r,
    correlation_report,
    diversity_impact,
    gaussian_set,
    pearson_p,
    pearson_r,
    subset,
)

rng = np.random.default_rng(20)

# Three aligned series over twelve activities: text diversity drives
# motion diversity with noise, and the downstream score follows motion.
text = rng.uniform(0.5, 2.0, size=12)
motion = 0.8 * text + rng.normal(0, 0.15, size=12)
score = 0.5 * motion + rng.normal(0, 0.1, size=12)

report = correlation_report(text.tolist(), motion.tolist(), score.tolist())
for name, res in (
    ("text vs motion", report.text_vs_motion),
    ("text vs score ", report.text_vs_f1),
    ("motion vs score", report.motion_vs_f1),
):
    print(f"{name}: r = {res.r:+.3f}, p = {res.p:.4f}, n = {res.n}")

# The p-value is the two-tailed Student-t tail for the observed r; a
# middling correlation over few points is far from significant.
r = pearson_r(PairedSeries(text.tolist(), score.tolist()))
print(f"\nby hand: r = {r:+.3f}, p = {pearson_p(r, len(text)):.4f}")
print(f"the same r over 100 points would give p = {pearson_p(r, 100):.2e}")

# Per-activity correlations can be pooled either as a plain mean or
# through Fisher z, which averages atanh(r) and maps back with tanh.
per_activity = [0.62, 0.55, 0.71, 0.40]
print(f"\nraw mean r      {aggregate_r(per_activity, 'raw'):.4f}")
print(f"fisher-z mean r {aggregate_r(per_activity, 'fisher-z'):.4f}")

# Filtering impact: keep only the vectors inside one sigma of the
# centroid. Dropping the outer shell concentrates the set, so both
# absolute diversity metrics fall.
cloud = gaussian_set(GaussianSpec(k=8, sigma=1.0, seed=4), 2000)
centroid = cloud.vectors.mean(axis=0)
radius = math.sqrt(8)
keep = [
    record_id for record_id, row in zip(cloud.ids(), cloud.vectors)
    if float(np.linalg.norm(row - centroid)) <= radius
]
impact = diversity_impact(cloud, subset(cloud, keep))
print(f"\nkept {len(keep)}/2000 inside radius {radius:.2f}")
print(f"std metric      {impact.before.std_metric:.4f} -> "
      f"{impact.after.std_metric:.4f}  (delta {impact.delta_std:+.4f})")
print(f"centroid metric {impact.before.centroid_metric:.4f} -> "
      f"{impact.after.centroid_metric:.4f}  (delta {impact.delta_centroid:+.4f})")
