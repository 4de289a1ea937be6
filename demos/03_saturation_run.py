"""
Stopping generation at the saturation point
===========================================

Grow an embedding set batch by batch and score each batch with the
resampling MMD between the current set and the set plus the batch. When
several consecutive scores land inside a running acceptance window the
set has stopped gaining diversity and the loop exits. A source whose
distribution keeps moving keeps breaking the window and runs longer.
"""

from divsat import (
    GaussianSpec,
    SaturationConfig,
    SyntheticSource,
    gaussian_set,
    run_saturation,
    stationary_provider,
)

SPEC = dict(k=4, sigma=0.15)
cfg = SaturationConfig(perc=0.2, early_stop=5, mmd_repetitions=16,
                       seed=3, max_iterations=30)
initial = gaussian_set(GaussianSpec(seed=3, **SPEC), 50)


def show(tag, trace, final):
    print(f"{tag}: {trace.reason.value} after {trace.iterations} iterations, "
          f"{initial.size} -> {final.size} items")
    print("  it  batch   mmd mean    window                in  streak")
    for s in trace.steps:
        print(
            f"  {s.iteration:2d}  {s.batch_size:4d}   {s.mmd_mean:.6f}  "
            f"({s.range_min:8.5f}, {s.range_max:8.5f})  "
            f"{'y' if s.in_window else 'n'}   {s.stop_condition}"
        )


# Stationary source: every batch is drawn from the same Gaussian, so the
# comparative scores settle immediately and the streak runs out fast.
source = stationary_provider(GaussianSpec(seed=11, **SPEC))
final, trace = run_saturation(initial, source, source, cfg)
show("stationary", trace, final)

# Drifting source: the mean moves 0.5 along the first axis after every
# batch. Each batch looks different from the accumulated set, scores jump
# around, and the window keeps resetting.
drift = SyntheticSource(GaussianSpec(seed=11, **SPEC), drift=(0.5, 0.0, 0.0, 0.0))
final_d, trace_d = run_saturation(initial, drift, drift, cfg)
print()
show("drifting", trace_d, final_d)

print(f"\nstationary stopped at {trace.iterations}, "
      f"drifting at {trace_d.iterations} (cap {cfg.max_iterations})")
