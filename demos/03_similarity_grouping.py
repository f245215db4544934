"""Building a training set from the windows most similar to the recent past.

A fast-fluctuating component is sliced into every overlapping window of
length L. The trailing window is the reference; all earlier windows that
still have a successor value are ranked by warped distance to it, and the
closest ones contribute (window -> next value) training pairs. On a
periodic component the in-phase repeats of the reference rank first and
their successors all agree, which is exactly what makes the grouped
training set better than an indiscriminate sliding window.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from modecast import GroupingConfig, build_training_set, rank_by_similarity, select_group

t = np.arange(40)
component = np.sin(2 * np.pi * t / 8) + 0.05 * np.sin(2 * np.pi * t / 3)
L = 8

windows = sliding_window_view(component, L)  # row i is the window at offset i + 1
reference_offset = len(windows)
print(f"{len(windows)} overlapping windows of length {L} "
      f"(offsets 1..{reference_offset})")
print(f"reference = trailing window at offset {reference_offset}")

cfg = GroupingConfig(segment_length=L, group_size=5)
offsets, distances = rank_by_similarity(component, cfg)
print("\nrank  offset  distance")
for rank, (offset, dist) in enumerate(zip(offsets[:8], distances[:8]), start=1):
    marker = " <- in phase with the reference" if (reference_offset - offset) % 8 == 0 else ""
    print(f"{rank:4d}  {offset:6d}  {dist:8.4f}{marker}")

k = select_group(distances, cfg)
training = build_training_set(component, offsets[:k], L)
print(f"\ntop-{cfg.group_size} training pairs (window -> next value):")
for offset, dist, target in zip(training.offsets, distances[:k], training.targets):
    print(f"  offset {offset:2d} (distance {dist:.4f}) -> target {target:+.4f}")
true_next = np.sin(2 * np.pi * 40 / 8) + 0.05 * np.sin(2 * np.pi * 40 / 3)
print(f"\ntrue next value of the component: {true_next:+.4f}")
