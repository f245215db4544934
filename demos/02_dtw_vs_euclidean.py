"""Why warped alignment beats lock-step comparison for shape matching.

A pulse shifted by one sample is 'far' in lock-step (Euclidean) terms even
though the shapes are identical. Warped alignment matches the points with
similar shape, so the distance collapses to zero, and the warping path
shows exactly which points were paired.
"""

from modecast import dtw_distance, euclidean_distance, warp_path

pulse = [0.0, 0.0, 1.0, 0.0, 0.0]
shifted = [0.0, 1.0, 0.0, 0.0, 0.0]

dtw, matrix = dtw_distance(pulse, shifted)
euclid = euclidean_distance(pulse, shifted)
print(f"pulse:   {pulse}")
print(f"shifted: {shifted}")
print(f"warped distance:    {dtw:g}")
print(f"lock-step distance: {euclid:g}")

print("\ncumulative cost matrix (rows = pulse, cols = shifted):")
for row in matrix:
    print("  " + " ".join(f"{v:4.1f}" for v in row))

print("\nwarping path (1-based index pairs):")
print("  " + " -> ".join(f"({i},{j})" for i, j in warp_path(matrix)))

print("\nFor sequences of equal length the warped distance can never exceed")
print("the lock-step distance, because the lock-step pairing is itself one")
print("of the alignments the warp may choose.")
