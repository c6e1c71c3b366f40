"""Figure 15: culling accuracy vs guard band and prediction window (band2).

Paper: accuracy (fraction of actually-visible points the predicted cull
keeps) grows with the guard band and shrinks with the prediction
window; at the default 20 cm band accuracy stays above ~94% out to
W = 30 frames, and the kept fraction (in brackets) grows mildly with
the band.  Grid: guard in {10, 20, 30, 50} cm x W in {5, 10, 20, 30}.
"""

import numpy as np

from conftest import write_result
from repro.capture.dataset import load_video
from repro.capture.rig import default_rig
from repro.perf.capture import CachedFrameSource
from repro.prediction.culling import culling_accuracy
from repro.prediction.pose import user_traces_for_video
from repro.prediction.predictor import FrustumPredictor, ViewingDevice

GUARDS_CM = (10, 20, 30, 50)
WINDOWS = (5, 10, 20, 30)
NUM_FRAMES = 60
FPS = 30.0


def test_fig15_guard_band_grid(benchmark, results_dir):
    _, scene = load_video("band2", sample_budget=20_000)
    rig = default_rig(num_cameras=8, width=64, height=48)
    user = user_traces_for_video("band2", NUM_FRAMES + max(WINDOWS) + 5)[0]
    device = ViewingDevice()
    source = CachedFrameSource(rig, scene)
    frames = {seq: source.capture(seq) for seq in range(8, NUM_FRAMES, 7)}

    def build():
        table = {}
        for guard_cm in GUARDS_CM:
            for window in WINDOWS:
                predictor = FrustumPredictor(device, guard_band_m=guard_cm / 100.0)
                accuracies, kepts = [], []
                for sequence in range(NUM_FRAMES):
                    predictor.observe(user.pose_at_frame(sequence), sequence / FPS)
                    target = sequence + window
                    if sequence in frames and target < len(user.poses):
                        predicted = predictor.predict_frustum(window / FPS)
                        actual = device.frustum_for(user.pose_at_frame(target))
                        accuracy, kept = culling_accuracy(
                            frames[sequence], rig.cameras, predicted, actual
                        )
                        accuracies.append(accuracy)
                        kepts.append(kept)
                table[(guard_cm, window)] = (
                    100.0 * float(np.mean(accuracies)),
                    float(np.mean(kepts)),
                )
        return table

    table = benchmark.pedantic(build, rounds=1, iterations=1)
    lines = [f"{'Guard(cm)':>9s} " + " ".join(f"{'W=' + str(w):>16s}" for w in WINDOWS)]
    for guard_cm in GUARDS_CM:
        cells = " ".join(
            f"{table[(guard_cm, w)][0]:7.2f} ({table[(guard_cm, w)][1]:.2f})"
            for w in WINDOWS
        )
        lines.append(f"{guard_cm:9d} {cells}")
    write_result("fig15_guardband.txt", "\n".join(lines))

    # Monotone trends of the paper's grid.
    for window in WINDOWS:
        accuracies = [table[(g, window)][0] for g in GUARDS_CM]
        assert all(b >= a - 0.3 for a, b in zip(accuracies, accuracies[1:]))
    for guard_cm in GUARDS_CM:
        accuracies = [table[(guard_cm, w)][0] for w in WINDOWS]
        assert accuracies[0] >= accuracies[-1] - 0.3
    # The paper's sweet spot: 20 cm keeps accuracy high at small W.
    assert table[(20, 5)][0] > 90.0
    # Kept fraction grows with the guard band.
    kept_by_guard = [table[(g, 5)][1] for g in GUARDS_CM]
    assert kept_by_guard == sorted(kept_by_guard)
