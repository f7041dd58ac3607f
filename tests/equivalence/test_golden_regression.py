"""Golden regression: pinned predictions + exit histogram for a fixed stream.

The bitwise-equivalence suite proves the runtime matches the Tensor oracle
*today*; this test pins the absolute outputs of the whole serving pipeline —
trained model, entropy policy, continuous batcher, drain — for one
fixed-seed synthetic stream.  Any future PR that silently shifts the
numerics (a reordered reduction, a dtype change, an altered init, a
different training trajectory) trips these assertions even if it changes
both execution paths consistently, which pure A/B equivalence cannot see.

If a PR changes the numerics *deliberately* (e.g. collapsing the float64
scalar promotion to true float32), regenerate the constants with the
recipe in ``_run_golden_stream``'s docstring and say so in the PR.

The values are independent of batch slicing (per-sample trajectories are
batch-invariant) and of the execution path (fast vs oracle), which this test
re-verifies; they depend only on the trained weights and the stream.

History: the weak-scalar-float32 PR (dtype policy in docs/NUMERICS.md, plus
eval-time conv+norm folding) regenerated all constants from the new float32
reference.  The *discrete* goldens — predictions, exit timesteps, accuracy —
came out identical to the float64-era values (no argmax or threshold
comparison flipped on this stream), and the float-level logit goldens below
were pinned for the first time so future ulp-level drift cannot hide behind
discrete invariance again.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EntropyExitPolicy
from repro.serve import LoadGenerator, Server, request_stream

pytestmark = pytest.mark.slow

GOLDEN_STREAM_SEED = 20260730
GOLDEN_NUM_REQUESTS = 48
GOLDEN_THRESHOLD = 0.35
GOLDEN_BATCH_WIDTH = 4

# fmt: off
GOLDEN_PREDICTIONS = [
    5, 9, 4, 7, 9, 2, 9, 0, 4, 6, 9, 7, 9, 7, 1, 2, 2, 7, 2, 3, 7, 9, 0, 0,
    6, 2, 5, 9, 3, 0, 3, 6, 3, 6, 1, 1, 7, 3, 2, 8, 6, 8, 3, 8, 4, 3, 2, 2,
]
GOLDEN_EXIT_TIMESTEPS = [
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 4, 1, 4, 1, 4, 4, 1, 1, 1, 1, 1,
    1, 4, 1, 1, 4, 4, 4, 1, 1, 1, 1, 1, 1, 1, 4, 1, 1, 1, 1, 4, 1, 1, 4, 1,
]
GOLDEN_EXIT_HISTOGRAM = [37, 0, 0, 11]
GOLDEN_ACCURACY = 0.875

# Float-level goldens: the exact float32 cumulative logits of test sample 0
# at horizons t=1 and t=4 (decimal reprs round-trip float32 exactly).  These
# pin the continuous numerics — dtype policy, op order, conv+norm folding —
# that the discrete goldens above cannot see.
GOLDEN_LOGITS_DTYPE = "float32"
GOLDEN_LOGITS_T1_SAMPLE0 = [
    -1.686998963356018, -1.1473768949508667, 0.2981703281402588,
    -2.033003091812134, 0.7391027212142944, -0.13184887170791626,
    -1.3257182836532593, -0.9411124587059021, 4.853384971618652,
    1.8811240196228027,
]
GOLDEN_LOGITS_T4_SAMPLE0 = [
    -1.8941972255706787, -0.8473753929138184, 0.4013849198818207,
    -2.3340845108032227, 0.4539681375026703, 0.09898968040943146,
    -1.31131112575531, -1.4278303384780884, 5.441026210784912,
    2.442056894302368,
]
# fmt: on


def _run_golden_stream(model, dataset, use_runtime=None):
    """Serve the pinned stream; returns (predictions, exit_timesteps, accuracy).

    To regenerate the constants after an *intentional* numeric change: run
    this helper against the session ``trained_model`` fixture and paste the
    three lists (they are deterministic — same weights, same stream, and
    per-sample results do not depend on batch composition).
    """
    server = Server(
        model,
        EntropyExitPolicy(GOLDEN_THRESHOLD),
        max_timesteps=4,
        batch_width=GOLDEN_BATCH_WIDTH,
        queue_capacity=32,
        use_runtime=use_runtime,
    ).start()
    stream = list(request_stream(dataset, GOLDEN_NUM_REQUESTS, seed=GOLDEN_STREAM_SEED))
    report = LoadGenerator(server).run(iter(stream))
    server.shutdown(drain=True)
    assert report.completed == GOLDEN_NUM_REQUESTS
    by_id = sorted(report.results, key=lambda r: r.request_id)
    predictions = [r.prediction for r in by_id]
    exit_timesteps = [r.exit_timestep for r in by_id]
    return predictions, exit_timesteps, report.accuracy()


def test_golden_serve_stream_is_pinned(trained_model, tiny_dataset):
    _, test = tiny_dataset
    predictions, exit_timesteps, accuracy = _run_golden_stream(trained_model, test)

    assert predictions == GOLDEN_PREDICTIONS, (
        "serve predictions drifted from the golden values — if this PR changed "
        "numerics deliberately, regenerate the constants (see module docstring)"
    )
    assert exit_timesteps == GOLDEN_EXIT_TIMESTEPS, (
        "exit timesteps drifted from the golden values — the entropy trajectory "
        "of the trained model changed"
    )
    histogram = np.bincount(exit_timesteps, minlength=5)[1:].tolist()
    assert histogram == GOLDEN_EXIT_HISTOGRAM
    assert accuracy == pytest.approx(GOLDEN_ACCURACY, abs=0.0)


def test_golden_cumulative_logits_bitwise_pinned(trained_model, tiny_dataset):
    """The exact float32 logit bits are pinned, on both execution paths.

    Platform scope: bit-exact GEMM results depend on the BLAS backend's
    reduction order, so these pins are bound to the CI reference platform
    (x86-64 Linux, pip NumPy/OpenBLAS).  On a different backend (e.g. Apple
    Accelerate, MKL) a last-ulp mismatch here is expected and does not
    indicate a regression — regenerate locally to compare, and trust the
    platform-independent discrete goldens and path-vs-path equivalence
    sweeps instead.

    To regenerate after an intentional numeric change: run the trained_model
    fixture's forward on ``test.inputs[:2]`` over 4 timesteps and paste
    ``repr(float(v))`` of sample 0's cumulative logits at t=1 and t=4.
    """
    from repro.autograd import no_grad
    from repro.runtime import executor_for, run_cumulative_logits

    _, test = tiny_dataset
    model = trained_model
    was_training = model.training
    model.eval()
    try:
        x = test.inputs[:2]
        with no_grad():
            reference = model.forward(x, 4).cumulative_numpy()
        fast = run_cumulative_logits(model, executor_for(model, True), x, 4)
    finally:
        model.train(was_training)

    assert str(reference.dtype) == GOLDEN_LOGITS_DTYPE
    assert np.array_equal(reference, fast), "fast path diverged from the oracle"
    expected_t1 = np.array(GOLDEN_LOGITS_T1_SAMPLE0, dtype=np.float32)
    expected_t4 = np.array(GOLDEN_LOGITS_T4_SAMPLE0, dtype=np.float32)
    assert np.array_equal(reference[0, 0], expected_t1), (
        "t=1 cumulative logits drifted at the bit level — if this PR changed "
        "numerics deliberately, regenerate the constants (see docstring)"
    )
    assert np.array_equal(reference[3, 0], expected_t4), (
        "t=4 cumulative logits drifted at the bit level — if this PR changed "
        "numerics deliberately, regenerate the constants (see docstring)"
    )


def test_golden_stream_identical_on_reference_path(trained_model, tiny_dataset):
    """The pinned values hold on the Tensor oracle too — path-independence is
    part of what is being pinned."""
    _, test = tiny_dataset
    predictions, exit_timesteps, _ = _run_golden_stream(
        trained_model, test, use_runtime=False
    )
    assert predictions == GOLDEN_PREDICTIONS
    assert exit_timesteps == GOLDEN_EXIT_TIMESTEPS
