"""Single-pass exit decisions: one ``score`` evaluation per step, same bits.

The serving engine evaluates ``policy.score`` once per timestep and derives
both the exit mask (compared against a per-row threshold *array*) and the
recorded score from it.  These properties pin that this is bit-for-bit the
two-call form it replaced — ``should_exit`` for the mask, then ``score`` on
the exiting rows — for every registered policy, for live and epoch-pinned
thresholds, and under per-request horizon caps.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.policies import EXIT_POLICIES, build_policy
from repro.serve import InferenceEngine, Request, Response, ThresholdEpoch
from repro.snn import spiking_vgg
from repro.utils import seed_everything

POLICY_NAMES = sorted(EXIT_POLICIES.names())
TIMESTEPS = 4
NUM_CLASSES = 6
IMAGE_SIZE = 10

thresholds = st.floats(0.05, 0.95)


def _policy(name, threshold):
    return build_policy(name) if name == "static" else build_policy(name, threshold=threshold)


def test_every_registered_policy_is_covered():
    assert POLICY_NAMES == ["confidence", "entropy", "margin", "static"]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(POLICY_NAMES),
    arrays(np.float32, (8, 5),
           elements=st.floats(-12, 12, allow_nan=False, allow_infinity=False, width=32)),
    thresholds,
    st.lists(st.integers(0, 7), unique=True, min_size=1, max_size=8),
)
def test_mask_and_row_scores_from_one_evaluation(name, cumulative, threshold, rows):
    policy = _policy(name, threshold)
    scores = np.asarray(policy.score(cumulative))
    # The engine's comparison: a threshold array in the score dtype.
    per_row = np.full(cumulative.shape[0], threshold).astype(scores.dtype, copy=False)
    if policy.exit_when == "below":
        assert np.array_equal(scores < per_row, policy.should_exit(cumulative))
    elif policy.exit_when == "above":
        assert np.array_equal(scores > per_row, policy.should_exit(cumulative))
    else:
        assert not policy.should_exit(cumulative).any()
    # Scoring is per row: the whole-batch evaluation restricted to any rows
    # is the evaluation of just those rows, bit for bit.
    rows = np.array(rows)
    assert np.array_equal(scores[rows], np.asarray(policy.score(cumulative[rows])))


# --------------------------------------------------------------------------- #
_MODEL = None


def _model():
    global _MODEL
    if _MODEL is None:
        seed_everything(47)
        _MODEL = spiking_vgg(
            "tiny", num_classes=NUM_CLASSES, input_size=IMAGE_SIZE,
            default_timesteps=TIMESTEPS,
        ).eval()
        for parameter in _MODEL.classifier.parameters():
            parameter.data = parameter.data * np.float32(25.0)
    return _MODEL


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(POLICY_NAMES),
    st.integers(0, 2**16),
    thresholds,
    st.lists(
        st.tuples(st.one_of(st.none(), thresholds),
                  st.one_of(st.none(), st.integers(1, TIMESTEPS + 2))),
        min_size=1, max_size=8,
    ),
    st.integers(0, 8),
)
def test_engine_decides_once_per_step_like_the_two_call_form(
    name, seed, live, knobs, first_burst
):
    """Every step's completions equal the two-call form evaluated on the
    very logits the engine scored: ``should_exit`` of a policy whose live
    threshold is the row's effective one, then ``score`` on the exit rows."""
    policy = _policy(name, live)
    scored = []
    score = policy.score
    policy.score = lambda logits: scored.append(logits.copy()) or score(logits)
    engine = InferenceEngine(_model(), policy, max_timesteps=TIMESTEPS, use_runtime=True)
    inputs = np.random.default_rng(seed).random(
        (len(knobs), 3, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
    admissions = [
        (Request(
            request_id=index, inputs=inputs[index],
            epoch=(None if pin is None and cap is None
                   else ThresholdEpoch(epoch=index, threshold=pin, horizon=cap)),
        ), Response(), 0.0)
        for index, (pin, cap) in enumerate(knobs)
    ]
    live_ids, elapsed = [], [0] * len(knobs)
    # The engine's row rule, mirrored: a retired row stays where it is, free
    # (None); an admission round takes the free rows in ascending order and
    # appends the rest; rows still free when a step starts are closed first,
    # order preserved.
    slot_rows = []

    def effective(index):
        pin, cap = knobs[index]
        threshold = pin if pin is not None else (None if name == "static" else live)
        return threshold, TIMESTEPS if cap is None else min(TIMESTEPS, cap)

    def admit(round_):
        engine.admit_batch(round_)
        live_ids.extend(request.request_id for request, _, _ in round_)
        free = [row for row, index in enumerate(slot_rows) if index is None]
        for row, (request, _, _) in zip(free, round_):
            slot_rows[row] = request.request_id
        slot_rows.extend(request.request_id for request, _, _ in round_[len(free):])

    def step():
        slot_rows[:] = [index for index in slot_rows if index is not None]
        rows = list(slot_rows)  # slot order: the row rule above
        completed = {s.request.request_id: s for s in engine.step()}
        if not rows:
            assert not completed
            return
        cumulative = scored[-1]
        assert cumulative.shape[0] == len(rows)
        exits = []
        for row, index in enumerate(rows):
            elapsed[index] += 1
            threshold, horizon = effective(index)
            two_call = _policy(name, live if threshold is None else threshold)
            if two_call.should_exit(cumulative[row:row + 1])[0] or elapsed[index] >= horizon:
                exits.append((row, index))
        assert sorted(completed) == sorted(index for _, index in exits)
        exit_rows = [row for row, _ in exits]
        exit_scores = np.asarray(_policy(name, live).score(cumulative[exit_rows]))
        for (row, index), expected_score in zip(exits, exit_scores.tolist()):
            sample = completed[index]
            threshold, horizon = effective(index)
            assert sample.prediction == int(np.argmax(cumulative[row]))
            assert sample.exit_timestep == elapsed[index]
            assert sample.score == expected_score  # bitwise
            assert sample.threshold == threshold
            assert sample.horizon == horizon
            live_ids.remove(index)
            slot_rows[slot_rows.index(index)] = None

    # Two admission rounds, the second landing mid-horizon.
    admit(admissions[:first_burst])
    step()
    admit(admissions[first_burst:])
    while not engine.idle:
        step()
    assert not live_ids
    assert len(scored) == engine.total_steps  # one score() per step()
