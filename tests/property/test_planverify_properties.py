"""Property tests: every supported model configuration verifies cleanly.

Two layers of coverage:

* an exhaustive sweep over (family, norm, encoder) — the
  combinations the paper's pipelines actually instantiate — asserting that
  ``compile_network`` (which runs :func:`verify_plan` internally) produces
  a plan that also verifies against the concrete input shape;
* a Hypothesis property randomizing the continuous knobs (input size,
  width multiplier, class count) on top of sampled discrete ones.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.planverify import verify_plan
from repro.runtime import compile_network
from repro.snn import spiking_resnet, spiking_vgg
from repro.snn.encoding import DirectEncoder, EventFrameEncoder, PoissonEncoder
from repro.utils import seed_everything

_BUILDERS = {"vgg": spiking_vgg, "resnet": spiking_resnet}
_ENCODERS = {
    "direct": DirectEncoder,
    "poisson": PoissonEncoder,
    "event": EventFrameEncoder,
}


def _compile_and_verify(family, norm, encoder, input_size=8, **kwargs):
    seed_everything(17)
    model = _BUILDERS[family](
        "tiny",
        input_size=input_size,
        norm=norm,
        encoder=_ENCODERS[encoder](),
        **kwargs,
    )
    plan = compile_network(model.eval())
    assert verify_plan(plan, input_shape=(3, input_size, input_size)) is plan
    return plan


@pytest.mark.parametrize("encoder", sorted(_ENCODERS))
@pytest.mark.parametrize("norm", ["bn", "tdbn", "none"])
@pytest.mark.parametrize("family", sorted(_BUILDERS))
def test_every_supported_combo_verifies_clean(family, norm, encoder):
    _compile_and_verify(family, norm, encoder)


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(sorted(_BUILDERS)),
    norm=st.sampled_from(["bn", "tdbn", "none"]),
    encoder=st.sampled_from(sorted(_ENCODERS)),
    input_size=st.sampled_from([8, 9, 10, 12, 16]),
    width_multiplier=st.sampled_from([0.5, 1.0, 1.5]),
    num_classes=st.integers(min_value=2, max_value=12),
)
def test_randomized_geometry_verifies_clean(
    family, norm, encoder, input_size, width_multiplier, num_classes
):
    _compile_and_verify(
        family,
        norm,
        encoder,
        input_size=input_size,
        num_classes=num_classes,
        width_multiplier=width_multiplier,
    )
