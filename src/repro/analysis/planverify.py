"""Abstract interpretation over a :class:`CompiledPlan` — the plan-IR verifier.

The flat register IR behind every fast-path inference is produced by
``repro.runtime.plan.compile_network`` and consumed by ``PlanExecutor`` —
and, per the ROADMAP, eventually by a native executor where a malformed
plan becomes a segfault instead of a Python exception.  :func:`verify_plan`
proves the contracts the executor silently depends on *at compile time*:

**Register discipline (SSA).**  Register 0 is the input frame and is never
written; every other register is written exactly once, before any read; the
output register is written; every index is in ``[0, num_registers)``.

**Shape propagation.**  Symbolic ``(C, H, W)`` shapes (batch elided, unknown
dims ``None``) flow through ``ConvOp/FoldedConvNormOp → LIFOp →
pool → LinearOp → AddOp`` and are checked against each op's stored
constants: conv weight geometry vs the module's kernel/stride/padding,
linear fan-in vs the flattened width, residual-add operand compatibility.  Passing ``input_shape`` makes the
spatial dims concrete; without it, channel/feature bookkeeping is still
exact (convs pin the channel count) and spatial checks degrade gracefully.

**Dtype propagation.**  The stack is weak-scalar float32
(docs/NUMERICS.md) and the verifier proves the whole plan float32-closed:
every stored constant and every lowered scalar must be float32.  Register 0
is float32 (every encoder emits it) and every op keeps its input's dtype
next to float32 constants, so every register is float32 by induction.

**Stem/liveness metadata.**  ``stem_len``, ``stem_registers`` and
``output_needs_copy`` are recomputed from the op list and compared — these
drive the executor's stem-skip restore and output aliasing, so a doctored
value silently corrupts results.  The liveness half: any register read
*after* the stem must be written after the stem, be a stem register, or be
the input — otherwise a cached-stem replay would read a register nobody
restored.

**Fold invariants.**  Folded conv+norm ops are forbidden under training
mode and on instrumented modules (instance-level ``forward`` overrides) —
the same gates the Tensor path applies in
:func:`repro.snn.architectures._conv_norm_forward`.

**Gather indices.**  The one derived constant that exists only once an
input geometry is known — a window op's im2col gather index — is checked
by :func:`verify_gather_index` where it is built (once per op and input
geometry, never per step): range, length, and agreement with
``autograd.ops.im2col`` on a probe laid out channels-last, like every
buffer a window op gathers from.  That proof is what lets the kernels
gather with a non-raising ``np.take`` mode, i.e. without a per-step bounds
check.

Violations raise :class:`PlanVerificationError` carrying the op index, the
register, and the expected-vs-found shape/dtype.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..autograd.ops import conv_output_size, im2col
from ..runtime.plan import (
    AddOp,
    AdaptiveAvgPoolOp,
    AvgPoolOp,
    CompiledPlan,
    ConvOp,
    FlattenOp,
    FoldedConvNormOp,
    LIFOp,
    LinearOp,
    MaxPoolOp,
    PlanOp,
    ReLUOp,
)

__all__ = ["PlanVerificationError", "verify_plan", "verify_gather_index"]

_FLOAT32 = np.dtype(np.float32)

# A register's abstract shape: ("chw", C, H, W) for feature maps or
# ("flat", F) for flattened rows; dims are ints or None (unknown).  The
# batch axis is elided — it is symbolic through the whole plan.
Shape = Tuple


class PlanVerificationError(RuntimeError):
    """A :class:`CompiledPlan` violates an IR contract.

    Carries the location and the expected-vs-found evidence so callers (and
    CI logs) can point at the exact op without re-deriving the walk.
    """

    def __init__(
        self,
        message: str,
        *,
        op_index: Optional[int] = None,
        register: Optional[int] = None,
        expected: Optional[object] = None,
        found: Optional[object] = None,
    ):
        self.op_index = op_index
        self.register = register
        self.expected = expected
        self.found = found
        parts = []
        if op_index is not None:
            parts.append(f"op[{op_index}]")
        if register is not None:
            parts.append(f"r{register}")
        prefix = " ".join(parts)
        detail = message if not prefix else f"{prefix}: {message}"
        if expected is not None or found is not None:
            detail += f" (expected {expected!r}, found {found!r})"
        super().__init__(f"plan verification failed: {detail}")


def _fmt_shape(shape: Optional[Shape]) -> str:
    if shape is None:
        return "<unknown>"
    if shape[0] == "flat":
        return f"(N, {shape[1] if shape[1] is not None else '?'})"
    dims = ", ".join("?" if d is None else str(d) for d in shape[1:])
    return f"(N, {dims})"


def _merge_dims(a: Optional[int], b: Optional[int]) -> Optional[int]:
    return a if b is None else b


def _check_constant_dtype(array: np.ndarray, what: str, index: int) -> None:
    dtype = np.asarray(array).dtype
    if dtype != _FLOAT32:
        raise PlanVerificationError(
            f"{what} violates the weak-scalar float32 policy",
            op_index=index, expected="float32", found=str(dtype),
        )


class _Interp:
    """One pass of abstract interpretation; raises on the first violation."""

    def __init__(self, plan: CompiledPlan, input_shape: Optional[Sequence[int]]):
        self.plan = plan
        if input_shape is None:
            frame: Shape = ("chw", None, None, None)
        else:
            if len(input_shape) != 3:
                raise ValueError(
                    "input_shape must be (channels, height, width) without "
                    f"the batch axis, got {tuple(input_shape)!r}"
                )
            frame = ("chw",) + tuple(int(d) for d in input_shape)
        # Register 0 is the input frame, encoded float32 by every encoder.
        self.shapes = {0: frame}
        self.written_at = {0: -1}

    # ------------------------------------------------------------------ #
    # SSA discipline
    # ------------------------------------------------------------------ #
    def check_registers(self, index: int, op: PlanOp) -> None:
        plan = self.plan
        reads = op.reads
        for register in (*reads, op.dst):
            if not isinstance(register, int) or not (
                0 <= register < plan.num_registers
            ):
                raise PlanVerificationError(
                    "register index out of range",
                    op_index=index, register=register,
                    expected=f"0..{plan.num_registers - 1}", found=register,
                )
        if op.dst == 0:
            raise PlanVerificationError(
                "register 0 is the input frame and must never be written",
                op_index=index, register=0,
            )
        for register in reads:
            if register not in self.written_at:
                raise PlanVerificationError(
                    "read of a register no prior op has written "
                    "(read-before-write breaks single assignment)",
                    op_index=index, register=register,
                )
        if op.dst in self.written_at:
            raise PlanVerificationError(
                "register written twice (single-assignment violation; "
                f"first write at op[{self.written_at[op.dst]}])",
                op_index=index, register=op.dst,
            )

    # ------------------------------------------------------------------ #
    # Per-op transfer functions: constants and shape
    # ------------------------------------------------------------------ #
    def _require_chw(self, index: int, op: PlanOp) -> Shape:
        shape = self.shapes[op.src]
        if shape[0] != "chw":
            raise PlanVerificationError(
                f"{type(op).__name__} needs a 4-D feature map input",
                op_index=index, register=op.src,
                expected="(N, C, H, W)", found=_fmt_shape(shape),
            )
        return shape

    def _conv_like(
        self, index: int, op: PlanOp, weight: np.ndarray,
        bias: Optional[np.ndarray], conv_module,
    ) -> Shape:
        shape = self._require_chw(index, op)
        if weight.ndim != 4:
            raise PlanVerificationError(
                "conv weight must be 4-D (out, in, kh, kw)",
                op_index=index, expected=4, found=weight.ndim,
            )
        out_channels, in_channels, kh, kw = weight.shape
        kernel = conv_module.kernel_size
        if kh != kernel or kw != kernel:
            raise PlanVerificationError(
                "conv weight window disagrees with the module's kernel_size",
                op_index=index, expected=(kernel, kernel), found=(kh, kw),
            )
        if shape[1] is not None and shape[1] != in_channels:
            raise PlanVerificationError(
                "conv input channels disagree with the weight fan-in",
                op_index=index, register=op.src,
                expected=in_channels, found=shape[1],
            )
        if bias is not None and bias.shape != (out_channels,):
            raise PlanVerificationError(
                "conv bias shape disagrees with the weight fan-out",
                op_index=index, expected=(out_channels,), found=bias.shape,
            )
        _check_constant_dtype(weight, "conv weight", index)
        if bias is not None:
            _check_constant_dtype(bias, "conv bias", index)
        stride, padding = conv_module.stride, conv_module.padding

        def spatial(size: Optional[int]) -> Optional[int]:
            if size is None:
                return None
            try:
                return conv_output_size(size, kernel, stride, padding)
            except ValueError as error:
                raise PlanVerificationError(
                    str(error), op_index=index, register=op.src,
                ) from None

        return ("chw", out_channels, spatial(shape[2]), spatial(shape[3]))

    def _pool(self, index: int, op: PlanOp, kernel: int, stride: int) -> Shape:
        shape = self._require_chw(index, op)

        def spatial(size: Optional[int]) -> Optional[int]:
            if size is None:
                return None
            try:
                return conv_output_size(size, kernel, stride, 0)
            except ValueError as error:
                raise PlanVerificationError(
                    str(error), op_index=index, register=op.src,
                ) from None

        return ("chw", shape[1], spatial(shape[2]), spatial(shape[3]))

    def transfer(self, index: int, op: PlanOp) -> Shape:
        """Output shape of ``op``; raises on any contract breach."""
        handler = _TRANSFER.get(type(op))
        if handler is None:
            # Subclasses of known op types resolve once and are memoized.
            for op_type, candidate in list(_TRANSFER.items()):
                if isinstance(op, op_type):
                    handler = _TRANSFER[type(op)] = candidate
                    break
            else:
                raise PlanVerificationError(
                    f"unknown op type {type(op).__name__}", op_index=index
                )
        return handler(self, index, op)

    def _t_conv(self, index: int, op: ConvOp) -> Shape:
        module = op.module
        bias = None if module.bias is None else np.asarray(module.bias.data)
        shape = self._conv_like(
            index, op, np.asarray(module.weight.data), bias, module
        )
        return shape

    def _t_fold(self, index: int, op: FoldedConvNormOp) -> Shape:
        self._check_fold_gates(index, op)
        weight, bias = op.folded.arrays()
        shape = self._conv_like(
            index, op, np.asarray(weight), np.asarray(bias), op.conv
        )
        return shape

    def _t_lif(self, index: int, op: LIFOp) -> Shape:
        module = op.module
        for attr in ("tau", "v_threshold", "reset"):
            if not hasattr(module, attr):
                raise PlanVerificationError(
                    f"LIF module is missing {attr!r}", op_index=index
                )
        # The scalars are materialized at lowering and never revisited; a
        # float64 one would promote the membrane (and hence the spikes).
        for attr in ("tau", "v_th_scalar"):
            _check_constant_dtype(getattr(op, attr), f"LIF constant {attr!r}", index)
        return self.shapes[op.src]

    def _t_pool(self, index: int, op: PlanOp) -> Shape:
        shape = self._pool(index, op, op.kernel, op.stride)
        return shape

    def _t_adaptive(
        self, index: int, op: AdaptiveAvgPoolOp
    ) -> Shape:
        shape = self._require_chw(index, op)
        target = int(op.output_size)
        height, width = shape[2], shape[3]
        for size in (height, width):
            if size is not None and (size < target or size % target):
                raise PlanVerificationError(
                    "adaptive pool needs spatial dims divisible by its "
                    "output size",
                    op_index=index, register=op.src,
                    expected=f"multiple of {target}", found=size,
                )
        # functional.adaptive_avg_pool2d sizes a square window from the
        # height, so a non-square map keeps its aspect ratio.
        out_width = None if None in (height, width) else width // (height // target)
        return ("chw", shape[1], target, out_width)

    def _t_flatten(self, index: int, op: FlattenOp) -> Shape:
        shape = self.shapes[op.src]
        if shape[0] == "flat":
            return shape
        dims = shape[1:]
        width = None
        if all(d is not None for d in dims):
            width = int(np.prod([int(d) for d in dims]))
        return ("flat", width)

    def _t_relu(self, index: int, op: ReLUOp) -> Shape:
        return self.shapes[op.src]

    def _linear(self, index: int, op: LinearOp) -> Shape:
        shape = self.shapes[op.src]
        if shape[0] != "flat":
            raise PlanVerificationError(
                "LinearOp needs a flattened (N, F) input — insert FlattenOp",
                op_index=index, register=op.src,
                expected="(N, F)", found=_fmt_shape(shape),
            )
        module = op.module
        weight = np.asarray(module.weight.data)
        if weight.ndim != 2:
            raise PlanVerificationError(
                "linear weight must be 2-D (out, in)",
                op_index=index, expected=2, found=weight.ndim,
            )
        out_features, in_features = weight.shape
        if shape[1] is not None and shape[1] != in_features:
            raise PlanVerificationError(
                "linear fan-in disagrees with the flattened width",
                op_index=index, register=op.src,
                expected=in_features, found=shape[1],
            )
        _check_constant_dtype(weight, "linear weight", index)
        if module.bias is not None:
            bias = np.asarray(module.bias.data)
            if bias.shape != (out_features,):
                raise PlanVerificationError(
                    "linear bias shape disagrees with the fan-out",
                    op_index=index, expected=(out_features,), found=bias.shape,
                )
            _check_constant_dtype(bias, "linear bias", index)
        return ("flat", out_features)

    def _add(self, index: int, op: AddOp) -> Shape:
        left, right = self.shapes[op.src], self.shapes[op.src2]
        if left[0] != right[0]:
            raise PlanVerificationError(
                "residual add of a feature map and a flattened row",
                op_index=index, register=op.src2,
                expected=_fmt_shape(left), found=_fmt_shape(right),
            )
        merged: List[Optional[int]] = [None] * (len(left) - 1)
        for axis, (a, b) in enumerate(zip(left[1:], right[1:])):
            if a is not None and b is not None and a != b:
                raise PlanVerificationError(
                    "residual-add operand shapes are incompatible",
                    op_index=index, register=op.src2,
                    expected=_fmt_shape(left), found=_fmt_shape(right),
                )
            merged[axis] = _merge_dims(a, b)
        return (left[0], *merged)

    # ------------------------------------------------------------------ #
    # Gates for folded ops
    # ------------------------------------------------------------------ #
    def _check_fold_gates(self, index: int, op: FoldedConvNormOp) -> None:
        model = self.plan.model
        if model is not None and getattr(model, "training", False):
            raise PlanVerificationError(
                "folded conv+norm op while the source model is in training "
                "mode — folding is frozen-inference only",
                op_index=index,
            )
        conv, norm = op.conv, op.folded.norm
        if "forward" in conv.__dict__ or "forward" in norm.__dict__:
            raise PlanVerificationError(
                "folded conv+norm op over instrumented modules (instance "
                "forward override) — instrumentation must see unfused ops",
                op_index=index,
            )

    # ------------------------------------------------------------------ #
    def record(self, op: PlanOp, index: int, shape: Shape) -> None:
        self.shapes[op.dst] = shape
        self.written_at[op.dst] = index


# Exact-type transfer dispatch: the op set is closed and the verifier runs on
# every compile, so a dict lookup beats a ten-way isinstance chain.
_TRANSFER = {
    ConvOp: _Interp._t_conv,
    FoldedConvNormOp: _Interp._t_fold,
    LIFOp: _Interp._t_lif,
    AvgPoolOp: _Interp._t_pool,
    MaxPoolOp: _Interp._t_pool,
    AdaptiveAvgPoolOp: _Interp._t_adaptive,
    FlattenOp: _Interp._t_flatten,
    LinearOp: _Interp._linear,
    ReLUOp: _Interp._t_relu,
    AddOp: _Interp._add,
}


def _check_stem_metadata(plan: CompiledPlan) -> None:
    ops = plan.ops
    # Liveness across the stem boundary, against the *stored* metadata (the
    # values the executor actually uses): a cached-stem replay restores only
    # plan.stem_registers (plus the input frame), so any other cross-boundary
    # read would hit a register nobody restored.
    stored_len = plan.stem_len
    restorable = set(plan.stem_registers)
    written_after = set()
    for offset, op in enumerate(ops[stored_len:]):
        for register in op.reads:
            if register == 0 or register in restorable or register in written_after:
                continue
            raise PlanVerificationError(
                "post-stem read of a register the stem replay does not "
                "restore (scratch-liveness violation)",
                op_index=stored_len + offset, register=register,
            )
        written_after.add(op.dst)
    # Canonical-lowering agreement: recompute the stem metadata from the op
    # list and require an exact match.
    stem_len = next((i for i, op in enumerate(ops) if op.is_stateful), 0)
    if plan.stem_len != stem_len:
        raise PlanVerificationError(
            "stem_len disagrees with the first stateful op",
            expected=stem_len, found=plan.stem_len,
        )
    written = {op.dst for op in ops[:stem_len]}
    read_later = {r for op in ops[stem_len:] for r in op.reads}
    stem_registers = tuple(sorted(written & read_later))
    if tuple(plan.stem_registers) != stem_registers:
        raise PlanVerificationError(
            "stem_registers disagree with the stem's live-out set",
            expected=stem_registers, found=tuple(plan.stem_registers),
        )
    producer = next(
        (op for op in reversed(ops) if op.dst == plan.output_register), None
    )
    needs_copy = not isinstance(producer, LinearOp)
    if bool(plan.output_needs_copy) != needs_copy:
        raise PlanVerificationError(
            "output_needs_copy disagrees with the output producer "
            f"({type(producer).__name__ if producer else 'input frame'})",
            register=plan.output_register,
            expected=needs_copy, found=bool(plan.output_needs_copy),
        )


def _check_lif_bookkeeping(plan: CompiledPlan) -> None:
    lif_ops = [
        (index, op) for index, op in enumerate(plan.ops) if isinstance(op, LIFOp)
    ]
    if plan.num_lif != len(lif_ops):
        raise PlanVerificationError(
            "num_lif disagrees with the number of LIF ops",
            expected=len(lif_ops), found=plan.num_lif,
        )
    seen = {}
    for index, op in lif_ops:
        state_index = op.state_index
        if not (0 <= state_index < plan.num_lif):
            raise PlanVerificationError(
                "LIF state_index out of range",
                op_index=index, expected=f"0..{plan.num_lif - 1}",
                found=state_index,
            )
        if state_index in seen:
            raise PlanVerificationError(
                "two LIF ops share one membrane state slot "
                f"(also used by op[{seen[state_index]}])",
                op_index=index, found=state_index,
            )
        seen[state_index] = index


def verify_plan(
    plan: CompiledPlan, input_shape: Optional[Sequence[int]] = None
) -> CompiledPlan:
    """Verify every IR contract of ``plan``; returns the plan for chaining.

    ``input_shape`` is the optional concrete ``(channels, height, width)``
    of the encoded input frame (no batch axis).  With it, spatial shape
    propagation is exact end to end; without it, channel/feature/dtype/SSA
    checking still runs in full (the compile-time invocation inside
    ``compile_network`` has no sample in hand and passes ``None``).

    Raises :class:`PlanVerificationError` on the first violation.  Cost is
    O(#ops) with no array math — per-compile, never per-step.
    """
    if plan.num_registers < 1:
        raise PlanVerificationError(
            "plan needs at least the input register",
            expected=">= 1", found=plan.num_registers,
        )
    if not (0 <= plan.output_register < plan.num_registers):
        raise PlanVerificationError(
            "output register out of range",
            register=plan.output_register,
            expected=f"0..{plan.num_registers - 1}", found=plan.output_register,
        )
    interp = _Interp(plan, input_shape)
    for index, op in enumerate(plan.ops):
        interp.check_registers(index, op)
        interp.record(op, index, interp.transfer(index, op))
    if plan.output_register not in interp.written_at:
        raise PlanVerificationError(
            "output register is never written",
            register=plan.output_register,
        )
    _check_lif_bookkeeping(plan)
    _check_stem_metadata(plan)
    return plan


def verify_gather_index(
    index: np.ndarray,
    input_shape: Sequence[int],
    kernel: int,
    stride: int,
    padding: int,
    op: Optional[PlanOp] = None,
) -> np.ndarray:
    """Verify an im2col gather index against its geometry; returns it.

    ``index`` addresses one zero-padded channels-last ``(H + 2p, W + 2p, C)``
    sample, flattened — the layout of every source buffer a window op
    gathers from (:func:`repro.runtime.kernels.gather_index`).
    ``input_shape`` is the logical ``(C, H, W)``.  The index must hold
    ``out_h * out_w * C * kernel**2`` entries, each inside the padded
    sample, and gathering from a probe whose every element is distinct,
    laid out channels-last, must reproduce ``autograd.ops.im2col`` of the
    channels-first probe exactly.  The kernels
    then gather with a non-raising ``np.take`` mode, which would silently
    redirect a bad entry — so this runs wherever an index is built (per op
    and input geometry, not per step), and a failure names ``op``.
    """
    channels, height, width = (int(d) for d in input_shape)
    where = "gather index" if op is None else f"gather index of {op.describe()}"
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    expected = out_h * out_w * channels * kernel * kernel
    if index.ndim != 1 or index.dtype != np.intp or index.size != expected:
        raise PlanVerificationError(
            f"{where} is not a flat intp vector of out_h*out_w*C*k*k entries",
            expected=(expected, "intp"), found=(index.shape, str(index.dtype)),
        )
    padded = channels * (height + 2 * padding) * (width + 2 * padding)
    if index.size and not (0 <= index.min() and index.max() < padded):
        raise PlanVerificationError(
            f"{where} addresses outside the padded sample",
            expected=f"0..{padded - 1}",
            found=(int(index.min()), int(index.max())),
        )
    # Distinct, non-zero values: a wrong source position cannot hide behind
    # an equal value, nor behind the zero padding.
    probe = np.arange(1, channels * height * width + 1, dtype=np.intp)
    probe = probe.reshape(1, channels, height, width)
    reference, _, _ = im2col(probe, kernel, stride, padding)
    border = ((0, 0), (padding, padding), (padding, padding), (0, 0))
    gathered = np.pad(probe.transpose(0, 2, 3, 1), border).reshape(-1)[index]
    if not np.array_equal(gathered, reference.reshape(-1)):
        mismatch = int(np.flatnonzero(gathered != reference.reshape(-1))[0])
        raise PlanVerificationError(
            f"{where} disagrees with autograd.ops.im2col at entry {mismatch}",
            expected=int(reference.reshape(-1)[mismatch]),
            found=int(gathered[mismatch]),
        )
    return index
