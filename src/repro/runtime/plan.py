"""Lowering a trained :class:`SpikingNetwork` into a flat inference plan.

The define-by-run path re-discovers the network structure every timestep by
walking Python objects and recording an autograd graph.  For inference the
structure never changes, so :func:`compile_network` walks it *once* and emits
a flat list of ops in execution order — a tiny register-based IR.  Each op
reads one (or two) virtual registers and writes one; the executor then runs
the list with no Module dispatch, no Tensor wrappers and no graph.

The plan also records the *stem*: the prefix of ops before the first LIF
layer.  Those ops are stateless functions of the input frame, so under a
deterministic constant encoder (the paper's direct encoding) their output is
identical at every timestep and can be computed once per input and replayed
— the "im2col patches cached per input" optimization, taken to its fixed
point (the whole pre-spike prefix is cached, not just the patches).

Ops capture live references to :class:`Parameter` objects and norm modules,
not copies of their arrays, so a plan survives ``load_state_dict`` and
in-place optimizer updates; the folded conv+norm weights are cached and
refresh automatically when a source parameter/buffer array object is
replaced.

Inside :class:`~repro.snn.architectures.ConvSpikeBlock` and
``SpikingResidualBlock``, the conv→norm pair lowers to a *single* GEMM with
the norm folded into the weights (:mod:`repro.snn.folding`) — the same
folded arrays the Tensor path consumes during frozen inference, which is
what keeps the two paths bitwise-identical.  There is no unfused norm op: a
norm layer placed outside such a pair does not lower.

Plans are **immutable after lowering** and shared: the process-wide
:data:`plan_registry` hands every consumer of a model instance — including N
multi-worker serve replicas on N threads — the same :class:`CompiledPlan`,
while all mutable session state lives in each
:class:`~repro.runtime.PlanExecutor`.  For time-varying deterministic
encoders (event streams) the plan also owns a shared content-keyed
:class:`StemCache` memoizing stem outputs by exact frame bytes, so replayed
DVS clips skip the stem on every replica.

Anything the lowerer does not recognize raises
:exc:`UnsupportedModuleError`; callers treat that as "use the Tensor oracle",
so exotic models silently keep working at define-by-run speed.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.lockorder import named_lock
from ..autograd.dtypes import scalar_operand
from ..nn.layers import (
    AdaptiveAvgPool2d,
    AvgPool2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
)
from ..nn.module import Identity, Module, Sequential
from ..snn.architectures import ConvSpikeBlock, SpikingResidualBlock
from ..snn.network import SpikingNetwork
from ..snn.neurons import LIFNeuron
from . import kernels

__all__ = [
    "UnsupportedModuleError",
    "PlanOp",
    "CompiledPlan",
    "StemCache",
    "STEM_CACHE_CAPACITY",
    "PlanRegistry",
    "plan_registry",
    "compile_network",
]


class UnsupportedModuleError(RuntimeError):
    """The model contains a module the fast path cannot lower."""


#: Entries in a plan's stem memo (:class:`StemCache`).  One entry holds one
#: frame's stem output rows (conv1 output, e.g. 256 KB for a 64x32x32 float32
#: map) plus its key, so a large-model memo is bounded at a few hundred MB.
STEM_CACHE_CAPACITY = 1024


# --------------------------------------------------------------------------- #
# Op IR
# --------------------------------------------------------------------------- #
class PlanOp:
    """Base class: read ``src`` (and maybe ``src2``), write ``dst``.

    Ops are *immutable* after lowering: a plan is shared read-only between
    every executor built on it (multi-engine serving runs one plan under N
    worker threads), so all per-session knobs — scratch buffers, membrane
    state, the ``stats`` statistics toggle — travel through :meth:`run`'s
    arguments instead of op attributes.

    Every register an op writes holds channels-last ``(N, H, W, C)`` maps;
    ops read the request frame in register 0 through a channels-last view.

    :meth:`run` is *bind once, replay* (:mod:`repro.runtime.kernels`): it
    looks the binding for its input's shape up in ``scratch`` (a
    :class:`~repro.runtime.kernels.Scratch`), rebinds when there is none or
    when a live array the binding captured — a weight, a norm statistic,
    the input buffer a pool holds taps of — is no longer the same object,
    and replays the bound kernel.
    """

    __slots__ = ("src", "dst")

    def __init__(self, src: int, dst: int):
        self.src = src
        self.dst = dst

    @property
    def reads(self) -> Tuple[int, ...]:
        return (self.src,)

    @property
    def is_stateful(self) -> bool:
        return False

    def run(self, regs: List[np.ndarray], scratch, state, stats: bool = True) -> None:
        raise NotImplementedError

    def describe(self) -> str:
        return f"{type(self).__name__}(r{self.src} -> r{self.dst})"


class _WindowOp(PlanOp):
    """An op that unrolls input patches (conv, large-window pooling).

    It owns the im2col gather index of the input geometry it last ran on
    (:func:`repro.runtime.kernels.gather_index`): a derived constant —
    built once per geometry, checked where it is built (:func:`repro.analysis.planverify.verify_gather_index`),
    independent of the batch width and shared by every executor of the plan.
    """

    __slots__ = ("_gather",)

    def __init__(self, src: int, dst: int):
        super().__init__(src, dst)
        self._gather: Optional[Tuple[tuple, np.ndarray]] = None

    def _gather_index(self, x: np.ndarray, kernel: int, stride: int,
                      padding: int) -> np.ndarray:
        height, width, channels = x.shape[1:]
        geometry = ((channels, height, width), kernel, stride, padding)
        cached = self._gather
        if cached is None or cached[0] != geometry:
            from ..analysis.planverify import verify_gather_index

            index = kernels.gather_index(channels, height, width, kernel, stride, padding)
            verify_gather_index(index, *geometry, op=self)
            cached = self._gather = (geometry, index)
        return cached[1]

    def _conv(self, regs, scratch, conv: Conv2d, weight: np.ndarray,
              bias: Optional[np.ndarray]) -> None:
        x = regs[self.src]
        bound = scratch.bindings.get(x.shape)
        if (
            bound is None
            or bound.weight is not weight
            or bound.bias is not bias
            or bound.dtype != x.dtype
        ):
            geometry = (conv.kernel_size, conv.stride, conv.padding)
            bound = kernels.bind_conv(
                scratch, x, weight, bias, self._gather_index(x, *geometry), *geometry
            )
        regs[self.dst] = kernels.conv2d_step(bound, x)

    def _avg_pool(self, regs, scratch, kernel: int, stride: int) -> None:
        x = regs[self.src]
        bound = scratch.bindings.get(x.shape)
        if kernel * kernel <= 8:
            # The ubiquitous 2x2 pool: summed straight from the taps.
            if bound is None or bound.source is not x:
                bound = kernels.bind_pool_taps(scratch, x, kernel, stride)
            regs[self.dst] = kernels.avg_pool_taps_step(bound)
            return
        if bound is None or bound.dtype != x.dtype:
            bound = kernels.bind_avg_pool_cols(
                scratch, x, self._gather_index(x, kernel, stride, 0), kernel, stride
            )
        regs[self.dst] = kernels.avg_pool_cols_step(bound, x)


class ConvOp(_WindowOp):
    __slots__ = ("module",)

    def __init__(self, src: int, dst: int, module: Conv2d):
        super().__init__(src, dst)
        self.module = module

    def run(self, regs, scratch, state, stats: bool = True) -> None:
        m = self.module
        self._conv(regs, scratch, m, m.weight.data,
                   None if m.bias is None else m.bias.data)


class FoldedConvNormOp(_WindowOp):
    """A conv→norm pair executed as one GEMM with the norm folded in.

    The folded ``(weight, bias)`` arrays come from the *shared*
    :class:`~repro.snn.folding.FoldedConvNorm` cache owned by the source
    block — the same object the Tensor path reads during frozen inference —
    so both execution paths consume identical constants and the bitwise
    path-vs-path contract survives folding.  The cache refreshes itself when
    any source parameter/buffer array object is replaced.
    """

    __slots__ = ("conv", "folded")

    def __init__(self, src: int, dst: int, conv: Conv2d, folded):
        super().__init__(src, dst)
        self.conv = conv
        self.folded = folded

    def run(self, regs, scratch, state, stats: bool = True) -> None:
        self._conv(regs, scratch, self.conv, *self.folded.arrays())


class LIFOp(PlanOp):
    """Fused LIF update.  ``tau`` / ``V_th`` are materialized here, once, as
    the float32 0-d arrays ``as_tensor`` gives them on the Tensor path; the
    module's ``v_threshold`` and ``reset`` are read live, every step."""

    __slots__ = ("module", "state_index", "tau", "v_th_scalar")

    def __init__(self, src: int, dst: int, module: LIFNeuron, state_index: int):
        super().__init__(src, dst)
        self.module = module
        self.state_index = state_index
        self.tau = scalar_operand(module.tau, np.float32)
        self.v_th_scalar = scalar_operand(module.v_threshold, np.float32)

    @property
    def is_stateful(self) -> bool:
        return True

    def run(self, regs, scratch, state, stats: bool = True) -> None:
        x = regs[self.src]
        m = self.module
        membrane = state[self.state_index]
        if membrane is not None and membrane.shape != x.shape:
            membrane = None  # stale state of another shape is fresh state
        bound = scratch.bindings.get(x.shape)
        if bound is None or bound.dtype != x.dtype or bound.reset != m.reset:
            bound = kernels.bind_lif(scratch, x, m.reset)
        kernels.lif_step(bound, x, membrane, self.tau, m.v_threshold, self.v_th_scalar)
        state[self.state_index] = bound.membrane
        if stats:
            # Same bookkeeping (and float accumulation order) as the layer.
            spike_count = kernels.spike_count(bound)
            size = float(bound.spikes.size)
            m.last_spike_rate = spike_count / size
            m.total_spikes += spike_count
            m.total_neuron_updates += size
        regs[self.dst] = bound.spikes


class AvgPoolOp(_WindowOp):
    __slots__ = ("kernel", "stride")

    def __init__(self, src: int, dst: int, kernel: int, stride: int):
        super().__init__(src, dst)
        self.kernel = kernel
        self.stride = stride

    def run(self, regs, scratch, state, stats: bool = True) -> None:
        self._avg_pool(regs, scratch, self.kernel, self.stride)


class MaxPoolOp(PlanOp):
    __slots__ = ("kernel", "stride")

    def __init__(self, src: int, dst: int, kernel: int, stride: int):
        super().__init__(src, dst)
        self.kernel = kernel
        self.stride = stride

    def run(self, regs, scratch, state, stats: bool = True) -> None:
        x = regs[self.src]
        bound = scratch.bindings.get(x.shape)
        if bound is None or bound.source is not x:
            bound = kernels.bind_pool_taps(scratch, x, self.kernel, self.stride)
        regs[self.dst] = kernels.max_pool_step(bound)


class AdaptiveAvgPoolOp(_WindowOp):
    __slots__ = ("output_size",)

    def __init__(self, src: int, dst: int, output_size: int):
        super().__init__(src, dst)
        self.output_size = output_size

    def run(self, regs, scratch, state, stats: bool = True) -> None:
        h, w = regs[self.src].shape[1:3]
        if h % self.output_size or w % self.output_size:
            raise ValueError("adaptive_avg_pool2d requires divisible spatial dims")
        kernel = h // self.output_size
        self._avg_pool(regs, scratch, kernel, kernel)


class FlattenOp(PlanOp):
    """Flattens a map in the Tensor path's ``C*H*W`` order for ``Linear``."""

    __slots__ = ()

    def run(self, regs, scratch, state, stats: bool = True) -> None:
        x = regs[self.src]
        if x.ndim != 4:
            regs[self.dst] = x.reshape(x.shape[0], -1)
            return
        bound = scratch.bindings.get(x.shape)
        if bound is None or bound.dtype != x.dtype:
            bound = kernels.bind_flatten(scratch, x)
        regs[self.dst] = kernels.flatten_step(bound, x)


class LinearOp(PlanOp):
    __slots__ = ("module",)

    def __init__(self, src: int, dst: int, module: Linear):
        super().__init__(src, dst)
        self.module = module

    def run(self, regs, scratch, state, stats: bool = True) -> None:
        m = self.module
        bias = None if m.bias is None else m.bias.data
        regs[self.dst] = kernels.linear_step(regs[self.src], m.weight.data, bias)


class ReLUOp(PlanOp):
    __slots__ = ()

    def run(self, regs, scratch, state, stats: bool = True) -> None:
        x = regs[self.src]
        bound = scratch.bindings.get(x.shape)
        if bound is None or bound.dtype != x.dtype:
            bound = kernels.bind_relu(scratch, x)
        regs[self.dst] = kernels.relu_step(bound, x)


class AddOp(PlanOp):
    __slots__ = ("src2",)

    def __init__(self, src: int, src2: int, dst: int):
        super().__init__(src, dst)
        self.src2 = src2

    @property
    def reads(self) -> Tuple[int, ...]:
        return (self.src, self.src2)

    def run(self, regs, scratch, state, stats: bool = True) -> None:
        a, b = regs[self.src], regs[self.src2]
        bound = scratch.bindings.get(a.shape)
        if bound is None or bound.dtype != a.dtype:
            bound = kernels.bind_add(scratch, a, b)
        regs[self.dst] = kernels.add_step(bound, a, b)


# --------------------------------------------------------------------------- #
# Lowering
# --------------------------------------------------------------------------- #
class _Lowering:
    """Walks modules in forward order, emitting ops and allocating registers."""

    def __init__(self):
        self.ops: List[PlanOp] = []
        self.next_register = 1  # register 0 is the input frame
        self.num_lif = 0

    def new_register(self) -> int:
        register = self.next_register
        self.next_register += 1
        return register

    # ------------------------------------------------------------------ #
    def _lower_conv_norm(self, conv: Module, norm: Module, folded, src: int) -> int:
        """Lower a block's conv→norm pair as the one folded GEMM the Tensor
        path runs during frozen inference (same shared cache)."""
        if folded is not None:
            dst = self.new_register()
            self.ops.append(FoldedConvNormOp(src, dst, conv, folded))
            return dst
        src = self.lower(conv, src)
        return self.lower(norm, src)

    def lower(self, module: Module, src: int) -> int:
        """Emit ops for ``module`` reading register ``src``; return the output register."""
        if isinstance(module, Sequential):
            for child in module:
                src = self.lower(child, src)
            return src
        if isinstance(module, ConvSpikeBlock):
            src = self._lower_conv_norm(module.conv, module.norm, module.folded, src)
            return self.lower(module.lif, src)
        if isinstance(module, SpikingResidualBlock):
            block_in = src
            main = self._lower_conv_norm(module.conv1, module.norm1, module.folded1, block_in)
            main = self.lower(module.lif1, main)
            main = self._lower_conv_norm(module.conv2, module.norm2, module.folded2, main)
            shortcut = self._lower_conv_norm(
                module.shortcut_conv, module.shortcut_norm, module.folded_shortcut, block_in
            )
            summed = self.new_register()
            self.ops.append(AddOp(main, shortcut, summed))
            return self.lower(module.lif2, summed)
        if isinstance(module, Conv2d):
            dst = self.new_register()
            self.ops.append(ConvOp(src, dst, module))
            return dst
        if isinstance(module, LIFNeuron):
            dst = self.new_register()
            self.ops.append(LIFOp(src, dst, module, self.num_lif))
            self.num_lif += 1
            return dst
        if isinstance(module, AvgPool2d):
            dst = self.new_register()
            self.ops.append(AvgPoolOp(src, dst, module.kernel_size, module.stride))
            return dst
        if isinstance(module, MaxPool2d):
            dst = self.new_register()
            self.ops.append(MaxPoolOp(src, dst, module.kernel_size, module.stride))
            return dst
        if isinstance(module, AdaptiveAvgPool2d):
            dst = self.new_register()
            self.ops.append(AdaptiveAvgPoolOp(src, dst, module.output_size))
            return dst
        if isinstance(module, Flatten):
            dst = self.new_register()
            self.ops.append(FlattenOp(src, dst))
            return dst
        if isinstance(module, Linear):
            dst = self.new_register()
            self.ops.append(LinearOp(src, dst, module))
            return dst
        if isinstance(module, ReLU):
            dst = self.new_register()
            self.ops.append(ReLUOp(src, dst))
            return dst
        if isinstance(module, (Identity, Dropout)):
            # Dropout is the identity in eval mode; the plan is eval-only.
            return src
        raise UnsupportedModuleError(
            f"cannot lower {type(module).__name__} into the inference fast path"
        )


class StemCache:
    """Content-keyed memo of stem outputs for *time-varying* deterministic encoders.

    The aligned per-slot stem cache (``PlanExecutor(stem_cache=True)``) only
    works under direct encoding, where a sample's frame is constant across
    timesteps.  Event-stream encoders feed a *different* frame per timestep,
    but serve traffic replays the same DVS clips over and over — so the stem
    output for a given ``(sample, t)`` pair recurs across requests.  This
    cache memoizes it, keyed by the **exact bytes of the encoded frame row**
    (shape/dtype-prefixed by the serving engine): that key subsumes
    ``(sample, t)`` (the frame *is* ``clip[t]``), cannot collide the way a
    content hash could, and gets extra hits for free when short recordings
    pad by repeating their last frame.  Value-wise the cache inherits the
    serving layer's per-sample batch-width invariance contract (a stem row
    computed at one batch width must equal the same row at another width —
    the property compaction and mid-horizon splicing already rely on, and
    ``tests/equivalence`` enforces per platform); where that contract holds,
    caching is bit-invisible.

    Entries are pure functions of the plan's stem weights and the frame
    bytes, so they are valid across executors, serve slots, engine restarts
    and ``fail_active`` aborts; nothing ever needs row-surgery here.  The
    cache is therefore shared by every executor of a plan (it lives on the
    :class:`CompiledPlan`) and guarded by a lock for multi-worker serving.
    *Weight updates* invalidate it: executors revalidate the cache against
    :meth:`CompiledPlan.stem_signature` — the identity tuple of every source
    array the stem reads — before each keyed lookup round, and a changed
    signature flushes the entries (arrays are replaced, never mutated, by
    the optimizer / ``load_state_dict`` / ``update_buffer``, the same
    convention the folded-weight caches rely on).  Capacity is a bounded LRU
    (:data:`STEM_CACHE_CAPACITY` entries on a plan's own memo) so replayed
    working sets stay resident while one-off traffic cannot grow it without
    limit.
    """

    def __init__(self, capacity: int = STEM_CACHE_CAPACITY):
        if capacity < 1:
            raise ValueError("StemCache capacity must be >= 1")
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self._lock = named_lock("runtime.stem_cache")
        self._signature: Optional[Tuple] = None
        self._entries: "OrderedDict[bytes, Tuple[np.ndarray, ...]]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def validate(self, signature: Tuple) -> None:
        """Flush every entry unless ``signature`` matches the cached one.

        ``signature`` is an identity tuple of source arrays (see
        :meth:`CompiledPlan.stem_signature`); entries computed under replaced
        weights must never be served.
        """
        with self._lock:
            self._validate_locked(signature)

    def _matches_locked(self, signature: Tuple) -> bool:
        current = self._signature
        return (
            current is not None
            and len(signature) == len(current)
            and all(a is b for a, b in zip(signature, current))
        )

    def _validate_locked(self, signature: Tuple) -> None:
        if self._matches_locked(signature):
            return
        # Unconditional: entries stored before the first validation (the
        # signature-less store() API) have unknown weight provenance and
        # must not survive signature adoption either.
        self._entries.clear()
        self._signature = signature

    def lookup(self, key: bytes) -> Optional[Tuple[np.ndarray, ...]]:
        """The cached stem-register rows for ``key``, or ``None`` (counted)."""
        return self.lookup_many((key,))[0]

    def lookup_many(
        self, keys: Sequence[bytes], signature: Optional[Tuple] = None
    ) -> List[Optional[Tuple[np.ndarray, ...]]]:
        """Batched :meth:`lookup` under ONE lock acquisition (the serving hot
        loop calls this once per timestep, not once per row).  When
        ``signature`` is given, :meth:`validate` runs inside the same
        critical section first."""
        with self._lock:
            if signature is not None:
                self._validate_locked(signature)
            entries: List[Optional[Tuple[np.ndarray, ...]]] = []
            for key in keys:
                entry = self._entries.get(key)
                if entry is None:
                    self.misses += 1
                else:
                    self._entries.move_to_end(key)
                    self.hits += 1
                entries.append(entry)
            return entries

    def store(self, key: bytes, rows: Tuple[np.ndarray, ...]) -> None:
        """Insert one sample's stem rows (one array per stem register)."""
        self.store_many(((key, rows),))

    def store_many(
        self,
        items: Sequence[Tuple[bytes, Tuple[np.ndarray, ...]]],
        signature: Optional[Tuple] = None,
    ) -> None:
        """Batched :meth:`store` under one lock acquisition.

        ``signature`` is the weight signature the rows were *computed* under
        (captured at lookup time).  If another thread flushed the cache to a
        new signature in between — an in-place weight reload landing between
        a worker's stem run and its store — the insert is silently dropped:
        rows from old weights must never outlive the flush.
        """
        with self._lock:
            if signature is not None and not self._matches_locked(signature):
                return
            for key, rows in items:
                self._entries[key] = rows
                self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


class CompiledPlan:
    """A lowered network: flat op list plus the stem-cache metadata.

    Attributes
    ----------
    ops:
        Ops in execution order (features first, classifier last).
    num_registers:
        Size of the virtual register file (register 0 is the input frame).
    output_register:
        Register holding the classifier logits after a full sweep.
    num_lif:
        Number of stateful LIF ops (size of the membrane state vector).
    stem_len:
        Number of leading *stateless* ops (everything before the first LIF).
    stem_registers:
        Registers written inside the stem and read beyond it — the exact set
        an executor must restore to skip the stem from cache.
    """

    def __init__(self, model: SpikingNetwork, ops: Sequence[PlanOp], num_registers: int,
                 output_register: int, num_lif: int):
        # Weak reference only: plans are cached per model in a
        # WeakKeyDictionary, and a strong reference here would pin the key
        # (and the whole parameter set) alive forever.
        self._model_ref = weakref.ref(model)
        self.ops = list(ops)
        self.num_registers = num_registers
        self.output_register = output_register
        self.num_lif = num_lif
        self.stem_len = next(
            (i for i, op in enumerate(self.ops) if op.is_stateful), 0
        )
        written = {op.dst for op in self.ops[: self.stem_len]}
        read_later = {r for op in self.ops[self.stem_len :] for r in op.reads}
        self.stem_registers: Tuple[int, ...] = tuple(sorted(written & read_later))
        # Callers alias the returned logits across timesteps (running sums),
        # so the output must be freshly allocated each step.  Only LinearOp
        # allocates; every other op hands back reused scratch or a view of
        # it, and the executor must copy in that case.
        producer = next(
            (op for op in reversed(self.ops) if op.dst == output_register), None
        )
        self.output_needs_copy = not isinstance(producer, LinearOp)
        # Shared content-keyed stem memo for time-varying deterministic
        # encoders (event streams).  One cache per plan: every executor of a
        # shared plan reads and fills the same memo; in-place weight
        # reloads flush it through the stem_signature check.  None only
        # when the plan has no stem to memoize.
        self.stem_cache: Optional[StemCache] = (
            StemCache() if self.stem_len > 0 else None
        )

    def stem_signature(self) -> Tuple:
        """Identity tuple of every source array the stem ops read.

        Parameters and buffers are *replaced*, never mutated (the repo-wide
        staleness convention), so ``is``-comparing this tuple detects weight
        updates exactly; :class:`StemCache` flushes on mismatch.
        """
        sources: List[object] = []
        for op in self.ops[: self.stem_len]:
            if isinstance(op, FoldedConvNormOp):
                sources.extend(op.folded._array_sources())
            elif isinstance(op, (ConvOp, LinearOp)):
                module = op.module
                sources.append(module.weight.data)
                if module.bias is not None:
                    sources.append(module.bias.data)
        return tuple(sources)

    @property
    def model(self) -> Optional[SpikingNetwork]:
        """The source model, or ``None`` once it has been garbage-collected."""
        return self._model_ref()

    def describe(self) -> str:
        """Human-readable op listing (debugging / tests)."""
        lines = [
            f"CompiledPlan(ops={len(self.ops)}, lif={self.num_lif}, "
            f"stem={self.stem_len}, out=r{self.output_register})"
        ]
        for index, op in enumerate(self.ops):
            marker = "*" if index < self.stem_len else " "
            lines.append(f" {marker} [{index:2d}] {op.describe()}")
        return "\n".join(lines)


def compile_network(model: SpikingNetwork) -> CompiledPlan:
    """Lower ``model.features`` + ``model.classifier`` into a :class:`CompiledPlan`.

    Raises :exc:`UnsupportedModuleError` when the model contains a module the
    fast path cannot express; callers should fall back to the Tensor oracle
    (``use_runtime=False`` / ``REPRO_RUNTIME=0``), which remains available
    everywhere and produces bitwise-identical results.  Raises
    :exc:`repro.analysis.planverify.PlanVerificationError` when lowering
    produced an IR that breaks an executor contract — that is a compiler
    bug, so it deliberately does *not* trigger the oracle fallback.

    Dtype guarantees (docs/NUMERICS.md): every register, scratch buffer and
    membrane the plan touches is float32, and block-level conv→norm pairs
    are folded into single GEMMs exactly as the Tensor path folds them
    during frozen inference.  A norm layer standing outside such a pair has
    no folded form and raises :exc:`UnsupportedModuleError`.
    """
    lowering = _Lowering()
    features_out = lowering.lower(model.features, 0)
    output_register = lowering.lower(model.classifier, features_out)
    # Warm the folded conv+norm arrays while the plan is still private to
    # this thread: N shared-plan workers would otherwise race the first-touch
    # initialization of FoldedConvNorm.arrays() at cold start.  After
    # warming, concurrent refreshes only happen if a source array object is
    # replaced mid-serve (unsupported while serving), and are idempotent
    # recomputes from the same sources anyway.
    for op in lowering.ops:
        if isinstance(op, FoldedConvNormOp):
            op.folded.arrays()
    plan = CompiledPlan(
        model=model,
        ops=lowering.ops,
        num_registers=lowering.next_register,
        output_register=output_register,
        num_lif=lowering.num_lif,
    )
    # Every compile goes through the plan-IR verifier (docs/ANALYSIS.md):
    # register SSA, shape/dtype propagation against the stored constants,
    # stem/liveness metadata, and the fold invariants.  O(#ops), no
    # array math — per-compile cost, never per-step.  The import is deferred
    # because repro.analysis.planverify imports this module.
    from ..analysis.planverify import verify_plan

    return verify_plan(plan)


# --------------------------------------------------------------------------- #
# Shared-plan registry
# --------------------------------------------------------------------------- #
class PlanRegistry:
    """One compiled plan per model instance, shared by every consumer.

    Plans are immutable after lowering and hold only *references* to the
    model's parameters, so N engine replicas serving the same model need only
    one plan between them: the registry is the keying point that makes the
    sharing happen (vLLM-style read-only execution state across workers).
    Each replica still builds its own :class:`~repro.runtime.PlanExecutor` —
    membranes, scratch and the aligned stem rows are per-session state.

    Lookups are keyed on the model instance (weakly, so a dropped model frees
    its plan and parameters).  Models that fail to lower are negatively
    cached until :meth:`invalidate`.  All operations take the
    registry lock — multi-worker servers race their first lookups.
    """

    _UNSUPPORTED = object()

    def __init__(self):
        self._lock = named_lock("runtime.plan_registry")
        self._plans: "weakref.WeakKeyDictionary[SpikingNetwork, object]" = (
            weakref.WeakKeyDictionary()
        )

    def get(self, model: SpikingNetwork) -> Optional[CompiledPlan]:
        """The shared plan for ``model`` (compiling on first use), or ``None``
        when the model cannot lower (use the Tensor oracle)."""
        with self._lock:
            cached = self._plans.get(model)
            if cached is self._UNSUPPORTED:
                return None
            if cached is not None:
                return cached
            try:
                plan = compile_network(model)
            except UnsupportedModuleError:
                self._plans[model] = self._UNSUPPORTED
                return None
            self._plans[model] = plan
            return plan

    def invalidate(self, model: SpikingNetwork) -> bool:
        """Drop the cached plan (or negative entry) for ``model``.

        Executors built on the old plan keep running it (they are
        plan-bound at construction); only *new* lookups recompile.  Returns
        whether an entry existed.
        """
        with self._lock:
            return self._plans.pop(model, None) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


#: Process-wide registry used by :func:`repro.runtime.plan_for`.
plan_registry = PlanRegistry()
