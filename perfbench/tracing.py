"""In-memory span tracing from outside the program, and the per-layer table.

The traced run replaces public functions of ``secagg5g`` with thin wrappers
that record one span per call: name, start, end and parent span. Spans stay
in compact arrays until the pass ends; nothing is written while it runs.
The scalar ``field.add``/``mul``/``reduce`` and ``khprf.hash_to_field`` run
once per vector element, so they are never wrapped: their cost would be the
wrapper's.
"""

from __future__ import annotations

import importlib
from array import array
from collections import defaultdict
from time import perf_counter

# Names that modules import by value are wrapped where the caller looks them
# up; everything else is wrapped as an attribute of its defining module.
MODULE_BINDINGS = [
    ("field", "encode_update", "field.encode_update"),
    ("field", "vec_add", "field.vec_add"),
    ("field", "vec_sub", "field.vec_sub"),
    ("field", "decode_sum", "field.decode_sum"),
    ("khprf", "evaluate", "khprf.evaluate"),
    ("khprf", "coefficient_vector", "khprf.coefficient_vector"),
    ("khprf", "precompute_masks", "khprf.precompute_masks"),
    ("shamir", "split", "shamir.split"),
    ("shamir", "lagrange_coeffs_at_zero", "shamir.lagrange_coeffs_at_zero"),
    ("shamir", "combine_linear", "shamir.combine_linear"),
    ("simnet", "from_bytes", "messages.unpack"),
    ("simnet", "wire_length", "messages.wire_length"),
    ("experiments", "run_simulation", "simnet.run_simulation"),
    ("experiments", "generate_data", "fltask.generate_data"),
    ("cli", "run_experiment", "experiments.run_experiment"),
    ("cli", "write_results", "experiments.write_results"),
]

CLASS_METHODS = [
    ("messages", "SetupShareMsg", "to_bytes", "messages.pack"),
    ("messages", "MaskedUpdateMsg", "to_bytes", "messages.pack"),
    ("messages", "OnlineListMsg", "to_bytes", "messages.pack"),
    ("messages", "MaskShareMsg", "to_bytes", "messages.pack"),
    ("messages", "GlobalModelMsg", "to_bytes", "messages.pack"),
    ("protocol", "UserEquipment", "setup", "protocol.ue.setup"),
    ("protocol", "UserEquipment", "precompute", "protocol.ue.precompute"),
    ("protocol", "UserEquipment", "masked_update", "protocol.ue.masked_update"),
    ("protocol", "BaseStation", "receive_share", "protocol.bs.receive_share"),
    ("protocol", "BaseStation", "mask_share", "protocol.bs.mask_share"),
    ("protocol", "Aggregator", "begin_round", "protocol.af.begin_round"),
    ("protocol", "Aggregator", "collect_update", "protocol.af.collect_update"),
    ("protocol", "Aggregator", "finalize_online_list", "protocol.af.finalize_online_list"),
    ("protocol", "Aggregator", "recover_mask", "protocol.af.recover_mask"),
    ("protocol", "Aggregator", "unmask_and_aggregate", "protocol.af.unmask_and_aggregate"),
    ("protocol", "Aggregator", "fallback", "protocol.af.fallback"),
    ("protocol", "Aggregator", "global_model_message", "protocol.af.global_model_message"),
    ("fltask", "FlTask", "local_update", "fltask.local_update"),
    ("fltask", "FlTask", "accuracy", "fltask.accuracy"),
]

# vector kernels whose first argument is the vector they walk
ELEMENT_COUNTED = {"field.encode_update", "field.vec_add", "field.vec_sub", "field.decode_sum"}

# (metric, unit, better) in the order BENCHMARK.json lists them
LAYER_METRICS = [
    ("field.encode_update.ms", "ms", "lower"),
    ("field.vec_add.ms", "ms", "lower"),
    ("field.vec_sub.ms", "ms", "lower"),
    ("field.decode_sum.ms", "ms", "lower"),
    ("field.elements", "count", "lower"),
    ("khprf.evaluate.self_ms", "ms", "lower"),
    ("khprf.evaluate.calls", "count", "lower"),
    ("khprf.coefficient_vector.ms", "ms", "lower"),
    ("khprf.coefficient_vector.hit_ratio", "ratio", "higher"),
    ("khprf.precompute_masks.self_ms", "ms", "lower"),
    ("khprf.cache_elements", "count", "lower"),
    ("shamir.split.ms", "ms", "lower"),
    ("shamir.lagrange_coeffs_at_zero.ms", "ms", "lower"),
    ("shamir.combine_linear.ms", "ms", "lower"),
    ("shamir.combine_linear.calls", "count", "lower"),
    ("messages.pack.ms", "ms", "lower"),
    ("messages.pack.calls", "count", "lower"),
    ("messages.unpack.ms", "ms", "lower"),
    ("messages.wire_length.ms", "ms", "lower"),
    ("messages.packs_per_delivery", "ratio", "lower"),
    ("protocol.ue.masked_update.self_ms", "ms", "lower"),
    ("protocol.bs.mask_share.self_ms", "ms", "lower"),
    ("protocol.af.collect_update.self_ms", "ms", "lower"),
    ("protocol.af.recover_mask.self_ms", "ms", "lower"),
    ("protocol.af.unmask_and_aggregate.self_ms", "ms", "lower"),
    ("protocol.bs.abstentions", "count", "lower"),
    ("simnet.run_simulation.ms", "ms", "lower"),
    ("simnet.self_ms", "ms", "lower"),
    ("simnet.deliveries", "count", "lower"),
    ("fltask.local_update.ms", "ms", "lower"),
    ("fltask.accuracy.ms", "ms", "lower"),
    ("fltask.generate_data.ms", "ms", "lower"),
    ("experiments.run_experiment.self_ms", "ms", "lower"),
    ("experiments.write_results.ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
]


class Tracer:
    """Records nested call spans in flat arrays; parent -1 marks a root."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.errors: dict[str, int] = defaultdict(int)
        self.elements = 0
        self._stack = [-1]
        self.cache_info = None

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack)
        count = name in ELEMENT_COUNTED

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            if count:
                self.elements += len(args[0])
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every binding site in MODULE_BINDINGS and CLASS_METHODS."""
        for mod_name, attr, name in MODULE_BINDINGS:
            mod = importlib.import_module(f"secagg5g.{mod_name}")
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        for mod_name, cls_name, attr, name in CLASS_METHODS:
            cls = getattr(importlib.import_module(f"secagg5g.{mod_name}"), cls_name)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
        khprf = importlib.import_module("secagg5g.khprf")
        self.cache_info = khprf.coefficient_vector.__wrapped__.cache_info

    def spans(self) -> list[tuple[str, float, float, int]]:
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)
        ]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    ``spans`` holds (name, start, end, parent_index) tuples. Children may
    overlap each other or reach outside their parent; only their union
    inside the parent's interval is subtracted.
    """
    covered = [0.0] * len(spans)
    reach = [float("-inf")] * len(spans)
    for i in sorted(range(len(spans)), key=lambda i: spans[i][1]):
        _, s, e, p = spans[i]
        if p < 0:
            continue
        lo = max(s, spans[p][1], reach[p])
        hi = min(e, spans[p][2])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], hi)
    return [(e - s) - c for (_, s, e, _), c in zip(spans, covered)]


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive ms and self ms."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
    for (name, s, e, _), own in zip(spans, self_times(spans)):
        row = out[name]
        row["calls"] += 1
        row["ms"] += (e - s) * 1e3
        row["self_ms"] += own * 1e3
    return out


def layer_metrics(tracer: Tracer, model_dim: int) -> dict[str, float]:
    """Every LAYER_METRICS value but trace.overhead_ratio, for one pass."""
    spans = tracer.spans()
    by_name = summarize(spans)

    def get(name, key):
        return by_name[name][key] if name in by_name else 0

    info = tracer.cache_info()
    lookups = info.hits + info.misses
    packs = get("messages.pack", "calls")
    deliveries = get("messages.unpack", "calls")
    return {
        "field.encode_update.ms": get("field.encode_update", "ms"),
        "field.vec_add.ms": get("field.vec_add", "ms"),
        "field.vec_sub.ms": get("field.vec_sub", "ms"),
        "field.decode_sum.ms": get("field.decode_sum", "ms"),
        "field.elements": tracer.elements,
        "khprf.evaluate.self_ms": get("khprf.evaluate", "self_ms"),
        "khprf.evaluate.calls": get("khprf.evaluate", "calls"),
        "khprf.coefficient_vector.ms": get("khprf.coefficient_vector", "ms"),
        "khprf.coefficient_vector.hit_ratio": info.hits / lookups if lookups else 0.0,
        "khprf.precompute_masks.self_ms": get("khprf.precompute_masks", "self_ms"),
        "khprf.cache_elements": info.currsize * model_dim,
        "shamir.split.ms": get("shamir.split", "ms"),
        "shamir.lagrange_coeffs_at_zero.ms": get("shamir.lagrange_coeffs_at_zero", "ms"),
        "shamir.combine_linear.ms": get("shamir.combine_linear", "ms"),
        "shamir.combine_linear.calls": get("shamir.combine_linear", "calls"),
        "messages.pack.ms": get("messages.pack", "ms"),
        "messages.pack.calls": packs,
        "messages.unpack.ms": get("messages.unpack", "ms"),
        "messages.wire_length.ms": get("messages.wire_length", "ms"),
        "messages.packs_per_delivery": packs / deliveries if deliveries else 0.0,
        "protocol.ue.masked_update.self_ms": get("protocol.ue.masked_update", "self_ms"),
        "protocol.bs.mask_share.self_ms": get("protocol.bs.mask_share", "self_ms"),
        "protocol.af.collect_update.self_ms": get("protocol.af.collect_update", "self_ms"),
        "protocol.af.recover_mask.self_ms": get("protocol.af.recover_mask", "self_ms"),
        "protocol.af.unmask_and_aggregate.self_ms":
            get("protocol.af.unmask_and_aggregate", "self_ms"),
        # a station abstains by raising MissingShareError out of mask_share
        "protocol.bs.abstentions": tracer.errors.get("protocol.bs.mask_share", 0),
        "simnet.run_simulation.ms": get("simnet.run_simulation", "ms"),
        "simnet.self_ms": get("simnet.run_simulation", "self_ms"),
        "simnet.deliveries": deliveries,
        "fltask.local_update.ms": get("fltask.local_update", "ms"),
        "fltask.accuracy.ms": get("fltask.accuracy", "ms"),
        "fltask.generate_data.ms": get("fltask.generate_data", "ms"),
        "experiments.run_experiment.self_ms": get("experiments.run_experiment", "self_ms"),
        "experiments.write_results.ms": get("experiments.write_results", "ms"),
        "trace.spans": len(spans),
    }
