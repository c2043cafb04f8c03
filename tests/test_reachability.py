"""Every function of ``src/secagg5g`` is reached by a simulation or a CLI
command, or is listed below with the file that needs it.

A fresh interpreter installs a ``sys.setprofile`` hook before it imports
``secagg5g``, so that import-time calls count, then runs a small simulation
in both mask-share modes and each subcommand in both modes. Every function
defined in the package's source that no call reached must be in
``UNREACHED``, and every entry there must still be unreached: a new
function that nothing runs fails here until it is listed or deleted, and
an entry that a run reaches again must be taken off the list. Methods that
``dataclasses`` generate have no source lines in the package and are never
counted.
"""

import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "secagg5g"

# Each unreached function, as module.qualname, with the file that needs it
# and a text that shows it there: the acceptance gate (never edited), the
# same-behaviour pins, the benchmark, a one-row form's own caller, or a test
# module that uses it as a scalar reference or compares messages with ==.
UNREACHED = {
    "field.add": ("tests/test_field.py", "field.add("),
    "field.encode_update": ("tests/test_acceptance.py", "encode_update("),
    "field.sub": ("tests/test_field.py", "field.sub("),
    "khprf.precompute_masks": ("tests/test_acceptance.py", "khprf.precompute_masks("),
    "messages.MaskedUpdateBlock.of": ("src/secagg5g/protocol.py", "MaskedUpdateBlock.of("),
    "messages.MaskedUpdateMsg.to_bytes": ("perfbench/tracing.py",
                                          '"MaskedUpdateMsg", "to_bytes"'),
    "messages.SetupShareBlock.of": ("src/secagg5g/protocol.py", "SetupShareBlock.of("),
    "messages.SetupShareMsg.to_bytes": ("perfbench/tracing.py", '"SetupShareMsg", "to_bytes"'),
    "messages._Block.__eq__": ("tests/test_messages.py", "block == msgs"),
    "messages._Message.__eq__": ("tests/test_messages.py", "from_bytes(msg.to_bytes()) == msg"),
    "messages.payload_length": ("tests/test_acceptance.py", "payload_length("),
    "protocol.Aggregator.collect_update": ("tests/test_acceptance.py", "af.collect_update("),
    "protocol.Aggregator.masked_updates": ("tests/test_acceptance.py", "af.masked_updates"),
    "protocol.BaseStation.__init__": ("tests/test_acceptance.py", "BaseStation(bs_id="),
    "protocol.BaseStation.mask_share": ("tests/test_acceptance.py", ".mask_share("),
    "protocol.BaseStation.receive_share": ("tests/test_acceptance.py", ".receive_share("),
    "protocol.Stations.stored_shares": ("tests/test_same_behaviour.py", "stored_shares("),
    "protocol.UserEquipment.__init__": ("tests/test_acceptance.py", "UserEquipment(ue_id="),
    "protocol.UserEquipment.masked_update": ("tests/test_acceptance.py", ".masked_update("),
    "protocol.UserEquipment.precompute": ("perfbench/tracing.py",
                                          '"UserEquipment", "precompute"'),
    "protocol.UserEquipment.setup": ("tests/test_acceptance.py", "ue.setup("),
    "protocol.route_setup_shares": ("tests/test_acceptance.py", "route_setup_shares("),
    "shamir.split": ("tests/test_acceptance.py", "split("),
    "simnet.DropoutSchedule.none": ("tests/test_acceptance.py", "DropoutSchedule.none()"),
    "simnet.SimResult.model_history": ("perfbench/workloads.py", "result.model_history"),
}

# Prints the (file name, function name, first line) of every code object
# under the package that a call reached.
PROFILED_RUN = """
import json, os, sys
reached = set()
sys.setprofile(lambda frame, event, arg: event == "call" and reached.add(frame.f_code))
from secagg5g import DropoutSchedule, SimConfig, cli, fltask, run_simulation
from secagg5g.messages import MaskShareMode
config, out = sys.argv[1:]
schedule = DropoutSchedule(ue_prob=0.2, bs_prob=0.3, prob_ue_ids=range(1, 7),
                           prob_bs_ids=range(1, 4))
for mode in MaskShareMode:
    cfg = SimConfig(n_ues=6, n_bss=3, bs_threshold=2, model_dim=5, iterations=4,
                    latency_jitter_ms=40.0, deadline_ms=40.0, mask_share_mode=mode)
    run_simulation(cfg, schedule, fltask.generate_data(seed=0, n_ues=6, feature_dim=4))
    for command in ("run", "sweep"):
        assert cli.main([command, config, "-o", out, "--mode", mode.name.lower()]) == 0
assert cli.main(["compare-modes", config, "-o", out, "--format", "json"]) == 0
sys.setprofile(None)
package = os.path.dirname(cli.__file__) + os.sep
print(json.dumps([(os.path.basename(c.co_filename), c.co_name, c.co_firstlineno)
                  for c in reached if c.co_filename.startswith(package)]))
"""


def defined_functions(code: types.CodeType, prefix: str):
    """``((function name, first line), qualified name)`` of every function
    ``code`` defines, at any depth; comprehensions, lambdas and class
    bodies are not functions."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_NEWLOCALS:
                yield (const.co_name, const.co_firstlineno), name
            yield from defined_functions(const, name + ".")


def unreached_functions(tmp_path: Path) -> set[str]:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(
        n_ues=4, n_bss=3, bs_threshold=2, iterations=2, feature_dim=3, samples_per_shard=5,
        test_samples=10, seeds=[0], sweep_axis="bs_dropout", sweep_max=1,
        latency_jitter_ms=40.0, deadline_ms=40.0)))
    proc = subprocess.run(
        [sys.executable, "-c", PROFILED_RUN, str(config), str(tmp_path / "rows.csv")],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent), "SECAGG5G_LOG": "ERROR"},
        capture_output=True, text=True, check=True, timeout=120,
    )
    reached = {tuple(key) for key in json.loads(proc.stdout.splitlines()[-1])}
    unreached = set()
    for path in PACKAGE.glob("*.py"):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        for (name, line), qualname in defined_functions(code, f"{path.stem}."):
            if (path.name, name, line) not in reached:
                unreached.add(qualname)
    return unreached


def test_every_function_is_reached_or_listed_with_what_needs_it(tmp_path):
    unreached = unreached_functions(tmp_path)
    assert sorted(unreached - UNREACHED.keys()) == [], "reached by nothing: delete or list"
    assert sorted(UNREACHED.keys() - unreached) == [], "reached now: take off the list"
    for name, (needed_by, text) in UNREACHED.items():
        assert text in (ROOT / needed_by).read_text(encoding="utf-8"), (name, needed_by)
