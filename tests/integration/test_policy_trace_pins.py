"""Pinned decision traces of every built-in scheduling policy.

The trajectory and observability goldens pin the decision trace of LF and
EDF, and ``steal-decisions.json`` that of STEAL; the conformance suite only
checks that a trace repeats within one tree.  This module pins every
built-in policy -- the paper's three, the ablations and the zoo -- on three
small trials:

* ``single-node``: one failed node, so every policy meets degraded tasks;
* ``two-jobs``: two overlapping jobs, so a heartbeat spills from one job
  into the next and CPATH's job order differs from BDF's;
* ``hetero``: half the nodes at half speed, so HETERO's speed gate fires.

For each (trial, policy) it pins the SHA-256 of the JSON decision trace
(field order kept, as the observability goldens keep it), the SHA-256 of
the canonical result JSON and the engine's dispatched-event count, and it
checks that the set reaches every trace ``reason`` each policy can give.
A refactor of the schedulers must leave every pin where it is.  If one
moves after an intentional change to a policy, print the new pins with
``PYTHONPATH=src:. python tests/integration/test_policy_trace_pins.py``
and say in the commit message why they moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import cache

import pytest

from repro.cluster.network import MB, mbps
from repro.core.scheduler import POLICIES
from repro.ec.codec import CodeParams
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.serialization import result_to_json
from tests.helpers import traced_trial


def _twelve_nodes(**overrides) -> SimulationConfig:
    """12 nodes / 3 racks / (6,4) on 300 Mb/s racks, one node failed:
    degraded reads are slow enough for EDF's rack guard to reject some."""
    defaults = dict(
        num_nodes=12,
        num_racks=3,
        map_slots=2,
        code=CodeParams(6, 4),
        block_size=64 * MB,
        rack_bandwidth=mbps(300),
        jobs=(JobConfig(num_blocks=96, num_reduce_tasks=2),),
        seed=7,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


TRIALS: dict[str, SimulationConfig] = {
    "single-node": _twelve_nodes(),
    "two-jobs": _twelve_nodes(
        jobs=(
            JobConfig(num_blocks=48, num_reduce_tasks=2),
            JobConfig(num_blocks=72, num_reduce_tasks=2, submit_time=10.0),
        )
    ),
    "hetero": _twelve_nodes(
        speed_factors=tuple(1.0 if node % 2 == 0 else 0.5 for node in range(12))
    ),
}

#: The built-in policies (a registered third-party policy is not pinned).
BUILTINS = (
    "BDF", "BDF-UNCAPPED", "CLONE", "CPATH", "EAGER", "EDF", "EDF-RACK",
    "EDF-SLAVE", "FIFO", "HETERO", "LF", "LF-DELAY", "RANDOM", "STEAL",
)

#: Every ``reason`` a policy's ``sched.decision`` events can carry.
_BDF_REASONS = frozenset({"degraded-first", "locality-fallback", "pacing"})
REASONS: dict[str, frozenset[str]] = {
    "BDF": _BDF_REASONS,
    "BDF-UNCAPPED": frozenset({"uncapped"}),
    "CLONE": frozenset({"lf-order", "clone-tail"}),
    "CPATH": _BDF_REASONS,
    "EAGER": frozenset({"eager"}),
    "EDF": _BDF_REASONS | {"slave-guard", "rack-guard"},
    "EDF-RACK": _BDF_REASONS | {"rack-guard"},
    "EDF-SLAVE": _BDF_REASONS | {"slave-guard"},
    "FIFO": frozenset({"fifo-scan"}),
    "HETERO": _BDF_REASONS | {"speed-guard"},
    "LF": frozenset({"lf-order"}),
    "LF-DELAY": frozenset({"local", "delay-expired"}),
    "RANDOM": frozenset({"random-source"}),
    "STEAL": frozenset({"own-queue", "steal", "degraded-tail"}),
}

#: "trial/policy" -> (decisions SHA-256, result SHA-256, dispatched events).
PINS: dict[str, tuple[str, str, int]] = {
    "hetero/BDF": (
        "52f99b13906a23091c760432839fa4bc512832bed4ead73acae7fcfb93eecf27",
        "a4f8fd510eaa8daab9248f99c3a14c37f36fea38f3d18556e57ba04a2760c6f3",
        1757,
    ),
    "hetero/BDF-UNCAPPED": (
        "cd3fdf9ad1a599fca72c015fcdcf7a11af89f69680dd4cb62cb0651c7eb011cf",
        "4d4a381a238c1c20a26b44702f334667f3de4ecea5c778ca24ef311fcb0e5574",
        1712,
    ),
    "hetero/CLONE": (
        "96f3a8d732bdd48883355f01a81baede37e1734389d723e4fd2b463686b5ba13",
        "a32fc56cb4c72db7582d99b7345902a010de60dada9a4f4072cb1a8f6dc2a2c8",
        1705,
    ),
    "hetero/CPATH": (
        "3e9b6c090692f824da347ed29b68ed6886bd575774b9ad4e39ef4603116126dd",
        "9fb4529185ee81eb466638f3055550cfd335e66a90a9b225e5641102140fddb2",
        1757,
    ),
    "hetero/EAGER": (
        "06ecaa1afee8fd16acfac63f74fd6a0117e48c64e0e23f5bd6f65be5debcd31d",
        "2f624eedd31698c8a30076307897d067635dc1a72d7f4d67f363762b6b0002d3",
        1823,
    ),
    "hetero/EDF": (
        "0be85d09341237058d66ababf7b9dfdfbcf19cf9da4963e65b6f2ba64ddf1a95",
        "626fb9007497cd5f515173f3a412e0619aab84db5c63ffe8faccaccd03832ae1",
        1684,
    ),
    "hetero/EDF-RACK": (
        "5d475653126d9ff6906b5cdd832af9a066d88aeeec282343e3fb98ef5e68f731",
        "cf3c87f165f9b388cac5e9a905351cef6740cca9e7b5a1318eceec9063e7ab9b",
        1742,
    ),
    "hetero/EDF-SLAVE": (
        "f5649a07d6632f0e0bbccc71e1139fc835e225c56ffa715bb815e8b391f0908b",
        "e07fefd10fae10842e568a0aa8e93771359aafd4392e50acbba05f1b32f79e27",
        1684,
    ),
    "hetero/FIFO": (
        "52c04579513a8e02d317d03029c047616bfb91a4f8ba16531934688c1031e7c6",
        "d7eaa2c8c97ae470017c6163f7fc46e52bf770c8e9b8bc1a1e0e977fbb1f5ad2",
        2347,
    ),
    "hetero/HETERO": (
        "04e538d4ede5b9db66b785e8243e00a657aed3ea743a79a52ec8cae94b79884c",
        "a3d64826bf25074bc12a55b2e0baa5002a0685c68b48bbc7d9dc6a53220f6420",
        1742,
    ),
    "hetero/LF": (
        "5068363eec509bfff42fd96c392e48a2aa2639b3652d2c0347ac482c4c4905b5",
        "1d08008489b954554bf06617b096090b60ef929225f519fa8f50e594c535baa5",
        1651,
    ),
    "hetero/LF-DELAY": (
        "0c1a994b2dbd79b019dcc4312769849c9dcb5ab3fee329fa8f6515d9f3743fa1",
        "2e23866596d3f012a4af09eaac807f55b2c413bbfde053feb1a85f1501effda6",
        1764,
    ),
    "hetero/RANDOM": (
        "bcb395641ee7f321a63c259555c155f0f8e10809b18dcd1cf10a7b36fb31cac7",
        "fd68e89f56568dc85f8e748a569b7c8825a55fcd99e55ca32159db9e15d0e58d",
        1984,
    ),
    "hetero/STEAL": (
        "b7f0f9e469f228f307cd2795dc3feec262f8ecd703249119520793383438eb62",
        "75515effe5cabf48cc06a8b65491783113ddde73b69ca45387cf5da582cc4324",
        1631,
    ),
    "single-node/BDF": (
        "fce643040da4c3be92a53fec2a3dc32ae20290053b603235757f1178fb16e910",
        "46e6bd69597a5e1eb3523effcbdbf79489cdf6d318619f0e89aa3b84c8f39562",
        1391,
    ),
    "single-node/BDF-UNCAPPED": (
        "056cab2714985b592cee9f3f452c9200fd7a90d26c0fcec2b2a376c323287fd0",
        "c29570200a2143f60f835a2b784e7cea90da8562b1b5138ef5bf484608e435a1",
        1371,
    ),
    "single-node/CLONE": (
        "b76d21f23b52b506c8f413c52ce4fd45bb4a1547e702d7fdde62b8b7c59a5340",
        "cd8db65b16151b0397850afd22cb0bad562d7c0afad5802676c2699e134a4135",
        1350,
    ),
    "single-node/CPATH": (
        "1a8ea5c086f3c0070656526143fdad7e6d8926cbd4cf233729297fe5a3a5af5c",
        "93419b3a8e1715ddd12cb9f39c84d1320da23a636f243cf14452594ebb75820e",
        1391,
    ),
    "single-node/EAGER": (
        "86afa657444213a5b5525504067fe0662e229d78ba20b3aadbcc4ad86b2950c4",
        "1c67773c399738d56bb29abc145396df76f8d3e9c2b949800039e215ba092e66",
        1478,
    ),
    "single-node/EDF": (
        "9231f476330b4d2300265c6902b9607164388e8dc5529f66bc01b404f4aaa76d",
        "78b5d8503a4e226ef8c75d9a25c3ecb005dad2f935091a23144618922af8feb1",
        1343,
    ),
    "single-node/EDF-RACK": (
        "0f64fbe6147a337aafb61de9f2074cc9ddd6c5e1045f82ebf7713a4b1a475111",
        "fd615ee077da6f94300a45a7275c9deb165941abb0ec6ac07174633f1c9ce394",
        1337,
    ),
    "single-node/EDF-SLAVE": (
        "e14b3631a8f0986954a888aefbc4300ee8597e119c7e3e68cbaae6175b684f90",
        "dd5c3940d9ced05789434e4a72f3ec3cc5237d60ba7da91c4e201a522fd44e8a",
        1338,
    ),
    "single-node/FIFO": (
        "6c46af78425f8bf9e6a21db21b12e61ffad0c4814fb239cc21afcc9166e5f667",
        "4265404642f22f6148757fa9abec3c4994d32c4fa9fb0c28e81cc1e150ed74f1",
        1957,
    ),
    "single-node/HETERO": (
        "2eaedda8adf432ad6ab1638d9169f6049dda70f0caf655046a68ea805c768aa3",
        "1c79da67989bb9cf700f98a3d7e9c099e3a02d448d4b16c750faa063dc407409",
        1391,
    ),
    "single-node/LF": (
        "9421971667d55f32ff90a99583975d5b54ab39f3618f9c9c88c92d0246890c8c",
        "94614627960f0a1132faf07c322aa70a38601cf3c45effe37e2c2165aab99fe3",
        1375,
    ),
    "single-node/LF-DELAY": (
        "15c8a86f59a252077aef5ec1d16140432a1c427a1e6ff31805376964c62dfd2f",
        "d00713342b83602a636a6ede1e2735c700b8c8ca9a255239b5150091c3f27011",
        1371,
    ),
    "single-node/RANDOM": (
        "362919ed0aa1736101d85893bf5460e7c709a450d789315c64973839265f4546",
        "e69891d8afe86b854390eb0d8943eef562351c687cfc46de77d89f3bf88f2a5f",
        1949,
    ),
    "single-node/STEAL": (
        "b1c05e53bf77c3f9ca26a82ee50852ceb3a65556a996aeee1182ae2cdd762279",
        "b2f8d76480c64e4249995c18d194430bfc0085af18842bcb33c2578997404d7a",
        1366,
    ),
    "two-jobs/BDF": (
        "5a414d14cbd0249feaf59f19ffbb650166aeea26b7c3f10a328cee78833648df",
        "b27941cc976c2e7d3c521e5fb1e2d696b11faab8c06ab2009262d57644420e02",
        1812,
    ),
    "two-jobs/BDF-UNCAPPED": (
        "262351b9cb2f27fcf9b23d876e8891bb9934d23ed14924029bd43fbae8224665",
        "9f5259179d7f3baf840ec6b05621ed3ac03b32e760f54fea575d75073915c44f",
        1852,
    ),
    "two-jobs/CLONE": (
        "54ee0488f6f1e37b5c41b02b8116fd7888de7c3c67aeadeba174db2235b52dbc",
        "ae1d4618913f121dc87d323aeead0bb6d1b1c4421b4831f7c35c2932daca35e3",
        1749,
    ),
    "two-jobs/CPATH": (
        "09703f30299b7049464ada73a89da8256e465e19e0b8ee5f5b48f705a28690ab",
        "95dd7adf338142cbe4358e965e7a45e5421ec43b19ef8a4c57f96894193bfaa1",
        1953,
    ),
    "two-jobs/EAGER": (
        "e827120691f9a0a07822784318c46469a3b10e233dbbdeecc614ab16afeed836",
        "633c77c69d2db5afbb2648d3fb80f4b194c947a68d609980631b2ca31a130edf",
        1809,
    ),
    "two-jobs/EDF": (
        "9d10329d2e6a5633036434bb5230dba9f19e55eeafd1778143330a358efaf908",
        "0053dcd1cc94c75cbd95ac71d0b6638b6e2af3080137ee5b73798e682caf98a0",
        1694,
    ),
    "two-jobs/EDF-RACK": (
        "e1f904aa8115fb1c229bb57f237e26fd530a3684b8389d08dd86ca2196cdbe5c",
        "1a952ff161e0ac40acd7602bc991d0fcbd3b83511fd98ba57b58b389d762b5fb",
        1789,
    ),
    "two-jobs/EDF-SLAVE": (
        "08386689a23fa2471a1af0a7981179729b80fe513330b5825df74666a4328ab6",
        "2dda440f8442124c42d9296afd4c81a529e344ea410e94684a581e160ea1a473",
        1750,
    ),
    "two-jobs/FIFO": (
        "57d2755bde77ec9c55d558cf2157539a1d225c55b9f4c88793071eac2b356e30",
        "a337204830ad77d435ac76539c233804574a7e1e7c42b318e45d79e4c06e5751",
        2446,
    ),
    "two-jobs/HETERO": (
        "31399e90884d769c2bd76e950e13e3d266b04d4541ed9c7e6194e455c5d7bc5b",
        "cf39319049b905fc9978200db0908867591e476e9032959029c32d4439a19591",
        1812,
    ),
    "two-jobs/LF": (
        "856e3e553eeb4c777b143f6e651ee50a28f4b2c327568bdbf1740079871f303e",
        "588cf3ec5dafea1f9bcc482bfedf25ea59cb7fd19a7b3fbd022bb25ba2128a41",
        1731,
    ),
    "two-jobs/LF-DELAY": (
        "d1866ba6058bc887ac345c3908e36d8eb776b22971c70bfd99a24cff0f49b1e8",
        "c994dc4be849a396a647be31851fdc9b79632ea4bebdc79e2db596454c34de87",
        1875,
    ),
    "two-jobs/RANDOM": (
        "a290aba7af3541e4ec18a83c166ccbc4a6e9642905107015bcc4124bc7fa6834",
        "55055a54d292c0521ec4c858ee4cec967368b25e07bff8cdc145a5d32dc64ee9",
        2427,
    ),
    "two-jobs/STEAL": (
        "b154c5fb1c3acea227236ddd0958ce1fd2af71fa912d8c62d4f51ce19c2b27e4",
        "736ef8835e4f1fcec8117a7d130d9944802730585d0fd5c76f731d1b4c453066",
        1714,
    ),
}


@cache
def run_case(trial: str, policy: str) -> tuple[tuple[str, str, int], frozenset[str]]:
    """One traced trial: its pin and the trace reasons it gives."""
    decisions, result, dispatched = traced_trial(TRIALS[trial].with_scheduler(policy))
    pin = (
        hashlib.sha256(json.dumps(decisions).encode()).hexdigest(),
        hashlib.sha256(result_to_json(result).encode()).hexdigest(),
        dispatched,
    )
    return pin, frozenset(decision["reason"] for decision in decisions)


def test_every_builtin_policy_is_pinned() -> None:
    assert set(BUILTINS) <= set(POLICIES.names())
    assert set(REASONS) == set(BUILTINS)


@pytest.mark.parametrize("policy", BUILTINS)
@pytest.mark.parametrize("trial", sorted(TRIALS))
def test_decision_trace_is_pinned(trial: str, policy: str) -> None:
    assert run_case(trial, policy)[0] == PINS[f"{trial}/{policy}"]


@pytest.mark.parametrize("policy", BUILTINS)
def test_the_set_reaches_every_reason(policy: str) -> None:
    reached = frozenset().union(*(run_case(trial, policy)[1] for trial in TRIALS))
    assert reached == REASONS[policy]


if __name__ == "__main__":
    sys.stdout.write("PINS: dict[str, tuple[str, str, int]] = {\n")
    for trial in sorted(TRIALS):
        for policy in BUILTINS:
            decisions_sha, result_sha, dispatched = run_case(trial, policy)[0]
            sys.stdout.write(f'    "{trial}/{policy}": (\n')
            sys.stdout.write(f'        "{decisions_sha}",\n        "{result_sha}",\n')
            sys.stdout.write(f"        {dispatched},\n    ),\n")
    sys.stdout.write("}\n")
