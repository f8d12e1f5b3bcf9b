#!/usr/bin/env python
"""Run a real WordCount on the functional testbed, with a dead datanode.

Unlike a plain simulation, the testbed really executes the job logic:
text is erasure-coded with Reed-Solomon into per-node block stores, a slave
is killed, blocks it held are rebuilt by genuine degraded reads (fetch k
surviving blocks, decode), and the final word counts are checked against
the ground truth computed directly from the corpus.  The timing comes from
the simulator's clock, driven by the sizes the real pass measured --
demonstrating that degraded-first scheduling changes *when* work happens,
never *what* is computed.

Run:  python examples/testbed_wordcount.py    (takes a few seconds)
"""

from collections import Counter
from dataclasses import replace

from repro.mapreduce.job import MapTaskCategory, TaskKind
from repro.mapreduce.metrics import mean_task_runtime
from repro.testbed import TestbedCluster, TestbedConfig, WordCountJob


def main() -> None:
    config = replace(TestbedConfig(seed=11), num_blocks=120)
    print(f"Building a {config.num_nodes}-slave testbed with "
          f"{config.num_blocks} x {config.block_size // 1024} KB blocks, "
          f"code {config.code}...")
    cluster = TestbedCluster(config)
    truth = Counter(cluster.corpus.decode().split())

    failed = cluster.kill_node()
    print(f"Killed slave {sorted(failed)[0]}; its blocks now need degraded reads.\n")

    for scheduler in ("LF", "EDF"):
        result = cluster.run_job(WordCountJob(), scheduler=scheduler, failed_nodes=failed)
        correct = dict(truth) == result.output
        degraded = mean_task_runtime(
            result.tasks, TaskKind.MAP, MapTaskCategory.DEGRADED
        )
        normal = mean_task_runtime(
            result.tasks,
            TaskKind.MAP,
            MapTaskCategory.NODE_LOCAL,
            MapTaskCategory.RACK_LOCAL,
            MapTaskCategory.REMOTE,
        )
        print(
            f"  {scheduler}: runtime={result.runtime:5.2f} s   "
            f"normal map={normal:5.2f} s   degraded map={degraded:5.2f} s   "
            f"output {'MATCHES' if correct else 'DIFFERS FROM'} ground truth"
        )
        if not correct:
            raise SystemExit("output mismatch -- degraded read is broken")

    print(
        "\nBoth schedulers produce identical, correct word counts; EDF just"
        "\nfinishes sooner by overlapping degraded reads with the map phase."
    )


if __name__ == "__main__":
    main()
