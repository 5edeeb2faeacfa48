"""The host-speed probe returns kernel times and scales by their median.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import gc
import os
import signal
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import speed  # noqa: E402


class Probe(unittest.TestCase):
    def test_probe_times_each_sample_and_restores_the_collector(self):
        self.assertTrue(gc.isenabled())
        times = speed.probe()
        self.assertEqual(len(times), speed.SAMPLES)
        self.assertTrue(all(t > 0 for t in times))
        self.assertTrue(gc.isenabled())

    def test_scale_is_reference_over_median(self):
        ref = speed.REFERENCE_S
        self.assertAlmostEqual(speed.scale([ref, ref, ref]), 1.0)
        # a host at half the reference speed halves the reported time
        self.assertAlmostEqual(speed.scale([2 * ref, 2 * ref, 9 * ref]), 0.5)

    def test_sampler_probes_while_its_block_runs(self):
        with speed.Sampler() as sampler:
            end = time.perf_counter() + 5 * speed.INTERVAL
            while time.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(sampler.times), 3)
        self.assertGreater(sampler.pause, 0)
        self.assertEqual(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)


if __name__ == "__main__":
    unittest.main()
