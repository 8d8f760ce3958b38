"""Tests of the benchmark itself, at a tiny scale factor.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke test runs every workload of BENCHMARK.json untraced and traced and
checks that every named metric prints with its unit and that every call
passed its output check. The negative test corrupts the stored reference
fingerprints of one seed and checks that every call is then counted as failed.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import build  # noqa: E402

BENCH = json.loads((build.ROOT / "BENCHMARK.json").read_text())
TINY_SF = 0.2


def run(workload: str, seed: int, trace: int) -> dict:
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--sf", str(TINY_SF)],
        capture_output=True, text=True, cwd=build.ROOT, timeout=300)
    if p.returncode != 0:
        raise AssertionError(f"run.py exited with {p.returncode}:\n{p.stderr[-3000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_every_metric_prints_with_its_unit(self):
        for w in BENCH["workloads"]:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    r = run(w["name"], 7, trace)
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in BENCH[group]}
                    self.assertEqual(set(r["metrics"]), set(expected))
                    for name, unit in expected.items():
                        self.assertEqual(r["metrics"][name]["unit"], unit, name)
                        self.assertIsInstance(r["metrics"][name]["value"], (int, float), name)


class CorruptFingerprintTest(unittest.TestCase):
    def test_corrupted_fingerprint_counts_as_failure(self):
        workload, seed = BENCH["workloads"][0]["name"], 424242
        ref = build.STATE / "fingerprints" / f"{workload}-sf{TINY_SF}-seed{seed}"
        ref.unlink(missing_ok=True)
        first = run(workload, seed, 0)
        self.assertTrue(first["correct"])
        self.assertTrue(ref.exists())
        ref.write_text("\n".join("0" * 24 for _ in ref.read_text().splitlines()))
        try:
            r = run(workload, seed, 0)
        finally:
            ref.unlink()
        self.assertFalse(r["correct"])
        self.assertGreaterEqual(r["attempted"], 2)
        self.assertEqual(r["failed"], r["attempted"])


if __name__ == "__main__":
    unittest.main()
