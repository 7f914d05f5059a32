"""Self-tests for the record comparison: it refuses records from
different hosts and compares medians against BENCHMARK.json bounds.

    cd perfbench && python3 -m unittest test_compare
"""

import unittest

import compare
import fingerprint

HOST = {"cpu_model": "Example CPU", "nproc": 4, "llc": "107520K", "simd": "avx2",
        "governor": "unreadable", "revision": "aaaaaaaaaaaa"}

SPEC = {"end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                       {"name": "throughput_mpix_s", "unit": "Mpix/s", "better": "higher",
                        "bound": 0.1}],
        "per_layer": []}


def record(value, **host):
    fp = dict(HOST, **host)
    return {"workload": "photo_dense", "trace": 0, "fingerprint": fp,
            "metrics": {"latency_p50_ms": {"value": value, "unit": "ms"},
                        "throughput_mpix_s": {"value": 1000.0 / value, "unit": "Mpix/s"}}}


class FingerprintRefusal(unittest.TestCase):
    def test_each_host_field_mismatch_is_refused(self):
        other = {"cpu_model": "Other CPU", "nproc": 8, "llc": "32768K", "simd": "sse",
                 "governor": "performance"}
        for field in fingerprint.HOST_FIELDS:
            with self.subTest(field=field):
                with self.assertRaises(fingerprint.FingerprintMismatch) as ctx:
                    compare.compare([record(10.0)], [record(10.0, **{field: other[field]})], SPEC)
                self.assertIn(field, str(ctx.exception))

    def test_mismatch_inside_one_side_is_refused(self):
        with self.assertRaises(fingerprint.FingerprintMismatch):
            compare.compare([record(10.0), record(10.0, nproc=2)], [record(10.0)], SPEC)

    def test_revision_differs_but_host_matches(self):
        rows = compare.compare([record(10.0)], [record(10.0, revision="bbbbbbbbbbbb")], SPEC)
        self.assertTrue(rows)


class MedianVerdicts(unittest.TestCase):
    def test_worse_beyond_bound(self):
        rows = compare.compare([record(10.0), record(10.2), record(9.8)],
                               [record(12.0), record(12.1), record(11.9)], SPEC)
        verdict = {r[1]: r[6] for r in rows}
        self.assertEqual(verdict["latency_p50_ms"], "WORSE")
        self.assertEqual(verdict["throughput_mpix_s"], "WORSE")

    def test_within_bound_and_better(self):
        rows = compare.compare([record(10.0)], [record(9.0)], SPEC)
        self.assertTrue(all(r[6] == "ok" for r in rows))


if __name__ == "__main__":
    unittest.main()
