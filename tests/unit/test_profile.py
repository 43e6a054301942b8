"""Layout-profile collector, serialization, and typed failure modes."""

import pytest

from repro.errors import ProfileError
from repro.pipeline import BuildConfig, build_program, run_build
from repro.sim.profile import (
    PROFILE_VERSION,
    LayoutProfile,
    ProfileCollector,
    profile_file_digest,
)

KNOWN_PROGRAM = """
func leaf(x: Int) -> Int {
    return x + 1
}
func mid(x: Int) -> Int {
    var t = 0
    for i in 0..<7 { t += leaf(x: x + i) }
    return t
}
func main() {
    print(mid(x: 1) + mid(x: 2) + leaf(x: 0))
}
"""


def _collect(source, **config_kwargs):
    result = build_program({"Main": source}, BuildConfig(**config_kwargs))
    collector = ProfileCollector()
    run_build(result, profile=collector)
    return result, collector


class TestCollector:
    def test_known_call_counts(self):
        """Exact dynamic edge counts for a program with known control flow:
        main calls mid twice and leaf once; each mid call makes 7 leaf
        calls from its loop."""
        result, collector = _collect(KNOWN_PROGRAM, outline_rounds=0)
        profile = collector.finalize(result.image)
        weights = profile.edge_weights()
        main = result.image.entry_symbol
        assert weights[(main, "Main::mid")] == 2
        assert weights[(main, "Main::leaf")] == 1
        assert weights[("Main::mid", "Main::leaf")] == 14

    def test_runtime_calls_excluded(self):
        """BL to runtime stubs (print -> swift_* natives) resolves to no
        text function and must not appear in the profile."""
        result, collector = _collect(KNOWN_PROGRAM, outline_rounds=0)
        profile = collector.finalize(result.image)
        for caller, callees in profile.calls.items():
            for callee in callees:
                assert not callee.startswith("swift_"), (caller, callee)
                assert result.image.symbols[callee] >= 0

    def test_collector_without_run_is_empty(self):
        collector = ProfileCollector()
        assert collector.raw_transfers == 0

    def test_profile_metadata(self):
        result, collector = _collect(KNOWN_PROGRAM, outline_rounds=0)
        profile = collector.finalize(result.image)
        assert profile.target == result.image.target_name
        assert profile.entry == result.image.entry_symbol


class TestSerialization:
    def test_round_trip_preserves_everything(self, tmp_path):
        result, collector = _collect(KNOWN_PROGRAM, outline_rounds=0)
        profile = collector.finalize(result.image)
        path = str(tmp_path / "p.json")
        digest = profile.save(path)
        loaded = LayoutProfile.load(path)
        assert loaded.calls == profile.calls
        assert loaded.target == profile.target
        assert loaded.entry == profile.entry
        assert loaded.digest() == digest == profile.digest()

    def test_digest_ignores_insertion_order(self):
        a = LayoutProfile(calls={"f": {"g": 1, "h": 2}, "g": {"h": 3}})
        b = LayoutProfile(calls={"g": {"h": 3}, "f": {"h": 2, "g": 1}})
        assert a.to_json_bytes() == b.to_json_bytes()
        assert a.digest() == b.digest()

    def test_digest_is_content_sensitive(self):
        a = LayoutProfile(calls={"f": {"g": 1}})
        b = LayoutProfile(calls={"f": {"g": 2}})
        assert a.digest() != b.digest()

    def test_file_digest_matches_in_memory_digest(self, tmp_path):
        profile = LayoutProfile(calls={"f": {"g": 5}})
        path = str(tmp_path / "p.json")
        profile.save(path)
        assert profile_file_digest(path) == profile.digest()


class TestTypedErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ProfileError, match="cannot read"):
            LayoutProfile.load(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_bytes(b"{not json")
        with pytest.raises(ProfileError, match="not valid JSON"):
            LayoutProfile.load(str(path))

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_bytes(b"[1,2,3]")
        with pytest.raises(ProfileError, match="top level"):
            LayoutProfile.load(str(path))

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_bytes(b'{"version":%d,"calls":{}}'
                         % (PROFILE_VERSION + 1))
        with pytest.raises(ProfileError, match="version"):
            LayoutProfile.load(str(path))

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "neg.json"
        path.write_bytes(b'{"version":%d,"calls":{"f":{"g":-1}}}'
                         % PROFILE_VERSION)
        with pytest.raises(ProfileError, match="non-negative"):
            LayoutProfile.load(str(path))

    def test_non_int_count_rejected(self, tmp_path):
        path = tmp_path / "str.json"
        path.write_bytes(b'{"version":%d,"calls":{"f":{"g":"many"}}}'
                         % PROFILE_VERSION)
        with pytest.raises(ProfileError, match="non-negative"):
            LayoutProfile.load(str(path))

    def test_corrupt_profile_fails_fingerprint(self, tmp_path):
        """A bad --profile-in must die at backend-fingerprint time (before
        any cache lookup), as a ProfileError, not poison a cache key."""
        path = tmp_path / "bad.json"
        path.write_bytes(b"\x00\xff")
        config = BuildConfig(layout="callgraph-c3",
                             profile_path=str(path))
        with pytest.raises(ProfileError):
            config.backend_fingerprint()

    def test_fingerprint_folds_profile_digest(self, tmp_path):
        """Two different profiles -> different image cache keys; the same
        profile at two paths -> the same key."""
        p1 = LayoutProfile(calls={"f": {"g": 1}})
        p2 = LayoutProfile(calls={"f": {"g": 2}})
        path1 = str(tmp_path / "a.json")
        path2 = str(tmp_path / "b.json")
        path1_copy = str(tmp_path / "c.json")
        p1.save(path1)
        p2.save(path2)
        p1.save(path1_copy)
        fp = lambda p: BuildConfig(layout="callgraph-c3",
                                   profile_path=p).backend_fingerprint()
        assert fp(path1) != fp(path2)
        assert fp(path1) == fp(path1_copy)
        assert fp(path1) != BuildConfig(layout="callgraph-c3"
                                        ).backend_fingerprint()
