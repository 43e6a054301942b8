"""The public facade (repro.api) and named presets.

The contracts pinned here:

* ``explicit knob > preset > default`` precedence, in the facade and in
  ``BuildConfig.preset``;
* ``config=`` is mutually exclusive with ``preset=``/knobs;
* a facade build is bit-identical to calling ``build_program`` with the
  same configuration;
* every named preset is bit-identical to its explicit-knob spelling;
* speed-only knobs (workers, caching, persistent pool) never change the
  produced binary.
"""

import pytest

import repro
from repro import api
from repro.errors import ReproError
from repro.pipeline import BuildConfig, build_program
from repro.pipeline.config import KEY_FIELDS, PRESETS, SPEED_FIELDS

SOURCES = {
    "App": """
func helper(x: Int) -> Int { return x * 3 + 1 }
func main() {
    var total = 0
    for i in 0..<8 { total += helper(x: i) }
    print(total)
}
""",
    "Lib": """
func triple(x: Int) -> Int { return x * 3 }
""",
}


def _text(result):
    return result.image.text_section()


class TestResolveConfig:
    def test_defaults(self):
        assert api.resolve_config() == BuildConfig()

    def test_knobs_only(self):
        config = api.resolve_config(outline_rounds=2, target="thumb2c")
        assert config.outline_rounds == 2
        assert config.target == "thumb2c"

    def test_preset_fields_land(self):
        config = api.resolve_config(preset="fast-build")
        assert config.pipeline == "default"
        assert config.outline_rounds == 1
        assert config.incremental
        assert config.persistent_workers

    def test_explicit_knob_beats_preset(self):
        config = api.resolve_config(preset="min-size", outline_rounds=2)
        assert config.outline_rounds == 2
        assert config.pipeline == "wholeprogram"  # untouched preset field

    def test_config_object_passes_through(self):
        config = BuildConfig(outline_rounds=4)
        assert api.resolve_config(config) is config

    def test_config_plus_preset_is_an_error(self):
        with pytest.raises(ReproError):
            api.resolve_config(BuildConfig(), preset="min-size")

    def test_config_plus_knob_is_an_error(self):
        with pytest.raises(ReproError):
            api.resolve_config(BuildConfig(), outline_rounds=2)

    def test_unknown_knob_is_a_typed_error(self):
        with pytest.raises(ReproError):
            api.resolve_config(no_such_knob=True)

    def test_unknown_preset_is_a_typed_error(self):
        with pytest.raises(ReproError):
            api.resolve_config(preset="speedy")


class TestFacadeEquivalence:
    def test_build_matches_build_program(self):
        config = BuildConfig(outline_rounds=2)
        assert (_text(api.build(SOURCES, config))
                == _text(build_program(SOURCES, config)))

    def test_build_via_knobs_matches_explicit_config(self):
        assert (_text(api.build(SOURCES, outline_rounds=2))
                == _text(build_program(SOURCES,
                                       BuildConfig(outline_rounds=2))))

    def test_run_executes(self):
        result = api.run(SOURCES)
        assert result.output == ("92",)
        assert result.build.image is not None

    def test_top_level_reexports(self):
        assert repro.build is api.build
        assert repro.run is api.run
        assert repro.connect is api.connect


class TestPresetEquivalence:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_matches_explicit_spelling(self, name, tmp_path):
        overrides = {"cache_dir": str(tmp_path)}
        via_preset = api.build(SOURCES, preset=name, **overrides)
        explicit = build_program(
            SOURCES, BuildConfig(**{**PRESETS[name], **overrides}))
        assert _text(via_preset) == _text(explicit)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_fields_match_table(self, name):
        config = BuildConfig.preset(name)
        for field_name, value in PRESETS[name].items():
            assert getattr(config, field_name) == value

    def test_presets_only_use_known_fields(self):
        defaults = BuildConfig()
        for name, fields in PRESETS.items():
            for field_name in fields:
                assert hasattr(defaults, field_name), (name, field_name)

    @pytest.mark.parametrize("target", ["arm64", "thumb2c"])
    def test_speed_knobs_never_change_bits(self, target, tmp_path):
        """SPEED_FIELDS is the bit-identity contract: flipping every
        speed knob must reproduce the plain serial uncached build."""
        base = BuildConfig(outline_rounds=2, target=target)
        speedy = BuildConfig(outline_rounds=2, target=target,
                             workers=2, incremental=True,
                             cache_dir=str(tmp_path),
                             persistent_workers=True)
        assert (_text(build_program(SOURCES, base))
                == _text(build_program(SOURCES, speedy)))

    def test_speed_fields_cover_preset_speed_knobs(self):
        """Every preset field either enters a cache key or is a speed
        knob (SPEED_FIELDS), and no two presets share an image key."""
        for name, fields in PRESETS.items():
            for field_name in fields:
                assert (field_name in KEY_FIELDS
                        or field_name in SPEED_FIELDS), (name, field_name)
        keys = {BuildConfig.preset(name).backend_fingerprint()
                for name in PRESETS}
        assert len(keys) == len(PRESETS)
