"""Unit tests for the post-link binary verifier (link/verify.py).

Every test starts from a genuinely linked image and hand-corrupts one
structural property; the verifier must reject each corruption and accept
the pristine image.
"""

import glob
import pickle

import pytest

from repro.errors import ImageVerifierError, ReproError
from repro.link.verify import verify_image
from repro.pipeline import BuildConfig, build_program

LIB = """
class Counter {
    var n: Int
    init(n: Int) { self.n = n }
    func bump() -> Int {
        self.n = self.n + 1
        return self.n
    }
}

func helperA(x: Int) -> Int { return x * 3 + 1 }
func helperB(x: Int) -> Int { return x * 3 + 2 }
func helperC(x: Int) -> Int { return x * 3 + 3 }
"""

MAIN = """
import Lib

func main() {
    let c = Counter(n: 0)
    var total = 0
    for i in 0..<4 {
        total = total + helperA(x: i) + helperB(x: i) + helperC(x: i)
        total = total + c.bump()
    }
    print(total)
}
"""


@pytest.fixture(scope="module")
def image():
    # A generated app with outlining so the image contains outlined
    # functions and the call/return-pairing checks have work to do.
    from repro.workloads.appgen import AppSpec, generate_app

    result = build_program(generate_app(AppSpec(base_features=2,
                                                num_vendors=1)),
                           BuildConfig(outline_rounds=2))
    assert any(ext.is_outlined for ext in result.image.functions)
    return result.image


def _reload(image):
    """Independent deep copy so corruption never leaks across tests."""
    return pickle.loads(pickle.dumps(image))


def test_pristine_image_verifies(image):
    verify_image(_reload(image))


def test_flipped_branch_target_is_caught(image):
    img = _reload(image)
    flipped = False
    for idx, instr in enumerate(img.instrs):
        if instr.branch_target() is not None and idx in img.resolved_target:
            # Point the branch far outside its function.
            img.resolved_target[idx] = img.text_base + len(img.instrs) * 16
            flipped = True
            break
    assert flipped
    with pytest.raises(ImageVerifierError, match="branch"):
        verify_image(img)


def test_flipped_call_target_is_caught(image):
    img = _reload(image)
    flipped = False
    for idx, instr in enumerate(img.instrs):
        # Pick a call into text (runtime stubs are consecutive 4-byte
        # slots, so a +4 flip there would still be a valid stub).
        if (instr.is_call and idx in img.resolved_target
                and img.resolved_target[idx] >= img.text_base):
            img.resolved_target[idx] += 4  # mid-function, not a start
            flipped = True
            break
    assert flipped
    with pytest.raises(ImageVerifierError, match="call"):
        verify_image(img)


def test_truncated_text_section_is_caught(image):
    img = _reload(image)
    del img.instrs[-3:]
    with pytest.raises(ImageVerifierError, match="truncated|extents"):
        verify_image(img)


def test_symbol_extent_mismatch_is_caught(image):
    img = _reload(image)
    name = img.functions[1].name
    img.symbols[name] += 4
    with pytest.raises(ImageVerifierError, match="symbol"):
        verify_image(img)


def test_overlapping_extents_are_caught(image):
    img = _reload(image)
    img.functions[2].start -= 4
    with pytest.raises(ImageVerifierError, match="contiguous|extent"):
        verify_image(img)


def test_bogus_entry_symbol_is_caught(image):
    img = _reload(image)
    img.entry_symbol = "no::such::function"
    with pytest.raises(ImageVerifierError, match="entry"):
        verify_image(img)


def test_data_word_outside_segment_is_caught(image):
    img = _reload(image)
    img.data_init[img.data_end + 1024] = 42
    with pytest.raises(ImageVerifierError, match="data"):
        verify_image(img)


def test_outlined_fallthrough_is_caught(image):
    img = _reload(image)
    target = next(ext for ext in img.functions if ext.is_outlined)
    last_idx = img.index_of_addr(target.end) - 1
    from repro.isa.instructions import MachineInstr, Opcode
    img.instrs[last_idx] = MachineInstr(Opcode.NOP)
    # On a variable-width target the rewrite may already break the extent
    # byte accounting, which the layout walk reports before the
    # call/return-pairing check runs.
    with pytest.raises(ImageVerifierError, match="outlined|encoded"):
        verify_image(img)


class TestSharedInstructions:
    """The image holds one object per distinct instruction, and the
    verifier classifies each object once; every index that holds one must
    still be checked against its own resolved target."""

    def _second_index(self, img, wanted):
        """The second index of the first shared object that *wanted*
        accepts at two or more of its indices."""
        seen = {}
        for idx, instr in enumerate(img.instrs):
            if wanted(img, idx, instr):
                if id(instr) in seen:
                    assert img.instrs[seen[id(instr)]] is instr
                    return idx
                seen[id(instr)] = idx
        raise AssertionError("no shared instruction of that kind")

    @staticmethod
    def _branch(img, idx, instr):
        return instr.branch_target() is not None and idx in img.resolved_target

    @staticmethod
    def _call_into_text(img, idx, instr):
        target = img.resolved_target.get(idx)
        return (instr.is_call and target is not None
                and target >= img.text_base
                and target + 4 not in {ext.start for ext in img.functions})

    def test_unresolved_second_branch_is_caught(self, image):
        img = _reload(image)
        del img.resolved_target[self._second_index(img, self._branch)]
        with pytest.raises(ImageVerifierError, match="never resolved"):
            verify_image(img)

    def test_flipped_second_branch_is_caught(self, image):
        img = _reload(image)
        idx = self._second_index(img, self._branch)
        img.resolved_target[idx] = img.text_base + len(img.instrs) * 16
        with pytest.raises(ImageVerifierError, match="branch"):
            verify_image(img)

    def test_second_call_site_mid_function_is_caught(self, image):
        img = _reload(image)
        idx = self._second_index(img, self._call_into_text)
        img.resolved_target[idx] += 4  # mid-function, not a start
        with pytest.raises(ImageVerifierError, match="call"):
            verify_image(img)

    def test_unresolved_second_call_site_is_caught(self, image):
        img = _reload(image)
        del img.resolved_target[self._second_index(img, self._call_into_text)]
        with pytest.raises(ImageVerifierError, match="never resolved"):
            verify_image(img)


class TestCachedImageVerification:
    """The acceptance criterion: a corrupted *cached* image must be caught
    before build_program returns it."""

    def _sources(self):
        return {"Lib": LIB, "Main": MAIN}

    def _config(self, tmp_path):
        return BuildConfig(outline_rounds=1, incremental=True,
                           cache_dir=str(tmp_path))

    def _corrupt_cached_image(self, tmp_path, mutate):
        found = 0
        for path in glob.glob(str(tmp_path / "objects" / "*" / "*.pkl")):
            with open(path, "rb") as fh:
                entry = pickle.load(fh)
            if isinstance(entry, dict) and "image" in entry:
                mutate(entry["image"])
                with open(path, "wb") as fh:
                    pickle.dump(entry, fh)
                found += 1
        assert found == 1
        return found

    def test_flipped_branch_in_cached_image(self, tmp_path):
        build_program(self._sources(), self._config(tmp_path))

        def flip(img):
            for idx, instr in enumerate(img.instrs):
                if (instr.branch_target() is not None
                        and idx in img.resolved_target):
                    img.resolved_target[idx] = img.text_base - 4096
                    return
        self._corrupt_cached_image(tmp_path, flip)
        with pytest.raises(ImageVerifierError):
            build_program(self._sources(), self._config(tmp_path))

    def test_truncated_text_in_cached_image(self, tmp_path):
        build_program(self._sources(), self._config(tmp_path))
        self._corrupt_cached_image(
            tmp_path, lambda img: img.instrs.__delitem__(slice(-5, None)))
        with pytest.raises(ReproError):  # ImageVerifierError is a ReproError
            build_program(self._sources(), self._config(tmp_path))

    def test_report_flags_verified_images(self, tmp_path):
        result = build_program(self._sources(), self._config(tmp_path))
        assert "verify" in result.report.phase_wall
        warm = build_program(self._sources(), self._config(tmp_path))
        assert warm.report.image_cache_hit
        assert "verify" in warm.report.phase_wall
