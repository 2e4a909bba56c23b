"""The gauge file format and every check ``load_gauge`` runs past the CRC.

``data/gauge_2x2x2x2_c128.cfg`` and ``data/gauge_2x2x2x2_c64.cfg`` are
2^4 random SU(3) configurations (``random_su3_field``, rng seed 2024,
``generic256``) written by ``save_gauge`` before the checks moved onto
the payload view; they pin the on-disk format and the digest.  The
forged files below have their CRC (and, where stated, a direction's
digest) recomputed after the edit, so each reaches the check it
targets and that check alone must reject it.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import zlib

import numpy as np
import pytest

from repro.grid.cartesian import GridCartesian
from repro.grid.checksum import canonical_digest, component_digest, \
    field_checksum
from repro.grid.io import MAGIC, ConfigFormatError, ConfigHeader, \
    load_gauge, save_gauge
from repro.grid.su3 import plaquette
from repro.simd import get_backend

DATA = os.path.join(os.path.dirname(__file__), "data")
FIXTURE = {np.complex128: os.path.join(DATA, "gauge_2x2x2x2_c128.cfg"),
           np.complex64: os.path.join(DATA, "gauge_2x2x2x2_c64.cfg")}


def split_file(raw: bytes):
    end = raw.index(b"\n", raw.index(b"END_HEADER")) + 1
    return ConfigHeader.parse(raw[:end].decode()), raw[end:]


def directions(payload: bytes, dtype) -> list:
    """The payload's canonical ``(lsites, 3, 3)`` arrays (copies)."""
    return [a.reshape(-1, 3, 3) for a in np.split(
        np.frombuffer(payload, dtype=dtype).copy(), 4)]


def write(path, header: ConfigHeader, links_canonical) -> None:
    payload = b"".join(np.ascontiguousarray(c) for c in links_canonical)
    header.payload_crc = zlib.crc32(payload)
    with open(path, "wb") as f:
        f.write(header.render().encode() + payload)


def old_digest(can: np.ndarray) -> str:
    """The digest as ``field_checksum`` computed it before
    ``canonical_digest`` existed."""
    rounded = np.round(can.view(np.float64), 12)
    return hashlib.sha256(rounded.tobytes()).hexdigest()[:16]


class TestCommittedFixture:
    @pytest.mark.parametrize("backend", ("generic256", "avx512", "sse4",
                                         "sve512-real", "generic1024"))
    def test_loads_verified_on_every_layout(self, backend):
        grid = GridCartesian([2, 2, 2, 2], get_backend(backend))
        with open(FIXTURE[np.complex128], "rb") as f:
            header, payload = split_file(f.read())
        links = load_gauge(FIXTURE[np.complex128], grid, verify=True)
        assert [field_checksum(u) for u in links] == header.checksums
        for u, can in zip(links, directions(payload, np.complex128)):
            assert u.to_canonical().tobytes() == can.tobytes()

    @pytest.mark.parametrize("dtype", (np.complex128, np.complex64),
                             ids=("c128", "c64"))
    def test_digests_and_crc_unchanged(self, dtype):
        """The header's digests are the old formula's and
        ``canonical_digest``'s, on the payload view and on the loaded
        links; the CRC covers the payload bytes."""
        grid = GridCartesian([2, 2, 2, 2], get_backend("generic256"),
                             dtype=dtype)
        with open(FIXTURE[dtype], "rb") as f:
            header, payload = split_file(f.read())
        assert zlib.crc32(payload) == header.payload_crc
        cans = directions(payload, dtype)
        assert [old_digest(c) for c in cans] == header.checksums
        assert [canonical_digest(c) for c in cans] == header.checksums
        links = load_gauge(FIXTURE[dtype], grid, verify=False)
        assert [field_checksum(u) for u in links] == header.checksums
        assert np.isclose(plaquette(links, grid), header.plaquette,
                          atol=1e-10)

    @pytest.mark.parametrize("dtype", (np.complex128, np.complex64),
                             ids=("c128", "c64"))
    def test_both_fixtures_load_verified(self, dtype):
        grid = GridCartesian([2, 2, 2, 2], get_backend("generic256"),
                             dtype=dtype)
        load_gauge(FIXTURE[dtype], grid, verify=True)

    def test_resave_writes_the_same_payload_and_digests(self, tmp_path):
        """A V1 file re-saved is a V2 file with the same payload and
        CRC, whose digests are the payload's component digests."""
        grid = GridCartesian([2, 2, 2, 2], get_backend("avx512"))
        links = load_gauge(FIXTURE[np.complex128], grid)
        with open(FIXTURE[np.complex128], "rb") as f:
            header, payload = split_file(f.read())
        assert header.magic == "REPRO_GAUGE_V1"
        new = save_gauge(tmp_path / "again.cfg", links, grid)
        assert new.magic == MAGIC == "REPRO_GAUGE_V2"
        assert new.checksums == [component_digest(c) for c in
                                 directions(payload, np.complex128)]
        assert new.payload_crc == header.payload_crc
        assert split_file((tmp_path / "again.cfg").read_bytes())[1] \
            == payload


def test_canonical_digest_matches_old_formula():
    rng = np.random.default_rng(1)
    for dtype in (np.complex128, np.complex64):
        can = (rng.normal(size=(96, 3, 3))
               + 1j * rng.normal(size=(96, 3, 3))).astype(dtype)
        assert canonical_digest(can) == old_digest(can)
    # complex128: a change at the rounding's last digit shows
    assert canonical_digest(can.astype(np.complex128) + 1e-11) != \
        canonical_digest(can.astype(np.complex128))
    # a strided view hashes like its contiguous copy
    assert canonical_digest(can[::2]) == old_digest(can[::2].copy())


class TestForgedFiles:
    @pytest.fixture
    def grid(self):
        return GridCartesian([2, 2, 2, 2], get_backend("generic512"))

    @pytest.fixture
    def parts(self):
        with open(FIXTURE[np.complex128], "rb") as f:
            header, payload = split_file(f.read())
        return header, directions(payload, np.complex128)

    @pytest.mark.parametrize("mu", range(4))
    def test_altered_direction_fails_its_digest(self, tmp_path, grid,
                                                parts, mu):
        header, cans = parts
        cans[mu][5, 1, 2] += 1e-9  # below the unitarity tolerance
        path = tmp_path / "forged.cfg"
        write(path, header, cans)
        with pytest.raises(ConfigFormatError,
                           match=f"checksum mismatch for direction {mu} "):
            load_gauge(path, grid)
        load_gauge(path, grid, verify=False)  # the bytes still parse

    @pytest.mark.parametrize("mu", range(4))
    def test_non_unitary_link_fails_unitarity(self, tmp_path, grid,
                                              parts, mu):
        header, cans = parts
        cans[mu][3] *= 1 + 1e-7  # defect 2e-7 > 1e-7
        header.checksums[mu] = canonical_digest(cans[mu])
        path = tmp_path / "forged.cfg"
        write(path, header, cans)
        with pytest.raises(ConfigFormatError,
                           match=f"direction {mu} links are not unitary"):
            load_gauge(path, grid)

    @pytest.mark.parametrize("offset", (1e-9, 1e-6, -1e-3))
    def test_wrong_header_plaquette(self, tmp_path, grid, parts, offset):
        """A complex128 plaquette is held to 1e-10 absolute, with no
        relative slack: 1e-9 off already fails."""
        header, cans = parts
        header.plaquette += offset
        path = tmp_path / "forged.cfg"
        write(path, header, cans)
        with pytest.raises(ConfigFormatError, match="plaquette mismatch"):
            load_gauge(path, grid)

    def test_untouched_rewrite_loads(self, tmp_path, grid, parts):
        """The forging itself changes nothing the checks see."""
        header, cans = parts
        path = tmp_path / "same.cfg"
        write(path, header, cans)
        with open(FIXTURE[np.complex128], "rb") as f:
            assert path.read_bytes() == f.read()
        load_gauge(path, grid)


@pytest.mark.parametrize("backend", ("generic256", "avx512"))
def test_complex64_round_trip_verifies(tmp_path, backend):
    """``load_gauge(verify=True)`` accepts what ``save_gauge`` writes in
    single precision, whose unitarity defect (~1e-7) sits above the
    double-precision limit; a torn link still fails."""
    from repro.grid.io import verify_limits
    from repro.grid.su3 import max_unitarity_defect, random_su3_field

    grid = GridCartesian([4, 4, 4, 8], get_backend("generic256"),
                         dtype=np.complex64)
    rng = np.random.default_rng(21)
    links = [random_su3_field(grid, rng) for _ in range(4)]
    assert max(max_unitarity_defect(u) for u in links) > 1e-7
    path = tmp_path / "c64.cfg"
    save_gauge(path, links, grid)
    other = GridCartesian([4, 4, 4, 8], get_backend(backend),
                          dtype=np.complex64)
    got = load_gauge(path, other, verify=True)
    for a, u in zip(got, links):
        assert a.to_canonical().tobytes() == u.to_canonical().tobytes()
    assert verify_limits(np.complex128) == (1e-7, 1e-10)
    assert verify_limits(np.complex64)[0] < 1e-4

    header, payload = split_file(path.read_bytes())
    cans = directions(payload, np.complex64)
    cans[2][7] *= np.float32(1 + 1e-3)
    header.checksums[2] = header.digest(cans[2])
    write(path, header, cans)
    with pytest.raises(ConfigFormatError,
                       match="direction 2 links are not unitary"):
        load_gauge(path, other)


def test_complex64_real_part_change_fails_its_digest(tmp_path):
    """A V2 digest covers a complex64 file's real parts: one real part
    moved by 1e-3 (unitarity and plaquette checks off the hook: verify
    stops at the digest), with the CRC recomputed, is a checksum
    mismatch.  The V1 digest of the same change does not move."""
    from repro.grid.su3 import random_su3_field

    grid = GridCartesian([4, 4, 4, 8], get_backend("generic256"),
                         dtype=np.complex64)
    rng = np.random.default_rng(21)
    path = tmp_path / "c64.cfg"
    save_gauge(path, [random_su3_field(grid, rng) for _ in range(4)], grid)
    header, payload = split_file(path.read_bytes())
    cans = directions(payload, np.complex64)
    before = canonical_digest(cans[1])
    cans[1][5, 0, 2] += np.float32(1e-3)
    assert canonical_digest(cans[1]) == before
    write(path, header, cans)
    with pytest.raises(ConfigFormatError,
                       match="checksum mismatch for direction 1 "):
        load_gauge(path, grid)


#: The CI step's list: numpy's complex multiply and ``np.round`` on
#: their baseline loops (unknown names are ignored on other hosts).
BASELINE_DISPATCH = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"

_WRITER = """
import sys
import numpy as np
from repro.grid.cartesian import GridCartesian
from repro.grid.io import save_gauge
from repro.grid.su3 import random_su3_field
from repro.simd import get_backend
grid = GridCartesian([4, 4, 4, 8], get_backend("generic256"))
rng = np.random.default_rng(21)
save_gauge(sys.argv[1], [random_su3_field(grid, rng) for _ in range(4)],
           grid)
"""


@pytest.mark.parametrize("disabled", ("", BASELINE_DISPATCH),
                         ids=("host-dispatch", "baseline-dispatch"))
def test_file_from_other_dispatch_verifies(tmp_path, disabled):
    """A file written by a process under either dispatch verifies in
    this one, whichever dispatch this process runs under."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    path = tmp_path / "written.cfg"
    subprocess.run([sys.executable, "-c", _WRITER, str(path)], env=env,
                   check=True, timeout=120)
    grid = GridCartesian([4, 4, 4, 8], get_backend("avx512"))
    load_gauge(path, grid, verify=True)
