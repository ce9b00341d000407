"""Device builders and the platform registry (Tables 2 & 3)."""

import pytest

from repro.devices import (
    DEVICES,
    build_device,
    imx53_qsb,
    platform_table,
    probe_table,
    raspberry_pi_3,
    raspberry_pi_4,
)
from repro.errors import AttackError


class TestRegistry:
    def test_all_three_platforms_present(self):
        assert set(DEVICES) == {"rpi4", "rpi3", "imx53"}

    def test_lookup(self):
        info = DEVICES["rpi4"]
        assert info.soc == "BCM2711"
        assert info.probe_pad == "TP15"
        assert info.nominal_v == pytest.approx(0.8)

    def test_platform_table_shape(self):
        rows = platform_table()
        assert len(rows) == 3
        assert {row["soc"] for row in rows} == {"BCM2711", "BCM2837", "i.MX535"}

    def test_probe_table_lists_pads(self):
        pads = {row["pad"] for row in probe_table()}
        assert pads == {"TP15", "PP58", "SH13"}


class TestBuilders:
    def test_build_device_dispatch(self):
        board = build_device("imx53", seed=701)
        assert board.soc.config.name == "i.MX535"

    def test_build_unknown_rejected(self):
        with pytest.raises(AttackError):
            build_device("esp32")

    def test_pi4_shape(self):
        board = raspberry_pi_4(seed=702)
        assert len(board.soc.cores) == 4
        unit = board.soc.core(0)
        assert unit.l1d.geometry.size_bytes == 32768
        assert unit.l1d.geometry.ways == 2
        assert unit.l1i.geometry.size_bytes == 49152
        assert board.soc.l2 is not None
        assert board.soc.videocore is not None
        assert board.soc.iram is None

    def test_pi3_shape(self):
        board = raspberry_pi_3(seed=703)
        assert len(board.soc.cores) == 4
        assert board.soc.core(0).l1d.geometry.ways == 4
        # Footnote 4: the BCM2837 i-cache uses a private bit interleave.
        assert board.soc.core(0).l1i._interleave is not None

    def test_imx53_shape(self):
        board = imx53_qsb(seed=704)
        assert len(board.soc.cores) == 1
        assert board.soc.iram is not None
        assert board.soc.iram.size_bytes == 131072
        assert board.soc.iram.base_addr == 0xF8000000
        assert board.soc.videocore is None
        assert board.soc.bootrom.internal_boot

    def test_registry_voltages_match_hardware(self):
        for key, builder in (
            ("rpi4", raspberry_pi_4),
            ("rpi3", raspberry_pi_3),
            ("imx53", imx53_qsb),
        ):
            info = DEVICES[key]
            board = builder(seed=705)
            domain_name = info.probe_net
            domain = board.soc.pmu.domain(domain_name)
            assert domain.nominal_v == pytest.approx(info.nominal_v)

    def test_seeds_decorrelate_fingerprints(self):
        a = raspberry_pi_4(seed=1).soc.core(0).l1d.raw_way_image(0)
        b = raspberry_pi_4(seed=2).soc.core(0).l1d.raw_way_image(0)
        assert a != b

    def test_same_seed_reproduces_board(self):
        a = raspberry_pi_4(seed=3).soc.core(0).l1d.raw_way_image(0)
        b = raspberry_pi_4(seed=3).soc.core(0).l1d.raw_way_image(0)
        assert a == b

    def test_countermeasure_toggles(self):
        board = raspberry_pi_4(
            seed=706, trustzone_enforced=True, mbist_enabled=True, auth_boot=True
        )
        assert board.soc.config.trustzone_enforced
        assert board.soc.mbist.enabled
        assert board.soc.bootrom.auth_fused
