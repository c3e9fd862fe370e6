"""Tests for RQ-RMI / NuevoMatch configuration (Table 4)."""

from repro.core.config import (
    NuevoMatchConfig,
    RQRMIConfig,
    TABLE4_CONFIGS,
    stage_widths_for_rules,
)


class TestTable4:
    def test_boundaries_match_paper(self):
        assert stage_widths_for_rules(500) == [1, 4]
        assert stage_widths_for_rules(5_000) == [1, 4, 16]
        assert stage_widths_for_rules(50_000) == [1, 4, 128]
        assert stage_widths_for_rules(400_000) == [1, 8, 256]
        assert stage_widths_for_rules(2_000_000) == [1, 8, 512]

    def test_all_configs_start_with_width_one(self):
        for _max_rules, _stages, widths in TABLE4_CONFIGS:
            assert widths[0] == 1

    def test_stage_count_matches_table(self):
        for max_rules, stages, widths in TABLE4_CONFIGS:
            assert len(widths) == stages


class TestRQRMIConfig:
    def test_defaults_follow_paper(self):
        config = RQRMIConfig()
        assert config.hidden_units == 8
        assert config.error_threshold == 64

    def test_explicit_widths_override_table(self):
        config = RQRMIConfig(stage_widths=[1, 2])
        assert config.widths_for(1_000_000) == [1, 2]

    def test_widths_for_uses_table_when_unset(self):
        config = RQRMIConfig()
        assert config.widths_for(5_000) == [1, 4, 16]


class TestNuevoMatchConfig:
    def test_defaults(self):
        config = NuevoMatchConfig()
        assert config.min_iset_coverage == 0.25
        assert isinstance(config.rqrmi, RQRMIConfig)

    def test_independent_rqrmi_instances(self):
        a = NuevoMatchConfig()
        b = NuevoMatchConfig()
        a.rqrmi.error_threshold = 128
        assert b.rqrmi.error_threshold == 64
