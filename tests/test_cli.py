"""Command line behavior: subcommands, exit codes, env fallbacks."""

from __future__ import annotations

import json
import shutil
import subprocess

import numpy as np
import pytest

from voxfeat.audio_io import AudioBuffer, write_wav
from voxfeat.cli import build_parser, main
from voxfeat.config import PipelineConfig
from voxfeat.featdict import featdict_text

SR = 16000


def make_wav(path, freq=220.0, seconds=0.6, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(int(SR * seconds)) / SR
    x = 0.4 * np.sin(2 * np.pi * freq * t) + 0.01 * rng.standard_normal(t.size)
    write_wav(AudioBuffer(np.clip(x, -1.0, 1.0), SR), path)


@pytest.fixture()
def audio_dir(tmp_path):
    d = tmp_path / "audio"
    d.mkdir()
    make_wav(d / "a.wav", 220.0, seed=1)
    make_wav(d / "b.wav", 330.0, seed=2)
    (d / "a.txt").write_text("she sells sea shells by the sea shore\n")
    return d


def toy_csv(path, n=40, seed=0):
    rng = np.random.default_rng(seed)
    y = np.repeat([0, 1], n // 2)
    sig = 2.0 * y + 0.1 * rng.standard_normal(n)
    noise = rng.standard_normal(n)
    with open(path, "w") as fh:
        fh.write("row_id,sig,noise,target\n")
        for i in range(n):
            fh.write(f"r{i:02d},{float(sig[i])!r},{float(noise[i])!r},{y[i]}\n")


class TestExtract:
    def test_happy_path_exit_zero(self, audio_dir, tmp_path, capsys):
        out = tmp_path / "features.csv"
        rc = main(["extract", str(audio_dir), str(out)])
        assert rc == 0
        assert out.is_file()
        assert out.with_suffix(".manifest.json").is_file()
        assert "2 rows" in capsys.readouterr().out

    def test_partial_failure_exit_one(self, audio_dir, tmp_path, capsys):
        (audio_dir / "zz.wav").write_bytes(b"RIFFnot really")
        rc = main(["extract", str(audio_dir), str(tmp_path / "f.csv")])
        assert rc == 1
        assert "zz" in capsys.readouterr().err

    def test_missing_dir_exit_two(self, tmp_path, capsys):
        rc = main(["extract", str(tmp_path / "nope"), str(tmp_path / "f.csv")])
        assert rc == 2
        assert "voxfeat: error:" in capsys.readouterr().err

    def test_transcripts_flag(self, tmp_path):
        audio = tmp_path / "audio"
        text = tmp_path / "text"
        audio.mkdir()
        text.mkdir()
        make_wav(audio / "x.wav")
        (text / "x.txt").write_text("one two three four\n")
        out = tmp_path / "f.csv"
        rc = main(["extract", str(audio), str(out), "--transcripts", str(text)])
        assert rc == 0
        row = out.read_text().splitlines()[1]
        header = out.read_text().splitlines()[0].split(",")
        ttr = row.split(",")[header.index("type_token_ratio")]
        assert ttr != "nan"

    def test_jobs_flag_accepted(self, audio_dir, tmp_path):
        rc = main(["--jobs", "2", "extract", str(audio_dir),
                   str(tmp_path / "f.csv")])
        assert rc == 0


class TestAnalyze:
    def test_happy_path_writes_artifacts(self, tmp_path, capsys):
        csv = tmp_path / "toy.csv"
        toy_csv(csv)
        out = tmp_path / "analysis"
        rc = main(["analyze", str(csv), str(out)])
        assert rc == 0
        for name in ("report.json", "kept_features.txt", "ranking.csv",
                     "curve.csv", "curve.svg"):
            assert (out / name).is_file()

    def test_missing_target_exit_two_names_stage(self, tmp_path, capsys):
        csv = tmp_path / "nt.csv"
        csv.write_text("row_id,a,b\nr0,1.0,2.0\nr1,2.0,4.0\nr2,0.1,0.5\n")
        rc = main(["analyze", str(csv), str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "task" in err
        assert "target" in err


class TestOutsideInputExitTwo:
    """Malformed outside input stops the run with a named error: exit 2 and
    one "voxfeat: error:" line naming the file, never a traceback."""

    def analyze(self, tmp_path, capsys, text):
        csv = tmp_path / "t.csv"
        csv.write_text(text)
        rc = main(["analyze", str(csv), str(tmp_path / "out")])
        return rc, capsys.readouterr().err

    def extract(self, audio_dir, tmp_path, capsys, cfg):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(cfg))
        rc = main(["--config", str(cfgp), "extract", str(audio_dir), str(tmp_path / "f.csv")])
        return rc, capsys.readouterr().err

    def test_repeated_row_id(self, tmp_path, capsys):
        rc, err = self.analyze(tmp_path, capsys, "row_id,a,target\nr0,1.0,0\nr0,2.0,1\n")
        assert rc == 2
        assert "voxfeat: error: stage 'load': " in err
        assert "t.csv: row id 'r0' appears more than once" in err

    def test_repeated_column_name(self, tmp_path, capsys):
        rc, err = self.analyze(tmp_path, capsys, "row_id,a,a,target\nr0,1,2,0\nr1,2,3,1\n")
        assert rc == 2
        assert "voxfeat: error: stage 'load': " in err
        assert "t.csv: column name 'a' appears more than once" in err

    def test_too_few_rows_for_the_folds(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        rows = [f"r{i},{rng.normal()!r},{rng.normal()!r},{i % 2}" for i in range(6)]
        rc, err = self.analyze(tmp_path, capsys, "\n".join(["row_id,a,b,target", *rows]) + "\n")
        assert rc == 2
        assert ("voxfeat: error: stage 'cv_curve': 5 folds leave an empty fold for 6 rows"
                in err)

    def test_bad_valence_line(self, audio_dir, tmp_path, capsys):
        (tmp_path / "v.csv").write_text("word,valence\nhappy,abc\n")
        rc, err = self.extract(audio_dir, tmp_path, capsys,
                               {"sentiment": True, "valence_path": "v.csv"})
        assert rc == 2
        assert "voxfeat: error: " in err
        assert "v.csv:2: bad valence 'abc'" in err

    def test_bad_embedding_row(self, audio_dir, tmp_path, capsys):
        (tmp_path / "e.txt").write_text("a 1 2\nb x 3\n")
        rc, err = self.extract(audio_dir, tmp_path, capsys,
                               {"coherence": True, "embeddings_path": "e.txt"})
        assert rc == 2
        assert "voxfeat: error: " in err
        assert "e.txt:2: " in err and "'x'" in err

    @pytest.mark.parametrize("cfg", [{"frame_seconds": True}, {"hop_seconds": True},
                                     {"hop_seconds": 0.05}])
    def test_bad_framing_config(self, tmp_path, capsys, cfg):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(cfg))
        rc = main(["--config", str(cfgp), "featdict", str(tmp_path / "fd.tsv")])
        assert rc == 2
        assert f"voxfeat: error: {next(iter(cfg))}" in capsys.readouterr().err


class TestFeatdict:
    def test_writes_expected_bytes(self, tmp_path):
        out = tmp_path / "fd.tsv"
        rc = main(["featdict", str(out)])
        assert rc == 0
        assert out.read_text(encoding="utf-8") == featdict_text(PipelineConfig())

    def test_identical_bytes_twice(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(["featdict", str(a)]) == 0
        assert main(["featdict", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cycle_series_run_over_cycle_pairs(self, tmp_path):
        # jitter and shimmer hold one term per adjacent cycle pair, HNR one per frame
        out = tmp_path / "fd.tsv"
        assert main(["featdict", str(out)]) == 0
        formulas = dict(line.split("\t")[::3] for line in out.read_text().splitlines())
        for name in ("jitter_stddev", "shimmer_stddev"):
            assert formulas[name].endswith("; population stddev over adjacent cycle pairs")
        assert formulas["hnr_stddev"].endswith("; population stddev over frames")


class TestConfigPlumbing:
    def test_config_flag_loads_json(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"syntax": False}))
        out = tmp_path / "fd.tsv"
        rc = main(["--config", str(cfgp), "featdict", str(out)])
        assert rc == 0
        body = out.read_text()
        assert "pos_count_NOUN\ttext.syntax\tinactive" in body

    def test_bad_config_exit_two(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"window": "flat"}))
        rc = main(["--config", str(cfgp), "featdict", str(tmp_path / "x.tsv")])
        assert rc == 2
        assert "window" in capsys.readouterr().err

    def test_bad_analyze_config_exit_two(self, tmp_path, capsys):
        csv = tmp_path / "toy.csv"
        toy_csv(csv)
        cfgp = tmp_path / "bad.json"
        cfgp.write_text(json.dumps({"analyze": {"low_variance_threshold": "0.1"}}))
        rc = main(["--config", str(cfgp), "analyze", str(csv), str(tmp_path / "out")])
        assert rc == 2
        assert "low_variance_threshold" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path):
        csv = tmp_path / "toy.csv"
        toy_csv(csv)
        out = tmp_path / "out"
        rc = main(["--seed", "9", "analyze", str(csv), str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 9

    @pytest.mark.parametrize("flag, env", [(["--seed", "-1"], None), ([], "-1")])
    def test_seed_override_is_validated(self, tmp_path, monkeypatch, capsys, flag, env):
        if env is not None:
            monkeypatch.setenv("VOXFEAT_SEED", env)
        out = tmp_path / "fd.tsv"
        assert main([*flag, "featdict", str(out)]) == 2
        assert capsys.readouterr().err.startswith("voxfeat: error: seed must be ")
        assert not out.exists()

    def test_env_config_fallback(self, tmp_path, monkeypatch):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"complexity": False}))
        monkeypatch.setenv("VOXFEAT_CONFIG", str(cfgp))
        out = tmp_path / "fd.tsv"
        assert main(["featdict", str(out)]) == 0
        assert "type_token_ratio\ttext.complexity\tinactive" in out.read_text()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        csv = tmp_path / "toy.csv"
        toy_csv(csv)
        monkeypatch.setenv("VOXFEAT_SEED", "13")
        out = tmp_path / "out"
        assert main(["analyze", str(csv), str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["seed"] == 13

    def test_env_jobs_bad_int_exit_two(self, audio_dir, tmp_path, monkeypatch,
                                       capsys):
        monkeypatch.setenv("VOXFEAT_JOBS", "many")
        rc = main(["extract", str(audio_dir), str(tmp_path / "f.csv")])
        assert rc == 2
        assert "VOXFEAT_JOBS" in capsys.readouterr().err

    def test_env_vars_documented_in_help(self):
        epilog = build_parser().epilog
        for var in ("VOXFEAT_CONFIG", "VOXFEAT_JOBS", "VOXFEAT_SEED"):
            assert var in epilog


class TestConsoleScript:
    @pytest.mark.skipif(shutil.which("voxfeat") is None,
                        reason="console script not installed")
    def test_installed_entry_point_runs(self, tmp_path):
        out = tmp_path / "fd.tsv"
        proc = subprocess.run(["voxfeat", "featdict", str(out)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert out.is_file()
