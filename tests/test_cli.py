import json

import numpy as np
import pytest

from skipdet import cli, zoo
from skipdet.netdef import LayerSpec, NetworkDescriptor, load_network, save_network
from skipdet.network import init_weights


@pytest.fixture(scope="module")
def mini_weighted_net(tmp_path_factory):
    net = NetworkDescriptor("mini", (3, 32, 32), (
        LayerSpec.conv(3, 4, 3, pad=1, activation="leaky", alpha=0.1),
        LayerSpec.maxpool2(),
        LayerSpec.conv(4, 8, 3, pad=1, activation="leaky", alpha=0.1),
        LayerSpec.maxpool2(),
        LayerSpec.conv(8, 12, 1),
        LayerSpec.detect_head(grid=8, anchors=2, classes=1),
    ))
    path = tmp_path_factory.mktemp("nets") / "mini.fnet"
    save_network(path, net, init_weights(net, seed=13))
    return str(path)


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenes") / "moving"
    rc = cli.run_cli(["synth", "--set", f"out={out}", "--set", "frames=12",
                      "--set", "size=32", "--set", "schedule=1-8:moving,9-12:frozen",
                      "--set", "velocity=3,2", "--set", "seed=2"])
    assert rc == 0
    return str(out)


def read_report(path):
    return json.loads(open(path).read())


class TestConfigHandling:
    def test_unknown_key_rejected(self, capsys):
        rc = cli.run_cli(["profile", "--set", "network=vgg16", "--set", "florps=3"])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_required_key(self, capsys):
        rc = cli.run_cli(["detect", "--set", "network=x.fnet"])
        assert rc == 1
        assert "missing required" in capsys.readouterr().err

    def test_config_file_and_set_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nnetwork=vgg16\nresolution=112\n")
        rc = cli.run_cli(["profile", "--config", str(cfg),
                          "--set", "resolution=224"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "input=(3, 224, 224)" in out  # --set wins over the file

    def test_garbled_set_rejected(self, capsys):
        rc = cli.run_cli(["profile", "--set", "network"])
        assert rc == 1
        assert "key=value" in capsys.readouterr().err

    def test_undecodable_config_names_path_and_byte(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"network=\xffvgg16\n")
        rc = cli.run_cli(["profile", "--config", str(cfg)])
        assert rc == 1
        assert f"skipdet profile: error: {cfg}: byte 8: cannot decode utf-8" \
            in capsys.readouterr().err


class TestProfile:
    def test_bundled_vgg16_flop_figure(self, capsys):
        rc = cli.run_cli(["profile", "--set", "network=vgg16", "--set", "resolution=224"])
        assert rc == 0
        out = capsys.readouterr().out
        flops = int(out.split("flops=")[1].split()[0])
        assert abs(flops - 30.69e9) <= 0.02 * 30.69e9

    def test_weighted_file_reports_stored_params(self, mini_weighted_net, capsys):
        rc = cli.run_cli(["profile", "--set", f"network={mini_weighted_net}"])
        assert rc == 0
        assert "stored-params=" in capsys.readouterr().out


class TestDetectRunEquivalence:
    def test_always_mode_matches_detect_byte_for_byte(self, mini_weighted_net,
                                                      scene_dir, tmp_path):
        det = tmp_path / "det.txt"
        al = tmp_path / "always.txt"
        assert cli.run_cli(["detect", "--set", f"input={scene_dir}",
                            "--set", f"network={mini_weighted_net}",
                            "--set", f"out={det}"]) == 0
        assert cli.run_cli(["run", "--set", f"input={scene_dir}",
                            "--set", f"network={mini_weighted_net}",
                            "--set", "mode=always", "--set", f"out={al}"]) == 0
        assert det.read_bytes() == al.read_bytes()

    def test_gated_run_report(self, mini_weighted_net, scene_dir, tmp_path):
        out = tmp_path / "g.txt"
        rep = tmp_path / "g.json"
        assert cli.run_cli(["run", "--set", f"input={scene_dir}",
                            "--set", f"network={mini_weighted_net}",
                            "--set", f"out={out}", "--set", f"report={rep}"]) == 0
        doc = read_report(rep)
        assert doc["frames"] == 12
        assert doc["decisions"][0] == 1
        assert doc["inferences"] == sum(doc["decisions"])
        # moving frames 2..8 infer, frozen tail is skipped
        assert doc["inferences"] == 8
        assert doc["config"]["mode"] == "gated"

    def test_echoed_config_reproduces_report(self, mini_weighted_net, scene_dir,
                                             tmp_path):
        rep1, rep2 = tmp_path / "r1.json", tmp_path / "r2.json"
        out = tmp_path / "o.txt"
        assert cli.run_cli(["run", "--set", f"input={scene_dir}",
                            "--set", f"network={mini_weighted_net}",
                            "--set", f"out={out}", "--set", f"report={rep1}"]) == 0
        echoed = read_report(rep1)["config"]
        cfg = tmp_path / "echo.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in echoed.items()
                               if k != "report"))
        assert cli.run_cli(["run", "--config", str(cfg),
                            "--set", f"report={rep2}"]) == 0
        d1, d2 = read_report(rep1), read_report(rep2)
        for doc in (d1, d2):
            doc.pop("wall-time")
            doc.pop("frames-per-second")
            doc["config"].pop("report")
        assert d1 == d2


class TestGateWeightsFile:
    def test_custom_gate_layer_loaded_from_fnet(self, mini_weighted_net, scene_dir,
                                                tmp_path):
        # a gate that never sees motion: zero weights -> zero map -> one inference
        gate_net = NetworkDescriptor("gate", (6, 32, 32),
                                     (LayerSpec.conv(6, 1, 1),))
        gate_path = tmp_path / "gate.fnet"
        save_network(gate_path, gate_net, init_weights(gate_net, 0).with_masks(
            {0: np.zeros((1, 6, 1, 1), np.uint8)}))
        rep = tmp_path / "rep.json"
        assert cli.run_cli(["run", "--set", f"input={scene_dir}",
                            "--set", f"network={mini_weighted_net}",
                            "--set", f"out={tmp_path / 'out.txt'}",
                            "--set", f"report={rep}",
                            "--set", f"gate.weights_file={gate_path}"]) == 0
        assert read_report(rep)["inferences"] == 1


class TestAnchorsCommand:
    def test_prints_parseable_anchors(self, scene_dir, capsys):
        rc = cli.run_cli(["anchors", "--set", f"truth={scene_dir}/truth.txt",
                          "--set", "k=2", "--set", "grid=8"])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("anchors=")
        pairs = [tuple(map(float, p.split(","))) for p in line[8:].split(";")]
        assert len(pairs) == 2 and all(w > 0 and h > 0 for w, h in pairs)


class TestEvolveCommand:
    def test_micro_evolution_writes_lineage(self, mini_weighted_net, tmp_path,
                                            capsys):
        out = tmp_path / "lineage"
        rc = cli.run_cli(["evolve", "--set", f"network={mini_weighted_net}",
                          "--set", f"out={out}", "--set", "gamma=0.9",
                          "--set", "generations=1", "--set", "epochs=1",
                          "--set", "frames=16", "--set", "holdout=4",
                          "--set", "size=32", "--set", "batch=4"])
        assert rc == 0
        doc = json.loads((out / "lineage.json").read_text())
        assert [e["generation"] for e in doc["entries"]] == [0, 1]
        assert doc["entries"][1]["param-count"] < doc["entries"][0]["param-count"]
        net, store = load_network(out / "gen_1.fnet")
        assert store.has_masks()

    def test_descriptor_only_network_rejected(self, tmp_path, capsys):
        path = tmp_path / "tiny.fnet"
        save_network(path, zoo.tiny_detector())
        rc = cli.run_cli(["evolve", "--set", f"network={path}",
                          "--set", f"out={tmp_path}", "--set", "gamma=0.9",
                          "--set", "generations=1"])
        assert rc == 1
        assert "descriptor-only" in capsys.readouterr().err


class TestSynthCommand:
    def test_bad_schedule_is_one_line_error(self, tmp_path, capsys):
        rc = cli.run_cli(["synth", "--set", f"out={tmp_path}/x",
                          "--set", "frames=10", "--set", "schedule=1-5:moving"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "schedule" in err


class TestCrossProcessDeterminism:
    def test_reports_identical_across_processes(self, mini_weighted_net,
                                                scene_dir, tmp_path):
        import subprocess
        import sys

        reports = []
        for n in range(2):
            rep = tmp_path / f"rep{n}.json"
            cmd = [sys.executable, "-m", "skipdet.cli", "run",
                   "--set", f"input={scene_dir}",
                   "--set", f"network={mini_weighted_net}",
                   "--set", f"out={tmp_path / f'det{n}.txt'}",
                   "--set", f"report={rep}"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            doc = read_report(rep)
            doc.pop("wall-time")
            doc.pop("frames-per-second")
            doc["config"].pop("report")
            doc["config"].pop("out")
            reports.append(doc)
        assert reports[0] == reports[1]
        assert (tmp_path / "det0.txt").read_bytes() == (tmp_path / "det1.txt").read_bytes()


class _RecordingConfig(dict):
    """An effective config that remembers which keys its handler looked up."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


class TestEveryConfigKeyIsRead:
    """A default key that its handler never looks up is a key that does
    nothing; every subcommand must read all of its keys on a plain run."""

    @pytest.mark.parametrize("command", sorted(cli.SUBCOMMANDS))
    def test_handler_reads_every_default_key(self, command, mini_weighted_net, scene_dir,
                                             tmp_path, monkeypatch):
        configs = []
        effective = cli._effective_config

        def recording(*args):
            configs.append(_RecordingConfig(effective(*args)))
            return configs[-1]

        monkeypatch.setattr(cli, "_effective_config", recording)
        detect = {"input": scene_dir, "network": mini_weighted_net, "out": tmp_path / "det.txt"}
        small_training = {"frames": 4, "holdout": 2, "epochs": 1}
        keys = {
            "synth": {"out": tmp_path / "scene", "frames": 4, "size": 16,
                      "schedule": "1-4:moving"},
            "train-tiny": {"out": tmp_path / "tiny.fnet", **small_training},
            "detect": detect,
            "run": detect,
            "profile": {"network": "tiny"},
            "anchors": {"truth": f"{scene_dir}/truth.txt", "grid": 8},
            "evolve": {"network": mini_weighted_net, "out": tmp_path / "lineage",
                       "gamma": 0.9, "generations": 1, "size": 32, **small_training},
        }[command]
        argv = [command] + [arg for k, v in keys.items() for arg in ("--set", f"{k}={v}")]
        assert cli.run_cli(argv) == 0
        (cfg,) = configs
        assert set(cli.SUBCOMMANDS[command][1]) - cfg.read == set()
