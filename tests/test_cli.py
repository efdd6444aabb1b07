import importlib
import json
import re
import subprocess
import sys
import textwrap
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

from skipdet import cli, detector, netdef, pipeline, ppm, synth, zoo
from skipdet.motion import GatingPolicy
from skipdet.netdef import LayerSpec, NetworkDescriptor, load_network, save_network
from skipdet.network import init_weights

import faults


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

    def test_config_file_line_needs_an_equals_sign(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("network=vgg16\nresolution\n")
        assert cli.run_cli(["profile", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"skipdet profile: error: {cfg}:2: expected key=value, got 'resolution'\n")

    @pytest.mark.parametrize("key,value,message", [
        ("resolution", "48x", "size must be an integer or WxH, got '48x'"),
        ("resolution", "4.5", "size must be an integer or WxH, got '4.5'"),
        ("mode", "sometimes", "mode must be one of ('gated', 'always'), got 'sometimes'"),
        ("anchors", "1,1;2", "anchors must look like 'w,h;w,h', got '1,1;2'"),
    ])
    def test_bad_value_is_a_one_line_error(self, key, value, message, mini_weighted_net,
                                           scene_dir, tmp_path, capsys):
        command = "profile" if key == "resolution" else "run"
        argv = [command, "--set", f"network={mini_weighted_net}", "--set", f"{key}={value}"]
        if command == "run":
            argv += ["--set", f"input={scene_dir}", "--set", f"out={tmp_path / 'out.txt'}"]
        assert cli.run_cli(argv) == 1
        assert capsys.readouterr().err == f"skipdet {command}: error: {message}\n"

    def test_resolution_is_width_by_height(self, capsys):
        assert cli.run_cli(["profile", "--set", "network=vgg16",
                            "--set", "resolution=448x224"]) == 0
        assert "input=(3, 224, 448)" in capsys.readouterr().out

    def test_parser_is_built_once_and_keeps_no_values(self, capsys):
        assert cli._parser() is cli._parser()
        assert cli.run_cli(["profile", "--set", "network=vgg16",
                            "--set", "resolution=64"]) == 0
        assert "input=(3, 64, 64)" in capsys.readouterr().out
        # Neither --set value carries over into the next call.
        assert cli.run_cli(["profile"]) == 1
        assert "missing required config keys: network" in capsys.readouterr().err
        assert cli.run_cli(["profile", "--set", "network=vgg16"]) == 0
        assert "input=(3, 224, 224)" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["-h"], ["run", "-h"], ["train-tiny", "--help"]])
    def test_help_matches_a_freshly_built_parser(self, argv, capsys):
        with pytest.raises(SystemExit):
            cli._parser.__wrapped__().parse_args(argv)
        want = capsys.readouterr().out
        assert want.startswith("usage: skipdet")
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.run_cli(argv)
            assert exc.value.code == 0
            assert capsys.readouterr().out == want

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


    def test_masked_file_reports_effective_flops(self, mini_weighted_net, tmp_path, capsys):
        net, store = load_network(mini_weighted_net)
        masks = {i: (np.arange(store[i].kernel.size) % 3 > 0).reshape(store[i].kernel.shape)
                 for i in net.conv_indices()}
        path = tmp_path / "masked.fnet"
        save_network(path, net, store.with_masks(masks))
        assert cli.run_cli(["profile", "--set", f"network={path}"]) == 0
        masked = store.with_masks(masks)
        effective = netdef.effective_flops(net, net.input_shape, masked)
        assert capsys.readouterr().out == (
            f"network=mini input=(3, 32, 32) params={netdef.count_params(net)} "
            f"flops={netdef.count_flops(net, net.input_shape)} "
            f"stored-params={netdef.count_params(net, masked)} "
            f"effective-flops={effective:.0f}\n")
        assert effective < netdef.count_flops(net, net.input_shape)

    def test_bundled_darknet19_flop_figure(self, capsys):
        # YOLO9000 gives Darknet-19 5.58 billion operations at 224x224
        assert cli.run_cli(["profile", "--set", "network=darknet19"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("network=darknet19 input=(3, 224, 224) params=20835176 flops=")
        assert round(int(out.split("flops=")[1]) / 1e9, 2) == 5.58


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


def test_run_gate_defaults_are_the_policy_defaults():
    defaults = cli.SUBCOMMANDS["run"][1]
    assert (defaults["gate.p0"], defaults["gate.tau"], defaults["gate.force_every"]) == (
        "0.1", "0.002", "0")
    got, want = cli._gate_from_config(defaults, 3), GatingPolicy.default(3)
    for name in ("pixel_threshold", "area_threshold", "force_every"):
        assert getattr(got, name) == getattr(want, name), name


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


class TestChecksAgainstTheNetwork:
    """A config that cannot fit the network fails at load, naming the key or
    file, before any scene is made, frame is inferred or file is written."""

    @pytest.mark.parametrize("command", ["detect", "run"])
    def test_anchor_count_checked_before_inference(self, command, mini_weighted_net,
                                                   scene_dir, tmp_path, capsys):
        out = tmp_path / "det.txt"
        rc = cli.run_cli([command, "--set", f"input={scene_dir}",
                          "--set", f"network={mini_weighted_net}",
                          "--set", f"out={out}", "--set", "anchors=0.9,0.9"])
        assert rc == 1
        assert (f"anchors: 1 priors given, but {mini_weighted_net} has 2 anchor slots"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_anchor_count_checked_before_scenes(self, tmp_path, monkeypatch, capsys):
        made = []
        monkeypatch.setattr(synth, "random_detection_scenes", lambda *a, **k: made.append(a))
        rc = cli.run_cli(["train-tiny", "--set", f"out={tmp_path / 't.fnet'}",
                          "--set", "anchors=0.9,0.9;1.8,1.8;3,3"])
        assert rc == 1
        assert "anchors: 3 priors given, but tiny has 2 anchor slots" in capsys.readouterr().err
        assert made == []

    @pytest.mark.parametrize("key,value,message", [
        ("lr", "inf", "learning rate must be positive and finite, got inf"),
        ("lr", "0", "learning rate must be positive and finite, got 0.0"),
        ("batch", "0", "batch size must be positive, got 0"),
        ("epochs", "-1", "epochs must be non-negative, got -1"),
    ])
    def test_train_config_checked_before_scenes(self, key, value, message, tmp_path,
                                                monkeypatch, capsys):
        made = []
        monkeypatch.setattr(synth, "random_detection_scenes", lambda *a, **k: made.append(a))
        out = tmp_path / "t.fnet"
        rc = cli.run_cli(["train-tiny", "--set", f"out={out}", "--set", f"{key}={value}"])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert made == [] and not out.exists()

    def test_evolve_needs_a_detect_head(self, tmp_path, capsys):
        net = NetworkDescriptor("headless", (3, 8, 8), (LayerSpec.conv(3, 2, 1),))
        path = tmp_path / "headless.fnet"
        save_network(path, net, init_weights(net, 0))
        rc = cli.run_cli(["evolve", "--set", f"network={path}", "--set", f"out={tmp_path}",
                          "--set", "gamma=0.9", "--set", "generations=1"])
        assert rc == 1
        assert f"{path}: this command needs a detect-head network" in capsys.readouterr().err

    def test_gate_channels_checked_before_inference(self, mini_weighted_net, scene_dir,
                                                    tmp_path, capsys):
        gate_net = NetworkDescriptor("gate", (2, 4, 4), (LayerSpec.conv(2, 1, 1),))
        gate_path = tmp_path / "gate.fnet"
        save_network(gate_path, gate_net, init_weights(gate_net, 0))
        out = tmp_path / "det.txt"
        rc = cli.run_cli(["run", "--set", f"input={scene_dir}",
                          "--set", f"network={mini_weighted_net}", "--set", f"out={out}",
                          "--set", f"gate.weights_file={gate_path}"])
        assert rc == 1
        assert (f"{gate_path}: a gate for 3-channel frames must be exactly one linear 1x1 conv "
                f"from 6 channels to one output" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("layers", [
        (LayerSpec.conv(6, 1, 1, activation="sigmoid"),),
        (LayerSpec.conv(6, 1, 1), LayerSpec.pointwise("sigmoid")),
        (LayerSpec.conv(6, 1, 3, pad=1),),
    ], ids=["sigmoid-act", "pointwise-after", "3x3"])
    def test_gate_file_must_be_one_linear_1x1_conv(self, layers, mini_weighted_net, scene_dir,
                                                    tmp_path, monkeypatch, capsys):
        gate_net = NetworkDescriptor("gate", (6, 4, 4), layers)
        gate_path = tmp_path / "gate.fnet"
        save_network(gate_path, gate_net, init_weights(gate_net, 0))
        read = []
        monkeypatch.setattr(ppm, "read_ppm", read.append)
        out = tmp_path / "det.txt"
        rc = cli.run_cli(["run", "--set", f"input={scene_dir}",
                          "--set", f"network={mini_weighted_net}", "--set", f"out={out}",
                          "--set", f"gate.weights_file={gate_path}"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"skipdet run: error: {gate_path}: a gate for 3-channel frames must be exactly "
            f"one linear 1x1 conv from 6 channels to one output, stride 1 and no padding\n")
        assert read == [] and not out.exists()

    @pytest.mark.parametrize("key", ["network", "gate.weights_file"])
    def test_corrupt_fnet_error_names_the_file(self, key, mini_weighted_net, scene_dir,
                                               tmp_path, capsys):
        bad = tmp_path / "bad.fnet"
        bad.write_bytes(Path(mini_weighted_net).read_bytes().replace(b"FNET v1", b"FNET v2"))
        files = {"network": mini_weighted_net, key: bad}
        out = tmp_path / "det.txt"
        rc = cli.run_cli(["run", "--set", f"input={scene_dir}", "--set", f"out={out}",
                          *[arg for k, v in files.items() for arg in ("--set", f"{k}={v}")]])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"skipdet run: error: {bad}: bad magic 'FNET v2', expected 'FNET v1' (byte 0)\n")
        assert not out.exists()


class TestNegativeCounts:
    """A negative count or seed fails at load, naming its key, before any
    scene is made or any file is read or written."""

    @pytest.mark.parametrize("command,key", [
        ("synth", "frames"), ("synth", "seed"), ("anchors", "seed"),
        ("train-tiny", "frames"), ("train-tiny", "holdout"), ("train-tiny", "seed"),
        ("evolve", "frames"), ("evolve", "holdout"), ("evolve", "seed"),
    ])
    def test_rejected_before_scenes_and_files(self, command, key, tmp_path, monkeypatch,
                                              capsys):
        touched = []
        monkeypatch.setattr(synth, "random_detection_scenes", lambda *a, **k: touched.append(a))
        monkeypatch.setattr(synth, "write_scene", lambda *a: touched.append(a))
        monkeypatch.setattr(detector, "parse_detection_file", touched.append)
        monkeypatch.setattr(netdef, "load_network", touched.append)
        required = {
            "synth": {"out": tmp_path / "scene"},
            "anchors": {"truth": tmp_path / "truth.txt"},
            "train-tiny": {"out": tmp_path / "tiny.fnet"},
            "evolve": {"network": tmp_path / "net.fnet", "out": tmp_path / "lineage",
                       "gamma": 0.9, "generations": 1},
        }[command]
        argv = [command] + [arg for k, v in {**required, key: -1}.items()
                            for arg in ("--set", f"{k}={v}")]
        assert cli.run_cli(argv) == 1
        assert f"config key {key}='-1' is negative" in capsys.readouterr().err
        assert touched == []
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("key,value,message", [
        ("gamma", "0", "gamma must lie in (0, 1], got 0.0"),
        ("gamma", "abc", "config key gamma='abc' is not a number"),
        ("generations", "0", "config key generations='0' is not a positive integer"),
        ("generations", "x", "config key generations='x' is not an integer"),
    ])
    def test_evolve_settings_rejected_before_scenes_and_files(self, key, value, message,
                                                              tmp_path, monkeypatch, capsys):
        touched = []
        monkeypatch.setattr(synth, "random_detection_scenes", lambda *a, **k: touched.append(a))
        monkeypatch.setattr(netdef, "load_network", touched.append)
        settings = {"network": tmp_path / "net.fnet", "out": tmp_path / "lineage",
                    "gamma": 0.9, "generations": 1, key: value}
        argv = ["evolve"] + [arg for k, v in settings.items() for arg in ("--set", f"{k}={v}")]
        assert cli.run_cli(argv) == 1
        assert message in capsys.readouterr().err
        assert touched == []
        assert list(tmp_path.iterdir()) == []


class TestAnchorsCommand:
    def test_prints_parseable_anchors(self, scene_dir, capsys):
        rc = cli.run_cli(["anchors", "--set", f"truth={scene_dir}/truth.txt",
                          "--set", "k=2", "--set", "grid=8"])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("anchors=")
        pairs = [tuple(map(float, p.split(","))) for p in line[8:].split(";")]
        assert len(pairs) == 2 and all(w > 0 and h > 0 for w, h in pairs)

    def test_out_writes_the_printed_anchors(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "anchors.txt"
        rc = cli.run_cli(["anchors", "--set", f"truth={scene_dir}/truth.txt",
                          "--set", "k=2", "--set", "grid=8", "--set", f"out={out}"])
        assert rc == 0
        assert out.read_text() == capsys.readouterr().out[len("anchors="):]

    @pytest.mark.parametrize("grid", ["0", "-2"])
    def test_grid_checked_before_the_truth_file(self, grid, tmp_path, monkeypatch, capsys):
        read = []
        monkeypatch.setattr(detector, "parse_detection_file", read.append)
        rc = cli.run_cli(["anchors", "--set", f"truth={tmp_path / 'truth.txt'}",
                          "--set", f"grid={grid}"])
        assert rc == 1
        assert f"config key grid={grid!r} is not a positive integer" in capsys.readouterr().err
        assert read == []


class TestEvolveCommand:
    def test_micro_evolution_writes_lineage(self, mini_weighted_net, tmp_path,
                                            capsys):
        out = tmp_path / "lineage"
        rc = cli.run_cli(["evolve", "--set", f"network={mini_weighted_net}",
                          "--set", f"out={out}", "--set", "gamma=0.9",
                          "--set", "generations=1", "--set", "epochs=1",
                          "--set", "frames=16", "--set", "holdout=4",
                          "--set", "batch=4"])
        assert rc == 0
        doc = json.loads((out / "lineage.json").read_text())
        assert [e["generation"] for e in doc["entries"]] == [0, 1]
        assert doc["entries"][1]["param-count"] < doc["entries"][0]["param-count"]
        net, store = load_network(out / "gen_1.fnet")
        assert store.has_masks()

    def test_diverging_retraining_exits_1(self, mini_weighted_net, tmp_path, capsys):
        out = tmp_path / "lineage"
        rc = cli.run_cli(["evolve", "--set", f"network={mini_weighted_net}",
                          "--set", f"out={out}", "--set", "gamma=0.9",
                          "--set", "generations=2", "--set", "epochs=1", "--set", "lr=1e30",
                          "--set", "frames=16", "--set", "holdout=4", "--set", "batch=4"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: generation 1: training diverged at epoch 0")
        assert captured.out.startswith("generation 0: ")
        doc = json.loads((out / "lineage.json").read_text())
        assert [e["generation"] for e in doc["entries"]] == [0]
        assert doc["error"] == captured.err[len("error: "):].rstrip("\n")

    def test_scenes_take_the_network_input_shape(self, mini_weighted_net, tmp_path):
        mini, _ = load_network(mini_weighted_net)
        gray = NetworkDescriptor("gray", (1, 32, 32),
                                 (LayerSpec.conv(1, 4, 3, pad=1, activation="leaky"),
                                  *mini.layers[1:]))
        path = tmp_path / "gray.fnet"
        save_network(path, gray, init_weights(gray, seed=13))
        out = tmp_path / "lineage"
        rc = cli.run_cli(["evolve", "--set", f"network={path}", "--set", f"out={out}",
                          "--set", "gamma=0.9", "--set", "generations=1",
                          "--set", "epochs=1", "--set", "frames=8", "--set", "holdout=4",
                          "--set", "batch=4"])
        assert rc == 0
        gen1, _ = load_network(out / "gen_1.fnet")
        assert gen1.input_shape == (1, 32, 32)

    @pytest.mark.parametrize("command", ["train-tiny", "evolve"])
    def test_size_is_not_a_key(self, command, capsys):
        assert cli.run_cli([command, "--set", "size=96"]) == 1
        assert "unknown config key 'size'" in capsys.readouterr().err

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

    def test_default_schedule_moves_every_frame(self, tmp_path):
        # Unset, the schedule follows ``frames``; at 50 it is 1-50:moving.
        def scene(frames, *schedule):
            out = tmp_path / f"{frames}{''.join(schedule)}"
            argv = ["synth", "--set", f"out={out}", "--set", f"frames={frames}",
                    "--set", "size=16"]
            assert cli.run_cli(argv + [a for s in schedule for a in ("--set", s)]) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()}

        ten = scene(10)
        images = [ten[name] for name in sorted(ten) if name != "truth.txt"]
        assert len(images) == 10
        assert all(a != b for a, b in zip(images, images[1:]))
        assert scene(50) == scene(50, "schedule=1-50:moving")

    def test_zero_frames_is_a_frame_count_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert cli.run_cli(["synth", "--set", f"out={out}", "--set", "frames=0"]) == 1
        err = capsys.readouterr().err
        assert "config key frames='0' is not a positive integer" in err
        assert "schedule" not in err
        assert not out.exists()

    @pytest.mark.parametrize("velocity", ["1", "inf,0", "nan,0", "abc", "1,2,3"])
    def test_bad_velocity_is_a_config_error(self, velocity, tmp_path, capsys):
        out = tmp_path / "x"
        rc = cli.run_cli(["synth", "--set", f"out={out}", "--set", "frames=4",
                          "--set", "schedule=1-4:moving", "--set", f"velocity={velocity}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert ("velocity must look like 'vx,vy;vx,vy' with finite numbers, "
                f"got {velocity!r}") in err
        assert not out.exists()


BAD_THRESHOLDS = [("obj_threshold", "nan"), ("nms_threshold", "nan"),
                  ("obj_threshold", "-0.1"), ("nms_threshold", "1.5")]


class TestStreaming:
    """``run`` and ``detect`` read each frame when the run reaches it and
    keep only the current frame and the reference alive."""

    @pytest.mark.parametrize("command", ["detect", "run"])
    def test_at_most_two_frames_alive(self, command, mini_weighted_net, scene_dir, tmp_path,
                                      monkeypatch):
        alive, most = set(), []
        make_frame, process_frame = ppm.frame_from_image, pipeline.process_frame

        def tracked_frame(index, image):
            frame = make_frame(index, image)
            alive.add(index)
            weakref.finalize(frame, alive.discard, index)
            return frame

        def counting_process_frame(*args):
            most.append(len(alive))
            return process_frame(*args)

        monkeypatch.setattr(ppm, "frame_from_image", tracked_frame)
        monkeypatch.setattr(pipeline, "process_frame", counting_process_frame)
        out = tmp_path / "det.txt"
        assert cli.run_cli([command, "--set", f"input={scene_dir}",
                            "--set", f"network={mini_weighted_net}",
                            "--set", f"out={out}"]) == 0
        assert len(most) == 12 and max(most) <= 2
        assert set(detector.parse_detection_file(out)) <= set(range(1, 13))

    def test_malformed_frame_fails_when_reached(self, mini_weighted_net, tmp_path, capsys):
        scene = tmp_path / "scene"
        assert cli.run_cli(["synth", "--set", f"out={scene}", "--set", "frames=5",
                            "--set", "size=32", "--set", "schedule=1-5:moving"]) == 0
        bad = scene / "frame_000003.ppm"
        bad.write_bytes(bad.read_bytes()[:100])
        out, rep = tmp_path / "det.txt", tmp_path / "report.json"
        rc = cli.run_cli(["run", "--set", f"input={scene}", "--set", f"network={mini_weighted_net}",
                          "--set", f"out={out}", "--set", f"report={rep}"])
        assert rc == 1
        assert (f"skipdet run: error: {bad}: byte 13: raster truncated, expected 3072 bytes, "
                "got 87\n") == capsys.readouterr().err
        assert not out.exists() and not rep.exists()

    def test_truncated_repeat_fails_when_reached(self, mini_weighted_net, tmp_path, capsys,
                                                 monkeypatch):
        # Frames 3-5 are frozen, so frame 4's raster would equal frame 3's:
        # a truncated one still fails as read_ppm reports it.
        scene = tmp_path / "scene"
        assert cli.run_cli(["synth", "--set", f"out={scene}", "--set", "frames=5",
                            "--set", "size=32", "--set", "schedule=1-2:moving,3-5:frozen"]) == 0
        bad = scene / "frame_000004.ppm"
        bad.write_bytes(bad.read_bytes()[:100])
        reached = []
        monkeypatch.setattr(pipeline, "process_frame", lambda state, frame, *args, fn=(
            pipeline.process_frame): reached.append(frame.index) or fn(state, frame, *args))
        out, rep = tmp_path / "det.txt", tmp_path / "report.json"
        rc = cli.run_cli(["run", "--set", f"input={scene}", "--set", f"network={mini_weighted_net}",
                          "--set", f"out={out}", "--set", f"report={rep}"])
        assert rc == 1 and reached == [1, 2, 3]
        assert (f"skipdet run: error: {bad}: byte 13: raster truncated, expected 3072 bytes, "
                "got 87\n") == capsys.readouterr().err
        assert not out.exists() and not rep.exists()

    @pytest.mark.parametrize("command", ["detect", "run"])
    def test_traced_run_reads_each_file_and_decodes_each_new_raster(
            self, command, mini_weighted_net, scene_dir, tmp_path, monkeypatch):
        # The benchmark's tracer counts ppm.read_ppm and ppm.frame_from_image
        # by module attribute: once per file, and once per raster that
        # differs from the previous file's (frames 9-12 repeat frame 8).
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        tracing = importlib.import_module("tracing")
        files = [path for _, path in ppm.list_frame_files(scene_dir)]
        rasters = [path.read_bytes() for path in files]
        new = [n for n, raster in enumerate(rasters, start=1)
               if n == 1 or raster != rasters[n - 2]]
        assert new == list(range(1, 9))
        with tracing.traced(tracing.Tracer()) as tracer:
            assert cli.run_cli([command, "--set", f"input={scene_dir}",
                                "--set", f"network={mini_weighted_net}",
                                "--set", f"out={tmp_path / 'det.txt'}"]) == 0
        names = [s.name for s in tracer.spans]
        assert names.count("ppm.read_ppm") == len(files) == 12
        assert names.count("ppm.frame_from_image") == len(new)
        assert names.count("pipeline.process_frame") == 12


class TestDecodeThresholds:
    """``obj_threshold`` and ``nms_threshold`` lie in [0, 1]. Any other
    value, NaN included, fails at load, naming the key, before any scene is
    made or frame is read."""

    @pytest.mark.parametrize("command", ["detect", "run"])
    @pytest.mark.parametrize("key,value", BAD_THRESHOLDS)
    def test_checked_before_frames_are_read(self, command, key, value, mini_weighted_net,
                                            scene_dir, tmp_path, monkeypatch, capsys):
        read = []
        monkeypatch.setattr(ppm, "read_ppm", lambda *a: read.append(a))
        out = tmp_path / "det.txt"
        rc = cli.run_cli([command, "--set", f"input={scene_dir}",
                          "--set", f"network={mini_weighted_net}",
                          "--set", f"out={out}", "--set", f"{key}={value}"])
        assert rc == 1
        assert f"config key {key}={value!r} is not in [0, 1]" in capsys.readouterr().err
        assert read == [] and not out.exists()

    @pytest.mark.parametrize("key,value", BAD_THRESHOLDS)
    def test_train_tiny_checked_before_scenes(self, key, value, tmp_path, monkeypatch, capsys):
        made = []
        monkeypatch.setattr(synth, "random_detection_scenes", lambda *a, **k: made.append(a))
        out = tmp_path / "t.fnet"
        rc = cli.run_cli(["train-tiny", "--set", f"out={out}", "--set", f"{key}={value}"])
        assert rc == 1
        assert f"config key {key}={value!r} is not in [0, 1]" in capsys.readouterr().err
        assert made == [] and not out.exists()


class TestCrossProcessDeterminism:
    def test_reports_identical_across_processes(self, mini_weighted_net,
                                                scene_dir, tmp_path):
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
                       "gamma": 0.9, "generations": 1, **small_training},
        }[command]
        argv = [command] + [arg for k, v in keys.items() for arg in ("--set", f"{k}={v}")]
        assert cli.run_cli(argv) == 0
        (cfg,) = configs
        assert set(cli.SUBCOMMANDS[command][1]) - cfg.read == set()


def readme_keys() -> dict[str, set[str]]:
    """Subcommand -> keys named in README's "Subcommand keys" list.

    A key is a backticked name outside parentheses, before the first ``;``;
    "all `x` keys plus" stands for the keys of subcommand x.
    """
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("### Subcommand keys", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^\* `([\w-]+)`: (.*?)(?=^\* |^$|\Z)", section, re.M | re.S)
    keys: dict[str, set[str]] = {}
    for command, body in items:
        body = re.sub(r"\([^)]*\)", "", " ".join(body.split())).split(";", 1)[0]
        named = set()
        for inherited in re.findall(r"all `([\w-]+)` keys plus", body):
            named |= keys[inherited]
        body = re.sub(r"all `[\w-]+` keys plus", "", body)
        keys[command] = named | set(re.findall(r"`([\w.]+)`", body))
    return keys


def test_readme_names_every_subcommand_key():
    assert readme_keys() == {name: set(defaults)
                             for name, (_, defaults) in cli.SUBCOMMANDS.items()}


FAULTS_PER_RUN_FRAME = textwrap.dedent("""
    import resource
    import sys
    import tempfile
    from pathlib import Path
    from skipdet import cli, netdef, network, zoo

    workdir = tempfile.TemporaryDirectory()  # removed when the process exits
    tmp = Path(workdir.name)
    net = zoo.load_bundled("tiny")
    netdef.save_network(tmp / "tiny.fnet", net, network.init_weights(net, 0))
    assert cli.run_cli(["synth", "--set", f"out={tmp / 'clip'}", "--set", "frames=60",
                        "--set", "velocity=3,2", "--set", "schedule=1-37:moving,38-60:frozen",
                        "--set", "seed=11"]) == 0
    argv = ["run", "--set", f"input={tmp / 'clip'}", "--set", f"network={tmp / 'tiny.fnet'}",
            "--set", f"out={tmp / 'det.txt'}"]
    for _ in range(3):
        assert cli.run_cli(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        assert cli.run_cli(argv) == 0
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / (5 * 60),
          file=sys.stderr)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor-fault counts are Linux's")
def test_warm_run_does_not_refault_the_clip():
    # Fresh processes, since this one's heap history can hide the faults.
    # A run that decodes the whole clip before its first frame allocates
    # every frame again on each call, and faults its pages in again.
    pytest.importorskip("resource")
    counts = faults.fault_counts(FAULTS_PER_RUN_FRAME, timeout=300)
    assert max(counts.values()) < 2, counts


# 16 frames at the default batch of 8: two SGD steps per call.
FAULTS_PER_TRAINING_STEP = textwrap.dedent("""
    import resource
    import sys
    import tempfile
    from pathlib import Path
    from skipdet import cli

    workdir = tempfile.TemporaryDirectory()  # removed when the process exits
    argv = ["train-tiny", "--set", f"out={Path(workdir.name) / 'tiny.fnet'}",
            "--set", "frames=16", "--set", "holdout=0", "--set", "epochs=1"]
    assert cli.run_cli(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        assert cli.run_cli(argv) == 0
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / (3 * 2),
          file=sys.stderr)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor-fault counts are Linux's")
def test_warm_training_does_not_refault_its_heap():
    # A step's columns and layer records are freed at its end; a heap that
    # trims or maps them anew faults them in again on every step.
    pytest.importorskip("resource")
    counts = faults.fault_counts(FAULTS_PER_TRAINING_STEP, timeout=300)
    assert max(counts.values()) < 100, counts


def test_runs_where_libc_has_no_mallopt(monkeypatch):
    import ctypes

    opened = []

    def libc_without_mallopt(name, *args, **kwargs):
        opened.append(name)
        return types.SimpleNamespace()

    monkeypatch.setattr(ctypes, "CDLL", libc_without_mallopt)
    cli._pin_heap.cache_clear()
    try:
        assert cli.run_cli(["profile", "--set", "network=tiny"]) == 0
    finally:
        cli._pin_heap.cache_clear()
    assert opened == [None]
