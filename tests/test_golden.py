"""Byte-identity of the CLI's run directories against tests/golden/manifest.json."""

from golden import record


def test_run_directories_match_the_manifest(tmp_path):
    manifest = record.load()
    assert manifest["versions"] == record.versions(), (
        f"manifest recorded with {manifest['versions']}, running {record.versions()}: "
        "compare the outputs by hand, then re-record with tests/golden/record.py")
    assert {name: entry["argv"] for name, entry in manifest["commands"].items()} == record.COMMANDS, (
        "the commands changed since the manifest was recorded")
    differ = []
    for name, recorded in manifest["commands"].items():
        differ += record.differences(name, recorded, record.run_command(recorded["argv"], tmp_path / name))
    assert not differ, "\n".join(differ)
