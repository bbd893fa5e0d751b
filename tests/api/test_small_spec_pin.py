"""The small-spec contract as a pin.

For every registered scenario: the sha256 of its miniature spec's JSON,
of its miniature campaign's cells (cell id and resolved spec JSON,
in order), and of its run's full result JSON (series included).  A
change to how specs are validated, serialised, expanded or interpreted
that moves any byte of these moves a hash.  The run hashes must hold
with and without numpy (``repro.hashing.batch._numpy`` patched shut;
the no-numpy lane runs the same table with numpy absent).  The
population scenario's packet fidelity, which its small spec does not
reach, is pinned the same way at one and two catalog objects.
"""

import hashlib
from pathlib import Path

import pytest

import repro
import repro.hashing.batch as batch
from repro.api import registry, run
from repro.campaign import expand, small_campaign

ROOT = Path(__file__).resolve().parents[2]

#: scenario -> (small spec JSON, small campaign cells, result JSON).
PINS = {
    "adaptive_overlay": (
        "2fffa36232d9e6e67ef424bda8f2f19730631cd632cf5d9a68a255118211a0a8",
        "5701a935626c0ac7083665fc5662293a6867c8a9783dfeaf42cd174c45b871a0",
        "3e30dc37a3bc2ad40dad97e373d50e048d86c2313dd90c34d9c0857ef6742a9f",
    ),
    "asymmetric_bandwidth": (
        "f97a42636d77be89a8d6826749067542dd3edbccfcaafa0858dd3588f924b2b9",
        "a483fb262e964196eb7ee33d5fa727564ab1942a5dc83b21a78e3a01cf8ca19c",
        "f3b070fc15b21b9fa013005c4616fcf2f1ebfb1fe6c7c1ff43511c0bbb8df33a",
    ),
    "cdn_catalog": (
        "22982c6ed1a66b26f0cb029ecf12bb17c5d43514047ed1e8a2c2dfa56f46d619",
        "9dc2713718b61a0b9913119a99b1af760e9753c1aa37730b41760fe1fa7aed3a",
        "1ff30b493134981bbba4796fccdf2350449d8f28f82fd4b1e555d12639ef1cad",
    ),
    "congested_swarm": (
        "1f69a4198d5151191e32e6191829fb9f4d3327456537121634c465e7355709a4",
        "747307a4e545d4fa714ee09f8dd1491e7aa99c2b367d5df152ae4dd68a3c393c",
        "3077968f22cfa36edb2e6825b9136ab86557d8a014cdcf46eaa0e7650a6bb083",
    ),
    "correlated_regional_loss": (
        "09db7a37472cd562b2f787c92bcd00aa19bfe252e9ce8ac7fc394d0fc6137f27",
        "e3079b1b59bbf6e0024a783d69a6d099656520185096a327475ca49f71bb5574",
        "e220d7a78e65992c5a4aea54a6bc684b1b9a04f702408652a4a342f8dce51b67",
    ),
    "figure1": (
        "53b868dfd72bcecc7854b0f69b5d92ce64eb5006c5e8bdddadce816506b78d7d",
        "86b0a0fd2fc435efc7ec83f7ac36168d724d5e13092ee02a9953d9d066e51fc9",
        "00745ffbae33d7ec59ca87e406afeb6c1b6fb92224f8f613ed51982c43622245",
    ),
    "flash_crowd": (
        "1b248a9beee2a6fce9a794c4e66ab8f8f106bc9c4de7d7d2fd3a45611e2338b0",
        "d96e7197325717114b8dd4049f02337d0c8d0aafb09c5cafc72ff58d09fa8063",
        "bd21062f702811fbceda55b35f892ca8cd95aacc91ef2a5c6fdbfe99d25f6726",
    ),
    "multi_sender_transfer": (
        "08189123bbd4b90b3a428a8ef5b7dedf40ffe3fb583c6219199181c4cd8fd599",
        "99fe56b1df9667c8a39200ef6d99554ef52ab7099e4d1625d0a09771eeb93aac",
        "22ab3ced3fb2bf6d4fa41c17f7795ef49ce2a2fa2940a1173bbd25d1dc042dc5",
    ),
    "pair_transfer": (
        "70be6621aee048eaebd91dfa0019d7c3b1bb3583877dc9689ba464cb360103a1",
        "74eefc690ce3ffc4bc4f7494f72a3bd5072173ddb08fbc57db01dec2bd398786",
        "ece73454ea553f1ccf2d749aedaaa33289c2327bfe929c0aaed3a13bc839b74e",
    ),
    "population_flash_crowd": (
        "b102d4a55174a4956865e94be81744d47c2d756437e9f5479315267f8466ef4a",
        "ed4aef03c83600358c0bd0df3bcf32ed307abbca806af9be172a1a9eb4709ce3",
        "48e182b8a3edd0859488fd5f53b982bc8d1a49b10e9e903d5b78fa52400600b4",
    ),
    "random_overlay": (
        "0344a420048a468b1404b732283aefa7bd39047c06b56d6884945fbad883da0b",
        "02921dac8e0b9b319473fdf622720e0bc3ce87e9eee0d31ccd32ecaa3ccf88f8",
        "96dfb2aa13d1071529caea12e1b7da4eb7ea0eb8ff878109bd9dd6246d6b9dfd",
    ),
    "scale_free_swarm": (
        "902b176cc3bab89d95348cf76656ccb819903c59fb8a7da2814c74f89f74eb2c",
        "33f580a7c15bb585b5011972da8b53bd806f30a5d7953fcafe42ab98076bca96",
        "ba6d0fe103b53b653f5987ea41a6d4760902919777b31ea128ee5ff442558161",
    ),
    "session_swarm": (
        "3bcf30779daabce80673a9221246b97412624fb0e68209eabe4da1ecf57ef373",
        "3224d17b29a6316e5ee00d352e13e8e92e15aadc9b1b5a1fd2f610de8d0e4c34",
        "16e157ca2a86e3d73e3df830bb1186ce125ba882555fdb08fcc9a254a073375d",
    ),
    "source_departure": (
        "0c42ea2c2cc173461604f05269de40cd677873e85aa4274a70bd409638f09b54",
        "7bcfb5f8d51943b957ee0ea8b89a40123e4d0f78fcc06bedd998aae4185421ed",
        "5db2a64c91ebebc3cc9009ea6815a30f8748c37d96f6277cf39ca080a9dd39af",
    ),
    "summary_tradeoff": (
        "1d956446d9d737921bd075a564ae3290894ca84635c2c0fd69a9ec427fc444ff",
        "f7b7dab19444d5fb1f1ae4e3c07dccbad86e0ab09b771db0639b6bc722deb893",
        "8a8eeee7b6c281f5c3556052cb579f2e8ac54ec314608794c12518065b50a556",
    ),
}


#: population_flash_crowd's small spec at packet fidelity -> result JSON,
#: by ``population.objects`` (the small spec itself runs the flow engine).
POPULATION_PACKET_PINS = {
    1: "8577f3fec8dc93db076173252d015905ab244ae667e46377ba80090c0162be71",
    2: "b43dc601e5a539ffd7eab1f6022e52d06dc811697404fc42a4f9997ac6beeac1",
}

#: ``repro.RESULTS_VERSION`` and the sha256 of every result hash in
#: ``PINS`` (scenario order) followed by ``bench/expected.json``'s bytes.
#: A change that re-records either edits this row, and so bumps the
#: version: campaign directories of the old results then re-run.  A
#: change that moves only other seeded results bumps the version here
#: too (2: min-wise ``set_size`` counts ids before the fold, which moved
#: ``test_default_summary.py``'s ``--summary minwise`` pins).
RESULTS_VERSION_PIN = (
    2,
    "6d496f402915508132b69db2a31af635ef4f459941398e7560e333e184743208",
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_scenario_is_pinned():
    assert sorted(PINS) == registry.names()


@pytest.mark.parametrize("name", sorted(PINS))
def test_small_spec_json(name):
    assert _sha(registry.small_spec(name).to_json()) == PINS[name][0]


@pytest.mark.parametrize("name", sorted(PINS))
def test_small_campaign_cells(name):
    cells = expand(small_campaign(name))
    text = "\n".join(f"{c.cell_id}\n{c.spec.to_json()}" for c in cells)
    assert _sha(text) == PINS[name][1]


@pytest.mark.parametrize("numpy", ["numpy", "no-numpy"])
@pytest.mark.parametrize("name", sorted(PINS))
def test_small_spec_result(name, numpy, monkeypatch):
    if numpy == "no-numpy":
        monkeypatch.setattr(batch, "_numpy", lambda: None)
    result = run(registry.small_spec(name))
    assert _sha(result.to_json(include_series=True)) == PINS[name][2]


@pytest.mark.parametrize("numpy", ["numpy", "no-numpy"])
@pytest.mark.parametrize("objects", sorted(POPULATION_PACKET_PINS))
def test_population_packet_result(objects, numpy, monkeypatch):
    if numpy == "no-numpy":
        monkeypatch.setattr(batch, "_numpy", lambda: None)
    spec = (
        registry.small_spec("population_flash_crowd")
        .with_override("measurement.fidelity", "packet")
        .with_override("population.objects", objects)
    )
    result = run(spec)
    assert _sha(result.to_json(include_series=True)) == POPULATION_PACKET_PINS[objects]


def test_the_results_version_moves_with_the_result_pins():
    digest = hashlib.sha256()
    for name in sorted(PINS):
        digest.update(PINS[name][2].encode("utf-8"))
    digest.update((ROOT / "bench" / "expected.json").read_bytes())
    assert (repro.RESULTS_VERSION, digest.hexdigest()) == RESULTS_VERSION_PIN
