"""Golden output digests: every subcommand's document, byte for byte.

Each case runs ``shadowsim.cli.run`` in process, for two seeds, and
compares the sha256 of the written document with a pinned digest; every
``--help`` text and the package's export list are pinned likewise. The cases
are small, except readout, product and collapse, which also run at their
default 10 000 shots, and the three largest algebra grids (dim 15625, 625
and 256). A change that keeps every document byte-identical
keeps these green; a change that alters output bytes on purpose must update
the entries it alters and say so in CHANGES.md.

The digests depend on floating-point round-off, so they hold for the
library versions they were taken with: numpy 2.4.6, scipy 1.17.1 and
OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH), on x86-64 with CPython
3.11. Other versions may legitimately differ in the last bit of a float.
The collapse and doubleslit documents load no scipy: their chi-square tail
is computed with the standard library, so their digests depend on numpy,
the C library's lgamma and exp, and CPython, but not on the scipy version.
The collapse, collapse-default, doubleslit/1 and table-form collapse/1
digests were retaken when the tail moved off scipy: those documents changed
only in the last bits of p_value and of its 1 - p residual.  Every collapse
JSON digest was retaken again when the document dropped its
support_confinement invariant: each new document is the old one with that
entry removed, byte for byte otherwise.
"""

import hashlib

import pytest

import shadowsim
from shadowsim.cli import run

SEEDS = (1, 2)

CASES = {
    "teleport": ["teleport", "--shots", "20"],
    "teleport-generic": ["teleport", "--shots", "20", "--alpha", "0.3+0.1i",
                         "--beta=-0.5+0.7i", "--resource", "psi-plus"],
    "teleport-csv": ["teleport", "--shots", "10", "--format", "csv"],
    "swap": ["swap", "--shots", "50"],
    # digests taken at commit b5e8e5bafe9522b7ca69a04b005214125686db1c, where
    # every shot row still went through the generic CSV writer
    "swap-csv": ["swap", "--shots", "50", "--format", "csv"],
    "bell": ["bell"],
    "readout": ["readout", "--shots", "200"],
    "readout-default": ["readout"],
    "product": ["product", "--shots", "100"],
    "product-default": ["product"],
    "algebra": ["algebra", "--modes", "2", "--nmax", "3"],
    "algebra-fermion": ["algebra", "--modes", "3", "--statistics", "fermion"],
    "algebra-3x4": ["algebra", "--modes", "3", "--nmax", "4"],
    "algebra-fermion-5": ["algebra", "--modes", "5", "--statistics", "fermion"],
    "algebra-4x4": ["algebra", "--modes", "4", "--nmax", "4"],
    "algebra-fermion-8": ["algebra", "--modes", "8", "--statistics", "fermion"],
    "algebra-6x4": ["algebra", "--modes", "6", "--nmax", "4"],
    "evolve": ["evolve", "--points", "256", "--steps", "50"],
    "evolve-harmonic": ["evolve", "--points", "256", "--steps", "50",
                        "--potential", "harmonic", "--k0", "1"],
    "collapse": ["collapse", "--shots", "300"],
    "collapse-default": ["collapse"],
    "doubleslit": ["doubleslit", "--shots", "500", "--bins", "32"],
    "doubleslit-single": ["doubleslit", "--shots", "500", "--bins", "32",
                          "--single-slit"],
    "erratum": ["erratum"],
    # CSV digests taken at commit 73e2d628e91eddca8ca54d972f10043bb620a50b,
    # where each subcommand still spelled out its own column names
    "bell-csv": ["bell", "--format", "csv"],
    "readout-csv": ["readout", "--shots", "200", "--format", "csv"],
    "product-csv": ["product", "--shots", "100", "--format", "csv"],
    "algebra-csv": ["algebra", "--modes", "2", "--nmax", "3", "--format", "csv"],
    "evolve-csv": ["evolve", "--points", "256", "--steps", "50", "--format", "csv"],
    "collapse-csv": ["collapse", "--shots", "300", "--format", "csv"],
    "doubleslit-csv": ["doubleslit", "--shots", "500", "--bins", "32", "--format", "csv"],
    "erratum-csv": ["erratum", "--format", "csv"],
    # digests taken at commit 2d601bcacba47a20d364d29ac6c936ace5287218, where
    # each request still derived its correction table or swap outcome map
    "teleport-phi-plus": ["teleport", "--shots", "50", "--resource", "phi-plus"],
    "teleport-psi-plus": ["teleport", "--shots", "50", "--resource", "psi-plus"],
    "teleport-psi-minus": ["teleport", "--shots", "50", "--resource", "psi-minus"],
    "swap-400": ["swap", "--shots", "400"],
}

DIGESTS = {
    "algebra/1": "08d6e22c5c4b2830f126888ce8260931e2e4f6a0c67ee8bc16e9268e04fee229",
    "algebra/2": "24ecc88ba69c9476cff88d3130cb1eb3422dae8d7fc7b457d30a2038cb06a22d",
    "algebra-fermion/1": "9af11c0f0cfa2ed674cbed83ccd3a5676f08b7a11b32484e6039ae94f5080616",
    "algebra-fermion/2": "4b58b59c8a1ba610b271b79a331372a26d7a743bbd9ce61ddf3506f99d94631f",
    "algebra-3x4/1": "ae0f94acccb2618e33a206d7ba5b458e5f1c1fdf564c99ca2ca911c41f68baa5",
    "algebra-3x4/2": "bb0b2db845cb97ebf96ec4bb33ac6e2d750e878c084cb5711022417f01adb038",
    "algebra-fermion-5/1": "2af3f9fd59b49c81c85057807fcb000491b3b5b101978cc0b6053fc24bd3f6fc",
    "algebra-fermion-5/2": "b13bf3fe27f62b600a545b50447e996c64640131fdebbbeceedc1f1dcbe50ac4",
    "algebra-4x4/1": "eb991aaa0005d330ce2f8b2133f7ce1669a6ea41188ef458ea5484230e3d1464",
    "algebra-4x4/2": "46a56b053da161301a230c4a2ec3f1a5ed0a4635d2698f7fa4648d94c98e1b3c",
    "algebra-fermion-8/1": "e5cd77a61db177facfd7333efd173e12dd7333697e92e67efe58ff3e855ae627",
    "algebra-fermion-8/2": "0471ad71d195d5c371ad7b87430db0f947a8b007ede80093fbbefbef884a6768",
    "algebra-6x4/1": "b5ab743cc3382d90a1e2a8316fc8b1ddbd62fbffb5eea03502df0bb0f05e652a",
    "algebra-6x4/2": "f09729b00116bf327dadcf1c09963731ed80722088c3c6e5c4ae764b6cfe2cc0",
    "bell/1": "3be80321a1dc2362b0ae86908c5be07faeb60de40dd3bdcf0f466e149976b0ae",
    "bell/2": "da5077cfdca125a2b4b41258ff493da98c84feadd2c7ae1905f8826411753e87",
    "collapse/1": "4ed15ec9787e6b192c4a60f8bd9add278103c20a70ccae6a20725c336049f038",
    "collapse/2": "89f4bc99ac1187f070313c6f4a990f494ccd0968b314593151ee0d90dbcd612f",
    "collapse-default/1": "b26bb640a31f8834a7952da106fdaab156201ae615b9fa45b17a487e4d255f1d",
    "collapse-default/2": "e6b089322eb17e951bb2436068a61d32302ac48b1ba5797bc9e04650aaec29fc",
    "doubleslit/1": "6866b64647e583d18299c230db9b62a5ab2ed680a85dfb29fb4e163fb5ac4ea7",
    "doubleslit/2": "636b567c4977b33e0466307334ab050efdfb3d3b2629c14d3c43029631b735e5",
    "doubleslit-single/1": "9070e382bdfaa52b1213824e9cbd8598f3acd814684d87ae18d36b8f192879d3",
    "doubleslit-single/2": "1e6f469963622c2ea4364574505cb26c08c4236462825d1697eb0a6db9b005b6",
    "erratum/1": "7236973bdc64e7643ad2855b56aeb75aecb99702abd68fe78d0ebbcfcad71050",
    "erratum/2": "fd87eb442a59612f67c7d0cc8927bae249dc910c6b8f058a0a31fc0ac994d4dc",
    "evolve/1": "4192ba128a498335e2d93428c27a053c326136dd8a428d5de027caedb56e65b6",
    "evolve/2": "76d47be867452d2c619d5ef51bb73cf993e6871cc23a09cb150885ed3cb395e2",
    "evolve-harmonic/1": "ea374889bb238d1b9e7de1445f3036e4fa6c1f5930070abf3689da9255d5ed41",
    "evolve-harmonic/2": "1dc07bd2514673c58ee54b7eac8986dd156f57e45545e1793922baeb36e3b524",
    "product/1": "d251de590254855ec9fb775289666e8607e49de6039cb4a9dbe7d481d883a015",
    "product/2": "2b34265d073a6ba91c8052379b78873c220593f401996ea2da9772f4641de04a",
    "product-default/1": "c3b576cb9ade4811934b5ddb769f5576cdeff944b5e37d7aff6fc2e5636947e4",
    "product-default/2": "bd66081161d42edbaa412480990fe9552da9facf7504e82096ff69442832a0ad",
    "readout/1": "587530433f5af19a76bc37bd05d0c4a46afd653c5451a49070d7b4134ed46f66",
    "readout/2": "43926ec664d0cb0dd52e9aee8f0de72d8be91d84568b0298762f5a47b718057b",
    "readout-default/1": "9a92cbfcd4a944c39dcf758b896adac2c7a17f50494fd6c71e4f09171a8b97d1",
    "readout-default/2": "068136397db04727a5d0b3ea6eb690d2551d85a229db94fade26f39c4d665c3e",
    "swap/1": "5b559aa73b20d6f6450628a8aa98f97f091eda2c4e6bfda4cfbea84a138827bd",
    "swap/2": "603e5a7ad238c77098b0fb7fb322c05227758f02786ae1d055641adc53e47d36",
    "swap-csv/1": "5b172a7be0e1250e3f655bd57abbc1669a47915cf8ab359c90d721be5565bbfc",
    "swap-csv/2": "34825472889187687ef1f710a904c81d6f6bdca57d7def92419ab0872831053e",
    "teleport/1": "d8b8ca3392e4cd189379568066a7e038a3eccfae91e0811adbd0f02cf6940ca1",
    "teleport/2": "b6e4e6f106297520fe655363b03764b7ef73d2a771070e02905ed92ea98c7645",
    "teleport-csv/1": "1f0c9e083d42d4294a14429927fc6c75e55e97fe1fb94c65f28b88194356deb3",
    "teleport-csv/2": "d6c44dcb18fba1757a0a113612613bcf8490d82de18dc29ca86cf87d391fe81f",
    "teleport-generic/1": "a5b9ae5009e144c9523ddd126fc7292f2f3c8a12cd48a9c030bbe2df8c30de3e",
    "teleport-generic/2": "faa1eb4d913e1e4a1c8454ca547549391af1d5916b0a6b5d7c1bbe689bad1a28",
    "algebra-csv/1": "2e29267e185d2ad834ae66a73abdf972e6afb9cac9dab3b7bebec97c4dc61ed4",
    "algebra-csv/2": "2e29267e185d2ad834ae66a73abdf972e6afb9cac9dab3b7bebec97c4dc61ed4",
    "bell-csv/1": "cc49eee140384958e46073d1f465cf9a97dff12c4894b52c958ceaa2ae52f8b1",
    "bell-csv/2": "cc49eee140384958e46073d1f465cf9a97dff12c4894b52c958ceaa2ae52f8b1",
    "collapse-csv/1": "c10bbaa323ab9d08558cb8d383ff162f17c9ee69942ecd93b72945dfa63f629f",
    "collapse-csv/2": "4c743baa126a8d3028ae546fe934c879dedb38288b935958fea7710393c6d79b",
    "doubleslit-csv/1": "125d6c89dbca910c5ce84f5c6bead96874e9a789f26bdb6909358868608b1e46",
    "doubleslit-csv/2": "01e036c9c33de8909bd9f336ddda123c3a8c25dae0f06c84e6d51c008cb1d784",
    "erratum-csv/1": "0c24d0b9cecccc024c7b46d9bd4234a0f1f7ed634fe4dce9b4f4ffa7de2a6b85",
    "erratum-csv/2": "0c24d0b9cecccc024c7b46d9bd4234a0f1f7ed634fe4dce9b4f4ffa7de2a6b85",
    "evolve-csv/1": "70966cba0d08046c635dadb6edf35c6386dd20bd0faa35bb09d0ba192d49bce8",
    "evolve-csv/2": "70966cba0d08046c635dadb6edf35c6386dd20bd0faa35bb09d0ba192d49bce8",
    "product-csv/1": "4099a84555055be8d45983944b7ceae08cf401f7e76fde5481aa36e7b968ef84",
    "product-csv/2": "419752b0e418d0063608633e0fe185a93621fd8749baba1b0e09b920fa097ffa",
    "readout-csv/1": "e978c9225df018dfd19d5d2356a32c965d4feb3d0cd24150d4f86c5d082ca5f2",
    "readout-csv/2": "3f4e18b5ee37360e9643a7f3fb6e49945efa46a6c4d62a74597e2d9e6f8b00d4",
    "teleport-phi-plus/1": "67e1fdac34ac55dda868cc40c999de4d8cda7e57a7823f2549ff00189df3d21a",
    "teleport-phi-plus/2": "0be1e45d58c4fb9c1fcc70b62685b588a7deb90b840e95ae854b3ed6e019260e",
    "teleport-psi-plus/1": "66d94f45e33aa415b09b871dc337fa85c7f27c34004bef5883ff3e98079ee158",
    "teleport-psi-plus/2": "9e5810bdde04b376dcc0b0d4185e786e6853e4acee807f0d255c48f579aa8f23",
    "teleport-psi-minus/1": "e94ebeacfe7d8bcd1ebde53a5b3c3fe4eb3a57182441620d75f16cd7e9f6e0c8",
    "teleport-psi-minus/2": "1939a6a90921966ebdc008d67133143ab98e510feb2db63fae8f5458b6d8c122",
    "swap-400/1": "baf94b6efcf095fb727024e7abe7a312a48ab0220e09df865ca966eb8d1b0d0d",
    "swap-400/2": "33cb091ec11e8dcc05094d4d73dd89ce2ccd4f319f257b97a0aeed273f881d74",

}

# every option as one "--name=value" token, the form the benchmark sends, with
# alpha and beta written to 17 significant digits as bench/workloads.py writes
# them; digests taken at commit 1c2abdaf37eb42ba7d44e4cbe005f630908590e2,
# where every argv still went through argparse
TABLE_CASES = {
    "teleport-phi-plus": ["teleport", "--shots=400",
                          "--alpha=-0.11078672526095844-0.45946259231104403j",
                          "--beta=0.3621876603984881+0.80339313317194694j",
                          "--resource=phi-plus", "--format=json"],
    "teleport-phi-minus": ["teleport", "--shots=400",
                           "--alpha=0.22808853280055141+0.62241842555099691j",
                           "--beta=0.62761592794288079+0.40825135851813982j",
                           "--resource=phi-minus", "--format=csv"],
    "teleport-psi-plus": ["teleport", "--shots=400",
                          "--alpha=0.39321211498748376+0.55061419936902656j",
                          "--beta=-0.11770587149143195-0.72687933241819336j",
                          "--resource=psi-plus", "--format=json"],
    "teleport-psi-minus": ["teleport", "--shots=400",
                           "--alpha=-0.90564127991934273+0.34953067645915525j",
                           "--beta=0.23939535644235982-0.018222009600904115j",
                           "--resource=psi-minus", "--format=json"],
    "swap": ["swap", "--shots=400"],
    "readout": ["readout", "--shots=1000"],
    "product": ["product", "--shots=300"],
    "collapse": ["collapse", "--shots=3000", "--points=1024", "--zones=8"],
    "bell": ["bell"],
    "algebra": ["algebra", "--modes=4", "--nmax=4"],
    "algebra-fermion": ["algebra", "--modes=5", "--nmax=1", "--statistics=fermion"],
}

TABLE_DIGESTS = {
    "algebra/1": "eb991aaa0005d330ce2f8b2133f7ce1669a6ea41188ef458ea5484230e3d1464",
    "algebra/2": "46a56b053da161301a230c4a2ec3f1a5ed0a4635d2698f7fa4648d94c98e1b3c",
    "algebra-fermion/1": "b57dfa956839ea69cf754989d749f0d5007344e32d33909f652ac7352849f2de",
    "algebra-fermion/2": "0846ac3699a4ce7460a898b0ec5774cc514eaaa4c7267adf5c59fe797082e2c8",
    "bell/1": "3be80321a1dc2362b0ae86908c5be07faeb60de40dd3bdcf0f466e149976b0ae",
    "bell/2": "da5077cfdca125a2b4b41258ff493da98c84feadd2c7ae1905f8826411753e87",
    "collapse/1": "9d730b720beee7133cce6ce28d2f582d2eb0acd4b3750afe9f693d0d958c2118",
    "collapse/2": "b240a313a93b7ce779d49cdd83fc3bc48b93cfd805281c39caff9fb909a07d34",
    "product/1": "f234fbe266cceb6accb44c118ba6931b2bb6b867a81f112af8ed5a2c5cb18894",
    "product/2": "a65dce9a7b7d62b496bf679d888f5a160b3ab9365b359dbcbf0e883d78b127cd",
    "readout/1": "b3022373867a6de12ba3d05d2e2a19b084c22d298ccf8110d86a4b86819280d9",
    "readout/2": "3b4619c2d25bba7f23571b97213db8a7d5d1249b97d20d7683efc729cc3d93d0",
    "swap/1": "baf94b6efcf095fb727024e7abe7a312a48ab0220e09df865ca966eb8d1b0d0d",
    "swap/2": "33cb091ec11e8dcc05094d4d73dd89ce2ccd4f319f257b97a0aeed273f881d74",
    "teleport-phi-minus/1": "67941ee7d13f5e765029cc2036d60a31eae373634cd58a391ad5066f23bb4587",
    "teleport-phi-minus/2": "656be1278b862952688d12c5fcfce7da1e6b7bafc8a36d43b3528bdcc8135f89",
    "teleport-phi-plus/1": "56f430c8f04a906ea65fde812d23722f2acd1bd67c1f3ef82ce7af2a6939df6b",
    "teleport-phi-plus/2": "02188a5714bd9064975b3a7cee131dc794d3ff6be493dca8dd35bcd72d141a92",
    "teleport-psi-minus/1": "cece5d5b48d52206c3f5047e9084d473cf703c35ef589c166aaa3f2570835e0f",
    "teleport-psi-minus/2": "1569c4c882739afaeb4b0554f056f96252f5cd4af1329b01047c2f692838dead",
    "teleport-psi-plus/1": "184a4cc62603675e35bdab98719d8b0602b433560be94629210076ea494db9d5",
    "teleport-psi-plus/2": "d3d97ddf11fa5eec7957f11b39fa68b4921629a9d15b5f13a0f6ce34e1033633",
}

# `shadowsim [SUB] --help` at COLUMNS=80, taken at commit
# 73e2d628e91eddca8ca54d972f10043bb620a50b; argparse's layout differs
# between Python versions, so these hold for CPython 3.11
HELP_DIGESTS = {
    "": "3388413c97523e1b807927e317e895a3bf99486865f837e7bd97b4ee6098d6bf",
    "teleport": "845c0404c2544163932bb14cef989b22ce305b13465317c52538aa90f93fe9a2",
    "swap": "0cce5f032f49dbee62ccdc624c2ef022d8e4e4d9287313dc6e0a6d6abd42fb44",
    "bell": "f0357ae1cad20d1d74b064b42c97d7250c116ba898a196b1403ffdce2a9a68da",
    "readout": "eedc6441590b9d781b0415dfafa6f337f015043a61cfa6c6a9b1f742f869ac11",
    "product": "945ad34256e3363e88fc5c389518a9090bbc86e28601c3a7a506105ca92e1a95",
    "algebra": "a8d654bca43cb797956b273339dda1d10267b43af939f9af6a28dc035d518566",
    "evolve": "e996b1b957136d16fc8f3c79220e747497cd9d28b23a9ca250e53688fda88985",
    "collapse": "a56e6f15669dd4a1341174d0ea20fbbbe32e7282fbd274c0dd98eb97b30ebb77",
    "doubleslit": "b152b33b324f86f9ed908583864b66152fdd5de4d4f633068ff01186dd03b9f5",
    "erratum": "c3cff51aa99eb58ce329fc13918d2504366fe333daca2919c8665152e88bd95f",
}

# the package's exports, in order, as they stood at the same commit, less the
# Born helpers and teleport_input_state, which moved to tests/oracles.py
EXPORTS = [
    "ModeGrid", "DualFockState", "DispersionParams", "vacuum", "apply_b",
    "apply_b_dagger", "annihilation_matrix", "creation_matrix",
    "commutator_residual", "anticommutator_residual", "position_create",
    "BellKind", "DualRegister", "from_amplitudes", "bell_pair", "tensor",
    "apply_unitary", "fidelity", "PAULI_I", "PAULI_X", "PAULI_Y", "PAULI_Z",
    "HADAMARD", "MeasurementRecord", "Z_BASIS", "X_BASIS", "projective_measure",
    "bell_measure",
    "measure_shots", "TeleportationResult", "SwapResult", "ReadoutStats",
    "ProductStateStats", "bell_branches", "reassemble_branches",
    "swap_input_state", "derive_correction_table",
    "run_teleportation", "teleportation_shots", "swap_outcome_map",
    "run_entanglement_swap", "swap_shots", "entangled_readout_demo",
    "product_plus_state", "product_state_demo", "WaveGrid", "Potential",
    "ZonePartition", "SlitGeometry", "DoubleSlitResult", "gaussian_packet",
    "from_samples", "evolve", "free_propagate", "zone_coefficients",
    "zone_profile", "collapse_to", "collapse_detect", "analytic_screen_intensity",
    "fringe_visibility", "double_slit_accumulate", "teleport_decomposition",
    "swap_decomposition", "build_erratum_report",
]


def document_digest(argv, path):
    code = run(argv + ["--output", str(path)])
    return code, hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_document_bytes_pinned(name, seed, tmp_path):
    argv = CASES[name] + ["--seed", str(seed)]
    code, digest = document_digest(argv, tmp_path / "doc")
    assert code in (0, 1)
    assert digest == DIGESTS[f"{name}/{seed}"], " ".join(argv)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_table_form_document_bytes_pinned(name, seed, tmp_path):
    path = tmp_path / "doc"
    argv = TABLE_CASES[name] + [f"--seed={seed}", f"--output={path}"]
    assert run(argv) in (0, 1)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == TABLE_DIGESTS[f"{name}/{seed}"], " ".join(argv)


@pytest.mark.parametrize("sub", sorted(HELP_DIGESTS))
def test_help_text_pinned(sub, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run(([sub] if sub else []) + ["--help"])
    assert exc.value.code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == HELP_DIGESTS[sub]


def test_exports_pinned():
    assert shadowsim.__all__ == EXPORTS
    assert all(getattr(shadowsim, name) is not None for name in EXPORTS)
