"""Golden outputs: the sha256 of the full stdout document of fast CLI calls.

The digests cover the witnesses, generator lists and certificates that the
count-level tests do not pin, so a refactor that changes any byte of these
documents (for example which A5 the subgroup-by-pairs search picks inside
PSL(2,11)) fails here.
"""

import hashlib

import pytest

from hgl.cli import main

GOLDEN = [
    (["count-hgs", "--gamma", "S3", "--g", "S3"],
     "59c96528ded4fff95afd6be6830f6c646e0478545565021d86a3e46a27d3d119"),
    (["count-hgs", "--gamma", "C6", "--g", "S3"],
     "98ae6a5c3eec96f39c0b9d750906fa05cd56a090b2f9e58af45566348b18fd9e"),
    (["delta-p", "--g", "C12", "--p", "3", "--all-embeddings"],
     "cd199113ccfd4757c3e47f828a5fd46137ed4dc7af29b33286326c8aeba874df"),
    (["untangle", "--g", "PSL(2,7)", "--h", "stab", "--j", "search", "--witness"],
     "4f3f294419ba9dc57547c6c575a9f2872745f0012f5cb83a11860d6a84c02846"),
    (["untangle", "--g", "PSL(2,11)", "--h", "A5", "--j", "search", "--witness"],
     "c64e64ae264007082e8a19923443284a8bfa311b54de3957014a21e94d769d54"),
    (["sol-insol", "--case", "i"],
     "be7439a7bb1a4556cca6a4a42407828e6be27b7c296f3b9626f13acdd10c1a98"),
    (["sol-insol", "--case", "ii"],
     "a7c0ae92bd65150f0547b4f366075fa46a7f14ec42b4432b086b9be4e7a3ce75"),
    (["structure", "--group", "F21xD8"],
     "321198cd6d904d194e1684446b717104ce71358388e862058da2b629dfe1ee03"),
    (["a-value", "--group", "S5"],
     "88ff4bb9bdda4739173ef49b48a4c8e28249d9875a84cb260d9872f7acc8d428"),
    (["enumerate-regular", "--g", "C4", "--candidates", "C4,E(2,2)"],
     "7de1b1a51dbb6efafa56dc8d32cd316f11ef28c595131552a06fd4c622d031a8"),
    (["count-hgs", "--gamma", "D8", "--g", "E(2,3)"],
     "4c6e445b2f399eb701517b91a516fc6b3335b9e4af8047368995fccb0db51071"),
    (["count-hgs", "--gamma", "A4", "--g", "A4"],
     "15451aa73b00cf1ed3d862c8ec0b6f272bfdd5012278f508c4e283cb147e7e33"),
    (["enumerate-regular", "--g", "D8", "--candidates", "C8,D8,E(2,3),C2xC4"],
     "d061e909f6875deda9b565ed12c85ec1f832570016ea9adfd6e2cd5c5d838f72"),
    (["delta-p", "--g", "C2xC4", "--p", "2", "--all-embeddings"],
     "033874bae3b5da747eea493bbdf591d80ae57024493b918aeb00f52265284674"),
    (["enumerate-regular", "--g", "S3xS3"],
     "e4fb17184a1f5a70ad3b0d2c4e975e54c43874014cc212d226ee35b47bb54a55"),
    (["delta-p", "--g", "C2xC2xC4", "--p", "2", "--all-embeddings"],
     "c8fdde4689e36d0a00d12017c7aeb73fa35db4c8c957ce34e61d70ee03fa1082"),
    (["count-hgs", "--gamma", "C27", "--g", "C27"],
     "fec3dd477a992b7730a185327ead766dff82b0d3848d7d2e5c3b762b002c6246"),
    (["count-hgs", "--gamma", "C16", "--g", "C2xC8"],
     "8a589d6c0c08fc1c169cf4c02c13cb2251d740624e45e7556cdde0262cc345d5"),
    (["count-hgs", "--gamma", "C27", "--g", "C9xC3"],
     "6fd77930a1775d6a31c128f77756cbdbabd7cd37bcae91b3caca79d726bb6ac7"),
    (["count-hgs", "--gamma", "C81", "--g", "C81"],
     "7ad26b3d2641814f9f5c7d393c69716c36af4e68cb57ed959b664c130cc20570"),
    (["check-a-ineq", "--t", "A7"],
     "5efab004bc2834b37fe1cb0730ae6102b3cf07effa230274becd1894a27a4e84"),
    (["a-value", "--group", "PSL(2,7)"],
     "d99ec1b3fa829a32ad8933cbd12f4e87fd49bc544460b40504f762af4a22755e"),
    (["an-gen", "--n", "5"],
     "40f06dfbe55a4f7810952664d911d4015bc4dad401338ca957b55b73f9398b32"),
    (["count-hgs", "--gamma", "C9", "--g", "E(3,2)"],
     "28c89a12d8d9109918358aa782ea521bc31ea6925f51b87bee5b80afea055e92"),
    (["enumerate-regular", "--g", "E(3,3)"],
     "c2bc2a0804175a4cc211a318c4b6724b06c10a37929864f6be2ff0ebc5872427"),
    (["count-hgs", "--gamma", "C27", "--g", "E(3,3)"],
     "04414344e43ad9ed4a9c559ef798c740fede5c4d614371ce6814eba3d99b6927"),
    (["count-hgs", "--gamma", "E(5,2)", "--g", "E(5,2)"],
     "06124e0bc5c9560d7d4091c08bba90a816f641d9e1f02d8b7133f09b39c7c0bd"),
    (["count-hgs", "--gamma", "A5", "--g", "A5"],
     "5a8213cb49d73ba7c42cac9b89d1937b40377c492e4df5b8215a625c5d0e237b"),
    (["enumerate-regular", "--g", "C2xC2xC4"],
     "9e607d9884d26a403e48d968b1bf67707ffff8b763efb3edfba39481829c37b4"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_document(argv, digest, capsys, monkeypatch):
    monkeypatch.delenv("HGL_CACHE_DIR", raising=False)
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
