"""The benchmark's workloads: CLI argument lists with pinned answers.

Every job is one call of ``hgl.cli.main(argv)``.  A job passes when its exit
code and the sha256 of its canonical ``result`` object equal the pinned ones
and its independent check (a value known from the literature or from the
library's acceptance suite) holds.

The benchmark seed only permutes the jobs of a pass.  It is not passed on as
``psu42-verify --seed``: that seed picks the random transvections that
generate SU4(2), and with them the 30 to 60 Schreier generators of the plane
stabilizer that the embedding's full_map walks, so the job's cost nearly
doubles from one seed to another (11.7 s to 21.2 s over seeds 1 to 5, on a
2-vCPU Intel Xeon KVM guest) and would hide any smaller change.  The job
runs with the CLI's default seed, as a user's call does.
"""

from __future__ import annotations

import hashlib
import json
import random


def canonical_digest(result) -> str:
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _count(expected):
    def check(result):
        return result["count"] == expected and len(result["subgroups"]) == expected
    return check


def _hgs(expected):
    def check(result):
        return result["count"] == expected and not result["discrepancy"]
    return check


def _all_delta_ok(expected):
    def check(result):
        reports = result["reports"]
        return len(reports) == expected and all(r["ok"] for r in reports)
    return check


def _regular(degree):
    def check(result):
        cert = result["certificate"]
        return cert["degree"] == degree and cert["regular"] and cert["homomorphism"]
    return check


def _psu42(result):
    return (
        result["group_order"] == 25920
        and result["planes"] == 27
        and result["j_order"] == 27
        and result["embedding"]["regular"]
    )


def _a_value(expected):
    def check(result):
        return result["a_value"] == expected
    return check


def _a_ineq(result):
    return result["holds"] and int(result["lhs"]) < int(result["rhs"])


def _holds(_result):
    return True


class Job:
    """One CLI call with its pinned exit code, result digest and check."""

    def __init__(self, argv, digest, check=_holds, exit_code=0):
        self.argv = list(argv)
        self.digest = digest
        self.check = check
        self.exit_code = exit_code

    @property
    def name(self) -> str:
        return " ".join(self.argv)


def _count_hgs(gamma, g, digest, check=_holds):
    return Job(["count-hgs", "--gamma", gamma, "--g", g], digest, check)


def _a_ineq_job(t, digest):
    return Job(["check-a-ineq", "--t", t], digest, _a_ineq)


# Why each workload exists (also in BENCHMARK.json):
# - regsub: the enumerate-then-certify flow of the Delta_p criterion.  Most of
#   its time is the Dimino closure search; E(3,3) has a large Aut(G) (GL(3,3),
#   order 11232) and S3xS3 a small one.  E(2,4) runs the same code path but
#   takes minutes per call, too long to repeat for every check.
# - hgs-count: isomorphism tests, Schreier-Sims on regular groups and Cayley
#   indexing; also the cyclic fast path and the Aut(G) orbit closure.
# - embed-large: single embeddings of order 25920 and 20160, each one large
#   full_map and one orbit over on-demand Cayley multiplication.
# - abelian-bound: the a(G) branch-and-bound, which no other workload runs.
WORKLOADS = {
    "regsub": [
        Job(["enumerate-regular", "--g", "E(3,3)"],
            "56ce0169e35e819f8389b163449689a8e877d4d2362444cc17a41652513a48ce", _count(3537)),
        Job(["enumerate-regular", "--g", "S3xS3"],
            "e98eb270a7bac2947ec27d92daa0426582af2b7df18463eb9a9b3d33d36e59f5", _count(832)),
        Job(["delta-p", "--g", "C2xC2xC4", "--p", "2", "--all-embeddings"],
            "12786353434a7a84d06b1760a43921e4ad3a5e494155dee027e8f6062afef7cd", _all_delta_ok(3152)),
    ],
    "hgs-count": [
        _count_hgs("C9", "C9", "a03939e14aaf499f2837862c566e901486ceef82fb28e3ff7baa8db1c95f9e1b", _hgs(3)),
        _count_hgs("C9", "E(3,2)", "157231aecb5533d7cf026799d02841bd7206a792b6aea2aab7980a5da10ea934"),
        _count_hgs("C25", "C25", "a6d5f441d4fdd8ed3212cf2c13db40e326e7dee048593f281aa3e74bf6a4a611", _hgs(5)),
        _count_hgs("C27", "C27", "5797467cb916ebb1c1e23c10f3476430b54faadd1518eaaa843e35349a0521f0", _hgs(9)),
        _count_hgs("C27", "C9xC3", "2952ddddf8d50f015b5fb24c24edcdda929c8b4c801ad3d67a2644567b305f24"),
        _count_hgs("C27", "E(3,3)", "6b3edca85809483059992fe9939d279163919488d57645fc3153e02041818904"),
        _count_hgs("C6", "C6", "b467fa2f71a9e02fa1f71f3b56f3e78f35bd42fe6b488efd4d6b54c2410aff7a"),
        _count_hgs("C6", "S3", "eb38f9715fe95c8902ea001a0e68346091e56ce08cbe9bef121e26e7cc521fa5"),
        _count_hgs("S3", "C6", "2eaed610e35e720722721ca4653a83be4dcf875e4230ee05498e3ebb6c7eafee"),
        _count_hgs("S3", "S3", "808f7d86ba59ab132a91a6c7baf0cc7e7e0a94f43373b45fc39f2c8caa14112c"),
        _count_hgs("E(5,2)", "E(5,2)", "1d197a4b7b7f7ba3c6b556c884737ef84848efc6d50a0bb84f71cf49549badbc", _hgs(25)),
        _count_hgs("A5", "A5", "c9222e86381ea86a5df99da3db7ad35ac9bf6eb34d6cd6489dbb0c86a5f1809c", _hgs(2)),
    ],
    "embed-large": [
        Job(["psu42-verify"], "5351ba24ec490ea40ae0a8704623c66065c54dd1171af8551cbf24b030e32187", _psu42),
        Job(["an-gen", "--n", "8"], "fa3eb6731c93a2deddee859386bb8d66237cd893532e51aa1fb5ac61a53c117c", _regular(20160)),
        Job(["untangle", "--g", "PSL(2,11)", "--h", "A5", "--j", "search"],
            "c7fd19b803d7a93404e952a8d0fb734e624a1d4201ee098d3a0f7b80cdcbd947", _regular(660)),
    ],
    "abelian-bound": [
        Job(["a-value", "--group", "S8"], "ee9ff9ee205dfa1ee340bfb30d961a96650151720647238930d4c9a4fef6f846", _a_value(18)),
        _a_ineq_job("A5", "68701c1d45c8b0ebdd0288fb5aaac748abe9deae6f4f81d494e12e3a725ff1d4"),
        _a_ineq_job("A6", "6b3cf3d50672693a67c016d55ec9cdadd0131dbddddb83d5a2a71d19e4a35ae8"),
        _a_ineq_job("A7", "4d74d321e1caf19b7a63c059f6afe934b39358c102b1de2dcaaf9c210b6d8708"),
        _a_ineq_job("PSL(2,7)", "9eeab75b6424ac00e05ff4a8ca674978c60516225dbe558b353beaf3ea009473"),
        _a_ineq_job("PSL(2,8)", "86964866242e17ef453edd17277fc385f6c676c3de01b1f9414a854796c4af84"),
        _a_ineq_job("PSL(2,11)", "30bf785c6fc0cd3275c4654a536f04ec474abaf09f897662cfcd728ddf21101b"),
        _a_ineq_job("PSL(2,13)", "b631c0525fcc394f4390314f8110215ea9f2f55919063b402c8066d15e77c2c9"),
    ],
}


# Passes every run makes, whatever --seconds asks for.  abelian-bound's short
# pass spread most in trial runs, so it takes the median of two.  The others
# take one, which already makes a run of 20-35 s.
MIN_PASSES = {"regsub": 1, "hgs-count": 1, "embed-large": 1, "abelian-bound": 2}


def jobs_for(workload: str, seed: int):
    """The workload's jobs in the order the seed gives them."""
    jobs = list(WORKLOADS[workload])
    random.Random(seed).shuffle(jobs)
    return jobs
