"""The parse-output check that feeds error_rate."""

import workloads
from stackptr.treebank import DependencyTree, Token

GOLD = [DependencyTree((Token("a", "NN"), Token("b", "VV")), (-1, 2, 0), ("nsubj", "root"))]
INPUT = "1\ta\t_\tNN\tNN\t_\t2\tnsubj\t_\t_\n2\tb\t_\tVV\tVV\t_\t0\troot\t_\t_\n\n"


def _check(output):
    result = workloads.RepResult(parse_tokens=2)
    workloads.check_parse_output(INPUT, output, GOLD, True, result)
    return result


def test_a_correct_parse_passes_and_is_scored():
    result = _check(INPUT.replace("\tnsubj\t", "\tdet\t"))
    assert result.failures == {} and result.sentences == 1
    assert result.las == 50.0


def test_changed_columns_missing_rows_and_bad_trees_fail():
    assert _check(INPUT.replace("\tNN\tNN\t", "\tNN\tJJ\t")).failures
    assert _check(INPUT.split("\n", 1)[1]).failures                   # token 1 lost
    assert _check(INPUT.replace("\t0\troot", "\t1\troot")).failures   # cycle 1 <-> 2
    assert _check(INPUT + INPUT).failures                             # extra sentence
    assert _check(INPUT.replace("\t2\tnsubj", "\tx\tnsubj")).failures
