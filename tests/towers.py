"""Variety expressions shared by the test modules."""


def rank2_tower(depth):
    """The Bott tower of the given depth over P^1: each level is
    P(O + O(D)), D the H-class of the level below."""
    text = "P1"
    for j in range(depth):
        zeros = ",".join(["0"] * (j + 1))
        one = ",".join(["0"] * j + ["1"])
        text = f"PB({text};[{zeros}],[{one}])"
    return text
