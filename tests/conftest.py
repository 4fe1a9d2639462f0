import pytest

from gradedlie.algebra import load_preset, parse_algebra

# an m0 tail: the m0 brackets [e1, ei] = e{i+1} without e2, so it passes
# is_m0_like with canonical weights but is not the m0 truncation
M0_TAIL = ("generators: (1:1), (3:3), (4:4), (5:5), (6:6), (7:7), (8:8)\n"
           "cutoff: 8\n" + "".join(f"[1,{i}] = 1*{i + 1}\n" for i in range(3, 8)))


@pytest.fixture(scope="session")
def m0():
    return load_preset("m0", 16)


@pytest.fixture(scope="session")
def L1():
    return load_preset("L1", 16)


@pytest.fixture(scope="session")
def m0_tail_text():
    return M0_TAIL


@pytest.fixture(scope="session")
def m0_tail():
    return parse_algebra(M0_TAIL)


@pytest.fixture(scope="session")
def m0_big():
    return load_preset("m0", 22)
