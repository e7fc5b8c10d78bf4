import pytest

from cosma import assets, frontend, reach, robdd


@pytest.fixture(scope="session")
def tlc_system():
    result = frontend.parse_system(assets.text("tlc.csm"), "tlc.csm")
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.system


@pytest.fixture(scope="session")
def tlc_car_system():
    result = frontend.parse_system(assets.text("tlc_car.csm"), "tlc_car.csm")
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.system


@pytest.fixture(scope="session")
def tlc_queries(tlc_system):
    qres = frontend.parse_queries(assets.text("tlc_queries.tq"), system=tlc_system)
    assert qres.ok, [str(d) for d in qres.diagnostics]
    return qres.queries


@pytest.fixture(scope="session")
def tlc_rg(tlc_system):
    return reach.build_rg_explicit(tlc_system)


@pytest.fixture(scope="session")
def tlc_car_rg(tlc_car_system):
    return reach.build_rg_explicit(tlc_car_system)


# the one kernel's name, kept as the parameter of the kernel tests so that
# their ids (``test_...[python]``) stay those of earlier runs
@pytest.fixture(params=[robdd.BACKEND])
def kernel(request):
    return request.param
