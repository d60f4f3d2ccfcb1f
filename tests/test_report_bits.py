"""Bit-level goldens of full bound reports.

Every real field of each report below, the residual's ``t``, ``v_t``,
``v_inf`` and argmax value, both flag tuples and the bits of ``v`` are
pinned as hex floats, so a change to how the report is computed that moves
any of them by one ulp, or flips the sign of a zero, fails here.
"""

import numpy as np
import pytest

from families import manufactured_unique
from tcpbounds import (
    ALPHA_F,
    GRID_REFINED,
    AlphaEstimate,
    DenseTensor,
    ExactSolutionInconsistentError,
    build_report,
    diagonal_bounds,
)


def _forged_alpha(value):
    return AlphaEstimate(value, ALPHA_F, GRID_REFINED, 0, 0, False)


def _family_cases():
    for family, order in (("diagonal", 4), ("row_power", 4), ("general", 2)):
        for n in (3, 6):
            rng = np.random.default_rng(1000 * order + 10 * n + len(family))
            inst, z = manufactured_unique(rng, family, order, n)
            direction = rng.uniform(-1.0, 1.0, n)
            for distance in (1e-9, 1.0):
                u = z + distance * direction
                name = f"{family}-o{order}-n{n}-d{distance:g}"
                if family == "diagonal":
                    yield name, lambda i=inst, z=z, u=u: diagonal_bounds(
                        i.tensor, i.q, z, u
                    )
                else:
                    yield name, lambda i=inst, z=z, u=u: build_report(
                        i.tensor, i.q, z, u, _forged_alpha(0.5)
                    )


def _path_cases():
    worked = DenseTensor.from_diagonal([1.0, 8.0], order=4)
    q = np.array([1.0, -1.0])
    z = np.array([0.0, 0.5])
    yield "exact", lambda: diagonal_bounds(worked, q, z, z.copy())
    # -0.0 == 0.0, so u is z
    yield "exact-signed-zero", lambda: diagonal_bounds(
        worked, q, z, np.array([-0.0, 0.5])
    )
    # the first coordinate is singular
    singular = DenseTensor(2, 2, {(2, 2): 1.0})
    q_s = np.array([0.0, -1.0])
    z_s = np.array([0.0, 1.0])
    # the objective is (-0.0, 0.0): a tie between zeros of both signs
    yield "signed-zero-tie", lambda: build_report(
        singular, q_s, z_s, np.array([-5.0, 1.0]), _forged_alpha(1.0)
    )
    yield "degenerate-q", lambda: diagonal_bounds(
        worked, np.array([1.0, 0.0]), np.zeros(2), np.array([0.4, 0.2])
    )
    one = DenseTensor.from_diagonal([1.0], order=4)
    yield "degenerate-z", lambda: diagonal_bounds(
        one, np.array([-5e-9]), np.zeros(1), np.array([0.5])
    )
    # the objective ties at coordinates 2 and 3 (0.5**4 each), where v is
    # 0.5 and -0.5
    tied = DenseTensor.from_diagonal([2.0, 1.0, 1.0], order=4)
    q_t = np.array([-2.0, -1.0, -1.0])
    z_t = np.ones(3)
    yield "argmax-tie", lambda: diagonal_bounds(
        tied, q_t, z_t, z_t + np.array([0.1, 0.5, -0.5])
    )


CASES = dict([*_family_cases(), *_path_cases()])

_REAL = (
    "lb_new", "ub_new", "lb_base", "ub_base", "D",
    "a_norm_root", "sol_lb", "sol_ub", "rel_lb", "rel_ub",
)


def _hex(value):
    return None if value is None else float.hex(value)


def report_bits(report):
    """The report's bits as a tuple of hex strings, ints and flag tuples."""
    data = report.residual
    return (
        tuple(_hex(getattr(report, name)) for name in _REAL),
        report.flags,
        (data.t, _hex(data.v_t), _hex(data.v_inf), _hex(data.argmax_value)),
        data.flags,
        tuple(map(float.hex, data.v.tolist())),
    )


# Taken from the report code before its n-vector reductions moved to Python floats.
GOLDENS = {
    'diagonal-o4-n3-d1e-09': (
        (
            '0x1.9e231eeaa1fb6p-32',
            '0x1.c6abbc9e42d9cp-31',
            '0x1.1c8c15789794ep-32',
            '0x1.4adea609c9ebcp-30',
            '0x1.f493422e091f0p-63',
            '0x1.2e3b1a54a6ab3p+0',
            '0x1.b5ae768172447p-2',
            '0x1.f97157faa2602p-2',
            '0x1.a38289662a626p-31',
            '0x1.09efe426bf6c5p-29',
        ),
        (),
        (3, '0x1.363d842d0f4bfp-31', '0x1.363d842d0f4bfp-31', '0x1.8d3d19f505ca1p-123'),
        (),
        ('0x1.0e05925f8ab38p-34', '0x1.77afa603a6c67p-32', '0x1.363d842d0f4bfp-31'),
    ),
    'diagonal-o4-n3-d1': (
        (
            '0x1.81b200218b7dcp-2',
            '0x1.a771fa2dcdc55p-1',
            '0x1.090156f8f9ae9p-2',
            '0x1.34257d1f49c21p+0',
            '0x1.b22e0763a1240p-3',
            '0x1.2e3b1a54a6ab3p+0',
            '0x1.b5ae768172447p-2',
            '0x1.f97157faa2602p-2',
            '0x1.86b2f4d8ce92dp-1',
            '0x1.ef58addbbb9dcp+0',
        ),
        (),
        (3, '0x1.20ef0d11bfb50p-1', '0x1.20ef0d11bfb50p-1', '0x1.2ad962e9530c7p-3'),
        (),
        ('0x1.f6f4618eeca10p-5', '0x1.5de28d753a83cp-2', '0x1.20ef0d11bfb50p-1'),
    ),
    'diagonal-o4-n6-d1e-09': (
        (
            '0x1.172d46e70f3ddp-31',
            '0x1.2d8b518b26327p-29',
            '0x1.c568ce93302f5p-32',
            '0x1.7356a344ea01ep-29',
            '0x1.b179d722b6438p-59',
            '0x1.94a15e48617e9p+0',
            '0x1.648a7e795a89cp+0',
            '0x1.15393e643b852p+1',
            '0x1.01cdc0788bfdfp-32',
            '0x1.b10605b02dc1ep-30',
        ),
        (),
        (
            4,
            '-0x1.2484009e84331p-30',
            '0x1.2484009e84331p-30',
            '0x1.14183968d8de0p-120',
        ),
        (),
        (
            '0x1.2a9fe90b7c61ap-33',
            '-0x1.7b832c2c8e367p-33',
            '0x1.14e80204cd9cap-30',
            '-0x1.2484009e84331p-30',
            '0x1.781b39f69ba59p-32',
            '-0x1.e6fa0289f2335p-31',
        ),
    ),
    'diagonal-o4-n6-d1': (
        (
            '0x1.0400f3c0a331ap-1',
            '0x1.18d5be7844e88p+1',
            '0x1.a6453a2bed203p-2',
            '0x1.59d5fb686db4ep+1',
            '0x1.77faff339c7c6p+1',
            '0x1.94a15e48617e9p+0',
            '0x1.648a7e795a89cp+0',
            '0x1.15393e643b852p+1',
            '0x1.e03264f836d68p-3',
            '0x1.9348daea1122dp+0',
        ),
        (),
        (4, '-0x1.106d29c1e9272p+0', '0x1.106d29c1e9272p+0', '0x1.9f6bc9eca71d9p-1'),
        (),
        (
            '0x1.161daa2811d98p-3',
            '-0x1.6172ce3161bd0p-3',
            '0x1.01e399f409f93p+0',
            '-0x1.106d29c1e9272p+0',
            '0x1.5e46c87531f07p-2',
            '-0x1.c58848c5c66e8p-1',
        ),
    ),
    'row_power-o4-n3-d1e-09': (
        (
            '0x1.29e1d7f631310p-31',
            '0x1.dcb2d04af0010p-28',
            '0x1.144cd916ffadcp-31',
            '0x1.00f785a4db139p-27',
            '0x1.7933f57c986a8p-57',
            '0x1.ba490e7246c1dp+0',
            '0x1.85530850bfb94p-1',
            '0x1.50503b808f8b1p+1',
            '0x1.c57e23e28f359p-33',
            '0x1.3973ebf224f31p-27',
        ),
        ('UNCERTIFIED_ALPHA',),
        (3, '0x1.78d430b513925p-30', '0x1.78d430b513925p-30', '0x1.7b62f8abd971cp-119'),
        (),
        ('0x1.c774ded5cadadp-31', '0x1.6b5a945b1dd23p-32', '0x1.78d430b513925p-30'),
    ),
    'row_power-o4-n3-d1': (
        (
            '0x1.156ca60dd4bd8p-1',
            '0x1.bbf5c5cf40802p+2',
            '0x1.01531880cf57cp-1',
            '0x1.dea35a90fb17dp+2',
            '0x1.472be08c6b712p+3',
            '0x1.ba490e7246c1dp+0',
            '0x1.85530850bfb94p-1',
            '0x1.50503b808f8b1p+1',
            '0x1.a65916ef225d5p-3',
            '0x1.23ecf91661408p+3',
        ),
        ('UNCERTIFIED_ALPHA',),
        (3, '0x1.5ef300034dc3fp+0', '0x1.5ef300034dc3fp+0', '0x1.1d6b30f7fa3f8p+1'),
        (),
        ('0x1.867b72dc61e47p-1', '0x1.526661ac13233p-2', '0x1.5ef300034dc3fp+0'),
    ),
    'row_power-o4-n6-d1e-09': (
        (
            '0x1.1fc9ecd278dd0p-31',
            '0x1.d3197541c539dp-28',
            '0x1.0b35ac1163445p-31',
            '0x1.f712b2dc14557p-28',
            '0x1.6b06bfb9ead84p-57',
            '0x1.be856aa94cc74p+0',
            '0x1.f30f4c1cd8e87p-1',
            '0x1.b33c5ebd9695ep+1',
            '0x1.528c128d8068cp-33',
            '0x1.df3603033f521p-28',
        ),
        ('UNCERTIFIED_ALPHA',),
        (
            3,
            '-0x1.6ea438078187dp-30',
            '0x1.6ea438078187dp-30',
            '0x1.589e029ec8c78p-119',
        ),
        (),
        (
            '0x1.ff9dc37175e6cp-31',
            '-0x1.2c816ea5dd653p-32',
            '-0x1.6ea438078187dp-30',
            '-0x1.3229c71dcbe01p-31',
            '0x1.52ad84b44d73ap-32',
            '0x1.039ae87e768e8p-30',
        ),
    ),
    'row_power-o4-n6-d1': (
        (
            '0x1.0c0630583a188p-1',
            '0x1.b3052f53a22ebp+2',
            '0x1.f1b77df3fbb31p-2',
            '0x1.d485f55ea971cp+2',
            '0x1.3ae00b2919c14p+3',
            '0x1.be856aa94cc74p+0',
            '0x1.f30f4c1cd8e87p-1',
            '0x1.b33c5ebd9695ep+1',
            '0x1.3b4bee779295dp-3',
            '0x1.be4cccef27ff5p+2',
        ),
        ('UNCERTIFIED_ALPHA',),
        (3, '-0x1.557623c5a7617p+0', '0x1.557623c5a7617p+0', '0x1.0342dc8712f4cp+1'),
        (),
        (
            '0x1.dc7ad12a588e3p-1',
            '-0x1.17de1debac718p-2',
            '-0x1.557623c5a7617p+0',
            '-0x1.1d22f82e72ab1p-1',
            '0x1.3b6af4b95a13bp-2',
            '0x1.e38d5ce9e6cf8p-1',
        ),
    ),
    'general-o2-n3-d1e-09': (
        (
            '0x1.1f9d41d2c0780p-31',
            '0x1.9b847156c9e67p-25',
            '0x1.1c81e009fbc01p-31',
            '0x1.a002e65e14e85p-25',
            '0x1.439204344ca13p-51',
            '0x1.75c8f1acbac67p+2',
            '0x1.013754b3f8854p-1',
            '0x1.778f847709483p+2',
            '0x1.881a6a7f06892p-34',
            '0x1.99925908ac373p-24',
        ),
        ('UNCERTIFIED_ALPHA',),
        (1, '-0x1.e689057e4d4a6p-29', '0x1.e689057e4d4a6p-29', '0x1.c1fe846f30a37p-59'),
        (),
        ('-0x1.e689057e4d4a6p-29', '-0x1.03e3f0d5a318ap-30', '0x1.0941387ed87e2p-29'),
    ),
    'general-o2-n3-d1': (
        (
            '0x1.0bdc97af26ae0p-1',
            '0x1.7f41633369764p+5',
            '0x1.08f7d5d6147cep-1',
            '0x1.8370d59226110p+5',
            '0x1.18a7102bcb504p+9',
            '0x1.75c8f1acbac67p+2',
            '0x1.013754b3f8854p-1',
            '0x1.778f847709483p+2',
            '0x1.6d2cb06f356b6p-4',
            '0x1.7d71801b6180dp+6',
        ),
        ('UNCERTIFIED_ALPHA',),
        (1, '-0x1.c51f0bc9985cdp+1', '0x1.c51f0bc9985cdp+1', '0x1.864ecbe21c49ep+1'),
        (),
        ('-0x1.c51f0bc9985cdp+1', '-0x1.e415658fc91aep-1', '0x1.8b2689cd076e0p+0'),
    ),
    'general-o2-n6-d1e-09': (
        (
            '0x1.bd00f31480680p-33',
            '0x1.d1253cea908f9p-26',
            '0x1.58d20df36a60dp-32',
            '0x1.d49f3ed0b9906p-26',
            '0x1.a049128ae13acp-53',
            '0x1.660e425139540p+2',
            '0x1.6ac75fc41c695p-1',
            '0x1.fb6704cdfd782p+2',
            '0x1.c109307dbe9d6p-36',
            '0x1.483c89f2dbcbep-25',
        ),
        ('UNCERTIFIED_ALPHA',),
        (5, '-0x1.c6f690184584ap-30', '0x1.1c3ebbe7c9f94p-29', '0x1.d9168a33796dbp-60'),
        (),
        (
            '-0x1.b904205535c1cp-30',
            '0x1.bce2bf9204489p-31',
            '-0x1.160f93a4997e2p-30',
            '-0x1.1c3ebbe7c9f94p-29',
            '-0x1.c6f690184584ap-30',
            '-0x1.e3387ea62c4a0p-32',
        ),
    ),
    'general-o2-n6-d1': (
        (
            '0x1.9e7121b8e1000p-3',
            '0x1.b13356ac82812p+4',
            '0x1.4123a225021b1p-2',
            '0x1.b47038eff4432p+4',
            '0x1.6911f7b6087e1p+7',
            '0x1.660e425139540p+2',
            '0x1.6ac75fc41c695p-1',
            '0x1.fb6704cdfd782p+2',
            '0x1.a2327ad7a07c8p-6',
            '0x1.31b1b039913f7p+5',
        ),
        ('UNCERTIFIED_ALPHA',),
        (5, '-0x1.a7b7a9cc1b694p+0', '0x1.08b9503679be7p+1', '0x1.9a56a58522f98p+0'),
        (),
        (
            '-0x1.9aba74b405c5ep+0',
            '0x1.9e5502b48cb9cp-1',
            '-0x1.02f6e012ac27bp+0',
            '-0x1.08b9503679be7p+1',
            '-0x1.a7b7a9cc1b694p+0',
            '-0x1.c208c5311fafep-2',
        ),
    ),
    'exact': (
        (
            '0x0.0p+0',
            '0x0.0p+0',
            '0x0.0p+0',
            '0x0.0p+0',
            '0x0.0p+0',
            '0x1.0000000000000p+1',
            '0x1.0000000000000p-1',
            '0x1.0000000000000p+0',
            '0x0.0p+0',
            '0x0.0p+0',
        ),
        ('EXACT_SOLUTION',),
        (1, '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
        ('EXACT_SOLUTION',),
        ('0x0.0p+0', '0x0.0p+0'),
    ),
    'exact-signed-zero': (
        (
            '0x0.0p+0',
            '0x0.0p+0',
            '0x0.0p+0',
            '0x0.0p+0',
            '0x0.0p+0',
            '0x1.0000000000000p+1',
            '0x1.0000000000000p-1',
            '0x1.0000000000000p+0',
            '0x0.0p+0',
            '0x0.0p+0',
        ),
        ('EXACT_SOLUTION',),
        (1, '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
        ('EXACT_SOLUTION',),
        ('0x0.0p+0', '0x0.0p+0'),
    ),
    'signed-zero-tie': (
        (
            '0x1.4000000000000p+2',
            '0x1.4000000000000p+2',
            '0x1.4000000000000p+1',
            '0x1.4000000000000p+3',
            '0x0.0p+0',
            '0x1.0000000000000p+0',
            '0x1.0000000000000p+0',
            '0x1.0000000000000p+0',
            '0x1.4000000000000p+2',
            '0x1.4000000000000p+2',
        ),
        ('UNCERTIFIED_ALPHA',),
        (1, '-0x1.4000000000000p+2', '0x1.4000000000000p+2', '-0x0.0p+0'),
        (),
        ('-0x1.4000000000000p+2', '0x0.0p+0'),
    ),
    'degenerate-q': (
        (
            '0x1.38e81414cf11ap-3',
            '0x1.0c1630b099511p+0',
            '0x1.1111111111111p-3',
            '0x1.3333333333334p+0',
            '0x1.999999999999cp-1',
            '0x1.0000000000000p+1',
            '0x0.0p+0',
            '0x0.0p+0',
            None,
            None,
        ),
        ('DEGENERATE_Q',),
        (1, '0x1.999999999999ap-2', '0x1.999999999999ap-2', '0x1.a36e2eb1c432fp-6'),
        (),
        ('0x1.999999999999ap-2', '0x1.999999999999ap-3'),
    ),
    'degenerate-z': (
        (
            '0x1.fe3fbd74eda59p-2',
            '0x1.fe3fbd74eda59p-2',
            '0x1.fe3fbd74eda59p-3',
            '0x1.fe3fbd74eda59p-1',
            '0x0.0p+0',
            '0x1.0000000000000p+0',
            '0x1.c0428b125a6bfp-10',
            '0x1.c0428b125a6bfp-10',
            None,
            None,
        ),
        ('DEGENERATE_Z',),
        (1, '0x1.fe3fbd74eda59p-2', '0x1.fe3fbd74eda59p-2', '0x1.0000000000000p-4'),
        (),
        ('0x1.fe3fbd74eda59p-2',),
    ),
    'argmax-tie': (
        (
            '0x1.352985b680373p-2',
            '0x1.a7f56cbd970d2p-1',
            '0x1.c51cf8f954f97p-3',
            '0x1.214517cc6b946p+0',
            '0x1.1b74498585358p-2',
            '0x1.428a2f98d728bp+0',
            '0x1.0000000000000p+0',
            '0x1.428a2f98d728bp+0',
            '0x1.eac3af7542441p-3',
            '0x1.a7f56cbd970d1p-1',
        ),
        (),
        (2, '0x1.0000000000000p-1', '0x1.0000000000000p-1', '0x1.0000000000000p-4'),
        (),
        ('0x1.02082613df540p-3', '0x1.0000000000000p-1', '-0x1.0000000000000p-1'),
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_report_bits_match_goldens(name):
    # The second report on the same tensor reuses the first one's certificate.
    assert report_bits(CASES[name]()) == GOLDENS[name]
    assert report_bits(CASES[name]()) == GOLDENS[name]


def test_goldens_cover_the_named_paths():
    # a u equal to z up to the sign of a zero is z; ties take the smallest t
    assert GOLDENS["exact-signed-zero"] == GOLDENS["exact"]
    assert GOLDENS["exact"][1] == ("EXACT_SOLUTION",)
    assert GOLDENS["degenerate-q"][1] == ("DEGENERATE_Q",)
    assert GOLDENS["degenerate-z"][1] == ("DEGENERATE_Z",)
    assert GOLDENS["argmax-tie"][2][:2] == (2, float.hex(0.5))
    assert GOLDENS["signed-zero-tie"][2][0] == 1
    assert GOLDENS["signed-zero-tie"][2][3] == "-0x0.0p+0"


def test_exact_inconsistent_is_refused():
    # On the singular tensor, u = (5, 1) makes v_t = 0 at t = 1 while u != z.
    # The report is refused before any bound is formed; it once carried the
    # baseline pair 0 and 0 with the sharpened and relative pairs undefined.
    singular = DenseTensor(2, 2, {(2, 2): 1.0})
    with pytest.raises(ExactSolutionInconsistentError, match="t=1"):
        build_report(
            singular,
            np.array([0.0, -1.0]),
            np.array([0.0, 1.0]),
            np.array([5.0, 1.0]),
            _forged_alpha(1.0),
        )
