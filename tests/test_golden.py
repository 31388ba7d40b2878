"""Byte-pinned CLI output: exact stdout and exit code of one default scan per
experiment, one angle scan and the selfcheck table."""

from __future__ import annotations

import pytest

from biphoton.cli import main

GOLDEN = [
    (
        ['scan', '--experiment', 'fig1'],
        0,
        (
            'param,value,closed_form,abs_error\n'
            'coincidence_rate,0,0,0\n'
        ),
    ),
    (
        ['scan', '--experiment', 'pdc'],
        0,
        (
            'param,value,closed_form,abs_error\n'
            'coincidence_rate,0,0,0\n'
        ),
    ),
    (
        ['scan', '--experiment', 'fig2'],
        0,
        (
            'param,value,closed_form,abs_error\n'
            'coincidence_rate,0.0625,0.0625,5.55111512313e-17\n'
        ),
    ),
    (
        ['scan', '--experiment', 'fig3'],
        0,
        (
            'param,value,closed_form,abs_error\n'
            'visibility,1,1,0\n'
        ),
    ),
    (
        ['scan', '--experiment', 'cascade'],
        0,
        (
            'param,value,closed_form,abs_error\n'
            'coincidence_rate,0.5,0.5,1.11022302463e-16\n'
        ),
    ),
    (
        ['scan', '--experiment', 'chsh'],
        0,
        (
            'param,value,closed_form,abs_error\n'
            'abs_S,2.82842712475,2.82842712475,4.4408920985e-16\n'
        ),
    ),
    (
        ['scan', '--experiment', 'same-channel'],
        0,
        (
            'param,value,closed_form,abs_error\n'
            'both_ch1,0.25,0.25,2.22044604925e-16\n'
            'both_ch2,0.25,0.25,2.22044604925e-16\n'
            'split,0.5,0.5,4.4408920985e-16\n'
        ),
    ),
    (
        ['scan', '--experiment', 'fig2', '--angle', 'theta4', '10', '--scan', 'theta3', '0', '90', '15'],
        0,
        (
            'param,value,closed_form,abs_error\n'
            '0,0.0606153943996,0.0606153943996,5.55111512313e-17\n'
            '15,0.0620252422816,0.0620252422816,6.93889390391e-17\n'
            '30,0.0551888888475,0.0551888888475,4.16333634234e-17\n'
            '45,0.0419381294789,0.0419381294789,3.46944695195e-17\n'
            '60,0.0258234944479,0.0258234944479,1.73472347598e-17\n'
            '75,0.0111628871973,0.0111628871973,1.21430643318e-17\n'
            '90,0.00188460560044,0.00188460560044,0\n'
        ),
    ),
    (
        ['selfcheck'],
        0,
        (
            'param,value,closed_form,abs_error\n'
            'fig1_sin2_max_abs_err,1.66533453694e-16,0,1.66533453694e-16\n'
            'fig1_conditional_max_dev,3.33066907388e-16,0,3.33066907388e-16\n'
            'pdc_shape_max_dev,3.33066907388e-16,0,3.33066907388e-16\n'
            'pdc_peak_psi_e,0.5,0.5,1.11022302463e-16\n'
            'pdc_peak_psi_u,0.25,0.25,2.22044604925e-16\n'
            'cascade_cos2_max_abs_err,1.11022302463e-16,0,1.11022302463e-16\n'
            'fig2_psi_u_max_abs_err,8.32667268469e-17,0,8.32667268469e-17\n'
            'fig2_psi_e_max_rate,0,0,0\n'
            'fig3_visibility_psi_u,1,1,0\n'
            'fig3_visibility_psi_e,3.33066907388e-16,0,3.33066907388e-16\n'
            'overlap_entangled_component,0.707106781187,0.707106781187,0\n'
            'overlap_imaginary_part,0,0,0\n'
            'remainder_norm2,0.5,0.5,1.11022302463e-16\n'
            'factorization_max_amp_diff,2.22044604925e-16,0,2.22044604925e-16\n'
            'factor_commutator_abs,0,0,0\n'
            'chsh_abs_circular_pair,2.82842712475,2.82842712475,0\n'
            'chsh_abs_psi_e,2.82842712475,2.82842712475,0\n'
            'chsh_abs_psi_u,2.82842712475,2.82842712475,4.4408920985e-16\n'
            'chsh_psi_e_minus_psi_u,-4.4408920985e-16,0,4.4408920985e-16\n'
            'same_channel_psi_u_ch1,0.25,0.25,2.22044604925e-16\n'
            'same_channel_psi_u_ch2,0.25,0.25,2.22044604925e-16\n'
            'same_channel_psi_e_ch1,0,0,0\n'
            'same_channel_psi_e_ch2,0,0,0\n'
            'circular_outcome_total,1,1,4.4408920985e-16\n'
        ),
    ),
]


@pytest.mark.parametrize("argv,code,stdout", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN])
def test_cli_stdout_is_byte_identical(argv, code, stdout, capsys):
    assert main(list(argv)) == code
    assert capsys.readouterr().out == stdout
