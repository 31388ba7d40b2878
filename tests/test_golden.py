"""Byte-pinned CLI output: exact stdout and exit code of one default scan per
experiment, angle scans of fig2, pdc and cascade, a non-canonical chsh and a
second same-channel state, fig3 with two gaussian beams for each state, the
selfcheck table, and the selfcheck table and a fig2 scan as JSON."""

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
            'abs_S,2.82842712475,2.82842712475,0\n'
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
            '15,0.0620252422816,0.0620252422816,5.55111512313e-17\n'
            '30,0.0551888888475,0.0551888888475,4.16333634234e-17\n'
            '45,0.0419381294789,0.0419381294789,3.46944695195e-17\n'
            '60,0.0258234944479,0.0258234944479,2.77555756156e-17\n'
            '75,0.0111628871973,0.0111628871973,1.21430643318e-17\n'
            '90,0.00188460560044,0.00188460560044,1.73472347598e-18\n'
        ),
    ),
    (
        [
            'scan', '--experiment', 'pdc', '--state', 'psi_e',
            '--angle', 'theta1', '20', '--scan', 'theta2', '0', '180', '30',
        ],
        0,
        (
            'param,value,closed_form,abs_error\n'
            '0,0.0584888892203,0.0584888892203,1.38777878078e-17\n'
            '30,0.0150768448035,0.0150768448035,5.20417042793e-18\n'
            '60,0.206587955583,0.206587955583,2.77555756156e-17\n'
            '90,0.44151111078,0.44151111078,5.55111512313e-17\n'
            '120,0.484923155196,0.484923155196,0\n'
            '150,0.293412044417,0.293412044417,0\n'
            '180,0.0584888892203,0.0584888892203,1.38777878078e-17\n'
        ),
    ),
    (
        [
            'scan', '--experiment', 'fig2', '--state', 'psi_e',
            '--angle', 'theta4', '10', '--scan', 'theta3', '0', '180', '45',
        ],
        0,
        (
            'param,value,closed_form,abs_error\n'
            '0,0,0,0\n'
            '45,0,0,0\n'
            '90,0,0,0\n'
            '135,0,0,0\n'
            '180,0,0,0\n'
        ),
    ),
    (
        ['scan', '--experiment', 'cascade', '--angle', 'theta2', '15', '--scan', 'theta1', '0', '180', '30'],
        0,
        (
            'param,value,closed_form,abs_error\n'
            '0,0.466506350946,0.466506350946,5.55111512313e-17\n'
            '30,0.466506350946,0.466506350946,5.55111512313e-17\n'
            '60,0.25,0.25,0\n'
            '90,0.0334936490539,0.0334936490539,1.38777878078e-17\n'
            '120,0.0334936490539,0.0334936490539,1.38777878078e-17\n'
            '150,0.25,0.25,5.55111512313e-17\n'
            '180,0.466506350946,0.466506350946,5.55111512313e-17\n'
        ),
    ),
    (
        ['chsh', '--state', 'psi_u_prime', '--a', '10', '--ap', '50', '--b', '-20', '--bp', '100'],
        0,
        (
            'param,value,closed_form,abs_error\n'
            'abs_S,0.560307379214,0.560307379214,2.22044604925e-16\n'
        ),
    ),
    (
        ['scan', '--experiment', 'same-channel', '--state', 'psi_e'],
        0,
        (
            'param,value,closed_form,abs_error\n'
            'both_ch1,0,0,0\n'
            'both_ch2,0,0,0\n'
            'split,1,1,2.22044604925e-16\n'
        ),
    ),
    (
        ['scan', '--experiment', 'fig3', '--state', 'psi_u', '--beam', '1', 'gaussian', '7.5', '0.6', '0.3',
         '--beam', '2', 'gaussian', '-9', '0.8', '1.1'],
        0,
        (
            'param,value,closed_form,abs_error\n'
            'visibility,0.999306289828,0.999306289828,0\n'
        ),
    ),
    (
        ['scan', '--experiment', 'fig3', '--state', 'psi_e', '--beam', '1', 'gaussian', '7.5', '0.6', '0.3',
         '--beam', '2', 'gaussian', '-9', '0.8', '1.1'],
        0,
        (
            'param,value,closed_form,abs_error\n'
            'visibility,0.760727742377,0.760727742377,1.11022302463e-16\n'
        ),
    ),
    (
        ['selfcheck'],
        0,
        (
            'param,value,closed_form,abs_error\n'
            'fig1_sin2_max_abs_err,1.11022302463e-16,0,1.11022302463e-16\n'
            'fig1_conditional_max_dev,3.33066907388e-16,0,3.33066907388e-16\n'
            'pdc_shape_max_dev,3.33066907388e-16,0,3.33066907388e-16\n'
            'pdc_peak_psi_e,0.5,0.5,1.11022302463e-16\n'
            'pdc_peak_psi_u,0.25,0.25,2.22044604925e-16\n'
            'cascade_cos2_max_abs_err,1.11022302463e-16,0,1.11022302463e-16\n'
            'fig2_psi_u_max_abs_err,5.55111512313e-17,0,5.55111512313e-17\n'
            'fig2_psi_e_max_rate,0,0,0\n'
            'fig3_visibility_psi_u,1,1,0\n'
            'fig3_visibility_psi_e,0,0,0\n'
            'overlap_entangled_component,0.707106781187,0.707106781187,0\n'
            'overlap_imaginary_part,0,0,0\n'
            'remainder_norm2,0.5,0.5,1.11022302463e-16\n'
            'factorization_max_amp_diff,2.22044604925e-16,0,2.22044604925e-16\n'
            'factor_commutator_abs,0,0,0\n'
            'chsh_abs_circular_pair,2.82842712475,2.82842712475,0\n'
            'chsh_abs_psi_e,2.82842712475,2.82842712475,0\n'
            'chsh_abs_psi_u,2.82842712475,2.82842712475,0\n'
            'chsh_psi_e_minus_psi_u,0,0,0\n'
            'same_channel_psi_u_ch1,0.25,0.25,2.22044604925e-16\n'
            'same_channel_psi_u_ch2,0.25,0.25,2.22044604925e-16\n'
            'same_channel_psi_e_ch1,0,0,0\n'
            'same_channel_psi_e_ch2,0,0,0\n'
            'circular_outcome_total,1,1,4.4408920985e-16\n'
        ),
    ),
    (
        ['selfcheck', '--format', 'json'],
        0,
        (
            '[\n'
            '  {\n'
            '    "param": "fig1_sin2_max_abs_err",\n'
            '    "value": 1.11022302463e-16,\n'
            '    "closed_form": 0.0,\n'
            '    "abs_error": 1.11022302463e-16\n'
            '  },\n'
            '  {\n'
            '    "param": "fig1_conditional_max_dev",\n'
            '    "value": 3.33066907388e-16,\n'
            '    "closed_form": 0.0,\n'
            '    "abs_error": 3.33066907388e-16\n'
            '  },\n'
            '  {\n'
            '    "param": "pdc_shape_max_dev",\n'
            '    "value": 3.33066907388e-16,\n'
            '    "closed_form": 0.0,\n'
            '    "abs_error": 3.33066907388e-16\n'
            '  },\n'
            '  {\n'
            '    "param": "pdc_peak_psi_e",\n'
            '    "value": 0.5,\n'
            '    "closed_form": 0.5,\n'
            '    "abs_error": 1.11022302463e-16\n'
            '  },\n'
            '  {\n'
            '    "param": "pdc_peak_psi_u",\n'
            '    "value": 0.25,\n'
            '    "closed_form": 0.25,\n'
            '    "abs_error": 2.22044604925e-16\n'
            '  },\n'
            '  {\n'
            '    "param": "cascade_cos2_max_abs_err",\n'
            '    "value": 1.11022302463e-16,\n'
            '    "closed_form": 0.0,\n'
            '    "abs_error": 1.11022302463e-16\n'
            '  },\n'
            '  {\n'
            '    "param": "fig2_psi_u_max_abs_err",\n'
            '    "value": 5.55111512313e-17,\n'
            '    "closed_form": 0.0,\n'
            '    "abs_error": 5.55111512313e-17\n'
            '  },\n'
            '  {\n'
            '    "param": "fig2_psi_e_max_rate",\n'
            '    "value": 0.0,\n'
            '    "closed_form": 0.0,\n'
            '    "abs_error": 0.0\n'
            '  },\n'
            '  {\n'
            '    "param": "fig3_visibility_psi_u",\n'
            '    "value": 1.0,\n'
            '    "closed_form": 1.0,\n'
            '    "abs_error": 0.0\n'
            '  },\n'
            '  {\n'
            '    "param": "fig3_visibility_psi_e",\n'
            '    "value": 0.0,\n'
            '    "closed_form": 0.0,\n'
            '    "abs_error": 0.0\n'
            '  },\n'
            '  {\n'
            '    "param": "overlap_entangled_component",\n'
            '    "value": 0.707106781187,\n'
            '    "closed_form": 0.707106781187,\n'
            '    "abs_error": 0.0\n'
            '  },\n'
            '  {\n'
            '    "param": "overlap_imaginary_part",\n'
            '    "value": 0.0,\n'
            '    "closed_form": 0.0,\n'
            '    "abs_error": 0.0\n'
            '  },\n'
            '  {\n'
            '    "param": "remainder_norm2",\n'
            '    "value": 0.5,\n'
            '    "closed_form": 0.5,\n'
            '    "abs_error": 1.11022302463e-16\n'
            '  },\n'
            '  {\n'
            '    "param": "factorization_max_amp_diff",\n'
            '    "value": 2.22044604925e-16,\n'
            '    "closed_form": 0.0,\n'
            '    "abs_error": 2.22044604925e-16\n'
            '  },\n'
            '  {\n'
            '    "param": "factor_commutator_abs",\n'
            '    "value": 0.0,\n'
            '    "closed_form": 0.0,\n'
            '    "abs_error": 0.0\n'
            '  },\n'
            '  {\n'
            '    "param": "chsh_abs_circular_pair",\n'
            '    "value": 2.82842712475,\n'
            '    "closed_form": 2.82842712475,\n'
            '    "abs_error": 0.0\n'
            '  },\n'
            '  {\n'
            '    "param": "chsh_abs_psi_e",\n'
            '    "value": 2.82842712475,\n'
            '    "closed_form": 2.82842712475,\n'
            '    "abs_error": 0.0\n'
            '  },\n'
            '  {\n'
            '    "param": "chsh_abs_psi_u",\n'
            '    "value": 2.82842712475,\n'
            '    "closed_form": 2.82842712475,\n'
            '    "abs_error": 0.0\n'
            '  },\n'
            '  {\n'
            '    "param": "chsh_psi_e_minus_psi_u",\n'
            '    "value": 0.0,\n'
            '    "closed_form": 0.0,\n'
            '    "abs_error": 0.0\n'
            '  },\n'
            '  {\n'
            '    "param": "same_channel_psi_u_ch1",\n'
            '    "value": 0.25,\n'
            '    "closed_form": 0.25,\n'
            '    "abs_error": 2.22044604925e-16\n'
            '  },\n'
            '  {\n'
            '    "param": "same_channel_psi_u_ch2",\n'
            '    "value": 0.25,\n'
            '    "closed_form": 0.25,\n'
            '    "abs_error": 2.22044604925e-16\n'
            '  },\n'
            '  {\n'
            '    "param": "same_channel_psi_e_ch1",\n'
            '    "value": 0.0,\n'
            '    "closed_form": 0.0,\n'
            '    "abs_error": 0.0\n'
            '  },\n'
            '  {\n'
            '    "param": "same_channel_psi_e_ch2",\n'
            '    "value": 0.0,\n'
            '    "closed_form": 0.0,\n'
            '    "abs_error": 0.0\n'
            '  },\n'
            '  {\n'
            '    "param": "circular_outcome_total",\n'
            '    "value": 1.0,\n'
            '    "closed_form": 1.0,\n'
            '    "abs_error": 4.4408920985e-16\n'
            '  }\n'
            ']\n'
        ),
    ),
    (
        [
            'scan', '--experiment', 'fig2', '--angle', 'theta4', '10',
            '--scan', 'theta3', '0', '90', '15', '--format', 'json',
        ],
        0,
        (
            '[\n'
            '  {\n'
            '    "param": 0.0,\n'
            '    "value": 0.0606153943996,\n'
            '    "closed_form": 0.0606153943996,\n'
            '    "abs_error": 5.55111512313e-17\n'
            '  },\n'
            '  {\n'
            '    "param": 15.0,\n'
            '    "value": 0.0620252422816,\n'
            '    "closed_form": 0.0620252422816,\n'
            '    "abs_error": 5.55111512313e-17\n'
            '  },\n'
            '  {\n'
            '    "param": 30.0,\n'
            '    "value": 0.0551888888475,\n'
            '    "closed_form": 0.0551888888475,\n'
            '    "abs_error": 4.16333634234e-17\n'
            '  },\n'
            '  {\n'
            '    "param": 45.0,\n'
            '    "value": 0.0419381294789,\n'
            '    "closed_form": 0.0419381294789,\n'
            '    "abs_error": 3.46944695195e-17\n'
            '  },\n'
            '  {\n'
            '    "param": 60.0,\n'
            '    "value": 0.0258234944479,\n'
            '    "closed_form": 0.0258234944479,\n'
            '    "abs_error": 2.77555756156e-17\n'
            '  },\n'
            '  {\n'
            '    "param": 75.0,\n'
            '    "value": 0.0111628871973,\n'
            '    "closed_form": 0.0111628871973,\n'
            '    "abs_error": 1.21430643318e-17\n'
            '  },\n'
            '  {\n'
            '    "param": 90.0,\n'
            '    "value": 0.00188460560044,\n'
            '    "closed_form": 0.00188460560044,\n'
            '    "abs_error": 1.73472347598e-18\n'
            '  }\n'
            ']\n'
        ),
    ),
]


@pytest.mark.parametrize("argv,code,stdout", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN])
def test_cli_stdout_is_byte_identical(argv, code, stdout, capsys):
    assert main(list(argv)) == code
    assert capsys.readouterr().out == stdout
