"""Finite-difference gradient checker for the nn layers and the networks.

``gradient_check`` compares the analytic gradients a network's backward
accumulates with central differences of its loss. The unit tests and
acceptance criterion 1 (gradient fidelity) run it.
"""

from dataclasses import dataclass, field


@dataclass
class GradientCheckReport:
    """Worst relative error per parameter, and overall."""

    per_param: dict[str, float] = field(default_factory=dict)
    max_rel_error: float = 0.0
    worst_param: str = ""

    def passed(self, tolerance: float) -> bool:
        return self.max_rel_error < tolerance


def gradient_check(loss_fn, params: list, h: float = 1e-5) -> GradientCheckReport:
    """Compare analytic gradients to central finite differences.

    ``loss_fn`` must zero the gradients, run forward and backward, and
    return the scalar loss; it must be a deterministic function of the
    parameter values. Relative error per element is
    |ga - gn| / max(|ga|, |gn|, 1e-12).
    """
    loss_fn()
    analytic = [p.grad.copy() for p in params]
    report = GradientCheckReport()
    for p, ga in zip(params, analytic):
        flat = p.value.reshape(-1)
        ga_flat = ga.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            loss_plus = loss_fn()
            flat[i] = orig - h
            loss_minus = loss_fn()
            flat[i] = orig
            gn = (loss_plus - loss_minus) / (2.0 * h)
            denom = max(abs(ga_flat[i]), abs(gn), 1e-12)
            worst = max(worst, abs(ga_flat[i] - gn) / denom)
        report.per_param[p.name] = worst
        if worst >= report.max_rel_error:
            report.max_rel_error = worst
            report.worst_param = p.name
    # loss_fn mutated gradients during probing; restore the analytic ones
    loss_fn()
    return report
