"""Stop a run right after one of its checkpoints, as a crash there would."""

from repro.experiments.runner import build_trainer


def kill_after_checkpoint(config, sampler, step, path):
    """Run ``sampler`` on ``config`` until checkpoint ``step`` is at ``path``.

    The run keeps ``config``'s horizon, as a resume must.  The step
    generator writes checkpoint ``step`` when it is resumed after
    yielding that step, so the run stops one step later; that step is
    lost, as in a crash.
    """
    crashed = config.with_overrides(checkpoint_every=step, checkpoint_path=str(path))
    with build_trainer(crashed, sampler) as trainer:
        for outcome in trainer.steps(config.num_steps):
            if outcome.steps_run > step:
                break
