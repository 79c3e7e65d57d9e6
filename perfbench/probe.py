"""Set-up probe: import the package, build one workload, report readiness.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR

Prints ``ready BUSY REFERENCE`` once the workload can run its first op.
``run.py`` times a fresh interpreter running this script, from launch to
that line.  The probe samples the host's speed while it sets up (see
``timing.HostSampler``): BUSY is the time the sampler took, to be left out
of the set-up time, and REFERENCE the reference time it saw.  The sampler
needs NumPy, which the package imports anyway; it starts once NumPy is in.
"""

import sys
from pathlib import Path

from timing import HostSampler, reference_sample, reference_seconds

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    with HostSampler() as sampler:
        import workloads  # imports the package

        workloads.WORKLOADS[name](seed, workdir)
    reference = reference_seconds(sampler.samples or [reference_sample()])
    print(f"ready {sampler.busy!r} {reference!r}", flush=True)


if __name__ == "__main__":
    main()
