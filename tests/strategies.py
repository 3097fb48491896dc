"""Hypothesis strategies shared by the property-based suites."""

from hypothesis import strategies as st

from repro.perf.kernelspec import KernelSpec
from repro.workloads.application import Application
from repro.workloads.kernel import (
    ConstantSchedule,
    CyclicSchedule,
    WorkloadKernel,
)


@st.composite
def kernel_specs(draw):
    """Random valid kernel descriptors spanning the behaviour space."""
    return KernelSpec(
        name="Prop.Random",
        total_workitems=draw(st.sampled_from([1 << 16, 1 << 18, 1 << 20])),
        workgroup_size=draw(st.sampled_from([64, 128, 256])),
        valu_insts_per_item=draw(st.floats(min_value=5.0, max_value=4000.0)),
        vfetch_insts_per_item=draw(st.floats(min_value=0.0, max_value=20.0)),
        vwrite_insts_per_item=draw(st.floats(min_value=0.0, max_value=8.0)),
        bytes_per_fetch=draw(st.sampled_from([4.0, 8.0, 16.0])),
        bytes_per_write=draw(st.sampled_from([4.0, 8.0, 16.0])),
        vgprs_per_workitem=draw(st.sampled_from([16, 32, 66, 100])),
        sgprs_per_wave=draw(st.sampled_from([16, 32, 64])),
        branch_divergence=draw(st.floats(min_value=0.0, max_value=0.8)),
        l2_hit_rate=draw(st.floats(min_value=0.0, max_value=0.9)),
        l2_thrash_sensitivity=draw(st.floats(min_value=0.0, max_value=0.2)),
        outstanding_per_wave=draw(st.floats(min_value=1.0, max_value=6.0)),
        access_efficiency=draw(st.floats(min_value=0.4, max_value=0.95)),
    )


@st.composite
def applications(draw, max_kernels=3, max_iterations=5):
    """Random applications of 1-``max_kernels`` generated kernels.

    Each kernel keeps its spec constant or cycles its launched work
    (a phase change the controller must notice), and the application
    runs a few iterations.
    """
    specs = draw(st.lists(kernel_specs(), min_size=1, max_size=max_kernels))
    schedules = st.one_of(
        st.just(ConstantSchedule()),
        st.builds(CyclicSchedule, st.tuples(
            st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
            st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
        )),
    )
    kernels = tuple(
        WorkloadKernel(base=spec.evolve(name=f"Gen.K{i}"),
                       schedule=draw(schedules))
        for i, spec in enumerate(specs)
    )
    return Application(
        name="Gen", suite="generated", kernels=kernels,
        iterations=draw(st.integers(min_value=1, max_value=max_iterations)),
    )
