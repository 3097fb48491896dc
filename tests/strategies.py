"""Hypothesis strategies shared by the property-based suites."""

from hypothesis import strategies as st

from repro.perf.kernelspec import KernelSpec


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
