//! Property tests for the runtime crate: launch plans.

use numa_gpu_runtime::{socket_for_cta, LaunchPlan};
use numa_gpu_testkit::gen::ints;
use numa_gpu_testkit::{prop_assert_eq, prop_check};
use numa_gpu_types::{CtaSchedulingPolicy, SocketId};

prop_check! {
    /// Launch plans and `socket_for_cta` agree: the plan's per-socket
    /// queues contain exactly the CTAs the pure function assigns there.
    fn plan_agrees_with_assignment(total in ints(1u32..500), sockets in ints(1u8..9)) {
        for policy in [CtaSchedulingPolicy::Interleave, CtaSchedulingPolicy::ContiguousBlock] {
            let mut plan = LaunchPlan::new(policy, total, sockets);
            for s in 0..sockets {
                let socket = SocketId::new(s);
                while let Some(cta) = plan.next_for_socket(socket) {
                    prop_assert_eq!(
                        socket_for_cta(policy, cta.index(), total, sockets),
                        socket
                    );
                }
            }
            prop_assert_eq!(plan.remaining(), 0);
        }
    }
}
